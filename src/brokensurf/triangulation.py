"""Ideal triangulations of punctured surfaces, given as glued face slots.

A triangulation is a set of faces 0..F-1, each carrying edge slots 0, 1, 2
in counterclockwise order, together with a perfect matching on the
(face, slot) pairs.  Slot k of a face runs between the face's corners
k+1 and k+2 (mod 3), so the corner opposite slot k is corner k and the
face's ccw boundary traverses slot k from corner k+1 to corner k+2.
Gluing always identifies the two copies of an edge reversing the boundary
direction; that is the only identification an oriented surface admits,
so the matching alone determines the surface.

A pair (f, s) and a sector (f, c) both have the flat index 3 * f + s
(or 3 * f + c), and a crossing, a path or a loop names the pairs it
crosses by that index alone.  The matching is the flat involution
partner on pairs, and the corner cycles (one per puncture) are the
cycles of one permutation of sectors.  Construction builds only int
arrays over flat indices: partner, onward, edge_sides, edge_index,
puncture_of and cycle_crossings.  The tuple views pairs and edges,
which tables and files are keyed by, are built on first access.
Per-pair data is an (F, 3) array indexed [face, slot], read row by row
in pair order.  Also here: dual loops, and unfolded balls used by the
developing map.

Files reach these arrays in whole-input passes.  A gluing of plain ints
is type-checked over its flattened entries and range-checked as one int
array; a pair table keyed "face.slot" is spelling-checked by one match
over all its keys and parsed into flat indices by one numpy pass.
Whatever those passes turn away is walked entry by entry or key by key,
which raises the message for the first bad one in order.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import Disconnected, NonOrientable, OpenPath, SlotReused, SlotUnglued

Pair = tuple[int, int]      # (face, slot)

# Columns of slots (or corners) k+1 and k+2 of a face, for each k.
NEXT = np.array([1, 2, 0])
PREV = np.array([2, 0, 1])

# The slots a face instance crosses next, by the slot it was entered at.
ONWARD = np.array([[1, 2], [0, 2], [0, 1]])


def read_only(table: np.ndarray) -> np.ndarray:
    """Lock a per-pair table that every caller shares, and return it."""
    table.flags.writeable = False
    return table


def _is_int(x) -> bool:
    """An int proper: bool is a subclass of int, but True is no index."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_indices(values, size: int, noun: str) -> tuple[int, ...]:
    """values as a tuple of ints, each in range(size).

    The first value that is no int (bools and (face, slot) pairs
    included) or is out of range raises ValueError naming it.
    """
    values = tuple(values)
    ints = set(map(type, values)) <= {int}
    if ints and 0 <= min(values, default=0) and max(values, default=0) < size:
        return values
    for v in values:
        if not (_is_int(v) and 0 <= v < size):
            raise ValueError(f"{noun} {v!r} is not an int in range({size})")
    return tuple(map(int, values))


def _check_pair(faces: int, p) -> Pair:
    if (
        not isinstance(p, (tuple, list))
        or len(p) != 2
        or not all(_is_int(x) for x in p)
    ):
        raise ValueError(f"malformed (face, slot) pair: {p!r}")
    f, s = p
    if not 0 <= f < faces:
        raise ValueError(f"face index out of range: {p!r}")
    if s not in (0, 1, 2):
        raise ValueError(f"slot index out of range: {p!r}")
    return (f, s)


def _partner(faces: int, entries: list) -> np.ndarray:
    """The flat partner array of the matching that (p, q) entries glue.

    Entries of plain tuples or lists of plain ints pass a few checks over
    the whole input: type checks over the flattened entries, then range
    and once-each checks on one int array.  Anything those checks turn
    away goes to _partner_by_entry, which raises for the first bad entry
    in order.
    """
    if set(map(type, entries)) <= {tuple, list} and set(map(len, entries)) == {2}:
        pairs = list(chain.from_iterable(entries))
        if set(map(type, pairs)) <= {tuple, list} and set(map(len, pairs)) == {2}:
            flat = list(chain.from_iterable(pairs))
            if len(flat) == 6 * faces and set(map(type, flat)) == {int}:
                try:
                    ints = np.fromiter(flat, np.intp, len(flat))
                except OverflowError:  # an int beyond intp is out of range
                    return _partner_by_entry(faces, entries)
                face, slot = ints[0::2], ints[1::2]
                slots = 3 * face + slot
                # every slot once: none unglued, reused or glued to itself
                if (
                    ints.min() >= 0
                    and face.max() < faces
                    and slot.max() <= 2
                    and (np.bincount(slots) == 1).all()
                ):
                    a, b = slots[0::2], slots[1::2]
                    partner = np.empty_like(slots)
                    partner[a], partner[b] = b, a
                    return partner
    return _partner_by_entry(faces, entries)


def _partner_by_entry(faces: int, entries: list) -> np.ndarray:
    """_partner checked one entry at a time, in order.

    Raises for the first malformed, out-of-range, self-glued or reused
    entry, then for the first unglued slot.  It also accepts what
    _partner's checks turn away on type alone: tuple and list subclasses
    such as named tuples, and int subclasses other than bool.
    """
    gluing: dict[Pair, Pair] = {}
    for raw in entries:
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            raise ValueError(f"malformed gluing entry: {raw!r}")
        a = _check_pair(faces, raw[0])
        b = _check_pair(faces, raw[1])
        if a == b:
            raise NonOrientable(f"slot {a} glued to itself")
        for p, q in ((a, b), (b, a)):
            if p in gluing:
                raise SlotReused(f"slot {p} appears in more than one gluing")
            gluing[p] = q
    partner = []
    for f in range(faces):
        for s in (0, 1, 2):
            if (f, s) not in gluing:
                raise SlotUnglued(f"slot {(f, s)} is not glued")
            g, k = gluing[(f, s)]
            partner.append(3 * g + k)
    return np.array(partner)


def _check_connected(faces: int, partner: np.ndarray) -> None:
    neighbours = (partner // 3).reshape(faces, 3).tolist()
    seen = [False] * faces
    seen[0] = True
    stack = [0]
    while stack:
        for g in neighbours[stack.pop()]:
            if not seen[g]:
                seen[g] = True
                stack.append(g)
    if not all(seen):
        missing = [f for f, reached in enumerate(seen) if not reached]
        raise Disconnected(f"faces unreachable from face 0: {missing}")


class IdealTriangulation:
    """Faces plus a slot matching, with derived combinatorics precomputed.

    Treat instances as immutable after construction.
    """

    def __init__(self, faces: int, gluing_pairs) -> None:
        if not _is_int(faces) or faces < 1:
            raise ValueError(f"face count must be a positive integer, got {faces!r}")
        self.faces = faces
        # partner[f, s] = 3 * g + k, the flat index of the pair glued to (f, s)
        partner = _partner(faces, list(gluing_pairs))
        _check_connected(faces, partner)
        self.partner = partner.reshape(faces, 3)
        # onward[c], c = 3 * f + s: the flat pairs an unfolded ball crosses
        # after crossing (f, s), the far face's two other slots in order
        self.onward = 3 * (partner // 3)[:, None] + ONWARD[partner % 3]
        # edge_sides[e] = (p, q): edge e's near and far flat pairs, p < q,
        # in the order of p; edge_index[f, s] is the edge through (f, s)
        near = np.flatnonzero(np.arange(partner.size) < partner)
        self.edge_sides = read_only(np.array((near, partner[near])).T)
        edge_index = np.empty_like(partner)
        edge_index[self.edge_sides.T] = np.arange(near.size)
        self.edge_index = edge_index.reshape(faces, 3)
        self.num_edges = near.size

        self._trace_corner_cycles()
        self.num_punctures = len(self.cycle_crossings)
        # chi = F - E = 2 - 2g - s
        twice_genus = 2 - self.num_punctures - self.euler_characteristic()
        if twice_genus % 2 or twice_genus < 0:
            raise AssertionError("corner cycle census is inconsistent")
        self.genus = twice_genus // 2

    def _trace_corner_cycles(self) -> None:
        # From corner c of face f the ccw exit edge is slot c+1; the far
        # side (f', k') receives the puncture at its corner k'+1.  So on
        # flat sectors the walk is one permutation, onward.  Each cycle
        # starts at its smallest sector, so cycles come in the order of
        # their starting sectors.  The walk fills puncture_of[f, c], the
        # puncture at corner c of face f, and cycle_crossings[i], the flat
        # indices 3 * f + s of cycle i's crossed near pairs in crossing
        # order.
        sector = np.arange(3 * self.faces)
        exit_pair = sector - sector % 3 + NEXT[sector % 3]
        far = self.partner.ravel()[exit_pair]
        onward = (far - far % 3 + NEXT[far % 3]).tolist()
        of = [-1] * len(onward)
        order = []
        ends = []
        for start in range(len(onward)):
            if of[start] >= 0:
                continue
            puncture, s = len(ends), start
            while of[s] < 0:
                of[s] = puncture
                order.append(s)
                s = onward[s]
            ends.append(len(order))
        self.puncture_of = np.array(of).reshape(self.faces, 3)
        self.cycle_crossings = tuple(np.split(exit_pair[order], ends[:-1]))

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        """Every (face, slot) in pair order, the order of flat indices."""
        return tuple(map(divmod, range(3 * self.faces), repeat(3)))

    @cached_property
    def edges(self) -> tuple[tuple[Pair, Pair], ...]:
        """(p, q) for each pair p glued to a later pair q, in the order of p.

        That is the sorted order of the canonical pair-of-pairs.
        """
        near, far = self.edge_sides.T.tolist()
        at = self.pairs.__getitem__
        return tuple(zip(map(at, near), map(at, far)))

    def pair_table(self, values, noun: str, positive: bool) -> np.ndarray:
        """One float per (face, slot) pair, as a read-only (F, 3) array.

        values is a mapping keyed by pairs or an array of shape (F, 3).
        The first pair in pair order that is missing, not finite or, when
        positive is set, not above zero raises ValueError; so do mapping
        keys that name no pair.
        """
        keyed = isinstance(values, Mapping)
        if keyed:
            table = list(map(values.get, self.pairs, repeat(np.nan)))
            table = np.array(table, dtype=float).reshape(self.faces, 3)
        else:
            table = np.array(values, dtype=float)
            if table.shape != (self.faces, 3):
                need = (self.faces, 3)
                raise ValueError(f"{noun} table shape {table.shape} is not {need}")
        bad = ~np.isfinite(table) | (positive & (table <= 0.0))
        if bad.any():
            pair = self.pairs[np.flatnonzero(bad)[0]]
            if keyed and pair not in values:
                raise ValueError(f"missing {noun} for pair {pair}")
            value = table[pair]
            need = "positive" if np.isfinite(value) else "finite"
            raise ValueError(f"{noun} at {pair} must be {need}, got {value}")
        if keyed and len(values) > len(self.pairs):
            extra = sorted(set(values) - set(self.pairs))
            raise ValueError(f"{noun}s given for unknown pairs: {extra}")
        return read_only(table)

    def pairs_where(self, mask: np.ndarray) -> list[Pair]:
        """The pairs at which an (F, 3) boolean table holds, in pair order."""
        return list(map(divmod, np.flatnonzero(mask).tolist(), repeat(3)))

    def pair_dict(self, table: np.ndarray) -> dict:
        """A pair table keyed "face.slot", the form files store."""
        slots = (".0", ".1", ".2")
        keys = [f + s for f in map(str, range(self.faces)) for s in slots]
        return dict(zip(keys, table.ravel().tolist()))

    def pairs_from_dict(self, d: dict, noun: str) -> np.ndarray | dict:
        """Read back what pair_dict writes, as values for pair_table.

        A table naming every pair comes back as an (F, 3) float array,
        filled through the keys' flat indices.  A key spelled other than
        pair_dict spells it, or a value that is not an int or float
        (bools included) or is an int beyond float range, raises
        ValueError naming the first such key; so no two keys can name one
        pair.  A table that leaves pairs out comes back keyed by pairs,
        so that pair_table names the first bad pair in pair order.

        The keys of a table of 3F entries are checked by one match over
        them all and parsed by one numpy pass, and its values by one type
        check and one conversion.  Any table those checks turn away goes
        to _pairs_by_key, which raises for the first bad key in order.
        """
        if not isinstance(d, Mapping):
            raise ValueError(f"{noun} table must map pair keys to values, got {d!r}")
        size = 3 * self.faces
        if len(d) == size:
            at = self._flat_indices(d)
            numbers = list(d.values())
            if at is not None and set(map(type, numbers)) <= {int, float}:
                try:
                    numbers = np.array(numbers, dtype=float)
                except OverflowError:
                    pass  # _pairs_by_key names the first key too large
                else:
                    table = np.empty(size)
                    table[at] = numbers
                    return table.reshape(self.faces, 3)
        return self._pairs_by_key(d, noun)

    def _pairs_by_key(self, d: Mapping, noun: str) -> dict:
        """pairs_from_dict checked one key at a time, in order, keyed by pairs.

        Also what pairs_from_dict's checks turn away on type alone takes
        this walk: int and float subclasses other than bool.
        """
        key_pattern, values = self._key_pattern(), {}
        for key, value in d.items():
            spelled = isinstance(key, str) and re.fullmatch(key_pattern, key)
            if not spelled or int(key[:-2]) >= self.faces:
                raise ValueError(f'{noun} key {key!r} names no "face.slot" pair')
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{noun} at {key!r} must be a number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{noun} at {key!r} is too large for a float") from None
            values[(int(key[:-2]), int(key[-1]))] = value
        return values

    def _key_pattern(self) -> str:
        """A regex for a key as pair_dict spells it: the face in ASCII
        decimal with no sign, space or leading zero, a dot and the slot.

        The face has at most as many digits as F - 1, so parsing one can
        neither overflow nor hit int's digit limit; a face below that
        bound but not below F still matches.
        """
        return rf"(?:0|[1-9][0-9]{{0,{len(str(self.faces - 1)) - 1}}})\.[012]"

    def _flat_indices(self, keys) -> np.ndarray | None:
        """The flat index of the pair each key names, or None.

        None unless every key is a str spelled as pair_dict spells it and
        names a face below F.  One match over the keys joined by newlines
        checks the spelling, and one numpy pass parses them; a key holding
        a newline splits into two, which the count then turns away.
        """
        try:
            joined = "\n".join(keys)
        except TypeError:  # a key that is no str
            return None
        key = self._key_pattern()
        if not re.fullmatch(rf"(?:{key}\n)*{key}", joined):
            return None
        face_slot = np.fromstring(joined.replace(".", " "), dtype=np.intp, sep=" ")
        face, slot = face_slot[0::2], face_slot[1::2]
        if face.size != len(keys) or face.max() >= self.faces:
            return None
        return 3 * face + slot

    def euler_characteristic(self) -> int:
        return self.faces - self.num_edges

    def to_dict(self) -> dict:
        """Canonical file form: pairs sorted lexicographically."""
        return {
            "faces": self.faces,
            "gluing": [[list(p), list(q)] for p, q in self.edges],
        }


build_triangulation = IdealTriangulation  # validate and assemble raw matching data


def torus_fixture() -> IdealTriangulation:
    """Two faces glued with a cyclic slot offset: genus 1, one puncture."""
    return IdealTriangulation(2, [((0, k), (1, (k + 1) % 3)) for k in range(3)])


def sphere_fixture() -> IdealTriangulation:
    """Double of a triangle: genus 0, three punctures."""
    pairs = [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))]
    return IdealTriangulation(2, pairs)


# --- dual structures ------------------------------------------------------


def check_loop(T: IdealTriangulation, crossings) -> tuple[int, ...]:
    """Validate a closed face path given by its near-side crossings 3f+s."""
    crossings = check_indices(crossings, 3 * T.faces, "crossing")
    if not crossings:
        raise OpenPath("empty loop has no base face")
    path = np.array(crossings)
    lands = T.partner.ravel()[path] // 3
    starts = np.roll(path // 3, -1)
    bad = np.flatnonzero(lands != starts)
    if bad.size:
        i = bad[0]
        raise OpenPath(
            f"crossing {divmod(crossings[i], 3)} lands on face {lands[i]}, "
            f"but the next crossing starts at face {starts[i]}"
        )
    return crossings


def check_loops(T: IdealTriangulation, loops) -> list[tuple[int, ...]]:
    """check_loop on every loop, in one pass over all their crossings.

    Returns the loops as tuples of ints, or raises what check_loop raises
    for the first loop it rejects.
    """
    loops = [tuple(loop) for loop in loops]
    flat = [c for loop in loops for c in loop]
    if (
        all(loops)
        and set(map(type, flat)) <= {int}
        and 0 <= min(flat, default=0)
        and max(flat, default=0) < 3 * T.faces
    ):
        path = np.array(flat, dtype=np.intp)
        lands = T.partner.ravel()[path] // 3
        # each crossing's successor in its own loop, the last wrapping round
        lengths = np.array([len(loop) for loop in loops], dtype=np.intp)
        ends = np.cumsum(lengths)
        successor = np.arange(1, len(flat) + 1)
        successor[ends - 1] = ends - lengths
        if np.array_equal(lands, path[successor] // 3):
            return loops
    return [check_loop(T, loop) for loop in loops]


def dual_loops(T: IdealTriangulation, which="punctures"):
    """Closed loops in the dual graph, as tuples of near-side crossings 3f+s.

    which: "punctures" for the boundary loop of each corner cycle, or
    "basis" for a fundamental cycle basis off a BFS tree rooted at face 0.
    """
    if which == "punctures":
        return [tuple(crossed.tolist()) for crossed in T.cycle_crossings]
    if which == "basis":
        return _cycle_basis(T)
    raise ValueError(f"unknown loop family: {which!r}")


def _cycle_basis(T: IdealTriangulation):
    partner = T.partner.ravel().tolist()
    edge_index = T.edge_index.ravel().tolist()
    # BFS tree on faces; tree_path[f] = crossings from face 0 to f.
    tree_path: dict[int, tuple[int, ...]] = {0: ()}
    tree_edges = set()
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for c in range(3 * f, 3 * f + 3):
            g = partner[c] // 3
            if g not in tree_path:
                tree_path[g] = tree_path[f] + (c,)
                tree_edges.add(edge_index[c])
                queue.append(g)
    loops = []
    for e, (c, q) in enumerate(T.edge_sides.tolist()):
        if e in tree_edges:
            continue
        # loop: 0 -> c's face, cross c, q's face -> 0 (reverse of its tree path).
        back = tuple(partner[x] for x in reversed(tree_path[q // 3]))
        loops.append(tree_path[c // 3] + (c,) + back)
    return loops


# --- unfolded balls -------------------------------------------------------


# Corners of a face instance by their part in a crossing.  Crossing slot
# s, the near instance's apex, head and tail are its corners NEAR[s] =
# (s, s+1, s+2); gluing reverses the edge, so entering at slot k puts
# the fresh corner, the head and the tail at the far instance's corners
# FAR[k] = (k, k+2, k+1).
NEAR = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
FAR = np.array([[0, 2, 1], [1, 0, 2], [2, 1, 0]])


@dataclass(frozen=True, eq=False)
class UnfoldedBall:
    """Rooted unfolding tree of face instances around a base face.

    Nodes are numbered in BFS order.  The root has three children and
    every other node two (it never re-crosses its entry slot), so a
    depth-D ball has N = 3 * 2^D - 2 nodes and node i >= 1 has the
    children 2i + 2 and 2i + 3.  Per node, read-only int arrays: face,
    parent, entry_slot (the slot of this face crossed to enter) and
    crossed (the flat index 3 * f + s of the parent's pair (f, s) that
    was crossed); the root has -1 in the last three.  The nodes at depth
    d are levels[d]:levels[d + 1].  corner[i, k] is the ideal vertex at
    node i's corner k, one of N + 2: the root's corners are vertices 0,
    1, 2 and node i's fresh corner, the one at its entry slot, is vertex
    i + 2; its other two are the head and tail of the edge it was
    entered through, its parent's.
    """

    base: int
    depth: int
    face: np.ndarray
    parent: np.ndarray
    entry_slot: np.ndarray
    crossed: np.ndarray
    levels: np.ndarray
    corner: np.ndarray

    @property
    def depths(self) -> np.ndarray:
        """Each node's depth."""
        return np.repeat(np.arange(self.depth + 1), np.diff(self.levels))


def ball_tree(T: IdealTriangulation, base: int, depth: int):
    """The BFS walk of a ball: UnfoldedBall's arrays face to corner, and near.

    Each level after the first is one gather: a node that crossed pair c
    crosses T.onward[c] next.  The nodes' corners then take one gather
    and one scatter per level, on flat corner indices 3 * node + k.
    near, a (3, N) int table, holds the vertices at the apex, head and
    tail of the pair each node's parent crossed to reach it (the root's
    column is not set); develop reads its levels from it.  base and
    depth must be ints, numpy integers included: anything else raises
    ValueError naming it.
    """
    for noun, value in (("base face", base), ("depth", depth)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{noun} must be an int, got {value!r}")
    if not 0 <= base < T.faces:
        raise ValueError(f"base face out of range: {base}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    levels = [0, *(3 * 2**d - 2 for d in range(depth + 1))]
    n = levels[-1]
    crossed = np.full(n, -1)
    if depth:
        crossed[1:4] = 3 * base + np.arange(3)
    for a, b, c in zip(levels[1:], levels[2:], levels[3:]):
        crossed[b:c] = T.onward.take(crossed[a:b], axis=0).ravel()
    face, entry_slot = np.divmod(T.partner.ravel()[crossed], 3)
    face[0], entry_slot[0] = base, -1
    parent = np.arange(-2, n - 2) // 2
    parent[1:4] = 0
    # The corner walk runs on flat indices 3 * node + k: src[:, i] is where
    # node i's parent holds the apex, head and tail of the pair it crossed,
    # dst[:, i] where node i holds its fresh corner (vertex i + 2), that
    # head and that tail.  Each level gathers near from src and scatters
    # its head and tail rows to dst.
    corner = np.empty((n, 3), dtype=int)
    flat = corner.reshape(-1)
    src = NEAR.T.take(crossed % 3, axis=1)
    src += 3 * parent
    dst = FAR.T.take(entry_slot, axis=1)
    dst += np.arange(0, 3 * n, 3)
    flat[:3] = 0, 1, 2
    flat[dst[0, 1:]] = np.arange(3, n + 2)
    near = np.empty((3, n), dtype=int)
    for a, b in zip(levels[1:-1], levels[2:]):
        near[:, a:b] = flat[src[:, a:b]]
        flat[dst[1:, a:b]] = near[1:, a:b]
    arrays = (face, parent, entry_slot, crossed, np.array(levels), corner)
    return tuple(map(read_only, arrays)), near


def unfold_ball(T: IdealTriangulation, base: int, depth: int) -> UnfoldedBall:
    """The combinatorial ball of the given depth: ball_tree as an UnfoldedBall."""
    return UnfoldedBall(base, depth, *ball_tree(T, base, depth)[0])
