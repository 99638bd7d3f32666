"""Ideal triangulations of punctured surfaces, given as glued face slots.

A triangulation is a set of faces 0..F-1, each carrying edge slots 0, 1, 2
in counterclockwise order, together with a perfect matching on the
(face, slot) pairs.  Slot k of a face runs between the face's corners
k+1 and k+2 (mod 3), so the corner opposite slot k is corner k and the
face's ccw boundary traverses slot k from corner k+1 to corner k+2.
Gluing always identifies the two copies of an edge reversing the boundary
direction; that is the only identification an oriented surface admits,
so the matching alone determines the surface.

Derived combinatorics: corner cycles (one per puncture), dual loops,
and unfolded balls used by the developing map.  Per-pair data is an
(F, 3) array indexed [face, slot], read row by row in pair order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Disconnected, NonOrientable, OpenPath, SlotReused, SlotUnglued

Pair = tuple[int, int]      # (face, slot)
Sector = tuple[int, int]    # (face, corner); corner k is opposite slot k

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


@dataclass(frozen=True)
class CornerCycle:
    """Sectors met in ccw order around one puncture.

    crossings[i] is the near-side pair crossed after sectors[i], on the
    way to sectors[(i+1) % len]; its far side is T.gluing[crossings[i]].
    Together the crossings form the puncture's boundary loop.
    """

    index: int
    sectors: tuple[Sector, ...]
    crossings: tuple[Pair, ...]

    def __len__(self) -> int:
        return len(self.sectors)


class IdealTriangulation:
    """Faces plus a slot matching, with derived combinatorics precomputed.

    Treat instances as immutable after construction.
    """

    def __init__(self, faces: int, gluing_pairs) -> None:
        if not _is_int(faces) or faces < 1:
            raise ValueError(f"face count must be a positive integer, got {faces!r}")
        self.faces = faces

        gluing: dict[Pair, Pair] = {}
        for raw in gluing_pairs:
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
        for f in range(faces):
            for s in (0, 1, 2):
                if (f, s) not in gluing:
                    raise SlotUnglued(f"slot {(f, s)} is not glued")
        self.gluing = gluing

        self._check_connected()

        self.pairs: tuple[Pair, ...] = tuple(
            (f, s) for f in range(faces) for s in (0, 1, 2)
        )
        self.sectors: tuple[Sector, ...] = self.pairs  # same index set

        # Edges: (p, gluing[p]) with p < gluing[p], in the order of p, which
        # is the sorted order of the canonical pair-of-pairs.
        self.edges: tuple[tuple[Pair, Pair], ...] = tuple(
            (p, gluing[p]) for p in self.pairs if p < gluing[p]
        )
        # partner[f, s] is the flat index 3 * g + k of gluing[(f, s)] = (g, k);
        # edge_index[f, s] is the position in edges of the edge through (f, s)
        partner = np.array([3 * g + k for g, k in map(gluing.__getitem__, self.pairs)])
        near = np.flatnonzero(np.arange(partner.size) < partner)
        edge_index = np.empty_like(partner)
        edge_index[near] = edge_index[partner[near]] = np.arange(near.size)
        self.partner = partner.reshape(faces, 3)
        # onward[c], c = 3 * f + s: the flat pairs an unfolded ball crosses
        # after crossing (f, s), the far face's two other slots in order
        self.onward = 3 * (partner // 3)[:, None] + ONWARD[partner % 3]
        self.edge_index = edge_index.reshape(faces, 3)

        self.corner_cycles: tuple[CornerCycle, ...] = self._trace_corner_cycles()
        self.num_punctures = len(self.corner_cycles)
        self.num_edges = len(self.edges)
        # chi = F - E = 2 - 2g - s; always negative since E = 3F/2.
        twice_genus = 2 - self.num_punctures + self.faces // 2
        if twice_genus % 2 or twice_genus < 0:
            raise AssertionError("corner cycle census is inconsistent")
        self.genus = twice_genus // 2

    def _check_connected(self) -> None:
        seen = {0}
        queue = deque([0])
        while queue:
            f = queue.popleft()
            for s in (0, 1, 2):
                g = self.gluing[(f, s)][0]
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
        if len(seen) != self.faces:
            missing = sorted(set(range(self.faces)) - seen)
            raise Disconnected(f"faces unreachable from face 0: {missing}")

    def _trace_corner_cycles(self) -> tuple[CornerCycle, ...]:
        # From corner c of face f the ccw exit edge is slot c+1; the far
        # side (f', k') receives the puncture at its corner k'+1.  Each
        # cycle starts at its smallest sector, so cycles come in the
        # order of their starting sectors.  The same walk fills
        # puncture_of[f, c], the puncture at corner c of face f, and
        # cycle_crossings[i], the flat indices 3 * f + s of cycle i's
        # crossed near pairs in crossing order.
        cycles = []
        of = [-1] * (3 * self.faces)
        crossed = []
        for start in self.sectors:
            if of[3 * start[0] + start[1]] >= 0:
                continue
            secs = []
            crossings = []
            f, c = start
            while True:
                of[3 * f + c] = len(cycles)
                secs.append((f, c))
                near = (f, (c + 1) % 3)
                crossings.append(near)
                crossed.append(3 * f + near[1])
                f, k = self.gluing[near]
                c = (k + 1) % 3
                if (f, c) == start:
                    break
            cycles.append(CornerCycle(len(cycles), tuple(secs), tuple(crossings)))
        self.puncture_of = np.array(of).reshape(self.faces, 3)
        ends = np.cumsum([len(cyc) for cyc in cycles[:-1]], dtype=int)
        self.cycle_crossings = tuple(np.split(np.array(crossed), ends))
        return tuple(cycles)

    def pair_table(self, values, noun: str, positive: bool) -> np.ndarray:
        """One float per (face, slot) pair, as a read-only (F, 3) array.

        values is a mapping keyed by pairs or an array of shape (F, 3).
        The first pair in pair order that is missing, not finite or, when
        positive is set, not above zero raises ValueError; so do mapping
        keys that name no pair.
        """
        keyed = isinstance(values, Mapping)
        if keyed:
            table = np.array([values.get(p, np.nan) for p in self.pairs], dtype=float)
            table = table.reshape(self.faces, 3)
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
            need = "positive" if positive else "finite"
            raise ValueError(f"{noun} at {pair} must be {need}, got {table[pair]}")
        if keyed and len(values) > len(self.pairs):
            extra = sorted(set(values) - set(self.pairs))
            raise ValueError(f"{noun}s given for unknown pairs: {extra}")
        return read_only(table)

    def pairs_where(self, mask: np.ndarray) -> list[Pair]:
        """The pairs at which an (F, 3) boolean table holds, in pair order."""
        return [self.pairs[i] for i in np.flatnonzero(mask)]

    def _pair_keys(self):
        """The "face.slot" key of every pair, in pair order: the file format."""
        return (f"{f}.{s}" for f, s in self.pairs)

    def pair_dict(self, table: np.ndarray) -> dict:
        """A pair table keyed "face.slot", the form files store."""
        return dict(zip(self._pair_keys(), table.ravel().tolist()))

    def pairs_from_dict(self, d: dict, noun: str) -> dict:
        """Read back what pair_dict writes: the same values keyed by pairs.

        A key spelled other than pair_dict spells it, or a value that is
        not an int or float (bools included) or is an int beyond float
        range, raises ValueError naming the key; so no two keys can name
        one pair.
        """
        if not isinstance(d, Mapping):
            raise ValueError(f"{noun} table must map pair keys to values, got {d!r}")
        pair_of = dict(zip(self._pair_keys(), self.pairs))
        values = {}
        for key, value in d.items():
            if key not in pair_of:
                raise ValueError(f'{noun} key {key!r} names no "face.slot" pair')
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{noun} at {key!r} must be a number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{noun} at {key!r} is too large for a float") from None
            values[pair_of[key]] = value
        return values

    def euler_characteristic(self) -> int:
        return self.faces - self.num_edges

    def to_dict(self) -> dict:
        """Canonical file form: pairs sorted lexicographically."""
        return {
            "faces": self.faces,
            "gluing": [[list(p), list(q)] for p, q in self.edges],
        }


def build_triangulation(faces: int, gluing_pairs) -> IdealTriangulation:
    """Validate and assemble a triangulation from raw matching data."""
    return IdealTriangulation(faces, gluing_pairs)


def torus_fixture() -> IdealTriangulation:
    """Two faces glued with a cyclic slot offset: genus 1, one puncture."""
    return build_triangulation(
        2, [((0, k), (1, (k + 1) % 3)) for k in range(3)]
    )


def sphere_fixture() -> IdealTriangulation:
    """Double of a triangle: genus 0, three punctures."""
    return build_triangulation(
        2, [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))]
    )


# --- dual structures ------------------------------------------------------


def check_loop(T: IdealTriangulation, crossings) -> tuple[Pair, ...]:
    """Validate a closed face path given by near-side crossings."""
    crossings = [(_check_pair(T.faces, p)) for p in crossings]
    if not crossings:
        raise OpenPath("empty loop has no base face")
    for i, near in enumerate(crossings):
        far = T.gluing[near]
        nxt = crossings[(i + 1) % len(crossings)]
        if nxt[0] != far[0]:
            raise OpenPath(
                f"crossing {near} lands on face {far[0]}, "
                f"but the next crossing starts at face {nxt[0]}"
            )
    return tuple(crossings)


def dual_loops(T: IdealTriangulation, which="punctures"):
    """Closed loops in the dual graph, as tuples of near-side crossings.

    which: "punctures" for the boundary loop of each corner cycle, or
    "basis" for a fundamental cycle basis off a BFS tree rooted at face 0.
    """
    if which == "punctures":
        return [cyc.crossings for cyc in T.corner_cycles]
    if which == "basis":
        return _cycle_basis(T)
    raise ValueError(f"unknown loop family: {which!r}")


def _cycle_basis(T: IdealTriangulation):
    # BFS tree on faces; tree_path[f] = crossings from face 0 to f.
    tree_path: dict[int, tuple[Pair, ...]] = {0: ()}
    tree_edges = set()
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for s in (0, 1, 2):
            g = T.gluing[(f, s)][0]
            if g not in tree_path:
                tree_path[g] = tree_path[f] + ((f, s),)
                tree_edges.add(T.edge_index[(f, s)])
                queue.append(g)
    loops = []
    for i, (p, q) in enumerate(T.edges):
        if i in tree_edges:
            continue
        f, g = p[0], q[0]
        # loop: 0 -> f, cross p, g -> 0 (reverse of tree path to g).
        back = tuple(T.gluing[c] for c in reversed(tree_path[g]))
        loops.append(tree_path[f] + (p,) + back)
    for loop in loops:
        check_loop(T, loop)
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
    depth-D ball has 3 * 2^D - 2 nodes and node i >= 1 has the children
    2i + 2 and 2i + 3.  Per node, read-only int arrays: face, parent,
    entry_slot (the slot of this face crossed to enter) and crossed (the
    flat index 3 * f + s of the parent's pair (f, s) that was crossed);
    the root has -1 in the last three.  The nodes at depth d are
    levels[d]:levels[d + 1].
    """

    base: int
    depth: int
    face: np.ndarray
    parent: np.ndarray
    entry_slot: np.ndarray
    crossed: np.ndarray
    levels: np.ndarray

    @property
    def depths(self) -> np.ndarray:
        """Each node's depth."""
        return np.repeat(np.arange(self.depth + 1), np.diff(self.levels))

    @cached_property
    def corner(self) -> np.ndarray:
        """corner[i, k]: the ideal vertex at node i's corner k, read-only.

        The root's corners are vertices 0, 1, 2 and node i's fresh corner,
        the one at its entry slot, is vertex i + 2; its other two are the
        head and tail of the edge it was entered through, its parent's.
        """
        n = len(self.face)
        near, far = NEAR[self.crossed % 3], FAR[self.entry_slot]
        rows = np.arange(n)[:, None]
        corner = np.empty((n, 3), dtype=int)
        corner[0] = (0, 1, 2)
        for a, b in zip(self.levels[1:-1].tolist(), self.levels[2:].tolist()):
            ids = corner[self.parent[a:b, None], near[a:b]]  # apex, head, tail
            ids[:, 0] = np.arange(a + 2, b + 2)
            corner[rows[a:b], far[a:b]] = ids
        return read_only(corner)


def ball_tree(T: IdealTriangulation, base: int, depth: int):
    """The BFS walk of a ball: UnfoldedBall's arrays, face to levels.

    Each level after the first is one gather: a node that crossed pair c
    crosses T.onward[c] next.
    """
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
        crossed[b:c] = T.onward[crossed[a:b]].ravel()
    face, entry_slot = np.divmod(T.partner.ravel()[crossed], 3)
    face[0], entry_slot[0] = base, -1
    parent = np.arange(-2, n - 2) // 2
    parent[1:4] = 0
    arrays = (face, parent, entry_slot, crossed, np.array(levels))
    return tuple(map(read_only, arrays))


def unfold_ball(T: IdealTriangulation, base: int, depth: int) -> UnfoldedBall:
    """The combinatorial ball of the given depth: ball_tree as an UnfoldedBall."""
    return UnfoldedBall(base, depth, *ball_tree(T, base, depth))
