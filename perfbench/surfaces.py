"""Seeded surfaces and input files for the benchmark.

Everything here is independent of the package under test: triangulations
come from random slot matchings, the census is traced by this module's
own corner-cycle walk, and files are written with the standard json
module.  The census is what the output oracles compare against.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# The broken torus kept in `ball-deep` as a known failing input: at depth
# 12 the library raises NoRealSolution after about 3100 crossings.  It is
# pinned (not drawn from the workload seed) because seeded broken tori fail
# at depth 12 on only about half of the seeds; see NOTES.md.
PINNED_BROKEN_TORUS = {
    (0, 0): 4.696720874863104,
    (0, 1): 6.4965815939173925,
    (0, 2): 3.578517345789153,
    (1, 0): 2.409106585812619,
    (1, 1): 2.815882628911536,
    (1, 2): 3.3919887516236975,
}


# The F=20 surface of `ball-deep` is drawn from this seed's stream, not
# from the workload seed.  On about one seed in ten (7 of the first 70),
# `holonomy --loops punctures` on the seeded broken F=20 structure exits 3,
# so the workload's outcome depended on the seed.  Seed 7 is the first of
# those, so the pinned surface keeps the defect in every run; see NOTES.md.
PINNED_F20_SEED = 7


def surface_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (workload seed, surface tag)."""
    return np.random.default_rng([seed, *tag.encode()])


# Random surfaces are conditioned on their longest corner cycle covering
# this share of the 3F sectors, and relabelled so that cycle is puncture 0.
# The CLI's holonomy report walks punctures in index order and stops at the
# first numerical breakdown; today a loop this long always breaks down at
# its end, so the work done per call is the same on every seed.  Without
# the condition, holonomy time swung by a factor of three across seeds.
LONGEST_CYCLE_SHARE = (0.70, 0.75)


def random_gluing(faces: int, gen: np.random.Generator):
    """Shuffle the 3F slots into pairs until the surface is connected.

    Draws are also rejected until the longest corner cycle's share of the
    sectors falls in LONGEST_CYCLE_SHARE; the accepted gluing is relabelled
    so that face 0's corner 0 lies on that cycle.
    """
    if faces < 2 or faces % 2:
        raise ValueError(f"need an even face count >= 2, got {faces}")
    lo, hi = (share * 3 * faces for share in LONGEST_CYCLE_SHARE)
    while True:
        order = gen.permutation(3 * faces)
        mate = np.empty(3 * faces, dtype=np.int64)
        mate[order[0::2]], mate[order[1::2]] = order[1::2], order[0::2]
        longest = max(corner_cycles(mate), key=len)
        if lo <= len(longest) <= hi and _connected(faces, mate):
            break
    f0, c0 = divmod(longest[0], 3)

    def relabel(slot):
        f, s = divmod(int(slot), 3)
        if f == f0:
            return (0, (s - c0) % 3)
        return (f0 if f == 0 else f, s)

    return [(relabel(a), relabel(b)) for a, b in zip(order[0::2], order[1::2])]


def corner_cycles(mate) -> list:
    """Sector cycles around the punctures; slot and sector ids are 3f + k.

    From corner c of face f the ccw exit is slot c+1; the far side (g, k)
    receives the puncture at its corner k+1.
    """
    mate = np.asarray(mate)
    sectors = np.arange(len(mate))
    far = mate[sectors - sectors % 3 + (sectors + 1) % 3]
    step = (far - far % 3 + (far + 1) % 3).tolist()
    seen = bytearray(len(mate))
    cycles = []
    for start in range(len(mate)):
        if seen[start]:
            continue
        cycle, cur = [], start
        while not seen[cur]:
            seen[cur] = 1
            cycle.append(cur)
            cur = step[cur]
        cycles.append(cycle)
    return cycles


def _connected(faces: int, mate) -> bool:
    nbrs = (np.asarray(mate) // 3).reshape(faces, 3).tolist()
    seen, stack = {0}, [0]
    while stack:
        for g in nbrs[stack.pop()]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return len(seen) == faces


TORUS_GLUING = [((0, k), (1, (k + 1) % 3)) for k in range(3)]
SPHERE_GLUING = [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))]


@dataclass
class Surface:
    """One triangulated surface, its census, and the structures on it."""

    name: str
    faces: int
    pairs: list
    census: dict
    structures: dict  # kind -> {(face, slot): lambda}


def census(faces: int, pairs) -> dict:
    """F, E, g, s and corner-cycle lengths, from this module's own walk."""
    mate = [0] * (3 * faces)
    for (f, s), (g, k) in pairs:
        mate[3 * f + s], mate[3 * g + k] = 3 * g + k, 3 * f + s
    lengths = [len(c) for c in corner_cycles(mate)]
    edges = len(pairs)
    punctures = len(lengths)
    return {
        "faces": faces,
        "edges": edges,
        "punctures": punctures,
        "genus": (2 - punctures - (faces - edges)) // 2,
        "euler_characteristic": faces - edges,
        "corner_cycle_lengths": lengths,
    }


def edge_ids(pairs):
    ids = {}
    for e, (p, q) in enumerate(pairs):
        ids[p] = ids[q] = e
    return ids


def broken_valid(faces: int, pairs, gen: np.random.Generator) -> dict:
    """Product ansatz gap(f, s) = mu_f * beta_e: valid and broken everywhere.

    beta cancels within each crossing and the mu's telescope around each
    corner cycle, so puncture holonomy closes; beta in [1, 1.9] keeps
    every face inequality strict.
    """
    beta = gen.uniform(1.0, 1.9, size=len(pairs))
    mu = gen.uniform(0.6, 1.7, size=faces)
    ids = edge_ids(pairs)
    return {
        (f, s): math.sqrt(2.0 * math.exp(mu[f] * beta[ids[(f, s)]]))
        for f in range(faces)
        for s in range(3)
    }


def unbroken(faces: int, pairs, gen: np.random.Generator) -> dict:
    """One lambda per edge in [2, 2.8]; 2 * 2 >= sqrt(2) * 2.8 keeps faces valid."""
    per_edge = gen.uniform(2.0, 2.8, size=len(pairs))
    ids = edge_ids(pairs)
    return {(f, s): float(per_edge[ids[(f, s)]]) for f in range(faces) for s in range(3)}


def gap_measure(lam: dict) -> dict:
    """Gap-chart image w = log(lambda^2 / 2) of a structure."""
    return {p: math.log(v * v / 2.0) for p, v in lam.items()}


def make_surface(name: str, faces: int, pairs, structures: dict) -> Surface:
    return Surface(name, faces, pairs, census(faces, pairs), structures)


def lambda2_torus(name: str) -> Surface:
    """The once-punctured torus with lambda = 2 on every side (unbroken)."""
    lam = {(f, s): 2.0 for f in range(2) for s in range(3)}
    return make_surface(name, 2, TORUS_GLUING, {"unbroken": lam})


def random_surface(name: str, faces: int, seed: int, kinds=("broken", "unbroken")):
    gen = surface_rng(seed, name)
    pairs = random_gluing(faces, gen)
    makers = {"broken": broken_valid, "unbroken": unbroken}
    structures = {kind: makers[kind](faces, pairs, gen) for kind in kinds}
    return make_surface(name, faces, pairs, structures)


def _key(pair) -> str:
    return f"{pair[0]}.{pair[1]}"


def _dump(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_files(surface: Surface, directory: str) -> dict:
    """Triangulation, structure and gap-measure files; returns kind -> path.

    Structure and measure files name their triangulation file by path.
    """
    paths = {}
    tri = f"{surface.name}.tri.json"
    paths["triangulation"] = os.path.join(directory, tri)
    _dump(
        paths["triangulation"],
        {
            "faces": surface.faces,
            "gluing": [[list(p), list(q)] for p, q in surface.pairs],
        },
    )
    for kind, lam in surface.structures.items():
        paths[kind] = os.path.join(directory, f"{surface.name}.{kind}.json")
        _dump(
            paths[kind],
            {"triangulation": tri, "lambda": {_key(p): v for p, v in lam.items()}},
        )
    if "broken" in surface.structures:
        paths["measure"] = os.path.join(directory, f"{surface.name}.measure.json")
        w = gap_measure(surface.structures["broken"])
        _dump(
            paths["measure"],
            {"triangulation": tri, "w": {_key(p): v for p, v in w.items()}},
        )
    return paths
