import numpy as np
import pytest

from brokensurf import samples, sphere_fixture, torus_fixture
from brokensurf.errors import Disconnected
from brokensurf.hyperbolic import SQRT2, DecoratedBrokenHyperbolic
from brokensurf.triangulation import build_triangulation


def random_triangulation(faces: int, seed: int):
    """Connected triangulation from the 3F slots shuffled into pairs.

    Shuffles again until the pairing is connected; faces must be even.
    """
    gen = samples.rng(seed)
    slots = [(f, s) for f in range(faces) for s in (0, 1, 2)]
    while True:
        order = gen.permutation(len(slots))
        pairs = [
            (slots[order[i]], slots[order[i + 1]]) for i in range(0, len(slots), 2)
        ]
        try:
            return build_triangulation(faces, pairs)
        except Disconnected:
            continue


def oracle_table(T, oracle) -> np.ndarray:
    """An (F, 3) table of oracle(pair), one pair at a time in pair order."""
    return np.array([oracle(p) for p in T.pairs], dtype=float).reshape(T.faces, 3)


def table_structures(T):
    """Valid, boxed and unbroken structures, then the valid one with zero gaps."""
    gen = samples.rng(T.faces)
    valid = samples.random_valid_structure(T, gen)
    lam = valid.lam.copy()
    lam.ravel()[::5] = SQRT2
    return [
        valid,
        samples.random_boxed_structure(T, gen),
        samples.random_unbroken(T, gen),
        DecoratedBrokenHyperbolic(T, lam),
    ]


def dense(form) -> np.ndarray:
    """A two-form's dense 3F x 3F matrix: its block once per face."""
    return np.kron(np.eye(form.faces), form.block)


@pytest.fixture(scope="session")
def torus():
    return torus_fixture()


@pytest.fixture(scope="session")
def sphere():
    return sphere_fixture()


@pytest.fixture()
def gen():
    return samples.rng(0)


@pytest.fixture(
    params=["torus", "sphere"]
    + [f"F{faces}-seed{seed}" for faces in (2, 20, 200) for seed in range(4)]
)
def table_surface(request):
    """The fixtures, then random_triangulation(F, seed) for F in 2, 20, 200.

    The surfaces on which every per-pair table is pinned to its scalar
    oracle.
    """
    if request.param in ("torus", "sphere"):
        return request.getfixturevalue(request.param)
    faces, seed = map(int, request.param[1:].split("-seed"))
    return random_triangulation(faces, seed)
