import numpy as np
import pytest

from brokensurf import samples, sphere_fixture, torus_fixture
from brokensurf.errors import Disconnected
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
