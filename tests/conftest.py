import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from ckabounds.qmat import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def random_density(rng: np.random.Generator, dims) -> DensityMatrix:
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(tuple(dims), m / m.trace())


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; the dims concatenate."""
    return DensityMatrix(a.dims + b.dims, np.kron(a.matrix, b.matrix))


def maximally_mixed(dims) -> DensityMatrix:
    d = math.prod(dims)
    return DensityMatrix(tuple(dims), np.eye(d, dtype=complex) / d)


def random_pure(rng: np.random.Generator, dims) -> DensityMatrix:
    d = math.prod(dims)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return DensityMatrix(tuple(dims), np.outer(v, v.conj()))
