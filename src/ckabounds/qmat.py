"""Small dense complex linear algebra and quantum entropic quantities.

Conventions used throughout the package:

* all logarithms are base 2, so every entropic quantity is in bits;
* subsystems of a composite state are indexed from 0 in tensor order;
* total dimensions stay small (<= ~64), so dense eigendecompositions are
  always affordable and no sparse machinery is provided;
* validity (finite entries, hermiticity, positivity) is checked once, by
  `hermitian_matrix`, when a `DensityMatrix` or `Povm` is constructed, not
  on every operation;
* every dimension (at least 1) and subsystem index (0..n-1) passes
  `secrecy.integer`, so 2.5, "1" or a value outside its range is a one-line
  `ValueError`, never truncated.

Adversarial systems are modelled as finite-dimensional throughout.  This is
a computational restriction, not a claim of tightness: the quantities
computed here are evaluated on explicit finite extensions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .secrecy import integer

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
MIN_EIGENVALUE = -1e-9
EIGENVALUE_CLAMP = 1e-12

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def hermitian_matrix(m, dim: int, min_eigenvalue: float, name: str) -> np.ndarray:
    """`m` as a read-only complex (dim x dim) matrix: finite, Hermitian within
    `HERMITICITY_TOL`, no eigenvalue below `min_eigenvalue`; `name` leads each message."""
    dim = integer(dim, f"{name} dimension", 1)
    m = np.array(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of ndim {m.ndim}")
    if m.shape != (dim, dim):
        raise ValueError(f"{name} shape {m.shape} does not match dimension {dim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has a non-finite entry")
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL:g}")
    if np.linalg.eigvalsh(m).min() < min_eigenvalue:
        raise ValueError(f"{name} is not positive semidefinite: "
                         f"an eigenvalue is below {min_eigenvalue:g}")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace matrix on labeled tensor factors, checked by `hermitian_matrix`.

    `dims` lists the dimension of each tensor factor; `matrix` is the
    (prod(dims) x prod(dims)) complex matrix in row-major tensor order.
    A factor of dimension 1 is allowed as a trivial subsystem (it arises
    as the environment of a purified pure state).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(integer(d, "dimension", 1) for d in self.dims)
        if not dims:
            raise ValueError("a density matrix needs at least one subsystem")
        m = hermitian_matrix(self.matrix, math.prod(dims), MIN_EIGENVALUE, "density matrix")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1 within 1e-10")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def n_factors(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure on one subsystem, one effect per outcome, each
    checked by `hermitian_matrix`; the effects share one (dim x dim) shape and sum to I."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        shapes = sorted({np.shape(e) for e in self.effects})
        if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
            raise ValueError(f"POVM needs at least one effect, all of one square shape: {shapes}")
        dim = shapes[0][0]
        effects = tuple(hermitian_matrix(e, dim, -HERMITICITY_TOL, "POVM effect")
                        for e in self.effects)
        if np.abs(sum(effects) - np.eye(dim)).max() > HERMITICITY_TOL:
            raise ValueError("POVM effects do not sum to the identity within 1e-10")
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the `keep` factors (a nonempty index set), factor order kept."""
    n = rho.n_factors
    keep = sorted({integer(i, "keep index", 0, n - 1) for i in keep})
    if not keep:
        raise ValueError("keep must be a nonempty set of subsystem indices")
    if len(keep) == n:
        return rho
    t = rho.matrix.reshape(rho.dims + rho.dims)
    row = list(_LETTERS[:n])
    col = list(_LETTERS[n:2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    d = math.prod(rho.dims[i] for i in keep)
    return DensityMatrix(tuple(rho.dims[i] for i in keep), reduced.reshape(d, d))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum(lambda log2 lambda) in bits, eigenvalues below 1e-12 treated as 0."""
    vals = np.linalg.eigvalsh(rho.matrix)
    vals = vals[vals > EIGENVALUE_CLAMP]
    return float(-(vals * np.log2(vals)).sum()) if vals.size else 0.0


def quantum_cmi(rho: DensityMatrix,
                groups: Sequence[Sequence[int]],
                eve: Sequence[int] = ()) -> float:
    """Multipartite conditional mutual information sum_i H(A_i|E) - H(A_1..A_N|E).

    `groups` collects the subsystem indices of each party A_i and `eve` the
    conditioning subsystems E (may be empty, in which case the conditional
    entropies are unconditional).  Together they must partition the factors.
    The sum over parties runs left to right, the same bits on every interpreter.
    """
    groups = [tuple(integer(i, "group index") for i in g) for g in groups]
    eve = tuple(integer(i, "eve index") for i in eve)
    parties = tuple(i for g in groups for i in g)
    if len(groups) < 2 or any(not g for g in groups):
        raise ValueError("need at least two nonempty groups")
    if sorted(parties + eve) != list(range(rho.n_factors)):
        raise ValueError("groups and eve must partition the subsystems")

    def ent(subsys: tuple[int, ...]) -> float:
        return von_neumann_entropy(partial_trace(rho, subsys)) if subsys else 0.0

    h_eve = ent(eve)
    total = 0.0
    for g in groups:  # not sum(): Python 3.12 compensates float sums
        total += ent(g + eve) - h_eve
    return total - (ent(parties + eve) - h_eve)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho (log2 rho - log2 sigma)] if supp(rho) is in supp(sigma), else +inf.

    The support test declares a violation when a rho-eigenvector with
    eigenvalue > 1e-10 has sigma-expectation <= 1e-12.
    """
    if rho.dims != sigma.dims:
        raise ValueError("states must share the same subsystem dimensions")
    rvals, rvecs = np.linalg.eigh(rho.matrix)
    for lam, v in zip(rvals, rvecs.T):
        if lam > 1e-10 and (v.conj() @ sigma.matrix @ v).real <= 1e-12:
            return math.inf
    tr_rho_log_rho = 0.0
    for lam in rvals[rvals > EIGENVALUE_CLAMP].tolist():  # left to right, as in quantum_cmi
        tr_rho_log_rho += lam * math.log2(lam)
    svals, svecs = np.linalg.eigh(sigma.matrix)
    tr_rho_log_sigma = 0.0
    for mu, w in zip(svals, svecs.T):
        if mu > EIGENVALUE_CLAMP:
            tr_rho_log_sigma += math.log2(mu) * (w.conj() @ rho.matrix @ w).real
    return tr_rho_log_rho - tr_rho_log_sigma


def purify(rho: DensityMatrix) -> DensityMatrix:
    """Pure state on dims + (rank,) whose environment trace-out returns `rho`."""
    vals, vecs = np.linalg.eigh(rho.matrix)  # ascending: the top `rank` pairs are last
    rank = max(1, int(np.sum(vals > EIGENVALUE_CLAMP)))
    amps = vecs[:, -rank:] * np.sqrt(np.clip(vals[-rank:], 0.0, None))
    psi = amps.reshape(-1)  # index (system, environment), row-major
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(rho.dims + (rank,), np.outer(psi, psi.conj()))
