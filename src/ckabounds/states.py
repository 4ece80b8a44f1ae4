"""Concrete states: GHZ and the noisy three-qubit GHZ decomposition.

The noise model is the single-qubit depolarizing channel
``D_nu(rho) = (1 - nu) rho + nu I/2`` applied locally.  For the three-qubit
GHZ state the triple-depolarized state splits exactly into a GHZ part of
weight (1-nu)^3 and a biseparable remainder chi_nu assembled from the three
classically correlated pair states

    kappa_XY = (|00><00| + |11><11|) / 2

(each tensored with I/2 on the remaining qubit) plus a fully mixed term.
Every part is diagonal, so `biseparable_split` gives the split without a
density matrix.  GHZ, the three kappa states and I/8 are built once, on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix
from .secrecy import integer, unit_interval

RECONSTRUCTION_TOL = 1e-10


def ghz(n_parties: int, local_dim: int = 2) -> DensityMatrix:
    """Pure GHZ state (1/sqrt(d)) sum_i |i...i> on `n_parties` qudits."""
    n, d = integer(n_parties, "n_parties", 2), integer(local_dim, "local_dim", 2)
    psi = np.zeros(d ** n, dtype=complex)
    stride = (d ** n - 1) // (d - 1)  # index of |i...i> is i * stride
    psi[::stride] = 1.0 / math.sqrt(d)
    return DensityMatrix((d,) * n, np.outer(psi, psi.conj()))


def _depolarized(mat: np.ndarray, dims: tuple[int, ...], site: int, nu: float) -> np.ndarray:
    """(1-nu) mat + nu (I/2 (x) tr_site mat), on the reshaped tensor."""
    n = len(dims)
    rest = np.trace(mat.reshape(dims * 2), axis1=site, axis2=n + site)
    mixed = np.moveaxis(np.multiply.outer(np.eye(2) / 2, rest), (0, 1), (site, n + site))
    return (1.0 - nu) * mat + nu * mixed.reshape(mat.shape)


# The nu-independent states are cached on first use rather than built at
# import: validating a state runs LAPACK, and loading it adds about 1.7 MB to
# the peak RSS of a process that never builds a state (the parent of a
# `compute_curves` process pool).
@functools.cache
def ghz3() -> DensityMatrix:
    """The three-qubit GHZ state `ghz(3, 2)`, built once."""
    return ghz(3, 2)


@functools.cache
def _part_diagonals() -> np.ndarray:
    """Diagonals of kappa_AB1, kappa_AB2, kappa_B1B2 (I/2 on the third qubit) and I/8."""
    bits = np.indices((2, 2, 2)).reshape(3, 8)  # bits[k, idx]: qubit k of basis state idx
    kappas = [0.25 * (bits[i] == bits[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return np.array(kappas + [np.full(8, 0.125)])


@functools.cache
def _biseparable_parts() -> tuple[DensityMatrix, ...]:
    """The parts of chi as states, in the order of `_part_diagonals`."""
    return tuple(DensityMatrix((2, 2, 2), np.diag(d)) for d in _part_diagonals())


def biseparable_split(nu: float) -> tuple[float, float, tuple[float, ...], np.ndarray]:
    """(1-nu)^3, the biseparable weight, the weights of the three kappa terms and
    I/8, and chi's computational-basis diagonal, which is all of chi."""
    nu = unit_interval(nu, "nu")
    ghz_w = (1.0 - nu) ** 3
    bis_w = 1.0 - ghz_w
    pair_w = (1.0 - nu) ** 2 * nu
    weights = (pair_w, pair_w, pair_w, (3.0 - 2.0 * nu) * nu ** 2)
    parts = _part_diagonals()
    if bis_w > 1e-15:
        # times the reciprocal, as numpy divides complex by real: the golden digests pin these bits
        chi = sum(w * d for w, d in zip(weights, parts)) * (1.0 / bis_w)
    else:
        # nu -> 0 limit of chi: equal thirds of the pair terms, no mixed part
        chi = sum(parts[:3]) / 3.0
    return ghz_w, bis_w, weights, chi


@dataclass(frozen=True)
class GhzDecomposition:
    """Triple-depolarized 3-qubit GHZ state with its biseparable split.

    `state` is the channel output, built by applying the depolarizing channel
    to each qubit in turn.  `chi` is the normalized biseparable remainder and
    `kappa_terms` lists its ingredients as (label, absolute weight, state).
    Construction fails unless ghz_weight * GHZ + biseparable_weight * chi
    reproduces `state` and the kappa terms sum to biseparable_weight * chi,
    both entrywise to 1e-10, so the biseparable certificate is tied to `chi`.
    """

    nu: float
    ghz_weight: float
    chi: DensityMatrix
    kappa_terms: tuple[tuple[str, float, DensityMatrix], ...]
    state: DensityMatrix

    def __post_init__(self):
        term_total = sum(w for _, w, _ in self.kappa_terms)
        if not abs(term_total - self.biseparable_weight) <= 1e-12:
            raise ValueError("kappa term weights do not sum to the biseparable weight")
        recon = (self.ghz_weight * ghz3().matrix
                 + self.biseparable_weight * self.chi.matrix)
        err = np.abs(recon - self.state.matrix).max()
        if not err <= RECONSTRUCTION_TOL:
            raise ValueError(f"decomposition does not reconstruct the state (err {err:.2e})")
        terms = sum(w * s.matrix for _, w, s in self.kappa_terms)
        err = np.abs(terms - self.biseparable_weight * self.chi.matrix).max()
        if not err <= RECONSTRUCTION_TOL:
            raise ValueError("kappa terms do not sum to biseparable_weight * chi")

    @property
    def biseparable_weight(self) -> float:
        return 1.0 - self.ghz_weight


def noisy_ghz3(nu: float) -> GhzDecomposition:
    """Apply the depolarizing channel to all three qubits of GHZ and decompose."""
    nu = unit_interval(nu, "nu")
    state = ghz3().matrix
    for site in range(3):
        state = _depolarized(state, (2, 2, 2), site, nu)

    ghz_w, _, weights, chi = biseparable_split(nu)
    return GhzDecomposition(
        nu=nu,
        ghz_weight=ghz_w,
        chi=DensityMatrix((2, 2, 2), np.diag(chi)),
        kappa_terms=tuple(zip(("AB1", "AB2", "B1B2", "mixed"), weights, _biseparable_parts())),
        state=DensityMatrix((2, 2, 2), state),
    )
