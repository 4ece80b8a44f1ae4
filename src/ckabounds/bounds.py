"""Bound curves versus noise, party groupings, and the XOR key relay.

The curves are assembled against the depolarizing noise level nu of the
three-party honest device.  `point_values` is the one place that names and
evaluates them; see its docstring for the list.  `compute_curves` maps it
over a noise grid; it is defined for three parties only, since no
biseparable decomposition of the noisy state is constructed for N > 3.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .attacks import CcAttack, build_cc_attack, eve_postprocess
from .partitions import set_partitions
from .secrecy import (dual_intrinsic, entropy_bits, integer, intrinsic_information, s_n,
                      shannon_cmi)

VALUE_FLOOR = -1e-9
_N_PARTIES = 3
MAX_GROUPING_PARTIES = 10  # Bell(10) = 115,975 groupings
MAX_RELAY_PARTIES = 1024
MAX_KEY_LEN = 4096
MAX_GRID_POINTS = 100_000
MAX_WORKERS = 64
# The default noise grid, 0 to 0.13 in steps of 0.0025 (covers the critical level)
DEFAULT_NU_MIN, DEFAULT_NU_MAX, DEFAULT_NU_STEP = 0.0, 0.13, 0.0025


@dataclass(frozen=True)
class BoundCurve:
    """Samples (nu, value-in-bits) of one named bound."""

    name: str
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        samples = tuple((float(n), float(v)) for n, v in self.samples)
        nus = [n for n, _ in samples]
        if any(b <= a for a, b in zip(nus, nus[1:])):
            raise ValueError("noise values must be strictly increasing")
        if any(not math.isfinite(v) or v < VALUE_FLOOR for _, v in samples):
            raise ValueError(f"curve values must be finite and at least {VALUE_FLOOR:g}")
        object.__setattr__(self, "samples", samples)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)


def noise_grid(lo: float, hi: float, step: float) -> list[float]:
    """Noise levels lo, lo + step, ... up to hi and below 1, rounded to 12 decimals.

    nu = 1 is never a point: no curve is defined there.  More than
    MAX_GRID_POINTS points are rejected before any is built.
    """
    if not (0.0 <= lo < hi <= 1.0 and 0.0 < step < math.inf):
        raise ValueError(f"invalid grid: need 0 <= nu_min < nu_max <= 1 and a finite "
                         f"nu_step > 0 (got {lo}, {hi}, {step})")
    span = (hi - lo) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"invalid grid: more than {MAX_GRID_POINTS} points")
    points = (round(lo + i * step, 12) for i in range(math.floor(span) + 1))
    grid = [nu for nu in points if nu < 1.0]
    if len(set(grid)) < len(grid):
        raise ValueError(f"invalid grid: points collide after rounding to 12 decimals "
                         f"(nu_step {step})")
    return grid


def default_grid() -> list[float]:
    """Noise grid DEFAULT_NU_MIN to DEFAULT_NU_MAX in steps of DEFAULT_NU_STEP."""
    return noise_grid(DEFAULT_NU_MIN, DEFAULT_NU_MAX, DEFAULT_NU_STEP)


def _check_grid(grid: Sequence[float]) -> list[float]:
    grid = [float(nu) + 0.0 for nu in grid]  # -0.0 + 0.0 is +0.0
    if not grid:
        raise ValueError("empty noise grid")
    if any(not 0.0 <= nu < 1.0 for nu in grid):
        raise ValueError("invalid grid: curve evaluation requires 0 <= nu < 1")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError(f"invalid grid: points must be strictly increasing, "
                             f"got {b!r} after {a!r}")
    return grid


def _proxy_value(attack: CcAttack) -> float:
    p = attack.joint.probs  # axes (a, b1, b2, e)
    h_e = entropy_bits(p.sum(axis=(0, 1, 2)))
    h_a_given_e = entropy_bits(p.sum(axis=(1, 2))) - h_e
    device = p.sum(axis=3)
    pairs = (device.sum(axis=2), device.sum(axis=1))  # joints of (a, b1) and (a, b2)
    best_bob = max(entropy_bits(pair) - entropy_bits(pair.sum(axis=0)) for pair in pairs)
    return max(0.0, h_a_given_e - best_bob)


def point_values(attack: CcAttack, minimize: bool) -> dict[str, float]:
    """Every curve's value at one attack, by name, in CSV order.

    Eve's post-processing is the fixed honest mimicry (suffix ``_fixed``),
    or with `minimize` the channel search over her raw 9-symbol record
    (suffix ``_min``):

    * ``intrinsic_*``: the conditional-mutual-information bound divided by N-1;
    * ``dual_*``: the telescoping-sum bound S_N, no prefactor;
    * ``trivial``: 1 - nu, from the single-site fully separable split;
    * ``dw_lower_PROXY``: max(0, H(A|E) - max_i H(A|B_i)) on the attack
      distribution.  This stand-in only has the shape of a one-way
      distillation rate; it is not a proved bound, hence the PROXY label in
      every output.
    """
    if minimize:
        suffix = "min"
        intrinsic, _ = intrinsic_information(attack.joint)
        dual, _ = dual_intrinsic(attack.joint)
    else:
        suffix = "fixed"
        post = eve_postprocess(attack)
        intrinsic, dual = shannon_cmi(post), s_n(post)
    return {f"intrinsic_{suffix}": intrinsic / (_N_PARTIES - 1),
            f"dual_{suffix}": dual,
            "trivial": 1.0 - attack.nu,
            "dw_lower_PROXY": _proxy_value(attack)}


def _point_worker(nu: float, minimize: bool) -> dict[str, float]:
    """Every curve's value at one noise level."""
    return point_values(build_cc_attack(nu), minimize)


def compute_curves(grid: Sequence[float], minimize: bool = False,
                   workers: int = 1) -> list[BoundCurve]:
    """The curves of `point_values` over the grid; output independent of the worker count.

    At most `workers` (1..MAX_WORKERS) processes run, and no more than the
    grid has points; with one, the points are computed in this process.
    """
    workers = integer(workers, "workers")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"invalid workers: need 1 <= workers <= {MAX_WORKERS}, got {workers}")
    grid = _check_grid(grid)
    processes = min(workers, len(grid))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            records = list(pool.map(_point_worker, grid, itertools.repeat(minimize)))
    else:
        records = list(map(_point_worker, grid, itertools.repeat(minimize)))
    return [BoundCurve(name, tuple(zip(grid, (r[name] for r in records))))
            for name in records[0]]


def enumerate_partitions(n_parties: int) -> list[tuple[tuple[int, ...], ...]]:
    """All groupings of range(n_parties) into 2 to N-1 blocks."""
    n_parties = integer(n_parties, "n_parties")
    if n_parties < 3:
        raise ValueError("partition enumeration needs at least three parties")
    if n_parties > MAX_GROUPING_PARTIES:
        raise ValueError(f"partition enumeration takes at most {MAX_GROUPING_PARTIES} parties")
    return [tuple(map(tuple, blocks)) for blocks in set_partitions(range(n_parties))
            if 2 <= len(blocks) <= n_parties - 1]


class Xorshift64Star:
    """Seeded xorshift* generator: platform-independent, reproducible streams."""

    _MASK = (1 << 64) - 1
    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self._state = integer(seed, "seed") & self._MASK or 0x9E3779B97F4A7C15

    def next64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & self._MASK
        s ^= s >> 27
        self._state = s
        return (s * self._MULT) & self._MASK

    def bits(self, k: int) -> int:
        out = 0
        for got in range(0, k, 64):
            take = min(64, k - got)
            out = (out << take) | (self.next64() >> (64 - take))
        return out


@dataclass(frozen=True)
class RelayTranscript:
    """Result of one run of the XOR key relay along the path of parties."""

    n_parties: int
    key_len: int
    r: int
    edge_keys: tuple[int, ...]
    broadcasts: tuple[int, ...]
    final_keys: tuple[int, ...]


def relay_chain(r: int, edge_keys: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pure relay round: broadcasts and per-party recovered keys for given inputs.

    Party 0 one-time-pads its secret r with the first edge key; each later
    party unpads with its shared edge key and re-pads with the next one.
    """
    edge_keys = tuple(integer(k, "edge key") for k in edge_keys)
    finals = [integer(r, "r")]
    broadcasts = []
    for key in edge_keys:
        msg = key ^ finals[-1]
        broadcasts.append(msg)
        finals.append(key ^ msg)
    return tuple(broadcasts), tuple(finals)


def relay_simulate(n_parties: int, key_len: int, rng_seed: int) -> RelayTranscript:
    """Sample edge keys and the secret, run the relay, return the transcript."""
    n_parties, key_len = integer(n_parties, "n_parties"), integer(key_len, "key_len")
    if n_parties < 3:
        raise ValueError("the relay needs at least three parties")
    if n_parties > MAX_RELAY_PARTIES:
        raise ValueError(f"the relay takes at most {MAX_RELAY_PARTIES} parties")
    if not 1 <= key_len <= MAX_KEY_LEN:
        raise ValueError(f"key_len must lie in 1..{MAX_KEY_LEN}")
    rng = Xorshift64Star(rng_seed)
    edge_keys = tuple(rng.bits(key_len) for _ in range(n_parties - 1))
    r = rng.bits(key_len)
    return RelayTranscript(n_parties, key_len, r, edge_keys, *relay_chain(r, edge_keys))


def write_curves_csv(curves: Iterable[BoundCurve], fh) -> None:
    """Combined CSV `nu,value,name` with 12 significant digits."""
    fh.write("nu,value,name\n")
    for curve in curves:
        for nu, value in curve.samples:
            fh.write(f"{nu:.12g},{value:.12g},{curve.name}\n")
