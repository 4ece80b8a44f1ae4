"""Bound curves versus noise, party groupings, and the XOR key relay.

The curves are assembled against the depolarizing noise level nu of the
three-party honest device.  `compute_curves`, which lists them, is the one public
evaluator: it evaluates them over a noise grid, and `attack` prints it at a grid of
one point.  `_run_values` names and evaluates them at a run of attacks searched as
one stack.  They are defined for three parties only, since no biseparable
decomposition of the noisy state is constructed for N > 3.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .attacks import CcAttack, build_cc_attack, eve_postprocess
from .partitions import set_partitions
from .secrecy import (boolean, entropy_bits, integer, minimize_over_channels, real, s_n,
                      shannon_cmi, unit_interval)

VALUE_FLOOR = -1e-9
_N_PARTIES = 3
MAX_GROUPING_PARTIES = 10  # Bell(10) = 115,975 groupings
MAX_RELAY_PARTIES = 1024
MAX_KEY_LEN = 4096
MAX_GRID_POINTS = 100_000
MAX_WORKERS = 64
GRID_CHUNK = 8  # grid points a serial run searches as one stack, with one set-up per monotone
# The default noise grid, 0 to 0.13 in steps of 0.0025 (covers the critical level)
DEFAULT_NU_MIN, DEFAULT_NU_MAX, DEFAULT_NU_STEP = 0.0, 0.13, 0.0025


@dataclass(frozen=True)
class BoundCurve:
    """Samples (nu, value-in-bits) of one named bound: the nu column a grid that
    `compute_curves` takes, values real, finite and at least VALUE_FLOOR."""

    name: str
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        nus = _check_grid([n for n, _ in self.samples])
        # a value that is not a real number reads as NaN, which the check refuses
        values = [real(v) for _, v in self.samples]
        if any(not math.isfinite(v) or v < VALUE_FLOOR for v in values):
            raise ValueError(f"curve values must be real, finite and at least {VALUE_FLOOR:g}")
        object.__setattr__(self, "samples", tuple(zip(nus, values)))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)


def noise_grid(lo: float, hi: float, step: float) -> list[float]:
    """Noise levels lo, lo + step, ... up to hi and below 1, rounded to 12 decimals.

    nu = 1 is never a point: no curve is defined there.  More than
    MAX_GRID_POINTS points are rejected before any is built.
    """
    lo, hi, step = unit_interval(lo, "nu_min"), unit_interval(hi, "nu_max"), real(step)
    if not (lo < hi and 0.0 < step < math.inf):
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
    grid = [unit_interval(nu, "nu") for nu in grid]
    if not grid:
        raise ValueError("empty noise grid")
    if 1.0 in grid:
        raise ValueError("invalid grid: curve evaluation requires nu < 1, got 1.0")
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


def _run_values(attacks: Sequence[CcAttack], minimize: bool) -> list[dict[str, float]]:
    """Every curve's value at each attack, by name, with every channel search as one stack."""
    if minimize:
        suffix = "min"
        found = minimize_over_channels([attack.joint for attack in attacks], ("cmi", "sn"))
        pairs = [(intrinsic, dual) for (intrinsic, _), (dual, _) in zip(found[::2], found[1::2])]
    else:
        suffix = "fixed"
        pairs = [(shannon_cmi(post), s_n(post)) for post in map(eve_postprocess, attacks)]
    return [{f"intrinsic_{suffix}": intrinsic / (_N_PARTIES - 1),
             f"dual_{suffix}": dual,
             "trivial": 1.0 - attack.nu,
             "dw_lower_PROXY": _proxy_value(attack)}
            for attack, (intrinsic, dual) in zip(attacks, pairs)]


def _run_worker(nus: Sequence[float], minimize: bool) -> list[dict[str, float]]:
    """Every curve's value at each noise level of one run of the grid."""
    return _run_values([build_cc_attack(nu) for nu in nus], minimize)


def compute_curves(grid: Sequence[float], minimize: bool = False,
                   workers: int = 1) -> list[BoundCurve]:
    """Every curve over the grid, in CSV order; output independent of the worker count.

    Eve's post-processing is the fixed honest mimicry (suffix ``_fixed``),
    or with `minimize` (True or False) the channel search over her raw
    9-symbol record (suffix ``_min``):

    * ``intrinsic_*``: the conditional-mutual-information bound divided by N-1;
    * ``dual_*``: the telescoping-sum bound S_N, no prefactor;
    * ``trivial``: 1 - nu, from the single-site fully separable split;
    * ``dw_lower_PROXY``: max(0, H(A|E) - max_i H(A|B_i)) on the attack
      distribution.  This stand-in only has the shape of a one-way
      distillation rate; it is not a proved bound, hence the PROXY label in
      every output.

    At most `workers` (1..MAX_WORKERS) processes run, and no more than the grid
    has points; with one, the points are computed in this process, in runs of
    GRID_CHUNK.
    """
    minimize = boolean(minimize, "minimize")
    workers = integer(workers, "workers", 1, MAX_WORKERS)
    grid = _check_grid(grid)
    processes = min(workers, len(grid))
    size = 1 if processes > 1 else GRID_CHUNK  # pooled runs of 4 slowed the high-noise grid
    runs = [grid[i:i + size] for i in range(0, len(grid), size)]
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            done = list(pool.map(_run_worker, runs, itertools.repeat(minimize)))
    else:
        done = list(map(_run_worker, runs, itertools.repeat(minimize)))
    records = [record for run in done for record in run]
    return [BoundCurve(name, tuple(zip(grid, (r[name] for r in records))))
            for name in records[0]]


def enumerate_partitions(n_parties: int) -> list[tuple[tuple[int, ...], ...]]:
    """All groupings of range(n_parties) into 2 to N-1 blocks."""
    n_parties = integer(n_parties, "n_parties", 3, MAX_GROUPING_PARTIES)
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
        k = integer(k, "k", 0)
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
    edge_keys = tuple(integer(k, "edge key", 0) for k in edge_keys)
    finals = [integer(r, "r", 0)]
    broadcasts = []
    for key in edge_keys:
        msg = key ^ finals[-1]
        broadcasts.append(msg)
        finals.append(key ^ msg)
    return tuple(broadcasts), tuple(finals)


def relay_simulate(n_parties: int, key_len: int, rng_seed: int) -> RelayTranscript:
    """Sample edge keys and the secret, run the relay, return the transcript."""
    n_parties = integer(n_parties, "n_parties", 3, MAX_RELAY_PARTIES)
    key_len = integer(key_len, "key_len", 1, MAX_KEY_LEN)
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
