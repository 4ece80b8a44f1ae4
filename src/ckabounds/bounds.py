"""Bound curves versus noise, partition composition, and the XOR key relay.

Four named curves are assembled against the depolarizing noise level nu of
the three-party honest device:

* ``intrinsic_*``: the conditional-mutual-information bound divided by N-1,
  either with Eve's fixed honest-mimicry post-processing (``_fixed``) or
  with the channel search applied to her raw 9-symbol record (``_min``);
* ``dual_*``: the telescoping-sum bound, no prefactor;
* ``trivial``: 1 - nu, from the single-site fully separable split;
* ``dw_lower_PROXY``: max(0, H(A|E) - max_i H(A|B_i)) on the attack
  distribution.  This stand-in only has the shape of a one-way distillation
  rate; it is not a proved bound, hence the PROXY label in every output.

`compute_curves` is the one curve evaluator; it is defined for three
parties only, since no biseparable decomposition of the noisy state is
constructed for N > 3.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .attacks import CcAttack, build_cc_attack, eve_postprocess
from .partitions import set_partitions
from .secrecy import (SearchBudget, dual_intrinsic, entropy_bits,
                      intrinsic_information, s_n, shannon_cmi)

VALUE_FLOOR = -1e-9
_N_PARTIES = 3


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
            raise ValueError("curve values must be finite and nonnegative")
        object.__setattr__(self, "samples", samples)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)


def default_grid() -> list[float]:
    """Noise grid 0 to 0.13 in steps of 0.0025 (covers the critical level)."""
    return [round(0.0025 * i, 10) for i in range(53)]


def _check_grid(grid: Sequence[float]) -> list[float]:
    grid = [float(nu) for nu in grid]
    if not grid:
        raise ValueError("empty noise grid")
    if any(not 0.0 <= nu < 1.0 for nu in grid):
        raise ValueError("noise grid must lie in [0, 1)")
    return grid


def _proxy_value(attack: CcAttack) -> float:
    p = attack.joint.probs  # axes (a, b1, b2, e)
    h_e = entropy_bits(p.sum(axis=(0, 1, 2)))
    h_a_given_e = entropy_bits(p.sum(axis=(1, 2))) - h_e
    device = p.sum(axis=3)
    best_bob = -math.inf
    for drop_axis, _bob in ((2, "b1"), (1, "b2")):
        pair = device.sum(axis=drop_axis)  # joint of (a, b_i)
        best_bob = max(best_bob, entropy_bits(pair) - entropy_bits(pair.sum(axis=0)))
    return max(0.0, h_a_given_e - best_bob)


def _intrinsic_value(attack: CcAttack, minimize: bool, budget: SearchBudget | None) -> float:
    if minimize:
        value, _ = intrinsic_information(attack.joint, budget)
    else:
        value = shannon_cmi(eve_postprocess(attack))
    return value / (_N_PARTIES - 1)


def _dual_value(attack: CcAttack, minimize: bool, budget: SearchBudget | None) -> float:
    if minimize:
        value, _ = dual_intrinsic(attack.joint, budget)
    else:
        value = s_n(eve_postprocess(attack))
    return value


def _point_worker(args) -> dict[str, float]:
    nu, minimize, budget = args
    attack = build_cc_attack(nu)
    return {
        "intrinsic": _intrinsic_value(attack, minimize, budget),
        "dual": _dual_value(attack, minimize, budget),
        "trivial": 1.0 - nu,
        "proxy": _proxy_value(attack),
    }


def compute_curves(grid: Sequence[float], minimize: bool = False,
                   budget: SearchBudget | None = None,
                   workers: int = 1) -> list[BoundCurve]:
    """All four curves over the grid; output independent of the worker count."""
    grid = _check_grid(grid)
    jobs = [(nu, minimize, budget) for nu in grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_point_worker, jobs))
    else:
        rows = [_point_worker(j) for j in jobs]
    suffix = "min" if minimize else "fixed"
    return [
        BoundCurve(f"intrinsic_{suffix}", tuple((nu, r["intrinsic"]) for nu, r in zip(grid, rows))),
        BoundCurve(f"dual_{suffix}", tuple((nu, r["dual"]) for nu, r in zip(grid, rows))),
        BoundCurve("trivial", tuple((nu, r["trivial"]) for nu, r in zip(grid, rows))),
        BoundCurve("dw_lower_PROXY", tuple((nu, r["proxy"]) for nu, r in zip(grid, rows))),
    ]


@dataclass(frozen=True)
class PartitionBoundInput:
    """A nontrivial grouping of the parties with the bound valid across it."""

    partition: tuple[tuple[int, ...], ...]
    value: float

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.partition)
        members = sorted(i for b in blocks for i in b)
        n = len(members)
        if members != list(range(n)):
            raise ValueError("blocks must partition the party set 0..N-1")
        if not 2 <= len(blocks) <= n - 1:
            raise ValueError("partition must have between 2 and N-1 blocks")
        object.__setattr__(self, "partition", blocks)


def partition_bound(values: Sequence[PartitionBoundInput]) -> float:
    """Minimum of the supplied per-cut bound values."""
    if not values:
        raise ValueError("need at least one partition bound")
    return min(v.value for v in values)


def enumerate_partitions(n_parties: int) -> list[tuple[tuple[int, ...], ...]]:
    """All groupings of range(n_parties) into 2 to N-1 blocks."""
    if n_parties < 3:
        raise ValueError("partition enumeration needs at least three parties")
    out = []
    for blocks in set_partitions(range(n_parties)):
        if 2 <= len(blocks) <= n_parties - 1:
            out.append(tuple(tuple(b) for b in blocks))
    return out


class Xorshift64Star:
    """Seeded xorshift* generator: platform-independent, reproducible streams."""

    _MASK = (1 << 64) - 1
    _MULT = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        s = int(seed) & self._MASK
        self._state = s if s else 0x9E3779B97F4A7C15

    def next64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & self._MASK
        s ^= s >> 27
        self._state = s
        return (s * self._MULT) & self._MASK

    def bits(self, k: int) -> int:
        out = 0
        got = 0
        while got < k:
            take = min(64, k - got)
            out = (out << take) | (self.next64() >> (64 - take))
            got += take
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
    edge_keys = tuple(int(k) for k in edge_keys)
    finals = [int(r)]
    broadcasts = []
    for key in edge_keys:
        msg = key ^ finals[-1]
        broadcasts.append(msg)
        finals.append(key ^ msg)
    return tuple(broadcasts), tuple(finals)


def relay_simulate(n_parties: int, key_len: int, rng_seed: int) -> RelayTranscript:
    """Sample edge keys and the secret, run the relay, return the transcript."""
    if n_parties < 3:
        raise ValueError("the relay needs at least three parties")
    if key_len < 1:
        raise ValueError("key_len must be at least 1")
    rng = Xorshift64Star(rng_seed)
    edge_keys = tuple(rng.bits(key_len) for _ in range(n_parties - 1))
    r = rng.bits(key_len)
    broadcasts, finals = relay_chain(r, edge_keys)
    return RelayTranscript(n_parties=n_parties, key_len=key_len, r=r,
                           edge_keys=edge_keys, broadcasts=broadcasts,
                           final_keys=finals)


def write_curves_csv(curves: Iterable[BoundCurve], fh) -> None:
    """Combined CSV `nu,value,name` with 12 significant digits."""
    fh.write("nu,value,name\n")
    for curve in curves:
        for nu, value in curve.samples:
            fh.write(f"{nu:.12g},{value:.12g},{curve.name}\n")
