"""Command-line front end: curves, verification suites, game diagnostics.

Exit codes: 0 success, 1 verification or argument failure, 2 I/O failure.
Flag values take precedence over the config file (simple key=value lines),
which takes precedence over built-in defaults.  All outputs are
deterministic functions of the resolved configuration, including the seed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from . import behaviors, bounds, secrecy, states
from .attacks import build_cc_attack, eve_postprocess
from .qmat import DensityMatrix, partial_trace, quantum_cmi
from .secrecy import (JointDistribution, distribution_to_csv, dual_intrinsic,
                      entropy_bits, intrinsic_information, s_n, shannon_cmi,
                      total_correlation)

_DEFAULTS = {
    "nu_min": 0.0,
    "nu_max": 0.13,
    "nu_step": 0.0025,
    "minimize": False,
    "seed": 12345,
    "out": None,
    "workers": 1,
    "parties": 3,
    "key_len": 8,
    "format": "csv",
}

_CONFIG_PARSERS = {
    "nu_min": float,
    "nu_max": float,
    "nu_step": float,
    "minimize": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "seed": int,
    "out": str,
    "workers": int,
    "parties": int,
    "key_len": int,
    "format": str,
}


MAX_GRID_POINTS = 100_000
MAX_WORKERS = 64


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve 2 for I/O
        raise _CliError(f"argument error: {message}", 1)


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _CliError(f"malformed config line: {raw.strip()!r}", 1)
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_PARSERS:
                raise _CliError(f"unknown config key {key!r}", 1)
            try:
                cfg[key] = _CONFIG_PARSERS[key](value)
            except ValueError:
                raise _CliError(f"invalid value for config key {key!r}: {value!r}", 1)
    return cfg


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            file_cfg = _read_config(args.config)
        except OSError as exc:
            raise _CliError(f"cannot read config file: {exc}", 2)
        cfg.update(file_cfg)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _check_format(cfg: dict) -> None:
    if cfg["format"] != "csv":
        raise _CliError(f"unsupported output format {cfg['format']!r} (only csv)", 1)


def _grid_size(cfg: dict) -> int:
    """Number of grid points, checked before any point is built."""
    lo, hi, step = cfg["nu_min"], cfg["nu_max"], cfg["nu_step"]
    if not (0.0 <= lo < hi <= 1.0 and step > 0.0):
        raise _CliError(
            f"invalid grid: need 0 <= nu_min < nu_max <= 1 and nu_step > 0 "
            f"(got {lo}, {hi}, {step})", 1)
    span = (hi - lo) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise _CliError(f"invalid grid: more than {MAX_GRID_POINTS} points", 1)
    return int(math.floor(span)) + 1


def _check_workers(cfg: dict) -> int:
    workers = cfg["workers"]
    if not 1 <= workers <= MAX_WORKERS:
        raise _CliError(f"invalid workers: need 1 <= workers <= {MAX_WORKERS}, got {workers}", 1)
    return workers


def _grid_from(cfg: dict) -> list[float]:
    lo, step = cfg["nu_min"], cfg["nu_step"]
    grid = [round(lo + i * step, 12) for i in range(_grid_size(cfg))]
    if any(nu >= 1.0 for nu in grid):
        raise _CliError("invalid grid: curve evaluation requires nu < 1", 1)
    return grid


# ---------------------------------------------------------------------------
# verification suites

def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / m.trace())


def _random_joint(rng: np.random.Generator, alphabets: tuple[int, ...],
                  eve: int) -> JointDistribution:
    raw = rng.random(alphabets + (eve,)) ** 2 + 1e-6
    return JointDistribution(alphabets, eve, raw / raw.sum())


def _suite_expansion(seed: int, corrupt: bool) -> tuple[int, float, int | None]:
    worst, worst_seed = 0.0, None
    count = 120
    for i in range(count):
        inst_seed = seed + i
        rng = np.random.default_rng(inst_seed)
        n = 3 if i % 2 == 0 else 4
        rho = _random_density(rng, (2,) * (n + 1))
        total = quantum_cmi(rho, [[k] for k in range(n)], (n,))
        telescoped = 0.0
        for k in range(1, n):
            red = partial_trace(rho, list(range(k + 1)) + [n])
            telescoped += quantum_cmi(red, [[k], list(range(k))], (k + 1,))
        err = abs(total - telescoped)
        if corrupt and i == 3:
            err += 1e-6
        if err > worst:
            worst, worst_seed = err, inst_seed
    return count, worst, worst_seed


def _suite_duality(seed: int) -> tuple[int, float, int | None]:
    worst, worst_seed = 0.0, None
    count = 220
    for i in range(count):
        inst_seed = seed + 10_000 + i
        rng = np.random.default_rng(inst_seed)
        alphabets = tuple(rng.integers(2, 4) for _ in range(3))
        dist = _random_joint(rng, alphabets, 1)
        lhs = s_n(dist) + total_correlation(dist)
        p = dist.probs.sum(axis=-1)
        rhs = 0.0
        for k in range(3):
            rest = tuple(j for j in range(3) if j != k)
            rhs += (entropy_bits(p.sum(axis=rest)) + entropy_bits(p.sum(axis=k))
                    - entropy_bits(p))
        err = abs(lhs - rhs)
        if err > worst:
            worst, worst_seed = err, inst_seed
    return count, worst, worst_seed


def _suite_reconstruction(seed: int) -> tuple[int, float, int | None]:
    worst, worst_nu = 0.0, None
    nus = [i / 101.0 for i in range(101)]
    ghz_mat = states.ghz(3, 2).matrix
    for nu in nus:
        dec = states.noisy_ghz3(nu)
        recon = dec.ghz_weight * ghz_mat + dec.biseparable_weight * dec.chi.matrix
        err = float(np.abs(recon - dec.state.matrix).max())
        if err > worst:
            worst, worst_nu = err, nu
    return len(nus), worst, worst_nu


def _suite_permutation(seed: int) -> tuple[int, float, int | None]:
    worst, worst_seed = 0.0, None
    count = 100
    for i in range(count):
        inst_seed = seed + 20_000 + i
        rng = np.random.default_rng(inst_seed)
        rho = _random_density(rng, (2, 2, 2, 2))
        base = quantum_cmi(rho, [[0], [1], [2]], (3,))
        perm = list(rng.permutation(3))
        shuffled = quantum_cmi(rho, [[perm[0]], [perm[1]], [perm[2]]], (3,))
        err = abs(base - shuffled)
        if err > worst:
            worst, worst_seed = err, inst_seed
    return count, worst, worst_seed


def _suite_order(seed: int) -> tuple[int, float, int | None]:
    """S_N in every party order against the dual total correlation.

    sum_k H(A_{!=k} E) - (N-1) H(A E) - H(E) is symmetric in the parties.
    """
    worst, worst_seed = 0.0, None
    count = 120
    for i in range(count):
        inst_seed = seed + 30_000 + i
        rng = np.random.default_rng(inst_seed)
        n = 2 + i % 3
        alphabets = tuple(int(a) for a in rng.integers(2, 4, size=n))
        dist = _random_joint(rng, alphabets, int(rng.integers(1, 4)))
        p = dist.probs
        dual_total = (sum(entropy_bits(p.sum(axis=k)) for k in range(n))
                      - (n - 1) * entropy_bits(p) - entropy_bits(p.sum(axis=tuple(range(n)))))
        for perm in itertools.permutations(range(n)):
            q = np.transpose(p, perm + (n,))
            err = abs(s_n(JointDistribution(q.shape[:n], q.shape[n], q)) - dual_total)
            if err > worst:
                worst, worst_seed = err, inst_seed
    return count, worst, worst_seed


_SUITES = (
    ("expansion", _suite_expansion, 1e-9),
    ("duality", _suite_duality, 1e-9),
    ("reconstruction", _suite_reconstruction, 1e-10),
    ("permutation", _suite_permutation, 1e-9),
    ("order", _suite_order, 1e-12),
)


def _cmd_verify(cfg: dict, corrupt: bool, stdout) -> int:
    seed = cfg["seed"]
    failed = False
    for name, runner, tol in _SUITES:
        if name == "expansion":
            count, err, witness = runner(seed, corrupt)
        else:
            count, err, witness = runner(seed)
        ok = err <= tol
        line = f"suite {name:<15} instances={count:<4} max_error={err:.3e}  tol={tol:.0e}  "
        if ok:
            line += "PASS"
        else:
            line += f"FAIL (instance seed {witness})"
            failed = True
        stdout.write(line + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_curves(cfg: dict, stdout) -> int:
    _check_format(cfg)
    workers = _check_workers(cfg)
    grid = _grid_from(cfg)
    curves = bounds.compute_curves(grid, minimize=cfg["minimize"], workers=workers)
    out_path = cfg["out"] or "curves.csv"
    try:
        with open(out_path, "w") as fh:
            bounds.write_curves_csv(curves, fh)
    except OSError as exc:
        raise _CliError(f"cannot write {out_path}: {exc}", 2)
    flag = "on" if cfg["minimize"] else "off"
    for curve in curves:
        first, last = curve.samples[0], curve.samples[-1]
        stdout.write(
            f"curve {curve.name:<16} (minimize={flag}) "
            f"nu={first[0]:.4f} -> {first[1]:.6f}   nu={last[0]:.4f} -> {last[1]:.6f}\n")
    if cfg["minimize"]:
        stdout.write("note: minimized values are upper bounds on the channel infimum "
                     "(deterministic search plus local refinement)\n")
    stdout.write(f"wrote {4 * len(grid)} rows to {out_path}\n")
    return 0


def _cmd_game(cfg: dict, stdout) -> int:
    p0 = behaviors.expected_winning_probability(0.0, 3)
    target = 0.5 + 1.0 / (2.0 * math.sqrt(2.0))
    measured = behaviors.parity_chsh_value(behaviors.honest_behavior(0.0))
    nu_crit = behaviors.critical_noise(3)
    stdout.write("parity game diagnostics (N=3)\n")
    stdout.write(f"p_exp(nu=0)      = {p0:.6f}\n")
    stdout.write(f"classical bound  = {0.75:.6f}\n")
    stdout.write(f"tsirelson check  = {measured:.6f} "
                 f"(|measured - 1/2 - 1/(2*sqrt 2)| = {abs(measured - target):.2e})\n")
    stdout.write(f"nu_crit          = {nu_crit:.6f} (band 0.1189 +/- 0.0005)\n")
    ok = abs(measured - target) < 1e-6 and abs(nu_crit - 0.1189) < 5e-4
    return 0 if ok else 1


def _cmd_attack(cfg: dict, stdout) -> int:
    nu = cfg["nu_min"]
    if not 0.0 <= nu < 1.0:
        raise _CliError(f"attack construction needs 0 <= nu < 1, got {nu}", 1)
    attack = build_cc_attack(nu)
    post = eve_postprocess(attack)
    fixed_i = shannon_cmi(post)
    fixed_s = s_n(post)
    min_i, _ = intrinsic_information(attack.joint)
    min_s, _ = dual_intrinsic(attack.joint)
    stdout.write(f"cc attack at nu={nu:.6g}\n")
    stdout.write(f"local weight       = {attack.local_weight:.12g}\n")
    stdout.write(f"P(e='?')           = {attack.joint.probs[..., 0].sum():.12g}\n")
    stdout.write(f"intrinsic (minimize=off) = {fixed_i:.9f} bits, /(N-1) = {fixed_i / 2:.9f}\n")
    stdout.write(f"intrinsic (minimize=on)  = {min_i:.9f} bits, /(N-1) = {min_i / 2:.9f}\n")
    stdout.write(f"dual_sn   (minimize=off) = {fixed_s:.9f} bits\n")
    stdout.write(f"dual_sn   (minimize=on)  = {min_s:.9f} bits\n")
    stdout.write("note: minimize=on values are upper bounds on the channel infimum\n")
    if cfg["out"]:
        try:
            with open(cfg["out"], "w") as fh:
                distribution_to_csv(attack.joint, fh)
        except OSError as exc:
            raise _CliError(f"cannot write {cfg['out']}: {exc}", 2)
        stdout.write(f"wrote attack joint to {cfg['out']}\n")
    return 0


def _cmd_relay(cfg: dict, stdout) -> int:
    try:
        t = bounds.relay_simulate(cfg["parties"], cfg["key_len"], cfg["seed"])
    except ValueError as exc:
        raise _CliError(f"invalid relay arguments: {exc}", 1)
    width = max(1, (t.key_len + 3) // 4)
    stdout.write(f"relay over {t.n_parties} parties, key_len={t.key_len}, seed={cfg['seed']}\n")
    stdout.write(f"secret r    = {t.r:0{width}x}\n")
    stdout.write("edge keys   = " + " ".join(f"{k:0{width}x}" for k in t.edge_keys) + "\n")
    stdout.write("broadcasts  = " + " ".join(f"{m:0{width}x}" for m in t.broadcasts) + "\n")
    stdout.write("final keys  = " + " ".join(f"{k:0{width}x}" for k in t.final_keys) + "\n")
    agree = all(k == t.r for k in t.final_keys)
    stdout.write(f"messages = {len(t.broadcasts)}, all parties agree: {agree}\n")
    return 0 if agree else 1


def _cmd_partitions(cfg: dict, stdout) -> int:
    try:
        parts = bounds.enumerate_partitions(cfg["parties"])
    except ValueError as exc:
        raise _CliError(f"invalid partitions arguments: {exc}", 1)
    for blocks in parts:
        stdout.write("".join("{" + ",".join(str(i) for i in b) + "}" for b in blocks) + "\n")
    stdout.write(f"{len(parts)} nontrivial partitions of {cfg['parties']} parties\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ckabounds",
                     description="Bound curves and diagnostics for conference-key devices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("curves", "compute the four bound curves and write them as CSV"),
        ("verify", "run the five randomized identity suites"),
        ("game", "print parity-game diagnostics"),
        ("attack", "build the convex-combination attack at nu-min"),
        ("relay", "simulate the XOR key relay"),
        ("partitions", "list nontrivial party partitions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--nu-min", dest="nu_min", type=float, default=None)
        p.add_argument("--nu-max", dest="nu_max", type=float, default=None)
        p.add_argument("--nu-step", dest="nu_step", type=float, default=None)
        p.add_argument("--minimize", action="store_true", default=None,
                       help="search channels instead of the fixed post-processing")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="key=value config file (flags take precedence)")
        p.add_argument("--parties", type=int, default=None)
        p.add_argument("--key-len", dest="key_len", type=int, default=None)
        if name == "verify":
            p.add_argument("--corrupt", action="store_true", default=False,
                           help=argparse.SUPPRESS)  # negative-control test hook
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        if args.command == "curves":
            return _cmd_curves(cfg, sys.stdout)
        if args.command == "verify":
            return _cmd_verify(cfg, getattr(args, "corrupt", False), sys.stdout)
        if args.command == "game":
            return _cmd_game(cfg, sys.stdout)
        if args.command == "attack":
            return _cmd_attack(cfg, sys.stdout)
        if args.command == "relay":
            return _cmd_relay(cfg, sys.stdout)
        if args.command == "partitions":
            return _cmd_partitions(cfg, sys.stdout)
        raise _CliError(f"unknown command {args.command!r}", 1)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
