"""Command-line front end: curves, verification suites, game diagnostics.

Flag values take precedence over the config file (simple key=value lines),
which takes precedence over built-in defaults.  All outputs are
deterministic functions of the resolved configuration, including the seed.

Exit codes, picked only by `main`: 0 success; 1 a failed verification or a
bad value (a `ValueError` from the library or the parser, one stderr line);
2 a file that cannot be read or written (an `OSError`, one stderr line).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys

import numpy as np

from . import attacks, behaviors, bounds, states
from .qmat import DensityMatrix, partial_trace, quantum_cmi
from .secrecy import (JointDistribution, distribution_to_csv, entropy_bits, integer, s_n,
                      total_correlation)


def _boolean(value: str) -> bool:
    word = value.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a boolean: {value!r}")
    return word in ("1", "true", "yes", "on")


def path(value: str) -> str:
    """A nonempty file path; argparse names this function in its error message."""
    if not value:
        raise ValueError("empty path")
    return value


CONFIG_MAX_BYTES = 1 << 16  # a config file is a few short key=value lines

_CONFIG = {  # key: (default, parser of a config-file or flag value)
    "nu_min": (bounds.DEFAULT_NU_MIN, float),
    "nu_max": (bounds.DEFAULT_NU_MAX, float),
    "nu_step": (bounds.DEFAULT_NU_STEP, float),
    "minimize": (False, _boolean),
    "seed": (12345, int),
    "out": (None, path),
    "workers": (1, int),
    "parties": (3, int),
    "key_len": (8, int),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve 2 for I/O
        raise ValueError(f"argument error: {message}")


def _read_config(path: str) -> dict:
    cfg = {}
    with open(path, "rb") as fh:
        data = fh.read(CONFIG_MAX_BYTES + 1)
    if len(data) > CONFIG_MAX_BYTES:
        raise ValueError(f"config file is longer than {CONFIG_MAX_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed config file, not UTF-8 text: {exc}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG:
            raise ValueError(f"unknown config key {key!r}")
        try:
            cfg[key] = _CONFIG[key][1](value)
        except ValueError:
            raise ValueError(f"invalid value for config key {key!r}: {value!r}") from None
    return cfg


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags given."""
    cfg = {key: default for key, (default, _) in _CONFIG.items()}
    if getattr(args, "config", None):
        cfg.update(_read_config(args.config))
    cfg.update((key, value) for key, value in vars(args).items() if value is not None)
    return cfg


# ---------------------------------------------------------------------------
# verification suites

def _random_density(rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / m.trace())


def _random_joint(rng: np.random.Generator, shape: tuple[int, ...]) -> JointDistribution:
    raw = rng.random(shape) ** 2 + 1e-6
    return JointDistribution(raw / raw.sum())


def _suite_expansion(seed: int):
    for i in range(120):
        inst_seed = seed + i
        rng = np.random.default_rng(inst_seed)
        n = 3 if i % 2 == 0 else 4
        rho = _random_density(rng, (2,) * (n + 1))
        total = quantum_cmi(rho, [[k] for k in range(n)], (n,))
        telescoped = 0.0
        for k in range(1, n):
            red = partial_trace(rho, list(range(k + 1)) + [n])
            telescoped += quantum_cmi(red, [[k], list(range(k))], (k + 1,))
        yield inst_seed, abs(total - telescoped)


def _suite_duality(seed: int):
    for i in range(220):
        inst_seed = seed + 10_000 + i
        rng = np.random.default_rng(inst_seed)
        dist = _random_joint(rng, tuple(rng.integers(2, 4) for _ in range(3)) + (1,))
        lhs = s_n(dist) + total_correlation(dist)
        p = dist.probs.sum(axis=-1)
        rhs = 0.0
        for k in range(3):
            rest = tuple(j for j in range(3) if j != k)
            rhs += (entropy_bits(p.sum(axis=rest)) + entropy_bits(p.sum(axis=k))
                    - entropy_bits(p))
        yield inst_seed, abs(lhs - rhs)


def _suite_reconstruction(seed: int):
    for nu in (i / 101.0 for i in range(101)):
        dec = states.noisy_ghz3(nu)
        recon = dec.ghz_weight * states.ghz3().matrix + dec.biseparable_weight * dec.chi.matrix
        yield nu, float(np.abs(recon - dec.state.matrix).max())


def _suite_permutation(seed: int):
    for i in range(100):
        inst_seed = seed + 20_000 + i
        rng = np.random.default_rng(inst_seed)
        rho = _random_density(rng, (2, 2, 2, 2))
        base = quantum_cmi(rho, [[0], [1], [2]], (3,))
        perm = list(rng.permutation(3))
        shuffled = quantum_cmi(rho, [[perm[0]], [perm[1]], [perm[2]]], (3,))
        yield inst_seed, abs(base - shuffled)


def _suite_order(seed: int):
    """S_N in every party order against the dual total correlation.

    sum_k H(A_{!=k} E) - (N-1) H(A E) - H(E) is symmetric in the parties.
    """
    for i in range(120):
        inst_seed = seed + 30_000 + i
        rng = np.random.default_rng(inst_seed)
        n = 2 + i % 3
        alphabets = tuple(int(a) for a in rng.integers(2, 4, size=n))
        dist = _random_joint(rng, alphabets + (int(rng.integers(1, 4)),))
        p = dist.probs
        dual_total = 0.0
        for k in range(n):  # not sum(): Python 3.12 compensates float sums
            dual_total += entropy_bits(p.sum(axis=k))
        dual_total = (dual_total - (n - 1) * entropy_bits(p)
                      - entropy_bits(p.sum(axis=tuple(range(n)))))
        orders = (np.transpose(p, perm + (n,)) for perm in itertools.permutations(range(n)))
        yield inst_seed, max(abs(s_n(JointDistribution(q)) - dual_total) for q in orders)


# Each suite yields (instance seed, or nu for reconstruction; error) per instance.
_SUITES = (
    ("expansion", _suite_expansion, 1e-9),
    ("duality", _suite_duality, 1e-9),
    ("reconstruction", _suite_reconstruction, 1e-10),
    ("permutation", _suite_permutation, 1e-9),
    ("order", _suite_order, 1e-12),
)


def _cmd_verify(cfg: dict, stdout) -> int:
    seed = integer(cfg["seed"], "seed", 0)
    failed = False
    for name, suite, tol in _SUITES:
        results = list(suite(seed))
        # The first maximum; a NaN error counts as the largest, so it fails.
        witness, err = max(results, key=lambda r: math.inf if math.isnan(r[1]) else r[1])
        line = (f"suite {name:<15} instances={len(results):<4} max_error={err:.3e}  "
                f"tol={tol:.0e}  ")
        if err <= tol:
            line += "PASS"
        else:
            line += f"FAIL (instance seed {witness})"
            failed = True
        stdout.write(line + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_curves(cfg: dict, stdout) -> int:
    grid = bounds.noise_grid(cfg["nu_min"], cfg["nu_max"], cfg["nu_step"])
    workers = integer(cfg["workers"], "workers", 1, bounds.MAX_WORKERS)  # before the file
    out_path = cfg["out"] or "curves.csv"
    with open(out_path, "w") as fh:  # before the search: an unwritable path fails at once
        curves = bounds.compute_curves(grid, minimize=cfg["minimize"], workers=workers)
        bounds.write_curves_csv(curves, fh)
    flag = "on" if cfg["minimize"] else "off"
    for curve in curves:
        first, last = curve.samples[0], curve.samples[-1]
        stdout.write(
            f"curve {curve.name:<16} (minimize={flag}) "
            f"nu={first[0]:.4f} -> {first[1]:.6f}   nu={last[0]:.4f} -> {last[1]:.6f}\n")
    if cfg["minimize"]:
        stdout.write("note: minimized values are upper bounds on the channel infimum "
                     "(deterministic search plus local refinement)\n")
    stdout.write(f"wrote {sum(len(curve.samples) for curve in curves)} rows to {out_path}\n")
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
    attack = attacks.build_cc_attack(cfg["nu_min"])
    # opened before the search and closed before the report: a failed open or write prints nothing
    with open(cfg["out"], "w") if cfg["out"] else contextlib.nullcontext() as fh:
        # what `curves` writes at this nu; intrinsic is I/(N-1) with N = 3, and doubling
        # it back is exact
        values = {curve.name: curve.values[0] for minimize in (False, True)
                  for curve in bounds.compute_curves([attack.nu], minimize=minimize)}
        if fh is not None:
            distribution_to_csv(attack.joint, fh)
    fixed_i, min_i = values["intrinsic_fixed"], values["intrinsic_min"]
    stdout.write(f"cc attack at nu={attack.nu:.6g}\n")
    stdout.write(f"local weight       = {attack.local_weight:.12g}\n")
    stdout.write(f"P(e='?')           = "
                 f"{attack.joint.probs[..., attacks.EVE_IGNORANT].sum():.12g}\n")
    stdout.write(f"intrinsic (minimize=off) = {2 * fixed_i:.9f} bits, /(N-1) = {fixed_i:.9f}\n")
    stdout.write(f"intrinsic (minimize=on)  = {2 * min_i:.9f} bits, /(N-1) = {min_i:.9f}\n")
    stdout.write(f"dual_sn   (minimize=off) = {values['dual_fixed']:.9f} bits\n")
    stdout.write(f"dual_sn   (minimize=on)  = {values['dual_min']:.9f} bits\n")
    stdout.write("note: minimize=on values are upper bounds on the channel infimum\n")
    if cfg["out"]:
        stdout.write(f"wrote attack joint to {cfg['out']}\n")
    return 0


def _cmd_relay(cfg: dict, stdout) -> int:
    t = bounds.relay_simulate(cfg["parties"], cfg["key_len"], cfg["seed"])
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
    parts = bounds.enumerate_partitions(cfg["parties"])
    for blocks in parts:
        stdout.write("".join("{" + ",".join(str(i) for i in b) + "}" for b in blocks) + "\n")
    stdout.write(f"{len(parts)} nontrivial partitions of {cfg['parties']} parties\n")
    return 0


_COMMANDS = {  # name: (help, handler, the _CONFIG keys it reads, each also a flag)
    "curves": ("compute the four bound curves and write them as CSV", _cmd_curves,
               ("nu_min", "nu_max", "nu_step", "minimize", "workers", "out")),
    "verify": ("run the five randomized identity suites", _cmd_verify, ("seed",)),
    "game": ("print parity-game diagnostics", _cmd_game, ()),
    "attack": ("build the convex-combination attack at nu-min", _cmd_attack, ("nu_min", "out")),
    "relay": ("simulate the XOR key relay", _cmd_relay, ("parties", "key_len", "seed")),
    "partitions": ("list nontrivial party partitions", _cmd_partitions, ("parties",)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ckabounds", allow_abbrev=False,
                     description="Bound curves and diagnostics for conference-key devices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key == "minimize":
                p.add_argument(flag, action="store_true", default=None,
                               help="search channels instead of the fixed post-processing")
            else:
                p.add_argument(flag, dest=key, type=_CONFIG[key][1], default=None)
        if keys:
            p.add_argument("--config", help="key=value config file (flags take precedence)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][1](_resolve(args), sys.stdout)
    except ValueError as exc:  # a bad flag, config or argument value
        print(exc, file=sys.stderr)
        return 1
    except OSError as exc:  # a file that cannot be read or written
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # -h/--help: argparse has printed the usage
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
