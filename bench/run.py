"""ckabounds benchmark: `ckabounds curves` workloads timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` (no install).  Each invocation of the workload's command runs in a
fresh interpreter through `bench/child.py`, and its CSV is checked against
the SHA-256 in `bench/golden.json`.

`--trace 0` repeats the command until `--seconds` is used up (at least
three times) and reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced invocations (at least two of each) and reports the
per-layer metrics; see `bench/README.md` for what each metric means.

The grids are fixed, so `--seed` changes no input; it is recorded with the
result.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's provenance.  Exit code 0 when every invocation succeeded and
matched its digest, 1 when one did not, 2 when the checkout cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CHILD_TIMEOUT_S = 150

HIGH_NOISE = ["--nu-min", "0.3", "--nu-max", "0.9", "--nu-step", "0.025"]
WORKLOADS = {
    "curves_fixed": ["curves"],
    "curves_min": ["curves", "--minimize"],
    "curves_min_high_noise": ["curves", "--minimize", *HIGH_NOISE, "--workers", "2"],
}
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

# Printed and kept in the provenance, but not end-to-end metrics (see measure).
PRINTED_UNITS = {"wall_s_median": "s", "wall_s_tail": "s", "failed_frac": "frac"}
LAYER_FUNCS = (
    "attacks.build_cc_attack",
    "behaviors.behavior_from_measurement",
    "states.noisy_ghz3",
    "secrecy.intrinsic_information",
    "secrecy.dual_intrinsic",
    "partitions.partitions_as_masks",
)
KERNEL = "secrecy.entropy_bits"
# Time of one SpeedProbe sample (bench/child.py) at the reference CPU speed:
# its fastest time over a run was 66-76 us on the 2-vCPU Xeon host this
# benchmark was written on.  A constant, not each run's fastest sample: that
# minimum moved by up to 14% between runs and the rescaled times with it,
# while with a fixed reference their spread over runs was 2-3%.
PROBE_REF_S = 70e-6


def workers_of(argv: list[str]) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def serial_of(argv: list[str]) -> list[str]:
    """The same command with the process pool switched off."""
    if "--workers" not in argv:
        return argv
    i = argv.index("--workers")
    return argv[:i] + argv[i + 2:]


class Runner:
    """Starts child invocations and counts what was attempted and what failed."""

    def __init__(self, golden: dict[str, str], workload: str):
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.digest = golden[workload]
        self.attempted = 0
        self.failed = 0
        self.versions: dict[str, str] = {}
        self.serial = 0

    def child(self, argv: list[str], trace: bool = False, split: bool = False,
              probe: bool = False) -> dict | None:
        """One invocation; None when it failed or its CSV does not match."""
        self.serial += 1
        csv = WORK / f"out-{self.serial}.csv"
        res = WORK / f"child-{self.serial}.json"
        for p in (csv, res):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(res)]
        cmd += ["--trace"] * trace + ["--split"] * split + ["--probe"] * probe
        cmd += ["--"] + argv + ["--out", str(csv)]
        self.attempted += 1
        ok = _run(cmd, self.env) == 0 and res.is_file()
        out = json.loads(res.read_text()) if ok else None
        if out is not None and out["code"] == 0 and csv.is_file():
            data = csv.read_bytes()
            out["csv_sha256"] = hashlib.sha256(data).hexdigest()
            out["points"] = (len(data.splitlines()) - 1) // 4
            self.versions = {"python": out["python"], "numpy": out["numpy"]}
        ok = out is not None and out.get("csv_sha256") == self.digest
        for p in (csv, res, *WORK.glob(res.stem + ".probe-*")):
            p.unlink(missing_ok=True)
        if not ok:
            self.failed += 1
        return out if ok else None


def _run(cmd: list[str], env: dict) -> int:
    """Run a child in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it, floored at the median."""
    s = sorted(values)
    med = statistics.median(s)
    return max(med, s[len(s) - 11]) if len(s) >= 11 else med


def at_reference_speed(samples: list[dict], workers: int) -> tuple[list[float], list[float]]:
    """Each invocation's wall and CPU time, rescaled to the reference CPU speed.

    A probe sample of time p ran at speed PROBE_REF_S / p relative to the
    reference; the mean over an invocation's samples is the relative speed
    its processes ran at, since they are sampled evenly in CPU time.  The
    probe's own time comes off first (spread over the workers for wall time).
    An invocation too short to be sampled takes the run's samples.
    """
    pooled = [p for s in samples for p in s["probe_s"]]
    walls, cpus = [], []
    for s in samples:
        probes = s["probe_s"]
        speed = statistics.fmean(PROBE_REF_S / p for p in probes or pooled)
        walls.append((s["wall_s"] - sum(probes) / workers) * speed)
        cpus.append((s["cpu_s"] - sum(probes)) * speed)
    return walls, cpus


def measure(runner: Runner, argv: list[str], seconds: float) -> tuple[dict, dict]:
    """Repeat the command; the end-to-end metrics and notes for the provenance.

    The bounded wall and CPU times are medians over the invocations of
    `at_reference_speed`.  On the shared host this was written on, the CPU ran
    up to 2x slower while neighbours were busy, in episodes from
    milliseconds to minutes, so the measured time of an invocation, fastest
    or median, moved between runs by more than any bound the benchmark can
    hold.  The median and the tail of the measured wall times are printed
    and kept with the result.
    """
    samples = []
    start = time.perf_counter()
    last = 0.0
    while len(samples) < 3 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        out = runner.child(argv, probe=True)
        last = time.perf_counter() - t
        if out is not None:
            samples.append(out)
        elif runner.failed >= 3:
            break
    if not samples:
        return {}, {"samples": 0}
    walls = [s["wall_s"] for s in samples]
    ref_walls, ref_cpus = at_reference_speed(samples, workers_of(argv))
    wall_s = statistics.median(ref_walls)
    metrics = {
        "wall_s": wall_s,
        "points_per_s": samples[0]["points"] / wall_s,
        "cpu_s": statistics.median(ref_cpus),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    notes = {
        "samples": len(samples),
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail(walls),
        "failed_frac": runner.failed / runner.attempted,
        "wall_s_samples": walls,
        "wall_s_ref_speed_samples": ref_walls,
        "probe_s_fastest": min(p for s in samples for p in s["probe_s"]),
        "probe_samples": sum(len(s["probe_s"]) for s in samples),
    }
    return metrics, notes


def measure_traced(runner: Runner, argv: list[str], seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced invocations; derive the per-layer metrics.

    The layer pass is the serial form of the command: pool workers are
    processes the wrappers cannot report from, so a pooled workload gets a
    second, serial traced pass over the same grid for its layer spans.
    """
    workers = workers_of(argv)
    plain, pooled, layered = [], [], []
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while len(layered) < 2 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        # Alternate which of the pair runs first, so order effects cancel.
        got = {trace: runner.child(argv, trace=trace, split=trace and workers == 1 and not layered)
               for trace in ((False, True) if rounds % 2 == 0 else (True, False))}
        plain_run, traced = got[False], got[True]
        serial = traced
        if workers > 1:
            serial = runner.child(serial_of(argv), trace=True, split=not layered)
        rounds += 1
        last = time.perf_counter() - t
        if None in (plain_run, traced, serial):
            if runner.failed >= 3:
                break
            continue
        plain.append(plain_run)
        pooled.append(traced)
        layered.append(serial)
    if len(layered) < 2:
        return {}, {"samples": len(layered)}

    def med(values):
        return statistics.median(list(values))

    m: dict[str, float] = {}
    for name in LAYER_FUNCS:
        m[f"{name}.calls"] = layered[0]["layers"].get(name, {}).get("calls", 0)
        m[f"{name}.self_s"] = med(r["layers"].get(name, {}).get("self_s", 0.0) for r in layered)
    split = layered[0]["split"]
    m["secrecy.search.det_s"] = split["det_s"]
    m["secrecy.search.refine_s"] = split["refine_s"]
    m["secrecy.refine.useful_frac"] = split["useful"] / split["searches"] if split["searches"] else 0.0
    m["secrecy.refine.max_gain_bits"] = split["max_gain_bits"]
    kernel = layered[0]["layers"][KERNEL]
    m[f"{KERNEL}.calls"] = kernel["calls"]
    m[f"{KERNEL}.self_s"] = med(r["layers"][KERNEL]["self_s"] for r in layered)
    m[f"{KERNEL}.elements"] = kernel["elements"]
    m[f"{KERNEL}.bytes_computed"] = 8 * kernel["elements"]

    def curves_span(r, key):
        return r["layers"]["bounds.compute_curves"][key]

    serial_s = med(curves_span(r, "total_s") for r in layered)
    if workers > 1:
        pooled_s = med(curves_span(r, "total_s") for r in pooled)
        m["bounds.compute_curves.self_s"] = pooled_s - serial_s / workers
        m["bounds.pool.efficiency"] = serial_s / (workers * pooled_s)
    else:
        m["bounds.compute_curves.self_s"] = med(curves_span(r, "self_s") for r in layered)
        m["bounds.pool.efficiency"] = 1.0
    m["bounds.write_curves_csv.self_s"] = med(
        r["layers"]["bounds.write_curves_csv"]["self_s"] for r in pooled)
    m["trace.overhead_frac"] = (min(r["wall_s"] for r in pooled)
                                / min(r["wall_s"] for r in plain) - 1.0)

    def calls(r):
        return {k: v["calls"] for k, v in r["layers"].items()}

    repeat = all(calls(r) == calls(group[0]) for group in (pooled, layered) for r in group)
    return m, {"samples": len(layered), "counts_repeat": repeat}


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ckabounds").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "command": ["ckabounds", *WORKLOADS[workload]],
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "child_env": CHILD_ENV,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ckabounds" / "cli.py").is_file():
        print(f"no ckabounds source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    argv = WORKLOADS[args.workload]
    runner = Runner(golden, args.workload)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)

    # Warm-up: compiles bytecode in a fresh checkout and proves the package imports.
    warm = subprocess.run([sys.executable, "-c", "import ckabounds.cli"], cwd=ROOT,
                          env=runner.env, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print("ckabounds.cli does not import from this checkout", file=sys.stderr)
        return 2

    measure_run = measure_traced if args.trace else measure
    metrics, notes = measure_run(runner, argv, args.seconds)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = (set(metrics) == set(units) and runner.failed == 0
               and notes.get("counts_repeat", True))
    prov.update(runner.versions, loadavg_end=os.getloadavg(), **notes)

    shown = [(k, v, units.get(k, "")) for k, v in metrics.items()]
    shown += [(k, notes[k], u) for k, u in PRINTED_UNITS.items() if k in notes]
    for name, value, unit in shown:
        print(f"{args.workload:<22} {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({"provenance": prov}))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
