"""One measured `ckabounds` invocation in a fresh interpreter.

    python3 bench/child.py --result FILE [--probe | --trace [--split]] -- curves ...

Times the import of `ckabounds.cli` (set-up), then runs `cli.main` on the
arguments after `--` and times it (the command).  CPU time covers this
process and its reaped children (the `compute_curves` process pool), and
peak RSS is the larger of the two.  Everything is written to FILE as one
JSON object when the command has finished; stdout carries only the
command's own output, which is discarded.

With `--trace`, wrappers are installed over the public functions named in
TRACED, at every module attribute of the package that holds them, so the
program runs unchanged while each call becomes a span (name, start, end,
parent).  Spans stay in memory and are written once at the end, together
with per-function call counts and self times (span time minus the time of
child spans).  The entropy kernel runs about half a million times on the
minimized grid, so it is aggregated into counters instead of spans.

With `--probe`, a SpeedProbe samples how fast the CPU runs while the
command runs, in this process and in the pool workers.

With `--split`, the channel searches the command made are replayed after it
with `SearchBudget(refine=False)`; the replay times give the deterministic
stage and the value differences give what refinement gained.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

TRACED = (
    "attacks.build_cc_attack",
    "behaviors.behavior_from_measurement",
    "states.noisy_ghz3",
    "secrecy.intrinsic_information",
    "secrecy.dual_intrinsic",
    "partitions.partitions_as_masks",
    "bounds.compute_curves",
    "bounds.write_curves_csv",
)
KERNEL = "secrecy.entropy_bits"
SEARCHES = ("secrecy.intrinsic_information", "secrecy.dual_intrinsic")
SETUP_SPAN = "partitions.partitions_as_masks"
PROBE_EVERY_S = 0.005  # of each process's CPU time


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, child time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kernel = {"calls": 0, "time": 0.0, "elements": 0}
        self.searches: list[tuple] = []  # (original, args, kwargs, value, span index)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        searches = self.searches if name in SEARCHES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(idx)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if searches is not None:
                searches.append((fn, args, kwargs, result[0], idx))
            return result

        return traced

    def wrap_kernel(self, fn):
        from numpy import size  # imported after the timed set-up, like the package

        spans, stack, k = self.spans, self.stack, self.kernel

        @functools.wraps(fn)
        def traced(vec):
            t = perf_counter()
            try:
                return fn(vec)
            finally:
                d = perf_counter() - t
                k["calls"] += 1
                k["time"] += d
                k["elements"] += int(size(vec))
                if stack:
                    spans[stack[-1]][4] += d

        return traced

    def summary(self) -> dict:
        out: dict[str, dict] = {}
        for name, start, end, _parent, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        k = self.kernel
        out[KERNEL] = {"calls": k["calls"], "total_s": k["time"], "self_s": k["time"],
                       "elements": k["elements"]}
        return out


def install(tracer: Tracer) -> None:
    """Replace each traced function at every package attribute bound to it."""
    import ckabounds  # noqa: F401  (loads every layer module)
    package = [m for n, m in list(sys.modules.items())
               if n == "ckabounds" or n.startswith("ckabounds.")]
    for qual in TRACED + (KERNEL,):
        module, attr = qual.split(".")
        original = getattr(sys.modules[f"ckabounds.{module}"], attr)
        wrapped = tracer.wrap_kernel(original) if qual == KERNEL else tracer.wrap(qual, original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class SpeedProbe:
    """Times a fixed small workload at regular intervals of CPU time.

    Every PROBE_EVERY_S of CPU time (SIGPROF) the process is interrupted and
    times a few entropy-kernel-sized numpy operations, about 0.1 ms, the
    same work on every commit.  Processes that multiprocessing starts from
    this one (the `compute_curves` pool) arm their own timer and append their
    samples to a file beside FILE when they exit.  An idle process is not
    sampled, since its CPU clock stands still.
    """

    def __init__(self, result: str):
        import numpy  # not numpy.random: importing it adds 5 MB to peak RSS
        self.vecs = [numpy.linspace(0.05, 0.95, k) for k in (4, 8, 16, 32)]
        self.log2 = numpy.log2
        self.samples: list[float] = []
        self.spill = Path(result).with_suffix(".probe")

    def sample(self, signum, frame) -> None:
        t = perf_counter()
        for i in range(24):
            v = self.vecs[i & 3]
            v = v[v > 1e-15]
            float(-(v * self.log2(v)).sum())
        self.samples.append(perf_counter() - t)

    def start(self) -> None:
        from multiprocessing import util
        signal.signal(signal.SIGPROF, self.sample)
        util.register_after_fork(self, SpeedProbe._in_worker)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)

    def _in_worker(self) -> None:
        from multiprocessing import util
        self.samples = []
        util.Finalize(None, self._write, exitpriority=100)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def _write(self) -> None:
        self.stop()
        with open(f"{self.spill}-{os.getpid()}", "w") as fh:
            json.dump(self.samples, fh)

    def collect(self) -> list[float]:
        samples = list(self.samples)
        for path in sorted(self.spill.parent.glob(self.spill.name + "-*")):
            samples += json.loads(path.read_text())
            path.unlink()
        return samples


def split_search(tracer: Tracer) -> dict:
    """Deterministic versus refinement time, and what refinement gained.

    Each recorded search is replayed with refinement off.  The replay runs
    under the same kernel wrapper as the traced call, so both carry the same
    tracing cost.  The one-off `partitions_as_masks` build inside the first
    traced search is process set-up, not search time, and is taken out.
    """
    from ckabounds.secrecy import SearchBudget

    spans = tracer.spans
    full = det = 0.0
    gains = []
    for fn, args, kwargs, value, idx in tracer.searches:
        start, end = spans[idx][1], spans[idx][2]
        setup = sum(s[2] - s[1] for s in spans[idx + 1:]
                    if s[0] == SETUP_SPAN and start <= s[1] <= end)
        full += end - start - setup
        budget = args[1] if len(args) > 1 else kwargs.get("budget")
        budget = dataclasses.replace(budget or SearchBudget(), refine=False)
        t = perf_counter()
        det_value, _ = fn(args[0], budget)
        det += perf_counter() - t
        gains.append(det_value - value)
    return {
        "searches": len(gains),
        "det_s": det,
        "refine_s": full - det,
        "useful": sum(1 for g in gains if g > 0.0),
        "max_gain_bits": max([0.0] + gains),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--split", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    t = perf_counter()
    import ckabounds.cli as cli
    setup_s = perf_counter() - t
    import numpy

    tracer = Tracer() if opts.trace else None
    if tracer is not None:
        install(tracer)
    probe = SpeedProbe(opts.result) if opts.probe else None

    r0 = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    if probe is not None:
        probe.start()
    t = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall_s = perf_counter() - t
    if probe is not None:
        probe.stop()
    r1 = (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))

    cpu_s = sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime for a, b in zip(r0, r1))
    result = {
        "code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": max(r1[0].ru_maxrss, r1[1].ru_maxrss) / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if probe is not None:
        result["probe_s"] = probe.collect()
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = [s[:4] for s in tracer.spans]
        if opts.split:
            result["split"] = split_search(tracer)
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
