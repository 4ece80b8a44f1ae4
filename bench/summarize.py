"""Append a trajectory entry built from the results in bench/.work.

    python3 bench/summarize.py LABEL

Reads every `bench/.work/result-*.json` written by `bench/run.py` for the
current source digest, and appends to `bench/BENCH_trajectory.json` one
entry with, per workload and metric (and for the printed median and tail
wall times), the median and quartiles over the runs
(`statistics.quantiles(values, n=4)`), the number of runs, and the
provenance the runs recorded.
"""

from __future__ import annotations

import datetime
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TRAJECTORY = BENCH / "BENCH_trajectory.json"
PRINTED = ("wall_s_median", "wall_s_tail")  # unbounded figures run.py keeps in the provenance


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def main(label: str) -> int:
    results = [json.loads(p.read_text()) for p in sorted((BENCH / ".work").glob("result-*.json"))]
    if not results:
        print("no results in bench/.work", file=sys.stderr)
        return 1
    digest = results[-1]["provenance"]["src_sha256"]
    results = [r for r in results if r["provenance"]["src_sha256"] == digest]
    if not all(r["correct"] for r in results):
        print("some runs were not correct; no entry written", file=sys.stderr)
        return 1
    workloads: dict[str, dict] = {}
    for r in results:
        prov = r["provenance"]
        kind = "per_layer" if prov["trace"] else "end_to_end"
        slot = workloads.setdefault(prov["workload"], {}).setdefault(kind, {})
        for name, m in r["metrics"].items():
            slot.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        if not prov["trace"]:
            printed = workloads[prov["workload"]].setdefault("printed", {})
            for name in PRINTED:
                printed.setdefault(name, {"unit": "s", "values": []})["values"].append(prov[name])
    for slots in workloads.values():
        for metrics in slots.values():
            for m in metrics.values():
                m.update(summary(m.pop("values")))
    first = results[0]["provenance"]
    loads = [r["provenance"][k][0] for r in results for k in ("loadavg_start", "loadavg_end")]
    entry = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "git_commit": first["git_commit"],
        "src_sha256": digest,
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "nproc": first["nproc"],
        "child_env": first["child_env"],
        "seconds": sorted({r["provenance"]["seconds"] for r in results}),
        "loadavg_1min_range": [min(loads), max(loads)],
        "workloads": workloads,
    }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended {label!r} ({len(results)} runs) to {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
