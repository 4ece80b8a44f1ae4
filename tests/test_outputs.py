"""Pinned command outputs, committed under `tests/golden/` and compared byte for byte.

`OUTPUTS` is the one list of them: a file stem and its `ckabounds` argv, whose
stdout is `<stem>.txt` and whose `--out` file is `<stem>.csv`.  Its `curves` rows,
the benchmark's workloads, pin only the CSV: `bench/test_golden.py` runs them, and
here their `bench/golden.json` digests are tied to these files.  A mismatch names
its line; explain it, then rewrite every file and `VERSIONS` (the Python and numpy
that wrote them) with `PYTHONPATH=src python tests/test_outputs.py`.
"""

import hashlib
import json
import os
import platform
import runpy
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from ckabounds import bounds
from ckabounds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH = GOLDEN.parents[1] / "bench"
CURVES = runpy.run_path(str(BENCH / "run.py"))["WORKLOADS"]

OUTPUTS = {
    "verify": ["verify"],  # at the default seed
    "game": ["game"],
    # the stdout names the CSV path; nu = 0 is chi's nu -> 0 limit, read with local weight 0
    "attack": ["attack", "--nu-min", "0.05", "--out", "attack.csv"],
    "attack_nu0": ["attack", "--nu-min", "0", "--out", "attack.csv"],
    "partitions": ["partitions", "--parties", "4"],  # an order nothing else fixes
    # the generator's stream: the defaults, then a negative seed (masked to 64 bits), 70 bits
    "relay": ["relay"],
    "relay_70_bits": ["relay", "--parties", "4", "--key-len", "70", "--seed", "-1"],
    **{name: [*argv, "--out", f"{name}.csv"] for name, argv in CURVES.items()},
}


def pinned(stem: str) -> dict[str, str]:
    """Run row `stem` in the working directory: {golden file name: the text it must hold}."""
    argv, out = OUTPUTS[stem], StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    files = {} if stem in CURVES else {f"{stem}.txt": out.getvalue()}
    if "--out" in argv:
        files[f"{stem}.csv"] = Path(argv[argv.index("--out") + 1]).read_bytes().decode()
    return files


@pytest.mark.parametrize("stem", [stem for stem in OUTPUTS if stem not in CURVES])
def test_output_matches_golden(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in pinned(stem).items():  # lists of lines, so a mismatch names its line
        golden = (GOLDEN / name).read_bytes().decode()
        assert text.splitlines(keepends=True) == golden.splitlines(keepends=True), name


@pytest.mark.parametrize("chunk", [1, 3, 8, None], ids=["1", "3", "8", "whole"])
@pytest.mark.parametrize("stem", ["curves_min", "curves_min_high_noise"])
def test_minimized_curves_serially_in_runs_of_any_size(tmp_path, monkeypatch, stem, chunk):
    # one process searches the grid in runs of GRID_CHUNK points, each one stack with one
    # set-up per monotone; whatever the run size, down to one point a run (as in the pool
    # the high-noise workload uses) and up to the whole grid, it writes the same bytes
    argv = CURVES[stem]
    if "--workers" in argv:
        at = argv.index("--workers")
        argv = [*argv[:at], *argv[at + 2:]]
    monkeypatch.setattr(bounds, "GRID_CHUNK", chunk or bounds.MAX_GRID_POINTS)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "c.csv"]) == 0
    text = (tmp_path / "c.csv").read_bytes().decode()
    golden = (GOLDEN / f"{stem}.csv").read_bytes().decode()
    assert text.splitlines(keepends=True) == golden.splitlines(keepends=True)


def test_bench_digests_are_the_committed_csvs():
    digests = json.loads((BENCH / "golden.json").read_text())
    for name, digest in digests.items():
        assert hashlib.sha256((GOLDEN / f"{name}.csv").read_bytes()).hexdigest() == digest, name


def record():
    for stem in OUTPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for name, text in pinned(stem).items():
                (GOLDEN / name).write_bytes(text.encode())
    (GOLDEN / "VERSIONS").write_text(f"python {platform.python_version()} numpy {np.__version__}\n")


if __name__ == "__main__":
    record()
