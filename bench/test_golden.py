"""Golden-output gate for the benchmark workloads.

    PYTHONPATH=src python3 -m pytest bench

Each workload's `ckabounds curves` CSV must match the SHA-256 recorded in
`bench/golden.json`, byte for byte.  The pooled workload must produce the
same bytes serially, since its layer trace comes from a serial pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ckabounds import cli

import run
from run import WORKLOADS, at_reference_speed, serial_of, tail

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def _digest(argv, tmp_path):
    out = tmp_path / "curves.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_workload_has_a_digest():
    assert set(GOLDEN) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_csv_matches_golden_digest(workload, tmp_path, capsys):
    assert _digest(WORKLOADS[workload], tmp_path) == GOLDEN[workload]


def test_serial_pass_matches_pooled_digest(tmp_path, capsys):
    argv = WORKLOADS["curves_min_high_noise"]
    assert serial_of(argv) != argv
    assert _digest(serial_of(argv), tmp_path) == GOLDEN["curves_min_high_noise"]


def test_tail_keeps_ten_samples_beyond_it():
    assert tail([1.0, 2.0, 3.0]) == 2.0  # too few samples: the median
    values = [float(i) for i in range(100)]
    assert tail(values) == 89.0
    assert sum(v > tail(values) for v in values) == 10


def test_at_reference_speed_rescales_by_the_probe():
    ref = run.PROBE_REF_S
    fast = {"wall_s": 1.0 + ref, "cpu_s": 1.0 + ref, "probe_s": [ref]}
    slow = {"wall_s": 2.0 + 2 * ref, "cpu_s": 2.0 + 2 * ref, "probe_s": [2 * ref]}  # half speed
    walls, cpus = at_reference_speed([fast, slow], workers=1)
    assert walls == pytest.approx([1.0, 1.0])
    assert cpus == pytest.approx([1.0, 1.0])
    unsampled = {"wall_s": 1.0, "cpu_s": 1.0, "probe_s": []}  # takes the run's samples
    walls, _ = at_reference_speed([slow, unsampled], workers=1)
    assert walls[1] == pytest.approx(0.5)
    pooled = {"wall_s": 1.0 + ref, "cpu_s": 2.0 + 2 * ref, "probe_s": [ref, ref]}
    walls, cpus = at_reference_speed([pooled], workers=2)
    assert walls == pytest.approx([1.0])
    assert cpus == pytest.approx([2.0])
