"""Every function the benchmark's per-layer trace wraps must still exist, and
the searches it replays must accept the replay's budget."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CHILD = _child()


@pytest.mark.parametrize("qual", _CHILD.TRACED + (_CHILD.KERNEL,))
def test_traced_name_resolves(qual):
    module, attr = qual.split(".")
    assert callable(getattr(importlib.import_module(f"ckabounds.{module}"), attr))


@pytest.mark.parametrize("qual", _CHILD.SEARCHES)
def test_split_search_replay_contract(qual):
    # `bench/child.py --split` replays each traced search with refinement off
    from ckabounds.attacks import build_cc_attack
    from ckabounds.secrecy import ClassicalChannel, SearchBudget

    module, attr = qual.split(".")
    fn = getattr(importlib.import_module(f"ckabounds.{module}"), attr)
    dist = build_cc_attack(0.3).joint
    value, channel = fn(dist, dataclasses.replace(SearchBudget(), refine=False))
    assert isinstance(value, float) and isinstance(channel, ClassicalChannel)
    assert value >= fn(dist)[0]
