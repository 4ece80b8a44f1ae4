"""Every function the benchmark's per-layer trace wraps must still exist."""

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
