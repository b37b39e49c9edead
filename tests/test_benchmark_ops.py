"""The benchmark's operations (``perfbench/workloads.py``) call the package
through its CLI and its API, and each checks its own output against a closed
form.  A change that breaks one of those calls, or a value it checks, makes
the benchmark count failures; these run every operation of every workload
once, at a fixed seed, without the benchmark's timing harness."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    # its dataclasses resolve their annotations through sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["rank_certify", "nof_witness", "nih_relay"])
def test_every_benchmark_op_passes_its_check(tmp_path, monkeypatch, workload):
    ops = _load_workloads(monkeypatch).build(workload, 1, str(tmp_path))
    assert ops
    problems = {op.name: op.check(op.run()) for op in ops}
    assert {name: p for name, p in problems.items() if p} == {}
