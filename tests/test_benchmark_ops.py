"""The benchmark's operations (``perfbench/workloads.py``) call the package
through its CLI and its API, and each checks its own output against a closed
form.  A change that breaks one of those calls, or a value it checks, makes
the benchmark count failures; these run every operation of every workload
once, at a fixed seed, without the benchmark's timing harness.  The traced
run (``perfbench/run.py --trace 1``) is run too, as one short worker process
per workload, so a span that a change leaves open or never records fails
here."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, path, name):
    # a module's dataclasses resolve their annotations through sys.modules
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["rank_certify", "nof_witness", "nih_relay"])
def test_every_benchmark_op_passes_its_check(tmp_path, monkeypatch, workload):
    workloads = _load(monkeypatch, PERFBENCH / "workloads.py", "perfbench_workloads")
    ops = workloads.build(workload, 1, str(tmp_path))
    assert ops
    problems = {op.name: op.check(op.run()) for op in ops}
    assert {name: p for name, p in problems.items() if p} == {}


@pytest.mark.parametrize("workload", ["rank_certify", "nof_witness", "nih_relay"])
def test_traced_benchmark_run_records_every_dominant_span(tmp_path, monkeypatch, workload):
    run = _load(monkeypatch, PERFBENCH / "run.py", "perfbench_run")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "1", "--out", str(tmp_path),
         "--spawned", repr(time.monotonic())],
        cwd=PERFBENCH.parent, env={**os.environ, **run.THREAD_ENV},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    predictions = json.loads((PERFBENCH / "predictions.json").read_text())
    try:
        run.check_dominant(workload, result, predictions)
    except SystemExit:
        pytest.fail(f"a span predicted to dominate {workload} recorded no call")
