"""The per-layer benchmark tracer (``perfbench/tracer.py``) wraps package
functions by name; a name deleted or renamed in the package breaks
``perfbench/run.py --trace 1``.  This checks every wrapped name still
resolves, without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.WRAPPED and tracer.WRAPPED_METHODS
    missing = []
    for module, attr, _, _ in tracer.WRAPPED:
        if not callable(getattr(importlib.import_module(f"nqtensor.{module}"), attr, None)):
            missing.append(f"nqtensor.{module}.{attr}")
    for module, cls, method, _ in tracer.WRAPPED_METHODS:
        owner = getattr(importlib.import_module(f"nqtensor.{module}"), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"nqtensor.{module}.{cls}.{method}")
    assert missing == []
