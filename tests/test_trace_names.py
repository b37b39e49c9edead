"""The per-layer benchmark tracer (``perfbench/tracer.py``) wraps package
functions by name and reads attributes of their arguments; a name or
attribute deleted or renamed in the package breaks
``perfbench/run.py --trace 1``.  These check that every wrapped name still
resolves and that the count functions read real arguments, without
installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nqtensor.errors import CoefficientNotFound
from nqtensor.functions import canonical_tensor, constant, eq_nondet_decomposition, equality
from nqtensor.protocol import (
    coefficient_search,
    constant_one_spec,
    nih_families,
    simulate_branches,
)
from nqtensor.tensor_core import read_dec, read_tsr, unfold, write_dec, write_tsr

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


def test_counts_read_real_arguments(tmp_path):
    counts = {(module, attr): fn for module, attr, _, fn in _load_tracer().WRAPPED}
    # rows * cols of the 2 x 4 mode-1 unfolding of eq at n = 1, k = 3
    m = unfold(canonical_tensor(equality(1, 3)), 1)
    assert counts["scalar_linalg", "exact_rank"]((m,), {}, 2) == {"entries": 8}
    # term_count * prod(dims) of its 2-term witness over dims (2, 2, 2)
    d = eq_nondet_decomposition(1, 3)
    assert counts["tensor_core", "materialize"]((d,), {}, None) == {"term_entries": 16}
    # the I/O spans count the size of the file named by the first argument
    t, tsr, dec = canonical_tensor(equality(1, 3)), tmp_path / "t.tsr", tmp_path / "d.dec"
    for fn, args in ((write_tsr, (tsr, t)), (read_tsr, (tsr,)),
                     (write_dec, (dec, d)), (read_dec, (dec,))):
        result = fn(*args)
        size = args[0].stat().st_size
        assert size > 0
        assert counts["tensor_core", fn.__name__](args, {}, result) == {"bytes": size}
    # the one turn raises the channel: one live transcript
    args = (constant_one_spec(), (0, 0))
    r = simulate_branches(*args)
    assert len(r.branches) == 1
    assert counts["protocol", "simulate_branches"](args, {}, r) == {"branches": 1}
    count = counts["protocol", "coefficient_search"]
    families, ones = nih_families(constant_one_spec(), constant(1, 2, 1))
    args = (families, ones, 3, 0)
    found = coefficient_search(*args)
    assert count(args, {}, found) == {"attempts": found.attempts, "found": 1}
    # a failed search used all of its attempts: every accepted matrix is zero
    args, kwargs = (np.zeros_like(families), ones, 3, 0), {"max_attempts": 4}
    with pytest.raises(CoefficientNotFound):
        coefficient_search(*args, **kwargs)
    assert count(args, kwargs, None) == {"attempts": 4}
