"""Span tracer that wraps nqtensor's public functions from outside the package.

Each wrapped function is rebound in every ``nqtensor`` module that holds it
(the defining module and each ``from .x import y`` copy), so calls made
inside the package are traced too.  Spans stay in memory until the run ends.
A span records its name, start, end, parent span, operation id and counts.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

# (module, attribute, span name, counts(args, kwargs, result) -> dict or None)
WRAPPED = (
    ("scalar_linalg", "exact_rank", "scalar_linalg.exact_rank",
     lambda a, kw, r: {"entries": a[0].rows * a[0].cols}),
    ("scalar_linalg", "svd", "scalar_linalg.svd", None),
    ("scalar_linalg", "to_float", "scalar_linalg.to_float", None),
    ("tensor_core", "materialize", "tensor_core.materialize",
     lambda a, kw, r: {"term_entries": a[0].term_count * math.prod(a[0].dims)}),
    ("tensor_core", "unfold", "tensor_core.unfold", None),
    ("tensor_core", "tensor_slice", "tensor_core.tensor_slice", None),
    ("tensor_core", "group_matrize", "tensor_core.group_matrize", None),
    ("tensor_core", "read_tsr", "tensor_core.io", lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("tensor_core", "read_dec", "tensor_core.io", lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("tensor_core", "write_tsr", "tensor_core.io", lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("tensor_core", "write_dec", "tensor_core.io", lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("functions", "canonical_tensor", "functions.canonical_tensor", None),
    ("functions", "random_nondet_substitution", "functions.random_nondet_substitution", None),
    ("functions", "eq_nondet_decomposition", "functions.nondet_decomposition", None),
    ("functions", "hamming_nondet_decomposition", "functions.nondet_decomposition", None),
    ("rank_bounds", "rank_bracket", "rank_bounds.rank_bracket", None),
    ("rank_bounds", "gip_certificate", "rank_bounds.gip_certificate", None),
    ("rank_bounds", "nrank_probe", "rank_bounds.nrank_probe", None),
    ("rank_bounds", "pattern_check", "rank_bounds.pattern_check", None),
    ("protocol", "simulate_branches", "protocol.simulate_branches",
     lambda a, kw, r: {"branches": len(r.branches)} if r is not None else None),
    ("protocol", "extract_families", "protocol.extract_families", None),
    # a failed search used all of its attempts
    ("protocol", "coefficient_search", "protocol.coefficient_search",
     lambda a, kw, r: ({"attempts": r.attempts, "found": 1} if r is not None
                       else {"attempts": kw.get("max_attempts", a[5] if len(a) > 5 else 10)})),
    ("protocol", "simulate_dense", "protocol.simulate_dense", None),
    ("protocol", "read_scenario", "protocol.read_scenario", None),
    ("protocol", "nih_rank_certificate", "protocol.nih_rank_certificate", None),
    ("protocol", "build_nof_protocol", "protocol.build_nof_protocol", None),
    ("protocol", "strong_nondet_check", "protocol.strong_nondet_check", None),
    ("protocol", "run_nof", "protocol.run_nof", None),
    ("reports", "render_tsv", "reports.render_tsv", None),
)

# (module, class, method, span name), wrapped on the class itself
WRAPPED_METHODS = (
    ("protocol", "BranchState", "accept_probability", "protocol.accept_probability"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, counts]
        self._stack = []
        self.op = None

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, counts=None):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = counts
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, counts(args, kwargs, result) if counts else None)

        return traced

    def install(self):
        """Rebind every wrapped name in every loaded nqtensor module."""
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nqtensor" or name.startswith("nqtensor."))]
        for module, attr, name, counts in WRAPPED:
            original = getattr(sys.modules[f"nqtensor.{module}"], attr)
            traced = self._wrap(original, name, counts)
            for mod in package:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
        for module, cls_name, method, name in WRAPPED_METHODS:
            cls = getattr(sys.modules[f"nqtensor.{module}"], cls_name)
            setattr(cls, method, self._wrap(getattr(cls, method), name, None))

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts or {}})
                         + "\n")


def layer_totals(spans):
    """Per span name: calls, busy (outermost spans only), self time, counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            t["busy_s"] += end - start
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals, child_time
