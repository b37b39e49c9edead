"""One workload in one fresh process; started by run.py, not meant to be run by hand.

Set-up (interpreter start, ``import nqtensor``, input generation) is timed
from the moment run.py started this process, on the shared monotonic clock.
With ``--setup-only`` the process stops there.  Otherwise it runs the
workload's fixed operation list, pass after pass, in one thread, each
operation after the previous one returns (a closed loop with one client), and
prints one JSON line with what it measured.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so the two can be compared for overhead and for identical
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Enough commands for a 90th percentile with ten samples beyond it.
MIN_SAMPLES = 100
MIN_PASSES = 2
# Stop starting passes after this long, whatever the minimums say.
HARD_STOP_S = 120.0


def run_pass(ops, tracer=None):
    """Run every operation once; returns (wall seconds, [(latency, outcome)])."""
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op = i
            root = tracer.open(op.kind)
        try:
            outcome = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            outcome = exc
        finally:
            if tracer is not None:
                tracer.close(root)
        results.append((time.perf_counter() - t0, outcome))
    return time.perf_counter() - start, results


def run_phase(ops, until, start, min_passes, min_samples, tracer=None):
    """Run passes until ``until`` seconds after ``start`` and both minimums are met."""
    walls, passes = [], []
    while True:
        wall, results = run_pass(ops, tracer)
        walls.append(wall)
        passes.append(results)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if (elapsed >= until and len(passes) >= min_passes
                and len(passes) * len(ops) >= min_samples):
            break
    return walls, passes


def check_passes(ops, passes, reference):
    """Check every outcome against its expected value and its first-pass report."""
    failures = []
    for results in passes:
        for op, ref, (_, outcome) in zip(ops, reference, results):
            if isinstance(outcome, Exception):
                problems = [f"raised {type(outcome).__name__}: {outcome}"]
                deterministic = False
            else:
                problems = op.check(outcome)
                deterministic = outcome.text == ref
                if not deterministic:
                    problems.append("report differs from the first pass")
            if problems:
                # a known defect excuses a wrong value, never a crash or a changed report
                known = op.known_defect if deterministic else None
                failures.append({"op": op.name, "problems": problems, "known_defect": known})
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import nqtensor

    if Path(nqtensor.__file__).resolve().parent != SRC / "nqtensor":
        raise SystemExit(f"imported nqtensor from {nqtensor.__file__}, not from {SRC}")
    import workloads

    ops = workloads.build(args.workload, args.seed, args.out)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    result = {"setup_s": setup_s, "ops": len(ops)}
    if args.trace:
        from tracer import Tracer, layer_totals

        walls, passes = run_phase(ops, args.seconds / 2, start, 1, 0)
        tracer = Tracer()
        tracer.install()
        traced_walls, traced_passes = run_phase(ops, args.seconds, start, 1, 0, tracer)
        tracer.write(os.path.join(args.out, "spans.jsonl"))
        totals, child_time = layer_totals(tracer.spans)
        roots = [(i, s) for i, s in enumerate(tracer.spans) if s[3] is None]
        result["coverage"] = (sum(child_time[i] for i, _ in roots)
                              / sum(s[2] - s[1] for _, s in roots))
        result["totals"] = totals
        result["traced_walls"] = traced_walls
        all_passes = passes + traced_passes
    else:
        walls, all_passes = run_phase(ops, args.seconds, start, MIN_PASSES, MIN_SAMPLES)
    reference = [o.text if not isinstance(o, Exception) else None
                 for _, o in all_passes[0]]
    result["walls"] = walls
    result["latencies"] = [lat for results in all_passes for lat, _ in results]
    result["failures"] = check_passes(ops, all_passes, reference)
    result["attempted"] = len(all_passes) * len(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
