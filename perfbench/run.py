"""nqtensor benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in fresh processes (see worker.py): several
set-up-only processes time interpreter start, ``import nqtensor`` and input
generation, then one process runs the timed loop.  Without ``--workload``
every workload in BENCHMARK.json runs in turn.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Each workload ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give the
environment, the sample count of every metric and every failed operation.
Outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
# Every run must end within 180 s; leave room for the parent itself.
DEADLINE_S = 170.0
# One thread: keep BLAS from starting its own pool.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nqtensor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------


def spawn(args, out_dir, deadline, setup_only):
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out_dir), "--spawned", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the workload finished")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{args.workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def end_to_end(res, setups):
    lat = sorted(res["latencies"])
    p90 = percentile(lat, 90)
    attempted = res["attempted"]
    ok = attempted - len(res["failures"])
    return {
        "wall_s": (statistics.median(res["walls"]), f"median of {len(res['walls'])} passes"),
        "cmd_p50_s": (percentile(lat, 50), f"{len(lat)} commands"),
        "cmd_p90_s": (p90, f"{len(lat)} commands, {sum(x > p90 for x in lat)} beyond"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} processes"),
        "peak_rss_mb": (res["peak_rss_mb"], "1 process"),
        "ok_ratio": (ok / attempted, f"{ok} of {attempted} commands"),
    }


def per_layer(res, names):
    passes = len(res["traced_walls"])
    totals = res["totals"]
    found = totals.get("protocol.coefficient_search", {})
    special = {
        "trace.overhead_s": (statistics.median(res["traced_walls"])
                             - statistics.median(res["walls"])),
        "trace.coverage": res["coverage"],
        "protocol.coefficient_search.useful_ratio":
            found.get("found", 0) / found["attempts"] if found.get("attempts") else 0.0,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = (special[name], f"{passes} traced passes")
        else:
            span, field = name.rsplit(".", 1)
            out[name] = (totals.get(span, {}).get(field, 0) / passes, "per traced pass")
    return out


def check_dominant(workload, res, predictions):
    """Fail loudly when a layer predicted to dominate recorded no span."""
    for row in predictions:
        if workload not in row.get("dominant_on", ()):
            continue
        for name in row["metrics"]:
            span = name.rsplit(".", 1)[0]
            if not res["totals"].get(span, {}).get("calls"):
                fail(f"{span} is predicted to dominate {workload} but recorded no span; "
                     "a wrapped function was not rebound")


def print_layer_shares(workload, metrics, res, predictions):
    wall = statistics.median(res["traced_walls"])
    role = {}
    for row in predictions:
        for name in row["metrics"]:
            role[name] = ("~0" if workload in row.get("near_zero_on", ()) else
                          "on" if workload in row["on"] else "")
    timed = [(v, n) for n, (v, _) in metrics.items() if n.endswith(("busy_s", "self_s"))]
    print(f"layer shares of a traced pass ({wall:.4f} s); prediction in brackets:")
    for value, name in sorted(timed, reverse=True):
        print(f"  {name:44s} {value / wall:7.2%}  [{role.get(name, '')}]")


def run_workload(args, bench, predictions, env):
    deadline = time.monotonic() + DEADLINE_S
    out_dir = OUT / args.workload
    spawn(args, out_dir, deadline, setup_only=True)  # fills the bytecode cache
    setups = []
    if not args.trace:
        setups = [spawn(args, out_dir, deadline, True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, out_dir, deadline, setup_only=False)
    setups.append(res["setup_s"])

    if args.trace:
        check_dominant(args.workload, res, predictions)
        metrics = per_layer(res, [m["name"] for m in bench["per_layer"]])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = end_to_end(res, setups)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['ops']} commands per pass, {len(res['walls'])} passes"
          + (f" + {len(res['traced_walls'])} traced" if args.trace else ""))
    for name, (value, samples) in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}  ({samples})")
    if args.trace:
        print_layer_shares(args.workload, metrics, res, predictions)
    unexpected = [f for f in res["failures"] if not f["known_defect"]]
    seen = {}
    for f in res["failures"]:
        seen.setdefault((f["op"], f["known_defect"]), [0, f["problems"]])[0] += 1
    for (op, known), (count, problems) in seen.items():
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        print(f"  failed {op} x{count}: {'; '.join(problems)} ({tag})")
    result = {
        "correct": not unexpected,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    stamp = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    stamp.write_text(json.dumps({"env": env, "result": result, "setups": setups,
                                 "raw": res}) + "\n")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; default: all of them")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed seconds per workload; default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nqtensor" / "__init__.py").is_file():
        fail(f"no nqtensor sources under {ROOT / 'src'}; run from a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    env = environment(args.seed)
    print("env " + json.dumps(env))
    for name in [args.workload] if args.workload else names:
        args.workload = name
        result = run_workload(args, bench, predictions, env)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
