"""Command-line surface.

Every command writes a TSV report (and any artifacts) into --out through the
one line writer and prints the report to stdout (``verify-all`` prints one
line per criterion instead).  ``build``, ``rank``, ``unfold`` and ``protocol``
take their tensor from one resolver, :func:`_tensor_source`.  Exit codes: 0 all
asserted rows pass, 1 a check failed, 2 usage or file-format errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import config
from .errors import (
    CheckFailure,
    DegenerateN,
    NqtensorError,
    SizeCapExceeded,
    UsageError,
)
from .functions import FAMILIES, canonical_tensor, from_name, load_truth_table
from .protocol import (
    build_nof_protocol,
    constant_one_spec,
    nih_rank_certificate,
    read_scenario,
    run_nof,
    strong_nondet_check,
    trivial_eq_relay_spec,
)
from .rank_bounds import gip_certificate, nrank_probe, rank_bracket
from .reports import FAIL, INFO, SKIP, Row, bound_row, check_row, render_tsv
from .scalar_linalg import exact_rank, write_lines, write_mat
from .tensor_core import read_dec, read_tsr, unfold, write_dec, write_tsr
from .verify import GIP_INSTANCES, run_verify_all


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _load_function(args):
    """The ``--truth-table`` function, named after its file's stem, else the
    ``--function`` family member."""
    if getattr(args, "truth_table", None):
        return load_truth_table(args.truth_table, name=_stem(args.truth_table))
    return from_name(args.function, args.n, args.k)


def _gip_function(n, k):
    """GIP for the slice certificate, which needs at least three players."""
    if k < 3:
        raise UsageError("the GIP certificate needs --k of at least 3")
    return from_name("gip", n, k)


def _tensor_source(args, witness=True):
    """The tensor that ``build`` writes, ``rank`` brackets, ``unfold``
    unfolds and ``protocol`` compiles, its witness (None if it has none or
    ``witness`` is false), the row that names a tensor with an entry other
    than 0 or 1, the report stem, and the function (None for ``--tsr``).
    ``--tsr`` and ``--dec`` give them from files, else the ``--function``'s
    ``FAMILIES`` entry, or the 0/1 tensor of a function without one (every
    ``--truth-table`` function, whatever its name).
    """
    tsr, dec_path = getattr(args, "tsr", None), getattr(args, "dec", None)
    if dec_path and not tsr:
        raise UsageError("--dec requires --tsr")
    if tsr:
        t = read_tsr(tsr)
        dec = read_dec(dec_path) if dec_path else None
        f, stem = None, _stem(tsr)
    else:
        f = _load_function(args)
        stem = f"{f.name}_{f.n}_{f.k}"
        family = None if args.truth_table else FAMILIES.get(f.name)
        t = family.tensor(f) if family else canonical_tensor(f)
        dec = family.witness(f.n, f.k) if witness and family and family.witness else None
    zero_one = all(e.im == 0 and e.re in (0, 1) for e in t.entries)
    label = [] if zero_one else [Row("tensor", "nondet_witness", "-", "direct", INFO)]
    return t, dec, label, stem, f


def _write_report(out_dir, name, text) -> str:
    """Write the rendered report ``text`` to ``out_dir/name.tsv``; its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name + ".tsv")
    write_lines(path, text.split("\n")[:-1])
    return path


def _emit(args, stem, rows) -> int:
    text = render_tsv(rows)
    sys.stdout.write(text)
    path = _write_report(args.out, stem, text)
    if any(r.verdict == FAIL for r in rows):
        raise CheckFailure(f"failing rows in {path}")
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    t, dec, label, stem, _ = _tensor_source(args)
    os.makedirs(args.out, exist_ok=True)
    tsr_path = os.path.join(args.out, stem + ".tsr")
    write_tsr(tsr_path, t)
    rows = [Row("tensor_file", tsr_path, "-", "direct", INFO)] + label
    if dec is not None:
        dec_path = os.path.join(args.out, stem + ".dec")
        write_dec(dec_path, dec)
        rows.append(Row("decomposition_file", dec_path, "-", "direct", INFO))
        rows.append(Row("decomposition_terms", dec.term_count, "-", "direct", INFO))
    return _emit(args, f"build_{stem}", rows)


def cmd_rank(args) -> int:
    t, dec, label, stem, _ = _tensor_source(args)
    br = rank_bracket(t, known=dec)
    rows = label + [
        Row("bracket_lower", br.lower, "-", "derived", INFO),
        Row("bracket_upper", br.upper, "-", "derived", INFO),
        Row("bracket_tight", br.tight, "-", "derived", INFO),
    ]
    return _emit(args, f"rank_{stem}", rows)


def cmd_unfold(args) -> int:
    t, _, label, stem, _ = _tensor_source(args, witness=False)
    if not 1 <= args.mode <= t.order:
        raise UsageError(f"--mode must be in 1..{t.order}")
    m = unfold(t, args.mode)
    os.makedirs(args.out, exist_ok=True)
    mat_path = os.path.join(args.out, f"{stem}_mode{args.mode}.mat")
    write_mat(mat_path, m)
    rows = label + [
        Row("unfolding_file", mat_path, "-", "direct", INFO),
        Row("unfolding_shape", f"{m.rows}x{m.cols}", "-", "direct", INFO),
        Row("unfolding_rank", exact_rank(m), "-", "derived", INFO),
    ]
    return _emit(args, f"unfold_{stem}_mode{args.mode}", rows)


def cmd_gip_cert(args) -> int:
    n, k = args.n, args.k
    f = _gip_function(n, k)
    try:
        cert = gip_certificate(n, k, canonical_tensor(f))
    except DegenerateN as exc:
        rows = [Row("certificate", str(exc), "n >= 2", "direct", SKIP)]
        return _emit(args, f"gip_cert_{n}_{k}", rows)
    rows = [
        check_row("rank_T_prime", cert.rank_t_prime, 2 ** n - 1, "literature"),
    ]
    for i, r in enumerate(cert.rank_t_i_prime, start=3):
        rows.append(check_row(f"rank_T_{i}_prime", r, 2 ** (n - 1) - 1, "literature"))
    rows += [
        Row("combined_mode1_rank", cert.combined_mode1_rank, "-", "derived", INFO),
        Row("summation_bound", cert.summation_bound, "-", "literature", INFO),
        Row("holds_summation", cert.holds_summation, "reported", "derived", INFO),
        Row("closed_form_bound", cert.closed_form_bound, "-", "literature", INFO),
        Row("holds_closed_form", cert.holds_closed_form, "reported", "derived", INFO),
    ]
    return _emit(args, f"gip_cert_{n}_{k}", rows)


def cmd_protocol(args) -> int:
    t, _, _, stem, f = _tensor_source(args, witness=False)
    proto = build_nof_protocol(t, f)
    rows = [
        Row("numerical_rank", proto.r, "-", "derived", INFO),
        check_row("qubit_cost", proto.qubit_cost,
                  (math.ceil(math.log2(proto.r)) if proto.r >= 1 else 0) + 1,
                  "literature"),
    ]
    stem = f"nof_{stem}"
    if args.protocol_cmd == "sweep":
        rep = strong_nondet_check(proto)
        rows += [
            check_row("sweep_decisions_ok", rep.passed, True, "derived"),
            Row("sweep_inputs", rep.total_inputs, "-", "direct", INFO),
            bound_row("min_accept_probability", rep.min_accept_probability,
                      low=config.ACCEPT_EPS, source="derived"),
            bound_row("max_reject_probability", rep.max_reject_probability,
                      high=config.REJECT_CEILING, source="derived"),
            bound_row("max_sim_analytic_gap", rep.max_sim_analytic_gap,
                      high=1e-9, source="literature"),
        ]
        stem += "_sweep"
    elif args.input:
        try:
            xs = tuple(int(tok) for tok in args.input.split(","))
        except ValueError:
            raise UsageError(f"--input must be comma-separated integers, got {args.input!r}") from None
        res = run_nof(proto, xs)
        rows += [
            Row("input", ",".join(str(x) for x in xs), "-", "direct", INFO),
            Row("probability", res.probability, "-", "derived", INFO),
            Row("analytic_probability", res.analytic_probability, "-", "derived", INFO),
            check_row("accepted", res.accepted, bool(f.value(xs)), "derived"),
        ]
    return _emit(args, stem, rows)


def cmd_nih_extract(args) -> int:
    if args.scenario:
        spec = read_scenario(args.scenario)
        f = _load_function(args)
        if (spec.k, spec.n) != (f.k, f.n):
            raise UsageError(f"scenario has players {spec.k}, bits {spec.n} but "
                             f"function {f.name} has k {f.k}, n {f.n}")
    elif args.truth_table:
        raise UsageError("nih-extract needs --scenario for a --truth-table function")
    elif args.function == "eq":
        if args.k != 3:
            raise UsageError("the built-in relay protocol is 3-party")
        f = from_name("eq", args.n, 3)
        spec = trivial_eq_relay_spec(args.n)
    elif args.function == "const1":
        f = from_name("const1", args.n, args.k)
        spec = constant_one_spec(args.n, args.k)
    else:
        raise UsageError("nih-extract needs --scenario for functions other than "
                         "eq/const1")
    cert = nih_rank_certificate(spec, f, rng_seed=args.seed)
    rows = [
        Row("turns", cert.ell, "-", "direct", INFO),
        Row("group_split", cert.group_split, "-", "direct", INFO),
        check_row("pattern_ok", cert.pattern_ok, True, "derived"),
        bound_row("grouped_rank", cert.grouped_rank, high=cert.rank_bound,
                  source="literature"),
        Row("pattern_rank", cert.pattern_rank, "-", "derived", INFO),
        check_row("cost_bound_ok", cert.cost_bound_ok, True, "literature"),
        Row("coefficient_attempts", cert.attempts, "<=10", "derived", INFO),
    ]
    return _emit(args, f"nih_{f.name}_{f.n}_{f.k}", rows)


def cmd_probe(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    f = _load_function(args)
    value = nrank_probe(f, args.trials, args.seed)
    rows = [
        Row("probe_min_bracket_lower", value, "evidence-only", "derived", INFO),
        Row("trials", args.trials, "-", "direct", INFO),
        Row("seed", args.seed, "-", "direct", INFO),
    ]
    return _emit(args, f"probe_{f.name}_{f.n}_{f.k}", rows)


def cmd_verify_all(args) -> int:
    instances = GIP_INSTANCES
    if (args.n is None) != (args.k is None):
        raise UsageError("verify-all takes --n and --k together or neither")
    if args.n is not None:
        _gip_function(args.n, args.k)
        instances = ((args.n, args.k),)
    results, rows, ok = run_verify_all(args.seed, instances)
    for res in results:
        print(f"{res.key} {res.title}: {'PASS' if res.passed else 'FAIL'}")
    path = _write_report(args.out, "verify_all", render_tsv(rows))
    print(f"report: {path}")
    if not ok:
        raise CheckFailure("one or more criteria failed")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p, function=True, seed=False, trials=False):
    if function:
        p.add_argument("--function", default="eq", choices=sorted(FAMILIES),
                       help=f"one of {', '.join(sorted(FAMILIES))}")
        p.add_argument("--truth-table", help="load a custom function from a file")
        p.add_argument("--n", type=int, default=1, help="bits per player")
        p.add_argument("--k", type=int, default=3, help="players")
    if seed:
        p.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    if trials:
        p.add_argument("--trials", type=int, default=10)
    p.add_argument("--out", default="reports", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` keeps nothing between calls: every call fills a fresh
    namespace, and no default is a mutable object.
    """
    ap = argparse.ArgumentParser(
        prog="nqtensor",
        description="communication-tensor rank workbench and protocol simulator",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="write canonical tensor and known decomposition")
    _add_common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("rank", help="rank bracket of a tensor")
    _add_common(p)
    p.add_argument("--tsr", help="read the tensor from a .tsr file")
    p.add_argument("--dec", help="optional known decomposition (.dec)")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("unfold", help="write one mode unfolding as .mat")
    _add_common(p)
    p.add_argument("--tsr", help="read the tensor from a .tsr file")
    p.add_argument("--mode", type=int, default=1)
    p.set_defaults(fn=cmd_unfold)

    p = sub.add_parser("gip-cert", help="slice/unfolding certificate for GIP")
    _add_common(p, function=False)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(fn=cmd_gip_cert)

    p = sub.add_parser("protocol", help="SVD protocol commands")
    psub = p.add_subparsers(dest="protocol_cmd", required=True)
    for name, hlp in (("nof", "build the protocol; optionally run one input"),
                      ("sweep", "exhaustive strong-nondeterminism sweep")):
        q = psub.add_parser(name, help=hlp)
        _add_common(q)
        if name == "nof":
            q.add_argument("--input", help="comma-separated input strings as integers")
        q.set_defaults(fn=cmd_protocol)

    p = sub.add_parser("nih-extract", help="NIH extraction certificate")
    _add_common(p, seed=True)
    p.add_argument("--scenario", help="protocol scenario file")
    p.set_defaults(fn=cmd_nih_extract)

    p = sub.add_parser("probe", help="substitution-rank evidence probe")
    _add_common(p, seed=True, trials=True)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    _add_common(p, function=False, seed=True)
    p.add_argument("--n", type=int, default=None,
                   help="restrict the GIP certificate to one instance (with --k)")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CheckFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (UsageError, SizeCapExceeded, OSError) as exc:
        # FormatError and ArityMismatch are UsageErrors; an input file that
        # cannot be read or an input too large to build is one too
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NqtensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
