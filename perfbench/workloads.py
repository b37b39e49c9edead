"""The benchmark's workloads: a fixed list of operations per workload, built
from a seed, each with the value its output must have.

Expected values come from the paper's closed forms, never from an earlier
run of the program:

* ``eq`` on k players with n bits: rank bracket ``(2^n, 2^n, tight)``; the
  superdiagonal witness has ``2^n`` terms, so the NOF protocol costs
  ``ceil(log2 2^n) + 1 = n + 1`` qubits.
* ``gip``: the slice ``T'`` has rank ``2^n - 1`` and each ``T_i'`` has rank
  ``2^(n-1) - 1``.  Every unfolding of the 0/1 tensor, and of every random
  substitution of it, has rank ``2^n - 1``: the row of the all-zero string
  vanishes, and the other rows are ``1 - chi_s`` for distinct characters.
* ``hamming_neq1``: the witness has ``n + 1`` linearly independent terms, so
  the NOF protocol has numerical rank ``n + 1``.
* NIH extraction of an ``ell``-turn protocol: the grouped matrix matches the
  function's pattern and has rank at most ``2^(ell-1)``.  The equality relay
  takes ``4n + 1`` turns.
* Branch-form and dense simulation give the same statevector.

Two operations fail at this commit because of known defects in the program;
they are kept, marked ``known_defect``, and counted as failures.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library calls go through the module objects, so that the tracer's
# rebinding of the module attributes reaches them.
from nqtensor import cli, protocol
from nqtensor.functions import constant

# Largest tolerated gap between the branch-form and dense statevectors.
FIDELITY_TOL = 1e-9


@dataclass
class Outcome:
    text: str  # the report the operation produced; must repeat byte for byte
    value: object  # what the check inspects


@dataclass
class Op:
    name: str
    kind: str  # "cli" or "api"
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list]  # -> list of problems, empty when correct
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# Operation builders
# ---------------------------------------------------------------------------


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return Outcome(out.getvalue(), (rc, out.getvalue(), err.getvalue()))


def _tsv_rows(text):
    rows = {}
    for line in text.splitlines()[1:]:
        fields = line.split("\t")
        if len(fields) == 5:
            rows[fields[0]] = fields[1]
    return rows


def cli_op(name, argv, out_dir, expect, known_defect=None):
    """A CLI command that must exit 0 and print the rows in ``expect``.

    ``expect`` maps a report quantity to its expected computed value, as a
    string or as a predicate on the string.
    """
    argv = [str(a) for a in argv] + ["--out", out_dir]

    def check(outcome):
        rc, out, err = outcome.value
        if rc != 0:
            return [f"exit {rc}: {err.strip()[:200]}"]
        rows = _tsv_rows(out)
        problems = []
        for quantity, want in expect.items():
            got = rows.get(quantity)
            ok = got is not None and (want(got) if callable(want) else got == str(want))
            if not ok:
                shown = "predicate" if callable(want) else want
                problems.append(f"{quantity}={got} expected {shown}")
        return problems

    return Op(name, "cli", lambda: _run_cli(argv), check, known_defect)


def _at_most(bound):
    return lambda s: int(s) <= bound


# ---------------------------------------------------------------------------
# rank_certify: exact rank of dense Gaussian-integer matrices
# ---------------------------------------------------------------------------


def rank_certify(rng, out_dir):
    ops = []
    for n, k, trials in ((3, 3, 3), (3, 3, 3), (2, 4, 8), (2, 4, 8)):
        seed = rng.randrange(1, 2 ** 31)
        ops.append(cli_op(
            f"probe_gip_n{n}_k{k}_s{seed}",
            ["probe", "--function", "gip", "--n", n, "--k", k,
             "--trials", trials, "--seed", seed],
            out_dir, {"probe_min_bracket_lower": 2 ** n - 1}))
    for n, k in ((3, 3), (2, 4), (3, 4)):
        expect = {
            "rank_T_prime": 2 ** n - 1,
            "combined_mode1_rank": 2 ** n - 1,
            "summation_bound": (2 ** n - 1) + (k - 2) * (2 ** (n - 1) - 1),
            "closed_form_bound": (k - 1) * 2 ** (n - 1) + 1,
        }
        for i in range(3, k + 1):
            expect[f"rank_T_{i}_prime"] = 2 ** (n - 1) - 1
        ops.append(cli_op(f"gip_cert_n{n}_k{k}", ["gip-cert", "--n", n, "--k", k],
                          out_dir, expect))
    for n, k in ((3, 3), (2, 4)):
        for mode in range(1, k + 1):
            ops.append(cli_op(
                f"unfold_gip_n{n}_k{k}_mode{mode}",
                ["unfold", "--function", "gip", "--n", n, "--k", k, "--mode", mode],
                out_dir,
                {"unfolding_rank": 2 ** n - 1,
                 "unfolding_shape": f"{2 ** n}x{2 ** (n * (k - 1))}"}))
        ops.append(cli_op(
            f"rank_gip_n{n}_k{k}", ["rank", "--function", "gip", "--n", n, "--k", k],
            out_dir,
            {"bracket_lower": 2 ** n - 1, "bracket_upper": 2 ** (n * (k - 1)),
             "bracket_tight": "false"}))
    return ops


# ---------------------------------------------------------------------------
# nof_witness: witness materialization, SVD protocol, .tsr/.dec round trip
# ---------------------------------------------------------------------------


def _eq(xs):
    return all(x == xs[0] for x in xs)


def _hamming_neq1(n, xs):
    acc = (1 << n) - 1
    for x in xs:
        acc &= x
    return bin(acc).count("1") != 1


def _nof_cost(name, n):
    """(numerical rank, qubit cost) of the SVD protocol of the witness."""
    r = 2 ** n if name == "eq" else n + 1
    return r, math.ceil(math.log2(r)) + 1


def _draw_input(rng, n, k, equal):
    if equal:
        return (rng.randrange(2 ** n),) * k
    return tuple(rng.randrange(2 ** n) for _ in range(k))


def nof_witness(rng, out_dir):
    ops = []
    eq_bracket = lambda n: {"bracket_lower": 2 ** n, "bracket_upper": 2 ** n,
                            "bracket_tight": "true"}
    for k in (3, 4):
        ops.append(cli_op(f"rank_eq_n3_k{k}",
                          ["rank", "--function", "eq", "--n", 3, "--k", k],
                          out_dir, eq_bracket(3)))
    ops.append(cli_op("build_eq_n3_k3", ["build", "--function", "eq", "--n", 3, "--k", 3],
                      out_dir, {"decomposition_terms": 8}))
    ops.append(cli_op(
        "rank_tsr_dec_eq_n3_k3",
        ["rank", "--tsr", os.path.join(out_dir, "eq_3_3.tsr"),
         "--dec", os.path.join(out_dir, "eq_3_3.dec")],
        out_dir, eq_bracket(3)))
    for name in ("eq", "hamming_neq1"):
        for n, k in ((3, 3), (2, 4)):
            r, cost = _nof_cost(name, n)
            ops.append(cli_op(
                f"sweep_{name}_n{n}_k{k}",
                ["protocol", "sweep", "--function", name, "--n", n, "--k", k],
                out_dir,
                {"sweep_decisions_ok": "true", "sweep_inputs": 2 ** (n * k),
                 "numerical_rank": r, "qubit_cost": cost}))
    # Single NOF queries on seeded inputs; half are 1-inputs of equality.
    queries = [("eq", 3, 3)] * 2 + [("eq", 2, 4)] * 4 + [("eq", 2, 3)] * 8 \
        + [("hamming_neq1", 2, 3)] * 6
    for i, (name, n, k) in enumerate(queries):
        xs = _draw_input(rng, n, k, equal=(name == "eq" and i % 2 == 0))
        value = _eq(xs) if name == "eq" else _hamming_neq1(n, xs)
        r, cost = _nof_cost(name, n)
        text = ",".join(str(x) for x in xs)
        ops.append(cli_op(
            f"nof_{name}_n{n}_k{k}_{'_'.join(map(str, xs))}",
            ["protocol", "nof", "--function", name, "--n", n, "--k", k, "--input", text],
            out_dir,
            {"input": text, "accepted": "true" if value else "false", "qubit_cost": cost}))
    n = 2
    ops.append(cli_op(
        f"rank_hamming_neq1_n{n}_k3",
        ["rank", "--function", "hamming_neq1", "--n", n, "--k", 3],
        out_dir,
        {"bracket_upper": _at_most(n + 1)},
        known_defect="rank brackets the 0/1 tensor against a witness that "
                     "materializes to |AND|-1 and exits 1 (DecompositionMismatch)"))
    return ops


# ---------------------------------------------------------------------------
# nih_relay: branch simulation and the NIH extraction certificate
# ---------------------------------------------------------------------------


def _relay_scenario(rng, n):
    """The equality relay with its 2n write/store pairs in a seeded order."""
    pairs = [(1, j, j) for j in range(1, n + 1)] + [(2, j, n + j) for j in range(1, n + 1)]
    rng.shuffle(pairs)
    lines = ["mode nih", "players 3", f"bits {n}", f"dims 2 2 {4 ** n}"]
    for player, bit, slot in pairs:
        lines.append(f"turn {player} write-bit {bit}")
        lines.append(f"turn 3 store {slot}")
    lines.append("turn 3 compare-and-flag")
    return "\n".join(lines) + "\n", 4 * n + 1


def _nih_expect(ell):
    return {"turns": ell, "pattern_ok": "true", "grouped_rank": _at_most(2 ** (ell - 1))}


def _fidelity_op(name, spec, xs):
    def run():
        gap = float(np.max(np.abs(protocol.simulate_branches(spec, xs).recontract()
                                  - protocol.simulate_dense(spec, xs))))
        return Outcome(f"max_gap\t{gap!r}\n", gap)

    return Op(name, "api", run,
              lambda o: [] if o.value <= FIDELITY_TOL else [f"gap {o.value!r}"])


def _defect_case(rng_seed):
    spec = protocol.random_protocol(3, k=2, ell=2, mode="nih", n=3)
    f = constant(3, 2, 1)

    def run():
        cert = protocol.nih_rank_certificate(spec, f, rng_seed=rng_seed)
        return Outcome(f"{cert!r}\n", cert)

    def check(o):
        problems = [] if o.value.pattern_ok else ["pattern_ok false"]
        if o.value.grouped_rank > 2 ** (spec.ell - 1):
            problems.append(f"grouped_rank {o.value.grouped_rank} > {2 ** (spec.ell - 1)}")
        return problems

    return Op(f"nih_random_protocol_const1_s{rng_seed}", "api", run, check,
              known_defect="exact rank of a rationalized float grouped matrix "
                           "counts rounding noise (grouped_rank 8 > 2)")


def nih_relay(rng, out_dir):
    ops = []
    for n in (1, 1, 1, 1, 2):
        seed = rng.randrange(1, 2 ** 31)
        ops.append(cli_op(f"nih_eq_n{n}_s{seed}",
                          ["nih-extract", "--function", "eq", "--n", n, "--k", 3,
                           "--seed", seed],
                          out_dir, _nih_expect(4 * n + 1)))
    for n, k in ((1, 2), (1, 3), (2, 2), (2, 3)):
        seed = rng.randrange(1, 2 ** 31)
        ops.append(cli_op(f"nih_const1_n{n}_k{k}",
                          ["nih-extract", "--function", "const1", "--n", n, "--k", k,
                           "--seed", seed],
                          out_dir, _nih_expect(1)))
    text, ell = _relay_scenario(rng, 1)
    path = os.path.join(out_dir, "relay_n1.scn")
    with open(path, "w") as fh:
        fh.write(text)
    for _ in range(4):
        seed = rng.randrange(1, 2 ** 31)
        ops.append(cli_op(f"nih_scenario_relay_n1_s{seed}",
                          ["nih-extract", "--scenario", path, "--function", "eq",
                           "--n", 1, "--k", 3, "--seed", seed],
                          out_dir, _nih_expect(ell)))
    relay = protocol.trivial_eq_relay_spec(2)
    for i in range(8):
        xs = _draw_input(rng, 2, 3, equal=(i % 2 == 0))
        ops.append(_fidelity_op(f"fidelity_relay_n2_{'_'.join(map(str, xs))}", relay, xs))
    for _ in range(8):
        master = rng.randrange(2 ** 32)
        spec = protocol.random_protocol(master, k=3, ell=6, mode="nih", n=1)
        xs = _draw_input(rng, 1, 3, equal=False)
        ops.append(_fidelity_op(f"fidelity_random_{master}", spec, xs))
    ops.append(_defect_case(rng.randrange(1, 2 ** 31)))
    return ops


def build(name, seed, out_dir):
    """The operation list of workload ``name`` for ``seed``; writes its inputs."""
    builders = {"rank_certify": rank_certify, "nof_witness": nof_witness,
                "nih_relay": nih_relay}
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return builders[name](rng, out_dir)
