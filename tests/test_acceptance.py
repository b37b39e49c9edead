"""Acceptance suite: one test per verification criterion.

Each test prints a single PASS/FAIL line for its criterion and then asserts
it.  Criterion 3 asserts the tight GIP bracket 2^n - 1: the lower edge is an
exact unfolding rank, the upper edge the (2^n - 1)-term inclusion-exclusion
witness, which materializes exactly to the 0/1 tensor.  That witness refutes
the summation bound 2^n - 1 + (k-2)(2^(n-1) - 1) and the closed form
(k-1) 2^(n-1) + 1 as lower bounds on nrank(GIP), so both stay in the report
as INFO rows only.  Criterion 4 asserts that seeded random substitutions keep
the mode-1 unfolding rank at 2^n - 1, which holds for generic draws.
"""

import subprocess
import sys

import pytest

from conftest import cli_env
from nqtensor import protocol, verify
from nqtensor.reports import FAIL
from nqtensor.verify import run_verify_all

SEED = 1

# stated wall-clock budgets per criterion, seconds
BUDGETS = {
    "criterion-1": 1.0,
    "criterion-2": 5.0,
    "criterion-3": 30.0,
    "criterion-4": 30.0,
    "criterion-5": 30.0,
    "criterion-6": 5.0,
    "criterion-8": 60.0,
    "criterion-9": 60.0,
}


@pytest.fixture(scope="module")
def suite():
    results, rows, ok = run_verify_all(SEED)
    return {res.key: res for res in results}


def _check(suite, key, expect_pass=True):
    res = suite[key]
    print(f"{key} {res.title}: {'PASS' if res.passed else 'FAIL'}")
    for row in res.rows:
        if row.verdict == FAIL:
            print(f"  {row.quantity}: computed={row.computed} expected={row.expected}")
    budget = BUDGETS.get(key)
    if budget is not None:
        assert res.duration < budget, f"{key} took {res.duration:.1f}s (budget {budget}s)"
    assert res.passed, f"{key} failed"
    return res


def _row_map(res):
    return {r.quantity: r for r in res.rows}


def test_criterion_1_inner_product_rank(suite):
    res = _check(suite, "criterion-1")
    rows = _row_map(res)
    assert rows["ip_rank_n1"].computed == 1
    assert rows["ip_rank_n2"].computed == 3
    assert rows["ip_rank_n3"].computed == 7


def test_criterion_2_eq_bracket(suite):
    res = _check(suite, "criterion-2")
    rows = _row_map(res)
    for n in (1, 2, 3):
        for k in (3, 4):
            assert rows[f"eq_bracket_n{n}_k{k}"].computed == (2 ** n, 2 ** n, True)


def test_criterion_3_gip_certificate(suite):
    # slice ranks match the published values and the rank bracket is tight at
    # 2^n - 1; the summation-form bound is reported as INFO (see module doc)
    res = suite["criterion-3"]
    rows = _row_map(res)
    for (n, k) in ((2, 3), (3, 3), (2, 4)):
        assert rows[f"gip_n{n}_k{k}_rank_T_prime"].computed == 2 ** n - 1
        for i in range(3, k + 1):
            assert rows[f"gip_n{n}_k{k}_rank_T_{i}_prime"].computed == 2 ** (n - 1) - 1
        assert rows[f"gip_n{n}_k{k}_bracket"].computed == (2 ** n - 1, 2 ** n - 1, True)
    _check(suite, "criterion-3")


def test_criterion_4_substitution_robustness(suite):
    _check(suite, "criterion-4")


def test_criterion_5_nof_sweeps(suite):
    res = _check(suite, "criterion-5")
    rows = _row_map(res)
    for tag in ("eq_n2_k4", "hamming_neq1_n3_k3"):
        assert rows[f"{tag}_decisions_ok"].computed is True
        assert rows[f"{tag}_max_reject_probability"].computed <= 1e-12
        assert rows[f"{tag}_max_sim_analytic_gap"].computed <= 1e-9


def test_criterion_5_sweeps_once(monkeypatch):
    # each case decides every input from one sweep, not from a one-input run
    # (which also goes through protocol.sweep_nof) per input
    sweeps = []
    sweep = protocol.sweep_nof

    def counted(p, inputs):
        inputs = tuple(inputs)
        sweeps.append((p.f.name, p.f.n, p.f.k, len(inputs)))
        return sweep(p, inputs)

    monkeypatch.setattr(protocol, "sweep_nof", counted)
    assert verify.criterion_nof_sweeps(SEED).passed
    assert sweeps == [(name, n, k, 2 ** (n * k)) for name, n, k in verify._SWEEP_CASES]


def test_criterion_6_qubit_cost(suite):
    res = _check(suite, "criterion-6")
    rows = _row_map(res)
    assert rows["eq_n1_k3_numerical_rank"].computed == 2
    assert rows["eq_n1_k3_cost_formula"].computed == 2
    assert rows["hamming_neq1_n2_k4_cost_formula"].computed == 3


def test_criterion_7_is_retired(suite):
    # the later criteria keep their keys, so their report rows do not move
    assert list(suite) == [f"criterion-{i}" for i in (1, 2, 3, 4, 5, 6, 8, 9, 10)]


def test_criterion_8_branch_fidelity(suite):
    res = _check(suite, "criterion-8")
    rows = _row_map(res)
    assert rows["random_protocols_run"].computed == 200
    assert rows["branch_vs_dense_max_gap"].computed <= 1e-9
    assert rows["branch_norm_max_drift"].computed <= 1e-9


def test_criterion_9_nih_certificate(suite):
    res = _check(suite, "criterion-9")
    rows = _row_map(res)
    for n in (1, 2):
        assert rows[f"eq_n{n}_relay_pattern_ok"].computed is True
        assert rows[f"eq_n{n}_relay_coefficient_successes_of_20"].computed >= 18


def test_criterion_9_sweeps_once(monkeypatch):
    # one premise sweep per relay size, over 2^3 and 4^3 inputs; the 20-seed
    # coefficient search reuses that sweep's families
    sweeps = []
    sweep = protocol.sweep_branches

    def counted(spec, inputs):
        simulated = []
        sweeps.append(simulated)

        def recorded():
            for xs in inputs:
                simulated.append(xs)
                yield xs

        return sweep(spec, recorded())

    monkeypatch.setattr(protocol, "sweep_branches", counted)
    assert verify.criterion_nih_certificate(SEED).passed
    assert [len(s) for s in sweeps] == [8, 64]


def test_criterion_10_determinism(suite):
    _check(suite, "criterion-10")


def test_criterion_10_determinism_end_to_end(tmp_path):
    # two fresh CLI runs with the same master seed: byte-identical reports
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "nqtensor", "verify-all", "--seed", str(SEED),
             "--out", str(out)],
            capture_output=True, text=True, env=cli_env(),
        )
        assert res.returncode == 0, res.stderr
        outs.append((out / "verify_all.tsv").read_bytes())
    assert outs[0] == outs[1]
