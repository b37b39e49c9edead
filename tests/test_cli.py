import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env, read_mat
from nqtensor import cli, functions, verify
from nqtensor.functions import FAMILIES
from nqtensor.reports import FAIL, Row
from nqtensor.tensor_core import read_dec, read_tsr
from nqtensor.verify import CriterionResult

GOLDEN = Path(__file__).parent / "golden" / "out"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "nqtensor", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def test_build_eq_writes_tensor_and_decomposition(tmp_path):
    out = tmp_path / "o"
    res = run_cli("build", "--function", "eq", "--n", "1", "--k", "3",
                  "--out", str(out))
    assert res.returncode == 0
    t = read_tsr(out / "eq_1_3.tsr")
    assert t.dims == (2, 2, 2)
    d = read_dec(out / "eq_1_3.dec")
    assert d.term_count == 2
    assert "decomposition_terms\t2" in res.stdout


def test_rank_command_roundtrips_files(tmp_path):
    out = tmp_path / "o"
    run_cli("build", "--function", "eq", "--n", "1", "--k", "3", "--out", str(out))
    res = run_cli("rank", "--tsr", str(out / "eq_1_3.tsr"),
                  "--dec", str(out / "eq_1_3.dec"), "--out", str(out))
    assert res.returncode == 0
    assert "bracket_lower\t2" in res.stdout
    assert "bracket_upper\t2" in res.stdout
    assert "bracket_tight\ttrue" in res.stdout


def test_rank_hamming_brackets_nondet_tensor(tmp_path):
    res = run_cli("rank", "--function", "hamming_neq1", "--n", "2", "--k", "3",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "tensor\tnondet_witness\t-\tdirect\tINFO" in res.stdout
    assert "bracket_lower\t3" in res.stdout
    assert "bracket_upper\t3" in res.stdout
    assert "bracket_tight\ttrue" in res.stdout


def test_rank_hamming_roundtrips_files(tmp_path):
    out = tmp_path / "o"
    built = run_cli("build", "--function", "hamming_neq1", "--n", "2", "--k", "3",
                    "--out", str(out))
    assert built.returncode == 0
    assert "tensor\tnondet_witness" in built.stdout
    res = run_cli("rank", "--tsr", str(out / "hamming_neq1_2_3.tsr"),
                  "--dec", str(out / "hamming_neq1_2_3.dec"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "bracket_lower\t3" in res.stdout
    assert "bracket_upper\t3" in res.stdout
    assert "bracket_tight\ttrue" in res.stdout


@pytest.mark.parametrize("name, labelled", [("hamming_neq1", True), ("eq", False)])
def test_tsr_reports_label_the_tensor_by_its_entries(tmp_path, capsys, name, labelled):
    # the tensor row follows what the .tsr holds, as it does for --function
    row = "tensor\tnondet_witness\t-\tdirect\tINFO\n"
    assert cli.main(["build", "--function", name, "--n", "2", "--k", "3",
                     "--out", str(tmp_path)]) == 0
    assert (row in capsys.readouterr().out) == labelled
    tsr = str(tmp_path / f"{name}_2_3.tsr")
    for command in (["rank", "--tsr", tsr], ["unfold", "--tsr", tsr, "--mode", "2"]):
        assert cli.main([*command, "--out", str(tmp_path / "r")]) == 0
        assert (row in capsys.readouterr().out) == labelled


def test_unfold_writes_mat(tmp_path):
    out = tmp_path / "o"
    res = run_cli("unfold", "--function", "gip", "--n", "2", "--k", "3",
                  "--mode", "1", "--out", str(out))
    assert res.returncode == 0
    m = read_mat(out / "gip_2_3_mode1.mat")
    assert (m.rows, m.cols) == (4, 16)
    assert "unfolding_rank\t3" in res.stdout


def _report(path):
    """``{quantity: computed}`` of a TSV report."""
    return dict(line.split("\t")[:2] for line in path.read_text().splitlines()[1:])


@pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (2, 4)])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_build_rank_and_unfold_see_one_tensor(tmp_path, capsys, name, n, k):
    # unfold --function unfolds the tensor build writes, and a tight rank
    # bracket is the largest of its unfolding ranks
    stem, flags = f"{name}_{n}_{k}", ["--function", name, "--n", str(n), "--k", str(k)]
    assert cli.main(["build", *flags, "--out", str(tmp_path / "b")]) == 0
    assert cli.main(["rank", *flags, "--out", str(tmp_path / "r")]) == 0
    ranks = []
    for mode in range(1, k + 1):
        m = ["--mode", str(mode)]
        assert cli.main(["unfold", *flags, *m, "--out", str(tmp_path / "f")]) == 0
        assert cli.main(["unfold", "--tsr", str(tmp_path / "b" / f"{stem}.tsr"), *m,
                         "--out", str(tmp_path / "t")]) == 0
        mat = f"{stem}_mode{mode}.mat"
        assert (tmp_path / "f" / mat).read_bytes() == (tmp_path / "t" / mat).read_bytes()
        report = _report(tmp_path / "f" / f"unfold_{stem}_mode{mode}.tsv")
        ranks.append(int(report["unfolding_rank"]))
    bracket = _report(tmp_path / "r" / f"rank_{stem}.tsv")
    if bracket["bracket_tight"] == "true":
        assert int(bracket["bracket_lower"]) == max(ranks)


def test_unfold_builds_no_witness(tmp_path, capsys, monkeypatch):
    def refuse(n, k):
        raise AssertionError("unfold built a witness")

    for name in ("eq_nondet_decomposition", "hamming_nondet_decomposition"):
        monkeypatch.setattr(functions, name, refuse)
    for name in ("eq", "hamming_neq1"):
        assert cli.main(["unfold", "--function", name, "--n", "2", "--k", "3",
                         "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("name, command", [
    ("equality", ["protocol", "sweep", "--function", "eq", "--n", "2", "--k", "4"]),
    ("gip", ["probe", "--function", "gip", "--n", "2", "--k", "4", "--trials", "8"]),
])
def test_command_evaluates_its_function_once_per_input(tmp_path, monkeypatch, name, command):
    # the sweep's tensor, pattern check and acceptance check, and every
    # probe trial, read one table of 4^4 = 256 inputs
    calls = []
    build = getattr(functions, name)

    def counting(n, k):
        f = build(n, k)
        return functions.BooleanFunction(
            f.name, n, k, lambda xs: calls.append(xs) or f._eval(xs))

    monkeypatch.setattr(functions, name, counting)
    assert cli.main([*command, "--out", str(tmp_path)]) == 0
    assert len(calls) == 256


def test_gip_cert_command(tmp_path):
    res = run_cli("gip-cert", "--n", "2", "--k", "3", "--out", str(tmp_path))
    assert res.returncode == 0  # asserted slice-rank rows pass
    assert "rank_T_prime\t3\t3\tliterature\tPASS" in res.stdout
    assert "summation_bound\t4" in res.stdout
    assert "holds_summation\tfalse" in res.stdout


def test_gip_cert_degenerate_n_is_skip(tmp_path):
    res = run_cli("gip-cert", "--n", "1", "--k", "3", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "SKIP" in res.stdout


def test_protocol_sweep_hamming(tmp_path):
    res = run_cli("protocol", "sweep", "--function", "hamming_neq1",
                  "--n", "2", "--k", "3", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "qubit_cost\t3\t3\tliterature\tPASS" in res.stdout
    assert "sweep_decisions_ok\ttrue" in res.stdout


def test_protocol_single_input(tmp_path):
    res = run_cli("protocol", "nof", "--function", "eq", "--n", "1", "--k", "3",
                  "--input", "0,1,0", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "accepted\tfalse\tfalse\tderived\tPASS" in res.stdout


def test_protocol_sweep_takes_no_input(tmp_path):
    res = run_cli("protocol", "sweep", "--function", "eq", "--n", "1", "--k", "3",
                  "--input", "0,1,0", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "--input" in res.stderr


def test_protocol_sweep_without_one_inputs_skips_min_accept(tmp_path, capsys):
    assert cli.main(["protocol", "sweep", "--function", "const0", "--n", "1", "--k", "3",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "min_accept_probability\t-\t>=1e-09\tderived\tSKIP\n" in out
    assert "sweep_decisions_ok\ttrue\ttrue\tderived\tPASS\n" in out


def test_protocol_sweep_runs_on_functions_without_a_witness(tmp_path, capsys):
    tt = tmp_path / "xnor.tt"
    tt.write_text("".join(f"{x} {y} {int(x == y)}\n" for x in range(2) for y in range(2)))
    for flags in (["--function", "const1", "--n", "1", "--k", "3"],
                  ["--function", "gip", "--n", "2", "--k", "3"],
                  ["--truth-table", str(tt)]):
        assert cli.main(["protocol", "sweep", *flags, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep_decisions_ok\ttrue\ttrue\tderived\tPASS\n" in out
        assert "FAIL" not in out


def test_protocol_checks_size_cap_on_the_svd_factors(tmp_path, monkeypatch, capsys):
    # eq (2, 3) has 64 entries, but its 16 x 4 grouped matrix has a 16 x 16
    # left factor
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "128")
    assert cli.main(["protocol", "sweep", "--function", "eq", "--n", "2", "--k", "3",
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "usage error: 256 entries exceed cap 128\n"


def _write_table(path, value):
    path.write_text("".join(f"{x} {y} {z} {value(x, y, z)}\n"
                            for x in range(2) for y in range(2) for z in range(2)))


def test_truth_table_function_is_named_after_its_file(tmp_path, capsys):
    _write_table(tmp_path / "xor.tt", lambda x, y, z: x ^ y ^ z)
    _write_table(tmp_path / "xnor.tt", lambda x, y, z: 1 - (x ^ y ^ z))
    out = tmp_path / "o"
    for stem in ("xor", "xnor"):
        for command in ("rank", "build"):
            assert cli.main([command, "--truth-table", str(tmp_path / f"{stem}.tt"),
                             "--out", str(out)]) == 0
        assert cli.main(["protocol", "sweep", "--truth-table", str(tmp_path / f"{stem}.tt"),
                         "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == [
        "build_xnor_1_3.tsv", "build_xor_1_3.tsv", "nof_xnor_1_3_sweep.tsv",
        "nof_xor_1_3_sweep.tsv", "rank_xnor_1_3.tsv", "rank_xor_1_3.tsv",
        "xnor_1_3.tsr", "xor_1_3.tsr"]
    assert read_tsr(out / "xor_1_3.tsr") != read_tsr(out / "xnor_1_3.tsr")


def test_truth_table_named_like_a_family_is_read_from_its_file(tmp_path, capsys):
    # the file's 0/1 tensor, not the family's registered tensor and witness
    tt = tmp_path / "hamming_neq1.tt"
    _write_table(tt, lambda x, y, z: int(x == y == z))
    out = tmp_path / "o"
    assert cli.main(["build", "--truth-table", str(tt), "--out", str(out)]) == 0
    f = functions.load_truth_table(tt)
    assert read_tsr(out / "hamming_neq1_1_3.tsr") == functions.canonical_tensor(f)
    assert not (out / "hamming_neq1_1_3.dec").exists()
    assert cli.main(["protocol", "sweep", "--truth-table", str(tt), "--out", str(out)]) == 0
    assert "sweep_decisions_ok\ttrue\ttrue\tderived\tPASS\n" in capsys.readouterr().out


def test_nih_extract_builtin_relay(tmp_path):
    res = run_cli("nih-extract", "--function", "eq", "--n", "1", "--k", "3",
                  "--seed", "7", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "pattern_ok\ttrue" in res.stdout
    assert "grouped_rank\t2\t<=16" in res.stdout


def test_probe_deterministic(tmp_path):
    args = ("probe", "--function", "eq", "--n", "1", "--k", "3",
            "--trials", "10", "--seed", "1", "--out", str(tmp_path))
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "probe_min_bracket_lower\t2" in a.stdout


def test_corrupted_tsr_is_usage_error(tmp_path):
    bad = tmp_path / "bad.tsr"
    bad.write_text("order 3\n2 2 2\n0 0 0 oops\n")
    res = run_cli("rank", "--tsr", str(bad), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_malformed_dec_is_usage_error(tmp_path):
    tsr = tmp_path / "t.tsr"
    tsr.write_text("order 3\n2 2 2\n0 0 0 1/1 0/1\n")
    dec = tmp_path / "bad.dec"
    dec.write_text("3 2 2 2 1\n1/1+0/1i 0/1+0/1i 0/1+0/1i\n"
                   "1/1+0/1i 0/1+0/1i\n1/1+0/1i 0/1+0/1i\n")
    res = run_cli("rank", "--tsr", str(tsr), "--dec", str(dec), "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith("usage error: line 2: vector length 3")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("tsr, dec, line", [
    # a repeated index would overwrite the first entry
    ("order 2\n2 2\n0 0 1/1 0/1\n0 0 2/1 0/1\n", None, 4),
    ("order 3\n2 2 2\n0 0 0 1/1 0/1\n", "3 2 2 2 -1\n", 1),
    # the 2-term eq (1, 3) witness, then a blank line and one more vector
    ("order 3\n2 2 2\n0 0 0 1/1 0/1\n1 1 1 1/1 0/1\n",
     "3 2 2 2 2\n" + "1/1+0/1i 0/1+0/1i\n" * 3 + "0/1+0/1i 1/1+0/1i\n" * 3
     + "\n1/1+0/1i 0/1+0/1i\n", 9),
], ids=["tsr-duplicate-index", "dec-negative-term-count", "dec-line-after-blocks"])
def test_malformed_tsr_or_dec_names_its_line(tmp_path, capsys, tsr, dec, line):
    args = ["rank", "--tsr", str(tmp_path / "t.tsr"), "--out", str(tmp_path)]
    (tmp_path / "t.tsr").write_text(tsr)
    if dec is not None:
        (tmp_path / "t.dec").write_text(dec)
        args += ["--dec", str(tmp_path / "t.dec")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith(f"usage error: line {line}: ")


@pytest.mark.parametrize("mode, dims, turn, line", [
    ("nih", "dims 0 2", "turn 1 flip-channel", 4),
    ("nih", "dims -1 2", "turn 1 flip-channel", 4),
    ("nih", "dims 2 2", "turn 1 store 0", 5),
    ("nih", "dims 2 2", "turn 1 cnot-channel 0", 5),
    ("nih", "dims 2 2", "turn 1 matrix 1+0i 0+0i ; 1+0i", 5),
    ("nih", "dims 3 2", "turn 1 store 1", 5),
    ("nih", "dims 2 2", "turn 1 store 3", 5),
    ("nih", "dims 2 2", "turn 1 write-bit 2", 5),
    ("nih", "dims 2 2", "turn 1 compare-and-flag", 5),
    # a control qubit the player does not have
    ("nih", "dims 2 2", "turn 1 cnot-channel 2", 5),
    ("nih", "dims 2 2 2", "turn 1 flip-channel", 4),
    # write-bit reads the player's own input, which a NOF player cannot see
    ("nof", "dims 2 2", "turn 1 write-bit 1", 5),
    # a directive other than turn may appear once; the repeat is rejected
    ("nih\nmode nof", "dims 2 2", "turn 1 flip-channel", 2),
    ("nih", "dims 2 2\n# again\ndims 2 2", "turn 1 flip-channel", 6),
    # all ones: every entry of U^H U is 4, a unitarity defect of 4
    ("nih", "dims 2 2", "turn 1 matrix " + " ; ".join(["1+0i 1+0i 1+0i 1+0i"] * 4), 5),
    # a generator that takes no argument rejects a stray token
    ("nih", "dims 2 2", "turn 1 flip-channel 7 junk", 5),
    ("nih", "dims 2 4", "turn 2 compare-and-flag 1 2 3", 5),
], ids=["zero-dim", "negative-dim", "store-slot-0", "cnot-slot-0", "ragged-matrix",
        "store-on-dim-3", "store-slot-3", "write-bit-2", "compare-and-flag-dim-2",
        "cnot-slot-2", "dims-count", "nih-only-generator-in-nof", "repeated-mode",
        "repeated-dims", "non-unitary-matrix", "flip-channel-argument",
        "compare-and-flag-argument"])
def test_malformed_scenario_names_its_line(tmp_path, capsys, mode, dims, turn, line):
    scn = tmp_path / "s.scn"
    scn.write_text(f"mode {mode}\nplayers 2\nbits 1\n{dims}\n{turn}\n")
    assert cli.main(["nih-extract", "--scenario", str(scn), "--function", "const1",
                     "--n", "1", "--k", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: line {line}: ")


def test_scenario_shape_disagreeing_with_function_is_usage_error(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("mode nih\nplayers 2\nbits 1\ndims 2 2\nturn 1 flip-channel\n")
    assert cli.main(["nih-extract", "--scenario", str(scn), "--function", "const1",
                     "--n", "2", "--k", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "players 2, bits 1" in err and "k 2, n 2" in err


def test_nih_extract_nof_scenario_is_usage_error(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("mode nof\nplayers 2\nbits 1\ndims 2 2\nturn 1 flip-channel\n")
    assert cli.main(["nih-extract", "--scenario", str(scn), "--function", "const1",
                     "--n", "1", "--k", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: scenario mode is nof")


@pytest.mark.parametrize("function, message", [
    # 4 x 16 inputs x (2 x 4) player dims = 512 family entries
    ("const1", "512 entries exceed cap 256"),
    # the 32 x 32 store unitary of player 3 (dim 16)
    ("eq", "1024 entries exceed cap 256"),
])
def test_nih_extract_over_size_cap_is_usage_error(tmp_path, capsys, monkeypatch,
                                                  function, message):
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "256")
    assert cli.main(["nih-extract", "--function", function, "--n", "2", "--k", "3",
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_unknown_function_is_usage_error(tmp_path):
    res = run_cli("build", "--function", "nope", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("cap, message", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be positive, got '0'"),
])
def test_bad_size_cap_is_usage_error(tmp_path, cap, message):
    res = subprocess.run(
        [sys.executable, "-m", "nqtensor", "rank", "--function", "eq", "--n", "1",
         "--k", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**cli_env(), "NQTENSOR_SIZE_CAP": cap},
    )
    assert res.returncode == 2
    assert res.stderr == f"usage error: NQTENSOR_SIZE_CAP {message}\n"


@pytest.mark.parametrize("args", [
    ("probe", "--trials", "0"),
    ("unfold", "--function", "eq", "--n", "1", "--k", "3", "--mode", "0"),
    ("unfold", "--function", "eq", "--n", "1", "--k", "3", "--mode", "4"),
])
def test_out_of_range_option_is_usage_error(tmp_path, args):
    res = run_cli(*args, "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith("usage error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ("build", "--n", "0"),
    ("build", "--k", "1"),
    ("nih-extract", "--function", "eq", "--n", "0"),
    ("protocol", "nof", "--function", "eq", "--n", "1", "--k", "3", "--input", "1,1,2"),
    ("protocol", "nof", "--function", "eq", "--n", "1", "--k", "3", "--input", "0,-1,0"),
    ("protocol", "nof", "--function", "eq", "--n", "1", "--k", "3", "--input", "1,a,1"),
    ("rank", "--dec", "missing.dec"),
    ("nih-extract", "--function", "eq", "--n", "1", "--k", "4"),
    ("gip-cert", "--k", "2"),
    ("verify-all", "--n", "2", "--k", "2"),
    ("verify-all", "--n", "3"),
    ("verify-all", "--k", "4"),
    ("rank", "--tsr", "missing.tsr"),
    ("rank", "--function", "eq", "--n", "9", "--k", "3"),
    ("protocol", "nof", "--function", "eq", "--n", "1", "--k", "3", "--input", "1,1"),
])
def test_bad_arity_range_or_file_is_usage_error(tmp_path, args):
    res = run_cli(*args, "--out", str(tmp_path), cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("usage error: ")
    assert "Traceback" not in res.stderr


def test_verify_all_exit_code_reflects_failing_criteria(tmp_path, monkeypatch, capsys):
    # one failing criterion is enough for verify-all to exit 1
    failing = CriterionResult("criterion-1", "inner-product matrix rank",
                              (Row("ip_rank_n1", 0, 1, "literature", FAIL),), False)
    monkeypatch.setattr(verify, "criterion_ip_rank", lambda seed: failing)
    assert cli.main(["verify-all", "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "criterion-1 inner-product matrix rank: FAIL" in capsys.readouterr().out
    assert (tmp_path / "verify_all.tsv").exists()


def test_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once; each parse still starts from the defaults
    out = tmp_path / "o"
    assert cli.main(["build", "--function", "eq", "--n", "1", "--k", "3",
                     "--out", str(tmp_path)]) == 0
    for ext in ("tsr", "dec"):
        (tmp_path / f"eq_1_3.{ext}").rename(tmp_path / f"first.{ext}")
    assert cli.main(["rank", "--tsr", str(tmp_path / "first.tsr"), "--dec",
                     str(tmp_path / "first.dec"), "--out", str(out)]) == 0
    assert cli.main(["rank", "--function", "hamming_neq1", "--n", "2",
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["rank_first.tsv",
                                                     "rank_hamming_neq1_2_3.tsv"]
    golden = (GOLDEN / "rank_hamming_neq1_2_3.tsv").read_text()
    assert (out / "rank_hamming_neq1_2_3.tsv").read_text() == golden
    assert capsys.readouterr().out.endswith(golden)
    assert cli.build_parser() is cli.build_parser()
    args = cli.build_parser().parse_args(["rank", "--function", "eq"])
    assert (args.tsr, args.dec, args.n, args.k) == (None, None, 1, 3)


def test_rank_from_truth_table(tmp_path):
    lines = []
    for x in range(2):
        for y in range(2):
            lines.append(f"{x} {y} {1 if x == y else 0}")
    tt = tmp_path / "eq.tt"
    tt.write_text("\n".join(lines) + "\n")
    res = run_cli("rank", "--truth-table", str(tt), "--out", str(tmp_path))
    assert res.returncode == 0
    assert "bracket_lower\t2" in res.stdout


def test_nih_extract_from_scenario(tmp_path):
    scn = tmp_path / "relay.scn"
    scn.write_text(
        "mode nih\nplayers 3\nbits 1\ndims 2 2 4\n"
        "turn 1 write-bit 1\nturn 3 store 1\n"
        "turn 2 write-bit 1\nturn 3 store 2\n"
        "turn 3 compare-and-flag\n"
    )
    res = run_cli("nih-extract", "--function", "eq", "--n", "1", "--k", "3",
                  "--scenario", str(scn), "--seed", "7", "--out", str(tmp_path))
    assert res.returncode == 0
    assert "pattern_ok\ttrue" in res.stdout


def test_nih_extract_nan_unitary_is_error(tmp_path):
    # a NaN literal has a NaN unitarity defect, which is not within tolerance
    scn = tmp_path / "nan.scn"
    nan_rows = " ; ".join(" ".join(["nan+0i"] * 4) for _ in range(4))
    scn.write_text(f"mode nih\nplayers 2\nbits 1\ndims 2 2\nturn 1 matrix {nan_rows}\n")
    res = run_cli("nih-extract", "--scenario", str(scn), "--function", "const0",
                  "--n", "1", "--k", "2", "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith("usage error: line 5: literal has unitarity defect nan")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("text, message", [
    ("players 2 3\n", "line 1: players takes exactly one integer"),
    ("mode nih\nplayers 2\nbits 1 2\n", "line 3: bits takes exactly one integer"),
    ("mode nih\nplayers 2\nbits 1\ndims 2 2\nturn 1 store 1 2\n",
     "line 5: generator takes exactly one integer argument"),
], ids=["players", "bits", "generator"])
def test_one_integer_message_names_its_directive(tmp_path, capsys, text, message):
    scn = tmp_path / "s.scn"
    scn.write_text(text)
    assert cli.main(["nih-extract", "--scenario", str(scn), "--function", "const1",
                     "--n", "1", "--k", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_nih_extract_truth_table_needs_scenario(tmp_path):
    # without --scenario there is no protocol for a custom function; the
    # default --function eq must not be certified in its place
    tt = tmp_path / "xor.tt"
    tt.write_text("".join(f"{x} {y} {z} {x ^ y ^ z}\n"
                          for x in range(2) for y in range(2) for z in range(2)))
    res = run_cli("nih-extract", "--truth-table", str(tt), "--n", "1", "--k", "3",
                  "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith("usage error: ")
    assert "--scenario" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "nih_eq_1_3.tsv").exists()


def test_verify_all_single_gip_instance_degenerate(tmp_path):
    res = run_cli("verify-all", "--seed", "1", "--n", "1", "--k", "3",
                  "--out", str(tmp_path))
    # with the degenerate instance the certificate rows are SKIP
    assert "criterion-3 GIP slice/unfolding certificate: PASS" in res.stdout
    report = (tmp_path / "verify_all.tsv").read_text()
    assert "SKIP" in report


def _option_strings(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield from action.option_strings


def test_every_option_is_documented_in_the_readme():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    options = set(_option_strings(cli.build_parser()))
    assert "--truth-table" in options
    # a whole option, so --n is not found inside --no or --n-foo
    assert sorted(o for o in options
                  if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", readme)) == []
