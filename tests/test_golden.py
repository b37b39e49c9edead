"""Byte-identity of CLI reports and artifacts against checked-in golden copies.

The commands are the README's command list, plus the hamming build/rank round
trip, an NOF query on a column without a 1-input, a k = 4 rank and probe
whose unfoldings are ranked only until the answer is settled, two builds
past n = 2 that pin the witness term order in the ``.dec`` files, and the
hamming unfolding, which unfolds the same nondeterministic tensor that
``build`` writes, and the n = 2 relay certificate, whose compare-and-flag
turn acts on a 16-dimensional player.  They run in-process
from a scratch directory with relative ``--out`` directories, so the paths
printed inside the reports are stable.  Every file
under ``tests/golden/`` must match the file the commands wrote at the same
relative path, byte for byte.  Rows that print SVD- or simulation-derived
floats (those whose quantity ends with a ``FLOAT_ROWS`` name) are dropped from
both sides first: their last digits depend on the BLAS build.

``python tests/test_golden.py OUTDIR`` runs the same commands in ``OUTDIR``
(which must not lie under ``tests/golden/``) and prints each exit code, so a
change that moves a report can regenerate its golden files and name them.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from nqtensor import cli

GOLDEN = Path(__file__).parent / "golden"

FLOAT_ROWS = (
    "probability",
    "max_sim_analytic_gap",
    "branch_vs_dense_max_gap",
    "branch_norm_max_drift",
)

RELAY = (
    "mode nih\nplayers 3\nbits 1\ndims 2 2 4\n"
    "turn 1 write-bit 1\nturn 3 store 1\n"
    "turn 2 write-bit 1\nturn 3 store 2\n"
    "turn 3 compare-and-flag\n"
)

# (output directory, command); run in this order
COMMANDS = (
    ("out", "build --function eq --n 1 --k 3"),
    ("out", "rank --function eq --n 2 --k 3"),
    ("out", "rank --tsr out/eq_1_3.tsr --dec out/eq_1_3.dec"),
    ("out", "rank --function gip --n 2 --k 3"),
    ("out", "unfold --function gip --n 2 --k 3 --mode 1"),
    ("out", "gip-cert --n 2 --k 3"),
    ("out", "protocol nof --function eq --n 1 --k 3 --input 0,1,0"),
    ("out", "protocol nof --function eq --n 1 --k 4 --input 0,0,0,1"),
    ("out", "protocol sweep --function hamming_neq1 --n 2 --k 3"),
    ("out", "nih-extract --function eq --n 1 --k 3 --seed 7"),
    ("out", "nih-extract --function eq --n 2 --k 3"),
    ("scn", "nih-extract --function eq --n 1 --k 3 --scenario relay.scn --seed 7"),
    ("out", "probe --function gip --n 2 --k 3 --trials 100 --seed 1"),
    ("out", "build --function hamming_neq1 --n 2 --k 3"),
    ("out", "rank --function hamming_neq1 --n 2 --k 3"),
    ("rt", "rank --tsr out/hamming_neq1_2_3.tsr --dec out/hamming_neq1_2_3.dec"),
    ("out", "verify-all --seed 1"),
    ("out", "rank --function eq --n 3 --k 4"),
    ("out", "probe --function gip --n 2 --k 4 --trials 8 --seed 5"),
    ("out", "build --function hamming_neq1 --n 3 --k 3"),
    ("out", "build --function eq --n 2 --k 4"),
    ("out", "unfold --function hamming_neq1 --n 2 --k 3 --mode 1"),
)


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".tsv":
        return data
    lines = data.decode().splitlines(keepends=True)
    return "".join(l for l in lines
                   if not l.split("\t", 1)[0].endswith(FLOAT_ROWS)).encode()


def run_commands(root: Path) -> dict:
    """Run ``COMMANDS`` in ``root``; the exit code of each command."""
    (root / "relay.scn").write_text(RELAY)
    codes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for out, command in COMMANDS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes[command] = cli.main(command.split() + ["--out", out])
    return codes


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_commands(root)


def test_every_command_exits_zero(workdir):
    _, codes = workdir
    assert {c: rc for c, rc in codes.items() if rc != 0} == {}


@pytest.mark.parametrize(
    "rel", sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file())
)
def test_matches_golden(workdir, rel):
    root, _ = workdir
    assert _comparable(root / rel) == _comparable(GOLDEN / rel)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_golden.py OUTDIR")
    outdir = Path(sys.argv[1]).resolve()
    if outdir.is_relative_to(GOLDEN.resolve()):
        sys.exit(f"OUTDIR must not lie under {GOLDEN}")
    outdir.mkdir(parents=True, exist_ok=True)
    for command, code in run_commands(outdir).items():
        print(f"{code}\t{command}")
