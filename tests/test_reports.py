import pytest

from nqtensor import config
from nqtensor.errors import UsageError
from nqtensor.reports import (
    FAIL,
    INFO,
    PASS,
    Row,
    bound_row,
    check_row,
    fmt_value,
    render_tsv,
)


def test_check_row_verdicts():
    assert check_row("q", 3, 3, "direct").verdict == PASS
    assert check_row("q", 3, 4, "direct").verdict == FAIL


def test_bound_row_two_sided():
    assert bound_row("q", 5, low=1, high=10).verdict == PASS
    assert bound_row("q", 0, low=1).verdict == FAIL
    assert bound_row("q", 11, high=10).verdict == FAIL
    assert bound_row("q", 2, low=1, high=10).expected == ">=1 <=10"


def test_fmt_value():
    assert fmt_value(True) == "true"
    assert fmt_value(None) == "-"
    assert fmt_value((1, 2, True)) == "1,2,true"
    assert fmt_value(0.5) == "0.5"


def test_render_tsv_shape_and_determinism():
    rows = [
        Row("a", 1, 1, "direct", PASS),
        Row("b", 0.25, "<=1", "derived", INFO),
    ]
    text = render_tsv(rows)
    lines = text.splitlines()
    assert lines[0] == "quantity\tcomputed\texpected\tsource\tverdict"
    assert len(lines) == 3
    assert all(len(line.split("\t")) == 5 for line in lines)
    assert render_tsv(rows) == text


def test_size_cap_env_validation(monkeypatch):
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "not-a-number")
    with pytest.raises(UsageError):
        config.size_cap()
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "-5")
    with pytest.raises(UsageError):
        config.size_cap()
    monkeypatch.delenv("NQTENSOR_SIZE_CAP")
    assert config.size_cap() == config.DEFAULT_SIZE_CAP
