from itertools import permutations, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import mobius_oracle, superdiagonal, zero_tensor
from nqtensor.errors import ArityMismatch, FormatError, SizeCapExceeded
from nqtensor.functions import (
    FAMILIES,
    and_decomposition,
    canonical_tensor,
    constant,
    eq_nondet_decomposition,
    equality,
    from_name,
    gip,
    gip_nondet_decomposition,
    hamming_neq1,
    hamming_nondet_decomposition,
    inner_product_matrix,
    load_truth_table,
    random_nondet_substitution,
)
from nqtensor.rank_bounds import pattern_check, rank_bracket
from nqtensor.scalar_linalg import exact
from nqtensor.tensor_core import materialize

# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def test_eval_eq_examples():
    assert equality(2, 3).value((0b01, 0b01, 0b01)) == 1
    assert equality(2, 3).value((0b01, 0b01, 0b11)) == 0


def test_eval_eq_two_party_matches_direct_comparison():
    for x, y in product(range(4), repeat=2):
        assert equality(2, 2).value((x, y)) == (1 if x == y else 0)


def test_eval_eq_arity():
    with pytest.raises(ArityMismatch):
        equality(2, 3).value((0, 1))
    with pytest.raises(ArityMismatch):
        equality(1, 2).value((2, 0))


def test_eval_gip_examples():
    assert gip(2, 3).value((0b11, 0b11, 0b11)) == 0  # two all-ones positions
    assert gip(2, 3).value((0b10, 0b10, 0b10)) == 1  # one all-ones position


def test_eval_gip_two_party_is_inner_product():
    m = inner_product_matrix(2)
    for x, y in product(range(4), repeat=2):
        expected = bin(x & y).count("1") % 2
        assert gip(2, 2).value((x, y)) == expected
        assert (not m.entry((x, y)).is_zero()) == bool(expected)



def test_gip_symmetric_under_player_permutation():
    f = gip(2, 3)
    for xs in f.inputs():
        base = f.value(xs)
        for perm in permutations(xs):
            assert f.value(perm) == base


def test_eval_hamming_examples():
    f = hamming_neq1(3, 3)
    assert f.value((0b110, 0b110, 0b110)) == 1  # weight 2
    assert f.value((0b100, 0b100, 0b100)) == 0  # weight 1
    assert f.value((0b000, 0b111, 0b010)) == 1  # weight 0


def test_hamming_symmetries():
    f = hamming_neq1(2, 3)
    for xs in f.inputs():
        base = f.value(xs)
        for perm in permutations(xs):
            assert f.value(perm) == base
        # swap the two bit positions in every string simultaneously
        swapped = tuple(((x & 1) << 1) | (x >> 1) for x in xs)
        assert f.value(swapped) == base


# ---------------------------------------------------------------------------
# canonical tensors
# ---------------------------------------------------------------------------


def test_canonical_eq_is_superdiagonal():
    assert canonical_tensor(equality(1, 3)) == superdiagonal(2, [1, 1], 3)


def test_canonical_gip_n1_single_entry():
    t = canonical_tensor(gip(1, 3))
    for idx in t.indices():
        expected = exact(1 if idx == (1, 1, 1) else 0)
        assert t.entry(idx) == expected


@pytest.mark.parametrize("name,n,k", [
    ("eq", 2, 3), ("gip", 2, 3), ("hamming_neq1", 2, 3),
    ("eq", 3, 3), ("gip", 3, 3), ("hamming_neq1", 3, 3),
])
def test_canonical_matches_evaluator_exhaustively(name, n, k):
    f = from_name(name, n, k)
    t = canonical_tensor(f)
    for xs in f.inputs():
        assert t.entry(xs) == exact(f.value(xs))


def test_size_cap(monkeypatch):
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "32")
    with pytest.raises(SizeCapExceeded):
        canonical_tensor(equality(2, 3))
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "64")
    canonical_tensor(equality(2, 3))


@pytest.mark.parametrize("build", [eq_nondet_decomposition, hamming_nondet_decomposition,
                                   gip_nondet_decomposition])
def test_witness_checks_size_cap_before_any_term(build):
    # at n = 40 one pass over the 2^n strings or masks would not finish
    with pytest.raises(SizeCapExceeded):
        build(40, 2)


# ---------------------------------------------------------------------------
# nondeterministic constructions
# ---------------------------------------------------------------------------


def test_eq_decomposition_small():
    d = eq_nondet_decomposition(1, 3)
    assert d.term_count == 2
    assert materialize(d) == superdiagonal(2, [1, 1], 3)


def test_eq_decomposition_pattern():
    d = eq_nondet_decomposition(2, 3)
    assert d.term_count == 4
    assert pattern_check(materialize(d), equality(2, 3))


def test_eq_decomposition_term_count_n3():
    assert eq_nondet_decomposition(3, 3).term_count == 8


def test_hamming_decomposition_entry_values():
    d = hamming_nondet_decomposition(2, 3)
    assert d.term_count == 3  # n + 1
    t = materialize(d)
    # AND weight 2 -> 1+1-1 = 1; weight 1 -> 0; weight 0 -> -1
    assert t.entry((0b11, 0b11, 0b11)) == exact(1)
    assert t.entry((0b10, 0b10, 0b11)) == exact(0)
    assert t.entry((0b00, 0b11, 0b01)) == exact(-1)


def test_hamming_decomposition_pattern():
    for n, k in ((1, 3), (2, 3), (3, 3), (2, 4)):
        d = hamming_nondet_decomposition(n, k)
        assert d.term_count == n + 1
        assert pattern_check(materialize(d), hamming_neq1(n, k))


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_gip_decomposition_is_tight_witness(n, k):
    d = gip_nondet_decomposition(n, k)
    t = canonical_tensor(gip(n, k))
    assert materialize(d) == t
    assert d.term_count == 2 ** n - 1
    br = rank_bracket(t, known=d)
    assert (br.lower, br.upper, br.tight) == (2 ** n - 1, 2 ** n - 1, True)


def _and_terms(d, n):
    """(mode-1 coefficient, mask) of each term of an AND witness, after
    checking that every mode-2..k vector is the 0/1 superset indicator of
    the mask and that mode 1 is the coefficient times that indicator."""
    out = []
    for first, *rest in d.terms:
        mask = next(x for x, e in enumerate(rest[0]) if not e.is_zero())
        indicator = tuple(exact(1 if x & mask == mask else 0) for x in range(2 ** n))
        assert all(vec == indicator for vec in rest)
        coeff = first[mask]
        assert first == tuple(coeff * e for e in indicator)
        out.append((coeff, mask))
    return out


@seed(23)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.data())
def test_and_decomposition_matches_mobius_oracle(n, k, data):
    values = data.draw(st.lists(st.integers(-3, 3), min_size=2 ** n, max_size=2 ** n))
    h = values.__getitem__
    d = and_decomposition(n, k, h)
    t = materialize(d)
    for xs in product(range(2 ** n), repeat=k):
        a = (1 << n) - 1
        for x in xs:
            a &= x
        assert t.entry(xs) == exact(h(a))
    oracle = mobius_oracle(n, h)
    assert _and_terms(d, n) == [(exact(oracle[s]), s)
                                for s in sorted(oracle, reverse=True)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gip_witness_coefficients_closed_form(n):
    # one term per nonempty S, descending mask, coefficient (-2)^(|S|-1)
    terms = _and_terms(gip_nondet_decomposition(n, 2), n)
    assert terms == [(exact((-2) ** (bin(s).count("1") - 1)), s)
                     for s in range(2 ** n - 1, 0, -1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hamming_witness_coefficients_closed_form(n):
    # +1 on each position from the left, then -1 on the empty set: the
    # order hamming_neq1_2_3.dec pins
    terms = _and_terms(hamming_nondet_decomposition(n, 3), n)
    assert terms == [(exact(1), 1 << (n - j)) for j in range(1, n + 1)] + [(exact(-1), 0)]


def test_random_substitution_constant0_is_zero():
    t = random_nondet_substitution(constant(1, 3, 0), rng_seed=5)
    assert t == zero_tensor((2, 2, 2))


def test_random_substitution_pattern_over_seeds():
    f = gip(2, 3)
    for s in range(5):
        assert pattern_check(random_nondet_substitution(f, s), f)


def test_random_substitution_zero_pattern_is_seed_independent():
    f = hamming_neq1(2, 3)
    a = random_nondet_substitution(f, 1)
    b = random_nondet_substitution(f, 2)
    for idx in a.indices():
        assert a.entry(idx).is_zero() == b.entry(idx).is_zero()


def test_random_substitution_deterministic():
    f = equality(1, 3)
    assert random_nondet_substitution(f, 9) == random_nondet_substitution(f, 9)


def test_random_substitution_bound():
    t = random_nondet_substitution(equality(2, 3), 3, bound=2)
    for e in t.entries:
        assert abs(e.re) <= 2 and abs(e.im) <= 2


# ---------------------------------------------------------------------------
# registry and truth tables
# ---------------------------------------------------------------------------


def test_registry_names():
    assert {"eq", "gip", "hamming_neq1"} <= set(FAMILIES)
    with pytest.raises(KeyError):
        from_name("nope", 1, 2)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (2, 4), (3, 3)])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_registry_entry_is_consistent(name, n, k):
    family = FAMILIES[name]
    f = from_name(name, n, k)
    assert (f.name, f.n, f.k) == (name, n, k)
    if family.witness is None:
        return
    witness = family.witness(n, k)
    t = family.tensor(f)
    assert materialize(witness) == t
    assert pattern_check(t, f)
    assert witness.term_count == {"eq": 2 ** n, "hamming_neq1": n + 1}[name]


def test_hamming_registry_tensor_is_and_weight_minus_one():
    f = hamming_neq1(2, 3)
    t = FAMILIES["hamming_neq1"].tensor(f)
    for xs in f.inputs():
        assert t.entry(xs) == exact(bin(xs[0] & xs[1] & xs[2]).count("1") - 1)


def test_function_help_lists_registry_keys():
    from nqtensor.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    for name in ("build", "rank", "unfold", "probe", "nih-extract"):
        option = commands[name]._option_string_actions["--function"]
        assert option.help == "one of " + ", ".join(sorted(FAMILIES))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("n, k", [(1, 3), (2, 3), (2, 4)])
def test_table_is_value_at_every_input(name, n, k):
    f = from_name(name, n, k)
    assert f.table() == [f.value(xs) for xs in f.inputs()]


def test_truth_table_function_table(tmp_path):
    path = tmp_path / "parity.tt"
    path.write_text("".join(f"{x:02b} {y:02b} {bin(x ^ y).count('1') % 2}\n"
                            for x in range(4) for y in range(4)))
    f = load_truth_table(path)
    assert f.table() == [f.value(xs) for xs in f.inputs()]
    assert f.table() == [bin(x ^ y).count("1") % 2 for x in range(4) for y in range(4)]


def test_truth_table_roundtrip(tmp_path):
    f = equality(1, 2)
    lines = []
    for xs in f.inputs():
        strs = " ".join(format(x, "01b") for x in xs)
        lines.append(f"{strs} {f.value(xs)}")
    path = tmp_path / "eq.tt"
    path.write_text("# equality on one bit\n" + "\n".join(lines) + "\n")
    g = load_truth_table(path, name="eq_from_file")
    assert (g.n, g.k) == (1, 2)
    for xs in f.inputs():
        assert g.value(xs) == f.value(xs)


def test_truth_table_comment_after_value(tmp_path):
    f = equality(1, 3)
    path = tmp_path / "eq.tt"
    path.write_text("".join(f"{' '.join(format(x, 'b') for x in xs)} {f.value(xs)}"
                            f"  # note {i}\n\n" for i, xs in enumerate(f.inputs())))
    assert load_truth_table(path).table() == f.table()


def test_truth_table_incomplete(tmp_path):
    path = tmp_path / "bad.tt"
    path.write_text("0 0 1\n")
    with pytest.raises(FormatError):
        load_truth_table(path)


def test_truth_table_bad_value(tmp_path):
    path = tmp_path / "bad.tt"
    path.write_text("0 0 2\n")
    with pytest.raises(FormatError) as err:
        load_truth_table(path)
    assert err.value.line == 1
