import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import minor_rank, outer_product, scale, superdiagonal, zero_tensor
from nqtensor.errors import DimMismatch, FormatError, SizeCapExceeded
from nqtensor.functions import (
    canonical_tensor,
    eq_nondet_decomposition,
    equality,
    gip,
    gip_nondet_decomposition,
    hamming_nondet_decomposition,
    inner_product_matrix,
)
from nqtensor.scalar_linalg import EC_ONE, EC_ZERO, exact, exact_rank
from nqtensor.tensor_core import (
    Decomposition,
    DenseTensor,
    check_size_cap,
    group_matrize,
    materialize,
    read_dec,
    read_tsr,
    tensor_slice,
    unfold,
    write_dec,
    write_tsr,
)

# ---------------------------------------------------------------------------
# outer products and materialization
# ---------------------------------------------------------------------------


def test_outer_product_unit_vectors():
    e0 = [1, 0]
    t = outer_product([e0, e0, e0])
    assert t.entry((0, 0, 0)) == EC_ONE
    assert sum(0 if e.is_zero() else 1 for e in t.entries) == 1


def test_outer_product_all_ones_matrix():
    t = outer_product([[1, 1], [1, 1]])
    assert all(e == EC_ONE for e in t.entries)


def test_outer_product_direct_entry():
    t = outer_product([[1, 2], [3, 0], [1, 1]])
    assert t.entry((1, 0, 1)) == exact(6)


def test_materialize_empty_is_zero():
    d = Decomposition((2, 2, 2), ())
    assert materialize(d) == zero_tensor((2, 2, 2))


def test_materialize_single_term_is_outer_product():
    vs = [[1, 2], [0, 1], [1, -1]]
    d = Decomposition((2, 2, 2), (tuple(tuple(exact(x) for x in v) for v in vs),))
    assert materialize(d) == outer_product(vs)


def test_materialize_diagonal_terms_reproduce_superdiagonal():
    d = eq_nondet_decomposition(1, 3)
    assert d.term_count == 2
    assert materialize(d) == superdiagonal(2, [1, 1], 3)


def _dense_sum_of_outer_products(d):
    """Reference: entrywise sum of each term's dense outer product."""
    entries = [EC_ZERO] * math.prod(d.dims)
    for term in d.terms:
        entries = [a + b for a, b in zip(entries, outer_product(term).entries)]
    return DenseTensor(d.dims, entries)


# zeros, integers, and Gaussian rationals with denominators 1..4
tensor_components = st.one_of(
    st.just(EC_ZERO),
    st.builds(exact, st.integers(-3, 3)),
    st.builds(
        exact,
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)),
    ),
)


@st.composite
def decompositions(draw):
    """Order 2-4, dims 1-3, 0-4 terms; sometimes the last term is the
    negation of an earlier one, so that pair cancels to an exact zero."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    count = draw(st.integers(0, 4))
    terms = [
        tuple(tuple(draw(st.lists(tensor_components, min_size=n, max_size=n)))
              for n in dims)
        for _ in range(count)
    ]
    if count >= 2 and draw(st.booleans()):
        first, *rest = terms[draw(st.integers(0, count - 2))]
        terms[-1] = (tuple(v * exact(-1) for v in first), *rest)
    return Decomposition(dims, tuple(terms))


@seed(10)
@settings(max_examples=150, deadline=None)
@given(decompositions())
def test_materialize_matches_dense_sum_of_outer_products(d):
    assert materialize(d) == _dense_sum_of_outer_products(d)


def test_materialize_is_sparse_over_term_support():
    # 262,144 entries and 64 terms; a loop over every entry per term would
    # make about 50 M exact products
    assert materialize(eq_nondet_decomposition(6, 3)) == superdiagonal(64, [1] * 64, 3)


def test_materialize_checks_size_cap(monkeypatch):
    # built under the default cap, so the cap that fires is materialize's
    d = eq_nondet_decomposition(2, 3)
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "32")
    with pytest.raises(SizeCapExceeded):
        materialize(d)


def test_size_cap_message_names_an_unprintable_count_by_its_bits(monkeypatch):
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "32")
    with pytest.raises(SizeCapExceeded, match="^64 entries exceed cap 32$"):
        check_size_cap((8, 8))
    # 2^15000 has 4516 digits, past Python's default int-to-str limit
    with pytest.raises(SizeCapExceeded, match=r"^at least 2\^15000 entries exceed cap 32$"):
        check_size_cap((2 ** 5000,) * 3)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def test_slice_bad_fixed_index():
    t = superdiagonal(2, [1, 1], 3)
    with pytest.raises(IndexError):
        tensor_slice(t, 1, 2, (None, None, 5))


def test_slice_of_gip_canonical_is_inner_product_pattern():
    t = canonical_tensor(gip(2, 3))
    sl = tensor_slice(t, 1, 2, (None, None, 3))  # players 3.. pinned to 11
    assert sl == inner_product_matrix(2)


def test_slice_zero_tensor():
    sl = tensor_slice(zero_tensor((2, 3, 2)), 1, 2, (None, None, 1))
    assert all(e.is_zero() for e in sl.entries)


def test_slice_of_outer_product_is_rank_one():
    t = outer_product([[1, 2], [1, -1], [2, 3]])
    sl = tensor_slice(t, 1, 3, (None, 1, None))
    assert exact_rank(sl) == 1


@st.composite
def section_cases(draw):
    """Order 2-4, dims 1-3, two modes mode_a < mode_b and one full index."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    mode_a, mode_b = sorted(draw(st.lists(st.integers(1, len(dims)), min_size=2,
                                          max_size=2, unique=True)))
    fixed = tuple(draw(st.integers(0, d - 1)) for d in dims)
    return dims, mode_a, mode_b, fixed


def _label(idx):
    """An entry that names its index: the digits j + 1, injective for dims <= 9."""
    return exact(int("".join(str(j + 1) for j in idx)))


@seed(11)
@settings(max_examples=150, deadline=None)
@given(section_cases())
def test_sections_read_the_entry_at_each_index(case):
    # the expected entries come from _label of the index alone
    dims, mode_a, mode_b, fixed = case
    t = DenseTensor(dims, [_label(idx) for idx in product(*(range(d) for d in dims))])

    def label_at(*pairs):
        idx = list(fixed)
        for m, j in pairs:
            idx[m - 1] = j
        return _label(idx)

    da, db = dims[mode_a - 1], dims[mode_b - 1]
    sl = tensor_slice(t, mode_a, mode_b, fixed)
    assert (sl.rows, sl.cols) == (da, db)
    assert all(sl.entry((i, j)) == label_at((mode_a, i), (mode_b, j))
               for i in range(da) for j in range(db))
    for mode in range(1, len(dims) + 1):
        rest = [m for m in range(1, len(dims) + 1) if m != mode]
        cols = list(product(*(range(dims[m - 1]) for m in rest)))
        u = unfold(t, mode)
        assert (u.rows, u.cols) == (dims[mode - 1], len(cols))
        assert all(u.entry((i, c)) == label_at((mode, i), *zip(rest, rest_idx))
                   for i in range(dims[mode - 1]) for c, rest_idx in enumerate(cols))


# ---------------------------------------------------------------------------
# unfoldings and matrizations
# ---------------------------------------------------------------------------


def test_unfold_superdiagonal_columns():
    t = superdiagonal(2, [1, 1], 3)
    m = unfold(t, 1)
    cols = [tuple(m.entry((i, j)) for i in range(2)) for j in range(4)]
    assert cols == [
        (EC_ONE, EC_ZERO),
        (EC_ZERO, EC_ZERO),
        (EC_ZERO, EC_ZERO),
        (EC_ZERO, EC_ONE),
    ]


def test_unfold_rank_one_in_every_mode():
    t = outer_product([[1, 2], [1, -1], [2, 3]])
    for mode in (1, 2, 3):
        assert exact_rank(unfold(t, mode)) == 1


def test_unfold_gip_n1_k3_mode1():
    t = canonical_tensor(gip(1, 3))
    m = unfold(t, 1)
    assert (m.rows, m.cols) == (2, 4)
    nonzero = [(i, j) for i in range(2) for j in range(4) if not m.entry((i, j)).is_zero()]
    assert nonzero == [(1, 3)]  # the (1, (1,1)) column
    assert exact_rank(m) == minor_rank(m) == 1


def test_group_matrize_order2_is_itself():
    t = DenseTensor((2, 3), [exact(v) for v in (1, 2, 3, 4, 5, 6)])
    m = group_matrize(t, 1)
    assert (m.rows, m.cols) == (2, 3)
    assert [e.re for e in m.entries] == [1, 2, 3, 4, 5, 6]
    assert m == unfold(t, 1)


def test_group_matrize_superdiagonal_order4():
    t = superdiagonal(2, [1, 1], 4)
    m = group_matrize(t, 2)
    nonzero = [(i, j) for i in range(4) for j in range(4) if not m.entry((i, j)).is_zero()]
    assert nonzero == [(0, 0), (3, 3)]


def _random_decomposition(rng, dims, terms):
    out = []
    for _ in range(terms):
        term = tuple(
            tuple(exact(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(d))
            for d in dims
        )
        out.append(term)
    return Decomposition(dims, tuple(out))


def test_group_matrize_rank_bounded_by_term_count():
    rng = random.Random(4)
    for _ in range(10):
        d = _random_decomposition(rng, (2, 2, 2, 2), 3)
        t = materialize(d)
        for split in (1, 2, 3):
            assert exact_rank(group_matrize(t, split)) <= d.term_count


@pytest.mark.parametrize("witness, n, k", [
    (eq_nondet_decomposition, 1, 3), (eq_nondet_decomposition, 2, 3),
    (hamming_nondet_decomposition, 2, 3), (hamming_nondet_decomposition, 3, 3),
    (gip_nondet_decomposition, 2, 3),
])
def test_lift_is_the_witness_with_an_all_ones_mode(witness, n, k):
    # a constant extra mode (the old order lift) is the witness with an
    # all-ones factor appended; grouped at (k + 1) // 2 it repeats every column
    # of the witness's grouped matrix, so the rank the protocol compiles from
    # does not change
    d = witness(n, k)
    ones = (EC_ONE, EC_ONE)
    appended = Decomposition(d.dims + (2,), tuple(term + (ones,) for term in d.terms))
    split = (k + 1) // 2
    g = group_matrize(materialize(d), split)
    lifted = group_matrize(materialize(appended), split)
    assert lifted == DenseTensor((g.rows, 2 * g.cols), [e for e in g.entries for _ in range(2)])
    assert exact_rank(lifted) == exact_rank(g)


# ---------------------------------------------------------------------------
# superdiagonal
# ---------------------------------------------------------------------------


def test_superdiagonal_matches_eq_canonical():
    assert superdiagonal(2, [1, 1], 3) == canonical_tensor(equality(1, 3))


def test_superdiagonal_zero_diag():
    assert superdiagonal(2, [0, 0], 3) == zero_tensor((2, 2, 2))


def test_superdiagonal_unfold_rank_counts_nonzeros():
    t = superdiagonal(3, [1, 0, 2], 3)
    assert exact_rank(unfold(t, 1)) == 2


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_tsr_roundtrip(tmp_path):
    t = scale(canonical_tensor(gip(2, 3)), exact(Fraction(1, 3), Fraction(-2, 5)))
    path = tmp_path / "t.tsr"
    write_tsr(path, t)
    assert read_tsr(path) == t


def test_blank_lines_are_ignored(tmp_path):
    t = canonical_tensor(gip(1, 2))
    d = _random_decomposition(random.Random(4), (2, 2), 2)
    write_tsr(tmp_path / "t.tsr", t)
    write_dec(tmp_path / "d.dec", d)
    for name in ("t.tsr", "d.dec"):
        path = tmp_path / name
        path.write_text("\n \n" + path.read_text().replace("\n", "\n\t\n"))
    assert read_tsr(tmp_path / "t.tsr") == t
    assert read_dec(tmp_path / "d.dec") == d


def test_tsr_bad_entry_line(tmp_path):
    path = tmp_path / "bad.tsr"
    path.write_text("order 3\n2 2 2\n0 0 0 1/1\n")
    with pytest.raises(FormatError) as err:
        read_tsr(path)
    assert err.value.line == 3


@pytest.mark.parametrize("token", ["1/0", "x/1", "1/2/3", "1"])
def test_tsr_bad_rational_line(tmp_path, token):
    path = tmp_path / "bad.tsr"
    path.write_text(f"order 3\n2 2 2\n0 0 0 1/1 0/1\n1 1 1 1/1 {token}\n")
    with pytest.raises(FormatError) as err:
        read_tsr(path)
    assert err.value.line == 4


def test_tsr_index_out_of_range(tmp_path):
    path = tmp_path / "bad.tsr"
    path.write_text("order 3\n2 2 2\n0 0 5 1/1 0/1\n")
    with pytest.raises(FormatError) as err:
        read_tsr(path)
    assert err.value.line == 3


def test_dec_roundtrip(tmp_path):
    d = _random_decomposition(random.Random(3), (2, 3, 2), 2)
    path = tmp_path / "d.dec"
    write_dec(path, d)
    back = read_dec(path)
    assert back.dims == d.dims
    assert back.terms == d.terms


@pytest.mark.parametrize("text, line, message", [
    ("order 1\n2\n0 1/1 0/1\n", 1, "order must be at least 2"),
    ("order 2\n-1 2\n", 2, "dims must be nonnegative"),
], ids=["order_one", "negative_dim"])
def test_tsr_bad_shape_is_format_error(tmp_path, text, line, message):
    path = tmp_path / "bad.tsr"
    path.write_text(text)
    with pytest.raises(FormatError, match=message) as err:
        read_tsr(path)
    assert err.value.line == line


def test_dec_vector_length_is_format_error(tmp_path):
    path = tmp_path / "bad.dec"
    path.write_text("3 2 2 2 1\n"
                    "1/1+0/1i 0/1+0/1i\n"
                    "1/1+0/1i 0/1+0/1i 0/1+0/1i\n"
                    "1/1+0/1i 0/1+0/1i\n")
    with pytest.raises(FormatError, match="vector length 3 != dim 2") as err:
        read_dec(path)
    assert err.value.line == 3


def test_dec_bad_header(tmp_path):
    path = tmp_path / "bad.dec"
    path.write_text("3 2 2\n")
    with pytest.raises(FormatError) as err:
        read_dec(path)
    assert err.value.line == 1


def test_order_must_be_at_least_two():
    with pytest.raises(DimMismatch):
        DenseTensor((4,), [EC_ZERO] * 4)
