from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import identity, matmul, minor_rank, read_mat, transpose, zero_matrix
from nqtensor.errors import ConvergenceFailure, DimMismatch
from nqtensor.functions import inner_product_matrix
from nqtensor.protocol import unitarity_defect
from nqtensor.scalar_linalg import (
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    _gram,
    exact,
    exact_rank,
    numerical_rank,
    parse_exact_scalar,
    svd,
    to_float,
    write_mat,
)
from nqtensor.tensor_core import DenseTensor

# ---------------------------------------------------------------------------
# ExactComplex
# ---------------------------------------------------------------------------


def test_exact_complex_arithmetic():
    a = exact(Fraction(1, 2), Fraction(3, 4))
    b = exact(2, -1)
    assert a + b == exact(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == exact(Fraction(7, 4), 1)
    assert b.abs2() == 5
    assert EC_ZERO.is_zero() and not EC_ONE.is_zero()


def test_exact_complex_normalized():
    z = ExactComplex(Fraction(2, 4), Fraction(-3, -6))
    assert z.re == Fraction(1, 2) and z.re.denominator == 2
    assert z.im == Fraction(1, 2)


def test_integral_components_are_ints():
    half = exact(Fraction(1, 2), Fraction(-3, 2))
    values = [
        ExactComplex(Fraction(6, 3), Fraction(0, 5)),
        exact(3, -1),
        exact(Fraction(4, 2)),
        EC_ZERO,
        EC_ONE,
        half + half,
        half * exact(2, 0),
        half * exact(Fraction(1, 2), Fraction(3, 2)) * exact(4),
        parse_exact_scalar("4/2+-3/1i"),
        parse_exact_scalar("0/7+6/-3i"),
    ]
    for z in values:
        assert type(z.re) is int and type(z.im) is int, z
    assert type(half.abs2()) is Fraction
    assert type(exact(3, 4).abs2()) is int


def test_nonintegral_components_are_reduced_fractions():
    z = parse_exact_scalar("2/4+-6/4i")
    assert type(z.re) is Fraction and z.re == Fraction(1, 2)
    assert type(z.im) is Fraction and z.im == Fraction(-3, 2)
    assert type((z * exact(3)).re) is Fraction


def test_equality_and_hash_ignore_component_type():
    a = ExactComplex(Fraction(3), 0)
    b = ExactComplex(3, 0)
    assert a == b and hash(a) == hash(b)
    assert ExactComplex(Fraction(1, 2), Fraction(2)) == exact(Fraction(2, 4), 2)
    assert len({EC_ONE, exact(Fraction(5, 5)), ExactComplex(1, Fraction(0))}) == 1


# ---------------------------------------------------------------------------
# exact_rank
# ---------------------------------------------------------------------------


def test_rank_identity():
    assert exact_rank(identity(3)) == 3


def test_rank_inner_product_matrix():
    # entry (x, y) = <x|y> mod 2; rank 2^n - 1
    m = inner_product_matrix(2)
    assert exact_rank(m) == 3
    assert minor_rank(m) == 3


def test_rank_zero_matrix():
    assert exact_rank(zero_matrix(2, 5)) == 0


def test_rank_matches_minor_oracle_on_seeded_matrices():
    import random

    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = DenseTensor((rows, cols), [
            exact(rng.randint(-2, 2), rng.randint(-1, 1))
            for _ in range(rows * cols)
        ])
        assert exact_rank(m) == minor_rank(m)


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def small_matrix(draw, max_side=4):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    vals = draw(st.lists(small_entries, min_size=rows * cols, max_size=rows * cols))
    return DenseTensor((rows, cols), [exact(v) for v in vals])


@seed(7)
@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_transpose_invariant(m):
    assert exact_rank(m) == exact_rank(transpose(m))


@seed(8)
@settings(max_examples=40, deadline=None)
@given(small_matrix(max_side=3), small_matrix(max_side=3))
def test_rank_product_bound(a, b):
    if a.cols != b.rows:
        b = transpose(b)
        if a.cols != b.rows:
            return
    assert exact_rank(matmul(a, b)) <= min(exact_rank(a), exact_rank(b))


# Gaussian rationals with denominators 1..4 and nonzero imaginary parts
gaussian_rationals = st.builds(
    exact,
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)),
)


# int components mixed with Fraction ones, within an entry and across entries
mixed_entries = st.one_of(
    gaussian_rationals,
    st.builds(exact, st.integers(-4, 4), st.integers(-4, 4)),
    st.builds(exact, st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4),
                                                   st.integers(1, 4))),
)
sparse_entries = st.one_of(st.just(EC_ZERO), st.just(EC_ZERO), mixed_entries)


def _gaussian_grid(draw, rows, cols, entries=gaussian_rationals):
    vals = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return DenseTensor((rows, cols), vals)


def _from_columns(rows, columns):
    return DenseTensor((rows, len(columns)), [c[i] for i in range(rows) for c in columns])


def _columns(m):
    return [[m.entry((i, j)) for i in range(m.rows)] for j in range(m.cols)]


@st.composite
def gaussian_rational_matrix(draw, max_side=5):
    """A dense matrix, one of mixed int/Fraction entries, a mostly-zero one
    with whole zero rows and columns, a product A @ B whose inner side,
    below the row count, makes it rank-deficient, or a wide one whose
    columns repeat a few random columns and the zero column."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(["dense", "mixed", "sparse", "product", "repeated"]))
    if kind == "repeated":
        rows = draw(st.integers(1, 4))
        pool = _columns(_gaussian_grid(draw, rows, draw(st.integers(1, 3)), mixed_entries))
        pool.append([EC_ZERO] * rows)
        columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
        return _from_columns(rows, columns)
    if kind == "mixed":
        return _gaussian_grid(draw, rows, cols, mixed_entries)
    if kind == "sparse":
        m = _gaussian_grid(draw, rows, cols, sparse_entries)
        zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
        zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
        return DenseTensor((rows, cols), [
            EC_ZERO if i in zero_rows or j in zero_cols else m.entry((i, j))
            for i in range(rows) for j in range(cols)])
    if kind == "dense" or rows == 1:
        return _gaussian_grid(draw, rows, cols)
    inner = draw(st.integers(1, rows - 1))
    return matmul(_gaussian_grid(draw, rows, inner), _gaussian_grid(draw, inner, cols))


@seed(9)
@settings(max_examples=200, deadline=None)
@given(gaussian_rational_matrix())
def test_rank_matches_minor_oracle_on_gaussian_rationals(m):
    # exercises denominator clearing, exact division in Z[i] and the
    # dropping of zero and repeated columns
    assert exact_rank(m) == minor_rank(m)


@seed(10)
@settings(max_examples=80, deadline=None)
@given(gaussian_rational_matrix(), st.data())
def test_rank_ignores_zero_repeated_and_permuted_columns(m, data):
    rank = exact_rank(m)
    columns = _columns(m)
    zeros = data.draw(st.integers(1, 3))
    assert exact_rank(_from_columns(m.rows, columns + [[EC_ZERO] * m.rows] * zeros)) == rank
    j = data.draw(st.integers(0, m.cols - 1))
    at = data.draw(st.integers(0, m.cols))
    assert exact_rank(_from_columns(m.rows, columns[:at] + [columns[j]] + columns[at:])) == rank
    assert exact_rank(_from_columns(m.rows, data.draw(st.permutations(columns)))) == rank


@st.composite
def wide_or_tall_gaussian_matrix(draw):
    """A Gaussian-rational matrix whose long side is at least twice its
    short side, either way round: dense, mostly zero, or a rank-deficient
    product, so that exact rank goes through the Gram matrix."""
    short = draw(st.integers(1, 3))
    long = draw(st.integers(2 * short, 8))
    kind = draw(st.sampled_from(["dense", "mixed", "sparse", "product"]))
    if kind == "product" and short > 1:
        inner = draw(st.integers(1, short - 1))
        m = matmul(_gaussian_grid(draw, short, inner), _gaussian_grid(draw, inner, long))
    else:
        entries = {"mixed": mixed_entries, "sparse": sparse_entries}.get(kind, gaussian_rationals)
        m = _gaussian_grid(draw, short, long, entries)
    return transpose(m) if draw(st.booleans()) else m


@seed(11)
@settings(max_examples=120, deadline=None)
@given(wide_or_tall_gaussian_matrix())
def test_rank_matches_minor_oracle_through_the_gram_matrix(m):
    assert exact_rank(m) == minor_rank(m)


def _gram_oracle(m):
    """m m^H for a wide m, m^H m for a tall one, entry by entry in Python ints."""
    if m.rows > m.cols:
        m = DenseTensor((m.cols, m.rows), [exact(e.re, -e.im) for e in transpose(m).entries])
    return [[sum((m.entry((i, t)) * exact(m.entry((j, t)).re, -m.entry((j, t)).im)
                  for t in range(m.cols)), EC_ZERO)
             for j in range(m.rows)] for i in range(m.rows)]


def _gram_of(m):
    columns = [tuple((e.re, e.im) for e in col) for col in _columns(m)]
    return [[exact(*e) for e in row] for row in _gram(columns, m.rows, m.rows > m.cols)]


@pytest.mark.parametrize("big, wide", [
    (2 ** 40, True), (2 ** 40, False),        # 2 L M^2 far above 2^63: Python ints
    (2 ** 30, True), (2 ** 30, False),        # 2 L M^2 = 2^63 exactly: Python ints
    (2 ** 30 - 1, True), (2 ** 30 - 1, False),  # just below 2^63: int64
])
def test_gram_product_is_exact_on_either_side_of_the_int64_bound(big, wide):
    # long side 4, every component +-big: the diagonal reaches 2 * 4 * big^2,
    # which wraps in int64 once it is 2^63
    one, conj = exact(big, big), exact(big, -big)
    m = DenseTensor((2, 4), [one, one, one, one, one, conj, one, one])
    m = m if wide else transpose(m)
    assert _gram_of(m) == _gram_oracle(m)
    assert exact_rank(m) == minor_rank(m) == 2


def test_rank_of_a_wide_matrix_with_large_components():
    # components above 2^31: the Gram product runs in Python ints
    rows = [[exact(3 ** 25 + j, -(2 ** 33) * j) for j in range(6)],
            [exact(2 ** 35 - j * j, 7 ** 13) for j in range(6)],
            [exact(3 ** 25 + j, -(2 ** 33) * j) + exact(2 ** 35 - j * j, 7 ** 13)
             for j in range(6)]]
    m = DenseTensor((3, 6), [e for row in rows for e in row])
    assert exact_rank(m) == minor_rank(m) == 2
    assert exact_rank(transpose(m)) == 2


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------


def test_svd_diagonal():
    m = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    _, s, _ = svd(m)
    assert np.allclose(s, [2.0, 1.0])


def test_svd_rank_one():
    m = np.outer([1.0, 1.0], [1.0, -1.0]).astype(np.complex128)
    _, s, _ = svd(m)
    thr_count = numerical_rank(s, (2, 2))
    assert thr_count == 1
    assert abs(s[0] - 2.0) < 1e-12


def test_svd_count_matches_exact_rank_for_ip_matrix():
    m = inner_product_matrix(2)
    _, s, _ = svd(to_float(m))
    assert numerical_rank(s, (4, 4)) == exact_rank(m) == 3


def test_svd_count_matches_exact_rank_on_builtin_constructions():
    # integer matrices with cleanly separated spectra: the float image's
    # numerical rank must agree with the exact rank
    from nqtensor.functions import (
        canonical_tensor,
        equality,
        gip,
        hamming_nondet_decomposition,
    )
    from nqtensor.tensor_core import group_matrize, materialize, unfold

    mats = [
        inner_product_matrix(3),
        unfold(canonical_tensor(equality(2, 3)), 1),
        unfold(canonical_tensor(gip(2, 3)), 1),
        group_matrize(materialize(hamming_nondet_decomposition(2, 4)), 2),
    ]
    for m in mats:
        _, s, _ = svd(to_float(m))
        assert numerical_rank(s, (m.rows, m.cols)) == exact_rank(m)


def test_svd_reconstruction_and_unitarity_on_random_matrices():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        arr = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u, s, v = svd(arr)
        fro = float(np.linalg.norm(arr))
        assert np.linalg.norm(u @ np.diag(s) @ v - arr) <= 1e-10 * fro
        assert unitarity_defect(u) <= 1e-10
        assert unitarity_defect(v) <= 1e-10
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))


def test_svd_factors_are_read_only():
    for factor in svd(np.eye(2, dtype=np.complex128)):
        with pytest.raises(ValueError):
            factor[0] = 0.0


def test_svd_rejects_nonfinite():
    # LAPACK itself returns NaN factors for an inf entry instead of failing
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        for compute_uv in (True, False):
            with pytest.raises(ValueError):
                svd(np.array([[bad, 0.0], [0.0, 1.0]], dtype=np.complex128),
                    compute_uv=compute_uv)


def test_svd_values_only_form():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    sigma = svd(arr, compute_uv=False)
    assert sigma.shape == (4,) and not sigma.flags.writeable
    assert np.allclose(sigma, svd(arr)[1], rtol=0, atol=1e-12)


def test_convergence_failure_is_exposed():
    assert issubclass(ConvergenceFailure, Exception)


# ---------------------------------------------------------------------------
# to_float
# ---------------------------------------------------------------------------


def test_to_float_identity_exact():
    f = to_float(identity(3))
    assert np.array_equal(f, np.eye(3))


def test_to_float_dyadic_exact():
    m = DenseTensor((1, 1), [exact(Fraction(1, 2), Fraction(1, 4))])
    f = to_float(m)
    assert f[0, 0] == 0.5 + 0.25j


def test_to_float_third_rounding_bound():
    m = DenseTensor((1, 1), [exact(Fraction(1, 3))])
    f = to_float(m)
    assert abs(f[0, 0].real - 1 / 3) < 1e-16


def test_to_float_overflow():
    m = DenseTensor((1, 1), [exact(10 ** 400)])
    with pytest.raises(OverflowError):
        to_float(m)


# ---------------------------------------------------------------------------
# .mat round trip
# ---------------------------------------------------------------------------


def test_mat_roundtrip_exact(tmp_path):
    m = DenseTensor((2, 2), [exact(Fraction(1, 2), Fraction(-3, 4)), exact(0),
                             exact(-2), exact(Fraction(5, 7), Fraction(1, 1))])
    path = tmp_path / "m.mat"
    write_mat(path, m)
    back = read_mat(path)
    assert back == m


def test_entry_count_validation():
    with pytest.raises(DimMismatch):
        DenseTensor((2, 2), [EC_ZERO] * 3)
