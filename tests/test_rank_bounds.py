import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import scale, superdiagonal, zero_tensor
from nqtensor import rank_bounds
from nqtensor.errors import (
    DecompositionMismatch,
    DegenerateN,
    DimMismatch,
    PatternMismatch,
)
from nqtensor.functions import (
    BooleanFunction,
    and_decomposition,
    canonical_tensor,
    constant,
    eq_nondet_decomposition,
    equality,
    gip,
    hamming_neq1,
    hamming_nondet_decomposition,
    random_nondet_substitution,
)
from nqtensor.rank_bounds import (
    RankBracket,
    gip_certificate,
    nrank_probe,
    pattern_check,
    rank_bracket,
)
from nqtensor.scalar_linalg import EC_ONE, EC_ZERO, exact, exact_rank
from nqtensor.tensor_core import (
    Decomposition,
    materialize,
    unfold,
)

# ---------------------------------------------------------------------------
# pattern_check
# ---------------------------------------------------------------------------


def test_pattern_check_eq_superdiagonal():
    t = superdiagonal(2, [1, 1], 3)
    assert pattern_check(t, equality(1, 3))
    assert not pattern_check(t, gip(1, 3))


def test_pattern_check_hamming_materialized():
    t = materialize(hamming_nondet_decomposition(2, 3))
    assert pattern_check(t, hamming_neq1(2, 3))


def test_pattern_check_dim_mismatch():
    with pytest.raises(DimMismatch):
        pattern_check(superdiagonal(2, [1, 1], 3), equality(2, 3))


# ---------------------------------------------------------------------------
# rank_bracket
# ---------------------------------------------------------------------------


def test_bracket_eq_n1():
    t = canonical_tensor(equality(1, 3))
    br = rank_bracket(t, known=eq_nondet_decomposition(1, 3))
    assert (br.lower, br.upper, br.tight) == (2, 2, True)


def test_bracket_eq_n2():
    t = canonical_tensor(equality(2, 3))
    br = rank_bracket(t, known=eq_nondet_decomposition(2, 3))
    assert (br.lower, br.upper, br.tight) == (4, 4, True)


@pytest.mark.parametrize("f, witness, bracket", [
    pytest.param(equality(4, 4), eq_nondet_decomposition(4, 4), (16, 16, True), id="eq"),
    pytest.param(gip(4, 4), None, (15, 4096, False), id="gip"),
])
def test_bracket_closed_form_at_n4_k4(f, witness, bracket):
    # 16 x 4,096 unfoldings with at most 16 distinct nonzero columns
    br = rank_bracket(canonical_tensor(f), known=witness)
    assert (br.lower, br.upper, br.tight) == bracket


def test_bracket_zero_tensor():
    br = rank_bracket(zero_tensor((2, 2, 2)))
    assert (br.lower, br.upper, br.tight) == (0, 0, True)


def test_bracket_fallback_upper_without_witness():
    br = rank_bracket(canonical_tensor(gip(2, 3)))
    assert (br.lower, br.upper, br.tight) == (3, 16, False)


def test_bracket_rejects_wrong_witness():
    t = canonical_tensor(equality(1, 3))
    with pytest.raises(DecompositionMismatch):
        rank_bracket(t, known=eq_nondet_decomposition(1, 4))
    wrong = Decomposition((2, 2, 2), eq_nondet_decomposition(1, 3).terms[:1])
    with pytest.raises(DecompositionMismatch):
        rank_bracket(t, known=wrong)


# ---------------------------------------------------------------------------
# stopping early: oracles that rank every mode, and call counts
# ---------------------------------------------------------------------------


def _all_modes_lower(t):
    return max(exact_rank(unfold(t, mode)) for mode in range(1, t.order + 1))


def _oracle_bracket(t, known):
    """Bracket with every unfolding ranked (the witness is trusted)."""
    if known is not None:
        upper = known.term_count
    elif all(e.is_zero() for e in t.entries):
        upper = 0
    else:
        upper = 1
        for d in sorted(t.dims)[:-1]:
            upper *= d
    lower = _all_modes_lower(t)
    return (lower, upper, lower == upper)


def _oracle_probe(f, trials, rng_seed):
    master = random.Random(rng_seed)
    return min(_all_modes_lower(random_nondet_substitution(f, master.getrandbits(64)))
               for _ in range(trials))


E0, E1 = (EC_ONE, EC_ZERO), (EC_ZERO, EC_ONE)
# e0 x e0 x e0 + e0 x e1 x e1: mode-1 unfolding rank 1, modes 2 and 3 rank 2
TWO_TERM = Decomposition((2, 2, 2), ((E0, E0, E0), (E0, E1, E1)))
# its support as a function: 1 iff x_1 = 0 and x_2 = x_3
TWO_TERM_F = BooleanFunction("two_term", 1, 3,
                             lambda xs: 1 if xs[0] == 0 and xs[1] == xs[2] else 0)


@st.composite
def small_decompositions(draw):
    """Order 2-4, unequal dims 1-3, 0-3 terms with components in -2..2."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    component = st.sampled_from((0, 0, 1, -1, 2))
    terms = tuple(
        tuple(tuple(exact(c) for c in draw(st.lists(component, min_size=n, max_size=n)))
              for n in dims)
        for _ in range(draw(st.integers(0, 3)))
    )
    return Decomposition(dims, terms)


@seed(17)
@settings(max_examples=150, deadline=None)
@given(small_decompositions(), st.booleans())
@example(TWO_TERM, True)
@example(TWO_TERM, False)
@example(Decomposition((2, 3, 2), ()), True)
@example(Decomposition((2, 3, 2), ()), False)
def test_bracket_matches_all_modes_oracle(d, with_witness):
    t = materialize(d)
    known = d if with_witness else None
    br = rank_bracket(t, known=known)
    assert (br.lower, br.upper, br.tight) == _oracle_bracket(t, known)


@seed(18)
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((equality(1, 3), gip(2, 3), hamming_neq1(1, 3),
                     constant(1, 2, 1), TWO_TERM_F)),
    st.integers(1, 4),
    st.integers(0, 2 ** 16),
)
@example(TWO_TERM_F, 3, 1)
def test_probe_matches_all_modes_oracle(f, trials, rng_seed):
    assert nrank_probe(f, trials, rng_seed) == _oracle_probe(f, trials, rng_seed)


def test_two_term_tensor_mode_ranks():
    t = materialize(TWO_TERM)
    assert [exact_rank(unfold(t, m)) for m in (1, 2, 3)] == [1, 2, 2]
    assert rank_bracket(t, known=TWO_TERM) == RankBracket(2, 2, True)
    assert rank_bracket(t) == RankBracket(2, 4, False)


@pytest.fixture
def rank_calls(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.dims)
        return exact_rank(m)

    monkeypatch.setattr(rank_bounds, "exact_rank", counted)
    return calls


@pytest.mark.parametrize("run, count", [
    pytest.param(lambda: rank_bracket(canonical_tensor(equality(2, 4)),
                                      known=eq_nondet_decomposition(2, 4)),
                 1, id="eq_2_4_witness"),
    pytest.param(lambda: rank_bracket(canonical_tensor(gip(2, 3))), 3, id="gip_2_3"),
    pytest.param(lambda: nrank_probe(gip(2, 3), trials=5, rng_seed=1), 3 + 4,
                 id="probe_gip_2_3"),
])
def test_exact_rank_call_count(rank_calls, run, count):
    run()
    assert len(rank_calls) == count


def test_mismatched_witness_raises_before_any_rank(rank_calls):
    wrong = Decomposition((2, 2, 2), eq_nondet_decomposition(1, 3).terms[:1])
    with pytest.raises(DecompositionMismatch):
        rank_bracket(canonical_tensor(equality(1, 3)), known=wrong)
    assert rank_calls == []


def test_bracket_scaling_invariance():
    t = canonical_tensor(gip(2, 3))
    scaled = scale(t, exact(3, -2))
    assert rank_bracket(t) == rank_bracket(scaled)
    assert pattern_check(scaled, gip(2, 3))


# ---------------------------------------------------------------------------
# GIP certificate
# ---------------------------------------------------------------------------


def test_gip_certificate_n2_k3():
    cert = gip_certificate(2, 3, canonical_tensor(gip(2, 3)))
    assert cert.rank_t_prime == 3
    assert cert.rank_t_i_prime == (1,)
    assert cert.summation_bound == 4
    assert cert.closed_form_bound == 5
    # the mode-1 unfolding rank is capped at 2^n - 1 by the all-zero
    # x_1 = 0 row, so neither bound expression is met by the data
    assert cert.combined_mode1_rank == 3
    assert cert.holds_summation is False
    assert cert.holds_closed_form is False


def test_gip_certificate_n3_k3():
    cert = gip_certificate(3, 3, canonical_tensor(gip(3, 3)))
    assert cert.rank_t_prime == 7
    assert cert.rank_t_i_prime == (3,)
    assert cert.combined_mode1_rank == 7
    assert (cert.summation_bound, cert.closed_form_bound) == (10, 9)


def test_gip_certificate_n2_k4():
    cert = gip_certificate(2, 4, canonical_tensor(gip(2, 4)))
    assert cert.rank_t_prime == 3
    assert cert.rank_t_i_prime == (1, 1)
    assert cert.combined_mode1_rank == 3
    assert cert.summation_bound == 5


def test_gip_certificate_combined_at_least_t_prime():
    for (n, k) in ((2, 3), (3, 3), (2, 4)):
        cert = gip_certificate(n, k, canonical_tensor(gip(n, k)))
        assert cert.combined_mode1_rank >= cert.rank_t_prime


def test_gip_certificate_degenerate_n():
    with pytest.raises(DegenerateN):
        gip_certificate(1, 3, canonical_tensor(gip(1, 3)))


def test_gip_certificate_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        gip_certificate(2, 3, canonical_tensor(equality(2, 3)))


def test_gip_certificate_on_substituted_tensor():
    t = random_nondet_substitution(gip(2, 3), rng_seed=12)
    cert = gip_certificate(2, 3, t)
    # generic substituted values fill the T' pattern to rank 3, while the
    # T_i' pattern (a 2x2 all-nonzero block) generically reaches rank 2;
    # the 2^(n-1)-1 slice value is specific to the canonical 0/1 tensor
    assert cert.rank_t_prime == 3
    assert cert.rank_t_i_prime == (2,)


@pytest.mark.parametrize("k", [3, 4])
def test_gip_n2_two_term_witness(k):
    # [x contains {1}] - [x contains {2}] on every mode: +1 when the AND of
    # the strings is 10, -1 when it is 01, and 0 when it is 00 or 11, so
    # the tensor has GIP's support and nrank(GIP) <= 2 at n = 2, well below
    # the 0/1 tensor's tight bracket 2^n - 1 = 3; as one h of the AND, it is
    # h(10) = 1, h(01) = -1 and 0 elsewhere
    d = and_decomposition(2, k, lambda a: {0b10: 1, 0b01: -1}.get(a, 0))
    has_1 = tuple(exact(1 if x & 0b10 else 0) for x in range(4))
    has_2 = tuple(exact(1 if x & 0b01 else 0) for x in range(4))
    assert d == Decomposition((4,) * k, (
        (has_1,) * k,
        (tuple(v * exact(-1) for v in has_2),) + (has_2,) * (k - 1),
    ))
    t = materialize(d)
    assert pattern_check(t, gip(2, k))
    assert [exact_rank(unfold(t, m)) for m in range(1, k + 1)] == [2] * k
    assert rank_bracket(t, known=d) == RankBracket(2, 2, True)


def test_substituted_mode1_rank_caps_at_pattern_rank():
    # every nondeterministic GIP tensor has a zero x_1 = 0 row, so the
    # mode-1 unfolding rank can never exceed 2^n - 1
    f = gip(2, 3)
    for s in range(10):
        t = random_nondet_substitution(f, s)
        assert exact_rank(unfold(t, 1)) <= 3


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_eq_superdiagonal_pattern():
    assert nrank_probe(equality(1, 3), trials=10, rng_seed=1) == 2


def test_probe_gip_frozen():
    assert nrank_probe(gip(2, 3), trials=10, rng_seed=7) == 3


def test_probe_constant_one():
    value = nrank_probe(constant(1, 2, 1), trials=10, rng_seed=1)
    assert value in (1, 2)  # all-nonzero 2x2 draws are rank >= 1
    assert value == 2  # frozen for this seed stream
    assert nrank_probe(constant(1, 2, 1), trials=10, rng_seed=1) == value


def test_probe_requires_trials():
    with pytest.raises(ValueError):
        nrank_probe(equality(1, 3), trials=0, rng_seed=1)


# ---------------------------------------------------------------------------
# cross-construction invariant
# ---------------------------------------------------------------------------


def test_every_unfolding_rank_bounded_by_witness_terms():
    cases = [
        (canonical_tensor(equality(n, k)), eq_nondet_decomposition(n, k))
        for n in (1, 2) for k in (3, 4)
    ] + [
        (materialize(hamming_nondet_decomposition(n, 3)),
         hamming_nondet_decomposition(n, 3))
        for n in (1, 2)
    ]
    for t, d in cases:
        for mode in range(1, t.order + 1):
            assert exact_rank(unfold(t, mode)) <= d.term_count
