import dataclasses
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import per_input_families, per_input_nof
from nqtensor import config, protocol
from nqtensor.errors import (
    ArityMismatch,
    CoefficientNotFound,
    NonUnitary,
    NormalizationError,
    PatternMismatch,
    PremiseViolation,
    SizeCapExceeded,
)
from nqtensor.functions import (
    FAMILIES,
    BooleanFunction,
    canonical_tensor,
    constant,
    eq_nondet_decomposition,
    equality,
    from_name,
    gip,
    gip_nondet_decomposition,
    hamming_neq1,
    hamming_nondet_decomposition,
)
from nqtensor.protocol import (
    ProtocolSpec,
    Turn,
    _permutation,
    build_nof_protocol,
    coefficient_search,
    constant_one_spec,
    extract_families,
    gen_cnot_channel,
    gen_compare_and_flag,
    gen_flip_channel,
    gen_matrix_literal,
    gen_store,
    gen_write_bit,
    haar_unitary,
    nih_families,
    nih_rank_certificate,
    random_protocol,
    read_scenario,
    run_nof,
    simulate_branches,
    simulate_dense,
    strong_nondet_check,
    sweep_nof,
    trivial_eq_relay_spec,
    unitarity_defect,
)
from nqtensor.scalar_linalg import exact, exact_rank
from nqtensor.tensor_core import (
    Decomposition,
    DenseTensor,
    flat_offset,
    group_matrize,
    materialize,
)

# ---------------------------------------------------------------------------
# branch-form simulation
# ---------------------------------------------------------------------------


def test_zero_turn_protocol():
    spec = ProtocolSpec("nih", 2, 1, (2, 2), ())
    b = simulate_branches(spec, (0, 1))
    assert set(b.branches) == {()}
    assert b.ell == 0
    for v in b.branches[()]:
        assert np.array_equal(v, [1.0, 0.0])
    assert b.accept_probability() == 0.0


def test_flip_channel_moves_all_mass_to_branch_one():
    spec = constant_one_spec()
    b = simulate_branches(spec, (0, 0))
    # branch (0,) is exactly zero, so it is pruned
    assert set(b.branches) == {(1,)}

    def branch_mass(m):
        return math.prod(float(np.vdot(v, v).real) for v in b.branches[m])

    assert abs(branch_mass((1,)) - 1.0) < 1e-12
    assert abs(b.accept_probability() - 1.0) < 1e-12


def test_branch_count_is_two_to_ell():
    for ell in (1, 2, 3):
        spec = random_protocol(17, k=2, ell=ell)
        b = simulate_branches(spec, (0, 1))
        assert len(b.branches) == 2 ** ell


def test_branch_form_matches_dense_simulation():
    rng = random.Random(23)
    for i in range(24):
        k = 2 + (i % 2)
        ell = 1 + (i % 3)
        mode = "nih" if i % 4 < 2 else "nof"
        spec = random_protocol(rng.getrandbits(32), k=k, ell=ell, mode=mode)
        xs = tuple(rng.randrange(2) for _ in range(k))
        b = simulate_branches(spec, xs)
        dense = simulate_dense(spec, xs)
        assert np.max(np.abs(b.recontract() - dense)) < 1e-9
        assert all(abs(1.0 - v) < 1e-9 for v in b.norm_history)


@st.composite
def mixed_protocols(draw):
    # NIH protocols mixing Haar turns with classical ones; a classical turn
    # on a basis-state branch leaves one child exactly zero, so those prune
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 2))
    dims = tuple(draw(st.sampled_from((2, 4))) for _ in range(k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    turns = []
    for _ in range(draw(st.integers(1, 6))):
        player = draw(st.integers(1, k))
        d = dims[player - 1]
        kind = draw(st.sampled_from(("haar", "write-bit", "store", "cnot-channel")))
        if kind == "haar":
            make = gen_matrix_literal(d, haar_unitary(rng, 2 * d))
        elif kind == "write-bit":
            make = gen_write_bit(d, n, draw(st.integers(1, n)))
        elif kind == "store":
            make = gen_store(d, draw(st.integers(1, d.bit_length() - 1)))
        else:
            make = gen_cnot_channel(d, draw(st.integers(1, d.bit_length() - 1)))
        turns.append(Turn(player, make))
    xs = tuple(draw(st.integers(0, 2 ** n - 1)) for _ in range(k))
    return ProtocolSpec("nih", k, n, dims, tuple(turns)), xs


@seed(7)
@settings(max_examples=80, deadline=None)
@given(mixed_protocols())
def test_pruned_branches_match_dense_simulation(case):
    spec, xs = case
    b = simulate_branches(spec, xs)
    dense = simulate_dense(spec, xs)
    assert np.max(np.abs(b.recontract() - dense)) < 1e-9
    assert all(abs(1.0 - v) < 1e-9 for v in b.norm_history)
    accepted = dense[1::2]
    assert abs(b.accept_probability() - float(np.vdot(accepted, accepted).real)) < 1e-9
    if all(t.label == "matrix" for t in spec.turns):
        assert len(b.branches) == 2 ** spec.ell   # Haar turns prune nothing
    elif spec.turns[0].label != "matrix":
        assert len(b.branches) < 2 ** spec.ell


def test_branch_blowup_exceeds_size_cap(monkeypatch):
    # live branches x sum of player dims: 64 x 6 for six Haar turns, against
    # 1 x 20 for the pruned n = 2 relay (512 x 20 unpruned); the relay is
    # built first, since its 32 x 32 store unitaries exceed the lowered cap
    relay = trivial_eq_relay_spec(2)
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "256")
    with pytest.raises(SizeCapExceeded, match="live branches"):
        simulate_branches(random_protocol(5, k=3, ell=6), (0, 1, 0))
    assert len(simulate_branches(relay, (1, 1, 1)).branches) == 1


def test_dense_simulators_check_the_size_cap_first(monkeypatch):
    # dims (2, 2, 2): 16 dense entries, one live branch of 6
    spec = constant_one_spec(1, 3)
    state = simulate_branches(spec, (0, 1, 0))
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "8")
    with pytest.raises(SizeCapExceeded, match="16 entries exceed cap 8"):
        simulate_dense(spec, (0, 1, 0))
    with pytest.raises(SizeCapExceeded, match="16 entries exceed cap 8"):
        state.recontract()
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "16")
    assert state.recontract().tobytes() == simulate_dense(spec, (0, 1, 0)).tobytes()


def test_accept_vector_checks_the_size_cap_first(monkeypatch):
    # dims (2, 256, 256): the one live branch holds 2 + 256 + 256 = 514
    # entries and passes the sweep; the accepted vector would hold 131,072
    spec = ProtocolSpec("nih", 3, 1, (2, 256, 256), (Turn(1, gen_flip_channel(2)),))
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", "1024")
    state = simulate_branches(spec, (0, 1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="131072 entries exceed cap 1024"):
            state.accept_probability()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    monkeypatch.setenv("NQTENSOR_SIZE_CAP", str(2 ** 17))
    assert state.accept_probability() == 1.0


def test_branch_form_matches_dense_for_relay_protocol():
    spec = trivial_eq_relay_spec(1)
    for xs in ((0, 0, 0), (0, 1, 0), (1, 1, 1)):
        b = simulate_branches(spec, xs)
        dense = simulate_dense(spec, xs)
        assert np.max(np.abs(b.recontract() - dense)) < 1e-12


def _kron_oracle(spec, xs):
    """The branch simulation written with np.kron: returns the live branches
    and the statevector and accepted vector summed in the simulator's order."""
    branches = {(): tuple(np.eye(d, dtype=np.complex128)[:, 0] for d in spec.player_dims)}
    for turn in spec.turns:
        p = turn.player - 1
        w = np.asarray(turn.make(spec.visible(turn.player, xs)), dtype=np.complex128)
        new = {}
        for m, vecs in branches.items():
            c = m[-1] if m else 0
            out = (w @ np.kron(vecs[p], np.eye(2)[:, c])).reshape(-1, 2)
            for c2 in (0, 1):
                if out[:, c2].any():
                    new[m + (c2,)] = vecs[:p] + (out[:, c2].copy(),) + vecs[p + 1:]
        branches = new
    dim = math.prod(spec.player_dims)
    state = np.zeros(2 * dim, dtype=np.complex128)
    for m, vecs in branches.items():
        state[(m[-1] if m else 0)::2] += _kron_product(vecs)
    accepted = np.zeros(dim, dtype=np.complex128)
    for m in sorted(m for m in branches if m and m[-1] == 1):
        accepted += _kron_product(branches[m])
    return branches, state, accepted


def _kron_product(vecs):
    return functools.reduce(np.kron, vecs, np.array([1.0 + 0j]))


def _monomial_protocol(seed):
    # permutations with phases +-1, +-i, some followed by a Hadamard on the
    # channel: exact zeros and cancellations, and np.kron operands holding -0
    # where the simulator's zero-filled input holds +0
    rng = np.random.default_rng(seed)
    hadamard = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
    turns = []
    for _ in range(5):
        m = np.zeros((4, 4), dtype=np.complex128)
        m[rng.permutation(4), np.arange(4)] = rng.choice([1, -1, 1j, -1j], size=4)
        if rng.random() < 0.3:
            m = m @ hadamard
        turns.append(Turn(int(rng.integers(1, 3)), gen_matrix_literal(2, m)))
    return ProtocolSpec("nih", 2, 1, (2, 2), tuple(turns))


def _bitwise_cases():
    rng = random.Random(41)
    for i in range(12):
        k, ell, dim = ((2, 3, 2), (3, 4, 2), (2, 3, 4))[i % 3]
        spec = random_protocol(rng.getrandbits(32), k=k, ell=ell, dim=dim)
        yield pytest.param(spec, tuple(rng.randrange(2) for _ in range(k)), id=f"haar{i}")
    for n in (1, 2):
        spec = trivial_eq_relay_spec(n)
        for xs in ((0, 0, 0), (1, 1, 1), (0, 1, 1), (2 ** n - 1, 0, 2 ** n - 1)):
            yield pytest.param(spec, xs, id=f"relay{n}-{'-'.join(map(str, xs))}")
    for i in range(8):
        yield pytest.param(_monomial_protocol(i), (0, 1), id=f"monomial{i}")


@pytest.mark.parametrize("spec, xs", list(_bitwise_cases()))
def test_branch_simulation_matches_kron_oracle_bitwise(spec, xs):
    # tobytes() tells -0.0 from 0.0, so signed zeros must agree too
    branches, state, accepted = _kron_oracle(spec, xs)
    b = simulate_branches(spec, xs)
    assert list(b.branches) == list(branches)
    for m, vecs in branches.items():
        assert [v.tobytes() for v in b.branches[m]] == [v.tobytes() for v in vecs]
    assert b.recontract().tobytes() == state.tobytes()
    assert b.accept_vector().tobytes() == accepted.tobytes()
    g = spec.k // 2
    members, a_vecs, b_vecs = extract_families(b)
    assert [v.tobytes() for v in a_vecs + b_vecs] == (
        [_kron_product(branches[m][:g]).tobytes() for m in members]
        + [_kron_product(branches[m][g:]).tobytes() for m in members])


@pytest.mark.parametrize("make, visible", [
    pytest.param(gen_write_bit(2, 1, 1), 0, id="write-bit-0"),
    pytest.param(gen_write_bit(2, 1, 1), 1, id="write-bit-1"),
    pytest.param(gen_flip_channel(2), 0, id="flip-channel"),
    pytest.param(gen_cnot_channel(4, 2), 0, id="cnot-channel"),
    pytest.param(gen_store(4, 1), 0, id="store"),
    pytest.param(gen_matrix_literal(2, np.eye(4)), 0, id="matrix"),
])
def test_shared_generator_unitaries_are_read_only(make, visible):
    u = make(visible)
    assert u is make(visible)
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0


@pytest.mark.parametrize("d", [2, 4])
def test_channel_generators_are_kron_products(d):
    x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
    flip = np.kron(np.eye(d), x_gate).astype(np.complex128).tobytes()
    keep = np.kron(np.eye(d), np.eye(2)).astype(np.complex128).tobytes()
    assert gen_write_bit(d, 2, 2)(0b10).tobytes() == keep
    assert gen_write_bit(d, 2, 2)(0b01).tobytes() == flip
    assert gen_flip_channel(d)(0).tobytes() == flip


def _compare_and_flag_oracle(n, own):
    """Flip the channel at every local state whose two stored strings equal own."""
    def unpack(h, base):
        return sum(((h >> (base + j - 1)) & 1) << (n - j) for j in range(1, n + 1))

    flag = [int(unpack(h, 0) == unpack(h, n) == own) for h in range(4 ** n)]
    return _permutation(4 ** n, lambda h, c: (h, c ^ flag[h]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compare_and_flag_matches_permutation_oracle_bitwise(n):
    make = gen_compare_and_flag(4 ** n, n)
    for own in range(2 ** n):
        u = make(own)
        assert u.tobytes() == _compare_and_flag_oracle(n, own).tobytes()
        assert not u.flags.writeable


def test_simulators_run_on_read_only_unitaries():
    literal = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
    spec = ProtocolSpec("nih", 2, 1, (2, 4), (
        Turn(1, gen_write_bit(2, 1, 1)),
        Turn(2, gen_store(4, 1)),
        Turn(2, gen_cnot_channel(4, 1)),
        Turn(1, gen_matrix_literal(2, literal)),
        Turn(2, gen_flip_channel(4)),
    ))
    for xs in ((0, 0), (1, 0)):
        b = simulate_branches(spec, xs)
        assert np.max(np.abs(b.recontract() - simulate_dense(spec, xs))) < 1e-12


def test_non_unitary_turn_rejected():
    def bad(visible):
        return np.ones((4, 4))

    bad.label = "bad"
    bad.nih_only = False
    spec = ProtocolSpec("nih", 2, 1, (2, 2), (Turn(1, bad),))
    with pytest.raises(NonUnitary):
        simulate_branches(spec, (0, 0))


def _product_defect(m):
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def _permutation_matrices():
    for size in (2, 3, 4):
        for perm in itertools.permutations(range(size)):
            m = np.zeros((size, size), dtype=np.complex128)
            m[list(perm), range(size)] = 1.0
            yield m
    for j in range(1, 5):
        yield gen_store(16, j)(None)
    compare = gen_compare_and_flag(16, 2)
    for own in range(4):
        yield compare(own)


def test_permutation_unitarity_defect_equals_the_product():
    # the structural check returns what the float product gives: exactly 0
    matrices = list(_permutation_matrices())
    assert len(matrices) == 2 + 6 + 24 + 4 + 4
    for m in matrices:
        assert unitarity_defect(m) == _product_defect(m) == 0.0


@pytest.mark.parametrize("entry, defect", [
    (np.nan, None), (1 + 1e-12, 2e-12), (-1.0, 0.0), (2.0, 3.0), (1j, 0.0)])
def test_near_permutation_takes_the_product(entry, defect):
    # the 1 at (1, 0) of a 4 x 4 permutation matrix replaced
    m = np.eye(4, dtype=np.complex128)[[2, 0, 3, 1]]
    m[1, 0] = entry
    got = unitarity_defect(m)
    if defect is None:
        assert np.isnan(got)
    else:
        assert got == _product_defect(m) == pytest.approx(defect, abs=1e-15)


@pytest.mark.parametrize("rows", [
    [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]],  # five ones
    [[1, 1, 0], [0, 0, 0], [0, 0, 1]],  # n ones, an empty row
    [[1, 0, 0], [1, 0, 0], [0, 0, 1]],  # n ones, an empty column
], ids=["five-ones", "empty-row", "empty-column"])
def test_ones_off_a_permutation_take_the_product(rows):
    m = np.array(rows, dtype=np.complex128)
    assert unitarity_defect(m) == _product_defect(m) == 1.0


@pytest.mark.parametrize("simulate", [simulate_branches, simulate_dense])
def test_nan_turn_unitary_rejected(simulate):
    # a NaN defect compares false against the tolerance both ways
    spec = ProtocolSpec("nih", 2, 1, (2, 2),
                        (Turn(1, lambda visible: np.full((4, 4), np.nan)),))
    with pytest.raises(NonUnitary, match="defect nan"):
        simulate(spec, (0, 0))


@pytest.mark.parametrize("simulate", [simulate_branches, simulate_dense])
def test_wrongly_sized_turn_unitary_rejected(simulate):
    # a unitary on a 1-qubit player plus the channel, for a 2-qubit player
    spec = ProtocolSpec("nih", 2, 1, (4, 2), (Turn(1, lambda visible: np.eye(4)),))
    with pytest.raises(NonUnitary, match="expected 8x8"):
        simulate(spec, (0, 0))


def test_input_validation():
    spec = constant_one_spec()
    with pytest.raises(ArityMismatch):
        simulate_branches(spec, (0,))
    with pytest.raises(ArityMismatch):
        simulate_branches(spec, (0, 2))


def test_idle_player_starts_from_a_d_entry_vector():
    # a player that never acts holds |0> in C^4096 throughout: 64 KiB, not
    # the 256 MiB of a 4096 x 4096 identity
    d = 4096
    spec = ProtocolSpec("nih", 2, 1, (2, d), (Turn(1, gen_flip_channel(2)),))
    tracemalloc.start()
    try:
        b = simulate_branches(spec, (0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    ((_, idle),) = [vecs for vecs in b.branches.values()]
    assert idle.tobytes() == (np.arange(d) == 0).astype(np.complex128).tobytes()


def test_nof_mode_rejects_own_input_generators():
    with pytest.raises(ValueError):
        ProtocolSpec("nof", 2, 1, (2, 2), (Turn(1, gen_write_bit(2, 1, 1)),))


# ---------------------------------------------------------------------------
# NOF protocol construction
# ---------------------------------------------------------------------------


def test_build_eq_n1_k3():
    f = equality(1, 3)
    p = build_nof_protocol(materialize(eq_nondet_decomposition(1, 3)), f)
    # rows are players 1..2, columns player 3
    assert p.split == 2
    assert p.r == 2
    assert p.qubit_cost == 2


def test_build_hamming_n2_k4_even_path():
    f = hamming_neq1(2, 4)
    p = build_nof_protocol(materialize(hamming_nondet_decomposition(2, 4)), f)
    assert p.split == 2
    assert p.r == 3
    assert p.qubit_cost == 3


def test_build_constant_one_rank_one():
    f = constant(1, 2, 1)
    ones = (exact(1), exact(1))
    d = Decomposition((2, 2), ((ones, ones),))
    p = build_nof_protocol(materialize(d), f)
    assert p.r == 1
    assert p.qubit_cost == 1


def test_build_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        build_nof_protocol(materialize(eq_nondet_decomposition(1, 3)), gip(1, 3))


def test_run_nof_accepts_and_rejects():
    f = equality(1, 3)
    p = build_nof_protocol(materialize(eq_nondet_decomposition(1, 3)), f)
    res = run_nof(p, (0, 0, 0))
    assert res.accepted and res.probability > 1e-9
    res = run_nof(p, (0, 1, 0))
    assert not res.accepted and res.probability <= 1e-12
    assert abs(res.probability - res.analytic_probability) <= 1e-9


def test_run_nof_probability_matches_analytic_everywhere():
    f = hamming_neq1(2, 3)
    p = build_nof_protocol(materialize(hamming_nondet_decomposition(2, 3)), f)
    for xs in f.inputs():
        res = run_nof(p, xs)
        assert abs(res.probability - res.analytic_probability) <= 1e-9


def test_sweep_hamming_matches_evaluator():
    f = hamming_neq1(2, 3)
    p = build_nof_protocol(materialize(hamming_nondet_decomposition(2, 3)), f)
    rep = strong_nondet_check(p)
    assert rep.passed
    assert rep.max_reject_probability <= 1e-12
    assert rep.min_accept_probability > 1e-9


def test_sweep_eq4_even_path():
    f = equality(1, 4)
    p = build_nof_protocol(materialize(eq_nondet_decomposition(1, 4)), f)
    assert p.split == 2
    assert strong_nondet_check(p).passed


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_gip_even_k_rejects_exactly_zero_columns(n):
    # a zero column of the exact grouped matrix has a float norm near 1e-16;
    # it must reject from the exact mask, not divide by that noise
    f = gip(n, 4)
    rep = strong_nondet_check(build_nof_protocol(materialize(gip_nondet_decomposition(n, 4)), f))
    assert rep.passed and rep.wrong_decisions == ()
    assert rep.max_reject_probability <= config.REJECT_CEILING
    assert rep.max_sim_analytic_gap <= 1e-9


def test_live_columns_are_the_columns_with_a_one_input():
    for f, d in ((equality(2, 4), eq_nondet_decomposition(2, 4)),
                 (hamming_neq1(2, 3), hamming_nondet_decomposition(2, 3))):
        p = build_nof_protocol(materialize(d), f)
        col_dims = p.exact_tensor.dims[p.split:]
        expect = np.zeros(math.prod(col_dims), dtype=bool)
        for xs in f.inputs():
            if f.value(xs):
                expect[flat_offset(col_dims, xs[p.split:])] = True
        assert not p.live_columns.flags.writeable
        assert np.array_equal(p.live_columns, expect)


def test_sweep_evaluates_f_once_per_input_per_pass():
    calls = []
    base = equality(2, 4)

    def counted(xs):
        calls.append(xs)
        return base._eval(xs)

    f = dataclasses.replace(base, _eval=counted)
    strong_nondet_check(build_nof_protocol(materialize(eq_nondet_decomposition(2, 4)), f))
    # one pass for pattern_check at compile time, one for the sweep itself
    assert len(calls) <= 2 * f.side ** f.k


def test_dead_column_rejects_before_float_work():
    f = equality(1, 4)
    p = build_nof_protocol(materialize(eq_nondet_decomposition(1, 4)), f)
    # float garbage in V cannot reach a column without a 1-input
    noisy = dataclasses.replace(p, v=np.full_like(p.v, 1.0 + 1.0j))
    res = run_nof(noisy, (0, 0, 0, 1))
    assert (res.probability, res.accepted, res.analytic_probability) == (0.0, False, 0.0)


def test_normalization_error_on_rank_undercount():
    f = equality(1, 3)
    p = build_nof_protocol(materialize(eq_nondet_decomposition(1, 3)), f)
    crippled = dataclasses.replace(p, r=0)
    with pytest.raises(NormalizationError):
        run_nof(crippled, (0, 0, 0))


_NOF_CASES = [(name, n, k) for name in ("eq", "hamming_neq1")
              for (n, k) in ((1, 3), (2, 3), (3, 3), (1, 4), (2, 4))]


def _nof_protocol(name, n, k):
    # no GIP witness is registered in FAMILIES
    witness = gip_nondet_decomposition if name == "gip" else FAMILIES[name].witness
    return build_nof_protocol(materialize(witness(n, k)), from_name(name, n, k))


def _hexed(prob, accepted, analytic):
    return prob.hex(), accepted, analytic.hex()


@pytest.mark.parametrize("name,n,k", _NOF_CASES + [("gip", 2, 4)])
def test_sweep_matches_per_input_oracle_bit_for_bit(name, n, k):
    p = _nof_protocol(name, n, k)
    table = p.f.table()
    expect = [per_input_nof(p, xs) for xs in p.f.inputs()]
    swept = [dataclasses.astuple(r) for r in sweep_nof(p, p.f.inputs())]
    assert [_hexed(*r) for r in swept] == [_hexed(*r) for r in expect]
    assert [_hexed(*dataclasses.astuple(run_nof(p, xs)))
            for xs in p.f.inputs()] == [_hexed(*r) for r in expect]
    rep = strong_nondet_check(p)
    ones = [r[0] for r, v in zip(expect, table) if v == 1]
    zeros = [r[0] for r, v in zip(expect, table) if v == 0]
    assert rep.min_accept_probability.hex() == min(ones).hex()
    assert rep.max_reject_probability.hex() == max(zeros, default=0.0).hex()
    assert rep.max_sim_analytic_gap.hex() == max(abs(a - b) for a, _, b in expect).hex()
    assert rep.passed and rep.total_inputs == len(table)


@pytest.mark.parametrize("name,n,k", [("eq", 2, 4), ("hamming_neq1", 2, 3), ("eq", 3, 3)])
def test_sweep_builds_each_live_column_state_once(name, n, k, monkeypatch):
    p = _nof_protocol(name, n, k)
    norm = np.linalg.norm
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(x)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    assert strong_nondet_check(p).passed
    assert len(calls) == int(p.live_columns.sum())


@pytest.mark.parametrize("name,n,k,from_end", [("eq", 2, 4, 0), ("hamming_neq1", 2, 3, 1)])
def test_vanishing_live_column_raises_at_the_same_input(name, n, k, from_end):
    # V zeroed on a late live column (``from_end`` live columns after it):
    # the sweep runs several inputs before it reaches that column
    p = _nof_protocol(name, n, k)
    col = np.flatnonzero(p.live_columns)[-1 - from_end]
    v = p.v.copy()
    v[:, col] = 0
    broken = dataclasses.replace(p, v=v)
    col_dims = p.exact_tensor.dims[p.split:]
    xs = next(x for x in p.f.inputs() if flat_offset(col_dims, x[p.split:]) == col)
    with pytest.raises(NormalizationError):
        run_nof(broken, xs)
    with pytest.raises(NormalizationError):
        strong_nondet_check(broken)
    ran, swept = [], []
    with pytest.raises(NormalizationError):
        for inp in broken.f.inputs():
            ran.append(per_input_nof(broken, inp))
    with pytest.raises(NormalizationError):
        for res in sweep_nof(broken, broken.f.inputs()):
            swept.append(dataclasses.astuple(res))
    assert len(ran) > 1 and [_hexed(*r) for r in swept] == [_hexed(*r) for r in ran]


def test_cost_formula_is_structural():
    for (name, n, k) in (("eq", 1, 3), ("eq", 2, 3), ("eq", 2, 4)):
        f = equality(n, k)
        d = eq_nondet_decomposition(n, k)
        p = build_nof_protocol(materialize(d), f)
        assert p.qubit_cost == math.ceil(math.log2(p.r)) + 1
        assert p.r <= d.term_count


_TABLE_SHAPES = [(n, k) for n in (1, 2, 3, 4) for k in (2, 3, 4, 5) if 2 ** (n * k) <= 256]


@st.composite
def truth_tables(draw):
    # any k-party function with side^k <= 256, the constants included
    n, k = draw(st.sampled_from(_TABLE_SHAPES))
    size = 2 ** (n * k)
    top = 2 ** size - 1
    mask = draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))
    dims = (2 ** n,) * k
    return BooleanFunction("table", n, k, lambda xs: (mask >> flat_offset(dims, xs)) & 1)


@seed(5)
@settings(max_examples=300, deadline=None)
@given(truth_tables())
def test_any_function_compiles_from_its_zero_one_tensor(f):
    # the first claim on arbitrary f: the 0/1 tensor's grouped rank r gives a
    # strong nondeterministic protocol of ceil(log2 r) + 1 qubits
    t = canonical_tensor(f)
    p = build_nof_protocol(t, f)
    assert strong_nondet_check(p).passed
    assert p.qubit_cost == (math.ceil(math.log2(p.r)) if p.r else 0) + 1
    g = group_matrize(t, (f.k + 1) // 2)
    assert p.r == exact_rank(g)
    # every column repeated, as when t gains a constant extra mode: same rank
    doubled = DenseTensor((g.rows, 2 * g.cols), [e for e in g.entries for _ in range(2)])
    assert p.r == exact_rank(doubled)


# ---------------------------------------------------------------------------
# extraction pipeline
# ---------------------------------------------------------------------------


def test_extract_families_single_accepted_branch():
    spec = constant_one_spec()
    b = simulate_branches(spec, (0, 0))
    members, a_vecs, b_vecs = extract_families(b)
    assert members == [(1,)]
    assert len(a_vecs) == len(b_vecs) == 1
    assert a_vecs[0].shape == (2,)
    assert b_vecs[0].shape == (2,)


def test_extract_families_size_is_half_the_branches():
    for ell in (1, 2, 3):
        spec = random_protocol(5, k=3, ell=ell)
        b = simulate_branches(spec, (0, 0, 0))
        members, a_vecs, b_vecs = extract_families(b)
        assert len(members) == 2 ** (ell - 1)
        assert a_vecs[0].shape == (2,)       # floor(3/2) = 1 player
        assert b_vecs[0].shape == (4,)       # remaining 2 players


def pair_families(fam_a, fam_b):
    """The (y, z) grid of accepted matrices sum_i A_i(y) B_i(z)^T built from
    per-pair vector families."""
    return np.array([[sum(np.outer(a, b) for a, b in zip(fam_a[y], fam_b[z]))
                      for z in fam_b] for y in fam_a])


ONE_ONE = np.array([[True]])
NO_ONES = np.array([[False]])


def test_coefficient_search_trivial():
    fam_a = {0: [np.array([1.0 + 0j])]}
    fam_b = {0: [np.array([1.0 + 0j])]}
    res = coefficient_search(pair_families(fam_a, fam_b), ONE_ONE,
                             set_size_exponent=3, rng_seed=1)
    assert res.attempts == 1
    assert all(c >= 1 for c in res.alpha + res.beta)


def test_coefficient_search_vacuous_on_empty_ones():
    fam_a = {0: [np.array([0.0 + 0j])]}
    fam_b = {0: [np.array([0.0 + 0j])]}
    assert coefficient_search(pair_families(fam_a, fam_b), NO_ONES, 3,
                              rng_seed=2).attempts == 1


def test_coefficient_search_exact_families():
    fam_a = {0: [np.array([1, -1], dtype=np.complex128)]}
    fam_b = {0: [np.array([2], dtype=np.complex128)]}
    res = coefficient_search(pair_families(fam_a, fam_b), ONE_ONE,
                             set_size_exponent=4, rng_seed=3)
    # v = (a1 - a2) * 2 * b1 must be nonzero, i.e. alpha components differ
    assert res.alpha[0] != res.alpha[1]


def test_coefficient_search_not_found():
    fam_a = {0: [np.array([0.0 + 0j])]}
    fam_b = {0: [np.array([1.0 + 0j])]}
    with pytest.raises(CoefficientNotFound):
        coefficient_search(pair_families(fam_a, fam_b), ONE_ONE, 3, rng_seed=4,
                           max_attempts=5)


@st.composite
def integer_families(draw):
    # fam_a / fam_b: keys -> equally many integer-valued complex vectors
    count = draw(st.integers(1, 3))
    ints = st.integers(-3, 3)

    def family(keys, dim):
        return {key: [np.array([complex(draw(ints), draw(ints)) for _ in range(dim)])
                      for _ in range(count)] for key in range(keys)}

    fam_a = family(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    fam_b = family(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return fam_a, fam_b, draw(st.integers(0, 2 ** 16))


@seed(11)
@settings(max_examples=60, deadline=None)
@given(integer_families())
def test_coefficient_search_grouped_matches_per_pair_sum(case):
    fam_a, fam_b, rng_seed = case
    families = pair_families(fam_a, fam_b)
    res = coefficient_search(families, np.zeros(families.shape[:2], dtype=bool),
                             set_size_exponent=4, rng_seed=rng_seed)
    alpha = np.array(res.alpha, dtype=np.complex128)
    beta = np.array(res.beta, dtype=np.complex128)
    oracle = [[sum((alpha @ a) * (beta @ b) for a, b in zip(fam_a[y], fam_b[z]))
               for z in fam_b] for y in fam_a]
    # small Gaussian integers: every sum is exact in complex128
    assert np.array_equal(res.grouped, np.array(oracle))


def test_relay_families_admit_coefficients_across_seeds():
    families, ones = nih_families(trivial_eq_relay_spec(1), equality(1, 3))
    for s in range(1, 6):
        res = coefficient_search(families, ones, set_size_exponent=4,
                                 rng_seed=s, max_attempts=10)
        assert res.attempts <= 10


def test_relay_grouped_matrix_matches_dense_accepted_amplitudes():
    # grouped[y, z] = alpha^T M(y,z) beta with M(y,z) the dense c = 1 half
    # at (y, z), reshaped Da x Db; the relay's integers make it exact.  Every
    # input counts: a transcript live at (y, z) may be dead at (y, 0, 0)
    spec = trivial_eq_relay_spec(2)
    f = equality(2, 3)
    families, ones = nih_families(spec, f)
    res = coefficient_search(families, ones, set_size_exponent=7, rng_seed=7)
    alpha = np.array(res.alpha, dtype=np.complex128)
    beta = np.array(res.beta, dtype=np.complex128)
    oracle = np.zeros((4, 16), dtype=np.complex128)
    for xs in f.inputs():
        accepted = simulate_dense(spec, xs)[1::2].reshape(2, 32)
        oracle[xs[0], xs[1] * 4 + xs[2]] = alpha @ accepted @ beta
    assert np.array_equal(res.grouped, oracle)
    assert np.count_nonzero(oracle) == 4


# ---------------------------------------------------------------------------
# premise sweep
# ---------------------------------------------------------------------------

H = 1 / math.sqrt(2)


def _literal(rows):
    return " ; ".join(" ".join(f"{complex(v).real!r}{complex(v).imag:+}i" for v in row)
                      for row in rows)


# the n = 1 relay with two literal turns: a Hadamard on player 2's local
# qubit before anything else, and phases on player 1's (local, channel)
# state after its write; neither changes which inputs accept
MATRIX_RELAY_SCENARIO = "\n".join([
    "mode nih", "players 3", "bits 1", "dims 2 2 4",
    "turn 2 matrix " + _literal([[H, 0, H, 0], [0, H, 0, H], [H, 0, -H, 0], [0, H, 0, -H]]),
    "turn 1 write-bit 1",
    "turn 1 matrix " + _literal(np.diag([1, 1j, -1, -1j])),
    "turn 3 store 1",
    "turn 2 write-bit 1",
    "turn 3 store 2",
    "turn 3 compare-and-flag",
]) + "\n"


def _matrix_relay(tmp_path):
    path = tmp_path / "matrix_relay.scn"
    path.write_text(MATRIX_RELAY_SCENARIO)
    return read_scenario(path)


def _assert_same_families(spec, f):
    families, ones = nih_families(spec, f)
    oracle_families, oracle_ones = per_input_families(spec, f)
    assert families.tobytes() == oracle_families.tobytes()
    assert ones.tobytes() == oracle_ones.tobytes()
    return families


@pytest.mark.parametrize("make_spec, f", [
    (lambda: trivial_eq_relay_spec(1), equality(1, 3)),
    (lambda: trivial_eq_relay_spec(2), equality(2, 3)),
    (lambda: constant_one_spec(1, 2), constant(1, 2, 1)),
    (lambda: constant_one_spec(2, 3), constant(2, 3, 1)),
    (lambda: constant_one_spec(1, 4), constant(1, 4, 1)),
], ids=["relay_n1", "relay_n2", "const1_1_2", "const1_2_3", "const1_1_4"])
def test_sweep_families_match_per_input_simulation(make_spec, f):
    _assert_same_families(make_spec(), f)


def test_sweep_families_with_matrix_turns(tmp_path):
    families = _assert_same_families(_matrix_relay(tmp_path), equality(1, 3))
    # the Hadamard and the phases reach the families: not a 0/1 array
    assert np.any(families.imag != 0) and np.any(np.abs(families) == H)


@seed(13)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 6))
def test_sweep_families_match_on_random_protocols(master_seed, k, ell):
    _assert_same_families(random_protocol(master_seed, k=k, ell=ell), constant(1, k, 1))


def test_unchanged_sweep_state_is_extracted_once(monkeypatch):
    # the one turn reads no string, so no turn re-runs after the first input
    calls = []
    extract = protocol.extract_families
    monkeypatch.setattr(protocol, "extract_families", lambda b: calls.append(b) or extract(b))
    _assert_same_families(constant_one_spec(2, 3), constant(2, 3, 1))
    assert len(calls) == 1


def _count_builds(monkeypatch):
    builds = []
    build = protocol._turn_unitary

    def counted(spec, idx, xs):
        builds.append(idx)
        return build(spec, idx, xs)

    monkeypatch.setattr(protocol, "_turn_unitary", counted)
    return builds


@pytest.mark.parametrize("make_spec, f, expected", [
    # 8 inputs x 5 turns rebuilt from the start would be 40
    (lambda: trivial_eq_relay_spec(1), equality(1, 3), 16),
    # 64 x 9 = 576
    (lambda: trivial_eq_relay_spec(2), equality(2, 3), 108),
    # one input-free turn, built once instead of at each of 64 inputs
    (lambda: constant_one_spec(2, 3), constant(2, 3, 1), 1),
    # players 1 then 2: 8 builds of turn 1 and 64 of turn 2, not 2 x 64
    (lambda: random_protocol(3, k=2, ell=2, mode="nih", n=3), constant(3, 2, 1), 72),
], ids=["relay_n1", "relay_n2", "const1_2_3", "random_3_2_2_n3"])
def test_sweep_builds_only_changed_turns(monkeypatch, make_spec, f, expected):
    spec = make_spec()
    builds = _count_builds(monkeypatch)
    nih_families(spec, f)
    assert len(builds) == expected


def test_sweep_resumes_after_the_unchanged_prefix(monkeypatch):
    # relay n = 1 turns: write-bit x1, store, write-bit x2, store, compare x3;
    # a re-run turn whose own input did not change keeps its unitary
    builds = _count_builds(monkeypatch)
    inputs = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 1)]
    states = list(protocol.sweep_branches(trivial_eq_relay_spec(1), inputs))
    assert builds == [0, 1, 2, 3, 4, 4, 2, 0]
    assert [s.accept_probability() for s in states] == [1.0, 0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("make_spec, f, first", [
    (lambda: trivial_eq_relay_spec(1), constant(1, 3, 1), (0, 0, 1)),
    (lambda: trivial_eq_relay_spec(1), constant(1, 3, 0), (0, 0, 0)),
    (lambda: trivial_eq_relay_spec(2), equality(2, 3), None),
    (lambda: constant_one_spec(1, 3), equality(1, 3), (0, 0, 1)),
], ids=["relay_vs_const1", "relay_vs_const0", "relay_n2_vs_eq", "const1_vs_eq"])
def test_premise_violation_names_the_first_input(make_spec, f, first):
    spec = make_spec()
    if first is None:
        # player 3 also flips the channel after compare-and-flag when its
        # string is 3, so (0, 0, 3) accepts
        flag = spec.turns[-1].make
        flip = np.eye(32)[[i ^ 1 for i in range(32)]]
        turn = Turn(3, lambda own: flip @ flag(own) if own == 3 else flag(own))
        spec = dataclasses.replace(spec, turns=spec.turns[:-1] + (turn,))
        first = (0, 0, 3)
    message = f"protocol acceptance at {first} disagrees with {f.name}"
    with pytest.raises(PremiseViolation) as swept:
        nih_families(spec, f)
    with pytest.raises(PremiseViolation) as oracle:
        per_input_families(spec, f)
    assert str(swept.value) == str(oracle.value) == message


@pytest.mark.parametrize("mode, visible, key", [
    ("nih", 1, [1]),
    ("nof", (0, 1), [0, 1]),
])
def test_random_turn_draws_each_visible_string_once(mode, visible, key):
    spec = random_protocol(11, k=3, ell=2, mode=mode)
    turn = spec.turns[1]
    u = turn.make(visible)
    assert turn.make(visible) is u
    assert not u.flags.writeable
    seq = np.random.SeedSequence([11, 1, turn.player] + key)
    assert u.tobytes() == haar_unitary(np.random.default_rng(seq), 4).tobytes()


def _count_draws(monkeypatch):
    draws = []
    draw = protocol.haar_unitary

    def counted(rng, dim):
        draws.append(dim)
        return draw(rng, dim)

    monkeypatch.setattr(protocol, "haar_unitary", counted)
    return draws


def test_random_certificate_draws_each_turn_unitary_once(monkeypatch):
    # 8 strings for each of the 2 turns, against the 72 turn builds of
    # test_sweep_builds_only_changed_turns; a second sweep draws none
    draws = _count_draws(monkeypatch)
    spec = random_protocol(3, k=2, ell=2, mode="nih", n=3)
    nih_families(spec, constant(3, 2, 1))
    assert len(draws) == 16
    nih_families(spec, constant(3, 2, 1))
    assert len(draws) == 16


def test_branch_and_dense_simulation_share_draws(monkeypatch):
    draws = _count_draws(monkeypatch)
    spec = random_protocol(5, k=3, ell=6)
    simulate_branches(spec, (0, 1, 0))
    simulate_dense(spec, (0, 1, 0))
    assert len(draws) == spec.ell


# ---------------------------------------------------------------------------
# NIH certificate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_nih_certificate_relay(n):
    # the grouped matrix has one nonzero per row, in distinct columns
    cert = nih_rank_certificate(trivial_eq_relay_spec(n), equality(n, 3), rng_seed=7)
    assert cert.ell == 4 * n + 1
    assert cert.rank_bound == 2 ** (4 * n)
    assert cert.grouped_rank == 2 ** n
    assert cert.pattern_ok
    assert cert.pattern_rank == 2 ** n
    assert cert.implied_min_cost == n + 1
    assert cert.cost_bound_ok


def test_nih_certificate_relay_n3():
    # 13 turns and 512 inputs: feasible because each input keeps one live
    # branch instead of 2^13
    cert = nih_rank_certificate(trivial_eq_relay_spec(3), equality(3, 3), rng_seed=7)
    assert cert.ell == 13
    assert cert.grouped_rank == 8
    assert cert.pattern_ok
    assert cert.cost_bound_ok


@pytest.mark.parametrize("rng_seed", [1, 2, 3])
def test_nih_certificate_haar_protocol_rank_within_bound(rng_seed):
    # Haar-random turn unitaries: the float grouped matrix has rank 2; its
    # third singular value is rounding noise, 10.0x, 13.7x and 17.8x below
    # the cutoff at seeds 2, 1 and 3
    spec = random_protocol(3, k=2, ell=2, mode="nih", n=3)
    cert = nih_rank_certificate(spec, constant(3, 2, 1), rng_seed=rng_seed)
    assert cert.rank_bound == 2
    assert cert.grouped_rank == 2
    assert cert.pattern_ok


def test_nih_certificate_constant_one():
    cert = nih_rank_certificate(constant_one_spec(), constant(1, 2, 1), rng_seed=3)
    assert cert.ell == 1
    assert cert.grouped_rank <= 1
    assert cert.pattern_ok


def test_nih_certificate_premise_violation():
    with pytest.raises(PremiseViolation):
        nih_rank_certificate(constant_one_spec(1, 3), equality(1, 3), rng_seed=1)


def test_nih_certificate_requires_nih_mode():
    spec = random_protocol(3, k=2, ell=1, mode="nof")
    with pytest.raises(PremiseViolation):
        nih_rank_certificate(spec, constant(1, 2, 1), rng_seed=1)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

RELAY_N1_SCENARIO = """\
# trivial 3-party equality relay, one bit per player
mode nih
players 3
bits 1
dims 2 2 4
turn 1 write-bit 1
turn 3 store 1
turn 2 write-bit 1
turn 3 store 2
turn 3 compare-and-flag
"""


def test_scenario_roundtrip(tmp_path):
    path = tmp_path / "relay.scn"
    path.write_text(RELAY_N1_SCENARIO)
    spec = read_scenario(path)
    assert spec.mode == "nih" and spec.k == 3 and spec.ell == 5
    cert = nih_rank_certificate(spec, equality(1, 3), rng_seed=7)
    builder_cert = nih_rank_certificate(trivial_eq_relay_spec(1),
                                        equality(1, 3), rng_seed=7)
    assert cert == builder_cert


def test_scenario_matrix_literal(tmp_path):
    h = 1 / math.sqrt(2)
    row = " ".join
    lines = [
        "mode nih", "players 2", "bits 1", "dims 2 2",
        # I (x) H acting on H_1 (x) C
        "turn 1 matrix "
        f"{h}+0.0i {h}+0.0i 0.0+0.0i 0.0+0.0i ; "
        f"{h}+0.0i {-h}+0.0i 0.0+0.0i 0.0+0.0i ; "
        f"0.0+0.0i 0.0+0.0i {h}+0.0i {h}+0.0i ; "
        f"0.0+0.0i 0.0+0.0i {h}+0.0i {-h}+0.0i",
    ]
    path = tmp_path / "had.scn"
    path.write_text("\n".join(lines) + "\n")
    spec = read_scenario(path)
    b = simulate_branches(spec, (0, 0))
    assert abs(b.norm_history[-1] - 1.0) < 1e-12
    assert abs(b.accept_probability() - 0.5) < 1e-12


def test_scenario_unknown_generator(tmp_path):
    from nqtensor.errors import FormatError

    path = tmp_path / "bad.scn"
    path.write_text("mode nih\nplayers 2\nbits 1\ndims 2 2\nturn 1 frobnicate\n")
    with pytest.raises(FormatError) as err:
        read_scenario(path)
    assert err.value.line == 5


def test_scenario_missing_directive(tmp_path):
    from nqtensor.errors import FormatError

    path = tmp_path / "bad.scn"
    path.write_text("players 2\nbits 1\ndims 2 2\nturn 1 flip-channel\n")
    with pytest.raises(FormatError):
        read_scenario(path)


def test_scenario_nof_with_input_reading_generator(tmp_path):
    from nqtensor.errors import FormatError

    path = tmp_path / "bad.scn"
    path.write_text("mode nof\nplayers 2\nbits 1\ndims 2 2\nturn 1 write-bit 1\n")
    with pytest.raises(FormatError):
        read_scenario(path)
