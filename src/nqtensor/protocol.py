"""Quantum multiparty protocol machinery.

Model: k players with local spaces H_1..H_k plus a single-qubit channel C.
A protocol is a fixed turn list; on player i's turn a unitary acts on
H_i (x) C and as the identity elsewhere, and it may depend only on player i's
own string: the Number-In-Hand (NIH) model of the lower bound.  The
Number-On-Forehead (NOF) upper bound runs on a protocol compiled from a
tensor instead (the SVD route below).

The initial state is |0...0>|0> with no prior entanglement, and the protocol
accepts with the probability of measuring the channel in |1> at the end.

Three views of a protocol live here:

* a branch-form simulator, splitting the state along channel basis states so
  the result is a sum over transcripts of per-player product vectors; a
  transcript whose product is exactly zero is dropped as soon as it is, so a
  classical protocol keeps one live transcript per input.  It takes no
  Kronecker product per branch: a player vector enters its turn's unitary
  through the channel slots of a zero vector, a 0/1 permutation turn is an
  index map that moves the vector's entries to their new slots, and
  products of player vectors are folded with outer products, bit for bit
  what ``np.kron`` computes.  A turn's unitary is a function of what its
  generator sees, so a sweep over many inputs re-runs a turn only when what
  it or an earlier turn sees has changed, and builds an input-free turn
  once;
* a dense statevector simulator used as an independent cross-check;
* the SVD route: compress one grouped half of any tensor with f's support
  (its 0/1 tensor or a nondeterministic one), split after player
  ceil(k/2), into ceil(log2 r) qubits and read the acceptance amplitude
  off the factors; a column half with no 1-input rejects from the exact
  tensor, not a float norm, and a sweep builds each live column half's
  compressed state once.

On top of the branch form sits the extraction pipeline: one sweep over every
input checks the premise and keeps each input's accepted vector as a matrix
over two halves of the players (a sum over its live accepted transcripts of
at most 2^(ell-1) products); an input at which no turn re-ran has the
previous input's state, so it takes that input's decision and matrix.
Certifying contracts the matrices with integer coefficients on both sides
and checks the zero pattern and rank of the resulting grouped matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import (
    CoefficientNotFound,
    DimMismatch,
    FormatError,
    NonUnitary,
    NormalizationError,
    PatternMismatch,
    PremiseViolation,
    SizeCapExceeded,
)
from .functions import BooleanFunction, check_strings
from .rank_bounds import pattern_check
from .scalar_linalg import (
    EC_ONE,
    EC_ZERO,
    exact_rank,
    numerical_rank,
    parse_float_scalar,
    parse_ints,
    read_lines,
    svd,
    to_float,
)
from .tensor_core import DenseTensor, check_size_cap, flat_offset, group_matrize

# ---------------------------------------------------------------------------
# Unitary helpers
# ---------------------------------------------------------------------------


def unitarity_defect(m: np.ndarray) -> float:
    """max |m^H m - I| of a square matrix ``m``; NaN if any entry is NaN.

    A permutation matrix gives exactly 0.0: each entry of the product sums
    one 1 * 1 and zeros.  Permutation turns are index maps and never reach
    this check (see :func:`_turn_unitary`).
    """
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random ``dim x dim`` unitary: the Q factor of the QR
    decomposition of a complex Ginibre matrix (independent standard normal
    real and imaginary parts), each column multiplied by the phase of R's
    diagonal entry so that the draw is Haar and not biased by QR's sign
    convention."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _permutation(d: int, image) -> np.ndarray:
    """The read-only index map of |h,c> -> |image(h, c)> on H (x) C, dim H = d:
    entry ``2h + c`` holds ``2h' + c'``.  The size cap is checked on the
    ``2d x 2d`` unitary that the map stands for."""
    check_size_cap((2 * d, 2 * d))
    out = np.array([2 * h2 + c2 for h in range(d) for c in range(2)
                    for h2, c2 in (image(h, c),)], dtype=np.intp)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Turn generator library
# ---------------------------------------------------------------------------
#
# A generator is a callable visible -> unitary on H_player (x) C.  A 0/1
# permutation (write-bit, flip-channel, cnot-channel, store, compare-and-flag)
# is returned as its index map, a 1-D integer array `image` of length 2d that
# sends basis state j = 2h + c to `image[j]`; any other unitary is a dense
# 2d x 2d matrix.  Each permutation generator still checks the size cap on
# the 2d x 2d unitary its map stands for.  `visible` is the acting player's
# own string, the one visibility rule.  A unitary that does not depend on the
# input is built once, with the generator, and every call returns that one
# read-only array; such a generator is tagged `input_free`, so a sweep over
# inputs builds and checks its turn once.


def _named(make, label: str, input_free: bool = False):
    """Tag a generator with its turn label and whether it reads no input."""
    make.label = label
    make.input_free = input_free
    return make


def _fixed(u: np.ndarray, label: str):
    """A generator that returns the one read-only unitary ``u`` at every input."""
    return _named(lambda visible: u, label, input_free=True)


def gen_write_bit(d: int, n: int, j: int):
    """Channel <- channel xor (bit j of the player's own string)."""
    if not 1 <= j <= n:
        raise DimMismatch(f"bit index {j} out of range 1..{n}")
    by_bit = (_permutation(d, lambda h, c: (h, c)),
              _permutation(d, lambda h, c: (h, c ^ 1)))

    def make(visible):
        return by_bit[(int(visible) >> (n - j)) & 1]

    return _named(make, f"write-bit {j}")


def gen_flip_channel(d: int):
    """Unconditional NOT on the channel qubit."""
    return _fixed(_permutation(d, lambda h, c: (h, c ^ 1)), "flip-channel")


def _check_slot(d: int, slot: int) -> None:
    """:class:`DimMismatch` unless ``d = 2^q`` with ``1 <= slot <= q``."""
    if d & (d - 1) or not 1 <= slot or d >> slot == 0:
        raise DimMismatch(f"player dim {d} has no qubit slot {slot}")


def gen_cnot_channel(d: int, slot: int):
    """CNOT: control = local qubit `slot` (1-based), target = channel."""
    _check_slot(d, slot)
    u = _permutation(d, lambda h, c: (h, c ^ ((h >> (slot - 1)) & 1)))
    return _fixed(u, f"cnot-channel {slot}")


def gen_store(d: int, slot: int):
    """Swap the channel qubit into local slot `slot` (1-based)."""
    _check_slot(d, slot)
    bit = slot - 1
    u = _permutation(d, lambda h, c: ((h & ~(1 << bit)) | (c << bit), (h >> bit) & 1))
    return _fixed(u, f"store {slot}")


def gen_compare_and_flag(d: int, n: int):
    """Flip the channel iff two locally stored n-bit strings and the player's
    own string are all equal.

    Local layout: qubits 0..n-1 hold the first stored string (qubit j-1 is
    string bit j), qubits n..2n-1 the second.  Only the local state
    ``s | (s << n)``, where ``s`` packs the own string into qubits 0..n-1,
    holds it twice, so the index map is the identity with the channel
    swapped at that one state: 2d entries per input, not a 2d x 2d matrix.
    """
    if d != 4 ** n:
        raise DimMismatch(f"compare-and-flag needs player dim {4 ** n}, got {d}")
    check_size_cap((2 * d, 2 * d))

    def make(visible):
        own = int(visible)
        s = sum(((own >> (n - j)) & 1) << (j - 1) for j in range(1, n + 1))
        k = 2 * (s | (s << n))
        image = np.arange(2 * d, dtype=np.intp)
        image[k], image[k + 1] = k + 1, k
        image.flags.writeable = False
        return image

    return _named(make, "compare-and-flag")


def gen_matrix_literal(d: int, matrix: np.ndarray):
    """A fixed, input-independent unitary supplied as a literal.

    A literal whose unitarity defect exceeds the tolerance, or is NaN, raises
    :class:`NonUnitary` here, once.
    """
    m = np.array(matrix, dtype=np.complex128)
    if m.shape != (2 * d, 2 * d):
        raise DimMismatch(f"literal must be {2 * d}x{2 * d}, got {m.shape}")
    defect = unitarity_defect(m)
    if not defect <= config.UNITARY_TOL:  # a NaN defect fails too
        raise NonUnitary(f"literal has unitarity defect {defect:.3e}")
    m.flags.writeable = False
    return _fixed(m, "matrix")


# ---------------------------------------------------------------------------
# Protocol specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Turn:
    player: int
    make: callable = field(repr=False)

    @property
    def label(self) -> str:
        return getattr(self.make, "label", "custom")


@dataclass(frozen=True)
class ProtocolSpec:
    """An NIH protocol: each turn's generator sees the acting player's own
    string."""

    k: int
    n: int
    player_dims: tuple
    turns: tuple

    def __post_init__(self):
        if len(self.player_dims) != self.k:
            raise DimMismatch("need one dimension per player")
        for t in self.turns:
            if not 1 <= t.player <= self.k:
                raise DimMismatch(f"turn player {t.player} out of range")

    @property
    def ell(self) -> int:
        return len(self.turns)

    def visible(self, player: int, xs) -> int:
        return xs[player - 1]

    def check_input(self, xs) -> tuple:
        return check_strings(xs, self.k, self.n, "protocol")


# ---------------------------------------------------------------------------
# Branch-form simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchState:
    """State after ell turns, split along channel transcripts.

    ``branches`` maps each live transcript m (tuple of ell bits) to one
    vector per player; the physical state is the sum over m of the
    per-player product tensored with the channel basis vector |m_ell>.  A
    transcript is live unless one of its player vectors became exactly zero;
    the others add exactly zero to the state and are left out.
    ``turn_branches`` holds the branches after each turn, the last of them
    ``branches``; :attr:`norm_history` is computed from them when it is read.
    """

    player_dims: tuple
    branches: dict
    turn_branches: tuple

    @property
    def ell(self) -> int:
        return len(self.turn_branches)

    @property
    def norm_history(self) -> tuple:
        """The total squared norm of the branches after each turn."""
        return tuple(_total_sq_norm(b) for b in self.turn_branches)

    def accepted_transcripts(self):
        return sorted(m for m in self.branches if m and m[-1] == 1)

    def accept_vector(self) -> np.ndarray:
        """Sum over transcripts ending in 1 of the per-player products.

        The size cap is checked on its ``prod(player_dims)`` entries before
        they are allocated.
        """
        dim = math.prod(self.player_dims)
        check_size_cap((dim,))
        acc = np.zeros(dim, dtype=np.complex128)
        for m in self.accepted_transcripts():
            acc += _kron_all(self.branches[m])
        return acc

    def accept_probability(self) -> float:
        v = self.accept_vector()
        return float(np.vdot(v, v).real)

    def recontract(self) -> np.ndarray:
        """Full statevector over H_1 (x) ... (x) H_k (x) C.

        The channel is the fastest axis: index = flat_player_index * 2 + c.
        The size cap is checked on those ``prod(player_dims) * 2`` entries
        before they are allocated.
        """
        dim = math.prod(self.player_dims)
        check_size_cap((dim, 2))
        out = np.zeros(dim * 2, dtype=np.complex128)
        for m, vecs in self.branches.items():
            c = m[-1] if m else 0
            out[c::2] += _kron_all(vecs)
        return out


def _kron_all(vecs) -> np.ndarray:
    """Kronecker product of ``vecs`` in order; [1] for none.

    Each step is the outer product that ``np.kron`` of two vectors computes,
    on the same operands, so the result has the same bits.
    """
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = np.multiply.outer(out, v).ravel()
    return out


def _turn_unitary(spec: ProtocolSpec, idx: int, xs) -> np.ndarray:
    """Turn ``idx``'s unitary at input ``xs``; :class:`NonUnitary` unless it
    is a unitary on H_player (x) C.

    A 1-D integer array is an index map (see the turn generator library): it
    is returned as it is when it is a bijection of range(2d), an O(d) check,
    since a 0/1 permutation is unitary exactly then.  Anything else is taken
    as a dense matrix and checked by :func:`unitarity_defect`.
    """
    turn = spec.turns[idx]
    d = spec.player_dims[turn.player - 1]
    label = f"turn {idx + 1} ({turn.label})"
    w = turn.make(spec.visible(turn.player, xs))
    if isinstance(w, np.ndarray) and w.ndim == 1 and w.dtype.kind in "iu":
        hit = np.zeros(2 * d, dtype=bool)
        if len(w) == 2 * d and w.min() >= 0 and w.max() < 2 * d:
            hit[w] = True
        if not hit.all():
            raise NonUnitary(f"{label}: index map is not a permutation of range({2 * d})")
        return w
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (2 * d, 2 * d):
        raise NonUnitary(f"{label}: expected {2 * d}x{2 * d}, got {w.shape}")
    defect = unitarity_defect(w)
    if not defect <= config.UNITARY_TOL:  # a NaN defect fails too
        raise NonUnitary(f"{label}: unitarity defect {defect:.3e}")
    return w


def _turn_step(spec: ProtocolSpec, idx: int, w: np.ndarray, branches: dict,
               cap: int) -> dict:
    """Apply turn ``idx``'s unitary ``w`` to ``branches``; the live children.

    A branch enters the turn as the acting player's vector ``v`` written into
    the slots ``c::2`` of a zero vector, ``c`` the branch's last channel bit.
    That vector is ``np.kron(v, e_c)`` up to the sign of zero components,
    which changes no nonzero sum; the tests check every output bit against
    ``np.kron``.  An index map ``w`` scatters ``v`` into a zero vector at
    ``w[c::2]`` instead of taking the product: each output entry is an entry
    of ``v`` or +0, the product with the 0/1 matrix up to the sign of zeros,
    and bit for bit that product on non-negative vectors such as the
    relay's.  A child whose new player vector is exactly zero is dropped:
    its product, and so its share of every sum over branches, is exactly
    zero.  Raises :class:`SizeCapExceeded` once the live children times the
    summed player dimensions exceed ``cap``.
    """
    p = spec.turns[idx].player - 1
    d = spec.player_dims[p]
    new = {}
    for m, vecs in branches.items():
        c = m[-1] if m else 0
        out = np.zeros(2 * d, dtype=np.complex128)
        if w.ndim == 1:
            out[w[c::2]] = vecs[p]
        else:
            out[c::2] = vecs[p]
            out = w @ out
        out = out.reshape(d, 2)
        for c2 in (0, 1):
            if not out[:, c2].any():
                continue
            child = list(vecs)
            child[p] = out[:, c2].copy()
            new[m + (c2,)] = tuple(child)
    entries_per_branch = sum(spec.player_dims)
    if len(new) * entries_per_branch > cap:
        raise SizeCapExceeded(
            f"turn {idx + 1}: {len(new)} live branches x "
            f"{entries_per_branch} entries exceed cap {cap}")
    return new


def sweep_branches(spec: ProtocolSpec, inputs):
    """Run the protocol at each input in turn; yield each input's
    :class:`BranchState`, in order.

    A turn's key is what its generator sees, or ``None`` for a generator
    tagged input-free.  Its unitary is a function of its key, so the state
    after turn t is a function of the keys of turns 1..t.  The sweep keeps
    the branches after every turn of the previous input and resumes after
    the longest prefix of turns whose keys are unchanged; a re-run turn
    whose own key is unchanged reuses its unitary; when no turn re-runs, the
    yielded state holds the previous input's ``branches`` object.  Every
    state is what a run from the start computes, bit for bit, and a turn or
    cap failure is raised at the same input.
    """
    cap = config.size_cap()
    initial = tuple(_basis_zero(d) for d in spec.player_dims)
    states = [{(): initial}]  # states[t]: the branches after t turns
    keys = [object()] * spec.ell  # equal to no key: no turn has run
    unitaries = [None] * spec.ell
    for xs in inputs:
        xs = spec.check_input(xs)
        now = [None if getattr(turn.make, "input_free", False)
               else spec.visible(turn.player, xs) for turn in spec.turns]
        resume = next((t for t in range(spec.ell) if now[t] != keys[t]), spec.ell)
        del states[resume + 1:]
        for t in range(resume, spec.ell):
            if now[t] != keys[t]:
                unitaries[t] = _turn_unitary(spec, t, xs)
                keys[t] = now[t]
            states.append(_turn_step(spec, t, unitaries[t], states[-1], cap))
        yield BranchState(spec.player_dims, states[-1], tuple(states[1:]))


def _basis_zero(d: int) -> np.ndarray:
    """|0> in C^d, built from d entries."""
    v = np.zeros(d, dtype=np.complex128)
    v[0] = 1.0
    return v


def simulate_branches(spec: ProtocolSpec, xs) -> BranchState:
    """Run the protocol at one input, splitting one branch per channel basis
    state: the sweep of :func:`sweep_branches` over ``xs`` alone.

    Each turn's generator must be a function of what it sees: a sweep
    reuses a unitary wherever that input repeats.
    """
    return next(sweep_branches(spec, (xs,)))


def _total_sq_norm(branches) -> float:
    total = 0.0
    for vecs in branches.values():
        prod_sq = 1.0
        for v in vecs:
            prod_sq *= float(np.vdot(v, v).real)
        total += prod_sq
    return total


def simulate_dense(spec: ProtocolSpec, xs) -> np.ndarray:
    """Reference statevector simulation over the full product space; the
    size cap is checked on its ``prod(player_dims) * 2`` entries before any
    is allocated.  An index map is written out as its dense 0/1 matrix, so
    this simulator shares no arithmetic with the branch form's scatter."""
    xs = spec.check_input(xs)
    dims = tuple(spec.player_dims) + (2,)
    check_size_cap(dims)
    state = np.zeros(dims, dtype=np.complex128)
    state[(0,) * len(dims)] = 1.0
    k = spec.k
    for idx, turn in enumerate(spec.turns):
        p = turn.player - 1
        d = spec.player_dims[p]
        w = _turn_unitary(spec, idx, xs)
        if w.ndim == 1:
            dense = np.zeros((2 * d, 2 * d), dtype=np.complex128)
            dense[w, np.arange(2 * d)] = 1.0
            w = dense
        w = w.reshape(d, 2, d, 2)
        # contract (player axis, channel axis) with the unitary's input axes
        state = np.tensordot(state, w, axes=([p, k], [2, 3]))
        # tensordot appends the output axes; move the player axis back
        state = np.moveaxis(state, k - 1, p)
    return state.reshape(-1)


# ---------------------------------------------------------------------------
# Canned protocols
# ---------------------------------------------------------------------------


def trivial_eq_relay_spec(n: int) -> ProtocolSpec:
    """The trivial NIH protocol for 3-party equality.

    Players 1 and 2 write their strings bit by bit; player 3 banks each bit
    into local qubits and finally flips the channel iff both stored strings
    equal its own.  Cost: 4n+1 turns.
    """
    d3 = 4 ** n
    turns = []
    for j in range(1, n + 1):
        turns.append(Turn(1, gen_write_bit(2, n, j)))
        turns.append(Turn(3, gen_store(d3, j)))
    for j in range(1, n + 1):
        turns.append(Turn(2, gen_write_bit(2, n, j)))
        turns.append(Turn(3, gen_store(d3, n + j)))
    turns.append(Turn(3, gen_compare_and_flag(d3, n)))
    return ProtocolSpec(3, n, (2, 2, d3), tuple(turns))


def constant_one_spec(n: int = 1, k: int = 2) -> ProtocolSpec:
    """One turn: player 1 unconditionally raises the channel."""
    dims = (2,) * k
    return ProtocolSpec(k, n, dims, (Turn(1, gen_flip_channel(2)),))


def random_protocol(master_seed: int, k: int, ell: int, mode: str = "nih",
                    dim: int = 2, n: int = 1) -> ProtocolSpec:
    """Seeded random protocol with input-dependent Haar unitaries.

    Every turn's unitary is drawn from the seed sequence (master seed, turn
    index, acting player, acting player's string), so two runs with the same
    seed agree.  ``mode`` must be ``"nih"``, the one turn-based model.  Each
    turn keeps the read-only unitary it drew for each visible string, so one
    protocol object draws each (turn, visible string) unitary once, however
    many inputs or simulations reuse it.
    """
    if mode != "nih":
        raise ValueError(f"mode must be 'nih', got {mode!r}")
    order_rng = np.random.default_rng(np.random.SeedSequence([master_seed, k, ell]))
    players = [int(order_rng.integers(1, k + 1)) for _ in range(ell)]
    turns = [Turn(player, _haar_generator(master_seed, t, player, dim))
             for t, player in enumerate(players)]
    return ProtocolSpec(k, n, (dim,) * k, tuple(turns))


def _haar_generator(master_seed: int, t: int, player: int, dim: int):
    """Turn ``t`` of :func:`random_protocol`: a Haar unitary per visible
    string, drawn at its first call and returned read-only after that."""
    drawn = {}

    def make(visible):
        key = int(visible)
        if key not in drawn:
            seq = np.random.SeedSequence([master_seed, t, player, key])
            u = haar_unitary(np.random.default_rng(seq), 2 * dim)
            u.flags.writeable = False
            drawn[key] = u
        return drawn[key]

    return _named(make, f"random {t}")


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_GENERATOR_PARSERS = {
    "write-bit": lambda d, n, args, line: gen_write_bit(d, n, _one_int(args, line)),
    "flip-channel": lambda d, n, args, line: gen_flip_channel(d),
    "cnot-channel": lambda d, n, args, line: gen_cnot_channel(d, _one_int(args, line)),
    "store": lambda d, n, args, line: gen_store(d, _one_int(args, line)),
    "compare-and-flag": lambda d, n, args, line: gen_compare_and_flag(d, n),
    "matrix": lambda d, n, args, line: gen_matrix_literal(d, _parse_matrix(args, line)),
}
_NO_ARGUMENT = ("flip-channel", "compare-and-flag")


def _one_int(args, line, message="generator takes exactly one integer argument"):
    if len(args) != 1:
        raise FormatError(message, line)
    return parse_ints(args, line, f"bad integer {args[0]!r}")[0]


def _parse_matrix(args, line):
    rows = [[parse_float_scalar(tok, line) for tok in row.split()]
            for row in " ".join(args).split(";")]
    if len({len(row) for row in rows}) != 1:
        raise FormatError("matrix rows differ in length", line)
    return np.array(rows)


def read_scenario(path) -> ProtocolSpec:
    """Parse a protocol scenario file.

    Grammar (one directive per line, '#' comments, every directive but
    ``turn`` at most once)::

        mode nih
        players K
        bits N
        dims D_1 ... D_K
        turn PLAYER GENERATOR [ARGS...]
    """
    lines, last = read_lines(path, comments=True)
    mode = k = n = dims = dims_line = None
    turn_lines = []
    seen = set()
    for lineno, toks in lines:
        key = toks[0]
        if key in seen:
            raise FormatError(f"repeated {key} directive", lineno)
        if key != "turn":
            seen.add(key)
        if key == "mode":
            if toks[1:] != ["nih"]:
                raise FormatError("mode must be nih", lineno)
            mode = toks[1]
        elif key == "players":
            k = _one_int(toks[1:], lineno, "players takes exactly one integer")
            if k < 1:
                raise FormatError("players must be positive", lineno)
        elif key == "bits":
            n = _one_int(toks[1:], lineno, "bits takes exactly one integer")
            if n < 1:
                raise FormatError("bits must be positive", lineno)
        elif key == "dims":
            dims = parse_ints(toks[1:], lineno, "dims must be integers")
            if any(d < 1 for d in dims):
                raise FormatError("dims must be positive", lineno)
            dims_line = lineno
        elif key == "turn":
            turn_lines.append((lineno, toks[1:]))
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    for name, val in (("mode", mode), ("players", k), ("bits", n), ("dims", dims)):
        if val is None:
            raise FormatError(f"missing {name} directive", last)
    if len(dims) != k:
        raise FormatError("dims count must equal players", dims_line)
    turns = []
    for lineno, toks in turn_lines:
        if len(toks) < 2:
            raise FormatError("turn needs a player and a generator", lineno)
        (player,) = parse_ints(toks[:1], lineno, f"bad player {toks[0]!r}")
        if not 1 <= player <= k:
            raise FormatError(f"player {player} out of range", lineno)
        gname = toks[1]
        if gname not in _GENERATOR_PARSERS:
            known = ", ".join(sorted(_GENERATOR_PARSERS))
            raise FormatError(f"unknown generator {gname!r}; known: {known}", lineno)
        if gname in _NO_ARGUMENT and toks[2:]:
            raise FormatError(f"{gname} takes no argument", lineno)
        parse = _GENERATOR_PARSERS[gname]
        try:
            turn = Turn(player, parse(dims[player - 1], n, toks[2:], lineno))
        except (DimMismatch, NonUnitary, SizeCapExceeded, ValueError) as exc:
            # a generator that cannot act on this player, a literal that is
            # not unitary, or a unitary over the entry cap is a malformed
            # line; so is a count whose error message would hold an integer
            # over Python's int-to-str digit limit (ValueError)
            raise FormatError(str(exc), lineno) from None
        turns.append(turn)
    if not turns:
        raise FormatError("scenario has no turns", last)
    return ProtocolSpec(k, n, dims, tuple(turns))


# ---------------------------------------------------------------------------
# NOF protocol from a tensor (SVD route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NofProtocol:
    """Compiled SVD protocol for one nondeterministic tensor.

    ``u``, ``sigma`` and ``v`` are the read-only factors :func:`svd` returns;
    ``live_columns`` marks the nonzero columns of the exact grouped matrix.
    """

    f: BooleanFunction
    split: int
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    live_columns: np.ndarray
    r: int
    qubit_cost: int
    exact_tensor: DenseTensor = field(repr=False)


@dataclass(frozen=True)
class AcceptanceResult:
    probability: float
    accepted: bool
    analytic_probability: float


def build_nof_protocol(t: DenseTensor, f: BooleanFunction) -> NofProtocol:
    """Compile ``t``, any exact tensor that is nonzero exactly on f's
    1-inputs, into the grouped-SVD protocol.

    The rows are players 1..ceil(k/2) and the columns the rest; the two
    groups need not be the same size.  The qubit cost is ceil(log2 r) + 1
    where r is the numerical rank of the matrization.  The size cap is
    checked on both square SVD factors before they are allocated.
    """
    if not pattern_check(t, f):
        raise PatternMismatch(f"tensor does not match {f.name}")
    split = (f.k + 1) // 2
    g = group_matrize(t, split)
    check_size_cap((g.rows, g.rows))
    check_size_cap((g.cols, g.cols))
    u, s, v = svd(to_float(g))
    r = numerical_rank(s, (g.rows, g.cols))
    q = math.ceil(math.log2(r)) if r >= 1 else 0
    # pattern_check showed that these are the columns holding a 1-input
    live = np.array([not e.is_zero() for e in g.entries]).reshape(g.rows, -1).any(axis=0)
    live.flags.writeable = False
    return NofProtocol(
        f=f,
        split=split,
        u=u,
        sigma=s,
        v=v,
        live_columns=live,
        r=r,
        qubit_cost=q + 1,
        exact_tensor=t,
    )


def sweep_nof(p: NofProtocol, inputs):
    """Run the protocol algebra at each input in turn; yield each input's
    :class:`AcceptanceResult`, in order.

    The inputs are not checked again (those of ``p.f.inputs()`` are valid by
    construction).  One side holds the trailing (column) half of the input.
    A column without a 1-input rejects with probability exactly 0, read off
    the exact mask before any float work.  Otherwise that side prepares the
    compressed state c * sigma * V |column-half>, keeping only the r live
    coordinates; the other side applies U and projects onto its own (row)
    half, for the probability |c|^2 |T[x]|^2, also computed analytically
    from the exact tensor entry.  The state and c depend only on the column, so the sweep
    builds them once per column, from the operands a one-input run uses:
    every value is that run's, bit for bit, and a vanishing state on a live
    column raises ``NormalizationError`` at the same input.
    """
    dims = p.exact_tensor.dims
    states = {}  # live column -> (compressed state, c)
    for xs in inputs:
        row = flat_offset(dims[:p.split], xs[:p.split])
        col = flat_offset(dims[p.split:], xs[p.split:])
        if not p.live_columns[col]:
            yield AcceptanceResult(0.0, False, 0.0)
            continue
        if col not in states:
            phi = p.sigma[:p.r] * p.v[:p.r, col]
            norm = float(np.linalg.norm(phi))
            if norm == 0.0:
                raise NormalizationError("compressed state vanished on a column with a 1-input")
            c = 1.0 / norm
            states[col] = (phi * c, c)
        state, c = states[col]
        prob = float(abs(p.u[row, :p.r] @ state) ** 2)
        yield AcceptanceResult(prob, prob > config.ACCEPT_EPS,
                               float(p.exact_tensor.entry(xs).abs2()) * c * c)


def run_nof(p: NofProtocol, xs) -> AcceptanceResult:
    """Check one input, then run :func:`sweep_nof` over it alone: the
    arithmetic of every sweep, bit for bit."""
    return next(sweep_nof(p, (p.f.check_input(xs),)))


@dataclass(frozen=True)
class SweepReport:
    passed: bool
    total_inputs: int
    min_accept_probability: float | None
    max_reject_probability: float
    max_sim_analytic_gap: float
    wrong_decisions: tuple


def strong_nondet_check(p: NofProtocol) -> SweepReport:
    """Exhaustive sweep of ``p.f``: accepted iff f = 1, plus probability
    extremes; one :func:`sweep_nof`, so each column half's state is built
    once."""
    min_accept = None
    max_reject = 0.0
    max_gap = 0.0
    wrong = []
    table = p.f.table()
    for xs, value, res in zip(p.f.inputs(), table, sweep_nof(p, p.f.inputs())):
        max_gap = max(max_gap, abs(res.probability - res.analytic_probability))
        if res.accepted != (value == 1):
            wrong.append(xs)
        if value == 1:
            if min_accept is None or res.probability < min_accept:
                min_accept = res.probability
        else:
            max_reject = max(max_reject, res.probability)
    return SweepReport(
        passed=not wrong,
        total_inputs=len(table),
        min_accept_probability=min_accept,
        max_reject_probability=max_reject,
        max_sim_analytic_gap=max_gap,
        wrong_decisions=tuple(wrong[:8]),
    )


# ---------------------------------------------------------------------------
# Extraction pipeline (branch form -> grouped matrix)
# ---------------------------------------------------------------------------


def extract_families(b: BranchState):
    """Split the live accepted transcripts into two grouped vector families.

    Returns (members, a_vectors, b_vectors): for each live transcript m
    ending in 1, the product of the first floor(k/2) players' vectors and the
    product of the rest.  Family size is at most 2^(ell-1).
    """
    k = len(b.player_dims)
    if k < 2:
        raise DimMismatch("need at least two players to group")
    g = k // 2
    members = b.accepted_transcripts()
    a_vecs = [_kron_all(b.branches[m][:g]) for m in members]
    b_vecs = [_kron_all(b.branches[m][g:]) for m in members]
    return members, a_vecs, b_vecs


@dataclass(frozen=True)
class CoefficientResult:
    alpha: tuple
    beta: tuple
    attempts: int
    grouped: np.ndarray = field(compare=False, repr=False)


def coefficient_search(families: np.ndarray, ones, set_size_exponent: int,
                       rng_seed: int, *, max_attempts: int = 10) -> CoefficientResult:
    """Sample integer contraction coefficients until every 1-input survives.

    ``families[i, j]`` is the accepted vector of the input (y_i, z_j) as a
    Da x Db complex128 matrix M(y_i, z_j) (see :func:`nih_families`), and
    ``ones`` is a boolean mask of the same (y, z) grid.  Coefficients alpha
    (Da of them) and beta (Db) are drawn uniformly from
    1..2^set_size_exponent.  A draw gives the grouped matrix
    v(y,z) = alpha^T M(y,z) beta = sum_m (alpha . a_m(y)) (beta . b_m(z)).
    It is accepted, and returned as ``grouped``, when |v| > 1e-9 wherever
    ``ones`` is true.
    """
    if families.size == 0:
        raise DimMismatch("families must be nonempty")
    da, db = families.shape[2:]
    rng = random.Random(rng_seed)
    hi = 2 ** set_size_exponent
    for attempt in range(1, max_attempts + 1):
        alpha = tuple(rng.randint(1, hi) for _ in range(da))
        beta = tuple(rng.randint(1, hi) for _ in range(db))
        a = np.array(alpha, dtype=np.complex128)
        b = np.array(beta, dtype=np.complex128)
        grouped = families @ b @ a
        if np.all(np.abs(grouped[ones]) > config.ACCEPT_EPS):
            return CoefficientResult(alpha, beta, attempt, grouped)
    raise CoefficientNotFound(f"no coefficients after {max_attempts} attempts")


@dataclass(frozen=True)
class NihCertificate:
    """Outcome of the NIH extraction pipeline for one protocol/function pair.

    It keeps only the verdicts and counts, not the families it was certified
    from: a caller that searches more coefficients calls :func:`nih_families`
    and :func:`certify_families` itself.
    """

    ell: int
    group_split: int
    rank_bound: int  # 2^(ell-1)
    grouped_rank: int
    pattern_ok: bool
    pattern_rank: int
    implied_min_cost: int
    cost_bound_ok: bool
    attempts: int


def nih_families(spec: ProtocolSpec, f: BooleanFunction):
    """The premise sweep: simulate every input, check that the protocol
    accepts exactly f's 1-inputs (else :class:`PremiseViolation`, naming the
    first input in lexicographic order that disagrees), and keep each
    input's accepted vector.

    The protocol must have f's shape and at least one turn.
    One :func:`sweep_branches` runs the inputs in lexicographic order, so a
    turn re-runs only when the string it or an earlier turn reads changed.
    At an input where no turn re-ran, the sweep hands back the previous
    input's branches object; that input's acceptance decision and accepted
    matrix are reused, and the decision is still compared with f's value.

    Returns (families, ones), indexed by (y, z): y runs over the input tuples
    of the first floor(k/2) players and z over the rest's, both in
    lexicographic order.  ``families[y, z]`` is the input's accepted vector
    as a Da x Db matrix, Da and Db the dimensions of the two player groups:
    M(y,z) = sum_m a_m(y) b_m(z)^T over its live accepted transcripts m,
    with a_m and b_m from :func:`extract_families`.  ``ones`` is the boolean
    mask of f = 1.  Each input keeps its own matrix because the transcripts
    that are live differ from input to input.
    """
    if spec.k != f.k or spec.n != f.n:
        raise DimMismatch("protocol and function shapes disagree")
    if spec.ell < 1:
        raise DimMismatch("certificate needs at least one turn")
    g = f.k // 2
    shape = (f.side ** g, f.side ** (f.k - g))
    full = shape + (math.prod(spec.player_dims[:g]), math.prod(spec.player_dims[g:]))
    check_size_cap(full)
    families = np.zeros(full, dtype=np.complex128)
    ones = np.array(f.table()).reshape(shape) == 1
    states = sweep_branches(spec, f.inputs())
    last_branches = last_accepts = last_yz = None  # of the input last extracted
    for pos, (xs, b) in enumerate(zip(f.inputs(), states)):
        yz = divmod(pos, shape[1])
        unchanged = b.branches is last_branches  # the sweep re-ran no turn
        accepts = last_accepts if unchanged else b.accept_probability() > config.ACCEPT_EPS
        if accepts != ones[yz]:
            raise PremiseViolation(f"protocol acceptance at {xs} disagrees with {f.name}")
        if unchanged:
            families[yz] = families[last_yz]
            continue
        _, a_vecs, b_vecs = extract_families(b)
        for a, v in zip(a_vecs, b_vecs):
            families[yz] += np.outer(a, v)
        last_branches, last_accepts, last_yz = b.branches, accepts, yz
    return families, ones


def certify_families(spec: ProtocolSpec, f: BooleanFunction, families: np.ndarray,
                     ones: np.ndarray, rng_seed: int) -> NihCertificate:
    """Certify what :func:`nih_families` returned for ``spec`` and ``f``:
    coefficient search (at most 10 draws), grouped-matrix pattern and rank
    checks.

    The grouped matrix is the one that :func:`coefficient_search` returns,
    with coefficients up to 2^(kn + 1).  It is certified as a grouped
    matrization: its zero pattern must match f under the grouping and its
    rank must not exceed 2^(ell-1).  It is a float
    matrix built from the inputs' accepted matrices, so its rank is the
    numerical rank (:func:`numerical_rank` of its singular values); the 0/1
    pattern matrix of f is exact and takes :func:`exact_rank`.
    """
    coeff = coefficient_search(families, ones, f.k * f.n + 1, rng_seed)
    grouped = coeff.grouped
    pattern_ok = bool(np.array_equal(np.abs(grouped) > config.ACCEPT_EPS, ones))
    grouped_rank = numerical_rank(svd(grouped, compute_uv=False), grouped.shape)
    pattern_rank = exact_rank(DenseTensor(ones.shape, [EC_ONE if v else EC_ZERO
                                                       for v in ones.flat]))
    implied = (math.ceil(math.log2(pattern_rank)) + 1) if pattern_rank >= 1 else 0
    ell = spec.ell
    return NihCertificate(
        ell=ell,
        group_split=f.k // 2,
        rank_bound=2 ** (ell - 1),
        grouped_rank=grouped_rank,
        pattern_ok=pattern_ok,
        pattern_rank=pattern_rank,
        implied_min_cost=implied,
        cost_bound_ok=ell >= implied,
        attempts=coeff.attempts,
    )


def nih_rank_certificate(spec: ProtocolSpec, f: BooleanFunction,
                         rng_seed: int) -> NihCertificate:
    """Run the full extraction: the premise sweep of :func:`nih_families`,
    then :func:`certify_families` on its result.

    The protocol must be strongly nondeterministic for f (verified first,
    else :class:`PremiseViolation`).
    """
    families, ones = nih_families(spec, f)
    return certify_families(spec, f, families, ones, rng_seed)
