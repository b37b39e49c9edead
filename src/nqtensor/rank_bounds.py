"""Rank brackets, pattern checks, and the generalized-inner-product certificate.

Tensor rank is NP-hard to pin down exactly, so nothing here ever claims an
exact rank beyond bracket tightness: the lower edge is the best unfolding rank
(exact arithmetic, mode by mode until it reaches the upper edge), the upper
edge is the best known decomposition.  The GIP certificate computes the slice
ranks the summation bound is assembled from and the mode-1 unfolding rank,
and reports both candidate bound expressions with flags rather than asserting
either: the (2^n - 1)-term witness ``functions.gip_nondet_decomposition``
(``functions.and_decomposition`` of ``|A| mod 2``) refutes both as lower
bounds on nrank(GIP) for n >= 2, k >= 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    DecompositionMismatch,
    DegenerateN,
    DimMismatch,
    PatternMismatch,
)
from .functions import BooleanFunction, gip, random_nondet_substitution
from .scalar_linalg import exact_rank
from .tensor_core import (
    Decomposition,
    DenseTensor,
    materialize,
    tensor_slice,
    unfold,
)

# ---------------------------------------------------------------------------
# Pattern check
# ---------------------------------------------------------------------------


def pattern_check(t: DenseTensor, f: BooleanFunction) -> bool:
    """True iff t is nonzero exactly on f's 1-inputs (exhaustive)."""
    if t.dims != (f.side,) * f.k:
        raise DimMismatch(f"tensor dims {t.dims} do not match {f.name}(n={f.n},k={f.k})")
    return all(e.is_zero() != (v == 1) for e, v in zip(t.entries, f.table()))


# ---------------------------------------------------------------------------
# Rank bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankBracket:
    lower: int  # max over modes of the exact unfolding rank (ranked until it reaches upper)
    upper: int  # best known decomposition term count (or fallback)
    tight: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"bracket lower {self.lower} exceeds upper {self.upper}")


def max_unfolding_rank(t: DenseTensor, enough: int | None) -> int:
    """Largest exact unfolding rank of t, computed mode by mode.

    Stops as soon as the running maximum reaches ``enough``, so the result is
    the true maximum whenever that maximum is below ``enough``, and otherwise
    some value at least ``enough``.  ``None`` computes every mode.
    """
    best = 0
    for mode in range(1, t.order + 1):
        best = max(best, exact_rank(unfold(t, mode)))
        if enough is not None and best >= enough:
            break
    return best


def rank_bracket(t: DenseTensor, known: Decomposition | None = None) -> RankBracket:
    """Bracket the rank of t between unfolding ranks and a known witness.

    Without a witness the upper edge falls back to the product of the k-1
    smallest dims (the generic bound), or 0 for the zero tensor.  The witness
    is checked first.  No unfolding rank exceeds the tensor rank, which is at
    most the upper edge, so the unfoldings are ranked mode by mode only until
    the lower edge reaches the upper one.
    """
    if known is not None:
        if known.dims != t.dims or materialize(known) != t:
            raise DecompositionMismatch("decomposition does not materialize to the tensor")
        upper = known.term_count
    elif all(e.is_zero() for e in t.entries):
        upper = 0
    else:
        sorted_dims = sorted(t.dims)
        upper = 1
        for d in sorted_dims[:-1]:
            upper *= d
    lower = max_unfolding_rank(t, upper)
    return RankBracket(lower, upper, lower == upper)


# ---------------------------------------------------------------------------
# GIP certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GipCertificate:
    """Slice ranks and unfolding rank for a nondeterministic GIP tensor.

    ``summation_bound`` is ``2^n - 1 + (k-2)(2^(n-1) - 1)`` (the sum of the
    designated slice ranks); ``closed_form_bound`` is ``(k-1) 2^(n-1) + 1``.
    Both are carried and compared against the computed mode-1 unfolding rank,
    as information only: the 0/1 GIP tensor has a (2^n - 1)-term witness, so
    neither expression is a lower bound on nrank(GIP) for n >= 2, k >= 3.
    """

    n: int
    k: int
    rank_t_prime: int
    rank_t_i_prime: tuple
    combined_mode1_rank: int
    summation_bound: int
    closed_form_bound: int
    holds_summation: bool
    holds_closed_form: bool


def gip_certificate(n: int, k: int, t: DenseTensor) -> GipCertificate:
    """Compute the slice/unfolding certificate for a GIP-pattern tensor.

    The distinguished slice T' pins players 3..k to the all-ones string.  For
    each i in 3..k the slice T_i' pins player k to the all-ones string with
    bit ((i-3) mod n)+1 cleared (and the other trailing players to all ones),
    so the AND of the pinned strings misses exactly one position.
    """
    if n < 2:
        raise DegenerateN("the sliced certificate needs n >= 2")
    if k < 3:
        raise DimMismatch("need at least 3 players")
    f = gip(n, k)
    if not pattern_check(t, f):
        raise PatternMismatch("tensor is not a nondeterministic GIP tensor")
    side = 2 ** n
    ones = side - 1

    fixed = (None, None) + (ones,) * (k - 2)
    rank_tp = exact_rank(tensor_slice(t, 1, 2, fixed))

    ranks_ti = []
    for i in range(3, k + 1):
        bit = ((i - 3) % n) + 1
        flipped = ones & ~(1 << (n - bit))
        fixed_i = (None, None) + (ones,) * (k - 3) + (flipped,)
        ranks_ti.append(exact_rank(tensor_slice(t, 1, 2, fixed_i)))

    combined = exact_rank(unfold(t, 1))
    summation = (2 ** n - 1) + (k - 2) * (2 ** (n - 1) - 1)
    closed = (k - 1) * 2 ** (n - 1) + 1
    return GipCertificate(
        n=n,
        k=k,
        rank_t_prime=rank_tp,
        rank_t_i_prime=tuple(ranks_ti),
        combined_mode1_rank=combined,
        summation_bound=summation,
        closed_form_bound=closed,
        holds_summation=combined >= summation,
        holds_closed_form=combined >= closed,
    )


# ---------------------------------------------------------------------------
# Substitution probe
# ---------------------------------------------------------------------------


def nrank_probe(f: BooleanFunction, trials: int, rng_seed: int) -> int:
    """Minimum bracket lower bound over seeded random substitutions.

    A trial stops ranking its unfoldings once their maximum reaches the best
    value so far, since it can then no longer lower the minimum.  The trials
    share one table: ``f`` evaluates every input once, on the first trial,
    and each later substitution reads the values kept on ``f``.  This is
    evidence about the substitution family only: a minimum over
    random draws is not a minimum over all nondeterministic tensors, so the
    result is never reported as the nondeterministic rank itself.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    master = random.Random(rng_seed)
    best = None
    for _ in range(trials):
        sub_seed = master.getrandbits(64)
        t = random_nondet_substitution(f, sub_seed)
        lower = max_unfolding_rank(t, best)
        if best is None or lower < best:
            best = lower
    return best
