"""Boolean function families and their communication tensors.

A k-party function maps a tuple of k n-bit strings to {0,1}.  Strings are
represented as integers under a fixed big-endian convention: the string
``s_1 s_2 ... s_n`` (s_1 leftmost) is the integer ``sum s_j 2^(n-j)``, and
"bit j" below always means the j-th character of the string, 1-based from
the left.  Fixing the convention once keeps every file format and certificate
bit-exact.

Built-in families (the ``FAMILIES`` registry pairs each with the tensor that
``build`` writes and ``rank`` brackets, and with its nondeterministic witness):

* ``eq``            — 1 iff all k strings are equal.
* ``gip``           — parity of the positions where all k players hold a 1.
* ``hamming_neq1``  — 1 iff the Hamming weight of the bitwise AND of all
                      strings differs from 1.

Every witness is a sum of terms that are one 0/1 indicator on every mode,
with a coefficient on mode 1; a function h of the AND gets one term per
nonzero coefficient of h's Möbius transform (:func:`and_decomposition`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable

from . import config
from .errors import ArityMismatch, FormatError
from .scalar_linalg import EC_ONE, EC_ZERO, exact, read_lines
from .tensor_core import (
    Decomposition,
    DenseTensor,
    check_size_cap,
    group_matrize,
)

# ---------------------------------------------------------------------------
# Core type
# ---------------------------------------------------------------------------


def check_strings(xs, k: int, n: int, owner: str) -> tuple:
    """``xs`` as a tuple of ``k`` ints in 0..2^n - 1, else ArityMismatch."""
    xs = tuple(xs)
    if len(xs) != k:
        raise ArityMismatch(f"{owner} takes {k} strings, got {len(xs)}")
    side = 2 ** n
    for x in xs:
        if not isinstance(x, int) or not 0 <= x < side:
            raise ArityMismatch(f"input {x!r} is not in 0..{side - 1}")
    return xs


@dataclass(frozen=True)
class BooleanFunction:
    """Total k-party boolean function with an evaluation oracle."""

    name: str
    n: int
    k: int
    _eval: callable = field(repr=False)

    def __post_init__(self):
        if self.k < 2:
            raise ArityMismatch("need at least two players")
        if self.n < 1:
            raise ArityMismatch("need at least one bit per player")

    @property
    def side(self) -> int:
        return 2 ** self.n

    def check_input(self, xs) -> tuple:
        return check_strings(xs, self.k, self.n, self.name)

    def value(self, xs) -> int:
        return self._eval(self.check_input(xs))

    def table(self) -> list:
        """f at every input, in :meth:`inputs` order; those inputs are valid
        by construction, so none is checked again.

        The values are computed on the first call and kept on the instance
        as a tuple, so every later call, and every caller holding this
        function object, reads them without evaluating f again.
        """
        return list(self._values)

    @cached_property
    def _values(self) -> tuple:
        return tuple([self._eval(xs) for xs in self.inputs()])

    def inputs(self):
        return product(range(self.side), repeat=self.k)


# ---------------------------------------------------------------------------
# Family builders
# ---------------------------------------------------------------------------


def _and_weight(n: int, xs) -> int:
    """Hamming weight of x_1 & ... & x_k."""
    acc = (1 << n) - 1
    for x in xs:
        acc &= x
    return bin(acc).count("1")


def equality(n: int, k: int) -> BooleanFunction:
    return BooleanFunction("eq", n, k, lambda xs: 1 if xs.count(xs[0]) == len(xs) else 0)


def gip(n: int, k: int) -> BooleanFunction:
    return BooleanFunction("gip", n, k, lambda xs: _and_weight(n, xs) % 2)


def hamming_neq1(n: int, k: int) -> BooleanFunction:
    return BooleanFunction("hamming_neq1", n, k,
                           lambda xs: 1 if _and_weight(n, xs) != 1 else 0)


def constant(n: int, k: int, bit: int) -> BooleanFunction:
    return BooleanFunction(f"const{bit}", n, k, lambda xs: bit)


def load_truth_table(path, name: str = "custom") -> BooleanFunction:
    """Read a custom function from a truth-table file.

    One line per input: k whitespace-separated bit strings followed by the
    function value, e.g. ``01 11 01 0``; ``#`` starts a comment.  Every input
    must appear exactly once.
    """
    lines, last = read_lines(path, comments=True)
    table = {}
    n = k = None
    for lineno, toks in lines:
        if len(toks) < 3:
            raise FormatError("need k bit strings and a value", lineno)
        *strs, bit = toks
        if bit not in ("0", "1"):
            raise FormatError(f"value must be 0 or 1, got {bit!r}", lineno)
        if k is None:
            k = len(strs)
            n = len(strs[0])
        if len(strs) != k:
            raise FormatError(f"expected {k} strings", lineno)
        xs = []
        for s in strs:
            if len(s) != n or any(ch not in "01" for ch in s):
                raise FormatError(f"bad {n}-bit string {s!r}", lineno)
            xs.append(int(s, 2))
        key = tuple(xs)
        if key in table:
            raise FormatError(f"duplicate input {' '.join(strs)}", lineno)
        table[key] = int(bit)
    if not table:
        raise FormatError("empty truth table", 1)
    if len(table) != (2 ** n) ** k:
        raise FormatError(
            f"truth table covers {len(table)} of {(2 ** n) ** k} inputs", last
        )
    return BooleanFunction(name, n, k, lambda xs: table[tuple(xs)])


# ---------------------------------------------------------------------------
# Tensors
# ---------------------------------------------------------------------------


def canonical_tensor(f: BooleanFunction) -> DenseTensor:
    """The 0/1 communication tensor: entry = f at the index tuple.

    Every entry is one of the shared scalars ``EC_ONE``/``EC_ZERO``.
    """
    dims = (f.side,) * f.k
    check_size_cap(dims)
    return DenseTensor(dims, [EC_ONE if v else EC_ZERO for v in f.table()])


def inner_product_matrix(n: int) -> DenseTensor:
    """The 2-party inner-product 0/1 matrix (entry <x|y> mod 2)."""
    t = canonical_tensor(gip(n, 2))
    return group_matrize(t, 1)


def _indicator_decomposition(side: int, k: int, terms) -> Decomposition:
    """One rank-1 term per ``(coeff, members)`` pair: the 0/1 indicator of
    ``members`` (one truth value per index) on every mode, times ``coeff``
    on mode 1.  The size cap is checked before any term is built."""
    check_size_cap((side,) * k)
    out = []
    for coeff, members in terms:
        indicator = tuple(EC_ONE if m else EC_ZERO for m in members)
        scaled = tuple(coeff if m else EC_ZERO for m in members)
        out.append((scaled,) + (indicator,) * (k - 1))
    return Decomposition((side,) * k, tuple(out))


def eq_nondet_decomposition(n: int, k: int) -> Decomposition:
    """The superdiagonal witness for equality: one term e_x^(x)k per string."""
    side = 2 ** n
    return _indicator_decomposition(
        side, k, ((EC_ONE, [x == y for y in range(side)]) for x in range(side)))


def and_decomposition(n: int, k: int, h) -> Decomposition:
    """``h(x_1 & ... & x_k) = sum_S c_S prod_i [x_i contains S]`` for any
    integer h on masks, c being h's Möbius transform over subsets, computed
    in place over the 2^n masks: one term per nonzero ``c_S``, in descending
    mask order."""
    side = 2 ** n

    def terms():  # lazy: the size cap is checked before h sees a mask
        c = [h(a) for a in range(side)]
        for bit in (1 << j for j in range(n)):
            for a in range(side):
                if a & bit:
                    c[a] -= c[a ^ bit]
        for s in reversed(range(side)):
            if c[s]:
                yield exact(c[s]), [x & s == s for x in range(side)]

    return _indicator_decomposition(side, k, terms())


def hamming_nondet_decomposition(n: int, k: int) -> Decomposition:
    """|x_1 & ... & x_k| - 1, zero on the 0-inputs of ``hamming_neq1``: +1 on
    each position, then -1 on the empty set (n + 1 terms)."""
    return and_decomposition(n, k, lambda a: bin(a).count("1") - 1)


def gip_nondet_decomposition(n: int, k: int) -> Decomposition:
    """The 0/1 GIP tensor in 2^n - 1 terms: the Möbius transform of
    ``|A| mod 2`` is ``c_S = (-2)^(|S|-1)`` on every nonempty set S."""
    return and_decomposition(n, k, lambda a: bin(a).count("1") % 2)


def hamming_nondet_tensor(n: int, k: int) -> DenseTensor:
    """The nondeterministic hamming tensor, entry |x_1 & ... & x_k| - 1.

    Built entry by entry in closed form, independently of
    :func:`hamming_nondet_decomposition`, so a witness check compares two
    separate computations.
    """
    side = 2 ** n
    dims = (side,) * k
    check_size_cap(dims)
    return DenseTensor(dims, [exact(_and_weight(n, xs) - 1)
                              for xs in product(range(side), repeat=k)])


def random_nondet_substitution(
    f: BooleanFunction, rng_seed: int, bound: int = config.SUBSTITUTION_BOUND
) -> DenseTensor:
    """Replace every 1-entry of the canonical tensor by a random nonzero
    Gaussian integer with components in [-bound, bound]; deterministic in
    the seed, and the zero pattern never depends on the draw."""
    dims = (f.side,) * f.k
    check_size_cap(dims)
    rng = random.Random(rng_seed)
    entries = []
    for v in f.table():
        if v == 0:
            entries.append(EC_ZERO)
            continue
        while True:
            a = rng.randint(-bound, bound)
            b = rng.randint(-bound, bound)
            if a or b:
                break
        entries.append(exact(a, b))
    return DenseTensor(dims, entries)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _canonical(f: BooleanFunction) -> DenseTensor:
    return canonical_tensor(f)


@dataclass(frozen=True)
class Family:
    """One built-in family: its function, its tensor and its witness.

    ``tensor`` is what ``build`` writes, ``rank`` brackets and ``protocol``
    compiles, by default the 0/1 canonical tensor; ``witness``, when known,
    is a decomposition that materializes to exactly that tensor.  Entries
    call their builders through the module-level names, so rebinding a name
    (e.g. to trace it) reaches the registry too.
    """

    function: Callable[[int, int], BooleanFunction]
    tensor: Callable[[BooleanFunction], DenseTensor] = _canonical
    witness: Callable[[int, int], Decomposition] | None = None


FAMILIES = {
    "eq": Family(lambda n, k: equality(n, k),
                 witness=lambda n, k: eq_nondet_decomposition(n, k)),
    "gip": Family(lambda n, k: gip(n, k)),
    "hamming_neq1": Family(lambda n, k: hamming_neq1(n, k),
                           tensor=lambda f: hamming_nondet_tensor(f.n, f.k),
                           witness=lambda n, k: hamming_nondet_decomposition(n, k)),
    "const0": Family(lambda n, k: constant(n, k, 0)),
    "const1": Family(lambda n, k: constant(n, k, 1)),
}


def from_name(name: str, n: int, k: int) -> BooleanFunction:
    try:
        family = FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise KeyError(f"unknown function {name!r}; known: {known}") from None
    return family.function(n, k)
