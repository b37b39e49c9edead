"""Dense order-k tensors over the exact field, and their standard sections.

A :class:`DenseTensor` is a flat row-major array (last index fastest) with an
explicit ``dims`` vector; one of order 2 is an exact matrix.  The layout
lives here and nowhere else:
:func:`strides` gives each mode's flat step, :func:`flat_offset` turns an
index tuple into a flat offset, and the sections below gather entries at
strided offsets.  A :class:`Decomposition` is a list of rank-1 terms, each
term being one exact vector per mode; materializing it gives back a dense
tensor whose rank is at most the term count.  Materializing is sparse: it costs
the summed support products of the terms (the number of nonzero components of
each vector, multiplied over the modes) plus one dense allocation, so a
superdiagonal witness with ``side`` terms costs ``side`` products, not
``side`` times the dense size.

Sections follow the usual conventions:

* ``tensor_slice``    — fix all but two indices, read an order-2 tensor.
* ``unfold``          — mode-i fibers arranged as columns, remaining indices
                        in ascending-mode lexicographic order.
* ``group_matrize``   — merge the leading ``split`` modes into rows and the
                        rest into columns (the "operator" view of a tensor).

Modes are numbered 1..k throughout, matching the usual multilinear-algebra
convention.  The column order inside ``unfold`` is one fixed choice among the
many consistent ones; fixing it makes the file formats bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import config
from .errors import DimMismatch, FormatError, SizeCapExceeded
from .scalar_linalg import (
    EC_ZERO,
    ExactComplex,
    coerce_exact,
    format_exact_scalar,
    format_rational,
    parse_exact_scalar,
    parse_ints,
    parse_rational,
    read_lines,
    write_lines,
)

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class DenseTensor:
    """Order-k dense tensor of ExactComplex entries, row-major storage.

    ``rows``, ``cols`` and ``row(i)`` read it as a matrix, rows over mode 1
    and columns over the rest: of order 2 it is an exact matrix."""

    __slots__ = ("dims", "entries")

    def __init__(self, dims, entries):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2:
            raise DimMismatch("tensor order must be at least 2")
        entries = tuple(entries)
        if len(entries) != math.prod(dims):
            raise DimMismatch(
                f"expected {math.prod(dims)} entries for dims {dims}, got {len(entries)}"
            )
        self.dims = dims
        self.entries = entries

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def rows(self) -> int:
        return self.dims[0]

    @property
    def cols(self) -> int:
        return strides(self.dims)[0]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def entry(self, idx) -> ExactComplex:
        return self.entries[flat_offset(self.dims, idx)]

    def indices(self):
        return product(*(range(d) for d in self.dims))

    def __eq__(self, other):
        return (
            isinstance(other, DenseTensor)
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"DenseTensor(dims={self.dims})"


@dataclass(frozen=True)
class Decomposition:
    """Sum-of-rank-1-terms representation; term count bounds the rank."""

    dims: tuple
    terms: tuple  # each term: tuple of `order` vectors (tuples of ExactComplex)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        terms = []
        for term in self.terms:
            term = tuple(tuple(coerce_exact(v) for v in vec) for vec in term)
            if len(term) != len(self.dims):
                raise DimMismatch("each term needs one vector per mode")
            for vec, d in zip(term, self.dims):
                if len(vec) != d:
                    raise DimMismatch(f"vector length {len(vec)} != dim {d}")
            terms.append(term)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def term_count(self) -> int:
        return len(self.terms)


def strides(dims) -> tuple:
    """Row-major flat step of each mode: the last mode's is 1."""
    out = [1] * len(dims)
    for m in range(len(dims) - 1, 0, -1):
        out[m - 1] = out[m] * dims[m]
    return tuple(out)


def flat_offset(dims, idx) -> int:
    """Row-major flat offset of ``idx``; :class:`IndexError` when it does not
    name one entry of ``dims``."""
    if len(idx) != len(dims):
        raise IndexError(f"need {len(dims)} indices, got {len(idx)}")
    flat = 0
    for d, j in zip(dims, idx):
        if not 0 <= j < d:
            raise IndexError(f"index {idx} out of range for dims {dims}")
        flat = flat * d + j
    return flat


def check_size_cap(dims) -> None:
    total = math.prod(dims)
    cap = config.size_cap()
    if total > cap:
        raise SizeCapExceeded(f"{total} entries exceed cap {cap}")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def materialize(d: Decomposition) -> DenseTensor:
    """Entrywise sum of the outer products of all terms.

    Each term is expanded only over the product of its vectors' nonzero
    components, with row-major flat offsets taken from the strides.  The
    arithmetic runs on plain ``(re, im)`` pairs of the entries' own
    components, each an int when integral and a ``Fraction`` otherwise, so
    every sum is exact.  The cost is the summed support products of the
    terms plus one dense allocation, not the term count times the dense
    size.
    """
    check_size_cap(d.dims)
    mode_strides = strides(d.dims)
    sums = {}
    for term in d.terms:
        partial = [(0, 1, 0)]  # (flat offset, re, im) over the modes so far
        for vec, stride in zip(term, mode_strides):
            support = [(j * stride, e.re, e.im)
                       for j, e in enumerate(vec) if not e.is_zero()]
            partial = [(off + o, re * a - im * b, re * b + im * a)
                       for off, re, im in partial for o, a, b in support]
        for off, re, im in partial:
            old_re, old_im = sums.get(off, (0, 0))
            sums[off] = (old_re + re, old_im + im)
    entries = [EC_ZERO] * math.prod(d.dims)
    for off, (re, im) in sums.items():
        if re or im:
            entries[off] = ExactComplex(re, im)
    return DenseTensor(d.dims, entries)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _check_mode(t: DenseTensor, mode: int) -> None:
    if not 1 <= mode <= t.order:
        raise IndexError(f"mode {mode} out of range for order {t.order}")


def _fixed_offset(t: DenseTensor, fixed, free) -> int:
    """Flat offset of ``fixed`` with the ``free`` modes at 0, after checking
    that every other mode holds an int in range."""
    if len(fixed) != t.order:
        raise IndexError("fixed tuple must cover every mode")
    base = 0
    for m, (j, stride) in enumerate(zip(fixed, strides(t.dims)), start=1):
        if m in free:
            continue
        if not isinstance(j, int) or not 0 <= j < t.dims[m - 1]:
            raise IndexError(f"fixed index {j!r} out of range at mode {m}")
        base += j * stride
    return base


def _mode_offsets(t: DenseTensor, modes) -> list:
    """Flat offsets of every index over ``modes`` in lexicographic order,
    the other modes at 0."""
    st = strides(t.dims)
    offsets = [0]
    for m in modes:
        offsets = [o + j * st[m - 1] for o in offsets for j in range(t.dims[m - 1])]
    return offsets


def tensor_slice(t: DenseTensor, mode_a: int, mode_b: int, fixed) -> DenseTensor:
    """Two-dimensional section: rows run over mode_a, columns over mode_b."""
    _check_mode(t, mode_a)
    _check_mode(t, mode_b)
    if not mode_a < mode_b:
        raise IndexError("need mode_a < mode_b")
    base = _fixed_offset(t, fixed, free={mode_a, mode_b})
    return DenseTensor((t.dims[mode_a - 1], t.dims[mode_b - 1]),
                       [t.entries[base + o] for o in _mode_offsets(t, (mode_a, mode_b))])


def unfold(t: DenseTensor, mode: int) -> DenseTensor:
    """Mode-`mode` unfolding: fibers as columns.

    Columns are ordered lexicographically by the remaining indices taken in
    ascending mode order.
    """
    _check_mode(t, mode)
    cols = _mode_offsets(t, [m for m in range(1, t.order + 1) if m != mode])
    rows = _mode_offsets(t, (mode,))
    return DenseTensor((len(rows), len(cols)), [t.entries[r + c] for r in rows for c in cols])


def group_matrize(t: DenseTensor, split: int) -> DenseTensor:
    """Merge modes 1..split into rows and modes split+1..k into columns."""
    if not 1 <= split < t.order:
        raise IndexError(f"split {split} out of range for order {t.order}")
    rows = math.prod(t.dims[:split])
    cols = math.prod(t.dims[split:])
    # row-major storage with last index fastest makes this a plain reshape
    return DenseTensor((rows, cols), t.entries)


# ---------------------------------------------------------------------------
# .tsr / .dec text formats
# ---------------------------------------------------------------------------


def write_tsr(path, t: DenseTensor) -> None:
    write_lines(path, [f"order {t.order}", " ".join(str(d) for d in t.dims)] + [
        " ".join(str(j) for j in idx) + f" {format_rational(e.re)} {format_rational(e.im)}"
        for idx, e in zip(t.indices(), t.entries) if not e.is_zero()])


def read_tsr(path) -> DenseTensor:
    lines, last = read_lines(path)
    if len(lines) < 2:
        raise FormatError("need an order line and a dims line", last)
    (order_line, head), (dims_line, dim_toks) = lines[:2]
    if len(head) != 2 or head[0] != "order":
        raise FormatError("line must read 'order k'", order_line)
    (order,) = parse_ints(head[1:], order_line, "line must read 'order k'")
    if order < 2:
        raise FormatError("tensor order must be at least 2", order_line)
    dims = parse_ints(dim_toks, dims_line, "dims line must be integers")
    if len(dims) != order:
        raise FormatError(f"expected {order} dims", dims_line)
    if any(d < 0 for d in dims):
        raise FormatError("dims must be nonnegative", dims_line)
    check_size_cap(dims)
    entries = [EC_ZERO] * math.prod(dims)
    for lineno, toks in lines[2:]:
        if len(toks) != order + 2:
            raise FormatError(f"expected {order} indices and 2 rationals", lineno)
        idx = parse_ints(toks[:order], lineno, "bad index")
        val = ExactComplex(parse_rational(toks[order], lineno),
                           parse_rational(toks[order + 1], lineno))
        try:
            off = flat_offset(dims, idx)
        except IndexError:
            raise FormatError(f"index {idx} out of range", lineno) from None
        # each line stores a new scalar, so only an unwritten slot holds EC_ZERO
        if entries[off] is not EC_ZERO:
            raise FormatError(f"duplicate index {idx}", lineno)
        entries[off] = val
    return DenseTensor(dims, entries)


def write_dec(path, d: Decomposition) -> None:
    write_lines(path, [" ".join(str(x) for x in (d.order, *d.dims, d.term_count))] + [
        " ".join(format_exact_scalar(v) for v in vec) for term in d.terms for vec in term])


def read_dec(path) -> Decomposition:
    lines, last = read_lines(path)
    if not lines:
        raise FormatError("empty .dec file", 1)
    (head_line, head), body = lines[0], lines[1:]
    header = "header must be 'order dims... r'"
    nums = parse_ints(head, head_line, header)
    if len(nums) < 3 or len(nums) != nums[0] + 2:
        raise FormatError(header, head_line)
    order, *dims, r = nums
    if order < 2 or min(dims) < 0 or r < 0:
        raise FormatError("need order >= 2, dims >= 0 and term count >= 0", head_line)
    blocks = f"expected {r} blocks of {order} vector lines"
    if len(body) < r * order:
        raise FormatError(blocks, last)
    vecs = []
    for (lineno, toks), d in zip(body, dims * r):
        vec = tuple(parse_exact_scalar(tok, lineno) for tok in toks)
        if len(vec) != d:
            raise FormatError(f"vector length {len(vec)} != dim {d}", lineno)
        vecs.append(vec)
    if len(body) > r * order:
        raise FormatError(blocks, body[r * order][0])
    return Decomposition(dims, tuple(tuple(vecs[i:i + order])
                                     for i in range(0, len(vecs), order)))
