"""Exact and floating scalar/matrix layer.

Two parallel scalar worlds are kept deliberately separate:

* :class:`ExactComplex` — Gaussian rationals (a pair of ``Fraction``).  Every
  rank statement in this package is computed here, with exact pivot tests, so
  "rank" never depends on a tolerance.
* floating complex — plain ``complex`` / ``numpy.complex128``, used for SVD
  and protocol simulation where a numerical kernel is the right tool.

Matrices come in matching flavors (:class:`ExactMatrix`, :class:`FloatMatrix`);
both serialize to the ``.mat`` text format.  All values are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, DimMismatch, FormatError

# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactComplex:
    """A Gaussian rational re + im*i with exact equality."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        # Fraction() normalizes: gcd-reduced, positive denominator.
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ExactComplex") -> "ExactComplex":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        # float() raises OverflowError beyond the binary64 exponent range,
        # which is exactly the contract to_float advertises.
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"


EC_ZERO = ExactComplex(Fraction(0), Fraction(0))
EC_ONE = ExactComplex(Fraction(1), Fraction(0))


def exact(re, im=0) -> ExactComplex:
    """Shorthand constructor coercing ints/Fractions."""
    return ExactComplex(Fraction(re), Fraction(im))


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Row-major matrix of ExactComplex entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimMismatch(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_of_entries) -> "ExactMatrix":
        rows_of_entries = [list(r) for r in rows_of_entries]
        nrows = len(rows_of_entries)
        ncols = len(rows_of_entries[0]) if nrows else 0
        flat = []
        for r in rows_of_entries:
            if len(r) != ncols:
                raise DimMismatch("ragged rows")
            flat.extend(coerce_exact(v) for v in r)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [EC_ONE if i == j else EC_ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [EC_ZERO] * (rows * cols))

    def entry(self, i: int, j: int) -> ExactComplex:
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def scale(self, c: ExactComplex) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimMismatch("inner dimensions disagree")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = EC_ZERO
                for t in range(self.cols):
                    acc = acc + ri[t] * other.entry(t, j)
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


class FloatMatrix:
    """Immutable complex128 matrix; entries must be finite."""

    __slots__ = ("array", "max_rel_error")

    def __init__(self, array, max_rel_error: float = 0.0):
        arr = np.array(array, dtype=np.complex128)
        if arr.ndim != 2:
            raise DimMismatch("FloatMatrix needs a 2-D array")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("FloatMatrix entries must be finite")
        arr.setflags(write=False)
        self.array = arr
        self.max_rel_error = max_rel_error

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def entry(self, i: int, j: int) -> complex:
        return complex(self.array[i, j])

    def __repr__(self):
        return f"FloatMatrix({self.rows}x{self.cols})"


def coerce_exact(v) -> ExactComplex:
    if isinstance(v, ExactComplex):
        return v
    if isinstance(v, (int, Fraction)):
        return ExactComplex(Fraction(v), Fraction(0))
    raise TypeError(f"cannot coerce {type(v).__name__} to ExactComplex")


# ---------------------------------------------------------------------------
# Rank over the exact field
# ---------------------------------------------------------------------------


def exact_rank(m: ExactMatrix) -> int:
    """Rank of an exact matrix by fraction-free (Bareiss-style) elimination.

    Pivot tests compare against exact zero; no tolerance is involved.  The
    one-step Bareiss update divides by the previous pivot, which keeps the
    intermediate rationals from blowing up on integer-entried input.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    a = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    rank = 0
    r = 0
    prev = EC_ONE
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not a[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pivot = a[r][c]
        for i in range(r + 1, nrows):
            aic = a[i][c]
            if aic.is_zero():
                # still rescale the remaining row to keep the Bareiss
                # invariant (pivot * row / prev stays exact over a field)
                for j in range(c + 1, ncols):
                    if not a[i][j].is_zero():
                        a[i][j] = pivot * a[i][j] / prev
                continue
            for j in range(c + 1, ncols):
                a[i][j] = (pivot * a[i][j] - aic * a[r][j]) / prev
            a[i][c] = EC_ZERO
        prev = pivot
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# Floating SVD
# ---------------------------------------------------------------------------


def svd(m: FloatMatrix):
    """Singular value decomposition m = u @ diag_rect(sigma) @ v.

    Returns square unitary factors (full matrices) and ``sigma`` sorted
    descending.  The LAPACK kernel's internal iteration cap is surfaced as
    :class:`ConvergenceFailure`.
    """
    try:
        u, s, vh = np.linalg.svd(m.array, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return FloatMatrix(u), s, FloatMatrix(vh)


def singular_value_threshold(sigma, shape) -> float:
    """Zero cutoff: max(rows, cols) * eps * sigma_max."""
    if len(sigma) == 0:
        return 0.0
    return max(shape) * np.finfo(np.float64).eps * float(sigma[0])


def numerical_rank(sigma, shape) -> int:
    """Number of singular values above the zero cutoff."""
    thr = singular_value_threshold(sigma, shape)
    return int(np.sum(np.asarray(sigma) > thr))


# ---------------------------------------------------------------------------
# Exact -> float conversion
# ---------------------------------------------------------------------------


def to_float(m: ExactMatrix) -> FloatMatrix:
    """Entrywise nearest-binary64 image of an exact matrix.

    The worst relative conversion error over all nonzero components is
    recorded on the result as ``max_rel_error``.  Raises ``OverflowError``
    when a magnitude exceeds the binary64 range.
    """
    arr = np.empty((m.rows, m.cols), dtype=np.complex128)
    worst = Fraction(0)
    for i in range(m.rows):
        for j in range(m.cols):
            e = m.entry(i, j)
            fre, fim = float(e.re), float(e.im)
            arr[i, j] = complex(fre, fim)
            for exact_part, approx in ((e.re, fre), (e.im, fim)):
                if exact_part != 0:
                    err = abs(Fraction(approx) - exact_part) / abs(exact_part)
                    if err > worst:
                        worst = err
    return FloatMatrix(arr, max_rel_error=float(worst))


# ---------------------------------------------------------------------------
# .mat text format
# ---------------------------------------------------------------------------

_EXACT_ENTRY = _re.compile(r"^(-?\d+)/(-?\d+)\+(-?\d+)/(-?\d+)i$")


def format_exact_scalar(e: ExactComplex) -> str:
    return (f"{e.re.numerator}/{e.re.denominator}"
            f"+{e.im.numerator}/{e.im.denominator}i")


def parse_exact_scalar(tok: str, line=None) -> ExactComplex:
    m = _EXACT_ENTRY.match(tok)
    if not m:
        raise FormatError(f"bad exact entry {tok!r}", line)
    rp, rq, ip, iq = (int(g) for g in m.groups())
    if rq == 0 or iq == 0:
        raise FormatError(f"zero denominator in {tok!r}", line)
    return ExactComplex(Fraction(rp, rq), Fraction(ip, iq))


def format_float_scalar(z: complex) -> str:
    im = z.imag
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{z.real!r}{sign}{abs(im)!r}i"


def parse_float_scalar(tok: str, line=None) -> complex:
    if not tok.endswith("i"):
        raise FormatError(f"bad float entry {tok!r}", line)
    try:
        return complex(tok[:-1] + "j")
    except ValueError as exc:
        raise FormatError(f"bad float entry {tok!r}", line) from exc


def write_mat(path, m) -> None:
    """Serialize an ExactMatrix or FloatMatrix to the .mat text format."""
    lines = [f"{m.rows} {m.cols}"]
    if isinstance(m, ExactMatrix):
        for i in range(m.rows):
            lines.append(" ".join(format_exact_scalar(e) for e in m.row(i)))
    else:
        for i in range(m.rows):
            lines.append(" ".join(format_float_scalar(m.entry(i, j)) for j in range(m.cols)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mat(path):
    """Parse a .mat file; entries with '/' are exact, otherwise float."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise FormatError("empty .mat file", 1)
    head = raw[0].split()
    if len(head) != 2:
        raise FormatError("header must be 'rows cols'", 1)
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("header must be 'rows cols'", 1) from None
    if len(raw) < rows + 1:
        raise FormatError(f"expected {rows} rows", len(raw))
    body = [raw[1 + i].split() for i in range(rows)]
    for i, toks in enumerate(body):
        if len(toks) != cols:
            raise FormatError(f"expected {cols} entries", 2 + i)
    is_exact = rows == 0 or cols == 0 or "/" in body[0][0]
    if is_exact:
        flat = []
        for i, toks in enumerate(body):
            flat.extend(parse_exact_scalar(t, 2 + i) for t in toks)
        return ExactMatrix(rows, cols, flat)
    arr = np.empty((rows, cols), dtype=np.complex128)
    for i, toks in enumerate(body):
        for j, t in enumerate(toks):
            arr[i, j] = parse_float_scalar(t, 2 + i)
    return FloatMatrix(arr)
