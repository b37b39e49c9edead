"""Exact scalars, exact rank, SVD and the ``.mat`` writer.

Two parallel scalar worlds are kept deliberately separate:

* :class:`ExactComplex` — Gaussian rationals, the entries of tensors and
  decompositions; an exact matrix is an order-2 ``tensor_core.DenseTensor``.
  Each component is a Python ``int`` when it is integral and a reduced
  ``Fraction`` otherwise, so the small Gaussian integers that make up nearly
  every tensor cost int arithmetic.
  :func:`exact_rank` is the one exact elimination: it clears each row's
  denominators, drops the zero and repeated columns (neither adds to the
  column space, so the rank is unchanged), replaces a matrix whose long
  side is at least twice its short side, and whose short side is at least
  ``GRAM_MIN_SIDE``, by its short-side Gram matrix (same rank over C), and
  runs fraction-free Bareiss elimination over Gaussian integers held as
  pairs of Python ints, with exact pivot tests, so an exact rank never
  depends on a tolerance.
* floating complex — plain ``complex`` / ``numpy.complex128``, used for SVD,
  protocol simulation, and the numerical rank (:func:`numerical_rank`) of
  matrices built from simulated states, where a numerical kernel is the
  right tool.  A float matrix is a plain 2-D complex128 ``ndarray``:
  :func:`to_float` makes one from an exact matrix, and :func:`svd` checks
  that its entries are finite and returns read-only factors.

Every text file, TSV reports included, goes through one line reader and one
line writer (:func:`read_lines`, :func:`write_lines`): a reader consumes or
rejects each nonblank line by its 1-based number.  An exact matrix is written
to the ``.mat`` text format, whose ``p/q`` rational tokens
(:func:`format_rational`, :func:`parse_rational`) the ``.tsr`` and ``.dec``
formats share.  Exact
values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceFailure, FormatError

if TYPE_CHECKING:  # tensor_core imports this module at run time
    from .tensor_core import DenseTensor

# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def _component(q) -> int | Fraction:
    """``q`` as a Python int when it is integral, else as a reduced Fraction."""
    q = Fraction(q)  # gcd-reduced, positive denominator
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class ExactComplex:
    """A Gaussian rational re + im*i with exact equality.

    Each component is an ``int`` when it is integral and a reduced
    ``Fraction`` otherwise.  Equality and hashing are those of the numbers,
    since ``1 == Fraction(1)`` and both hash alike.
    """

    re: int | Fraction
    im: int | Fraction

    def __post_init__(self):
        # an int passes through untouched: the common case costs one test
        if type(self.re) is not int:
            object.__setattr__(self, "re", _component(self.re))
        if type(self.im) is not int:
            object.__setattr__(self, "im", _component(self.im))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> int | Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        # float() raises OverflowError beyond the binary64 exponent range,
        # which is exactly the contract to_float advertises.
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"


EC_ZERO = ExactComplex(0, 0)
EC_ONE = ExactComplex(1, 0)


def exact(re, im=0) -> ExactComplex:
    """Shorthand constructor from ints or Fractions."""
    return ExactComplex(re, im)


def coerce_exact(v) -> ExactComplex:
    if isinstance(v, ExactComplex):
        return v
    if isinstance(v, (int, Fraction)):
        return ExactComplex(v, 0)
    raise TypeError(f"cannot coerce {type(v).__name__} to ExactComplex")


# ---------------------------------------------------------------------------
# Rank over the exact field
# ---------------------------------------------------------------------------

# The least short side on which exact_rank takes the Gram step: on one to
# three columns the NumPy round trip costs more than Bareiss saves.
GRAM_MIN_SIDE = 4


def exact_rank(m: DenseTensor) -> int:
    """Rank of an exact matrix (an order-2 tensor) by fraction-free Bareiss
    elimination over Z[i].

    Each row is first scaled by the lcm of its entries' denominators, which
    leaves the rank unchanged and turns every entry into a Gaussian integer,
    held as an ``(re, im)`` pair of Python ints.  Every row below the pivot
    then takes the one-step update ``(pivot * a_ij - a_ic * a_rj) / prev``.
    Each such entry is a minor of the scaled matrix (Sylvester's identity), so
    the division by the previous pivot is exact in Z[i] (Bareiss 1968) and
    the intermediate integers stay bounded by those minors.  Pivot tests
    compare against exact zero; no tolerance is involved.

    Only the distinct nonzero columns of the scaled matrix are eliminated.
    A zero column or a repeated column adds nothing to the column space, and
    scaling a row by a nonzero integer maps equal columns to equal columns
    and distinct ones to distinct ones, so the rank is unchanged.  The mode-1
    unfolding of eq at n = 5, k = 4 is 32 x 32,768 with 32 nonzero columns.

    When the remaining long side is at least twice the short side, and the
    short side is at least ``GRAM_MIN_SIDE``, the elimination runs on the
    Gram matrix of the short side instead (see
    :func:`_gram`): ``A A^H`` for a wide A, ``A^H A`` for a tall one.  It has
    the rank of A over C, since ``A A^H x = 0`` gives ``|A^H x|^2 = 0``, and
    it is short-side square, so Bareiss sweeps its few columns instead of
    A's many.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    scaled = [_gaussian_integer_row(m.row(i)) for i in range(m.rows)]
    cols = dict.fromkeys(zip(*scaled))
    cols.pop(((0, 0),) * m.rows, None)
    nrows, ncols = m.rows, len(cols)
    short = min(nrows, ncols)
    if short >= GRAM_MIN_SIDE and max(nrows, ncols) >= 2 * short:
        a = _gram(cols, nrows, tall=ncols < nrows)
        nrows = ncols = len(a)
    else:
        a = [list(r) for r in zip(*cols)]
    rank = 0
    prev_re, prev_im = 1, 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if a[i][c] != (0, 0)), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p_re, p_im = top[c]
        norm = prev_re * prev_re + prev_im * prev_im
        for i in range(rank + 1, nrows):
            row = a[i]
            c_re, c_im = row[c]
            for j in range(c + 1, ncols):
                x_re, x_im = row[j]
                t_re, t_im = top[j]
                n_re = p_re * x_re - p_im * x_im - c_re * t_re + c_im * t_im
                n_im = p_re * x_im + p_im * x_re - c_re * t_im - c_im * t_re
                # multiply by conj(prev) / |prev|^2; the quotient is exact
                row[j] = ((n_re * prev_re + n_im * prev_im) // norm,
                          (n_im * prev_re - n_re * prev_im) // norm)
        prev_re, prev_im = p_re, p_im
        rank += 1
        if rank == nrows:
            break
    return rank


def _gram(columns: list, nrows: int, tall: bool) -> list:
    """The Gram matrix of the short side of the Gaussian-integer matrix whose
    columns are ``columns`` (each ``nrows`` (re, im) pairs): ``A A^H``, or
    ``A^H A`` when A is ``tall``, as rows of (re, im) Python int pairs.

    With W the short-side matrix (A, or A^H when tall) split as Wr + i Wi,
    ``W W^H`` is one integer matmul: ``[[Wr, Wi], [Wi, -Wr]] @ [Wr, Wi]^T``
    stacks its real part over its imaginary part.  Each entry sums 2L
    products of at most M^2, L being the long side and M the largest
    component magnitude, so the product runs in int64 when ``2 L M^2 < 2^63``
    and in Python ints (object dtype) otherwise.
    """
    flat = [x for col in columns for pair in col for x in pair]
    big = max(max(flat), -min(flat))
    long_side = max(nrows, len(columns))
    dtype = np.int64 if 2 * long_side * big * big < 2 ** 63 else object
    arr = np.array(flat, dtype=dtype).reshape(len(columns), nrows, 2)
    if tall:
        wr, wi = arr[..., 0], -arr[..., 1]
    else:
        wr, wi = arr[..., 0].T, arr[..., 1].T
    s = np.concatenate((wr, wi), axis=1)
    p = np.concatenate((s, np.concatenate((wi, -wr), axis=1))) @ s.T
    short = len(wr)
    return [list(zip(re, im)) for re, im in zip(p[:short].tolist(), p[short:].tolist())]


def _gaussian_integer_row(row) -> list:
    """``row`` scaled by the lcm of its denominators, as (re, im) int pairs."""
    scale = math.lcm(*(q.denominator for e in row for q in (e.re, e.im)))
    return [(e.re.numerator * (scale // e.re.denominator),
             e.im.numerator * (scale // e.im.denominator)) for e in row]


# ---------------------------------------------------------------------------
# Floating SVD
# ---------------------------------------------------------------------------


def svd(m: np.ndarray, compute_uv: bool = True):
    """Reduced singular value decomposition m = u @ diag(sigma) @ v.

    ``m`` is a complex128 matrix whose entries must be finite, else
    ``ValueError``: LAPACK returns NaN factors for an ``inf`` entry instead of
    failing.  Returns read-only reduced factors, ``u`` rows x q and ``v``
    q x cols for q = min(rows, cols), and ``sigma`` sorted descending; with
    ``compute_uv=False``, as in numpy, it returns ``sigma`` alone and never
    builds the factors.  The LAPACK kernel's internal iteration cap is
    surfaced as :class:`ConvergenceFailure`.
    """
    if not np.isfinite(m).all():
        raise ValueError("svd needs finite entries")
    try:
        out = np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    for a in out if compute_uv else (out,):
        a.flags.writeable = False
    return out


def numerical_rank(sigma, shape) -> int:
    """Number of singular values above max(rows, cols) * eps * sigma_max."""
    if len(sigma) == 0:
        return 0
    thr = max(shape) * np.finfo(np.float64).eps * float(sigma[0])
    return int(np.sum(np.asarray(sigma) > thr))


# ---------------------------------------------------------------------------
# Exact -> float conversion
# ---------------------------------------------------------------------------


def to_float(m: DenseTensor) -> np.ndarray:
    """Entrywise nearest-binary64 image of an exact order-2 tensor, as a
    complex128 array.

    Raises ``OverflowError`` when a magnitude exceeds the binary64 range.
    """
    return np.array([complex(e) for e in m.entries],
                    dtype=np.complex128).reshape(m.rows, m.cols)


# ---------------------------------------------------------------------------
# Text lines, tokens and the .mat format
# ---------------------------------------------------------------------------


def read_lines(path, comments: bool = False):
    """The nonblank lines of a text file as ``(line number, tokens)`` pairs,
    numbered from 1, and the file's last line number (1 for an empty file).

    With ``comments``, the text after a ``#`` is dropped from each line first.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = []
    for lineno, line in enumerate(raw, start=1):
        toks = (line.split("#", 1)[0] if comments else line).split()
        if toks:
            lines.append((lineno, toks))
    return lines, max(1, len(raw))


def parse_ints(tokens, line, message) -> tuple:
    """``tokens`` as ints; :class:`FormatError` ``message`` at ``line`` if
    one is not an integer."""
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise FormatError(message, line) from None


def write_lines(path, lines) -> None:
    """Write ``lines`` (strings without newlines), each ending in a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_RATIONAL = r"(-?\d+)/(-?\d+)"
_RATIONAL_TOKEN = _re.compile(rf"^{_RATIONAL}$")
_EXACT_ENTRY = _re.compile(rf"^{_RATIONAL}\+{_RATIONAL}i$")


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def format_exact_scalar(e: ExactComplex) -> str:
    return f"{format_rational(e.re)}+{format_rational(e.im)}i"


def _rational(p: str, q: str, tok: str, line) -> Fraction:
    if int(q) == 0:
        raise FormatError(f"zero denominator in {tok!r}", line)
    return Fraction(int(p), int(q))


def parse_rational(tok: str, line=None) -> Fraction:
    """Parse one ``p/q`` token; ``line`` is reported on a malformed token."""
    m = _RATIONAL_TOKEN.match(tok)
    if not m:
        raise FormatError(f"bad rational {tok!r}", line)
    return _rational(*m.groups(), tok, line)


def parse_exact_scalar(tok: str, line=None) -> ExactComplex:
    m = _EXACT_ENTRY.match(tok)
    if not m:
        raise FormatError(f"bad exact entry {tok!r}", line)
    rp, rq, ip, iq = m.groups()
    return ExactComplex(_rational(rp, rq, tok, line), _rational(ip, iq, tok, line))


def parse_float_scalar(tok: str, line=None) -> complex:
    """Parse one ``re+imi`` float token, as in a scenario's matrix literal."""
    if not tok.endswith("i"):
        raise FormatError(f"bad float entry {tok!r}", line)
    try:
        return complex(tok[:-1] + "j")
    except ValueError as exc:
        raise FormatError(f"bad float entry {tok!r}", line) from exc


def write_mat(path, m: DenseTensor) -> None:
    """Serialize an exact order-2 tensor to the .mat text format."""
    write_lines(path, [f"{m.rows} {m.cols}"]
                + [" ".join(format_exact_scalar(e) for e in m.row(i)) for i in range(m.rows)])
