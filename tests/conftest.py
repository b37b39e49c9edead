"""Shared oracles for the test suite.

``minor_rank`` recomputes matrix rank by exhaustive minor expansion (largest
nonsingular square submatrix, exact determinants).  It shares no code path
with the elimination-based rank in the package, so it can serve as an
independent cross-check on small matrices.

A matrix is an order-2 ``DenseTensor``.  The matrix and tensor
constructors below (``identity``, ``zero_matrix``, ``transpose``,
``matmul``, ``zero_tensor``, ``scale``, ``outer_product``,
``superdiagonal``) and the exact-only ``.mat`` reader ``read_mat`` are
reference oracles: they build entry by entry with ``ExactComplex``
arithmetic, and no command of the package needs them.

``per_input_families`` is ``protocol.nih_families`` with every input
simulated from the first turn by its own ``simulate_branches``.

``per_input_nof`` is the one-input NOF protocol algebra as ``run_nof``
ran it before sweeps built each column half's state once: it checks the
input and rebuilds the compressed state at every call.

``mobius_oracle`` is the Möbius transform of a function on n-bit masks by
inclusion-exclusion, summed directly over subsets, independently of the
in-place transform in ``functions.and_decomposition``.

``cli_env`` is the environment for a child ``python -m nqtensor``: the
``pythonpath`` pytest setting reaches only this process, so the child gets
the package's ``src`` directory through ``PYTHONPATH``.
"""

import math
import os
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

import nqtensor
from nqtensor import config
from nqtensor.errors import NormalizationError, PremiseViolation
from nqtensor.protocol import extract_families, simulate_branches
from nqtensor.scalar_linalg import (
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    coerce_exact,
    parse_exact_scalar,
)
from nqtensor.tensor_core import DenseTensor, flat_offset


def cli_env() -> dict:
    """``os.environ`` with the imported package's ``src`` first on PYTHONPATH."""
    src = str(Path(nqtensor.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}


def per_input_families(spec, f):
    """(families, ones) as ``nih_families`` returns them, one fresh
    simulation per input in lexicographic order, with the same premise
    check."""
    g = f.k // 2
    shape = (f.side ** g, f.side ** (f.k - g))
    families = np.zeros(shape + (math.prod(spec.player_dims[:g]),
                                 math.prod(spec.player_dims[g:])), dtype=np.complex128)
    ones = np.array(f.table()).reshape(shape) == 1
    for pos, xs in enumerate(f.inputs()):
        yz = divmod(pos, shape[1])
        b = simulate_branches(spec, xs)
        if (b.accept_probability() > config.ACCEPT_EPS) != ones[yz]:
            raise PremiseViolation(f"protocol acceptance at {xs} disagrees with {f.name}")
        _, a_vecs, b_vecs = extract_families(b)
        for a, v in zip(a_vecs, b_vecs):
            families[yz] += np.outer(a, v)
    return families, ones


def per_input_nof(p, xs):
    """(probability, accepted, analytic_probability) of ``p`` at ``xs``; the
    rows are players 1..ceil(k/2) and the columns the rest."""
    xs = p.f.check_input(xs)
    split = (p.f.k + 1) // 2
    dims = p.exact_tensor.dims
    row = flat_offset(dims[:split], xs[:split])
    col = flat_offset(dims[split:], xs[split:])
    if not p.live_columns[col]:
        return 0.0, False, 0.0
    phi = p.sigma[:p.r] * p.v[:p.r, col]
    norm = float(np.linalg.norm(phi))
    if norm == 0.0:
        raise NormalizationError("compressed state vanished on a column with a 1-input")
    c = 1.0 / norm
    amp = p.u[row, :p.r] @ (phi * c)
    prob = float(abs(amp) ** 2)
    analytic = float(p.exact_tensor.entry(xs).abs2()) * c * c
    return prob, prob > config.ACCEPT_EPS, analytic


def exact_det(entries):
    """Laplace determinant of a square list-of-lists of ExactComplex."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = EC_ZERO
    sign = EC_ONE
    minus = ExactComplex(Fraction(-1), Fraction(0))
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in entries[1:]]
        total = total + sign * entries[0][j] * exact_det(sub)
        sign = sign * minus
    return total


def minor_rank(m: DenseTensor) -> int:
    """Largest size of a nonsingular square submatrix (brute force)."""
    grid = [[m.entry((i, j)) for j in range(m.cols)] for i in range(m.rows)]
    best = 0
    for size in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rsel in combinations(range(m.rows), size):
            for csel in combinations(range(m.cols), size):
                sub = [[grid[i][j] for j in csel] for i in rsel]
                if not exact_det(sub).is_zero():
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def identity(n: int) -> DenseTensor:
    return DenseTensor((n, n), [EC_ONE if i == j else EC_ZERO
                                for i in range(n) for j in range(n)])


def zero_matrix(rows: int, cols: int) -> DenseTensor:
    return DenseTensor((rows, cols), [EC_ZERO] * (rows * cols))


def transpose(m: DenseTensor) -> DenseTensor:
    return DenseTensor((m.cols, m.rows),
                       [m.entry((i, j)) for j in range(m.cols) for i in range(m.rows)])


def matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    assert a.cols == b.rows, "inner dimensions disagree"
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = EC_ZERO
            for t in range(a.cols):
                acc = acc + a.entry((i, t)) * b.entry((t, j))
            out.append(acc)
    return DenseTensor((a.rows, b.cols), out)


def zero_tensor(dims) -> DenseTensor:
    return DenseTensor(dims, [EC_ZERO] * math.prod(dims))


def scale(t: DenseTensor, c: ExactComplex) -> DenseTensor:
    return DenseTensor(t.dims, [c * e for e in t.entries])


def outer_product(vectors) -> DenseTensor:
    """Rank-1 tensor whose entry at (j_1..j_k) is the product of components."""
    vectors = [[coerce_exact(v) for v in vec] for vec in vectors]
    entries = []
    for idx in product(*(range(len(v)) for v in vectors)):
        acc = EC_ONE
        for vec, j in zip(vectors, idx):
            acc = acc * vec[j]
        entries.append(acc)
    return DenseTensor([len(v) for v in vectors], entries)


def superdiagonal(side: int, diag, order: int) -> DenseTensor:
    """Tensor with diag[j] at position (j,...,j) and zero elsewhere."""
    dims = (side,) * order
    entries = [coerce_exact(diag[idx[0]]) if len(set(idx)) == 1 else EC_ZERO
               for idx in product(range(side), repeat=order)]
    return DenseTensor(dims, entries)


def mobius_oracle(n: int, h) -> dict:
    """{S: c_S} for every mask S with c_S != 0, where
    c_S = sum over T subset of S of (-1)^|S minus T| h(T)."""
    out = {}
    for s in range(2 ** n):
        c = sum((-1) ** bin(s ^ t).count("1") * h(t)
                for t in range(2 ** n) if t & s == t)
        if c:
            out[s] = c
    return out


def read_mat(path) -> DenseTensor:
    """Parse the exact ``.mat`` format that ``unfold`` writes."""
    head, *body = Path(path).read_text().splitlines()
    return DenseTensor([int(tok) for tok in head.split()],
                       [parse_exact_scalar(tok) for line in body for tok in line.split()])
