"""Shared oracles for the test suite.

``minor_rank`` recomputes matrix rank by exhaustive minor expansion (largest
nonsingular square submatrix, exact determinants).  It shares no code path
with the elimination-based rank in the package, so it can serve as an
independent cross-check on small matrices.

``cli_env`` is the environment for a child ``python -m nqtensor``: the
``pythonpath`` pytest setting reaches only this process, so the child gets
the package's ``src`` directory through ``PYTHONPATH``.
"""

import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import nqtensor
from nqtensor.scalar_linalg import EC_ONE, EC_ZERO, ExactComplex, ExactMatrix


def cli_env() -> dict:
    """``os.environ`` with the imported package's ``src`` first on PYTHONPATH."""
    src = str(Path(nqtensor.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}


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


def minor_rank(m: ExactMatrix) -> int:
    """Largest size of a nonsingular square submatrix (brute force)."""
    grid = [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]
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
