"""Dense exact linear algebra over F_p, vectorized with numpy.

Entries stay below p**2 throughout.  Matrices are int64 while that bound is
below 2**63, and hold exact Python ints (object dtype) for larger primes;
`matrix_dtype` makes the choice for every matrix built for this module.
"""

from __future__ import annotations

import numpy as np


def matrix_dtype(p: int):
    """The numpy dtype in which elimination mod p is exact."""
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def row_reduce(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of `matrix` mod p; returns (echelon copy, pivot columns).

    Elimination touches only the rows below each pivot and the columns at or
    past it, which is all a rank computation needs.
    """
    a = np.array(matrix, dtype=matrix_dtype(p)) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        below = a[r + 1 :, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            block = a[r + 1 :, c:]
            block[hit] = (block[hit] - np.outer(below[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(matrix: np.ndarray, p: int) -> int:
    if matrix.size == 0:
        return 0
    return len(row_reduce(matrix, p)[1])


def rank_of_rows(rows: list[dict], columns: list, p: int) -> int:
    """Rank over F_p of sparse rows (dicts keyed by entries of `columns`)."""
    if not rows or not columns:
        return 0
    index = {c: i for i, c in enumerate(columns)}
    a = np.zeros((len(rows), len(columns)), dtype=matrix_dtype(p))
    for r, row in enumerate(rows):
        for key, value in row.items():
            a[r, index[key]] = value % p
    return rank(a, p)


def in_row_span(matrix: np.ndarray, vector: np.ndarray, p: int) -> bool:
    """Whether `vector` lies in the row span of `matrix` over F_p.

    One elimination: the vector is cleared against the echelon rows, whose
    pivots are 1, in pivot-column order, and is in the span iff nothing is left.
    """
    v = np.array(vector, dtype=matrix_dtype(p)) % p
    if matrix.size:
        echelon, pivots = row_reduce(matrix, p)
        for r, c in enumerate(pivots):
            if v[c]:
                v = (v - v[c] * echelon[r]) % p
    return not v.any()
