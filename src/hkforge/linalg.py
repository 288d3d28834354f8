"""Sparse exact linear algebra over F_p.

A row is a dict {column: residue} of Python ints holding only its nonzero
entries, so elimination is exact for every prime and touches only nonzeros.
Columns are ints; a row's lead is its least column.  These are the rows of
an F4-style Macaulay matrix (Faugere, JPAA 1999; Faugere & Lachartre, PASCO
2010); the oracle's matrices in `lengths` have under 1% nonzero entries.
The oracle takes the columns of its monomial generators' multiples as
pivots before it builds a row, and strikes them from the rows it builds, so
most of the rows that reach `row_reduce` keep one entry or a few.
`row_reduce` takes the next step of structured Gaussian elimination
(LaMacchia & Odlyzko, CRYPTO 1990): it pivots the one-entry rows outright
and strikes their columns from the other rows before any of those is
reduced.
"""

from __future__ import annotations

import heapq


def reduce_row(row: dict, echelon: dict, p: int) -> dict:
    """`row` minus the multiples of `echelon` rows that clear every one of
    their lead columns from it.

    `echelon` maps lead column to a row with lead 1 and no smaller column, so
    clearing the columns in increasing order never brings one back.  Entries
    of `row` may be any ints; they are taken mod p.
    """
    row = {col: r for col, value in row.items() if (r := value % p)}
    hits = [c for c in row if c in echelon]
    heapq.heapify(hits)
    while hits:
        lead = heapq.heappop(hits)
        coef = row.pop(lead, 0)
        if not coef:
            continue
        for col, value in echelon[lead].items():
            if col == lead:
                continue
            new = (row.get(col, 0) - coef * value) % p
            if new:
                if col not in row and col in echelon:
                    heapq.heappush(hits, col)
                row[col] = new
            else:
                row.pop(col, None)
    return row


def row_reduce(rows: list[dict], p: int) -> dict[int, dict]:
    """Echelon form of sparse `rows` mod p, as {lead column: row with lead 1}.

    First each one-entry row whose entry is nonzero mod p pivots its column
    as entry 1.  Such a pivot clears its column from any other row with no
    fill, so the longer rows, shortest first, just lose those columns; a row
    left empty is dropped, and the rest go through `reduce_row`.  The echelon
    equals the one that reducing every row, shortest first, through
    `reduce_row` gives.
    """
    echelon: dict[int, dict] = {}
    longer = []
    for row in rows:
        if len(row) == 1:
            [(col, value)] = row.items()
            if value % p:
                echelon[col] = {col: 1}
        else:
            longer.append(row)
    # a frozen copy: pivots found below must still be subtracted, not dropped
    units = set(echelon)
    for row in sorted(longer, key=len):
        row = {col: value for col, value in row.items() if col not in units}
        if row and (row := reduce_row(row, echelon, p)):
            lead = min(row)
            inv = pow(row[lead], p - 2, p)
            echelon[lead] = {col: value * inv % p for col, value in row.items()}
    return echelon


def rank_of_rows(rows: list[dict], p: int) -> int:
    """Rank over F_p of sparse rows."""
    return len(row_reduce(rows, p))


def rank(matrix, p: int) -> int:
    """Rank over F_p of a dense matrix (anything with `.tolist()`)."""
    return rank_of_rows([dict(enumerate(r)) for r in matrix.tolist()], p)


def in_row_span(matrix, vector, p: int) -> bool:
    """Whether dense `vector` lies in the row span of dense `matrix` over F_p."""
    echelon = row_reduce([dict(enumerate(r)) for r in matrix.tolist()], p)
    return not reduce_row(dict(enumerate(vector.tolist())), echelon, p)
