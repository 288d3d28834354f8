import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge import (
    DegRevLex,
    Ideal,
    PolyRing,
    finite_colength_length,
    linalg,
    oracle_quotient_dimension,
    subquotient_length,
)
from hkforge.lengths import _span_rows
from hkforge.linalg import in_row_span, rank, rank_of_rows, reduce_row, row_reduce

from helpers import reference_row_reduce, reference_span_rows

# the least prime above 2**32: products of two residues overflow int64
BIG_P = 4294967311


def test_repeated_and_scaled_rows_keep_the_rank():
    rng = random.Random(7)
    p = 31
    for _ in range(20):
        base = np.array(
            [[rng.randrange(p) for _ in range(6)] for _ in range(rng.randint(1, 5))],
            dtype=np.int64,
        )
        extra = [base[rng.randrange(len(base))] * rng.randrange(p) for _ in range(4)]
        padded = np.vstack([base, base, *extra])
        order = list(range(len(padded)))
        rng.shuffle(order)
        assert rank(padded[order], p) == rank(base, p)


def test_rank_exact_beyond_int64_products():
    p = BIG_P
    matrix = np.array([[1, p - 2], [p - 2, (p - 2) ** 2 % p]], dtype=np.int64)
    assert rank(matrix, p) == 1
    rng = random.Random(3)
    for _ in range(20):
        r1 = [rng.randrange(p) for _ in range(4)]
        r2 = [rng.randrange(p) for _ in range(4)]
        k = rng.randrange(p)
        rows = [r1, r2, [(a + k * b) % p for a, b in zip(r1, r2)]]
        assert rank_of_rows([dict(enumerate(r)) for r in rows], p) == 2


def test_length_routes_agree_beyond_int64_products():
    ring = PolyRing(BIG_P, ("x", "y"))
    x, y = ring.gens()
    c = BIG_P - 2
    j_ideal = Ideal(ring, [x**3 - c * x * y, y**2 - c * x**2, x**2 * y])
    expected = finite_colength_length(j_ideal).value
    assert oracle_quotient_dimension(j_ideal, 8) == expected
    u_ideal = Ideal(ring, [ring.one()])
    assert subquotient_length(u_ideal, j_ideal, method="rank").value == expected


def test_in_row_span_members_and_non_members():
    p = 7
    matrix = np.array([[1, 2, 0, 3], [0, 0, 1, 5], [2, 4, 1, 1]], dtype=np.int64)
    inside = (3 * matrix[0] + 6 * matrix[1]) % p
    assert in_row_span(matrix, inside, p)
    assert not in_row_span(matrix, np.array([0, 1, 0, 0], dtype=np.int64), p)
    assert in_row_span(matrix, np.zeros(4, dtype=np.int64), p)


def test_in_row_span_of_an_empty_matrix():
    empty = np.zeros((0, 3), dtype=np.int64)
    assert in_row_span(empty, np.zeros(3, dtype=np.int64), 5)
    assert not in_row_span(empty, np.array([0, 0, 1], dtype=np.int64), 5)


def test_in_row_span_exact_beyond_int64_products():
    p = BIG_P
    matrix = np.array([[1, p - 2, 0], [0, 0, 1]], dtype=object)
    assert in_row_span(matrix, np.array([p - 2, (p - 2) ** 2 % p, 5], dtype=object), p)
    assert not in_row_span(matrix, np.array([p - 2, (p - 2) ** 2 % p + 1, 5], dtype=object), p)


def _random_matrix(rng, p, nrows, ncols, density):
    """Rows of residues, a `density` share of them nonzero, with a zero row
    and repeats of earlier rows mixed in."""
    rows = [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    rows.append([0] * ncols)
    rows += [list(rows[rng.randrange(nrows)]) for _ in range(2)]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3, 31, 2**31 - 1, BIG_P])
def test_kernel_agrees_with_sympy_domain_matrix(p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)

    def sympy_rank(rows):
        return DomainMatrix([[field(v) for v in row] for row in rows], (len(rows), len(rows[0])), field).rank()

    rng = random.Random(p)
    for trial in range(24):
        density = (0.15, 0.5, 1.0)[trial % 3]
        ncols = rng.randint(1, 9)
        rows = _random_matrix(rng, p, rng.randint(1, 7), ncols, density)
        expected = sympy_rank(rows)
        assert rank(np.array(rows, dtype=object), p) == expected
        assert rank_of_rows([{c: v for c, v in enumerate(r) if v} for r in rows], p) == expected
        picks = [rng.randrange(p) for _ in rows]
        inside = [sum(k * r[c] for k, r in zip(picks, rows)) % p for c in range(ncols)]
        outside = [rng.randrange(p) for _ in range(ncols)]
        matrix = np.array(rows, dtype=object)
        assert in_row_span(matrix, np.array(inside, dtype=object), p)
        assert in_row_span(matrix, np.array(outside, dtype=object), p) == (
            sympy_rank(rows + [outside]) == expected
        )


# -- the exact echelon ---------------------------------------------------------------

PRIMES = [2, 3, 31, 2**31 - 1, BIG_P]


def _assert_exact_echelon(rows, p):
    """row_reduce gives the reference echelon, every row reduces to zero
    against it, and each pivot is keyed by its least column, with lead 1 and
    every entry a residue in 1..p-1: `oracle_ideal_member` and the reference
    span closure of `tests/helpers.py` reduce against it as it is."""
    echelon = row_reduce(rows, p)
    assert echelon == reference_row_reduce(rows, p)
    for row in rows:
        assert reduce_row(row, echelon, p) == {}
    for lead, row in echelon.items():
        assert lead == min(row) and row[lead] == 1
        assert all(0 < value < p for value in row.values())
    return echelon


def _tricky_rows(rng, p):
    """Rows over a few columns, some of them pivoted by one-entry rows
    (repeated, scaled past p or negative, some of them 0 mod p).  The longer
    rows mix those columns with 0, 1 or more others, so they empty out, keep
    one entry or keep several once the one-entry columns are gone; their
    entries may be 0 mod p, negative or at least p."""

    def entry():
        return rng.choice(
            [rng.randrange(1, p), -rng.randrange(1, p), p * rng.randint(-2, 2), rng.randrange(p, 3 * p)]
        )

    ncols = rng.randint(1, 10)
    units = rng.sample(range(ncols), rng.randint(0, ncols))
    rows = [{col: entry()} for col in units for _ in range(rng.randint(1, 2))]
    others = [col for col in range(ncols) if col not in units]
    for _ in range(rng.randint(0, 8)):
        keep = rng.sample(others, min(len(others), rng.choice([0, 1, 1, 2, 3])))
        cleared = rng.sample(units, rng.randint(0, len(units)))
        rows.append({col: entry() for col in cleared + keep})
    rows += [dict(rows[rng.randrange(len(rows))]) for _ in range(2 if rows else 0)]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", PRIMES)
def test_row_reduce_gives_the_reference_echelon(p):
    rng = random.Random(f"echelon:{p}")
    for _ in range(300):
        _assert_exact_echelon(_tricky_rows(rng, p), p)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    rows=st.lists(
        st.dictionaries(st.integers(0, 7), st.integers(-70, 70), max_size=4),
        max_size=12,
    ),
)
def test_row_reduce_gives_the_reference_echelon_on_any_rows(p, rows):
    _assert_exact_echelon(rows, p)


@pytest.mark.parametrize("p", [3, 5, 2**31 - 1])
def test_row_reduce_gives_the_reference_echelon_on_oracle_matrices(p):
    """The oracle's matrices in the crosscheck benchmark's shape: x^a, y^b,
    z^c plus sparse forms, at the bound a + b + c - 3.  Both the full
    reference matrix, one row per multiple, and the rows `_span_rows` keeps
    once the unit columns are struck; the units and the struck rows have the
    full matrix's rank."""
    ring = PolyRing(p, ("x", "y", "z"), DegRevLex())
    x, y, z = ring.gens()
    cases = [
        ([x**3, y**3, z**3, x * y + z**2], 6),
        ([x**3, y**4, z**3, 2 * x * y * z + y**3, x**2 * z**2 + 3 * y**4], 7),
        ([x**4, y**3, z**5, x**2 - y * z, y**2 * z + 4 * x * z**2 + z**3], 9),
        ([x**2, y**2, z**2], 3),
    ]
    for gens, bound in cases:
        ideal = Ideal(ring, gens)
        full = reference_span_rows(ideal, bound)
        units, rows = _span_rows(ideal, bound)
        assert all(row and not units & row.keys() for row in rows)
        assert len(_assert_exact_echelon(full, p)) == rank_of_rows(full, p)
        assert len(units) + len(_assert_exact_echelon(rows, p)) == rank_of_rows(full, p)


def _reduce_row_calls(monkeypatch, call):
    calls = []
    original = linalg.reduce_row

    def counting(row, echelon, p):
        calls.append(row)
        return original(row, echelon, p)

    with monkeypatch.context() as m:
        m.setattr(linalg, "reduce_row", counting)
        result = call()
    return result, len(calls)


def test_oracle_pivots_one_entry_rows_without_reducing_them(monkeypatch):
    """J = (x^3, y^3, z^3, xy + z^2) at bound 6 has 57 unit columns, the
    multiples of x^3, y^3 and z^3, and 17 rows of xy + z^2 multiples that keep
    an entry once those columns are struck, 13 of them with one entry.  Those
    pivot outright, and only the other 4 go through reduce_row; a monomial
    ideal has no rows, so reduce_row is not called at all."""
    ring = PolyRing(5, ("x", "y", "z"), DegRevLex())
    x, y, z = ring.gens()
    j_ideal = Ideal(ring, [x**3, y**3, z**3, x * y + z**2])
    units, rows = _span_rows(j_ideal, 6)
    assert (len(units), len(rows), sum(len(row) == 1 for row in rows)) == (57, 17, 13)
    assert _reduce_row_calls(monkeypatch, lambda: oracle_quotient_dimension(j_ideal, 6)) == (13, 4)
    monomial = Ideal(ring, [x**2, y**2, z**2])
    units, rows = _span_rows(monomial, 6)
    assert (len(units), rows) == (76, [])
    assert _reduce_row_calls(monkeypatch, lambda: oracle_quotient_dimension(monomial, 6)) == (8, 0)


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hkforge; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
