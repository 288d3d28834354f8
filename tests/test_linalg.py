import random
import subprocess
import sys

import numpy as np
import pytest

from hkforge import Ideal, PolyRing, finite_colength_length, oracle_quotient_dimension, subquotient_length
from hkforge.linalg import in_row_span, rank, rank_of_rows

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


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hkforge; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
