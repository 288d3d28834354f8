import random

import numpy as np

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
        assert rank_of_rows([dict(enumerate(r)) for r in rows], [0, 1, 2, 3], p) == 2


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
