"""Randomized cross-checks.

Each test hammers one semantic contract with membership-level probes that do
not depend on how the operation under test is implemented.
"""

import random

from hkforge import (
    Block,
    DegRevLex,
    Ideal,
    Lex,
    PolyRing,
    bracket_power,
    buchberger,
    certify_groebner,
    colon_element,
    ideal_equal,
    intersect,
    saturate,
    subquotient_length,
)

from helpers import is_reduced_basis, random_nonzero_polynomial, random_polynomial

ORDERS = (Lex(), DegRevLex(), Block(DegRevLex()), Block(Lex()))


def test_reduced_bases_certify_and_match_sympy_across_orders():
    from test_cross_validation import matches_sympy  # skips when sympy is missing

    rng = random.Random(999)
    for _ in range(80):
        nv = rng.choice((2, 3))
        ring = PolyRing(rng.choice((3, 5, 7)), tuple("xyz"[:nv]), rng.choice(ORDERS))
        gens = [
            random_nonzero_polynomial(rng, ring, max_degree=3, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        basis = buchberger(gens)
        assert certify_groebner(list(basis), ring.order).check()
        assert is_reduced_basis(basis, ring.order)
        assert matches_sympy(basis, gens, ring.order)


def test_intersection_membership_semantics():
    rng = random.Random(1001)
    ring = PolyRing(3, ("x", "y"))
    for _ in range(40):
        a = Ideal(ring, [random_nonzero_polynomial(rng, ring, 3) for _ in range(2)])
        b = Ideal(ring, [random_nonzero_polynomial(rng, ring, 3) for _ in range(2)])
        meet = intersect(a, b)
        for _ in range(6):
            probe = random_polynomial(rng, ring, 4)
            if rng.random() < 0.4:
                probe = probe * a.generators[0] * b.generators[0]
            assert meet.contains(probe) == (a.contains(probe) and b.contains(probe))


def test_colon_membership_semantics():
    rng = random.Random(1003)
    ring = PolyRing(5, ("x", "y"))
    for _ in range(40):
        ideal = Ideal(ring, [random_nonzero_polynomial(rng, ring, 3) for _ in range(2)])
        u = random_nonzero_polynomial(rng, ring, 2)
        quotient = colon_element(ideal, u)
        for _ in range(6):
            probe = random_polynomial(rng, ring, 3)
            assert quotient.contains(probe) == ideal.contains(probe * u)


def test_subquotient_routes_agree_in_three_variables():
    rng = random.Random(1005)
    ring = PolyRing(3, ("x", "y", "z"))
    x, y, z = ring.gens()
    for _ in range(15):
        j_ideal = Ideal(
            ring,
            [
                x ** rng.randint(1, 3),
                y ** rng.randint(1, 3),
                z ** rng.randint(1, 3),
                random_nonzero_polynomial(rng, ring, 2),
            ],
        )
        u_ideal = j_ideal + Ideal(ring, [random_nonzero_polynomial(rng, ring, 2)])
        assert (
            subquotient_length(u_ideal, j_ideal, method="rank").expect()
            == subquotient_length(u_ideal, j_ideal, method="difference").expect()
        )


def test_bracket_transport_across_orders():
    rng = random.Random(1007)
    for _ in range(20):
        order = rng.choice((Lex(), DegRevLex()))
        ring = PolyRing(3, ("x", "y"), order)
        gens = [random_nonzero_polynomial(rng, ring, 3) for _ in range(2)]
        ideal = Ideal(ring, gens)
        ideal.groebner_basis()
        transported = bracket_power(ideal, 1)._bases[order]
        fresh = buchberger([g.frobenius(1) for g in gens], order)
        assert list(transported) == list(fresh)


def test_saturation_is_idempotent():
    rng = random.Random(1009)
    ring = PolyRing(3, ("x", "y"))
    for _ in range(20):
        ideal = Ideal(ring, [random_nonzero_polynomial(rng, ring, 3) for _ in range(2)])
        u = random_nonzero_polynomial(rng, ring, 2)
        stable, _ = saturate(ideal, u)
        again, steps = saturate(stable, u)
        assert steps == 0 and ideal_equal(again, stable)
