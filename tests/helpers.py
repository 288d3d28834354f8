"""Shared random generators for the test suite (always seeded by the caller)."""

import random

from hkforge import Ideal, PolyRing, Polynomial
from hkforge.polyring import monomial_divides


def random_monomial(rng: random.Random, ring: PolyRing, max_degree: int):
    degree = rng.randint(0, max_degree)
    exps = [0] * ring.nvars
    for _ in range(degree):
        exps[rng.randrange(ring.nvars)] += 1
    return tuple(exps)


def random_polynomial(
    rng: random.Random, ring: PolyRing, max_degree: int = 4, max_terms: int = 4
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mon = random_monomial(rng, ring, max_degree)
        terms[mon] = rng.randint(1, ring.p - 1)
    return ring.polynomial(terms)


def random_nonzero_polynomial(rng, ring, max_degree=4, max_terms=4) -> Polynomial:
    while True:
        f = random_polynomial(rng, ring, max_degree, max_terms)
        if not f.is_zero():
            return f


def random_primary_pair(rng: random.Random, ring: PolyRing, max_degree: int = 4):
    """A nested pair J <= I of m-primary ideals in two variables.

    J always contains pure powers of both variables, so both colengths are
    finite; I adds a couple of extra elements on top of J.
    """
    x, y = ring.gens()
    a = rng.randint(1, max_degree)
    b = rng.randint(1, max_degree)
    j_gens = [x**a, y**b]
    for _ in range(rng.randint(0, 2)):
        j_gens.append(random_nonzero_polynomial(rng, ring, max_degree))
    j_ideal = Ideal(ring, j_gens)
    i_gens = list(j_gens)
    for _ in range(rng.randint(1, 2)):
        i_gens.append(random_nonzero_polynomial(rng, ring, max_degree))
    return j_ideal, Ideal(ring, i_gens)


def random_monomial_ideal(
    rng: random.Random, ring: PolyRing, max_degree: int = 6, extra: int = 3
) -> Ideal:
    """A finite-colength monomial ideal: pure powers plus a few mixed monomials."""
    gens = []
    for i, v in enumerate(ring.variables):
        e = rng.randint(1, max_degree)
        gens.append(ring.monomial(*[e if j == i else 0 for j in range(ring.nvars)]))
    for _ in range(rng.randint(0, extra)):
        gens.append(ring.polynomial({random_monomial(rng, ring, max_degree): 1}))
    return Ideal(ring, [g for g in gens if not g.is_zero()])


def is_reduced_basis(basis, order) -> bool:
    """Every element monic, and no term of one element divisible by the lead
    of another."""
    leads = [g.leading_monomial(order) for g in basis]
    for idx, g in enumerate(basis):
        if g.leading_coefficient(order) != 1:
            return False
        others = leads[:idx] + leads[idx + 1 :]
        if any(monomial_divides(lead, mon) for mon, _ in g.terms for lead in others):
            return False
    return True


# -- dict-of-tuples reference arithmetic ---------------------------------------

def dict_add(a: dict, b: dict, p: int, sign: int = 1) -> dict:
    """a + sign * b on {exponent tuple: coefficient} dicts."""
    out = dict(a)
    for mon, c in b.items():
        out[mon] = (out.get(mon, 0) + sign * c) % p
    return {mon: c for mon, c in out.items() if c}


def dict_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mon = tuple(x + y for x, y in zip(ma, mb))
            out[mon] = (out.get(mon, 0) + ca * cb) % p
    return {mon: c for mon, c in out.items() if c}
