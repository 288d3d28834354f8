"""Cross-validation against an independent computer algebra system.

sympy ships its own Buchberger implementation over GF(p); agreement of the
reduced bases on random inputs is a strong end-to-end check of the whole
polynomial/Groebner stack.  Skipped cleanly when sympy is unavailable.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from hkforge import (
    Block,
    DegRevLex,
    Ideal,
    Lex,
    PolyRing,
    buchberger,
    certify_groebner,
    finite_colength_length,
)

from helpers import random_nonzero_polynomial


def to_sympy(f, symbols):
    expr = 0
    for mon, coeff in f.terms:
        term = sympy.Integer(coeff)
        for sym, exp in zip(symbols, mon):
            term *= sym**exp
        expr += term
    return expr


def from_sympy(expr, ring, symbols):
    poly = sympy.Poly(expr, *symbols, modulus=ring.p)
    return ring.polynomial(
        {tuple(mon): int(coeff) % ring.p for mon, coeff in zip(poly.monoms(), poly.coeffs())}
    )


def sympy_reduced_basis(gens, ring, symbols, order):
    """sympy's reduced basis, comparing variables in the sequence `symbols`."""
    basis = sympy.groebner(
        [to_sympy(g, symbols) for g in gens],
        *symbols,
        order=order,
        modulus=ring.p,
    )
    return [from_sympy(expr, ring, symbols) for expr in basis.exprs]


@pytest.mark.parametrize(
    "order,sympy_order", [(Lex(), "lex"), (DegRevLex(), "grevlex")]
)
def test_reduced_bases_match_sympy(order, sympy_order):
    rng = random.Random(12321)
    for p in (3, 5):
        ring = PolyRing(p, ("x", "y", "z"), order)
        symbols = sympy.symbols("x y z")
        for _ in range(8):
            gens = [
                random_nonzero_polynomial(rng, ring, max_degree=3, max_terms=3)
                for _ in range(rng.randint(2, 3))
            ]
            ours = list(buchberger(gens, order))
            theirs = sympy_reduced_basis(gens, ring, symbols, sympy_order)
            assert sorted(map(str, ours)) == sorted(map(str, theirs))


@pytest.mark.parametrize(
    "order,sympy_order", [(Lex(), "lex"), (DegRevLex(), "grevlex")]
)
def test_permuted_orders_match_sympy(order, sympy_order):
    """A ring that declares its variables z, x, y ranks z first, as sympy
    does with its generators in that sequence."""
    rng = random.Random(4242)
    ring = PolyRing(5, ("z", "x", "y"), order)
    symbols = sympy.symbols(ring.variables)
    for _ in range(8):
        gens = [
            random_nonzero_polynomial(rng, ring, max_degree=3, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        ours = buchberger(gens, order)
        assert certify_groebner(list(ours), order).ok
        theirs = sympy_reduced_basis(gens, ring, symbols, sympy_order)
        assert sorted(map(str, ours)) == sorted(map(str, theirs))


def eliminated_part(basis, order, inner):
    """The elements of a block(...) basis free of the first variable, moved
    into `inner` (the ring of the remaining variables)."""
    moved = [g.resorted(g.ring.with_order(order)) for g in basis]
    return [
        inner.polynomial({m[1:]: c for m, c in g.terms})
        for g in moved
        if g.leading_monomial()[0] == 0
    ]


def sympy_elimination_basis(gens, ring, symbols, inner):
    """sympy's reduced degrevlex basis of (gens) ∩ k[symbols[1:]], reached
    through a lex basis."""
    lex = sympy.groebner(
        [to_sympy(g, symbols) for g in gens], *symbols, order="lex", modulus=ring.p
    )
    eliminated = [
        from_sympy(e, inner, symbols[1:]) for e in lex.exprs if symbols[0] not in e.free_symbols
    ]
    if not eliminated:
        return []
    return sympy_reduced_basis(eliminated, inner, symbols[1:], "grevlex")


def matches_sympy(basis, gens, order):
    """Whether a reduced basis under Lex, DegRevLex, Block(Lex) or
    Block(DegRevLex) is sympy's.  sympy has no block orders: block(lex)
    is lex on all variables, and for block(degrevlex) the first-variable-free
    part is compared with sympy's elimination basis."""
    ring = gens[0].ring
    symbols = sympy.symbols(ring.variables)
    if order == Block(DegRevLex()):
        inner = PolyRing(ring.p, ring.variables[1:], DegRevLex())
        ours = eliminated_part(basis, order, inner)
        theirs = sympy_elimination_basis(gens, ring, symbols, inner)
    else:
        sympy_order = {Lex(): "lex", Block(Lex()): "lex", DegRevLex(): "grevlex"}[order]
        ours = list(basis)
        theirs = sympy_reduced_basis(gens, ring, symbols, sympy_order)
    return sorted(map(str, ours)) == sorted(map(str, theirs))


def test_block_order_matches_sympy_elimination():
    """The x-free part of a block(degrevlex) basis is the reduced degrevlex
    basis of the elimination ideal, which sympy reaches through lex."""
    rng = random.Random(4343)
    order = Block(DegRevLex())
    ring = PolyRing(5, ("x", "y", "z"), order)
    for _ in range(8):
        gens = [
            random_nonzero_polynomial(rng, ring, max_degree=3, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        basis = buchberger(gens, order)
        assert certify_groebner(list(basis), order).ok
        assert matches_sympy(basis, gens, order)


def test_colengths_match_sympy_quotient_dimension():
    rng = random.Random(32123)
    ring = PolyRing(5, ("x", "y"), DegRevLex())
    symbols = sympy.symbols("x y")
    for _ in range(6):
        x, y = ring.gens()
        gens = [x ** rng.randint(1, 4), y ** rng.randint(1, 4)]
        gens += [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(1)]
        ideal = Ideal(ring, gens)
        ours = finite_colength_length(ideal).expect()
        basis = sympy.groebner(
            [to_sympy(g, symbols) for g in gens], *symbols, order="grevlex", modulus=5
        )
        # sympy counts the same standard monomials through its own machinery
        lead_exponents = [poly.LM(order="grevlex").exponents for poly in basis.polys]
        from hkforge.lengths import count_standard_monomials

        theirs = count_standard_monomials([tuple(e) for e in lead_exponents], 2)
        assert ours == theirs
