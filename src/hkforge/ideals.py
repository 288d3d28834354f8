"""Ideal-level operations: bracket powers, sums and products, intersection by
the auxiliary-variable elimination trick, colon, saturation, and the Krull
dimension of the quotient.

An Ideal is a generator list plus a cache of reduced Groebner bases, one per
monomial order.  Intersections go through a fresh elimination variable t with
a block order t > (ambient order): for ideals I and K, the ideal
t*I + (1-t)*K contracts to I ∩ K, and the contraction inherits a reduced
Groebner basis from the elimination basis for free.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from . import config
from .errors import (
    CapExceeded,
    EmptyVariety,
    RingMismatch,
    ZeroDivisor,
)
from .groebner import GroebnerBasis, buchberger
from .polyring import Block, MonomialOrder, PolyRing, Polynomial, division


class Ideal:
    """Handle on an ideal of a PolyRing: generators plus cached bases."""

    __slots__ = ("ring", "generators", "_bases")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if isinstance(g, int):
                g = ring.constant(g)
            if not ring.compatible(g.ring):
                raise RingMismatch(f"generator over {g.ring!r} in ideal over {ring!r}")
            if not g.is_zero():
                gens.append(g.resorted(ring))
        self.ring = ring
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._bases: dict[MonomialOrder, GroebnerBasis] = {}

    # -- bases and membership ------------------------------------------------

    def groebner_basis(self, order: MonomialOrder | None = None) -> GroebnerBasis:
        if order is None:
            order = self.ring.order
        cached = self._bases.get(order)
        if cached is not None:
            return cached
        basis = buchberger(self.generators, order)
        self._bases[order] = basis
        return basis

    def seed_basis(self, basis: GroebnerBasis) -> "Ideal":
        self._bases[basis.order] = basis
        return self

    def contains(self, f: Polynomial, order: MonomialOrder | None = None) -> bool:
        return self.groebner_basis(order).contains(f.resorted(self.ring))

    def __contains__(self, f: Polynomial) -> bool:
        return self.contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        basis = self.groebner_basis()
        return all(basis.contains(g) for g in other.generators)

    def is_unit(self) -> bool:
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0] == self.ring.one()

    def is_zero(self) -> bool:
        return not self.generators

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(
            self.ring,
            (a * b for a in self.generators for b in other.generators),
        )

    def __pow__(self, n: int) -> "Ideal":
        if n < 0:
            raise ValueError("negative ideal power")
        if n == 0:
            return Ideal(self.ring, [self.ring.one()])
        return Ideal(
            self.ring,
            (
                _product(combo)
                for combo in itertools.combinations_with_replacement(self.generators, n)
            ),
        )

    def _check(self, other: "Ideal") -> None:
        if not self.ring.compatible(other.ring):
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return ideal_equal(self, other)

    def __hash__(self):
        raise TypeError("Ideal is not hashable; compare with ideal_equal")

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"

    # -- conveniences ---------------------------------------------------------

    def bracket(self, e: int) -> "Ideal":
        return bracket_power(self, e)

    def intersect(self, other: "Ideal") -> "Ideal":
        return intersect(self, other)

    def colon(self, other: "Ideal | Polynomial") -> "Ideal":
        if isinstance(other, Polynomial):
            return colon_element(self, other)
        return colon_ideal(self, other)

    def saturation(self, other: "Ideal | Polynomial") -> tuple["Ideal", int]:
        return saturate(self, other)


def _product(polys: Sequence[Polynomial]) -> Polynomial:
    out = polys[0]
    for g in polys[1:]:
        out = out * g
    return out


def maximal_ideal(ring: PolyRing) -> Ideal:
    """The irrelevant maximal ideal (all variables)."""
    return Ideal(ring, ring.gens())


def unit_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, [ring.one()])


def ideal_member(f: Polynomial, ideal: Ideal, order: MonomialOrder | None = None) -> bool:
    """f lies in the ideal iff its normal form against a Groebner basis is 0."""
    return ideal.contains(f, order)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality via reduced Groebner bases under a's ring order, which are
    unique for a fixed order."""
    a._check(b)
    return a.groebner_basis().elements == b.groebner_basis(a.ring.order).elements


# ---------------------------------------------------------------------------
# bracket powers

def bracket_power(ideal: Ideal, e: int) -> Ideal:
    """The ideal generated by the p^e-th powers of the generators.

    Independent of the generating set.  Cached reduced bases transport for
    free: bracketing a reduced Groebner basis over F_p yields the reduced
    basis of the bracket power.
    """
    if e < 0:
        raise ValueError("bracket exponent must be non-negative")
    cap = config.bracket_cap()
    if e > cap:
        raise CapExceeded(f"bracket exponent {e} exceeds cap {cap}")
    if e == 0:
        return ideal
    out = Ideal(ideal.ring, (g.frobenius(e) for g in ideal.generators))
    for order, basis in ideal._bases.items():
        if basis.reduced:
            out._bases[order] = basis.frobenius(e)
    return out


# ---------------------------------------------------------------------------
# intersection / colon / saturation

def _fresh_variable(ring: PolyRing) -> str:
    name = "t"
    while name in ring.variables:
        name += "t"
    return name


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """I ∩ K through elimination of one auxiliary variable.

    Builds t*I + (1-t)*K in an extended ring ordered with t ahead of the
    ambient order, takes a Groebner basis, and keeps the elements whose leads
    are t-free; those elements are t-free entirely and form a reduced basis of
    the intersection under the ambient order.
    """
    a._check(b)
    ring = a.ring
    if a.is_unit():
        return b
    if b.is_unit():
        return a
    if a.is_zero() or b.is_zero():
        return Ideal(ring, [])
    aux = PolyRing(ring.p, (_fresh_variable(ring),) + ring.variables, Block(1, ring.order))
    t = aux.gen(aux.variables[0])
    one_minus_t = aux.one() - t

    def lift(f: Polynomial) -> Polynomial:
        return aux.polynomial({(0,) + m: c for m, c in f.terms})

    gens = [t * lift(g) for g in a.generators]
    gens += [one_minus_t * lift(g) for g in b.generators]
    basis = buchberger(gens, aux.order)

    contracted = []
    for g in basis:
        if g.leading_monomial(aux.order)[0] == 0:
            contracted.append(ring.polynomial({m[1:]: c for m, c in g.terms}))
    result = Ideal(ring, contracted)
    result.seed_basis(GroebnerBasis(tuple(contracted), ring.order, reduced=True))
    return result


def colon_element(ideal: Ideal, u: Polynomial) -> Ideal:
    """(I : u) = {f : f*u in I}, computed as (I ∩ (u)) divided through by u."""
    if isinstance(u, int):
        u = ideal.ring.constant(u)
    if u.is_zero():
        raise ZeroDivisor("colon by zero")
    if u.is_monomial() and not any(u.leading_monomial()):
        return ideal  # unit scalar
    meet = intersect(ideal, Ideal(ideal.ring, [u]))
    quotients = []
    for g in meet.generators:
        quot, rem = division(g, [u])
        if not rem.is_zero():
            raise AssertionError("intersection with (u) produced a non-multiple of u")
        quotients.append(quot[0])
    return Ideal(ideal.ring, quotients)


def colon_ideal(ideal: Ideal, divisor: Ideal) -> Ideal:
    """(I : K) as the intersection of the element colons over generators of K."""
    ideal._check(divisor)
    if divisor.is_zero():
        raise ZeroDivisor("colon by the zero ideal")
    parts = [colon_element(ideal, k) for k in divisor.generators]
    out = parts[0]
    for part in parts[1:]:
        out = intersect(out, part)
    return out


def saturate(
    ideal: Ideal, divisor: Ideal | Polynomial, *, cap: int | None = None
) -> tuple[Ideal, int]:
    """(I : K^infinity): iterate the colon until the chain stabilizes.

    Returns (stable ideal, number of colon steps that strictly grew the
    chain).  Stabilization is detected on reduced bases under the ring order.
    The step cap exists only to surface runaway misuse; the chain itself must
    terminate.
    """
    if cap is None:
        cap = config.DEFAULT_SATURATION_CAP
    single = isinstance(divisor, Polynomial) or isinstance(divisor, int)
    current = ideal
    for step in range(cap + 1):
        nxt = colon_element(current, divisor) if single else colon_ideal(current, divisor)
        if ideal_equal(nxt, current):
            return current, step
        current = nxt
    raise CapExceeded(
        f"saturation did not stabilize within {cap} steps; raise the cap if this is intended"
    )


# ---------------------------------------------------------------------------
# dimension

def dimension(ideal: Ideal, order: MonomialOrder | None = None) -> int:
    """Krull dimension of R/I, read off the initial ideal.

    dim R/I equals the largest number of variables a subset S can hold while
    containing no leading monomial's support; any Groebner order gives the
    same answer, and the ring order is the default.
    """
    basis = ideal.groebner_basis(order)
    nvars = ideal.ring.nvars
    supports = []
    for g in basis:
        lm = g.leading_monomial(basis.order)
        if not any(lm):
            raise EmptyVariety("the unit ideal defines the empty variety")
        supports.append(frozenset(i for i, e in enumerate(lm) if e))
    best = 0
    for size in range(nvars, 0, -1):
        for combo in itertools.combinations(range(nvars), size):
            s = set(combo)
            if all(not supp <= s for supp in supports):
                return size
    return best
