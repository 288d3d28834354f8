"""Ideal-level operations: bracket powers, sums and products, intersection by
the auxiliary-variable elimination trick, colon, saturation, and the Krull
dimension of the quotient.

An Ideal is a generator list plus a table of reduced Groebner bases, one per
monomial order that is asked for, each built on first use
(`Ideal.groebner_basis`): the ring's order, to print bases, and degrevlex,
for a saturation by a variable (`_saturate_variable`).  Questions that any
order answers take a basis already built (`Ideal.any_basis`): membership,
lengths, the unit test, the dimension and saturation step counts, since a
normal form modulo any basis is canonical and every order counts the same
standard monomials and gives the same dimension.  Equality is such a question
too, as each order has one reduced basis per ideal, so `ideal_equal` compares
under an order that one side already holds.  Intersections go
through an elimination variable t with a block order t > (ring order): for
ideals I and K, the ideal t*I + (1-t)*K contracts to I ∩ K, and the
contraction inherits a reduced Groebner basis from the elimination basis for
free.  The elimination basis also tells whether I or K is the unit ideal, so
no basis of either is built for that question.  `saturate` runs the colon
chain, which counts its steps.  Saturation by one variable goes through
homogenization instead, with no elimination, and `_saturation_steps` reads
the chain's step count off a known saturation by a walk of normal forms;
`verify_construction` uses both and builds no chain.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Sequence

from . import config
from .errors import (
    CapExceeded,
    EmptyVariety,
    RingMismatch,
    ZeroDivisor,
)
from .groebner import GroebnerBasis, buchberger
from .polyring import (
    Block,
    DegRevLex,
    DivisorTable,
    MonomialOrder,
    Packing,
    PolyRing,
    Polynomial,
    _mul_sorted,
    _reduce_sorted,
    division,
    packing_width,
)


class Ideal:
    """Handle on an ideal of a PolyRing: generators plus its reduced bases,
    keyed by monomial order, each built on first use."""

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
        """The reduced basis under `order` (the ring's order by default),
        built on first use and kept."""
        if order is None:
            order = self.ring.order
        basis = self._bases.get(order)
        if basis is None:
            # the order argument keeps `order` on the zero ideal's empty basis
            basis = self._bases[order] = buchberger(self.generators, order)
        return basis

    def any_basis(self) -> GroebnerBasis:
        """A reduced basis for questions that any order answers: the one under
        the ring's order if built, else the first one built, else the one
        under the ring's order, built now."""
        if self._bases and self.ring.order not in self._bases:
            return next(iter(self._bases.values()))
        return self.groebner_basis()

    def contains(self, f: Polynomial) -> bool:
        # the normal form moves f into the ring of the basis, but the zero
        # ideal's empty basis leaves f where it is, so check the ring here
        if not self.ring.compatible(f.ring):
            raise RingMismatch(f"{f.ring!r} vs {self.ring!r}")
        return self.any_basis().contains(f)

    def __contains__(self, f: Polynomial) -> bool:
        return self.contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        basis = self.any_basis()
        return all(basis.contains(g) for g in other.generators)

    def is_unit(self) -> bool:
        basis = self.any_basis()
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


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality via reduced Groebner bases, which are unique for each fixed
    order, or at once for equal generators.  The order is one a side already
    holds a basis under: the first of a's that b holds too, else b's first,
    else a's first, else a's ring order.  Either side keeps the basis built
    for it."""
    a._check(b)
    if a.generators == b.generators:
        return True
    order = next(
        itertools.chain((o for o in a._bases if o in b._bases), b._bases, a._bases),
        a.ring.order,
    )
    return a.groebner_basis(order).elements == b.groebner_basis(order).elements


# ---------------------------------------------------------------------------
# bracket powers

def bracket_power(ideal: Ideal, e: int) -> Ideal:
    """The ideal generated by the p^e-th powers of the generators.

    Independent of the generating set.  Every cached reduced basis transports
    for free: bracketing a reduced Groebner basis over F_p yields the reduced
    basis of the bracket power under the same order.
    """
    if e < 0:
        raise ValueError("bracket exponent must be non-negative")
    cap = config.bracket_cap()
    if e > cap:
        raise CapExceeded(f"bracket exponent {e} exceeds cap {cap}")
    if e == 0:
        return ideal
    out = Ideal(ideal.ring, (g.frobenius(e) for g in ideal.generators))
    out._bases = {o: b.frobenius(e) for o, b in ideal._bases.items()}
    return out


# ---------------------------------------------------------------------------
# intersection / colon / saturation

@functools.lru_cache(maxsize=64)
def _elimination(ring: PolyRing) -> tuple[PolyRing, Polynomial, Polynomial]:
    """The extension of `ring` by a fresh first variable t under
    Block(ring order), with t and 1 - t in it."""
    name = "t"
    while name in ring.variables:
        name += "t"
    aux = PolyRing(ring.p, (name,) + ring.variables, Block(ring.order))
    t = aux.gen(name)
    return aux, t, aux.one() - t


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """I ∩ K through elimination of one auxiliary variable.

    Builds t*I + (1-t)*K in an extended ring ordered with t ahead of the
    ambient order, takes a Groebner basis, and keeps the elements whose terms
    are all t-free; with t ahead, those are the elements with a t-free lead,
    and they form a reduced basis of the intersection under the ambient order.
    Elements move into and out of the extended ring on their packed terms
    (`Polynomial.moved`), with t's exponent put in front or dropped.
    Setting t = 1 (t = 0) shows that t (1 - t) lies in the elimination ideal
    exactly when I (K) is the unit ideal; in a reduced basis that puts 1, t
    or t - 1 first, and then K or I itself is returned.  The result lies in
    I's ring: a K over a ring of another order is first taken into it, with
    its bases, since a basis depends on the ideal and the order alone.
    """
    a._check(b)
    if b.ring is not a.ring:
        moved = Ideal(a.ring, b.generators)
        moved._bases = dict(b._bases)
        b = moved
    if a.is_zero():
        return a
    if b.is_zero():
        return b
    ring = a.ring
    aux, t, one_minus_t = _elimination(ring)
    into = tuple(range(1, aux.nvars))
    gens = [
        u * g.moved(aux, into)
        for u, ideal in ((t, a), (one_minus_t, b))
        for g in ideal.generators
    ]
    basis = buchberger(gens)
    if basis[0] == 1 or basis[0] == t:
        return b
    if basis[0] == t - 1:
        return a
    out = (None,) + tuple(range(ring.nvars))
    contracted = [g.moved(ring, out) for g in basis if not g.leading_monomial()[0]]
    meet = Ideal(ring, contracted)
    meet._bases[ring.order] = GroebnerBasis(tuple(contracted), ring.order)
    return meet


def colon_element(ideal: Ideal, u: Polynomial) -> Ideal:
    """(I : u) = {f : f*u in I}, computed as (I ∩ (u)) divided through by u:
    every generator of the intersection divides against one table of (u)."""
    if isinstance(u, int):
        u = ideal.ring.constant(u)
    if u.is_zero():
        raise ZeroDivisor("colon by zero")
    if u.is_monomial() and not any(u.leading_monomial()):
        return ideal  # unit scalar
    principal = Ideal(ideal.ring, [u])
    meet = intersect(ideal, principal)
    table = DivisorTable(principal.generators)
    quotients = []
    for g in meet.generators:
        quot, rem = division(g, table)
        if not rem.is_zero():
            raise AssertionError("intersection with (u) produced a non-multiple of u")
        quotients.append(quot[0])
    return Ideal(ideal.ring, quotients)


def _colon_generators(ideal: Ideal, divisor: Ideal) -> tuple[Polynomial, ...]:
    """The generators k of K, whose element colons (I : k) make up (I : K)."""
    ideal._check(divisor)
    if divisor.is_zero():
        raise ZeroDivisor("colon by the zero ideal")
    return divisor.generators


def colon_ideal(ideal: Ideal, divisor: Ideal) -> Ideal:
    """(I : K) as the intersection of the element colons over generators of K."""
    parts = (colon_element(ideal, k) for k in _colon_generators(ideal, divisor))
    return functools.reduce(intersect, parts)


def saturate(
    ideal: Ideal, divisor: Ideal | Polynomial, *, cap: int | None = None
) -> tuple[Ideal, int]:
    """(I : K^infinity): iterate the colon until the chain stabilizes.

    Returns (stable ideal, number of colon steps that strictly grew the
    chain).  The chain only ascends (I ⊆ I : K), so it has stabilized when
    the current ideal contains the next one.  For an ideal K the next ideal
    is the intersection of the parts I : k over the generators k, and
    I ⊆ I : K ⊆ I : k, so the chain has also stabilized as soon as one part
    lies in I; the remaining parts and the intersections are then skipped.
    The step cap exists only to surface runaway misuse; the chain itself must
    terminate.  A negative cap is refused before any colon is taken.
    An ideal K stays one chain, with no split into variables as in
    `lengths._m_saturation`, and a variable is not sent to the homogenized
    `_saturate_variable`: the session language's `saturate` statement prints
    the chain's own generators.  `verify_construction` claim 6 takes its one
    saturation from `_saturate_variable`, and both step counts from
    `_saturation_steps`, with no chain.
    """
    if cap is None:
        cap = config.DEFAULT_SATURATION_CAP
    if cap < 0:
        raise ValueError(f"the saturation cap must be non-negative, got {cap}")
    single = isinstance(divisor, (Polynomial, int))
    elements = [divisor] if single else _colon_generators(ideal, divisor)
    current = ideal
    for step in range(cap + 1):
        parts = []
        for k in elements:
            part = colon_element(current, k)
            if current.contains_ideal(part):
                return current, step
            parts.append(part)
        nxt = functools.reduce(intersect, parts)
        if len(parts) > 1 and current.contains_ideal(nxt):
            return current, step
        current = nxt
    raise _unstable(cap)


def _unstable(cap: int) -> CapExceeded:
    return CapExceeded(
        f"saturation did not stabilize within {cap} steps; raise the cap if this is intended"
    )


def _walk(
    ideal: Ideal, kernel: Callable[..., object], cap: int | None, *groups: Sequence[Polynomial]
):
    """kernel(packing, entries, p, cap, *groups): a walk of normal forms
    modulo `ideal`, run by `DivisorTable.run` on the table of
    `Ideal.any_basis`, with each group of polynomials moved into the basis's
    ring and the packing at least as wide as each of them.  The zero ideal's
    basis is empty, and its walk runs on a table with no entries under the
    ring's order, so that every normal form is the polynomial itself."""
    basis = ideal.any_basis()
    table = basis._divisors if len(basis) else DivisorTable((), ideal.ring)
    ring = table.ring
    groups = tuple([f.resorted(ring) for f in group] for group in groups)
    width = max((f.packing.width for group in groups for f in group), default=packing_width(0))
    return table.run(width, kernel, ring.p, cap, *groups)[1]


def _saturation_steps(
    ideal: Ideal,
    sat: Ideal | None,
    multipliers: Sequence[Polynomial],
    cap: int | None = None,
) -> int:
    """The step count of `saturate(I, K)`, for sat = I : K^infinity (None for
    the unit ideal) and K generated by `multipliers`, with no colon.

    The chain I : K^n stops growing at the least n with I : K^n = sat, that
    is with K^n * sat <= I.  Level 0 holds the nonzero normal forms of sat's
    generators modulo I's basis, and level n + 1 those of k * f for each
    multiplier k and each f of level n.  A normal form depends only on the
    class modulo I, so level n lists the distinct nonzero normal forms of the
    products of n multipliers with a generator of sat, and it is empty exactly
    when K^n * sat <= I.  Raises `CapExceeded` as the chain does when level
    `cap` is not empty.

    The walk is `_steps_kernel`, run on I's basis by `_walk`.  A multiplier
    may be any polynomial: a product is one packed shift per term of the
    multiplier, merged, so a variable costs one shift.
    """
    if cap is None:
        cap = config.DEFAULT_SATURATION_CAP
    gens = sat.generators if sat is not None else (ideal.ring.one(),)
    return _walk(ideal, _steps_kernel, cap, gens, multipliers)


def _steps_kernel(
    pk: Packing,
    entries: list[tuple],
    p: int,
    cap: int,
    gens: list[Polynomial],
    multipliers: list[Polynomial],
) -> int:
    """`_saturation_steps`'s walk for `DivisorTable.run`, on packed term
    lists: each normal form is `_reduce_sorted` against the entries, and a
    level keeps its distinct nonzero forms, told apart by their packed terms,
    as every form of the walk lies in the one packing."""
    factors = [pk.repack(k.packed, k.packing) for k in multipliers]
    forms = (_reduce_sorted(pk.repack(g.packed, g.packing), entries, pk, p) for g in gens)
    level = dict.fromkeys(tuple(h) for h in forms if h)
    for step in range(cap + 1):
        if not level:
            return step
        forms = []
        for f in level:
            top = pk.top(f)
            for k in factors:
                forms.append(_reduce_sorted(_mul_sorted(f, top, k, pk, p), entries, pk, p))
        level = dict.fromkeys(tuple(h) for h in forms if h)
    raise _unstable(cap)


def _graded(ring: PolyRing, i: int, homogenize: bool) -> PolyRing:
    """The ring of `ring`'s variables under degrevlex, declared with variable
    i moved last, so that degrevlex compares it last, and with a fresh
    variable h in front when `homogenize` is set."""
    variables = ring.variables[:i] + ring.variables[i + 1 :] + (ring.variables[i],)
    if homogenize:
        name = "h"
        while name in variables:
            name += "h"
        variables = (name,) + variables
    return PolyRing(ring.p, variables, DegRevLex())


def _saturate_variable(ideal: Ideal, i: int) -> Ideal:
    """I : v^infinity for v the i-th variable, by homogenization (Bayer).

    The reduced degrevlex basis of I homogenizes by a fresh variable h to a
    basis of the homogenization I^h (Cox, Little & O'Shea, ch. 8 §4).  Under
    degrevlex with v compared last, the elements of a Groebner basis of a homogeneous
    ideal, each divided by the largest power of v it holds, form a Groebner
    basis of its saturation by v (Bayer & Stillman, Invent. Math. 1987);
    h = 1 then gives I : v^infinity, because f * v^k lies in I exactly when
    f^h * v^k lies in I^h.  When every generator is homogeneous, I is its own
    homogenization and h is left out.  Unlike `saturate`, this builds no
    colon chain and no elimination basis, so there is no step count.  h is
    the largest variable of the order; placed next to v, it made the bases of
    the Katzman levels slower.  When no generator involves v, v is a
    nonzerodivisor on R/I, so I : v^infinity = I, and I comes back itself
    with no basis built.  The degrevlex basis comes from
    `Ideal.groebner_basis(DegRevLex())`, so I keeps it in its table, and later
    membership and length questions on I read it instead of building I's
    basis under the ring's order.

    Polynomials move into the ring of `_graded` on their packed terms
    (`Polynomial.moved`), with v's exponent put last and h's, the degree a
    term lacks, put in front; the basis moves back the same way, h dropped
    and divided by the power of v that its lead, and so every term, holds.
    """
    if not any(mon[i] for g in ideal.generators for mon, _ in g.terms):
        return ideal
    ring, n = ideal.ring, ideal.ring.nvars
    homogeneous = all(g.is_homogeneous() for g in ideal.generators)
    graded = _graded(ring, i, not homogeneous)
    off = graded.nvars - n  # 1 when h leads, else 0
    into = tuple(graded.nvars - 1 if j == i else j + off - (j > i) for j in range(n))
    fill = None if homogeneous else 0
    sources = ideal.generators if homogeneous else ideal.groebner_basis(DegRevLex())
    gens = [g.moved(graded, into, fill) for g in sources]
    back = (None,) * off + tuple(j for j in range(n) if j != i) + (i,)
    parts, grew = [], False
    for g in buchberger(gens):
        # g is homogeneous and degrevlex compares v last, so its lead holds
        # the least power of v of all its terms
        k = g.leading_monomial()[-1]
        grew = grew or k > 0
        divide = ((0,) * (graded.nvars - 1) + (k,)) if k else None
        parts.append(g.moved(ring, back, divide=divide))
    # no element holds v: I is saturated, and keeps whatever basis it has built
    return Ideal(ring, parts) if grew else ideal


# ---------------------------------------------------------------------------
# dimension

def dimension(ideal: Ideal) -> int:
    """Krull dimension of R/I, read off the initial ideal of any built basis
    (`Ideal.any_basis`).

    dim R/I equals the largest number of variables a subset S can hold while
    containing no leading monomial's support; any Groebner order gives the
    same answer.
    """
    basis = ideal.any_basis()
    nvars = ideal.ring.nvars
    supports = []
    for g in basis:
        lm = g.leading_monomial()
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
