"""Buchberger's algorithm, reduced Groebner bases, and certification.

Buchberger runs on the packed entries of one `DivisorTable` of its
generators, as division does, and leaves them at their own scale: only the
final reduced basis is made monic.  The table's `run` repacks wider and
restarts it on overflow.

Certification re-derives a division certificate for every S-pair: the basis
is packed once into a `DivisorTable` that all pairs share, but no quotient is
taken from anywhere else.  The one exception is a pair of two single-term
elements, whose S-polynomial is zero by construction: it is recorded with zero
quotients, the entry dividing zero would give, and nothing is formed.  A
basis is certified exactly when every S-polynomial divides to zero, and the
recorded quotients then satisfy the leading-monomial bound automatically,
because the division algorithm never rewrites above the dividend's lead.
`GroebnerCertificate.check` still forms every S-polynomial, term pairs too.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ZeroPolynomial
from .polyring import (
    DegRevLex,
    DivisorTable,
    Monomial,
    MonomialOrder,
    Packing,
    Polynomial,
    _merge_sub,
    _Overflow,
    _reduce_sorted,
    division,
    monomial_div,
    monomial_lcm,
    normal_form,
)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination (lcm/lt(f))*f - (lcm/lt(g))*g, under f's
    ring order.

    The lcm is taken of the two leading *terms*, its coefficient being the
    product of the leading coefficients, so S(f, g) of monic inputs matches
    the textbook monomial-lcm form and the sign is fixed for non-monic inputs.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("S-polynomial of a zero polynomial")
    g = g.resorted(f.ring)
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = monomial_lcm(mf, mg)
    tf = monomial_div(lcm, mf)
    tg = monomial_div(lcm, mg)
    return f.mul_term(tf, cg) - g.mul_term(tg, cf)


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced Groebner basis under `order`, the order of the ring its
    elements share: monic elements, no term of one divisible by the lead of
    another, sorted lead-descending.  `buchberger` builds it so, its elements
    made monic by `_reduce_basis`, as do `frobenius` and the contraction in
    `ideals.intersect`; code that builds one directly must do the same."""

    elements: tuple[Polynomial, ...]
    order: MonomialOrder
    # the elements packed for division, on the first `reduce`
    _divisors: DivisorTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_divisors", DivisorTable(self.elements))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> Polynomial:
        return self.elements[i]

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.elements)

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f against this basis, in the basis's ring."""
        return normal_form(f, self._divisors)

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def frobenius(self, e: int) -> "GroebnerBasis":
        """Bracket the basis: over F_p, g -> g^(p^e) maps the reduced Groebner
        basis of I to that of the bracket power of I, because exponent scaling
        preserves every divisibility and order comparison and fixes all
        coefficients."""
        return GroebnerBasis(tuple(g.frobenius(e) for g in self.elements), self.order)


def _spoly_terms(packing: Packing, fi: tuple, fj: tuple, lcm: int, p: int) -> list:
    """S-polynomial of two reducer entries whose leads have packed lcm `lcm`,
    as a descending packed term list; raises `_Overflow` if a product would
    not fit."""
    plain, guard = lcm ^ packing.flip, packing.guard
    for lead, _, _, top in (fi, fj):
        if (plain - lead + top) & guard:
            raise _Overflow
    terms_i, terms_j = fi[2], fj[2]
    ci, cj = terms_i[0][1], terms_j[0][1]
    # (cj * x^ti) * f_i - (ci * x^tj) * f_j
    shift_i = lcm - terms_i[0][0]
    left = [(m + shift_i, c * cj % p) for m, c in terms_i]
    return _merge_sub(left, 0, terms_j, lcm - terms_j[0][0], ci, p)


def _gm_update(packing: Packing, lms: list[int], active: list[int], pairs: list, h: int):
    """Gebauer-Moeller pair update on adding element index h.

    `lms` holds the plain leading monomials without a degree field, `active`
    the basis indices in ascending order, and `pairs` is a heap of (packed
    lcm, i, j, plain lcm), which the update may change in place.  New pairs
    (g, h) are grouped by lcm.  Criterion F: a class yields one pair, none if
    it holds a coprime pair.  Criterion M: a class whose lcm another class's
    lcm (coprime ones included) properly divides yields none.  Criterion B:
    an old pair (i, j) goes when lm(h) divides its lcm and lcm(i, h),
    lcm(h, j) both differ from it.  Two departures from the published order
    of deletions (Gebauer & Moeller, JSC 1988) keep the same pairs: classes
    are visited in ascending order, not by degree, as every monomial order
    refines divisibility; and a class keeps its smallest g.  Active elements
    whose lead lm(h) divides then retire.

    A pair's key is unique, so the heap pops the same sequence however it was
    built: it is rebuilt only when criterion B removes a pair, and otherwise
    the new pairs are pushed onto it.  The lcms are field-wise maxima of the
    plain ints, formed inline (SWAR: a guard bit survives (a | guard) - b
    exactly in the fields where a >= b); a degrevlex part's degree field is
    then summed afresh by one multiply, raising `_Overflow` if it does not
    fit.
    """
    guard, width, flip = packing.guard, packing.width, packing.flip
    mh = lms[h]
    mh_guard = mh | guard
    classes: dict[int, int] = {}  # plain lcm -> smallest g, or -1 if coprime
    still_active = []
    for ig in active:
        m = lms[ig]
        d = (mh_guard - m) & guard
        lcm = m ^ ((mh ^ m) & (d - (d >> width)))
        if mh + m == lcm:
            classes[lcm] = -1
        elif lcm not in classes:
            classes[lcm] = ig
        if (m - mh) & guard:
            still_active.append(ig)
    still_active.append(h)

    if packing.deg_shift is None:
        keys = [lcm ^ flip for lcm in classes]
    else:
        low, spread, top = packing.sum_low, packing.sum_spread, packing.sum_top
        field, mask, shift = packing.field_mask, packing.mask, packing.deg_shift
        keys = []
        for lcm in classes:
            deg = ((lcm >> low) * spread >> top) & field
            if deg > mask:
                raise _Overflow
            keys.append((lcm | deg << shift) ^ flip)
    keys.sort()
    exponents = packing.exponents
    minimal: list[int] = []
    new_pairs = []
    for packed in keys:
        lcm = (packed ^ flip) & exponents
        for m in minimal:
            if not (lcm - m) & guard:
                break
        else:
            minimal.append(lcm)
            g = classes[lcm]
            if g >= 0:
                new_pairs.append((packed, g, h, lcm))

    removed = False
    for at, pair in enumerate(pairs):
        lcm = pair[3]
        if (lcm - mh) & guard:
            continue
        for m in (lms[pair[1]], lms[pair[2]]):
            d = (mh_guard - m) & guard
            if m ^ ((mh ^ m) & (d - (d >> width))) == lcm:
                break
        else:
            pairs[at], removed = None, True
    if removed:
        pairs = [pair for pair in pairs if pair is not None]
        pairs += new_pairs
        heapq.heapify(pairs)
    else:
        for pair in new_pairs:
            heapq.heappush(pairs, pair)
    return still_active, pairs


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`, in the ring of
    the first generator taken under `order` (by default its own order).

    Pairs are pruned by the Gebauer-Moeller criteria M, F and B and taken
    smallest lcm first under the order (the normal strategy), on the packed
    entries of one `DivisorTable` of the generators, whose `run` repacks and
    restarts on overflow.  The result is the unique reduced basis: monic
    elements, no term of one divisible by the lead of another, sorted
    lead-descending.
    """
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return GroebnerBasis((), order or DegRevLex())
    ring = live[0].ring if order is None else live[0].ring.with_order(order)
    table = DivisorTable([g.resorted(ring) for g in live])
    pk, reduced = table.run(0, _packed_buchberger, ring.p)
    return GroebnerBasis(tuple(Polynomial(ring, pk, t) for t in reduced), ring.order)


def _packed_buchberger(packing: Packing, entries: list[tuple], p: int):
    """`buchberger` from the generators' reducer entries: the reduced basis
    as term lists.  Pairs, criteria and divisors depend on leads alone, so no
    element is made monic before `_reduce_basis` scales the output."""
    table = list(entries)
    exponents = packing.exponents
    lms = [entry[0] & exponents for entry in table]
    active: list[int] = []
    pairs: list[tuple] = []
    for h in range(len(table)):
        active, pairs = _gm_update(packing, lms, active, pairs, h)
    reducers = [table[a] for a in active]
    while pairs:
        lcm, i, j, _ = heapq.heappop(pairs)
        s = _spoly_terms(packing, table[i], table[j], lcm, p)
        rem = _reduce_sorted(s, reducers, packing, p)
        if rem:
            table.append(packing.reducer(rem, pow(rem[0][1], -1, p)))
            lms.append(table[-1][0] & exponents)
            active, pairs = _gm_update(packing, lms, active, pairs, len(table) - 1)
            reducers = [table[a] for a in active]
    return _reduce_basis(packing, [table[a] for a in sorted(active)], p)


def _reduce_basis(packing: Packing, basis: list[tuple], p: int) -> list[list]:
    """Minimalize and tail-reduce reducer entries into the reduced basis, as
    monic term lists, lm-descending."""
    guard = packing.guard
    minimal: list[tuple] = []
    for entry in sorted(basis, key=lambda entry: entry[2][0][0]):
        if any(not (entry[0] - kept[0]) & guard for kept in minimal):
            continue
        minimal.append(entry)
    reduced = []
    for idx, entry in enumerate(minimal):
        rem = _reduce_sorted(entry[2], minimal[:idx] + minimal[idx + 1 :], packing, p)
        c = pow(rem[0][1], -1, p)
        reduced.append([(m, k * c % p) for m, k in rem])
    reduced.sort(key=lambda t: t[0][0], reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class GroebnerCertificate:
    """Division certificates for all S-pairs of a basis.

    When `ok`, every S(g_j, g_k) equals the recorded combination of basis
    elements, with each nonzero quotient satisfying lm(a * g_i) <= lm(S).
    Otherwise `failure` holds the first failing pair and its remainder.
    """

    basis: tuple[Polynomial, ...]
    order: MonomialOrder
    ok: bool
    entries: tuple[tuple[int, int, tuple[Polynomial, ...]], ...]
    failure: tuple[int, int, Polynomial] | None = None

    def check(self) -> bool:
        """Re-verify every recorded identity and leading-monomial bound."""
        if not self.ok:
            return False
        for j, k, quots in self.entries:
            s = s_polynomial(self.basis[j], self.basis[k])
            combo = self.basis[0].ring.zero()
            for a, g in zip(quots, self.basis):
                combo = combo + a * g
            if combo != s:
                return False
            if s.is_zero():
                if any(not a.is_zero() for a in quots):
                    return False
                continue
            s_lm_key = self.order.key(s.leading_monomial())
            for a, g in zip(quots, self.basis):
                if a.is_zero():
                    continue
                prod_lm = (a * g).leading_monomial()
                if self.order.key(prod_lm) > s_lm_key:
                    return False
        return True

    def to_json(self) -> str:
        payload: dict = {
            "order": self.order.describe(),
            "pass": self.ok,
            "basis": [str(g) for g in self.basis],
        }
        if self.ok:
            payload["pairs"] = [
                {
                    "j": j,
                    "k": k,
                    "quotients": [str(a) for a in quots],
                }
                for j, k, quots in self.entries
            ]
        else:
            j, k, rem = self.failure
            payload["failure"] = {"j": j, "k": k, "remainder": str(rem)}
        return json.dumps(payload, sort_keys=True)


def certify_groebner(
    basis: Sequence[Polynomial], order: MonomialOrder | None = None
) -> GroebnerCertificate:
    """Certify that `basis` is a Groebner basis under `order` (by default its
    ring's order) by dividing every S-pair; the certificate holds the basis
    moved into the ring under that order.

    Returns a full quotient table when all remainders vanish, or a certificate
    with `ok=False` carrying the first failing pair.  A pair of two
    single-term elements (nonzero constants included) has zero S-polynomial,
    so it is recorded with zero quotients without forming or dividing it; a
    single element certifies trivially.  Every other S-pair comes from
    `s_polynomial`, not from Buchberger's packed routine, so that a basis
    Buchberger built is checked by a second route, and divides against one
    `DivisorTable` of the basis, packed on first use.  Pairs with coprime
    leads are divided too: only a division may supply their quotients.
    """
    basis = tuple(basis)
    if not basis:
        return GroebnerCertificate((), order or DegRevLex(), True, ())
    ring = basis[0].ring if order is None else basis[0].ring.with_order(order)
    basis, order = tuple(g.resorted(ring) for g in basis), ring.order
    table = DivisorTable(basis)
    zeros = (ring.zero(),) * len(basis)
    entries = []
    for k in range(len(basis)):
        for j in range(k):
            if basis[j].is_monomial() and basis[k].is_monomial():
                entries.append((j, k, zeros))
                continue
            s = s_polynomial(basis[j], basis[k])
            quots, rem = division(s, table)
            if not rem.is_zero():
                return GroebnerCertificate(basis, order, False, tuple(entries), (j, k, rem))
            entries.append((j, k, tuple(quots)))
    return GroebnerCertificate(basis, order, True, tuple(entries))
