"""Buchberger's algorithm, reduced Groebner bases, and certification.

The certification path re-derives division certificates for every S-pair
rather than trusting any precomputed table: a basis is certified exactly when
every S-polynomial divides to zero, and the recorded quotients then satisfy
the leading-monomial bound automatically, because the division algorithm never
rewrites above the dividend's lead.
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
    packing_for,
)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The cancellation combination (lcm/lt(f))*f - (lcm/lt(g))*g.

    The lcm is taken of the two leading *terms*, its coefficient being the
    product of the leading coefficients, so S(f, g) of monic inputs matches
    the textbook monomial-lcm form and the sign is fixed for non-monic inputs.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("S-polynomial of a zero polynomial")
    if order is None:
        order = f.ring.order
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    lcm = monomial_lcm(mf, mg)
    tf = monomial_div(lcm, mf)
    tg = monomial_div(lcm, mg)
    return f.mul_term(tf, cg) - g.mul_term(tg, cf)


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis under `order`; elements monic and lm-descending when reduced."""

    elements: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = False
    # the elements packed for division, on the first `reduce`
    _divisors: DivisorTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_divisors", DivisorTable(self.elements, self.order))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> Polynomial:
        return self.elements[i]

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.elements)

    def reduce(self, f: Polynomial) -> Polynomial:
        """Normal form of f against this basis."""
        return normal_form(f, self._divisors)

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def frobenius(self, e: int) -> "GroebnerBasis":
        """Bracket the basis: over F_p, g -> g^(p^e) maps a (reduced) Groebner
        basis of I to one of the bracket power of I, because exponent scaling
        preserves every divisibility and order comparison and fixes all
        coefficients."""
        return GroebnerBasis(
            tuple(g.frobenius(e) for g in self.elements), self.order, self.reduced
        )


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

    `lms` holds the plain leading monomials without a degree field, and
    `pairs` is a heap of (packed lcm, i, j, plain lcm).  Applies the standard
    chain and coprimality criteria to prune the pair set, then retires active
    elements whose lead became divisible by lm(h).
    """
    guard, lcm_of = packing.guard, packing.plain_max
    mh = lms[h]
    candidates = sorted(active)
    lcms = [lcm_of(mh, lms[ig]) for ig in candidates]
    surviving = []  # lcms of the candidates kept so far, coprime ones included
    new_pairs = []
    for pos, ig in enumerate(candidates):
        lcm_hg = lcms[pos]
        if mh + lms[ig] == lcm_hg:
            # coprime leads: S-pair reduces to zero, but it may still justify
            # dropping other pairs, so handle after the divisibility pass
            surviving.append(lcm_hg)
        elif not any(m != lcm_hg and not (lcm_hg - m) & guard for m in surviving) and not any(
            m != lcm_hg and not (lcm_hg - m) & guard for m in lcms[pos + 1 :]
        ):
            # no other pair's lcm properly divides this one's
            surviving.append(lcm_hg)
            new_pairs.append((ig, lcm_hg))

    kept = [
        pair
        for pair in pairs
        if (pair[3] - mh) & guard
        or lcm_of(lms[pair[1]], mh) == pair[3]
        or lcm_of(mh, lms[pair[2]]) == pair[3]
    ]
    flip = packing.flip
    for ig, lcm in new_pairs:
        kept.append((packing.with_degree(lcm) ^ flip, ig, h, lcm))
    heapq.heapify(kept)

    still_active = [ig for ig in active if (lms[ig] - mh) & guard]
    still_active.append(h)
    return still_active, kept


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Pairs are pruned by the Gebauer-Moeller chain and coprimality criteria and
    taken smallest lcm first under the order (the normal strategy).  The
    result is the unique reduced basis: monic elements, no term of one
    divisible by the lead of another, sorted lead-descending.
    """
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return GroebnerBasis((), order or DegRevLex(), reduced=True)
    ring = live[0].ring
    for g in live:
        live[0]._check(g)
    if order is None:
        order = ring.order
    width = max(g.packing.width for g in live)
    while True:
        pk = packing_for(order, ring.nvars, width)
        try:
            reduced = _packed_buchberger(pk, live, ring.p, ring.field.inv)
            break
        except _Overflow:
            width *= 2
    work = ring.with_order(order)
    return GroebnerBasis(tuple(Polynomial(work, pk, t) for t in reduced), order, reduced=True)


def _packed_buchberger(packing: Packing, gens: list[Polynomial], p: int, inv):
    """`buchberger` on packed terms: the reduced basis as term lists."""
    table = []
    for g in gens:
        terms = packing.repack(g.packed, g.packing)
        if terms[0][1] != 1:
            c = inv(terms[0][1])
            terms = [(m, k * c % p) for m, k in terms]
        table.append(packing.reducer(terms, 1))
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
            c = inv(rem[0][1])
            entry = packing.reducer([(m, k * c % p) for m, k in rem], 1)
            table.append(entry)
            lms.append(entry[0] & exponents)
            active, pairs = _gm_update(packing, lms, active, pairs, len(table) - 1)
            reducers = [table[a] for a in active]
    return _reduce_basis(packing, [table[a] for a in sorted(active)], p, inv)


def _reduce_basis(packing: Packing, basis: list[tuple], p: int, inv) -> list[list]:
    """Minimalize and tail-reduce monic reducer entries into the reduced
    basis, as term lists, lm-descending."""
    guard = packing.guard
    minimal: list[tuple] = []
    for entry in sorted(basis, key=lambda entry: entry[2][0][0]):
        if any(not (entry[0] - kept[0]) & guard for kept in minimal):
            continue
        minimal.append(entry)
    reduced = []
    for idx, entry in enumerate(minimal):
        rem = _reduce_sorted(entry[2], minimal[:idx] + minimal[idx + 1 :], packing, p)
        c = inv(rem[0][1])
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
            s = s_polynomial(self.basis[j], self.basis[k], self.order)
            combo = self.basis[0].ring.zero()
            for a, g in zip(quots, self.basis):
                combo = combo + a * g
            if combo != s:
                return False
            if s.is_zero():
                if any(not a.is_zero() for a in quots):
                    return False
                continue
            s_lm_key = self.order.key(s.leading_monomial(self.order))
            for a, g in zip(quots, self.basis):
                if a.is_zero():
                    continue
                prod_lm = (a * g).leading_monomial(self.order)
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
    """Certify that `basis` is a Groebner basis by dividing every S-pair.

    Returns a full quotient table when all remainders vanish, or a certificate
    with `ok=False` carrying the first failing pair.  Pairs of monomials have
    zero S-polynomial and certify trivially; so does a single element.
    """
    basis = tuple(basis)
    if not basis:
        return GroebnerCertificate((), order or DegRevLex(), True, ())
    ring = basis[0].ring
    if order is None:
        order = ring.order
    entries = []
    for k in range(len(basis)):
        for j in range(k):
            s = s_polynomial(basis[j], basis[k], order)
            quots, rem = division(s, basis, order)
            if not rem.is_zero():
                return GroebnerCertificate(basis, order, False, tuple(entries), (j, k, rem))
            entries.append((j, k, tuple(quots)))
    return GroebnerCertificate(basis, order, True, tuple(entries))
