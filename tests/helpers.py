"""Shared random generators for the test suite (always seeded by the caller)."""

import itertools
import random

from hkforge import Ideal, Lex, PolyRing, Polynomial
from hkforge import config
from hkforge.groebner import GroebnerCertificate, s_polynomial
from hkforge.ideals import _unstable
from hkforge.lengths import _code
from hkforge.linalg import reduce_row, row_reduce
from hkforge.polyring import DegRevLex, DivisorTable, division
from hkforge.verify import build_construction


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


def _divides(b, a) -> bool:
    return all(x >= y for x, y in zip(a, b))


def is_reduced_basis(basis, order) -> bool:
    """Every element monic, and no term of one element divisible by the lead
    of another, under `order`."""
    basis = [g.resorted(g.ring.with_order(order)) for g in basis]
    leads = [g.leading_monomial() for g in basis]
    for idx, g in enumerate(basis):
        if g.leading_term()[0] != 1:
            return False
        others = leads[:idx] + leads[idx + 1 :]
        if any(_divides(lead, mon) for mon, _ in g.terms for lead in others):
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


# -- exponent-tuple reference of the Gebauer-Moeller pair update ---------------

def gebauer_moller_update(leads: list, active: list, pairs: set, h: int):
    """The pair update on adding index h, on exponent tuples, as
    `groebner._gm_update`'s docstring states criteria M, F and B.

    `leads` holds the leading monomials, `active` the basis indices in
    ascending order and `pairs` a set of index pairs (i, j) with i < j.
    Returns the new active list and the new pair set.
    """

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def coprime(a, b):
        return all(min(x, y) == 0 for x, y in zip(a, b))

    lead = leads[h]
    classes: dict = {}  # lcm -> the g with lcm(g, h) equal to it
    for g in active:
        classes.setdefault(lcm(leads[g], lead), []).append(g)
    new = set()
    for common, members in classes.items():
        # M: no other class's lcm properly divides this one
        if any(other != common and _divides(other, common) for other in classes):
            continue
        # F: one pair per class, none if the class holds a coprime pair
        if any(coprime(leads[g], lead) for g in members):
            continue
        new.add((min(members), h))
    # B: lm(h) divides lcm(i, j), which differs from lcm(i, h) and lcm(h, j)
    kept = set()
    for i, j in pairs:
        common = lcm(leads[i], leads[j])
        if (
            _divides(lead, common)
            and lcm(leads[i], lead) != common
            and lcm(lead, leads[j]) != common
        ):
            continue
        kept.add((i, j))
    still_active = [g for g in active if not _divides(lead, leads[g])] + [h]
    return still_active, kept | new


# -- reference of the sparse elimination ---------------------------------------

def reference_row_reduce(rows: list[dict], p: int) -> dict[int, dict]:
    """Every row, shortest first, reduced by `reduce_row` against the pivots
    found so far; a nonzero remainder becomes the pivot of its least column,
    scaled to lead 1.  `linalg.row_reduce` must give exactly this echelon."""
    echelon: dict[int, dict] = {}
    for row in sorted(rows, key=len):
        row = reduce_row(row, echelon, p)
        if row:
            lead = min(row)
            inv = pow(row[lead], p - 2, p)
            echelon[lead] = {col: value * inv % p for col, value in row.items()}
    return echelon


def reference_span_rows(ideal: Ideal, bound: int) -> list[dict]:
    """One sparse row per generator multiple of degree <= bound, nothing
    struck, over the columns `lengths._code` gives at radix bound + 1: the
    full matrix whose rank `oracle_quotient_dimension` subtracts from the
    number of monomials."""
    radix = bound + 1
    rows = []
    for g in ideal.generators:
        room = bound - g.total_degree()
        for shift in itertools.product(range(room + 1), repeat=ideal.ring.nvars):
            if sum(shift) <= room:
                rows.append(
                    {_code(tuple(a + b for a, b in zip(m, shift)), radix): c for m, c in g.terms}
                )
    return rows


# -- references of the normal-form walks ---------------------------------------

def reference_span_closure(gens, j_ideal: Ideal, cap: int | None = None) -> int | None:
    """`lengths._span_closure` as a walk of `Polynomial`s: each normal form
    by `GroebnerBasis.reduce`, each product by `Polynomial.mul_term`, and the
    rows as sparse dicts over packed monomials, held in a `linalg` echelon
    that is rebuilt whenever a normal form arrives wider than the rows."""
    basis = j_ideal.any_basis()
    ring = j_ideal.ring
    steps = [tuple(int(i == j) for j in range(ring.nvars)) for i in range(ring.nvars)]
    # the columns are packed monomials under the widest packing seen so far
    pk, kept, echelon = None, [], {}
    level = [basis.reduce(u) for u in gens]
    for _ in itertools.count() if cap is None else range(cap + 1):
        start = len(kept)
        for nf in filter(None, level):
            if pk is None or nf.packing.width > pk.width:
                pk = nf.packing
                echelon = row_reduce([dict(pk.repack(f.packed, f.packing)) for f in kept], ring.p)
            row = reduce_row(dict(pk.repack(nf.packed, nf.packing)), echelon, ring.p)
            if row:
                echelon.update(row_reduce([row], ring.p))
                kept.append(nf)
        if len(kept) == start:
            return len(kept)
        level = [basis.reduce(nf.mul_term(step, 1)) for nf in kept[start:] for step in steps]
    return None


def reference_saturation_levels(
    ideal: Ideal, sat: Ideal | None, multipliers, cap: int | None = None
) -> list[list[Polynomial]]:
    """The nonempty levels of `ideals._saturation_steps`'s walk, as lists of
    `Polynomial` normal forms by `GroebnerBasis.reduce`, each product by
    `Polynomial.__mul__` and each level's repeats dropped by `Polynomial`
    equality.  Raises `CapExceeded` when level `cap` is not empty."""
    if cap is None:
        cap = config.DEFAULT_SATURATION_CAP
    basis = ideal.any_basis()
    gens = sat.generators if sat is not None else (ideal.ring.one(),)
    level = dict.fromkeys(filter(None, map(basis.reduce, gens)))
    levels = []
    for _ in range(cap + 1):
        if not level:
            return levels
        levels.append(list(level))
        products = (basis.reduce(k * f) for f in level for k in multipliers)
        level = dict.fromkeys(filter(None, products))
    raise _unstable(cap)


def reference_saturation_steps(
    ideal: Ideal, sat: Ideal | None, multipliers, cap: int | None = None
) -> int:
    """The step count `ideals._saturation_steps` must give: the number of
    nonempty levels of `reference_saturation_levels`."""
    return len(reference_saturation_levels(ideal, sat, multipliers, cap))


# -- reference of the S-pair certificate ---------------------------------------

def reference_certify(basis, order=None) -> GroebnerCertificate:
    """Every S-pair of `basis`, term pairs too, formed by `s_polynomial` and
    divided against one `DivisorTable`, in the pair order of
    `groebner.certify_groebner`, which must give exactly this certificate."""
    basis = tuple(basis)
    if not basis:
        return GroebnerCertificate((), order or DegRevLex(), True, ())
    ring = basis[0].ring if order is None else basis[0].ring.with_order(order)
    basis, order = tuple(g.resorted(ring) for g in basis), ring.order
    table = DivisorTable(basis)
    entries = []
    for k in range(len(basis)):
        for j in range(k):
            quots, rem = division(s_polynomial(basis[j], basis[k]), table)
            if not rem.is_zero():
                return GroebnerCertificate(basis, order, False, tuple(entries), (j, k, rem))
            entries.append((j, k, tuple(quots)))
    return GroebnerCertificate(basis, order, True, tuple(entries))


# -- the hand-built elimination basis of the construction ----------------------

def aux_saturation_basis(p: int, m: int) -> tuple[PolyRing, list[Polynomial]]:
    """The explicit (n+5)-entry Groebner basis of t*h*B + (1-t)*s*B in
    B = F_p[t, s, x, y] under lex, for h of `build_construction(p, m)`, from
    which h ∩ (s) is read off.

    Returns (B, entries); entry order follows the hand construction: the
    relation t*s - s first, then the t-multiples of the monomial generators
    and the two mixed elements, then the s-multiples.
    """
    data = build_construction(p, m)
    n = data.n
    aux = PolyRing(p, ("t", "s", "x", "y"), Lex())
    t, s, x, y = aux.gens()
    g, f = (h.moved(aux, (1, 2, 3)) for h in (data.g, data.f))
    c = t * x**3 * y - t * x * y**3 - s * x**2 * y**2 + s * x * y**3
    d = m * t * x**2 * y ** (n - 1)
    for j in range(1, n - 2):
        d = d + ((-1) ** (j - 1)) * j * s * x ** (n - 1 - j) * y ** (j + 2)
    entries = [t * s - s, t * x**n, c, d, t * y**n, -(s * g), s * x**n, s * f]
    entries += [s * x ** (n - j) * y ** (j + 2) for j in range(2, n - 2)]
    entries += [s * y**n]
    return aux, entries
