import dataclasses
import heapq
import json
import random

import pytest

from hkforge import (
    Block,
    DegRevLex,
    Ideal,
    Lex,
    PolyRing,
    Polynomial,
    ZeroPolynomial,
    buchberger,
    certify_groebner,
    division,
    normal_form,
    s_polynomial,
)
from hkforge.groebner import _gm_update, _reduce_basis, _spoly_terms
from hkforge.lengths import oracle_ideal_member
from hkforge.polyring import _Overflow, packing_for

from helpers import (
    aux_saturation_basis,
    gebauer_moller_update,
    is_reduced_basis,
    random_monomial,
    random_nonzero_polynomial,
    random_polynomial,
    reference_certify,
    reference_reduce_basis,
)


@pytest.fixture
def lex5():
    return PolyRing(5, ("s", "x", "y"), Lex())


def construction_ideal(ring, n):
    s, x, y = ring.gens()
    g = x * y * (x - y) * (x + y - s * y)
    return Ideal(ring, [x**n, y**n, g]), g


# -- S-polynomials ------------------------------------------------------------

def test_spoly_of_monomials_vanishes(lex5):
    s, x, y = lex5.gens()
    assert s_polynomial(x**4, x * y**2).is_zero()
    assert s_polynomial(s**2 * x, y**5).is_zero()


def test_spoly_with_itself_vanishes(lex5):
    f = lex5.parse("x^2 + 3*y")
    assert s_polynomial(f, f).is_zero()


def test_spoly_zero_input_raises(lex5):
    with pytest.raises(ZeroPolynomial):
        s_polynomial(lex5.zero(), lex5.one())


def test_spoly_of_xn_and_g(lex5):
    """S(x^9, g) = -s x^8 y^3 - x^10 y + x^8 y^3 under lex(s > x > y)."""
    s, x, y = lex5.gens()
    _, g = construction_ideal(lex5, 9)
    expected = -(s * x**8 * y**3) - x**10 * y + x**8 * y**3
    assert s_polynomial(x**9, g) == expected


def test_spoly_table_for_the_explicit_basis(lex5):
    """All the mixed S-pairs of {g, x^n, x^(n-1)y^3, ..., y^n} in closed form."""
    s, x, y = lex5.gens()
    _, g = construction_ideal(lex5, 9)
    n = 9
    cases = {
        # S(y^n, g)
        tuple((y**n).leading_monomial()): -(s * x * y ** (n + 1))
        - x**3 * y ** (n - 1)
        + x * y ** (n + 1),
        # S(x^3 y^(n-1), g)
        tuple((x**3 * y ** (n - 1)).leading_monomial()): -(s * x**2 * y**n)
        - x**4 * y ** (n - 2)
        + x**2 * y**n,
        # S(x^(n-1) y^3, g)
        tuple((x ** (n - 1) * y**3).leading_monomial()): -(s * x ** (n - 2) * y**4)
        - x**n * y**2
        + x ** (n - 2) * y**4,
    }
    for monomial_exps, expected in cases.items():
        mono = lex5.polynomial({monomial_exps: 1})
        assert s_polynomial(mono, g) == expected
    # the generic middle rung: 4 <= i <= n-2
    for i in range(4, n - 1):
        mono = x**i * y ** (n + 2 - i)
        expected = (
            -(s * x ** (i - 1) * y ** (n + 3 - i))
            - x ** (i + 1) * y ** (n + 1 - i)
            + x ** (i - 1) * y ** (n + 3 - i)
        )
        assert s_polynomial(mono, g) == expected


# -- Buchberger ----------------------------------------------------------------

def test_coprime_generators_are_their_own_basis():
    ring = PolyRing(3, ("x", "y"), Lex())
    x, y = ring.gens()
    basis = buchberger([x, y])
    assert list(basis) == [x, y]
    assert is_reduced_basis(basis, basis.order)


def test_construction_ideal_basis_leading_monomials(lex5):
    """(x^9, y^9, g) has leads {s x^2 y^2, x^9, x^8 y^3, ..., x^3 y^8, y^9}."""
    ideal, g = construction_ideal(lex5, 9)
    lms = set(ideal.groebner_basis().leading_monomials())
    expected = {(1, 2, 2), (0, 9, 0), (0, 0, 9)}
    expected |= {(0, 9 - j, j + 2) for j in range(1, 7)}
    assert lms == expected


def test_all_zero_input_gives_empty_basis():
    ring = PolyRing(3, ("x", "y"))
    for gens in ([], [ring.zero()], [ring.zero(), ring.zero()]):
        basis = buchberger(gens)
        assert len(basis) == 0


def _random_term_monomial(rng, ring, max_degree):
    while True:
        mon = random_monomial(rng, ring, max_degree)
        if any(mon):
            return mon


def _random_binomial(rng, ring, max_degree):
    """m1 - c*m2 with two distinct non-constant monomials."""
    while True:
        m1, m2 = (_random_term_monomial(rng, ring, max_degree) for _ in range(2))
        if m1 != m2:
            return ring.polynomial({m1: 1, m2: ring.p - rng.randint(1, ring.p - 1)})


def _random_monomial_heavy(rng, ring, max_degree):
    """A monomial most of the time, else a binomial: the leads then share
    variables often, so equal-lcm classes and coprime pairs occur."""
    if rng.random() < 0.6:
        return ring.polynomial({_random_term_monomial(rng, ring, max_degree): 1})
    return _random_binomial(rng, ring, max_degree)


def test_buchberger_output_certifies_randomized():
    rng = random.Random(29)
    ring = PolyRing(3, ("x", "y"), Lex())
    for _ in range(15):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(2)]
        basis = buchberger(gens)
        cert = certify_groebner(list(basis), basis.order)
        assert cert.ok
        assert cert.check()


@pytest.mark.parametrize(
    "variables,order,make",
    [
        (("x", "y", "z"), DegRevLex(), random_nonzero_polynomial),
        (("x", "y", "z"), DegRevLex(), _random_binomial),
        (("t", "x", "y"), Block(DegRevLex()), _random_binomial),
        (("x", "y", "z"), DegRevLex(), _random_monomial_heavy),
        (("t", "x", "y"), Block(DegRevLex()), _random_monomial_heavy),
    ],
    ids=["degrevlex", "degrevlex-binomial", "block-binomial", "degrevlex-monomial", "block-monomial"],
)
def test_buchberger_output_certifies_in_three_variables(variables, order, make):
    rng = random.Random(29)
    ring = PolyRing(3, variables, order)
    for _ in range(20):
        gens = [make(rng, ring, 3) for _ in range(rng.randint(2, 5))]
        basis = buchberger(gens)
        cert = certify_groebner(list(basis), basis.order)
        assert cert.ok
        assert cert.check()


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=lambda order: order.describe()
)
def test_scaled_generators_take_the_same_steps(order, monkeypatch):
    """Buchberger leaves its elements at their own scale until the reduced
    basis: scaling the generators changes no pair, pop order or zero
    reduction, and no element of the basis."""
    from hkforge import groebner

    steps = []  # each S-pair's lcm, then each remainder's length
    spoly, reduce = groebner._spoly_terms, groebner._reduce_sorted

    def spoly_logged(packing, fi, fj, lcm, p):
        steps.append(lcm)
        return spoly(packing, fi, fj, lcm, p)

    def reduce_logged(*args):
        rem = reduce(*args)
        steps.append(len(rem))
        return rem

    monkeypatch.setattr(groebner, "_spoly_terms", spoly_logged)
    monkeypatch.setattr(groebner, "_reduce_sorted", reduce_logged)
    rng = random.Random(31)
    ring = PolyRing(5, ("t", "x", "y"), order)
    for _ in range(10):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(3)]
        steps.clear()
        basis = buchberger(gens).elements
        first = list(steps)
        steps.clear()
        scaled = buchberger([g.scale(rng.randint(2, 4)) for g in gens]).elements
        assert steps == first and scaled == basis
        assert all(g.leading_term()[0] == 1 for g in basis)


def test_pair_update_keeps_one_pair_per_lcm_class():
    """Criterion F: the new pairs of an equal-lcm class give one S-pair, with
    the smallest index, and none when the class holds a coprime pair or a
    pair of two single terms."""
    pk = packing_for(DegRevLex(), 4, 4)

    def pairs_after(leads, single=None):
        lms = [(pk.pack(m) ^ pk.flip) & pk.exponents for m in leads]
        single = single or [False] * len(leads)
        active, pairs = [], []
        for h in range(len(lms)):
            active, pairs = _gm_update(pk, lms, single, active, pairs, h)
        return sorted((i, j) for _, i, j, _ in pairs)

    # x*z and y*z both meet x*y in x*y*z; (0, 1) has that lcm too and stays by
    # criterion B.  Without criterion F, (1, 2) was formed as well.
    leads = [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0)]
    assert pairs_after(leads) == [(0, 1), (0, 2)]
    # with x*z and x*y single terms, (0, 2) is a term pair, so the class
    # yields no pair, though (1, 2) pairs a longer element
    assert pairs_after(leads, [True, False, True]) == [(0, 1)]
    assert pairs_after(leads, [True, False, False]) == [(0, 1), (0, 2)]
    # z*w, x*z*w and y*z*w all meet x*y in x*y*z*w, and z*w is coprime to x*y,
    # so adding x*y forms no pair; (1, 2) went earlier by criterion M.
    assert pairs_after([(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 0)]) == [
        (0, 1),
        (0, 2),
    ]
    # an emptied class still counts for criterion M: the term pair (0, 2)
    # meets in x*y*z, which properly divides the lcm x*y*z*w of (1, 2)
    assert pairs_after([(1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 0)], [True, False, True]) == [
        (0, 1)
    ]


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=lambda order: order.describe()
)
@pytest.mark.parametrize("nvars", [3, 4])
def test_pair_update_matches_a_tuple_reference(order, nvars):
    """After every insertion of a random lead, `_gm_update` keeps the active
    list and the pair set of the exponent-tuple reference in `helpers`, each
    queued entry carries its pair's lcm, and the heap pops the pairs by lcm
    under the order, then by index."""
    rng = random.Random(43 + nvars)
    pk = packing_for(order, nvars, 8)
    for _ in range(60):
        leads = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(2, 12))]
        single = [rng.random() < 0.5 for _ in leads]
        lms = [(pk.pack(m) ^ pk.flip) & pk.exponents for m in leads]
        active, pairs = [], []
        ref_active, ref_pairs = [], set()
        for h in range(len(leads)):
            active, pairs = _gm_update(pk, lms, single, active, pairs, h)
            ref_active, ref_pairs = gebauer_moller_update(leads, single, ref_active, ref_pairs, h)
            assert active == ref_active
            assert {(i, j) for _, i, j, _ in pairs} == ref_pairs
            for packed, i, j, plain in pairs:
                common = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
                assert packed == pk.pack(common) and plain == (packed ^ pk.flip) & pk.exponents
            heap = list(pairs)
            popped = [heapq.heappop(heap)[1:3] for _ in range(len(heap))]
            assert popped == sorted(
                ref_pairs,
                key=lambda ij: (order.key(tuple(map(max, leads[ij[0]], leads[ij[1]]))), ij),
            )


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=lambda order: order.describe()
)
@pytest.mark.parametrize("width", [8, 32])
def test_reduce_basis_sweep_matches_the_two_pass_reference(order, width):
    """`_reduce_basis` gives the monic entries of the two-pass reference,
    whose terms are the reduced basis, on Groebner bases that are far from
    reduced: elements with smaller multiples of others added to them (tails
    to reduce), copies scaled by constants (duplicate leads), multiples (leads
    that divide later leads), and, in every third list, the constant 1.  Every
    other list starts from a scaled monomial generator, so that single-term
    elements, kept with no division, and their scaled copies occur."""
    rng = random.Random(59 + width)
    ring = PolyRing(5, ("t", "x", "y"), order)
    pk = packing_for(order, 3, width)
    key = order.key
    singles = 0
    for trial in range(12):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(3)]
        if trial % 2:
            gens.append(ring.polynomial({random_monomial(rng, ring, 2): rng.randint(2, 4)}))
        basis = buchberger(gens).elements
        entries = []
        for g in basis:
            f = g.scale(rng.randint(1, 4))
            for h in basis:
                th = h.mul_term(random_monomial(rng, ring, 2), rng.randint(1, 4))
                if key(th.leading_monomial()) < key(g.leading_monomial()):
                    f = f + th
            multiple = g.mul_term(random_monomial(rng, ring, 2), rng.randint(1, 4))
            entries += [f, g.scale(rng.randint(2, 4)), multiple]
        if trial % 3 == 2:
            entries.append(ring.one())
            basis = (ring.one(),)
        rng.shuffle(entries)
        table = []
        for f in entries:
            terms = pk.repack(f.packed, f.packing)
            table.append(pk.reducer(terms, pow(terms[0][1], -1, ring.p)))
        expected = [pk.repack(g.packed, g.packing) for g in basis]
        singles += sum(len(terms) == 1 for terms in expected)
        reference = reference_reduce_basis(pk, table, ring.p)
        reduced = _reduce_basis(pk, table, ring.p)
        assert [entry[2] for entry in reference] == expected
        assert [entry[2] for entry in reduced] == expected
        assert reduced == reference == [pk.reducer(terms, 1) for terms in expected]
    assert singles >= 6


def test_buchberger_on_non_minimal_leads_matches_the_reference(monkeypatch):
    """Generators whose leads repeat or divide each other, such as x, x^2 + y
    and x + y, give the basis Buchberger gives with the two-pass reference in
    place of `_reduce_basis`."""
    from hkforge import groebner

    ring = PolyRing(5, ("x", "y", "z"), DegRevLex())
    x, y, z = ring.gens()
    cases = [
        [x, x**2 + y, x + y],
        [x * y + z, x**2 * y + x * z + y, 2 * x * y + 2 * z + x, y**2],
        [x**2 - y * z, x**3 - x * y * z + z**2, x * z - y**2, x**2 * z - y**2 * x],
    ]
    rng = random.Random(61)
    for _ in range(6):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(3)]
        cases.append(gens + [g * random_nonzero_polynomial(rng, ring, max_degree=1) for g in gens])
    with monkeypatch.context() as patched:
        patched.setattr(groebner, "_reduce_basis", reference_reduce_basis)
        expected = [buchberger(gens).elements for gens in cases]
    for gens, basis in zip(cases, expected):
        assert buchberger(gens).elements == basis
    assert expected[0] == (x, y)


def test_a_basis_answers_its_first_reduce_without_packing(monkeypatch):
    """`buchberger` seeds its basis's division table with the monic entries
    of its reduced-basis step, so the first normal form makes no
    `Packing.reducer` call; a dividend wider than that packing still repacks
    the table, and every answer is a fresh list's."""
    from hkforge.polyring import Packing

    ring = PolyRing(5, ("s", "x", "y"), DegRevLex())
    s, x, y = ring.gens()
    basis = buchberger([x**5, y**4, x * y * (x - y) * (x + y - s * y), s * x**2 + y])
    f = s**3 * x**4 * y**2 + 2 * x**7 - y**5 + s
    wide = f * x ** (5**20)
    expected = [normal_form(g, list(basis)) for g in (f, s * f, wide)]
    made = []
    reducer = Packing.reducer
    monkeypatch.setattr(
        Packing, "reducer", lambda pk, terms, lcinv: made.append(1) or reducer(pk, terms, lcinv)
    )
    assert [basis.reduce(f), basis.reduce(s * f)] == expected[:2]
    assert not made
    assert basis.reduce(wide) == expected[2]
    assert len(made) == len(basis)


def test_reduced_basis_is_unique_under_permutation_and_scaling():
    rng = random.Random(31)
    ring = PolyRing(5, ("x", "y"), Lex())
    for _ in range(10):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=4) for _ in range(3)]
        reference = buchberger(gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g.scale(rng.randint(1, 4)) for g in shuffled]
        assert list(buchberger(scaled)) == list(reference)


def test_reduced_basis_certifies_and_matches_sympy():
    from test_cross_validation import matches_sympy  # skips when sympy is missing

    rng = random.Random(37)
    order = DegRevLex()
    ring = PolyRing(3, ("x", "y", "z"), order)
    for _ in range(10):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(3)]
        basis = buchberger(gens)
        assert certify_groebner(list(basis), order).check()
        assert is_reduced_basis(basis, order)
        assert matches_sympy(basis, gens, order)


@pytest.mark.parametrize(
    "ring",
    [
        PolyRing(101, ("x", "y", "z"), Lex()),
        PolyRing(101, ("x", "y", "z"), DegRevLex()),
        PolyRing(101, ("x", "y", "z"), Block(DegRevLex())),
        PolyRing(101, ("z", "x", "y"), Lex()),
        PolyRing(101, ("y", "z", "x"), DegRevLex()),
    ],
    ids=lambda ring: str(ring.order),
)
def test_bracket_transport_past_32_bit_exponents(ring):
    """Over F_101, the 5th bracket puts exponents past 2**32; the bases of the
    bracketed generators must still be the bracketed bases.  Generators are
    drawn over x, y, z and moved into `ring` by variable name, so a ring that
    declares z first ranks z first."""
    rng = random.Random(53)
    xyz = PolyRing(101, ("x", "y", "z"), ring.order)
    slots = [xyz.variables.index(v) for v in ring.variables]
    for _ in range(3):
        drawn = [random_nonzero_polynomial(rng, xyz, max_degree=3, max_terms=3) for _ in range(3)]
        gens = [ring.polynomial((tuple(m[j] for j in slots), c) for m, c in g.terms) for g in drawn]
        assert buchberger([g.frobenius(5) for g in gens]) == buchberger(gens).frobenius(5)


def test_products_past_the_input_exponents_repack():
    """Reducing x^16 by x - y^m gives y^(16m), four bits past the largest
    input exponent, so the packing sized from the inputs must be widened."""
    ring = PolyRing(7, ("x", "y"), Lex())
    x, y = ring.gens()
    m = 1000
    g = x - y**m
    f = x**16 + 3 * x * y
    quotients, remainder = division(f, [g])
    assert remainder == y ** (16 * m) + 3 * y ** (m + 1)
    assert quotients[0] * g + remainder == f
    assert list(buchberger([x**16, g])) == [g, y ** (16 * m)]


def test_basis_reduce_widens_its_cached_packing():
    ring = PolyRing(5, ("x", "y"), DegRevLex())
    x, y = ring.gens()
    basis = buchberger([x**2, y**3])
    small = x + y**2
    big = x ** (5**20) + y**2 * x
    assert basis.reduce(small) == small
    assert basis.reduce(big) == y**2 * x
    assert basis.reduce(small) == small
    assert basis.reduce(big.frobenius(3)).is_zero()


# Each overflow case below is pinned by its answer and by a packing wider than
# every input's, which only a retry after `_Overflow` produces.

def test_reduction_past_the_packing_retries_wider():
    """x^300 mod x - y^300 is y^90000: the dividend and divisor pack at 16
    bits, and the rewrite overflows them, in `normal_form` and `division`."""
    ring = PolyRing(5, ("x", "y"), Lex())
    x, y = ring.gens()
    f, g = x**300, x - y**300
    width = max(f.packing.width, g.packing.width)
    remainder = normal_form(f, [g])
    assert remainder == y**90000 and remainder.packing.width > width
    quotients, remainder = division(f, [g])
    assert remainder == y**90000 and remainder.packing.width > width
    assert quotients[0] * g + remainder == f
    assert certify_groebner([g]).ok


def test_spolynomial_past_the_packing_restarts_buchberger_wider():
    """The S-polynomial of x^2 y^250 + 1 and x^250 y^2 + 1 does not fit their
    8-bit packing, so Buchberger restarts at twice the width."""
    ring = PolyRing(5, ("x", "y"), Lex())
    x, y = ring.gens()
    gens = [x**2 * y**250 + 1, x**250 * y**2 + 1]
    basis = buchberger(gens)
    assert list(basis) == [x**2 + y**30998, y**31248 + 4]
    assert basis[0].packing.width > max(g.packing.width for g in gens)
    assert certify_groebner(list(basis)).ok


def test_pair_degree_past_the_packing_restarts_buchberger_wider():
    """Under degrevlex the degree field of a pair's lcm overflows the 8-bit
    packing of these generators in the pair update (`_gm_update`)."""
    ring = PolyRing(5, ("x", "y", "z"), DegRevLex())
    x, y, z = ring.gens()
    gens = [x**200 * y - z**250, y**200 - x * z, z**201 - x**3]
    basis = buchberger(gens)
    assert [str(g) for g in basis] == [
        "x^398 + 4*x^3*y^198*z^97",
        "x^201*z^153 + 4*x^6*y^199",
        "x^6*y^199*z^48 + 4*x^204",
        "x^3*y^199*z^49 + 4*x^201*z",
        "x^200*y + 4*x^3*z^49",
        "z^201 + 4*x^3",
        "y^200 + 4*x*z",
    ]
    assert basis[0].packing.width > max(g.packing.width for g in gens)
    assert certify_groebner(list(basis)).ok


def test_spolynomial_terms_refuse_a_product_past_narrow_entries():
    """`_spoly_terms` itself raises `_Overflow`: x + y^250 and y^10 pack at 8
    bits, their lcm x*y^10 fits, but y^10 * y^250 does not.  Buchberger
    would widen on a later check too, so only this call shows the guard."""
    ring = PolyRing(5, ("x", "y"), Lex())
    x, y = ring.gens()

    def spoly(width):
        pk = packing_for(Lex(), 2, width)
        fi, fj = (
            pk.reducer(pk.pack_terms(g.terms), pow(g.leading_term()[0], -1, 5))
            for g in (x + y**250, 3 * y**10)
        )
        return pk, _spoly_terms(pk, fi, fj, pk.pack((1, 10)), 5)

    with pytest.raises(_Overflow):
        spoly(8)
    pk, terms = spoly(16)
    assert Polynomial(ring, pk, terms) == s_polynomial(x + y**250, 3 * y**10)


def test_pair_update_refuses_a_degree_past_narrow_leads():
    """`_gm_update` itself raises `_Overflow`: the degrevlex leads
    x^200 y^10 and x^10 y^200 fit 8-bit fields, but the degree 400 of their
    lcm does not fit the 8-bit degree field."""

    def update(width):
        pk = packing_for(DegRevLex(), 2, width)
        lms = [(pk.pack(m) ^ pk.flip) & pk.exponents for m in ((200, 10), (10, 200))]
        active, pairs = _gm_update(pk, lms, [False, False], [], [], 0)
        return pk, _gm_update(pk, lms, [False, False], active, pairs, 1)

    with pytest.raises(_Overflow):
        update(8)
    pk, (active, pairs) = update(16)
    assert active == [0, 1] and [(packed, i, j) for packed, i, j, _ in pairs] == [
        (pk.pack((200, 200)), 0, 1)
    ]


def test_order_argument_resorts_into_the_ring_under_that_order():
    """`buchberger(gens, order)` is `buchberger` on the generators taken into
    their ring under `order`."""
    rng = random.Random(41)
    lex = PolyRing(5, ("x", "y", "z"), Lex())
    for order in (DegRevLex(), Block(DegRevLex()), Block(Block(Lex()))):
        ring = lex.with_order(order)
        for _ in range(4):
            gens = [random_nonzero_polynomial(rng, lex, max_degree=3) for _ in range(3)]
            basis = buchberger(gens, order)
            resorted = buchberger([g.resorted(ring) for g in gens])
            assert basis == resorted and basis.order == order
            assert all(g.ring == ring for g in basis)
            assert buchberger(gens, Lex()) == buchberger(gens)


# -- certification ----------------------------------------------------------------

def test_explicit_elimination_vector_certifies():
    """The hand-built (n+5)-entry elimination basis (p=3, n=9) passes."""
    aux, entries = aux_saturation_basis(3, 4)
    assert len(entries) == 14
    cert = certify_groebner(entries, aux.order)
    assert cert.ok
    assert cert.check()


def test_certify_packs_its_basis_once(monkeypatch):
    """All 91 S-pairs of the 14-element basis divide against one table."""
    from hkforge.polyring import DivisorTable

    made = []
    init = DivisorTable.__init__
    monkeypatch.setattr(
        DivisorTable, "__init__", lambda self, divisors: made.append(1) or init(self, divisors)
    )
    aux, entries = aux_saturation_basis(3, 4)
    cert = certify_groebner(entries, aux.order)
    assert cert.ok and len(cert.entries) == 91
    assert len(made) == 1


def test_certificate_json_golden_bytes():
    """The quotients of a small certificate, byte for byte."""
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    elements = Ideal(ring, [x**3 - s * y, y**2 - x, s * x * y]).groebner_basis().elements
    assert certify_groebner(elements).to_json() == (
        '{"basis": ["s*y + 2*y^6", "x + 2*y^2", "y^8"], "order": "lex", "pairs": ['
        '{"j": 0, "k": 1, "quotients": ["y^2", "2*y^6", "0"]}, '
        '{"j": 0, "k": 2, "quotients": ["0", "0", "2*y^5"]}, '
        '{"j": 1, "k": 2, "quotients": ["0", "0", "2*y^2"]}], "pass": true}'
    )


def test_certify_takes_the_order_positionally():
    """`certify_groebner(elements, ring.order)`, as the benchmark calls it,
    and a basis certified under an order other than its ring's."""
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    ideal = Ideal(ring, [x**3 - s * y, y**2 - x, s * x * y])
    elements = ideal.groebner_basis().elements
    cert = certify_groebner(elements, ring.order)
    assert cert.ok and cert.check() and cert.order == ring.order
    drl = buchberger(elements, DegRevLex())
    cert = certify_groebner([g.resorted(ring) for g in drl], DegRevLex())
    assert cert.ok and cert.check() and cert.basis == drl.elements
    assert not certify_groebner(elements, DegRevLex()).ok


def test_certify_counterexample_reports_first_failing_pair():
    ring = PolyRing(5, ("x", "y"), Lex())
    x, y = ring.gens()
    cert = certify_groebner([x**2, x * y + y**2])
    assert not cert.ok
    j, k, remainder = cert.failure
    assert (j, k) == (0, 1)
    assert remainder == y**3
    assert not cert.check()
    assert cert.to_json() == (
        '{"basis": ["x^2", "x*y + y^2"], "failure": {"j": 0, "k": 1, "remainder": "y^3"}, '
        '"order": "lex", "pass": false}'
    )


def test_certify_refuses_a_zero_element(lex5):
    """A Groebner basis holds no zero element: a zero anywhere is refused
    before any pair is formed."""
    x = lex5.gen("x")
    zero = lex5.zero()
    for basis in ([zero], [x, zero], [zero, x], [zero, zero], [x**2, zero], [zero, x**2 + x]):
        with pytest.raises(ZeroPolynomial, match="zero element"):
            certify_groebner(basis)


def test_certify_single_element_is_trivial(lex5):
    cert = certify_groebner([lex5.parse("x^2 + s")])
    assert cert.ok and cert.entries == ()
    cert = certify_groebner([])  # so is an empty basis
    assert cert.ok and cert.entries == () and cert.check()


def _with_quotients(cert, at: int, quots):
    """`cert` with the quotients of its entry `at` replaced."""
    entries = list(cert.entries)
    entries[at] = (*entries[at][:2], tuple(quots))
    return dataclasses.replace(cert, entries=tuple(entries))


def _golden_certificate():
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    elements = Ideal(ring, [x**3 - s * y, y**2 - x, s * x * y]).groebner_basis().elements
    cert = certify_groebner(elements)
    assert cert.check() and cert.entries[0][:2] == (0, 1)
    return cert, y


def test_check_refuses_a_combination_other_than_the_s_polynomial():
    """Doubling a quotient keeps every product's lead, so only the identity
    S = sum a_i g_i fails."""
    cert, _ = _golden_certificate()
    quots = list(cert.entries[0][2])
    quots[0] = 2 * quots[0]
    assert not _with_quotients(cert, 0, quots).check()


def test_check_refuses_nonzero_quotients_of_a_zero_s_polynomial():
    """(g2, -g1) sums to g2 g1 - g1 g2 = 0 = S(g1, g2) on two monomials."""
    ring = PolyRing(3, ("x", "y"), Lex())
    x, y = ring.gens()
    cert = certify_groebner([x**2, y])
    assert cert.check() and cert.entries[0][:2] == (0, 1)
    assert not _with_quotients(cert, 0, (y, -(x**2))).check()


def test_check_refuses_a_product_above_the_s_polynomial():
    """Adding h g_k to a_j and subtracting h g_j from a_k keeps the sum,
    but lm(a_j g_j) becomes h lm(g_j) lm(g_k), above lm(S)."""
    cert, h = _golden_certificate()
    j, k, quots = cert.entries[0]
    quots = list(quots)
    quots[j] = quots[j] + h * cert.basis[k]
    quots[k] = quots[k] - h * cert.basis[j]
    assert not _with_quotients(cert, 0, quots).check()


def test_certificate_json_round_trips():
    ring = PolyRing(3, ("x", "y"), Lex())
    x, y = ring.gens()
    cert = certify_groebner([x**2, y])
    payload = json.loads(cert.to_json())
    assert payload["pass"] is True
    assert payload["order"] == "lex"
    assert len(payload["pairs"]) == 1


def _certify_cases():
    """Seeded (basis, order) cases for the reference comparison: bases of
    single-term elements only, with scaled monomials and constants among them,
    mixed reduced bases and the 14-element elimination basis, and bases of
    terms with one longer element among them, most of which fail."""
    rng = random.Random(3031)
    lex = PolyRing(7, ("s", "x", "y"), Lex())
    s, x, y = lex.gens()
    cases = [
        ([x**2, y], None),
        ([3 * x**2, 5 * x * y, 2 * y**3], None),
        ([lex.one(), x, y**2], None),
        ([lex.constant(4), 6 * s], DegRevLex()),
        ([lex.one()], None),
        ([x**2 + y, lex.one(), y], None),
        ([x**2, x * y + y**2], None),
        ([y**3, s, x**2, x * y + y**2], None),
        (aux_saturation_basis(3, 4)[1], Lex()),
    ]
    for _ in range(10):
        terms = {random_monomial(rng, lex, 4) for _ in range(rng.randint(1, 5))}
        basis = [lex.polynomial({m: rng.randint(1, 6)}) for m in sorted(terms)]
        cases.append((basis, rng.choice([None, DegRevLex()])))
    for _ in range(10):
        # homogeneous quadrics and cubics, whose bases keep longer elements
        order = rng.choice([Lex(), DegRevLex()])
        gens = []
        for degree in rng.choice([(2, 2), (2, 3), (2, 2, 3)]):
            terms = [random_monomial(rng, lex, 3) for _ in range(9)]
            terms = [m for m in terms if sum(m) == degree]
            gens.append(lex.polynomial({m: rng.randint(1, 6) for m in terms}) + x**degree)
        elements = buchberger(gens, order).elements
        cases.append(([rng.randint(1, 6) * g for g in elements], order))
    for _ in range(10):
        basis = [rng.choice(lex.gens()) * x ** rng.randint(0, 2) for _ in range(3)]
        longer = random_nonzero_polynomial(rng, lex, 3)
        while len(longer) < 2:
            longer = random_nonzero_polynomial(rng, lex, 3)
        basis.insert(rng.randint(1, 3), longer)
        cases.append((basis, rng.choice([None, DegRevLex()])))
    return cases


def test_certify_matches_the_reference():
    """Recording term pairs without dividing them changes no certificate: the
    same entries, quotients and first failing pair, byte for byte."""
    passed, failed_after_term_pairs = 0, 0
    for basis, order in _certify_cases():
        cert, ref = certify_groebner(basis, order), reference_certify(basis, order)
        assert cert.to_json() == ref.to_json()
        assert cert == ref
        assert cert.check() == ref.ok
        passed += ref.ok
        failed_after_term_pairs += not ref.ok and bool(ref.entries)
    assert passed >= 20 and failed_after_term_pairs >= 3


def test_certify_forms_no_s_polynomial_of_two_terms(monkeypatch):
    """On the 14-element elimination basis only pairs with an element of two
    or more terms are formed and divided; `check` still forms all 91."""
    from hkforge import groebner

    calls = {"s_polynomial": 0, "division": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counted(*a, _name=name, _original=original):
            calls[_name] += 1
            return _original(*a)

        monkeypatch.setattr(groebner, name, counted)
    aux, entries = aux_saturation_basis(3, 4)
    cert = certify_groebner(entries, aux.order)
    longer = sum(
        1
        for k in range(len(entries))
        for j in range(k)
        if not (entries[j].is_monomial() and entries[k].is_monomial())
    )
    assert cert.ok and len(cert.entries) == 91 and longer < 91
    assert calls == {"s_polynomial": longer, "division": longer}
    assert cert.check() and calls["s_polynomial"] == longer + 91


# -- membership --------------------------------------------------------------------

def test_membership_construction_cases(lex5):
    s, x, y = lex5.gens()
    ideal, g = construction_ideal(lex5, 9)
    f = lex5.zero()
    for j in range(2, 9):
        f = f + ((-1) ** j) * x ** (10 - j) * y**j
    assert ideal.contains(s * f)
    assert not ideal.contains(f)
    assert ideal.contains(lex5.zero())


def test_ideal_member_function(lex5):
    s, x, y = lex5.gens()
    ideal, g = construction_ideal(lex5, 9)
    assert ideal.contains(s * g) and s * g in ideal
    assert not ideal.contains(s) and s not in ideal


def test_normal_form_rejects_zero_divisor(lex5):
    from hkforge import normal_form

    with pytest.raises(ZeroPolynomial):
        normal_form(lex5.gen("x"), [lex5.zero()])


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(41)
    ring = PolyRing(3, ("x", "y"))
    for _ in range(20):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(2)]
        ideal = Ideal(ring, gens)
        probe = random_polynomial(rng, ring, max_degree=3)
        # make half of the probes certain members
        if rng.random() < 0.5:
            probe = gens[0] * probe
        assert ideal.contains(probe) == oracle_ideal_member(probe, ideal)
