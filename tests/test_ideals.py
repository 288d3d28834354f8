import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge import (
    Block,
    CapExceeded,
    DegRevLex,
    EmptyVariety,
    Ideal,
    Lex,
    PolyRing,
    RingMismatch,
    ZeroDivisor,
    bracket_power,
    buchberger,
    colon_element,
    colon_ideal,
    dimension,
    finite_colength_length,
    ideal_equal,
    intersect,
    maximal_ideal,
    saturate,
    unit_ideal,
)
from hkforge.ideals import _elimination, _graded, _saturate_variable, _saturation_steps
from hkforge.lengths import _m_saturation, _span_closure, oracle_ideal_member
from hkforge.verify import build_construction

from helpers import (
    random_monomial,
    random_nonzero_polynomial,
    reference_saturation_levels,
    reference_saturation_steps,
)


@pytest.fixture
def f3xy():
    return PolyRing(3, ("x", "y"))


@pytest.fixture
def construction54():
    return build_construction(5, 4)


@pytest.fixture
def builds(monkeypatch):
    """A list that gains one entry per Buchberger build made in `ideals`."""
    from hkforge import ideals

    made = []
    monkeypatch.setattr(ideals, "buchberger", lambda *a: made.append(1) or buchberger(*a))
    return made


# -- bracket powers -------------------------------------------------------------

def test_bracket_of_variables(f3xy):
    x, y = f3xy.gens()
    assert ideal_equal(bracket_power(Ideal(f3xy, [x, y]), 1), Ideal(f3xy, [x**3, y**3]))
    # `==` on ideals is `ideal_equal`; against a polynomial it is False
    assert bracket_power(Ideal(f3xy, [x, y]), 1) == Ideal(f3xy, [y**3, x**3 + y**3])
    assert Ideal(f3xy, [x**3]) != Ideal(f3xy, [x**3, y**3])
    assert Ideal(f3xy, [x]) != x


def test_bracket_exponent_zero_is_identity(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x + y])
    assert bracket_power(ideal, 0) is ideal


def test_bracket_commutes_with_ordinary_powers(f3xy):
    """((x,y)^p)^[q] and ((x^q, y^q))^p generate the same ideal."""
    p = 3
    m_ideal = maximal_ideal(f3xy)
    x, y = f3xy.gens()
    lhs = bracket_power(m_ideal**p, 1)
    rhs = Ideal(f3xy, [x**3, y**3]) ** p
    assert ideal_equal(lhs, rhs)


def test_bracket_independent_of_generating_set(f3xy):
    rng = random.Random(43)
    for _ in range(10):
        gens = [random_nonzero_polynomial(rng, f3xy, max_degree=3) for _ in range(2)]
        ideal_a = Ideal(f3xy, gens)
        # same ideal, redundant generating set
        mixer = random_nonzero_polynomial(rng, f3xy, max_degree=2)
        ideal_b = Ideal(f3xy, gens + [gens[0] * mixer + gens[1]])
        assert ideal_equal(bracket_power(ideal_a, 1), bracket_power(ideal_b, 1))


def test_bracket_transports_reduced_bases(f3xy):
    """The cached basis of I^[q] (scaled exponents) matches a fresh run."""
    rng = random.Random(47)
    for _ in range(8):
        gens = [random_nonzero_polynomial(rng, f3xy, max_degree=3) for _ in range(2)]
        ideal = Ideal(f3xy, gens)
        ideal.groebner_basis()  # populate the cache
        bracketed = bracket_power(ideal, 1)
        transported = bracketed._bases[f3xy.order]
        fresh = buchberger([g.frobenius(1) for g in gens], f3xy.order)
        assert list(transported) == list(fresh)


def test_bracket_commutes_with_sums(f3xy):
    rng = random.Random(53)
    for _ in range(10):
        a = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy) for _ in range(2)])
        b = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy) for _ in range(2)])
        assert ideal_equal(bracket_power(a + b, 1), bracket_power(a, 1) + bracket_power(b, 1))


def test_bracket_cap_enforced(f3xy, monkeypatch):
    x, _ = f3xy.gens()
    ideal = Ideal(f3xy, [x])
    with pytest.raises(CapExceeded):
        bracket_power(ideal, 7)
    monkeypatch.setenv("HKFORGE_EMAX_CAP", "8")
    assert bracket_power(ideal, 7).generators[0] == x ** (3**7)
    monkeypatch.setenv("HKFORGE_EMAX_CAP", "1")
    with pytest.raises(CapExceeded):
        bracket_power(ideal, 2)


# -- intersection -----------------------------------------------------------------

def test_intersect_self(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, x * y])
    assert ideal_equal(intersect(ideal, ideal), ideal)


def test_intersect_coprime_principals(f3xy):
    x, y = f3xy.gens()
    assert ideal_equal(
        intersect(Ideal(f3xy, [x]), Ideal(f3xy, [y])), Ideal(f3xy, [x * y])
    )


def test_intersect_h_with_s(construction54):
    """h ∩ (s) = (s y^9, s x^3 y^4 (x,y)^4, s f, s x^9, s g) at (p, m) = (5, 4)."""
    data = construction54
    s, x, y = data.ring.gens()
    meet = intersect(data.h, Ideal(data.ring, [s]))
    expected = Ideal(
        data.ring,
        [s * y**9, s * data.f, s * x**9, s * data.g]
        + [s * x ** (3 + i) * y ** (8 - i) for i in range(5)],
    )
    assert ideal_equal(meet, expected)


def test_membership_refuses_a_polynomial_of_another_ring(f3xy):
    """Also in the zero ideal, whose empty basis moves no polynomial."""
    other = PolyRing(5, ("x", "y")).gen("x")
    for ideal in (Ideal(f3xy, []), Ideal(f3xy, [f3xy.gen("y")])):
        with pytest.raises(RingMismatch):
            ideal.contains(other)


def test_intersections_are_contained_in_both(f3xy):
    rng = random.Random(59)
    for _ in range(8):
        a = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy) for _ in range(2)])
        b = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy) for _ in range(2)])
        meet = intersect(a, b)
        assert a.contains_ideal(meet)
        assert b.contains_ideal(meet)


def test_intersect_reads_the_unit_ideal_off_the_elimination_basis(f3xy):
    """(x, x + 1) is the unit ideal with no constant generator; intersecting
    with it returns the other argument itself, and builds no basis of it."""
    x, y = f3xy.gens()
    unit = Ideal(f3xy, [x, x + 1])
    other = Ideal(f3xy, [y**2, x * y])
    assert intersect(unit, other) is other
    assert intersect(other, unit) is other
    assert unit._bases == {} and other._bases == {}
    assert intersect(unit, unit) is unit
    copy = Ideal(f3xy, [x + 1, x])
    assert intersect(unit, copy) is copy and intersect(copy, unit) is unit


@pytest.mark.parametrize(
    "a_gens, b_gens, returns_b",
    [
        ([], ["y"], False),
        (["x"], [], True),
        (["x", "x + 1"], ["y^2", "x*y"], True),
        (["y^2", "x*y"], ["x", "x + 1"], False),
        (["x^2 + y", "x*y"], ["y^2 - x", "x + y"], False),
    ],
    ids=["a-zero", "b-zero", "a-unit", "b-unit", "general"],
)
def test_intersect_answers_in_the_ring_of_its_first_argument(a_gens, b_gens, returns_b):
    """With a over F_3[x, y] under lex and b over the degrevlex ring on the
    same variables, every branch of `intersect` answers over a's ring, with
    the generators of the answer when b is first taken into a's ring; where
    the answer is b, b's bases travel with it."""
    lex = PolyRing(3, ("x", "y"), Lex())
    drl = lex.with_order(DegRevLex())
    a = Ideal(lex, [lex.parse(g) for g in a_gens])
    b = Ideal(drl, [drl.parse(g) for g in b_gens])
    b_basis = b.groebner_basis()
    meet = intersect(a, b)
    same = intersect(a, Ideal(lex, b.generators))
    assert meet.ring is a.ring
    assert meet.generators == same.generators and ideal_equal(meet, same)
    if returns_b:
        assert meet._bases[DegRevLex()] is b_basis


@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
def test_intersect_repacks_generators_of_mixed_widths(order):
    """x^300 - y packs at width 16 and xy at width 8; both move into the
    elimination ring by their terms, and the basis moves back the same way."""
    ring = PolyRing(5, ("x", "y"), order)
    x, y = ring.gens()
    ideal = Ideal(ring, [x**300 - y, x * y])
    assert [g.packing.width for g in ideal.generators] == [16, 8]
    meet = intersect(ideal, Ideal(ring, [y**2, x**2]))
    assert [str(g) for g in meet.generators] == ["x^301", "x^2*y", "y^2"]


# -- Frobenius flatness ----------------------------------------------------------------
#
# Over F_p[x, y] Frobenius is flat (Kunz), so bracketing commutes with
# intersection and colon: (I ∩ K)^[p] = I^[p] ∩ K^[p] and
# (I : K)^[p] = (I^[p] : K^[p]).  A check on the stack only; the engine never
# uses it as a shortcut.

_pairs = pytest.mark.parametrize(
    "i_gens,k_gens",
    [
        (["x^2", "x*y"], ["y^3", "x - y"]),
        (["x^3", "x*y^2", "y^3"], ["x^2 + y^3", "x*y"]),
        (["x*y", "y^2 - x"], ["x + y"]),
    ],
    ids=["x2-xy-with-y3-x-y", "x3-xy2-y3-with-x2+y3-xy", "xy-y2-x-with-x+y"],
)
_orders = pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])


def _pair(p, order, i_gens, k_gens):
    ring = PolyRing(p, ("x", "y"), order)
    return tuple(Ideal(ring, [ring.parse(g) for g in gens]) for gens in (i_gens, k_gens))


@_pairs
@_orders
@pytest.mark.parametrize("p", [2, 3])
def test_bracket_commutes_with_intersection_and_colon(p, order, i_gens, k_gens):
    i_ideal, k_ideal = _pair(p, order, i_gens, k_gens)
    i_p, k_p = bracket_power(i_ideal, 1), bracket_power(k_ideal, 1)
    assert ideal_equal(bracket_power(intersect(i_ideal, k_ideal), 1), intersect(i_p, k_p))
    assert ideal_equal(bracket_power(colon_ideal(i_ideal, k_ideal), 1), colon_ideal(i_p, k_p))


@_pairs
@_orders
@pytest.mark.parametrize("p", [2, 3])
def test_intersection_and_colon_times_k_lie_in_i_by_the_oracle(p, order, i_gens, k_gens):
    """I ∩ K <= I and (I : K) * K <= I, decided by `oracle_ideal_member`, which
    builds no Groebner basis: every generator of I ∩ K, and every product c*k
    of a generator c of I : K with a generator k of K, is a member of I."""
    i_ideal, k_ideal = _pair(p, order, i_gens, k_gens)
    meet = intersect(i_ideal, k_ideal)
    assert all(oracle_ideal_member(g, i_ideal) for g in meet.generators)
    colon = colon_ideal(i_ideal, k_ideal)
    assert all(
        oracle_ideal_member(c * k, i_ideal) for c in colon.generators for k in k_ideal.generators
    )


# -- colon ---------------------------------------------------------------------------

def test_colon_by_f_is_maximal_ideal():
    """`verify_construction` claim 4 reads e : f = m off membership tests;
    the colon route gives the same on points of its grid."""
    for p, m in [(5, 4), (3, 4), (3, 5), (7, 5)]:
        data = build_construction(p, m)
        assert ideal_equal(colon_element(data.e, data.f), maximal_ideal(data.ring))


def test_colon_by_z_is_maximal_ideal_on_the_katzman_pair():
    """`verify_katzman(3, 1)` claim iii the colon way: (J^[3] + (g)) : z = m
    for J = (x^3, y^3), with z = f of the family at n = 9."""
    data = build_construction(3, 4)
    x, y = data.ring.gen("x"), data.ring.gen("y")
    j_q = bracket_power(Ideal(data.ring, [x**3, y**3]), 1) + Ideal(data.ring, [data.g])
    assert ideal_equal(colon_element(j_q, data.f), maximal_ideal(data.ring))


def test_colon_divides_against_one_table(construction54, monkeypatch):
    """Every generator of e ∩ (f) divides against the same table of (f)."""
    from hkforge import ideals
    from hkforge.polyring import DivisorTable

    tables = []
    division = ideals.division
    monkeypatch.setattr(ideals, "division", lambda g, d: tables.append(d) or division(g, d))
    data = construction54
    assert ideal_equal(colon_element(data.e, data.f), maximal_ideal(data.ring))
    assert len(tables) > 1
    assert isinstance(tables[0], DivisorTable) and all(t is tables[0] for t in tables)


def test_h_is_s_saturated(construction54):
    data = construction54
    s = data.ring.gen("s")
    assert ideal_equal(colon_element(data.h, s), data.h)


def test_colon_by_unit_is_identity(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, y])
    assert ideal_equal(colon_element(ideal, f3xy.one()), ideal)
    assert ideal_equal(colon_ideal(ideal, unit_ideal(f3xy)), ideal)


def test_colon_by_zero_raises(f3xy):
    with pytest.raises(ZeroDivisor):
        colon_element(Ideal(f3xy, [f3xy.gen("x")]), f3xy.zero())
    with pytest.raises(ZeroDivisor):
        colon_ideal(Ideal(f3xy, [f3xy.gen("x")]), Ideal(f3xy, []))


def test_colon_ideal_matches_hand_value(f3xy):
    x, y = f3xy.gens()
    result = colon_ideal(Ideal(f3xy, [x**2, x * y]), maximal_ideal(f3xy))
    assert ideal_equal(result, Ideal(f3xy, [x]))
    # cross-check through the linear-algebra oracle: x*(x, y) <= (x^2, xy)
    target = Ideal(f3xy, [x**2, x * y])
    for gen in result.generators:
        assert oracle_ideal_member(gen * x, target)
        assert oracle_ideal_member(gen * y, target)


def test_colon_by_maximal_contains_h(construction54):
    data = construction54
    quotient = colon_ideal(data.e, maximal_ideal(data.ring))
    assert quotient.contains_ideal(data.h)


def test_ideal_contained_in_its_colon(f3xy):
    rng = random.Random(61)
    for _ in range(8):
        ideal = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy) for _ in range(2)])
        divisor = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy)])
        assert colon_ideal(ideal, divisor).contains_ideal(ideal)


# -- saturation -------------------------------------------------------------------------

def test_saturations_of_e_reach_h(construction54):
    data = construction54
    s = data.ring.gen("s")
    sat_s, steps_s = saturate(data.e, s)
    sat_m, steps_m = saturate(data.e, maximal_ideal(data.ring))
    assert ideal_equal(sat_s, data.h)
    assert ideal_equal(sat_m, data.h)
    assert steps_s == 1 and steps_m == 1


def test_saturate_by_unit_is_stable_immediately(f3xy):
    x, _ = f3xy.gens()
    ideal = Ideal(f3xy, [x**2])
    stable, steps = saturate(ideal, f3xy.one())
    assert steps == 0
    assert ideal_equal(stable, ideal)


def test_saturation_is_stable_under_further_colon(f3xy):
    rng = random.Random(67)
    for _ in range(6):
        ideal = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy) for _ in range(2)])
        u = random_nonzero_polynomial(rng, f3xy, max_degree=2)
        stable, _ = saturate(ideal, u)
        assert ideal_equal(colon_element(stable, u), stable)


def test_saturate_runs_the_full_step_when_no_part_lies_in_i(f3xy):
    """(xy) : x = (y) and (xy) : y = (x) lie outside (xy), but their
    intersection is (xy) again: the chain is stable, found only after the
    intersection."""
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x * y])
    stable, steps = saturate(ideal, maximal_ideal(f3xy))
    assert stable is ideal and steps == 0


def test_saturate_stops_at_the_first_part_that_lies_in_i(f3xy, monkeypatch):
    """(y) : x = (y) already lies in (y), so (y) : (x, y) needs no second part
    and no intersection."""
    from hkforge import ideals

    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [y])
    calls = []
    colon = ideals.colon_element
    monkeypatch.setattr(ideals, "colon_element", lambda i, u: calls.append(u) or colon(i, u))
    assert saturate(ideal, maximal_ideal(f3xy)) == (ideal, 0)
    assert calls == [x]


def _colon_chain(ideal, divisor):
    """I : K^infinity by the plain chain of full colons."""
    current, steps = ideal, 0
    while True:
        nxt = colon_ideal(current, divisor)
        if current.contains_ideal(nxt):
            return current, steps
        current, steps = nxt, steps + 1


def test_saturate_by_an_ideal_matches_the_full_colon_chain(f3xy):
    """The early stop on a part that lies in I keeps the step count and the
    ideal of the full chain.  The ideal divisors all have radical (x, y), so
    `_m_saturation` is their saturation.  The homogenized saturations equal
    the chain's stable ideals, and the normal-form walk of
    `_saturation_steps` counts the chain's steps from them: by m, and by each
    variable."""
    rng = random.Random(71)
    x, y = f3xy.gens()
    m = maximal_ideal(f3xy)
    divisors = [
        m,
        Ideal(f3xy, [x**2, y]),
        Ideal(f3xy, [x * y, y**2 + x]),
    ]
    steps_seen = set()
    for _ in range(10):
        gens = [
            random_nonzero_polynomial(rng, f3xy, max_degree=2)
            * f3xy.monomial(*random_monomial(rng, f3xy, 4))
            for _ in range(rng.randint(2, 3))
        ]
        ideal = Ideal(f3xy, gens)
        sat_m = _m_saturation(ideal)
        for divisor in divisors:
            stable, steps = saturate(ideal, divisor)
            expected, expected_steps = _colon_chain(ideal, divisor)
            assert steps == expected_steps
            assert ideal_equal(stable, expected)
            assert ideal_equal(sat_m or unit_ideal(f3xy), stable)
            if divisor is m:
                assert _saturation_steps(ideal, sat_m, range(2)) == steps
            steps_seen.add(steps)
        for i, v in enumerate((x, y)):
            stable, steps = saturate(ideal, v)
            sat_v = _saturate_variable(ideal, i)
            assert ideal_equal(sat_v, stable)
            assert _saturation_steps(ideal, sat_v, [i]) == steps
    assert {0, 2, 4} <= steps_seen


_gen_dicts = st.lists(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 6), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(dicts=_gen_dicts, i=st.integers(0, 2))
@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=["lex", "degrevlex", "block"]
)
@pytest.mark.parametrize("p", [2, 3, 2**61 - 1], ids=["2", "3", "2^61-1"])
def test_saturate_variable_matches_the_colon_chain(p, order, dicts, i):
    """The homogenized saturation by the i-th variable equals the colon
    chain's on four ideals made from the same forms: the forms, their leading
    forms (all homogeneous, so no h), the forms with the i-th variable set to
    1 (the result is I itself), and the forms plus 1 (the unit ideal)."""
    ring = PolyRing(p, ("s", "x", "y"), order)
    forms = [ring.polynomial(d) for d in dicts]
    tops = [
        ring.polynomial({m: c for m, c in d.items() if sum(m) == max(map(sum, d))})
        for d in dicts
    ]
    free = [ring.polynomial([(m[:i] + (0,) + m[i + 1 :], c) for m, c in d.items()]) for d in dicts]
    v = ring.gens()[i]
    for gens in (forms, tops, free, forms + [ring.one()]):
        ideal = Ideal(ring, gens)
        assert ideal_equal(_saturate_variable(ideal, i), saturate(ideal, v)[0])
    free_ideal = Ideal(ring, free)
    assert _saturate_variable(free_ideal, i) is free_ideal


@pytest.mark.parametrize(
    "gens,bases",
    [(lambda x, y: [x**2 * y, x * y**2], 1), (lambda x, y: [x**2 * y + x, x * y**2], 2)],
    ids=["homogeneous", "mixed"],
)
def test_saturate_variable_skips_h_on_homogeneous_generators(monkeypatch, gens, bases):
    """Homogeneous generators go straight to the basis with y last; others
    first build the degrevlex basis that h homogenizes."""
    from hkforge import ideals

    ring = PolyRing(3, ("x", "y"), Lex())
    x, y = ring.gens()
    count = [0]
    original = ideals.buchberger

    def counted(*a, **kw):
        count[0] += 1
        return original(*a, **kw)

    monkeypatch.setattr(ideals, "buchberger", counted)
    ideal = Ideal(ring, gens(x, y))
    sat = _saturate_variable(ideal, 1)
    assert count[0] == bases
    monkeypatch.undo()
    assert ideal_equal(sat, saturate(ideal, y)[0])


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(dicts=_gen_dicts, i=st.integers(0, 2))
@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
@pytest.mark.parametrize("p", [2, 3])
def test_saturate_variable_returns_the_ideal_itself_exactly_when_v_is_no_zero_divisor(
    p, order, dicts, i
):
    """`_saturate_variable(I, i) is I` exactly when I : v = I, the test of
    claim 5 of `verify_construction`: the basis it divides by powers of v is
    reduced, so an element that holds v shows I : v != I.  Drawn from the
    same forms: the forms, the forms with v set to 1 (saturated), and the
    forms times v (unsaturated unless zero)."""
    ring = PolyRing(p, ("s", "x", "y"), order)
    v = ring.gens()[i]
    forms = [ring.polynomial(d) for d in dicts]
    free = [ring.polynomial([(m[:i] + (0,) + m[i + 1 :], c) for m, c in d.items()]) for d in dicts]
    shifted = [v * f for f in forms]
    for gens, saturated in ((forms, None), (free, True), (shifted, not Ideal(ring, forms).generators)):
        ideal = Ideal(ring, gens)
        itself = _saturate_variable(ideal, i) is ideal
        assert itself == ideal_equal(colon_element(ideal, v), ideal)
        assert saturated is None or itself == saturated


@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
def test_saturate_variable_builds_nothing_when_no_generator_holds_v(order, builds):
    """No generator of (x^9, y^9, xy(x - y)) involves s, so s is a
    nonzerodivisor modulo it and the ideal comes back itself with no basis
    built, as in claim iv of `verify_katzman`.  With s in one generator
    only, the saturation still runs and matches the colon chain."""
    ring = PolyRing(3, ("s", "x", "y"), order)
    s, x, y = ring.gens()
    ideal = Ideal(ring, [x**9, y**9, x * y * (x - y)])
    assert _saturate_variable(ideal, 0) is ideal
    assert builds == [] and ideal._bases == {}
    held = Ideal(ring, [x**3, y**3, s * x * y])
    sat = _saturate_variable(held, 0)
    assert builds and sat is not held
    assert ideal_equal(sat, Ideal(ring, [x**3, y**3, x * y]))
    assert ideal_equal(sat, saturate(held, s)[0])


@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
def test_fresh_variables_avoid_the_ring_names(order):
    """On F_3[h, t, x] the homogenizing variable is named hh and the
    elimination variable tt, and the homogenized saturation by each variable
    equals the colon chain's."""
    ring = PolyRing(3, ("h", "t", "x"), order)
    h, t, x = ring.gens()
    ideal = Ideal(ring, [h**2 * t - x * t, t**2 * x + h * x, x**3 * h + t])
    assert _elimination(ring)[0].variables == ("tt", "h", "t", "x")
    for i, v in enumerate(ring.gens()):
        assert _graded(ring, i, True).variables[0] == "hh"
        assert ideal_equal(_saturate_variable(ideal, i), saturate(ideal, v)[0])


def test_questions_on_a_saturated_level_read_its_degrevlex_basis():
    """Once `_saturate_variable` has built the degrevlex basis of a lex
    Katzman level J = (x^3, y^3)^[3^e] + (g), the dimension, the unit test and
    the step counts of `_saturation_steps` read it, build no lex basis, and
    answer as a fresh ideal on the same generators does."""
    data = build_construction(3, 4)
    ring = data.ring
    s, x, y = ring.gens()
    for e in range(3):
        level = bracket_power(Ideal(ring, [x**3, y**3]), e) + Ideal(ring, [data.g])
        sat = _saturate_variable(level, 0)
        fresh = Ideal(ring, level.generators)
        assert dimension(level) == dimension(fresh)
        assert level.is_unit() == fresh.is_unit()
        for variables in ([0], range(3)):
            assert _saturation_steps(level, sat, variables) == _saturation_steps(
                fresh, sat, variables
            )
        assert ring.order not in level._bases


def test_an_ideal_builds_one_basis_per_order(builds):
    """Counted on a lex Katzman level J = (x^3, y^3)^[3] + (g): saturating by
    s builds J's degrevlex basis and the homogenized one; questions then read
    the degrevlex basis; the lex basis is built once on request; the bracket
    transports both; and `ideal_equal` keeps the basis it builds for b."""
    data = build_construction(3, 4)
    ring = data.ring
    s, x, y = ring.gens()
    level = bracket_power(Ideal(ring, [x**3, y**3]), 1) + Ideal(ring, [data.g])
    sat = _saturate_variable(level, 0)
    assert len(builds) == 2 and list(level._bases) == [DegRevLex()]
    builds.clear()
    assert level.contains(data.g) and not level.contains(s)
    assert not finite_colength_length(level).finite
    assert _span_closure(sat.generators, level) == 1
    assert dimension(level) == 1
    assert builds == []
    lex_basis = level.groebner_basis()
    assert len(builds) == 1
    assert level.groebner_basis() is lex_basis and len(builds) == 1
    builds.clear()
    bracketed = bracket_power(level, 1)
    assert builds == [] and list(bracketed._bases) == [DegRevLex(), Lex()]
    frobenius = [g.frobenius(1) for g in level.generators]
    for order, basis in bracketed._bases.items():
        assert basis == buchberger(frobenius, order)

    builds.clear()
    drl = ring.with_order(DegRevLex())
    level_drl = Ideal(drl, level.generators)
    assert level_drl.groebner_basis(DegRevLex()) is level_drl.groebner_basis()
    assert len(builds) == 1 and list(level_drl._bases) == [DegRevLex()]

    builds.clear()
    gens = [x * y - s**2, y**3 - x]
    a = Ideal(ring, gens)
    b = Ideal(drl, [gens[1], gens[0] + gens[1]])
    assert ideal_equal(a, b) and len(builds) == 2
    assert list(b._bases) == [Lex()]
    assert ideal_equal(a, b) and len(builds) == 2


BIG_P = 2**61 + 15  # the least prime above 2**61


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=["lex", "degrevlex", "block"]
)
@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, BIG_P], ids=["2", "3", "2^31-1", "big"])
def test_saturation_steps_match_the_polynomial_walk(p, order):
    """The packed kernel counts the steps of the `Polynomial` walk of
    `reference_saturation_steps`, or raises `CapExceeded` with it, on seeded
    ideals by all the variables and by s alone, and on the zero ideal and the
    unit ideal."""
    rng = random.Random(f"steps:{p}:{order.describe()}")
    ring = PolyRing(p, ("s", "x", "y"), order)
    s, x, y = ring.gens()
    variable_lists = [range(3), [0]]
    cases = []
    for _ in range(4):
        gens = [x ** rng.randint(1, 2), y ** rng.randint(1, 2), s ** rng.randint(1, 2)]
        for _ in range(2):
            gens.append(random_nonzero_polynomial(rng, ring, max_degree=2) * rng.choice((s, x, y)))
        ideal = Ideal(ring, gens)
        sat = Ideal(ring, [random_nonzero_polynomial(rng, ring, max_degree=2) for _ in range(2)])
        cases += [(ideal, sat), (ideal, None)]
    zero, unit = Ideal(ring, []), unit_ideal(ring)
    cases += [(zero, Ideal(ring, [x])), (zero, zero), (unit, None), (unit, Ideal(ring, [x * y]))]
    outcomes = set()
    for ideal, sat in cases:
        for variables in variable_lists:
            multipliers = [ring.gens()[i] for i in variables]
            for cap in (2, 8):
                try:
                    expected = reference_saturation_steps(ideal, sat, multipliers, cap)
                except CapExceeded:
                    with pytest.raises(CapExceeded, match="stabilize"):
                        _saturation_steps(ideal, sat, variables, cap)
                    outcomes.add("cap")
                else:
                    assert _saturation_steps(ideal, sat, variables, cap) == expected
                    outcomes.add(expected)
    assert "cap" in outcomes and outcomes - {"cap", 0}


def test_saturation_steps_reduce_once_per_level_entry_and_multiplier(f3xy, monkeypatch):
    """The walk makes one normal form against I's basis per generator of sat
    and one per (level entry, variable), the level entries being the
    distinct nonzero forms of `reference_saturation_levels`.  Counted at the
    division core that the kernel and `_next_level` call."""
    from hkforge import ideals

    reduce, tables = ideals._reduce_sorted, []

    def counting_reduce(h, table, *args):
        tables.append(table)
        return reduce(h, table, *args)

    rng = random.Random(83)
    x, y = f3xy.gens()
    for _ in range(10):
        ideal = Ideal(f3xy, [x**3, y**2, random_nonzero_polynomial(rng, f3xy, max_degree=3)])
        sat = Ideal(f3xy, [random_nonzero_polynomial(rng, f3xy, max_degree=2) for _ in range(2)])
        for variables in (range(2), [1]):
            multipliers = [f3xy.gens()[i] for i in variables]
            levels = reference_saturation_levels(ideal, sat, multipliers)
            tables.clear()
            monkeypatch.setattr(ideals, "_reduce_sorted", counting_reduce)
            assert _saturation_steps(ideal, sat, variables) == len(levels)
            monkeypatch.undo()
            entries = ideal.any_basis()._divisors.packed(0)[1]
            made = sum(table is entries for table in tables)
            expected = len(sat.generators) + len(multipliers) * sum(map(len, levels))
            assert made == len(tables) == expected


def test_saturation_steps_restart_at_a_wider_packing(monkeypatch):
    """x * y^k outgrows the 8-bit fields of (x^2)'s table near k = 255, so the
    walk by y runs again from the start at 16 bits, once, and hits its cap of
    300 as the reference does.  The basis's table keeps the wider packing,
    so a walk by x on the same ideal runs at 16 bits; on a fresh ideal, at 8."""
    from hkforge import ideals

    kernel, runs = ideals._steps_kernel, []

    def counting_kernel(pk, *args):
        runs.append(pk.width)
        return kernel(pk, *args)

    monkeypatch.setattr(ideals, "_steps_kernel", counting_kernel)
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    ideal, sat = Ideal(ring, [x**2]), Ideal(ring, [x])
    with pytest.raises(CapExceeded):
        _saturation_steps(ideal, sat, [1], cap=300)
    assert runs == [8, 16]
    with pytest.raises(CapExceeded):
        reference_saturation_steps(ideal, sat, [y], cap=300)
    for fresh, width in ((False, 16), (True, 8)):
        runs.clear()
        if fresh:
            ideal = Ideal(ring, [x**2])
        assert _saturation_steps(ideal, sat, [0], cap=300) == 1
        assert runs == [width]


def test_saturation_cap_diagnostic(f3xy):
    """(x^4, y^4) : m^infinity is the unit ideal, for which `_m_saturation`
    gives None; x^3 y^3 lies outside (x^4, y^4), so the chain and the walk
    take 7 steps, and both raise at a lower cap."""
    x, y = f3xy.gens()
    ideal, m = Ideal(f3xy, [x**4, y**4]), maximal_ideal(f3xy)
    with pytest.raises(CapExceeded, match="stabilize"):
        saturate(ideal, m, cap=2)
    assert _m_saturation(ideal) is None
    stable, steps = saturate(ideal, m)
    assert stable.is_unit() and steps == 7
    assert _saturation_steps(ideal, None, range(2)) == 7
    assert _saturation_steps(ideal, None, range(2), cap=7) == 7
    for cap in (2, 6):
        with pytest.raises(CapExceeded, match="stabilize"):
            _saturation_steps(ideal, None, range(2), cap=cap)


def test_saturate_refuses_a_negative_cap(f3xy, builds):
    """A negative cap is refused before any basis is built; a cap of 0 still
    allows the chain no step."""
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, y**2])
    with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
        saturate(ideal, x, cap=-1)
    assert builds == []
    with pytest.raises(CapExceeded, match="within 0 steps"):
        saturate(ideal, x, cap=0)
    assert saturate(Ideal(f3xy, [y**2]), x, cap=0)[1] == 0


# -- dimension ------------------------------------------------------------------------

def test_dimension_of_hypersurface(construction54):
    data = construction54
    assert dimension(Ideal(data.ring, [data.g])) == 2


def test_dimension_of_construction_ideal(construction54):
    assert dimension(construction54.e) == 1


def test_dimension_zero_for_maximal_ideal(f3xy):
    assert dimension(maximal_ideal(f3xy)) == 0


def test_dimension_of_zero_ideal_is_nvars(f3xy):
    assert dimension(Ideal(f3xy, [])) == 2


def test_dimension_of_unit_ideal_raises(f3xy):
    with pytest.raises(EmptyVariety):
        dimension(unit_ideal(f3xy))


def test_dimension_of_monomial_edge_case(f3xy):
    # (xy) has dimension 1: {x} and {y} each avoid containing its support
    x, y = f3xy.gens()
    assert dimension(Ideal(f3xy, [x * y])) == 1


# -- one ideal over rings with different orders ----------------------------------------

def lex_and_degrevlex(generators):
    """The ideal of `generators` (polynomials over a lex ring) over the lex ring
    and over the degrevlex ring on the same variables."""
    lex = generators[0].ring
    drl = lex.with_order(DegRevLex())
    return Ideal(lex, generators), Ideal(drl, [g.resorted(drl) for g in generators])


def test_ideal_equal_across_ring_orders():
    rng = random.Random(61)
    ring = PolyRing(5, ("x", "y", "z"), Lex())
    for _ in range(10):
        gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(3)]
        a, b = lex_and_degrevlex(gens)
        # a different generating set of the same ideal on the degrevlex side
        b = Ideal(b.ring, [g.scale(2) for g in b.generators] + [(gens[0] * gens[1]).resorted(b.ring)])
        assert ideal_equal(a, b) and ideal_equal(b, a)


def test_ideal_equal_across_ring_orders_tells_ideals_apart():
    ring = PolyRing(5, ("x", "y", "z"), Lex())
    x, y, z = ring.gens()
    # (1, 1, 1) lies on V(xy - z^2, y^3 - x), so z is not in that ideal
    smaller = [x * y - z**2, y**3 - x]
    small_lex, small_drl = lex_and_degrevlex(smaller)
    big_lex, big_drl = lex_and_degrevlex(smaller + [z])
    for a, b in ((small_lex, big_drl), (small_drl, big_lex)):
        assert not ideal_equal(a, b) and not ideal_equal(b, a)


def test_ideal_equal_answers_equal_generators_with_no_basis():
    """Equal generator tuples give True before any basis is built, also over
    rings with different orders; other generators go through the bases."""
    ring = PolyRing(5, ("x", "y", "z"), Lex())
    x, y, z = ring.gens()
    gens = [x * y - z**2, y**3 - x]
    lex, drl = lex_and_degrevlex(gens)
    for a, b in ((lex, Ideal(ring, gens)), (lex, drl), (drl, lex)):
        assert ideal_equal(a, b)
        assert a._bases == {} and b._bases == {}
    assert ideal_equal(lex, Ideal(ring, [gens[1], gens[0] + gens[1]]))
    assert not ideal_equal(lex, Ideal(ring, gens + [z]))


def _equality_cases():
    """Seeded pairs of generator lists, each over the lex or the degrevlex
    ring of x, y, z: a generating set against another one of the same ideal
    and against a larger ideal, the zero ideal and the unit ideal."""
    rng = random.Random(3037)
    lex = PolyRing(5, ("x", "y", "z"), Lex())
    drl = lex.with_order(DegRevLex())
    x, y, z = lex.gens()
    cases = [
        ([], lex, [x], drl),
        ([], drl, [], lex),
        ([lex.one()], lex, [x, x + 1], drl),
        ([lex.one()], drl, [x * y - z**2], lex),
        ([x * y - z**2, y**3 - x], lex, [y**3 - x, x * y - z**2 + 2 * (y**3 - x)], drl),
    ]
    for _ in range(8):
        gens = [random_nonzero_polynomial(rng, lex, 3) for _ in range(rng.randint(1, 3))]
        same = [rng.randint(1, 4) * g for g in reversed(gens)] + [gens[0] * gens[-1]]
        larger = gens + [random_nonzero_polynomial(rng, lex, 2)]
        for other in (same, larger):
            cases.append((gens, rng.choice([lex, drl]), other, rng.choice([lex, drl])))
    return cases


def test_ideal_equal_does_not_depend_on_the_tables(builds):
    """`ideal_equal` gives the answer of lex bases built afresh whichever bases
    the two tables hold beforehand: none, a's only, b's only or both, one or
    two orders each.  It builds nothing when both hold a basis under one
    order; otherwise it builds one basis, under b's first order if b holds
    any, else under a's first order."""
    rng = random.Random(3041)
    orders = [Lex(), DegRevLex(), Block(DegRevLex())]
    answers = []
    for a_gens, a_ring, b_gens, b_ring in _equality_cases():
        expected = buchberger(a_gens, Lex()).elements == buchberger(b_gens, Lex()).elements
        answers.append(expected)
        for a_holds, b_holds in ((False, False), (True, False), (False, True), (True, True)):
            a = Ideal(a_ring, [g.resorted(a_ring) for g in a_gens])
            b = Ideal(b_ring, [g.resorted(b_ring) for g in b_gens])
            for ideal, holds in ((a, a_holds), (b, b_holds)):
                for order in rng.sample(orders, rng.randint(1, 2)) if holds else ():
                    ideal.groebner_basis(order)
            a_held, b_held = list(a._bases), list(b._bases)
            builds.clear()
            assert ideal_equal(a, b) == expected
            if set(a_held) & set(b_held) or a.generators == b.generators:
                assert builds == []
            elif b_held:
                assert len(builds) == 1 and list(a._bases) == a_held + b_held[:1]
            elif a_held:
                assert len(builds) == 1 and list(b._bases) == a_held[:1]
            assert ideal_equal(b, a) == expected
    assert answers.count(True) >= 6 and answers.count(False) >= 6


def test_dimension_does_not_depend_on_the_order(construction54):
    rng = random.Random(67)
    ring = PolyRing(5, ("x", "y", "z"), Lex())
    ideals = [
        Ideal(ring, [random_nonzero_polynomial(rng, ring, 3) for _ in range(rng.randint(1, 3))])
        for _ in range(12)
    ]
    ideals += [construction54.e, Ideal(construction54.ring, [construction54.g])]
    for ideal in ideals:
        assert ideal.ring.order == Lex()
        if ideal.is_unit():
            continue
        drl = ideal.ring.with_order(DegRevLex())
        assert dimension(ideal) == dimension(Ideal(drl, ideal.generators))
