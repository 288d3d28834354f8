import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge import (
    Block,
    ContainmentError,
    DegRevLex,
    Ideal,
    Lex,
    PolyRing,
    RingMismatch,
    bracket_power,
    buchberger,
    colon_ideal,
    finite_colength_length,
    gamma_length,
    gamma_submodule,
    ideal_equal,
    intersect,
    maximal_ideal,
    oracle_quotient_dimension,
    saturate,
    subquotient_length,
    unit_ideal,
)
from hkforge import groebner, lengths, polyring
from hkforge.ideals import _saturate_variable
from hkforge.lengths import (
    _code,
    _m_saturation,
    _span_closure,
    _subquotient_length,
    count_standard_monomials,
    nilpotency_exponent,
    oracle_ideal_member,
)
from hkforge.linalg import rank_of_rows, reduce_row
from hkforge.verify import build_construction

from helpers import (
    random_monomial_ideal,
    random_polynomial,
    random_primary_pair,
    reference_row_reduce,
    reference_span_closure,
    reference_span_rows,
)


@pytest.fixture
def f5xy():
    return PolyRing(5, ("x", "y"))


# -- finite colength --------------------------------------------------------------

def test_box_count(f5xy):
    x, y = f5xy.gens()
    result = finite_colength_length(Ideal(f5xy, [x**2, y**3]))
    assert result.finite and result.value == 6
    assert result.method == "standard-monomials"


def test_bracketed_maximal_ideal_counts_q_squared(f5xy):
    for e in range(3):
        q = 5**e
        length = finite_colength_length(bracket_power(maximal_ideal(f5xy), e))
        assert length.value == q * q


def test_missing_pure_power_is_infinite():
    data = build_construction(5, 4)
    result = finite_colength_length(data.e)
    assert not result.finite
    assert result.value is None
    with pytest.raises(ValueError):
        result.expect()


def test_unit_ideal_has_length_zero(f5xy):
    assert finite_colength_length(unit_ideal(f5xy)).value == 0


def _brute_force_staircase(lms, nvars):
    """Monomials outside the monomial ideal of `lms`, counted one by one in
    the box under the least pure powers; None when some variable has none."""
    if any(not any(lm) for lm in lms):
        return 0
    bounds = []
    for i in range(nvars):
        powers = [lm[i] for lm in lms if lm[i] and not any(lm[:i] + lm[i + 1:])]
        if not powers:
            return None
        bounds.append(min(powers))
    return sum(
        not any(all(m >= e for m, e in zip(mon, lm)) for lm in lms)
        for mon in itertools.product(*map(range, bounds))
    )


def test_staircase_count_matches_brute_force():
    rng = random.Random(2024)
    for trial in range(300):
        nvars = rng.randint(1, 4)
        lms = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(0, 5))]
        # most trials get a pure power of every variable, some miss one
        for i in range(nvars):
            if rng.random() < 0.9:
                lms.append(tuple(rng.randint(1, 5) if j == i else 0 for j in range(nvars)))
        lms = [lm for lm in lms if any(lm)] if trial % 25 else lms + [(0,) * nvars]
        rng.shuffle(lms)
        assert count_standard_monomials(lms, nvars) == _brute_force_staircase(lms, nvars), lms


def test_staircase_count_of_a_huge_box_is_exact_and_fast():
    lms = [(2**14, 0, 0), (0, 2**14, 0), (0, 0, 2**12), (3, 5, 7), (0, 9000, 100)]
    start = time.perf_counter()
    count = count_standard_monomials(lms, 3)
    elapsed = time.perf_counter() - start
    outside_one = (2**14 - 3) * (2**14 - 5) * (2**12 - 7)
    # the monomials both leads cut off: x^3 y^9000 z^100 and above
    outside_both = (2**14 - 3) * (2**14 - 9000) * (2**12 - 100)
    outside_two = 2**14 * (2**14 - 9000) * (2**12 - 100)
    assert count == 2**40 - outside_one - outside_two + outside_both
    assert elapsed < 0.1


# -- the brute-force oracle ----------------------------------------------------------

def test_oracle_simple_box(f5xy):
    x, y = f5xy.gens()
    assert oracle_quotient_dimension(Ideal(f5xy, [x**2, y**3]), 10) == 6


def test_oracle_degree_zero(f5xy):
    assert oracle_quotient_dimension(maximal_ideal(f5xy), 0) == 1


def test_oracle_member_refuses_bad_arguments(f5xy):
    x, y = f5xy.gens()
    ideal = Ideal(f5xy, [x**2, y**2])
    assert oracle_ideal_member(x**2, ideal, slack=0)
    with pytest.raises(ValueError, match="slack must be non-negative, got -2"):
        oracle_ideal_member(x**2, ideal, slack=-2)


def test_oracle_member_decides_in_one_window(f5xy):
    """1 lies in (xy - 1, x^2), but only through cofactors of degree 4:
    1 = x^2 y^2 - (xy + 1)(xy - 1).  The default window, degree 3, misses it."""
    x, y = f5xy.gens()
    ideal = Ideal(f5xy, [x * y - 1, x**2])
    one = f5xy.one()
    assert [oracle_ideal_member(one, ideal, slack=k) for k in range(7)] == [False] * 4 + [True] * 3
    assert not oracle_ideal_member(one, ideal)


def test_oracle_member_refuses_a_polynomial_of_another_ring():
    """The oracle reads f's exponents as columns and its coefficients mod the
    ideal's p, so f over another ring used to get an answer: u^2 over
    F_5[u, v, w] shares a^2's column, and x^2 + 5y over F_5[x, y] is x^2."""
    ring = PolyRing(7, ("a", "b"))
    a, b = ring.gens()
    ideal = Ideal(ring, [a**2, b**2])
    u = PolyRing(5, ("u", "v", "w")).gen("u")
    x, y = PolyRing(5, ("x", "y")).gens()
    a5 = PolyRing(5, ("a", "b")).gen("a")
    for f in (u**2, x**2 + 5 * y, a5**2, PolyRing(7, ("x", "y")).gen("x") ** 2):
        with pytest.raises(RingMismatch):
            oracle_ideal_member(f, ideal)
        with pytest.raises(RingMismatch):
            ideal.contains(f)
    with pytest.raises(RingMismatch):
        oracle_ideal_member(PolyRing(5, ("a", "b")).zero(), ideal)


def test_oracle_member_answers_under_another_order():
    ring = PolyRing(7, ("a", "b"), Lex())
    a, b = ring.gens()
    ideal = Ideal(ring, [a**2 - b, b**3])
    for order in (DegRevLex(), Block(Lex())):
        c, d = ring.with_order(order).gens()
        assert oracle_ideal_member(c**2 - d, ideal)
        assert oracle_ideal_member(c**2 * d**2 + 3 * d**3, ideal)
        assert not oracle_ideal_member(c + d, ideal)


def test_oracle_stabilizes_to_box_count():
    rng = random.Random(71)
    for p in (3, 5):
        for nvars in (2, 3):
            ring = PolyRing(p, tuple("xyz"[:nvars]))
            for _ in range(5):
                ideal = random_monomial_ideal(rng, ring, max_degree=4)
                expected = finite_colength_length(ideal).expect()
                bound = 4 * nvars
                stable = oracle_quotient_dimension(ideal, bound)
                assert stable == oracle_quotient_dimension(ideal, bound + 1)
                assert stable == expected


# the least prime above 2**61
BIG_P = 2**61 + 15


def _oracle_edge_cases(ring):
    """(generators, bound, polynomials to test) for the edge cases of the
    unit columns."""
    x, y, z = ring.gens()
    return [
        # a constant generator: every column is a unit
        ([x**2, ring.one() * 3, x * y + z], 4, [x + 1, y * z]),
        # a repeated and a scaled monomial generator
        ([x**2, 3 * x**2, x**2, y**2, z**3, x * y + 2 * z**2], 5, [x * y**2, x * y + z]),
        # a zero generator
        ([ring.zero(), x**2, y * z + x], 4, [x * y * z + x * y, y * z]),
        # a generator of degree above the bound
        ([x**2, y**2, z**2, x**5 * y + z**7], 4, [x * y * z, z**2 + x * y]),
        # no monomial generator
        ([x**2 + y * z, y**2 + x * z, z**2 + x * y], 5, [x**3 + x * y * z, x * y]),
        # only monomial generators
        ([x**2, y**3, x * z, z**2], 6, [x * y + 1, y**3 * z + 2 * x * z]),
        # f's terms in unit columns: all of them, some of them, none of them
        (
            [x**3, y**2, z**3, x * y * z + 4 * z**2],
            6,
            [x**3 * y + 2 * y**2 * z, x**4 + y * z, x * z + 1, x * y * z + 4 * z**2],
        ),
    ]


def _random_oracle_case(rng, ring):
    """A crosscheck-shaped ideal, x^a, y^b, z^c and sparse forms, or one with
    some pure powers left out, at a bound up to a + b + c - 3, with random
    polynomials and random members to test."""
    x, y, z = ring.gens()
    powers = [v ** rng.randint(1, 3) for v in (x, y, z)]
    forms = [random_polynomial(rng, ring, rng.randint(1, 3), 3) for _ in range(rng.randint(1, 2))]
    gens = rng.sample(powers, rng.randint(0, 3)) + forms
    bound = rng.randint(0, 6)
    fs = [random_polynomial(rng, ring, 3, 4) for _ in range(3)]
    fs.append(sum((random_polynomial(rng, ring, 1, 2) * g for g in gens), ring.zero()))
    return gens, bound, fs


def _reference_member(f, ideal, slack):
    bound = f.total_degree() + slack
    echelon = reference_row_reduce(reference_span_rows(ideal, bound), ideal.ring.p)
    row = {_code(m, bound + 1): c for m, c in f.terms}
    return not reduce_row(row, echelon, ideal.ring.p)


@pytest.mark.parametrize("p", [3, 5, 2**31 - 1, BIG_P])
def test_oracle_agrees_with_the_full_reference_matrix(p):
    """The dimension is the number of monomials less the rank of one row per
    generator multiple, and membership is membership in that row span, with
    nothing struck."""
    rng = random.Random(29 + p % 1000)
    ring = PolyRing(p, ("x", "y", "z"), DegRevLex())
    cases = _oracle_edge_cases(ring) + [_random_oracle_case(rng, ring) for _ in range(12)]
    for gens, bound, fs in cases:
        ideal = Ideal(ring, gens)
        monomials = math.comb(bound + 3, 3)
        full = rank_of_rows(reference_span_rows(ideal, bound), p)
        assert oracle_quotient_dimension(ideal, bound) == monomials - full
        for f in fs:
            for slack in (0, 2):
                expected = f.is_zero() or _reference_member(f, ideal, slack)
                assert oracle_ideal_member(f, ideal, slack=slack) == expected


def test_oracle_edge_cases_read_as_expected():
    """The edge cases' answers, read off by hand."""
    ring = PolyRing(5, ("x", "y", "z"), DegRevLex())
    x, y, z = ring.gens()
    [constant, scaled, zero, high, _, monomial, partial] = [
        Ideal(ring, gens) for gens, _, _ in _oracle_edge_cases(ring)
    ]
    assert oracle_quotient_dimension(constant, 4) == 0
    assert oracle_ideal_member(y * z, constant, slack=0)
    # R/(x^2, y^2, z^3, xy + 2z^2) has the basis 1, x, y, z, xz, yz, z^2
    assert oracle_quotient_dimension(scaled, 5) == finite_colength_length(scaled).expect() == 7
    without_zero = Ideal(ring, [x**2, y * z + x])
    assert oracle_quotient_dimension(zero, 4) == oracle_quotient_dimension(without_zero, 4)
    assert oracle_quotient_dimension(high, 4) == 8
    assert oracle_quotient_dimension(monomial, 6) == finite_colength_length(monomial).expect()
    assert not oracle_ideal_member(x * y + 1, monomial)
    assert oracle_ideal_member(y**3 * z + 2 * x * z, monomial, slack=0)
    # all of f's terms in unit columns, some, none, and none in a member
    fs = _oracle_edge_cases(ring)[-1][2]
    assert [oracle_ideal_member(f, partial, slack=0) for f in fs] == [True, False, False, True]


def _count_calls(monkeypatch, *functions):
    """Rebind each of `functions` wherever a module of hkforge holds it, to
    a wrapper that counts its calls into the returned dict."""
    calls = {f.__name__: 0 for f in functions}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hkforge"]
    for original in functions:

        def counting(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_the_oracle_builds_no_basis_and_makes_no_normal_form(monkeypatch):
    """The oracle checks the lengths that Groebner bases give, so it must not
    reach them: no Buchberger call, no normal form, no reduction, and no
    basis left in the ideal's table.  The same counters see membership by a
    basis, so they are live."""
    ring = PolyRing(7, ("x", "y", "z"), DegRevLex())
    x, y, z = ring.gens()
    calls = _count_calls(
        monkeypatch, groebner.buchberger, polyring.normal_form, polyring._reduce_sorted
    )
    ideal = Ideal(ring, [x**3, y**2, z**3, x * y * z + 4 * z**2, x**2 - y * z])
    assert oracle_quotient_dimension(ideal, 6) == 7
    assert oracle_ideal_member(x**2 * z + 3 * x * y * z, ideal)
    assert not oracle_ideal_member(x * y, ideal)
    assert calls == dict.fromkeys(calls, 0) and ideal._bases == {}
    assert ideal.contains(x**2 * z + 3 * x * y * z)
    assert all(calls.values())


# -- gamma submodule -------------------------------------------------------------------

def test_gamma_submodule_of_construction_is_h():
    data = build_construction(5, 4)
    h = gamma_submodule(data.e, unit_ideal(data.ring))
    assert ideal_equal(h, data.h)


def test_gamma_submodule_equal_pair(f5xy):
    x, y = f5xy.gens()
    ideal = Ideal(f5xy, [x**2, y])
    assert ideal_equal(gamma_submodule(ideal, ideal), ideal)


def test_gamma_submodule_x_column(f5xy):
    """(x^2, xy) saturates to (x): iterated colon by (x, y) stabilizes there."""
    x, y = f5xy.gens()
    j_ideal = Ideal(f5xy, [x**2, x * y])
    h = gamma_submodule(j_ideal, unit_ideal(f5xy))
    assert ideal_equal(h, Ideal(f5xy, [x]))
    # iterate-the-colon oracle, no saturate() involved
    step1 = colon_ideal(j_ideal, maximal_ideal(f5xy))
    step2 = colon_ideal(step1, maximal_ideal(f5xy))
    assert ideal_equal(step1, step2)
    assert ideal_equal(step1, h)


def test_gamma_submodule_requires_containment(f5xy):
    x, y = f5xy.gens()
    with pytest.raises(ContainmentError):
        gamma_submodule(Ideal(f5xy, [x]), Ideal(f5xy, [y]))


def test_gamma_length_requires_containment_and_names_itself(f5xy):
    x, y = f5xy.gens()
    with pytest.raises(ContainmentError, match="gamma_length requires J <= I"):
        gamma_length(Ideal(f5xy, [x]), Ideal(f5xy, [y]))


def test_gamma_ignores_torsion_away_from_the_origin(f5xy):
    """Finite colength is not m-primary: the point (0, -1) carries no
    m-torsion, so only the part of R/J at the origin is measured."""
    x, y = f5xy.gens()
    one = unit_ideal(f5xy)
    assert gamma_length(Ideal(f5xy, [x, y + 1]), one).expect() == 0
    # J = (x^2, y) ∩ (x^2, y + 1); saturating drops the component at the
    # origin, and H/J is that component, of length 2
    j_ideal = Ideal(f5xy, [x**2, y * (y + 1)])
    assert ideal_equal(gamma_submodule(j_ideal, one), Ideal(f5xy, [x**2, y + 1]))
    assert gamma_length(j_ideal, one).expect() == 2


def test_gamma_fast_path_matches_saturation_route(f5xy):
    """For m-primary J the shortcut H = I must agree with the saturation formula."""
    rng = random.Random(73)
    for _ in range(5):
        j_ideal, i_ideal = random_primary_pair(rng, f5xy, max_degree=3)
        h = gamma_submodule(j_ideal, i_ideal)
        sat, _ = saturate(j_ideal, maximal_ideal(f5xy))
        assert ideal_equal(h, intersect(sat, i_ideal))


def test_m_saturation_drops_a_unit_part_that_holds_no_pure_power():
    """Over the Fermat cubic at p = 5, J = (x^5, y^5, g) holds no power of z,
    yet its z-part J : z^infinity is the unit ideal: J is m-primary, and
    `_m_saturation` says so with None."""
    ring = PolyRing(5, ("x", "y", "z"))
    x, y, z = ring.gens()
    j_ideal = Ideal(ring, [x**5, y**5, x**3 + y**3 + z**3])
    assert _m_saturation(j_ideal) is None
    chain, _ = saturate(j_ideal, maximal_ideal(ring))
    assert chain.is_unit()


@pytest.mark.parametrize("e", [0, 1])
def test_m_saturation_of_the_katzman_levels(e):
    """The Katzman levels (x^n, y^n, g) at p = 3, n = 3^(e+1), have m-torsion,
    so no part is dropped and the saturation is the colon chain's."""
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    n = 3 ** (e + 1)
    j_ideal = Ideal(ring, [x**n, y**n, x * y * (x - y) * (x + y - s * y)])
    sat = _m_saturation(j_ideal)
    chain, _ = saturate(j_ideal, maximal_ideal(ring))
    assert sat is not None and not chain.is_unit()
    assert ideal_equal(sat, chain)


def _is_pure_power(term_dict) -> bool:
    return len(term_dict) == 1 and sum(1 for e in next(iter(term_dict)) if e) == 1


_mixed_gens = st.lists(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 6), min_size=1, max_size=3
    ).filter(lambda d: not _is_pure_power(d)),
    min_size=1,
    max_size=2,
)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    mixed=_mixed_gens,
    extra=_mixed_gens,
    variables=st.permutations(range(3)),
    powers=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5)), min_size=2, max_size=2),
    unit_i=st.booleans(),
)
@pytest.mark.parametrize("held", [0, 1, 2])
@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
@pytest.mark.parametrize("p", [2, 3])
def test_gamma_submodule_matches_the_m_colon_chain(
    p, order, held, mixed, extra, variables, powers, unit_i
):
    """Saturating one variable at a time, and skipping each variable that J
    holds a pure power c*v^k of, gives the same H as the m-colon chain.
    `held` is the number of such variables; for p = 3 half the coefficients
    c are 2."""
    ring = PolyRing(p, ("s", "x", "y"), order)
    gens = ring.gens()
    pure = [
        gens[v] ** k * (1 + c % (p - 1))
        for v, (k, c) in zip(variables[:held], powers)
    ]
    j_ideal = Ideal(ring, pure + [ring.polynomial(d) for d in mixed])
    if unit_i:
        i_ideal = unit_ideal(ring)
    else:
        i_ideal = j_ideal + Ideal(ring, [ring.polynomial(d) for d in extra])
    chain, _ = saturate(j_ideal, maximal_ideal(ring))
    assert ideal_equal(gamma_submodule(j_ideal, i_ideal), intersect(chain, i_ideal))


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(
    mixed=_mixed_gens,
    extra=_mixed_gens,
    variables=st.permutations(range(3)),
    powers=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5)), min_size=2, max_size=2),
    unit_i=st.booleans(),
    off_origin=st.booleans(),
    method=st.sampled_from(["auto", "rank", "difference"]),
)
@pytest.mark.parametrize("held", [0, 1, 2])
@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
@pytest.mark.parametrize("p", [2, 3])
def test_gamma_length_matches_the_length_of_the_gamma_submodule(
    p, order, held, mixed, extra, variables, powers, unit_i, off_origin, method
):
    """len(S/J) - len((S + I)/I), S = J : m^infinity, is the whole
    LengthResult of measuring H = S ∩ I over J: value, finiteness, method and
    note.  J holds f * m for each mixed form f, so f is m-torsion mod J unless
    the pure powers already kill it.  With `off_origin` J holds
    f * m * (x, y + 1) instead, so V(J) also holds the line x = 0, y = -1 off
    the origin, as (x, y + 1) does, and f * (x, y + 1) is the torsion."""
    ring = PolyRing(p, ("s", "x", "y"), order)
    gens = ring.gens()
    _, x, y = gens
    pure = [
        gens[v] ** k * (1 + c % (p - 1))
        for v, (k, c) in zip(variables[:held], powers)
    ]
    cofactors = (x, y + 1) if off_origin else (ring.one(),)
    forms = [ring.polynomial(d) * v * u for d in mixed for v in gens for u in cofactors]
    j_ideal = Ideal(ring, pure + forms)
    if unit_i:
        i_ideal = unit_ideal(ring)
    else:
        i_ideal = j_ideal + Ideal(ring, [ring.polynomial(d) for d in extra])
    expected = subquotient_length(gamma_submodule(j_ideal, i_ideal), j_ideal, method=method)
    assert gamma_length(j_ideal, i_ideal, method=method) == expected


# -- subquotient lengths ------------------------------------------------------------------

def test_torsion_of_construction_quotient_is_one():
    data = build_construction(5, 4)
    assert subquotient_length(data.h, data.e).expect() == 1


def test_subquotient_of_equal_ideals_is_zero(f5xy):
    x, y = f5xy.gens()
    ideal = Ideal(f5xy, [x**3, y**2])
    for method in ("auto", "rank"):
        assert subquotient_length(ideal, ideal, method=method).expect() == 0


def test_x_mod_x2_xy_has_length_one(f5xy):
    x, y = f5xy.gens()
    result = subquotient_length(Ideal(f5xy, [x]), Ideal(f5xy, [x**2, x * y]), method="rank")
    assert result.expect() == 1
    assert result.method == "subquotient"


def test_rank_and_difference_methods_agree(f5xy):
    rng = random.Random(79)
    for _ in range(10):
        j_ideal, i_ideal = random_primary_pair(rng, f5xy, max_degree=3)
        by_rank = subquotient_length(i_ideal, j_ideal, method="rank").expect()
        by_diff = subquotient_length(i_ideal, j_ideal, method="difference").expect()
        assert by_rank == by_diff


def test_rank_route_reduces_each_kept_form_once_per_variable(f5xy, monkeypatch):
    """The closure makes one normal form against J's basis per generator of U
    and one per variable for each of the `length` forms it keeps, and no pass
    over a box of monomial multiples.  Counted at the division core that the
    closure's kernel calls, against the entries of J's basis."""
    reduce, tables = lengths._reduce_sorted, []

    def counting_reduce(h, table, *args):
        tables.append(table)
        return reduce(h, table, *args)

    monkeypatch.setattr(lengths, "_reduce_sorted", counting_reduce)
    rng = random.Random(79)
    for _ in range(10):
        j_ideal, i_ideal = random_primary_pair(rng, f5xy, max_degree=3)
        basis = j_ideal.groebner_basis()
        tables.clear()
        length = subquotient_length(i_ideal, j_ideal, method="rank").expect()
        entries = basis._divisors.packed(0)[1]
        made = sum(table is entries for table in tables)
        assert made == len(tables) == len(i_ideal.generators) + f5xy.nvars * length


def test_rank_and_difference_agree_off_the_origin(f5xy):
    """R/(x, y + 1) has length 1 at the point (0, -1); the rank route
    measures the whole span, as the difference route does."""
    x, y = f5xy.gens()
    j_ideal = Ideal(f5xy, [x, y + 1])
    for method in ("rank", "difference"):
        result = subquotient_length(unit_ideal(f5xy), j_ideal, method=method)
        assert result.expect() == 1


def test_rank_route_widens_its_columns_mid_closure(f5xy):
    """x * y^k outgrows 8-bit exponent fields near k = 255, so the closure
    restarts under the wider packing partway through."""
    x, y = f5xy.gens()
    result = subquotient_length(Ideal(f5xy, [x]), Ideal(f5xy, [x**2]), nilpotency_cap=300)
    assert not result.finite
    assert "infinite" in result.note
    # x * y^300 packs at 16 bits, so the normal form x of the last generator
    # arrives wider than the row x kept from the first, and must reduce to 0
    u_ideal = Ideal(f5xy, [x, y**3, x + x * y**300])
    j_ideal = Ideal(f5xy, [x**2, y**3])
    assert subquotient_length(u_ideal, j_ideal, method="rank").expect() == 3
    assert subquotient_length(u_ideal, j_ideal, method="difference").expect() == 3


def _walk_ideals(rng, ring):
    """Seeded (U, J) pairs over a ring in s, x, y: J with pure powers of x
    and y and a random form, so that some closures end and others run into
    a cap; U with J's generators and a few random forms; then the zero ideal
    and the unit ideal on either side."""
    s, x, y = ring.gens()
    pairs = []
    for _ in range(4):
        j_gens = [x ** rng.randint(1, 3), y ** rng.randint(1, 3)]
        if rng.random() < 0.5:
            j_gens.append(s ** rng.randint(1, 2))
        j_gens.append(random_polynomial(rng, ring, max_degree=3, max_terms=3))
        u_gens = j_gens + [random_polynomial(rng, ring, max_degree=2, max_terms=3) for _ in range(2)]
        pairs.append((Ideal(ring, u_gens), Ideal(ring, j_gens)))
    zero, unit = Ideal(ring, []), unit_ideal(ring)
    pairs += [(zero, zero), (unit, zero), (Ideal(ring, [x * y + s]), zero), (unit, unit)]
    return pairs


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=["lex", "degrevlex", "block"]
)
@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, BIG_P], ids=["2", "3", "2^31-1", "big"])
def test_span_closure_matches_the_polynomial_walk(p, order):
    """The packed kernel gives the length of the `Polynomial` walk of
    `reference_span_closure`, or None with it when the cap is hit, on seeded
    pairs, the zero ideal and the unit ideal."""
    rng = random.Random(f"closure:{p}:{order.describe()}")
    ring = PolyRing(p, ("s", "x", "y"), order)
    capped = 0
    for u_ideal, j_ideal in _walk_ideals(rng, ring):
        for cap in (2, 6):
            got = _span_closure(u_ideal.generators, j_ideal, cap)
            assert got == reference_span_closure(u_ideal.generators, j_ideal, cap)
            capped += got is None
    assert capped


def test_span_closure_restarts_once_at_a_wider_packing(f5xy, monkeypatch):
    """On the x * y^k data of the test above, the first closure overflows its
    8-bit fields partway and runs again from the start at 16 bits, once; the
    second starts at 16 bits, the width of its widest generator.  Both agree
    with the reference."""
    kernel, runs = lengths._closure_kernel, []

    def counting_kernel(pk, *args):
        runs.append(pk.width)
        return kernel(pk, *args)

    monkeypatch.setattr(lengths, "_closure_kernel", counting_kernel)
    x, y = f5xy.gens()
    cases = [
        (Ideal(f5xy, [x]), Ideal(f5xy, [x**2]), 300, None),
        (Ideal(f5xy, [x, y**3, x + x * y**300]), Ideal(f5xy, [x**2, y**3]), None, 3),
    ]
    widths = [[8, 16], [16]]
    for (u_ideal, j_ideal, cap, expected), width in zip(cases, widths):
        runs.clear()
        assert _span_closure(u_ideal.generators, j_ideal, cap) == expected
        assert runs == width
        assert reference_span_closure(u_ideal.generators, j_ideal, cap) == expected


def _brute_force_nilpotency(u_ideal, j_ideal, cap):
    """Least n <= cap with every monomial of degree n times every generator
    of U in J, or None."""
    nvars = j_ideal.ring.nvars
    for n in range(cap + 1):
        mons = [
            tuple(combo.count(i) for i in range(nvars))
            for combo in itertools.combinations_with_replacement(range(nvars), n)
        ]
        if all(j_ideal.contains(u.mul_term(mon, 1)) for u in u_ideal.generators for mon in mons):
            return n
    return None


def test_nilpotency_exponent_matches_the_monomial_definition(f5xy):
    x, y = f5xy.gens()
    ring3 = PolyRing(3, ("x", "y", "z"))
    a, b, c = ring3.gens()
    pairs = [
        (unit_ideal(f5xy), Ideal(f5xy, [x**2, y**3]), 4),
        (Ideal(f5xy, [x]), Ideal(f5xy, [x**2, x * y]), 1),
        (Ideal(f5xy, [x**2, y**3]), Ideal(f5xy, [x**2, y**3]), 0),
        (unit_ideal(f5xy), Ideal(f5xy, [x**2 + y**3, x * y]), 4),
        (Ideal(ring3, [a * b, c]), Ideal(ring3, [a**2, b**2, c**2, a * b * c]), 2),
        (Ideal(f5xy, [x]), Ideal(f5xy, [x**2]), None),
        (unit_ideal(f5xy), Ideal(f5xy, [x**4, y**4]), None),
    ]
    for u_ideal, j_ideal, expected in pairs:
        assert _brute_force_nilpotency(u_ideal, j_ideal, 5) == expected
        assert nilpotency_exponent(u_ideal, j_ideal, 5) == expected


def test_additivity_of_length(f5xy):
    """len(U/J) + len(R/U) == len(R/J), with len(U/J) from the rank route."""
    rng = random.Random(83)
    for _ in range(10):
        j_ideal, u_ideal = random_primary_pair(rng, f5xy, max_degree=3)
        left = subquotient_length(u_ideal, j_ideal, method="rank").expect()
        assert (
            left + finite_colength_length(u_ideal).expect()
            == finite_colength_length(j_ideal).expect()
        )


def test_subquotient_detects_possibly_infinite(f5xy):
    x, y = f5xy.gens()
    result = subquotient_length(
        Ideal(f5xy, [x]), Ideal(f5xy, [x**2]), nilpotency_cap=12
    )
    assert not result.finite
    assert "infinite" in result.note


def test_subquotient_refuses_a_negative_cap(monkeypatch):
    """A negative cap is refused before any basis is built; a cap of 0 still
    measures a length that the first level closes."""
    from hkforge import ideals

    builds = []
    buchberger = ideals.buchberger
    monkeypatch.setattr(ideals, "buchberger", lambda *a: builds.append(1) or buchberger(*a))
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    j_ideal = Ideal(ring, [x**2, y**2])
    with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
        subquotient_length(j_ideal, j_ideal, method="rank", nilpotency_cap=-1)
    assert builds == []
    assert subquotient_length(j_ideal, j_ideal, method="rank", nilpotency_cap=0).expect() == 0


def test_subquotient_requires_containment(f5xy):
    x, y = f5xy.gens()
    with pytest.raises(ContainmentError):
        subquotient_length(Ideal(f5xy, [x**2]), Ideal(f5xy, [y]))


# -- gamma length ---------------------------------------------------------------------------

def test_gamma_length_of_construction():
    data = build_construction(5, 4)
    assert gamma_length(data.e, unit_ideal(data.ring)).expect() == 1


def test_gamma_length_equal_pair_is_zero(f5xy):
    ideal = Ideal(f5xy, [f5xy.gen("x")])
    assert gamma_length(ideal, ideal).expect() == 0


def test_gamma_length_katzman_level_one():
    p = 3
    ring = PolyRing(p, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    g = Ideal(ring, [x * y * (x - y) * (x + y - s * y)])
    j_q = bracket_power(Ideal(ring, [x**p, y**p]), 1) + g
    i_q = bracket_power(Ideal(ring, [x, y]) ** p, 1) + g
    assert gamma_length(j_q, i_q).expect() == 1


@pytest.mark.parametrize("e", [0, 1, 2])
@pytest.mark.parametrize("shape", ["katzman", (2, 2, 3)], ids=["katzman", "k2-a2-b3"])
@pytest.mark.parametrize("p", [2, 3])
def test_lengths_and_membership_agree_on_either_basis(p, shape, e):
    """The levels J^[q] + (g) and I^[q] + (g) of J = (x^a, y^b) <= I = (x, y)^k
    over F_p[s, x, y] under lex, with (k, a, b) = (p, p, p) for the Katzman
    pair: once `_saturate_variable` has put a degrevlex basis in a level's
    table, membership and lengths read that basis, and they answer as a fresh
    ideal that builds its lex basis.  A level plus (s^2) has finite colength, so the
    standard-monomial count and the difference route are exercised too."""
    ring = PolyRing(p, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    k, a, b = (p, p, p) if shape == "katzman" else shape
    q, n = p**e, p ** (e + 1)
    g = Ideal(ring, [x * y * (x - y) * (x + y - s * y)])
    j_q = bracket_power(Ideal(ring, [x**a, y**b]), e) + g
    i_q = bracket_power(Ideal(ring, [x, y]) ** k, e) + g
    z = ring.polynomial(((0, n + 1 - j, j), (-1) ** j) for j in range(2, n))
    probes = [*j_q.generators, *i_q.generators, z, s]
    probes += [x**q * y ** ((p - 1) * q) * s**t for t in range(3)]
    cut = Ideal(ring, [s**2])
    for level in (j_q, i_q, j_q + cut, i_q + cut):
        sat = _saturate_variable(level, 0)
        assert Lex() not in level._bases and DegRevLex() in level._bases
        fresh = Ideal(ring, level.generators)
        answers = [level.contains(f) for f in probes]
        assert answers == [fresh.contains(f) for f in probes]
        assert all(level.contains(f) for f in level.generators) and not all(answers)
        assert level.contains_ideal(j_q) == fresh.contains_ideal(j_q)
        assert finite_colength_length(level) == finite_colength_length(fresh)
        for method in ("auto", "rank"):
            assert _subquotient_length(sat, level, method) == _subquotient_length(sat, fresh, method)
        assert Lex() not in level._bases
        assert level.groebner_basis() == buchberger(level.generators, Lex())
        bracketed = [f.frobenius(1) for f in level.generators]
        assert bracket_power(level, 1)._bases[DegRevLex()] == buchberger(bracketed, DegRevLex())


def test_gamma_length_monotone_in_numerator(f5xy):
    rng = random.Random(89)
    for _ in range(8):
        j_ideal, i_ideal = random_primary_pair(rng, f5xy, max_degree=3)
        bigger = i_ideal + Ideal(f5xy, [f5xy.gen("x") ** rng.randint(1, 3)])
        small = gamma_length(j_ideal, i_ideal).expect()
        large = gamma_length(j_ideal, bigger).expect()
        assert small <= large


def test_gamma_length_primary_case_matches_oracle(f5xy):
    """m-primary J: the whole quotient is torsion, so Gamma-length equals the
    difference of oracle quotient dimensions."""
    rng = random.Random(97)
    for _ in range(6):
        j_ideal, i_ideal = random_primary_pair(rng, f5xy, max_degree=3)
        value = gamma_length(j_ideal, i_ideal, method="rank").expect()
        bound = 14
        by_oracle = oracle_quotient_dimension(j_ideal, bound) - oracle_quotient_dimension(
            i_ideal, bound
        )
        assert value == by_oracle


@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
@pytest.mark.parametrize("n", [60, 70, 200])
def test_gamma_length_needs_no_level_cap(order, n):
    """J = (s*x, x^(n+1)) <= I = (x) over F_5[s, x]: S = J : m^infinity = (x)
    and S/J = (x)/x*(s, x^n) is R/(s, x^n), so the length is n.  Its span
    closure takes n + 1 levels, more than the 64 of `subquotient_length`'s
    default cap for n = 70 and 200."""
    ring = PolyRing(5, ("s", "x"), order)
    s, x = ring.gens()
    result = gamma_length(Ideal(ring, [s * x, x ** (n + 1)]), Ideal(ring, [x]))
    assert (result.value, result.finite) == (n, True)


# -- Frobenius flatness -------------------------------------------------------------------
#
# Over A = F_p[x_1..x_d] Frobenius is flat (Kunz), so bracketing commutes with
# m-saturation and with intersection, hence with H = (J : m^infinity) ∩ I of
# Gamma_m(I/J) = H/J, and len Gamma_m(I^[p]/J^[p]) = p^d * len Gamma_m(I/J).
# These are checks on the whole stack only; the engine never uses them as a
# shortcut.

_binomials = st.lists(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 2), min_size=1, max_size=2
    ).filter(lambda d: any(any(m[:2]) for m in d)),
    min_size=1,
    max_size=2,
)


def _flat_pair(p, nvars, base, torsion, extra):
    """J = (base) + t * m for each t in `torsion`, and I = J + (torsion) +
    (extra), from monomials and binomials over F_p in the first `nvars` of
    x, y, z; each t is m-torsion modulo J."""
    ring = PolyRing(p, ("x", "y", "z")[:nvars])

    def polys(dicts):
        return [ring.polynomial({m[:nvars]: c for m, c in d.items()}) for d in dicts]

    j_ideal = Ideal(ring, polys(base) + [t * v for t in polys(torsion) for v in ring.gens()])
    return j_ideal, j_ideal + Ideal(ring, polys(torsion) + polys(extra))


def _assert_frobenius_flat(j_ideal, i_ideal):
    p, d = j_ideal.ring.p, j_ideal.ring.nvars
    sat, sat_p = _m_saturation(j_ideal), _m_saturation(bracket_power(j_ideal, 1))
    assert (sat is None) == (sat_p is None)
    if sat is not None:
        assert ideal_equal(sat_p, bracket_power(sat, 1))
    torsion = gamma_length(j_ideal, i_ideal).expect()
    assert gamma_length(bracket_power(j_ideal, 1), bracket_power(i_ideal, 1)).expect() == p**d * torsion
    assert ideal_equal(
        gamma_submodule(bracket_power(j_ideal, 1), bracket_power(i_ideal, 1)),
        bracket_power(gamma_submodule(j_ideal, i_ideal), 1),
    )
    return torsion


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(base=_binomials, torsion=_binomials, extra=_binomials)
@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_commutes_with_m_saturation_and_torsion_length(p, nvars, base, torsion, extra):
    """Monomials and binomials with coefficients 1 and 2 (at p = 2 a
    coefficient 2 drops its term)."""
    _assert_frobenius_flat(*_flat_pair(p, nvars, base, torsion, extra))


def test_frobenius_flatness_on_a_monomial_pair():
    """J = xy * m inside I = (xy) over F_3[x, y]: S = (xy), and the one
    torsion class xy becomes 3^2 of them after bracketing."""
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    j_ideal = Ideal(ring, [x**2 * y, x * y**2])
    assert ideal_equal(_m_saturation(j_ideal), Ideal(ring, [x * y]))
    assert _assert_frobenius_flat(j_ideal, Ideal(ring, [x * y])) == 1


def test_frobenius_flatness_on_a_binomial_pair():
    """J = (x^2 + yz) + (x + y) * m inside I = J + (x + y) over F_2[x, y, z]:
    two lines with an embedded point at the origin, S = (x + y, y^2 + yz),
    torsion 1, and 2^3 after bracketing."""
    ring = PolyRing(2, ("x", "y", "z"))
    x, y, z = ring.gens()
    j_ideal = Ideal(ring, [x**2 + y * z] + [(x + y) * v for v in ring.gens()])
    assert ideal_equal(_m_saturation(j_ideal), Ideal(ring, [x + y, y**2 + y * z]))
    assert _assert_frobenius_flat(j_ideal, j_ideal + Ideal(ring, [x + y])) == 1
