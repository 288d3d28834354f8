import random
from fractions import Fraction

import pytest

from hkforge import (
    CapExceeded,
    ContainmentError,
    DegRevLex,
    Ideal,
    InfiniteColength,
    Lex,
    PolyRing,
    check_sandwich,
    default_scaling_exponent,
    f_difference_sequence,
    hk_function,
    lf_sequences,
    maximal_ideal,
    rjj_sequence,
    sjj_sequence,
    unit_ideal,
    vjj_sequence,
    window_bound_check,
)
from hkforge import polyring
from hkforge.lengths import oracle_quotient_dimension

from helpers import random_primary_pair


@pytest.fixture
def f3xy():
    return PolyRing(3, ("x", "y"))


def katzman_pair(p=3):
    ring = PolyRing(p, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    g = x * y * (x - y) * (x + y - s * y)
    j_ideal = Ideal(ring, [x**p, y**p])
    i_ideal = Ideal(ring, [x, y]) ** p
    return ring, g, j_ideal, i_ideal


# -- Hilbert-Kunz -----------------------------------------------------------------

def test_hk_of_maximal_ideal_is_exactly_one(f3xy):
    report = hk_function(maximal_ideal(f3xy), 3, d=2)
    for entry in report.entries:
        assert entry.raw == entry.q**2
        assert entry.scaled == Fraction(1)


def test_hk_of_rectangular_box_is_two(f3xy):
    x, y = f3xy.gens()
    report = hk_function(Ideal(f3xy, [x**2, y]), 3, d=2)
    assert all(entry.scaled == Fraction(2) for entry in report.entries)


def test_hk_squared_maximal_ideal_in_three_variables():
    ring = PolyRing(2, ("x", "y", "z"))
    report = hk_function(maximal_ideal(ring) ** 2, 2, d=3)
    assert report.raw_values() == [4, 32, 256]
    # raw_1 cross-checked against the Groebner-free oracle
    from hkforge import bracket_power

    assert oracle_quotient_dimension(bracket_power(maximal_ideal(ring) ** 2, 1), 10) == 32


def test_hk_rejects_infinite_colength():
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    with pytest.raises(InfiniteColength):
        hk_function(Ideal(ring, [x**2]), 1, d=3)


def test_hk_default_scaling_exponent(f3xy):
    report = hk_function(maximal_ideal(f3xy), 1)
    assert report.d == 2


def test_default_scaling_exponent_builds_no_basis(monkeypatch):
    """nvars with no hypersurface or g = 0, nvars - 1 for a nonconstant g
    (Krull's principal ideal theorem), and the empty variety for a nonzero
    constant g, all without a Groebner basis."""
    from hkforge import EmptyVariety, ideals

    def no_basis(*a, **kw):
        raise AssertionError("default_scaling_exponent built a Groebner basis")

    monkeypatch.setattr(ideals, "buchberger", no_basis)
    ring, g, _, _ = katzman_pair()
    assert default_scaling_exponent(ring) == 3
    assert default_scaling_exponent(ring, ring.zero()) == 3
    assert default_scaling_exponent(ring, g) == 2
    assert default_scaling_exponent(ring, ring.gens()[0] + 1) == 2
    with pytest.raises(EmptyVariety):
        default_scaling_exponent(ring, ring.constant(2))


# -- rjj ---------------------------------------------------------------------------

def test_rjj_of_equal_pair_is_zero(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, y**2])
    assert rjj_sequence(ideal, ideal, 2, d=2).raw_values() == [0, 0, 0]


def test_rjj_requires_containment(f3xy):
    x, y = f3xy.gens()
    with pytest.raises(ContainmentError):
        rjj_sequence(Ideal(f3xy, [x]), Ideal(f3xy, [y]), 1, d=2)


@pytest.mark.parametrize(
    "builder", [sjj_sequence, vjj_sequence, f_difference_sequence, check_sandwich]
)
def test_other_sequences_require_containment(f3xy, builder):
    x, y = f3xy.gens()
    with pytest.raises(ContainmentError):
        builder(Ideal(f3xy, [x]), Ideal(f3xy, [y]), 1)


_ENTRY_POINTS = {
    "hk": lambda j, i, e: hk_function(i, e),
    "rjj": rjj_sequence,
    "sjj": sjj_sequence,
    "vjj": vjj_sequence,
    "lf": lambda j, i, e: lf_sequences(i, e),
    "fdiff": f_difference_sequence,
    "sandwich": check_sandwich,
}


@pytest.mark.parametrize("kind", list(_ENTRY_POINTS))
def test_top_exponent_out_of_range_fails_before_any_basis(f3xy, monkeypatch, kind):
    """A negative e_max (n for the sandwich) and one above the bracket cap are
    refused before any Groebner basis is built."""
    from hkforge import ideals

    builds = [0]
    original = ideals.buchberger

    def counted(*a, **kw):
        builds[0] += 1
        return original(*a, **kw)

    monkeypatch.setattr(ideals, "buchberger", counted)
    monkeypatch.setenv("HKFORGE_EMAX_CAP", "1")
    x, y = f3xy.gens()
    run = _ENTRY_POINTS[kind]
    with pytest.raises(ValueError):
        run(Ideal(f3xy, [x**2, y**2]), maximal_ideal(f3xy) ** 2, -1)
    with pytest.raises(CapExceeded):
        run(Ideal(f3xy, [x**2, y**2]), maximal_ideal(f3xy) ** 2, 2)
    for cap in ("abc", "-1"):
        monkeypatch.setenv("HKFORGE_EMAX_CAP", cap)
        with pytest.raises(ValueError, match="HKFORGE_EMAX_CAP must be"):
            run(Ideal(f3xy, [x**2, y**2]), maximal_ideal(f3xy) ** 2, 1)
    assert builds[0] == 0


# the entry points that scale their raw lengths by q^d
_SCALED = {
    "hk": lambda j, i, e, **kw: hk_function(i, e, **kw),
    "rjj": rjj_sequence,
    "sjj": sjj_sequence,
    "vjj": vjj_sequence,
    "fdiff": f_difference_sequence,
}


@pytest.mark.parametrize("kind", list(_SCALED))
def test_bad_scaling_exponent_fails_before_any_basis(f3xy, monkeypatch, kind):
    """A negative d, and a constant hypersurface when d is left to default,
    are refused before any Groebner basis is built."""
    from hkforge import EmptyVariety, ideals

    builds = [0]
    original = ideals.buchberger

    def counted(*a, **kw):
        builds[0] += 1
        return original(*a, **kw)

    monkeypatch.setattr(ideals, "buchberger", counted)
    x, y = f3xy.gens()
    run = _SCALED[kind]
    j_ideal, i_ideal = Ideal(f3xy, [x**2, y**2]), maximal_ideal(f3xy) ** 2
    with pytest.raises(ValueError, match="scaling exponent d must be non-negative, got -1"):
        run(j_ideal, i_ideal, 1, d=-1)
    with pytest.raises(EmptyVariety):
        run(j_ideal, i_ideal, 1, hypersurface=f3xy.constant(2))
    assert builds[0] == 0


def test_rjj_primary_pair_equals_hk_difference(f3xy):
    rng = random.Random(101)
    for _ in range(6):
        j_ideal, i_ideal = random_primary_pair(rng, f3xy, max_degree=3)
        report = rjj_sequence(j_ideal, i_ideal, 2, d=2)
        hk_j = hk_function(j_ideal, 2, d=2)
        hk_i = hk_function(i_ideal, 2, d=2)
        assert report.raw_values() == [
            a - b for a, b in zip(hk_j.raw_values(), hk_i.raw_values())
        ]


def test_rjj_katzman_bounded_by_one():
    ring, g, j_ideal, i_ideal = katzman_pair()
    report = rjj_sequence(j_ideal, i_ideal, 2, d=2, hypersurface=g)
    assert all(raw <= 1 for raw in report.raw_values())
    assert report.raw_values() == [1, 1, 1]


def test_a_warm_seq_job_builds_no_ring(monkeypatch):
    """Every ring is one object per arguments: run again, the rjj Katzman job
    meets only rings it made the first time, so no primality test runs and
    no ring is added."""

    def job():
        ring, g, j_ideal, i_ideal = katzman_pair()
        return rjj_sequence(j_ideal, i_ideal, 2, d=2, hypersurface=g).raw_values()

    first = job()
    rings = len(PolyRing._made)
    calls = []
    monkeypatch.setattr(polyring, "is_prime", lambda n: calls.append(n) or True)
    assert job() == first == [1, 1, 1]
    assert calls == [] and len(PolyRing._made) == rings


def test_window_bound_check_on_katzman():
    ring, g, j_ideal, i_ideal = katzman_pair()
    report = rjj_sequence(j_ideal, i_ideal, 2, d=2, hypersurface=g)
    verdict = window_bound_check(report)
    assert verdict["ok"]
    assert verdict["heuristic"] is True


@pytest.mark.parametrize("sequence", [rjj_sequence, sjj_sequence], ids=["rjj", "sjj"])
@pytest.mark.parametrize("n", [60, 70, 200])
def test_torsion_sequences_need_no_level_cap(sequence, n):
    """(s*x, x^(n+1)) <= (x) over F_5[s, x]: Gamma_m((x)/J) is (x)/J, which is
    R/(s, x^n) of length n; its span closure takes n + 1 levels."""
    ring = PolyRing(5, ("s", "x"))
    s, x = ring.gens()
    report = sequence(Ideal(ring, [s * x, x ** (n + 1)]), Ideal(ring, [x]), 0)
    assert report.raw_values() == [n]


# -- sjj ----------------------------------------------------------------------------

def test_sjj_of_equal_pair_is_zero(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**3, y**3])
    assert sjj_sequence(ideal, ideal, 2, d=2).raw_values() == [0, 0, 0]


def test_sjj_at_most_rjj_and_equal_for_primary(f3xy):
    rng = random.Random(103)
    for _ in range(6):
        j_ideal, i_ideal = random_primary_pair(rng, f3xy, max_degree=3)
        s_report = sjj_sequence(j_ideal, i_ideal, 2, d=2)
        r_report = rjj_sequence(j_ideal, i_ideal, 2, d=2)
        assert all(a <= b for a, b in zip(s_report.raw_values(), r_report.raw_values()))
        # J is m-primary here, so the torsion is everything and the two agree
        assert s_report.raw_values() == r_report.raw_values()


def test_sjj_below_rjj_on_katzman():
    """A pair where the two measures genuinely differ: bracketing the torsion
    submodule kills it (sjj drops to 0) while fresh torsion keeps appearing in
    every bracketed quotient (rjj stays 1)."""
    ring, g, j_ideal, i_ideal = katzman_pair()
    s_report = sjj_sequence(j_ideal, i_ideal, 2, d=2, hypersurface=g)
    r_report = rjj_sequence(j_ideal, i_ideal, 2, d=2, hypersurface=g)
    assert all(a <= b for a, b in zip(s_report.raw_values(), r_report.raw_values()))
    assert r_report.raw_values() == [1, 1, 1]
    assert s_report.raw_values() == [1, 0, 0]


# -- vjj ----------------------------------------------------------------------------

def test_vjj_of_equal_pair_is_zero(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, y**2])
    assert vjj_sequence(ideal, ideal, 2, d=2).raw_values() == [0, 0, 0]


def test_vjj_frozen_values(f3xy):
    x, y = f3xy.gens()
    j_ideal = Ideal(f3xy, [x**2, y**2])
    i_ideal = Ideal(f3xy, [x**2, x * y, y**2])
    report = vjj_sequence(j_ideal, i_ideal, 2, d=2)
    assert report.raw_values() == [1, 9, 81]
    assert report.raw_values()[1] > 0

    j2 = Ideal(f3xy, [x])
    i2 = Ideal(f3xy, [x, y**2])
    assert vjj_sequence(j2, i2, 2, d=2).raw_values() == [1, 9, 81]


def test_vjj_katzman_to_e_max_three():
    """(x^3, y^3) <= (x, y)^3 mod g at p = 3: the first three entries are the
    e_max = 2 answer, and the fourth comes from the same span closure."""
    ring, g, j_ideal, i_ideal = katzman_pair()
    report = vjj_sequence(j_ideal, i_ideal, 3, hypersurface=g)
    assert report.raw_values() == [2, 7, 19, 55]


@pytest.mark.slow
def test_vjj_katzman_to_e_max_four():
    """The fifth entry's span closure takes more than 64 levels."""
    ring, g, j_ideal, i_ideal = katzman_pair()
    report = vjj_sequence(j_ideal, i_ideal, 4, hypersurface=g)
    assert report.raw_values() == [2, 7, 19, 55, 163]


def test_vjj_needs_no_level_cap():
    """(s*x) <= (x) over F_37[s, x]: J + m*I = (s*x, x^2), and at level e the
    quotient (x^q)/(s^q x^q, x^(2q)) is R/(s^q, x^q), of length q^2 = 1369
    at q = 37; its span closure takes 2q - 1 = 73 levels."""
    ring = PolyRing(37, ("s", "x"))
    s, x = ring.gens()
    assert vjj_sequence(Ideal(ring, [s * x]), Ideal(ring, [x]), 1).raw_values() == [1, 1369]


# -- Frobenius flatness ----------------------------------------------------------------
#
# With no hypersurface, Frobenius on F_p[x_1, ..., x_d] is flat (Kunz), so every
# sequence of a pair J <= I scales by q^d = p^(de): rjj_e = sjj_e = q^d rjj_0
# and vjj_e = q^d vjj_0.  Over F_p[x, y] one pair is m-primary and two are
# not; over F_p[x, y, z] neither is, and each runs under degrevlex and lex.
# So does the Hilbert-Kunz function of an m-primary I: hk_e = q^d hk_0.

_XYZ_PAIRS = [
    (["x^2", "x*(y + z)", "x*z^2"], ["x"], 2, 1),
    (["x^2", "x*(y^2 + z)", "x*y*z", "y^3"], ["x", "y^3"], 3, 1),
]


@pytest.mark.parametrize(
    "variables,order,j_gens,i_gens,rjj_0,vjj_0",
    [
        ("x,y", DegRevLex(), ["x^2", "x*y"], ["x"], 1, 1),
        ("x,y", DegRevLex(), ["x^3", "x*y^2", "y^3"], ["x", "y^2"], 5, 2),
        ("x,y", DegRevLex(), ["x^2*y", "x*y^2"], ["x*y"], 1, 1),
    ]
    + [("x,y,z", order, *pair) for pair in _XYZ_PAIRS for order in (DegRevLex(), Lex())],
    ids=[
        "x2-xy-in-x", "x3-xy2-y3-in-x-y2", "x2y-xy2-in-xy",
        "x2-xy+xz-xz2-in-x-degrevlex", "x2-xy+xz-xz2-in-x-lex",
        "x2-xy2+xz-xyz-y3-in-x-y3-degrevlex", "x2-xy2+xz-xyz-y3-in-x-y3-lex",
    ],
)
@pytest.mark.parametrize("p", [2, 3])
def test_sequences_scale_by_q_squared_over_a_polynomial_ring(
    p, variables, order, j_gens, i_gens, rjj_0, vjj_0
):
    ring = PolyRing(p, variables.split(","), order)

    def ideal(gens):
        return Ideal(ring, [ring.parse(g) for g in gens])

    j_ideal, i_ideal = ideal(j_gens), ideal(i_gens)
    powers = [p ** (ring.nvars * e) for e in range(3)]
    rjj = rjj_sequence(j_ideal, i_ideal, 2).raw_values()
    assert rjj == sjj_sequence(j_ideal, i_ideal, 2).raw_values()
    assert rjj == [qd * rjj_0 for qd in powers]
    assert vjj_sequence(j_ideal, i_ideal, 2).raw_values() == [qd * vjj_0 for qd in powers]


@pytest.mark.parametrize(
    "variables,gens,hk_0",
    [
        ("x,y", ["x^3", "x*y^2", "y^3"], 7),
        ("x,y", ["x^2 + y^3", "x*y"], 5),
        ("x,y,z", ["x^2 + y*z", "y^2", "z^3 + x*y"], 12),
    ],
    ids=["x3-xy2-y3", "x2+y3-xy", "x2+yz-y2-z3+xy"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_hk_scales_by_q_squared_over_a_polynomial_ring(p, variables, gens, hk_0):
    ring = PolyRing(p, variables.split(","))
    ideal = Ideal(ring, [ring.parse(g) for g in gens])
    assert hk_function(ideal, 2).raw_values() == [p ** (ring.nvars * e) * hk_0 for e in range(3)]


# -- l_e / f_e ------------------------------------------------------------------------

def test_lf_of_unit_ideal_vanishes(f3xy):
    from hkforge import unit_ideal

    l_values, f_values = lf_sequences(unit_ideal(f3xy), 3)
    assert l_values == [0, 0, 0, 0]
    assert f_values == [0, 0, 0, 0]


def test_lf_of_principal_variable_ideal():
    ring = PolyRing(5, ("x",))
    l_values, _ = lf_sequences(Ideal(ring, [ring.gen("x")]), 3)
    assert l_values == [1] + [4 * 5**e for e in range(3)]


def test_lf_of_maximal_ideal_matches_hk_differences(f3xy):
    m_ideal = maximal_ideal(f3xy)
    l_values, f_values = lf_sequences(m_ideal, 3)
    assert l_values == [1, 8, 72, 648]
    assert f_values == [1, 9, 81, 729]
    # the layers of an m-primary ideal are colength differences
    hk = hk_function(m_ideal, 3, d=2).raw_values()
    assert l_values[1:] == [b - a for a, b in zip(hk, hk[1:])]


def test_lf_layers_need_no_level_cap():
    """K = (s*x, x^(n+1)) over F_5[s, x], n = 60: l_(-1) = len Gamma_m(R/K) =
    n, and l_0 = len (s x^p, x^(n+1))/(s^p x^p, x^(p(n+1))) = p^2 n - (n + 1 - p)
    = 1444, whose span closure takes more than 64 levels."""
    ring = PolyRing(5, ("s", "x"))
    s, x = ring.gens()
    assert lf_sequences(Ideal(ring, [s * x, x**61]), 1) == ([60, 1444], [60, 1504])


# -- f-difference ------------------------------------------------------------------------

def test_fdiff_of_equal_pair_is_zero(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, y**2])
    assert f_difference_sequence(ideal, ideal, 2, d=2).raw_values() == [0, 0, 0]


def test_fdiff_bracket_pair_stays_positive(f3xy):
    """J = (x^p, y^p) against I = (x,y)^p: the scaled difference is the
    constant 3, bounded away from zero (the tight closures differ)."""
    x, y = f3xy.gens()
    j_ideal = Ideal(f3xy, [x**3, y**3])
    i_ideal = maximal_ideal(f3xy) ** 3
    report = f_difference_sequence(j_ideal, i_ideal, 2, d=2)
    assert report.raw_values() == [3, 27, 243]
    assert all(entry.scaled == Fraction(3) for entry in report.entries)


def test_fdiff_second_frozen_pair(f3xy):
    x, y = f3xy.gens()
    j_ideal = Ideal(f3xy, [x**3, y**3])
    i_ideal = Ideal(f3xy, [x**3, x**2 * y**2, y**3])
    report = f_difference_sequence(j_ideal, i_ideal, 2, d=2)
    assert report.raw_values() == [1, 9, 81]
    for n in range(3):
        assert check_sandwich(j_ideal, i_ideal, n).holds


def test_fdiff_can_go_negative(f3xy):
    """(x^2) <= (x^2, xy) has infinite-length quotient and negative differences."""
    x, y = f3xy.gens()
    report = f_difference_sequence(
        Ideal(f3xy, [x**2]), Ideal(f3xy, [x**2, x * y]), 2, d=2
    )
    assert report.raw_values() == [-1, -10, -91]
    assert report.entries[1].scaled == Fraction(-10, 9)


# -- sandwich -------------------------------------------------------------------------------

def test_sandwich_equal_pair_is_all_zero(f3xy):
    x, y = f3xy.gens()
    ideal = Ideal(f3xy, [x**2, y**2])
    record = check_sandwich(ideal, ideal, 1)
    assert (record.lower, record.middle, record.upper) == (0, 0, 0)
    assert record.holds


def test_sandwich_frozen_example(f3xy):
    x, y = f3xy.gens()
    record = check_sandwich(Ideal(f3xy, [x**2, y**2]), maximal_ideal(f3xy) ** 2, 1)
    assert (record.lower, record.middle, record.upper) == (9, 9, 10)
    assert record.holds


def test_sandwich_frozen_example_p5():
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    record = check_sandwich(
        Ideal(ring, [x**3, y**3]), Ideal(ring, [x**3, x * y**2, y**3]), 2
    )
    assert (record.lower, record.middle, record.upper) == (1250, 1250, 1302)
    assert record.holds


def test_sandwich_rejects_infinite_quotient(f3xy):
    x, y = f3xy.gens()
    with pytest.raises(InfiniteColength):
        check_sandwich(Ideal(f3xy, [x**2]), Ideal(f3xy, [x]), 1)


def test_sandwich_rejects_finite_colength_off_the_origin(f3xy):
    """J = (x, y + 1) has colength 1, but its one point is (0, -1), so
    m^n * I <= J for no n.  Reading finite colength of J as I <= J : m^infinity
    mixed the global length (lower 9) with the local one (middle 0) and
    reported holds = False."""
    x, y = f3xy.gens()
    with pytest.raises(InfiniteColength, match="supported at the origin"):
        check_sandwich(Ideal(f3xy, [x, y + 1]), unit_ideal(f3xy), 1)


# -- report formats ----------------------------------------------------------------------------

def test_csv_format_is_pinned(f3xy):
    report = hk_function(maximal_ideal(f3xy), 1, d=2)
    lines = report.to_csv().split("\n")
    assert lines[0] == "kind,e,q,raw,scaled_num,scaled_den"
    assert lines[1] == "hk,0,1,1,1,1"
    assert lines[2] == "hk,1,3,9,1,1"


def test_reports_are_deterministic(f3xy):
    x, y = f3xy.gens()
    j_ideal = Ideal(f3xy, [x**2, y**2])
    i_ideal = Ideal(f3xy, [x**2, x * y, y**2])
    a = vjj_sequence(j_ideal, i_ideal, 2, d=2)
    b = vjj_sequence(
        Ideal(f3xy, [x**2, y**2]), Ideal(f3xy, [x**2, x * y, y**2]), 2, d=2
    )
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_json_mirrors_csv_content(f3xy):
    import json

    report = hk_function(maximal_ideal(f3xy), 2, d=2)
    payload = json.loads(report.to_json())
    assert payload["kind"] == "hk"
    assert payload["p"] == 3
    assert payload["d"] == 2
    assert [entry["raw"] for entry in payload["entries"]] == report.raw_values()
    assert payload["ring"]["variables"] == ["x", "y"]
    assert "window" in payload
