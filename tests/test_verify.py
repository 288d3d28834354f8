import dataclasses
import json

import pytest

from hkforge import (
    Ideal,
    InfiniteColength,
    Lex,
    PolyRing,
    check_sandwich,
    f_difference_sequence,
    ideal_equal,
    rjj_sequence,
    sjj_sequence,
    vjj_sequence,
)
from hkforge.groebner import certify_groebner
from hkforge.ideals import _saturate_variable
from hkforge.verify import (
    PreconditionError,
    _within_line,
    build_construction,
    construction_basis,
    verify_construction,
    verify_katzman,
)

from helpers import aux_saturation_basis


# -- construction data ---------------------------------------------------------

def test_build_sets_up_the_family():
    data = build_construction(5, 4)
    assert data.n == 9
    assert len(data.f) == 7  # indices j = 2..n-1
    assert len(data.b.generators) == 12  # monomials of degree n+2
    assert data.ring.variables == ("s", "x", "y")


def test_build_accepts_p3_m4():
    data = build_construction(3, 4)
    assert data.p == 3 and data.m == 4


@pytest.mark.parametrize(
    "p,m,why",
    [
        (3, 6, "divides"),
        (2, 5, "odd"),
        (5, 3, "m = 3 < 4"),
        (9, 4, "prime"),
    ],
)
def test_build_rejects_bad_parameters(p, m, why):
    with pytest.raises(PreconditionError):
        build_construction(p, m)


def test_f_signs_alternate():
    data = build_construction(3, 4)
    x, y = data.ring.gen("x"), data.ring.gen("y")
    expected = data.ring.zero()
    for j in range(2, data.n):
        expected = expected + ((-1) ** j) * x ** (data.n + 1 - j) * y**j
    assert data.f == expected


def test_descent_congruence_modulo_g():
    """x^3 y == s x^2 y^2 - (s - 1) x y^3 (mod g): the rewrite that pushes
    b = (x, y)^(n+2) into e one monomial at a time."""
    data = build_construction(5, 4)
    s, x, y = data.ring.gens()
    difference = x**3 * y - (s * x**2 * y**2 - (s - 1) * x * y**3)
    assert difference == data.g
    assert Ideal(data.ring, [data.g]).contains(difference)


def test_telescoping_identity_modulo_g():
    """s(f - x y^n) == x^n y - x y^n (mod g): the telescoping product that
    yields s*f in e."""
    data = build_construction(5, 4)
    s, x, y = data.ring.gens()
    n = data.n
    lhs = s * (data.f - x * y**n)
    rhs = x**n * y - x * y**n
    assert Ideal(data.ring, [data.g]).contains(lhs - rhs)


# -- the seven claims ---------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(5, 4), (3, 4)])
def test_construction_claims_all_pass(p, m):
    report = verify_construction(p, m)
    assert report.ok, report.to_json()
    assert len(report.claims) == 8  # seven claims plus the explicit-basis check
    by_label = {claim.label: claim for claim in report.claims}
    assert by_label["7: len Gamma_m(A/e) = 1"].passed
    assert "computed length 1" in by_label["7: len Gamma_m(A/e) = 1"].detail


def test_explicit_basis_matches_computed_leads():
    data = build_construction(5, 4)
    explicit = construction_basis(data)
    assert len(explicit) == data.n
    computed = set(data.e.groebner_basis().leading_monomials())
    assert computed == {g.leading_monomial() for g in explicit}
    assert certify_groebner(explicit, data.ring.order).ok


_GRID = [(p, m) for p in (3, 5, 7) for m in (4, 5, 6, 7) if m % p != 0]


@pytest.mark.parametrize("p,m", _GRID)
def test_construction_grid(p, m):
    assert verify_construction(p, m).ok


# -- claims 5 and 6 from e's one saturation ------------------------------------------

def _s_saturation(data):
    return _saturate_variable(data.e, data.ring.variables.index("s"))


@pytest.mark.parametrize("p,m", [(3, 4), (5, 4)])
def test_line_test_refuses_an_f_inside_e(p, m):
    """With f replaced by an element of e (s*f, x*f, g or x^n), h' = e + (f')
    is e, and e : s^inf is not: the line test and `ideal_equal` both say
    no.  A multiple of f, or f plus an element of e, gives h back: both say
    yes."""
    data = build_construction(p, m)
    s, x, y = data.ring.gens()
    sat = _s_saturation(data)
    inside = [s * data.f, x * data.f, data.g, x**data.n]
    for f in inside + [2 * data.f, data.f + y**data.n]:
        expected = f not in inside
        assert _within_line(sat, data.e, f) is expected
        assert ideal_equal(sat, data.e + Ideal(data.ring, [f])) is expected


@pytest.mark.parametrize("p,m", _GRID)
def test_line_test_agrees_with_ideal_equal_on_the_grid(p, m):
    """Claim 6's decision equals `ideal_equal(sat, h)` on every grid point,
    and on other ideals and other f' with m*f' <= e it equals containment
    in e + (f')."""
    data = build_construction(p, m)
    s, x, y = data.ring.gens()
    sat = _s_saturation(data)
    assert _within_line(sat, data.e, data.f) is ideal_equal(sat, data.h) is True
    wider = sat + Ideal(data.ring, [x ** (data.n - 1)])
    for ideal in (sat, data.e, wider):
        for f in (data.f, s * data.f):
            h = data.e + Ideal(data.ring, [f])
            assert _within_line(ideal, data.e, f) is h.contains_ideal(ideal)


def _replaced(monkeypatch, fields):
    """Run `verify_construction(3, 4)` on the family with the fields that
    `fields(data)` gives replaced, counting the saturations and the
    `ideal_equal` calls it makes; returns ({claim number: passed}, counts)."""
    from hkforge import verify

    calls = {"saturate": [], "equal": 0}
    build, saturate, equal = verify.build_construction, verify._saturate_variable, verify.ideal_equal

    def saturate_counted(ideal, i):
        calls["saturate"].append(ideal)
        return saturate(ideal, i)

    def equal_counted(a, b):
        calls["equal"] += 1
        return equal(a, b)

    def build_replaced(p, m):
        data = build(p, m)
        return dataclasses.replace(data, **fields(data))

    monkeypatch.setattr(verify, "build_construction", build_replaced)
    monkeypatch.setattr(verify, "_saturate_variable", saturate_counted)
    monkeypatch.setattr(verify, "ideal_equal", equal_counted)
    passed = {claim.label.split(":")[0]: claim.passed for claim in verify_construction(3, 4).claims}
    return passed, calls


def test_claims_5_and_6_fail_when_h_is_e(monkeypatch):
    """With h = e, h's generators are not e's plus f: claim 6 falls back to
    `ideal_equal`, fails, and claim 5 then saturates h itself and fails."""
    passed, calls = _replaced(monkeypatch, lambda data: {"h": data.e})
    assert not passed["5"] and not passed["6"]
    assert all(passed[label] for label in ("1", "2", "3", "4", "7", "basis"))
    assert calls["equal"] == 1 and len(calls["saturate"]) == 2


def test_claims_5_and_6_fail_when_f_lies_in_e(monkeypatch):
    """With f replaced by s*f, which lies in e, h = e + (s*f) is e: claims 2
    and 3 still hold, so claim 6 takes the line test and fails without
    `ideal_equal`, and claim 5 saturates h itself and fails."""

    def fields(data):
        f = data.ring.gen("s") * data.f
        return {"f": f, "h": data.e + Ideal(data.ring, [f])}

    passed, calls = _replaced(monkeypatch, fields)
    assert passed["2"] and passed["3"] and not passed["4"]
    assert not passed["5"] and not passed["6"]
    assert calls["equal"] == 0 and len(calls["saturate"]) == 2


def test_claim_5_follows_from_claim_6(monkeypatch):
    """On the family itself claim 6 holds, so claim 5 saturates nothing more:
    e is the one ideal saturated, and no `ideal_equal` runs."""
    passed, calls = _replaced(monkeypatch, lambda data: {})
    assert all(passed.values())
    assert calls["equal"] == 0 and len(calls["saturate"]) == 1


# -- the auxiliary elimination vector -------------------------------------------------

def test_aux_vector_generates_the_elimination_ideal():
    aux, entries = aux_saturation_basis(3, 4)
    data = build_construction(3, 4)
    t = aux.gen("t")

    def lift(f):
        return aux.polynomial({(0,) + mon: c for mon, c in f.terms})

    target = Ideal(
        aux,
        [t * lift(g) for g in data.h.generators]
        + [(aux.one() - t) * aux.gen("s")],
    )
    assert ideal_equal(Ideal(aux, entries), target)


# -- katzman ---------------------------------------------------------------------------

def test_katzman_p3_e1_all_five_checks():
    report = verify_katzman(3, 1)
    assert report.ok, report.to_json()
    assert len(report.claims) == 5
    gamma = report.claims[-1]
    assert "computed length 1" in gamma.detail


def test_katzman_rejects_even_or_small_parameters():
    with pytest.raises(PreconditionError):
        verify_katzman(2, 1)
    with pytest.raises(PreconditionError):
        verify_katzman(3, 0)


def test_katzman_respects_bracket_cap():
    from hkforge import CapExceeded

    with pytest.raises(CapExceeded):
        verify_katzman(3, 7, slow=True)


def test_katzman_e2_requires_slow_flag():
    with pytest.raises(PreconditionError):
        verify_katzman(3, 2)


def test_katzman_p3_e2_passes():
    report = verify_katzman(3, 2, slow=True)
    assert report.ok, report.to_json()


def test_katzman_p5_e1_passes():
    report = verify_katzman(5, 1)
    assert report.ok, report.to_json()


@pytest.mark.parametrize("p,e", [(7, 1), (5, 2)])
def test_katzman_larger_instances(p, e):
    """The torsion stays exactly one-dimensional out to n = p^(e+1) = 125."""
    report = verify_katzman(p, e, slow=True)
    assert report.ok, report.to_json()


def test_verify_builds_no_intersection(monkeypatch):
    """Claims 4 and iii read (I : f) = m off membership tests, and claims 6
    and 7 share one saturation by homogenization, so no claim eliminates."""
    from hkforge import ideals, lengths

    calls = []
    original = ideals.intersect
    for module in (ideals, lengths):
        monkeypatch.setattr(module, "intersect", lambda *a: calls.append(a) or original(*a))
    assert verify_construction(3, 4).ok and verify_katzman(3, 1).ok
    assert calls == []


def _katzman_pair_run(sequence, raws):
    """A run of `sequence` on (x^3, y^3) <= (x, y)^3 modulo g at p = 3, levels
    0 and 1, that checks its raw values."""

    def run() -> bool:
        ring = PolyRing(3, ("s", "x", "y"), Lex())
        s, x, y = ring.gens()
        g = x * y * (x - y) * (x + y - s * y)
        report = sequence(
            Ideal(ring, [x**3, y**3]), Ideal(ring, [x, y]) ** 3, 1, hypersurface=g
        )
        return report.raw_values() == raws

    return run


_rjj_of_katzman_pair = _katzman_pair_run(rjj_sequence, [1, 1])


def _sandwich_without_hypersurface() -> bool:
    """check_sandwich((x^2, y^2), (x, y)^2, 1) over F_3[x, y]: with no
    hypersurface, level 1 of each ladder inherits level 0's basis, so only
    level 0 builds bases."""
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    record = check_sandwich(Ideal(ring, [x**2, y**2]), Ideal(ring, [x, y]) ** 2, 1)
    return (record.lower, record.middle, record.upper) == (9, 9, 10)


def _sandwich_off_the_m_primary_case() -> bool:
    """check_sandwich((x^2, xy), (x), 1) over F_3[x, y]: J is not m-primary
    but I/J is finite, so J : m^infinity is built once, for the guard, and
    the first torsion layer of J reuses it."""
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    record = check_sandwich(Ideal(ring, [x**2, x * y]), Ideal(ring, [x]), 1)
    return (record.lower, record.middle, record.upper) == (9, 10, 10)


def _sandwich_of_katzman_pair_refused() -> bool:
    """check_sandwich on the Katzman pair modulo g at p = 3, n = 1: I/J is not
    supported at the origin (s is free), so it raises once level 0 of both
    ladders and the s-saturation of J + (g) are built."""
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    g = x * y * (x - y) * (x + y - s * y)
    with pytest.raises(InfiniteColength, match="supported at the origin"):
        check_sandwich(Ideal(ring, [x**3, y**3]), Ideal(ring, [x, y]) ** 3, 1, hypersurface=g)
    return True


@pytest.mark.parametrize(
    "run,calls",
    [
        (lambda: verify_construction(3, 4).ok, 4),
        (lambda: verify_katzman(3, 1).ok, 4),
        (_rjj_of_katzman_pair, 6),
        (_katzman_pair_run(sjj_sequence, [1, 0]), 5),
        (_katzman_pair_run(vjj_sequence, [2, 7]), 3),
        (_katzman_pair_run(f_difference_sequence, [1, 2]), 11),
        (_sandwich_without_hypersurface, 4),
        (_sandwich_off_the_m_primary_case, 7),
        (_sandwich_of_katzman_pair_refused, 4),
    ],
    ids=[
        "construction-3-4",
        "katzman-3-1",
        "rjj-katzman-3-1",
        "sjj-katzman-3-1",
        "vjj-katzman-3-1",
        "fdiff-katzman-3-1",
        "sandwich-f3-1",
        "sandwich-f3-x2-xy-1",
        "sandwich-katzman-3-1-refused",
    ],
)
def test_ideal_layer_builds_a_pinned_number_of_bases(monkeypatch, run, calls):
    """Every Groebner basis the ideal layer builds goes through
    `ideals.buchberger`; the count is deterministic, so building bases only to
    answer yes/no questions, saturating a variable that J already holds a
    power of, building a Frobenius level of a sequence twice, or saturating
    level 0 twice in a sandwich, again shows up here.  Before the sequences
    called the length cores, sjj and vjj of the Katzman pair built 8 and 4:
    the per-level re-checks J^[q] <= H^[q] and (J + m*I)^[q] <= I^[q] built
    bases of levels of H and I that no span closure reads.  Before lengths and
    membership read the degrevlex basis a saturation had built, rjj, sjj and
    fdiff of the Katzman pair built 8, 6 and 14.  Before `ideal_equal`
    compared under an order one side already held, the construction built 8:
    claim 6 built lex bases of e's saturation and of h, although h held a
    degrevlex one.  Before claim 6 read sat <= h off normal forms modulo e and
    claim 5 followed from it, the construction built 7: degrevlex bases of h,
    of h homogenized and of e's saturation; before the Katzman torsion ran
    first, so that its degrevlex basis of J^[q] + (g) answered claims ii and
    iii, the Katzman pair built 6.  Before `_saturate_variable` returned an
    ideal that no generator of involves the variable with no basis built,
    the Katzman pair built 5 (claim iv saturated (x^pq, y^pq, xy(x - y)) by
    s through a degrevlex basis and then built its lex basis) and the
    sandwich off the m-primary case built 9."""
    from hkforge import ideals

    count = [0]
    original = ideals.buchberger

    def counted(*a, **kw):
        count[0] += 1
        return original(*a, **kw)

    monkeypatch.setattr(ideals, "buchberger", counted)
    assert run()
    assert count[0] == calls


@pytest.mark.parametrize(
    "run,spairs,zeros",
    [
        (lambda: verify_construction(3, 4).ok, 28, 14),
        (_rjj_of_katzman_pair, 35, 22),
    ],
    ids=["construction-3-4", "rjj-katzman-3-1"],
)
def test_buchberger_forms_a_pinned_number_of_spairs(monkeypatch, run, spairs, zeros):
    """S-pairs formed and S-pairs that reduce to zero, over every Buchberger
    call of a run.  The counts are deterministic, so a pair criterion that
    stops pruning fails here.  Before criterion F (one pair per equal-lcm
    class, none when the class holds a coprime pair) and the early stop of the
    ideal-divisor saturation, the runs formed 833 and 270 S-pairs, of which
    647 and 210 reduced to zero; before J : v^infinity by homogenization, 579
    and 164, of which 429 and 122; before claims 5-7 of the construction left
    the colon chain, the construction formed 515, of which 382; before claim 4
    read (e : f) = m off the membership tests and claim 6 saturated e once,
    214, of which 167; before lengths read the degrevlex basis a saturation
    had built, rjj of the Katzman pair formed 83, of which 64; before claim 6
    compared e's saturation with h under the degrevlex order h held, the
    construction formed 120, of which 95; before claim 6 read sat <= h off
    normal forms modulo e and claim 5 followed from it, 101, of which 81;
    before criterion F dropped the classes that hold a pair of two single
    terms, whose S-polynomial is 0, the construction formed 54, of which 40,
    and rjj of the Katzman pair 61, of which 48."""
    from hkforge import groebner

    count = {"spairs": 0, "zeros": 0}
    spoly, reduce = groebner._spoly_terms, groebner._reduce_sorted

    def counted_spoly(*a):
        count["spairs"] += 1
        return spoly(*a)

    def counted_reduce(*a):
        rem = reduce(*a)
        count["zeros"] += not rem
        return rem

    monkeypatch.setattr(groebner, "_spoly_terms", counted_spoly)
    monkeypatch.setattr(groebner, "_reduce_sorted", counted_reduce)
    assert run()
    assert (count["spairs"], count["zeros"]) == (spairs, zeros)


def test_claim_report_json_shape():
    report = verify_construction(3, 4)
    payload = json.loads(report.to_json())
    assert payload["pass"] is True
    assert payload["target"] == "construction"
    assert payload["params"] == {"p": 3, "m": 4, "n": 9}
    assert len(payload["claims"]) == 8
