"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names themselves mirror the criteria.
"""

import random
import time
from fractions import Fraction

from hkforge import (
    Ideal,
    Lex,
    PolyRing,
    check_sandwich,
    finite_colength_length,
    hk_function,
    maximal_ideal,
    oracle_quotient_dimension,
    parse_session,
    rjj_sequence,
    run,
    sjj_sequence,
    subquotient_length,
    window_bound_check,
)
from hkforge.verify import verify_construction, verify_katzman

from helpers import random_monomial_ideal, random_primary_pair


def announce(line: str) -> None:
    print(line, flush=True)


# -- criterion 1 -----------------------------------------------------------------

def test_criterion_1_construction_pairs():
    """All seven claims at (3,4), (5,4), (5,6), (7,5); torsion length exactly 1;
    the explicit basis certifies.  Budget: 30 s per pair."""
    for p, m in [(3, 4), (5, 4), (5, 6), (7, 5)]:
        started = time.time()
        report = verify_construction(p, m)
        elapsed = time.time() - started
        assert report.ok, report.to_json()
        by_label = {claim.label: claim for claim in report.claims}
        assert "computed length 1" in by_label["7: len Gamma_m(A/e) = 1"].detail
        assert by_label["basis: explicit set certifies"].passed
        assert elapsed < 30, f"(p={p}, m={m}) took {elapsed:.1f}s"
    announce("ACCEPTANCE 1: PASS construction pairs (3,4) (5,4) (5,6) (7,5)")


# -- criterion 2 -----------------------------------------------------------------

def test_criterion_2_katzman_level_one():
    """z in I^[3], z not in J^[3], (J^[3]:z) = m, the monomial witness survives
    s-saturation, and the torsion length is exactly 1.  Budget: 60 s."""
    started = time.time()
    report = verify_katzman(3, 1)
    elapsed = time.time() - started
    assert report.ok, report.to_json()
    assert "computed length 1" in report.claims[-1].detail
    assert elapsed < 60, f"took {elapsed:.1f}s"
    announce("ACCEPTANCE 2: PASS katzman p=3 e=1")


def test_criterion_2_katzman_level_two_slow():
    report = verify_katzman(3, 2, slow=True)
    assert report.ok, report.to_json()
    announce("ACCEPTANCE 2 (slow): PASS katzman p=3 e=2")


# -- criterion 3 -----------------------------------------------------------------

def test_criterion_3_hilbert_kunz_exactness():
    """len(R/(x,y)^[q]) = q^2 in F_3[x,y] for e = 0..3, scaled exactly 1."""
    ring = PolyRing(3, ("x", "y"))
    report = hk_function(maximal_ideal(ring), 3, d=2)
    for entry in report.entries:
        assert entry.raw == entry.q**2
        assert entry.scaled == Fraction(1)
    announce("ACCEPTANCE 3: PASS hk((x,y)) exact over e = 0..3")


# -- criterion 4 -----------------------------------------------------------------

def test_criterion_4_sandwich_on_random_primary_pairs():
    """50 randomized m-primary pairs in F_p[x,y], p in {3, 5}, n <= 2:
    lower <= middle <= upper with exact integers, zero violations."""
    rng = random.Random(20260810)
    checked = 0
    for p in (3, 5):
        ring = PolyRing(p, ("x", "y"))
        for _ in range(25):
            j_ideal, i_ideal = random_primary_pair(rng, ring, max_degree=4)
            for n in range(3):
                record = check_sandwich(j_ideal, i_ideal, n)
                assert record.holds, (
                    f"violation at p={p}, n={n}: {record.lower}, "
                    f"{record.middle}, {record.upper}"
                )
            checked += 1
    assert checked == 50
    announce("ACCEPTANCE 4: PASS sandwich inequality on 50 random pairs, n <= 2")


# -- criterion 5 -----------------------------------------------------------------

def _stabilized_oracle(ideal: Ideal) -> int:
    bound = max(g.total_degree() for g in ideal.generators) + 1
    previous = oracle_quotient_dimension(ideal, bound)
    while True:
        bound += 1
        current = oracle_quotient_dimension(ideal, bound)
        if current == previous:
            return current
        previous = current


def test_criterion_5_oracle_equivalence():
    """finite_colength_length vs the stabilized brute-force oracle on 20
    random finite-colength ideals, and subquotient_length vs oracle-derived
    differences on finite-colength pairs."""
    rng = random.Random(424242)
    cases = 0
    for nvars, degree, count in ((2, 6, 14), (3, 4, 6)):
        ring = PolyRing(3 if nvars == 2 else 5, tuple("xyz"[:nvars]))
        for _ in range(count):
            ideal = random_monomial_ideal(rng, ring, max_degree=degree)
            assert finite_colength_length(ideal).expect() == _stabilized_oracle(ideal)
            cases += 1
    assert cases == 20

    ring = PolyRing(3, ("x", "y"))
    for _ in range(8):
        j_ideal, i_ideal = random_primary_pair(rng, ring, max_degree=3)
        expected = _stabilized_oracle(j_ideal) - _stabilized_oracle(i_ideal)
        assert subquotient_length(i_ideal, j_ideal).expect() == expected
        assert subquotient_length(i_ideal, j_ideal, method="rank").expect() == expected
    announce("ACCEPTANCE 5: PASS oracle equivalence on 20 ideals + 8 pairs")


# -- criterion 6 -----------------------------------------------------------------

def test_criterion_6_sjj_below_rjj():
    """sjj <= rjj termwise on 20 randomized pairs with e <= 2, and equality
    whenever J is m-primary."""
    rng = random.Random(606060)
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    pairs = 0
    for _ in range(10):  # m-primary: torsion is everything, so equality
        j_ideal, i_ideal = random_primary_pair(rng, ring, max_degree=3)
        s_raw = sjj_sequence(j_ideal, i_ideal, 2, d=2).raw_values()
        r_raw = rjj_sequence(j_ideal, i_ideal, 2, d=2).raw_values()
        assert s_raw == r_raw
        pairs += 1
    for _ in range(10):  # general nested pairs: inequality only
        a = rng.randint(1, 2)
        b = rng.randint(1, 2)
        j_ideal = Ideal(ring, [x ** (a + 1) * y**b])
        extra = [x**a * y**b] if rng.random() < 0.5 else [x**a, y ** (b + 1)]
        i_ideal = j_ideal + Ideal(ring, extra)
        s_raw = sjj_sequence(j_ideal, i_ideal, 2, d=2).raw_values()
        r_raw = rjj_sequence(j_ideal, i_ideal, 2, d=2).raw_values()
        assert all(s <= r for s, r in zip(s_raw, r_raw))
        pairs += 1
    assert pairs == 20
    announce("ACCEPTANCE 6: PASS sjj <= rjj on 20 pairs, e <= 2")


# -- criterion 7 -----------------------------------------------------------------

def test_criterion_7_katzman_shape_bound():
    """Raw rjj values on the Katzman pair stay <= 1 for every computed e, so
    raw/q^(d-1) is bounded over the window."""
    ring = PolyRing(3, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    g = x * y * (x - y) * (x + y - s * y)
    j_ideal = Ideal(ring, [x**3, y**3])
    i_ideal = Ideal(ring, [x, y]) ** 3
    report = rjj_sequence(j_ideal, i_ideal, 2, d=2, hypersurface=g)
    assert all(raw <= 1 for raw in report.raw_values())
    verdict = window_bound_check(report)
    assert verdict["ok"] and verdict["heuristic"]
    announce(f"ACCEPTANCE 7: PASS katzman rjj raw = {report.raw_values()} all <= 1")


# -- criterion 8 -----------------------------------------------------------------

FULL_SESSION = """\
ring p=3 vars=s,x,y order=lex;
poly G = x*y*(x-y)*(x+y-s*y);
ideal J = x^3, y^3;
ideal I = x^3, x^2*y, x*y^2, y^3;
ideal M = s, x, y;
ideal E = x^9, y^9, G;
ideal F = s, x^3, y^3;
ideal F2 = s, x^2, y^3;
gb E;
length E;
member G E;
colon E G;
saturate E M;
bracket J 1;
gamma_length J I;
seq hk F e_max=2 d=3;
seq rjj J I e_max=2 d=2 mod=G;
seq sjj J I e_max=1 d=2 mod=G;
seq vjj J I e_max=1 d=2;
seq lf J e_max=1;
seq fdiff J I e_max=1 d=2;
sandwich F F2 n=1;
verify construction p=3 m=4;
"""


def test_criterion_8_byte_identical_reruns():
    """The full command surface, run twice from scratch, emits identical bytes
    in both CSV and JSON modes."""
    for json_mode in (False, True):
        first = "\n".join(run(parse_session(FULL_SESSION), json_mode=json_mode)[0])
        second = "\n".join(run(parse_session(FULL_SESSION), json_mode=json_mode)[0])
        assert first.encode() == second.encode()
    announce("ACCEPTANCE 8: PASS byte-identical reruns (CSV and JSON modes)")
