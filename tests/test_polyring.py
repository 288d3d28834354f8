import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge import (
    Block,
    DegRevLex,
    DimensionError,
    Lex,
    PolyRing,
    RingMismatch,
    ZeroPolynomial,
    compare_monomials,
    division,
    normal_form,
)
from hkforge.polyring import GT, EQ, LT, MILLER_RABIN_BOUND, Packing, PrimeField, is_prime

from helpers import dict_add, dict_mul, random_nonzero_polynomial, random_polynomial

# the orders whose packed layouts the representation tests cover
FIVE_ORDERS = [
    Lex(),
    DegRevLex(),
    Lex(priority=(2, 0, 1)),
    DegRevLex(priority=(1, 2, 0)),
    Block(1, DegRevLex()),
]
ORDER_IDS = ["lex", "degrevlex", "lex-permuted", "degrevlex-permuted", "block-degrevlex"]


@pytest.fixture
def lex_sxy():
    return PolyRing(5, ("s", "x", "y"), Lex())


def construction_f(ring, n):
    s, x, y = ring.gens()
    f = ring.zero()
    for j in range(2, n):
        f = f + ((-1) ** j) * x ** (n + 1 - j) * y**j
    return f


def construction_g(ring):
    s, x, y = ring.gens()
    return x * y * (x - y) * (x + y - s * y)


# -- prime field --------------------------------------------------------------

def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_agrees_with_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(20000))


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5, 7,
    # the least to the first nine primes, and the least to the first twelve
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_accepts_large_primes():
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert PolyRing(2**61 - 1, ("x",)).p == 2**61 - 1


def test_prime_field_refuses_primes_past_the_exact_bound():
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        PrimeField(MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        PrimeField(2**89 - 1)


def test_prime_field_inverses():
    field = PrimeField(7)
    for a in range(1, 7):
        assert field.inv(a) * a % 7 == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


# -- monomial orders -----------------------------------------------------------

def test_lex_ranks_s_above_any_x_power(lex_sxy):
    order = lex_sxy.order
    s = (1, 0, 0)
    assert compare_monomials(s, (0, 2, 0), order) == GT
    assert compare_monomials(s, (0, 200, 0), order) == GT


def test_compare_reflexive(lex_sxy):
    m = (1, 2, 3)
    assert compare_monomials(m, m, lex_sxy.order) == EQ


def test_lex_compares_first_difference(lex_sxy):
    assert compare_monomials((0, 3, 1), (0, 2, 5), lex_sxy.order) == GT


def test_compare_length_mismatch():
    with pytest.raises(DimensionError):
        compare_monomials((1, 2), (1, 2, 3), Lex())


def test_degrevlex_classics():
    order = DegRevLex()
    assert compare_monomials((1, 0), (0, 1), order) == GT  # x > y
    assert compare_monomials((2, 1), (1, 2), order) == GT  # x^2 y > x y^2
    assert compare_monomials((0, 3), (2, 0), order) == GT  # degree first


def test_priority_permutes_variables():
    # priority (1, 0) reads the second variable as the biggest
    flipped = Lex(priority=(1, 0))
    assert compare_monomials((1, 0), (0, 1), flipped) == LT
    ring = PolyRing(5, ("x", "y"), flipped)
    f = ring.parse("x^3 + y")
    assert f.leading_term() == (1, (0, 1))


def test_block_order_eliminates_first_variable():
    order = Block(1, DegRevLex())
    # any positive power of the first variable beats anything without it
    assert compare_monomials((1, 0, 0), (0, 9, 9), order) == GT
    assert compare_monomials((0, 2, 1), (0, 1, 2), order) == GT


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(1, Lex()), Block(1, DegRevLex())]
)
def test_order_axioms_randomized(order):
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randint(0, 6) for _ in range(3))
        b = tuple(rng.randint(0, 6) for _ in range(3))
        c = tuple(rng.randint(0, 6) for _ in range(3))
        cmp_ab = order.compare(a, b)
        # totality with antisymmetry
        assert cmp_ab == -order.compare(b, a)
        assert (cmp_ab == EQ) == (a == b)
        # multiplicativity
        from hkforge.polyring import monomial_mul

        assert order.compare(monomial_mul(a, c), monomial_mul(b, c)) == cmp_ab
        # 1 is minimal
        one = (0, 0, 0)
        if a != one:
            assert order.compare(a, one) == GT


# -- arithmetic ----------------------------------------------------------------

def test_add_cancellation():
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    assert (x + y) + (-y) == x


def test_mul_monomials():
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    assert x * y == ring.polynomial({(1, 1): 1})


def test_scale_zero_gives_zero_polynomial():
    ring = PolyRing(5, ("x", "y"))
    f = ring.parse("x^2 + 3*y")
    assert f.scale(0).is_zero()
    assert f.scale(0).terms == ()


def test_ring_mismatch_raises():
    a = PolyRing(3, ("x", "y"))
    b = PolyRing(5, ("x", "y"))
    with pytest.raises(RingMismatch):
        a.gen("x") + b.gen("x")


def test_pow_matches_repeated_multiplication():
    ring = PolyRing(7, ("x", "y"))
    f = ring.parse("x + 2*y + 1")
    by_hand = ring.one()
    for _ in range(5):
        by_hand = by_hand * f
    assert f**5 == by_hand
    assert f**0 == ring.one()


# -- leading terms ---------------------------------------------------------------

def test_leading_term_of_variable(lex_sxy):
    x = lex_sxy.gen("x")
    assert x.leading_term() == (1, (0, 1, 0))


def test_leading_term_zero_polynomial(lex_sxy):
    with pytest.raises(ZeroPolynomial):
        lex_sxy.zero().leading_term()


def test_leading_term_of_f_is_x8y2(lex_sxy):
    f = construction_f(lex_sxy, 9)
    assert len(f) == 7  # indices j = 2..8
    assert f.leading_term() == (1, (0, 8, 2))


def test_g_expands_to_known_terms(lex_sxy):
    """Oracle expansion of x*y*(x-y)*(x+y-s*y): four terms, lead s*x^2*y^2."""
    g = construction_g(lex_sxy)
    assert g.as_dict() == {
        (1, 2, 2): 4,  # -s x^2 y^2
        (1, 1, 3): 1,  # +s x y^3
        (0, 3, 1): 1,  # +x^3 y
        (0, 1, 3): 4,  # -x y^3
    }
    assert g.leading_term() == (4, (1, 2, 2))


# -- frobenius -------------------------------------------------------------------

def test_frobenius_freshman_dream():
    ring = PolyRing(3, ("x", "y"))
    x, y = ring.gens()
    assert (x + y).frobenius(1) == x**3 + y**3


def test_frobenius_identity_at_zero():
    ring = PolyRing(3, ("x", "y"))
    f = ring.parse("x^2*y + 2*x")
    assert f.frobenius(0) == f


def test_frobenius_matches_repeated_multiplication():
    rng = random.Random(11)
    for p in (3, 5):
        ring = PolyRing(p, ("x", "y"))
        for _ in range(10):
            f = random_polynomial(rng, ring, max_degree=3)
            q = p**1
            assert f.frobenius(1) == f**q
        f = random_polynomial(rng, ring, max_degree=2)
        assert f.frobenius(2) == f ** (p**2)


def test_frobenius_is_a_ring_map():
    rng = random.Random(13)
    ring = PolyRing(3, ("x", "y", "z"))
    for _ in range(20):
        f = random_polynomial(rng, ring)
        g = random_polynomial(rng, ring)
        assert (f * g).frobenius(1) == f.frobenius(1) * g.frobenius(1)
        assert (f + g).frobenius(1) == f.frobenius(1) + g.frobenius(1)


# -- division ----------------------------------------------------------------------

def test_normal_form_of_divisor_is_zero(lex_sxy):
    g = construction_g(lex_sxy)
    assert normal_form(g, [g]).is_zero()


def test_normal_form_monomial_divisibility():
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    assert normal_form(x**2 * y, [x * y]).is_zero()


def test_normal_form_idempotent_randomized():
    rng = random.Random(17)
    ring = PolyRing(3, ("x", "y"))
    for _ in range(25):
        f = random_polynomial(rng, ring)
        divisors = [random_nonzero_polynomial(rng, ring) for _ in range(2)]
        r = normal_form(f, divisors)
        assert normal_form(r, divisors) == r


def test_division_is_an_exact_certificate():
    # the ring stays lex: quotients and remainder come back in the ring's order
    rng = random.Random(19)
    ring = PolyRing(5, ("x", "y"), Lex())
    orders = [
        Lex(),
        DegRevLex(),
        Block(1, DegRevLex()),
        Lex(priority=(1, 0)),
        DegRevLex(priority=(1, 0)),
    ]
    for order in orders * 5:
        f = random_polynomial(rng, ring, max_degree=5)
        divisors = [random_nonzero_polynomial(rng, ring) for _ in range(3)]
        quotients, remainder = division(f, divisors, order)
        recombined = remainder
        for q, g in zip(quotients, divisors):
            recombined = recombined + q * g
        assert recombined == f
        if not f.is_zero():
            f_key = order.key(f.leading_monomial(order))
            for q, g in zip(quotients, divisors):
                if not q.is_zero():
                    assert order.key((q * g).leading_monomial(order)) <= f_key
        # no remainder term reducible
        for mon, _ in remainder.terms:
            for g in divisors:
                from hkforge.polyring import monomial_divides

                assert not monomial_divides(g.leading_monomial(order), mon)


# -- text syntax ---------------------------------------------------------------------

def test_parse_term_syntax(lex_sxy):
    f = lex_sxy.parse("3*s^2*x*y^4")
    assert f.as_dict() == {(2, 1, 4): 3}


def test_parse_products_and_signs(lex_sxy):
    g = lex_sxy.parse("x*y*(x-y)*(x+y-s*y)")
    assert g == construction_g(lex_sxy)
    assert lex_sxy.parse("-x + -2") == -lex_sxy.gen("x") - 2


def test_parse_unknown_name(lex_sxy):
    with pytest.raises(ValueError):
        lex_sxy.parse("x + w")


def test_parse_trailing_garbage(lex_sxy):
    with pytest.raises(ValueError):
        lex_sxy.parse("x + y)")


def test_print_parse_round_trip():
    rng = random.Random(23)
    ring = PolyRing(7, ("a", "b", "c"))
    for _ in range(30):
        f = random_polynomial(rng, ring, max_degree=5)
        assert ring.parse(str(f)) == f
    assert str(ring.zero()) == "0"
    assert ring.parse("0").is_zero()


# -- exponent vectors at the public entries ---------------------------------------

def test_monomial_refuses_negative_exponents():
    ring = PolyRing(5, ("x", "y"))
    with pytest.raises(ValueError):
        ring.monomial(-1, 2)
    with pytest.raises(DimensionError):
        ring.monomial(1)


def test_mul_term_refuses_bad_exponent_vectors():
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(DimensionError):
        (x + y).mul_term((1,), 1)
    with pytest.raises(DimensionError):
        (x + y).mul_term((1, 0, 0), 1)
    with pytest.raises(ValueError):
        (x + 1).mul_term((0, -1), 1)


# -- the packed representation --------------------------------------------------

@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("order", FIVE_ORDERS, ids=ORDER_IDS)
def test_elimination_variable_sits_above_the_order_fields(order, width):
    """In Block(1, O) a t-free monomial packs to the same int as in O."""
    rng = random.Random(11)
    inner = Packing(order, 3, width)
    outer = Packing(Block(1, order), 4, width)
    for _ in range(50):
        mon = tuple(rng.randint(0, 60) for _ in range(3))
        assert outer.pack((0,) + mon) == inner.pack(mon)


@pytest.mark.parametrize("order", FIVE_ORDERS, ids=ORDER_IDS)
def test_rebase_moves_between_a_ring_and_its_elimination_extension(order):
    rng = random.Random(12)
    ring = PolyRing(7, ("x", "y", "z"), order)
    aux = PolyRing(7, ("t", "x", "y", "z"), Block(1, order))
    t = aux.gen("t")
    for _ in range(20):
        f = random_polynomial(rng, ring, max_degree=70, max_terms=5)
        lifted = aux.rebase(f)
        assert lifted == aux.polynomial({(0,) + m: c for m, c in f.terms})
        keys = [aux.order.key(m) for m, _ in lifted.terms]
        assert keys == sorted(keys, reverse=True)
        assert ring.rebase(lifted) == f
        if not f.is_zero():
            with pytest.raises(ValueError):
                ring.rebase(lifted * t + 1)


def test_rebase_needs_the_same_layout():
    lex = PolyRing(7, ("x", "y"), Lex())
    # lex on (t, x, y) is block(1; lex), as `verify.aux_saturation_basis` uses
    assert lex.rebase(PolyRing(7, ("t", "x", "y"), Lex()).rebase(lex.gen("x"))) == lex.gen("x")
    ring = PolyRing(7, ("x", "y"), DegRevLex())
    x, y = ring.gens()
    for aux in (
        PolyRing(7, ("t", "x", "y"), DegRevLex()),
        PolyRing(7, ("x", "y", "t"), Block(1, DegRevLex())),
        PolyRing(11, ("t", "x", "y"), Block(1, DegRevLex())),
        PolyRing(7, ("t", "u", "x", "y"), Block(2, DegRevLex())),
    ):
        with pytest.raises(RingMismatch):
            aux.rebase(x + y)


def _assert_canonical(f, reference: dict):
    """f holds exactly `reference`, packed descending under its ring's order."""
    assert f.as_dict() == reference
    keys = [f.ring.order.key(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    assert [m for m, _ in f.packed] == sorted({m for m, _ in f.packed}, reverse=True)
    assert all(0 < c < f.ring.p for _, c in f.packed)
    assert f == f.ring.polynomial(reference)
    assert hash(f) == hash(f.ring.polynomial(reference))


_exponents = st.tuples(*[st.integers(0, 40)] * 3) | st.tuples(*[st.integers(0, 400)] * 3)
_dicts = st.dictionaries(_exponents, st.integers(1, 6), max_size=4)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    a=_dicts,
    b=_dicts,
    mon=st.tuples(*[st.integers(0, 90)] * 3) | _exponents,
    c=st.integers(0, 7),
    k=st.integers(1, 4),
)
@pytest.mark.parametrize("order", FIVE_ORDERS, ids=ORDER_IDS)
def test_packed_arithmetic_matches_the_dict_reference(order, a, b, mon, c, k):
    """Sum, difference, product, scaling, term shift, Frobenius and moving
    between orders agree with plain dicts of exponent tuples, also for
    operands packed at different widths and products that must widen."""
    p = 7
    ring = PolyRing(p, ("x", "y", "z"), order)
    other = PolyRing(p, ring.variables, FIVE_ORDERS[FIVE_ORDERS.index(order) - 1])
    f, g = ring.polynomial(a), ring.polynomial(b)
    _assert_canonical(f + g, dict_add(a, b, p))
    _assert_canonical(f - g, dict_add(a, b, p, -1))
    _assert_canonical(f + other.polynomial(b), dict_add(a, b, p))
    product = dict_mul(a, b, p)
    _assert_canonical(f * g, product)
    power = {(0, 0, 0): 1}
    for _ in range(k):
        power = dict_mul(power, product, p)
    _assert_canonical((f * g) ** k, power)
    _assert_canonical(f.scale(c), {m: v * c % p for m, v in a.items() if v * c % p})
    shifted = {tuple(x + y for x, y in zip(m, mon)): v * c % p for m, v in a.items()}
    _assert_canonical(f.mul_term(mon, c), {m: v for m, v in shifted.items() if v})
    # edge^4 fills its width-8 fields to 252, so most products with it widen
    edge = ring.polynomial({(63, 0, 0): 1, (0, 0, 63): 2})
    edge4 = {(0, 0, 0): 1}
    for _ in range(4):
        edge4 = dict_mul(edge4, edge.as_dict(), p)
    assert (edge**4).packing.width == 8
    _assert_canonical(f * edge**4, dict_mul(a, edge4, p))
    shifted = {tuple(x + y for x, y in zip(m, mon)): v * c % p for m, v in edge4.items()}
    _assert_canonical((edge**4).mul_term(mon, c), {m: v for m, v in shifted.items() if v})
    _assert_canonical(f.frobenius(1), {tuple(p * x for x in m): v for m, v in a.items()})
    moved = f.resorted(other)
    _assert_canonical(moved, a)
    assert moved == f and hash(moved) == hash(f)
    assert (f + g) - g == f and hash((f + g) - g) == hash(f)


def test_lex_product_past_its_width_divides_under_degrevlex():
    """Lex packs no degree field, so x^126 y^126 z^63 fits its width-8
    fields; under degrevlex its degree 315 does not, so dividing there must
    repack wider rather than garble the degree field."""
    lex = PolyRing(5, ("x", "y", "z"), Lex())
    x, y, z = lex.gens()
    f = x**63 * y**63 * x**63 * y**63 * z**63 + 2 * y
    assert f.packing.width == 8
    g = x**50 - z
    quotients, remainder = division(f, [g], DegRevLex())
    assert quotients[0] * g + remainder == f
    grevlex = PolyRing(5, lex.variables, DegRevLex())
    assert remainder == normal_form(f.resorted(grevlex), [g.resorted(grevlex)])
    assert remainder == x**26 * y**126 * z**65 + 2 * y
