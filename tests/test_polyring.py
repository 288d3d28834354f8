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
    division,
    normal_form,
)
from hkforge.groebner import buchberger
from hkforge.ideals import _next_level
from hkforge.polyring import (
    EQ,
    GT,
    MILLER_RABIN_BOUND,
    DivisorTable,
    ExpressionError,
    Polynomial,
    _Overflow,
    _reduce_sorted,
    is_prime,
    monomial_div,
    packing_for,
    packing_width,
)

from helpers import (
    dict_add,
    dict_mul,
    random_monomial,
    random_nonzero_polynomial,
    random_polynomial,
    reference_reduce_sorted,
)

# the orders whose packed layouts the representation tests cover
FIVE_ORDERS = [
    Lex(),
    DegRevLex(),
    Block(Lex()),
    Block(Block(DegRevLex())),
    Block(DegRevLex()),
]
ORDER_IDS = ["lex", "degrevlex", "block-lex", "block-block-degrevlex", "block-degrevlex"]


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
        with pytest.raises(ValueError, match=f"p must be prime, got {bad}"):
            PolyRing(bad, ("x",))


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
        PolyRing(MILLER_RABIN_BOUND, ("x",))
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        PolyRing(2**89 - 1, ("x",))


# -- monomial orders -----------------------------------------------------------

def test_lex_ranks_s_above_any_x_power(lex_sxy):
    order = lex_sxy.order
    s = (1, 0, 0)
    assert order.compare(s, (0, 2, 0)) == GT
    assert order.compare(s, (0, 200, 0)) == GT


def test_compare_reflexive(lex_sxy):
    m = (1, 2, 3)
    assert lex_sxy.order.compare(m, m) == EQ


def test_lex_compares_first_difference(lex_sxy):
    assert lex_sxy.order.compare((0, 3, 1), (0, 2, 5)) == GT


def test_compare_length_mismatch():
    with pytest.raises(DimensionError):
        Lex().compare((1, 2), (1, 2, 3))


def test_degrevlex_classics():
    order = DegRevLex()
    assert order.compare((1, 0), (0, 1)) == GT  # x > y
    assert order.compare((2, 1), (1, 2)) == GT  # x^2 y > x y^2
    assert order.compare((0, 3), (2, 0)) == GT  # degree first


def test_block_order_eliminates_first_variable():
    order = Block(DegRevLex())
    # any positive power of the first variable beats anything without it
    assert order.compare((1, 0, 0), (0, 9, 9)) == GT
    assert order.compare((0, 2, 1), (0, 1, 2)) == GT


def test_each_order_is_one_object():
    """A constructor called again returns the same object, so `==` and `hash`
    are identity's: for orders, for rings and for packings."""
    assert Lex() is Lex() and DegRevLex() is DegRevLex()
    assert Block(Block(DegRevLex())) is Block(Block(DegRevLex()))
    assert Block(Lex()) != Lex() and Block(Lex()) != Block(DegRevLex())
    xs = ("s", "x", "y")
    for order in (None, Lex(), DegRevLex(), Block(Lex()), Block(Block(DegRevLex()))):
        ring = PolyRing(3, xs, order)
        assert ring is PolyRing(3, ["s", "x", "y"], order)
        for other in (Lex(), DegRevLex(), Block(Lex())):
            assert ring.with_order(other) is PolyRing(ring.p, ring.variables, other)
    assert PolyRing(3, xs) is PolyRing(3, xs, DegRevLex())
    assert PolyRing(3, ("x", "y"), Lex()) != PolyRing(3, ("x", "y"), Block(Lex()))
    for order in FIVE_ORDERS:
        for nvars, width in ((3, 8), (4, 16)):
            assert packing_for(order, nvars, width) is packing_for(order, nvars, width)


@pytest.mark.parametrize(
    "p, variables",
    [(4, ("x",)), (1, ("x",)), (5, ("x", "y", "x")), (5, ())],
    ids=["composite", "one", "repeated", "empty"],
)
def test_a_refused_ring_is_never_kept(p, variables):
    """A refused ring is refused on every call, not only the first, and a
    valid ring built afterwards works."""
    for _ in range(3):
        with pytest.raises(ValueError):
            PolyRing(p, variables)
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    assert (x + y) ** 5 == x**5 + y**5


def test_gen_refuses_a_name_the_ring_lacks():
    """A name outside the ring is a ValueError that names its variables."""
    ring = PolyRing(5, ("x", "y"))
    with pytest.raises(ValueError, match=r"no variable 'z'; the ring's variables are \('x', 'y'\)"):
        ring.gen("z")
    assert ring.gen("y") == ring.monomial(0, 1)


@pytest.mark.parametrize(
    "order", [Lex(), DegRevLex(), Block(Lex()), Block(DegRevLex())]
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
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert order.compare(ac, bc) == cmp_ab
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
    assert dict(g.terms) == {
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


@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
@pytest.mark.parametrize("p, d", [(3, 41), (5, 15), (3, 8000), (2, 63), (7, 9)])
def test_frobenius_widens_at_a_width_boundary(order, p, d):
    """x^(d-1)*y + 1 packs at packing_width(d); its Frobenius has degree p*d,
    which crosses into the next width in all but the last case.  The scaled
    ints must pack at packing_width(p*d) and equal the tuple route."""
    ring = PolyRing(p, ("x", "y"), order)
    f = ring.polynomial({(d - 1, 1): 1, (0, 0): 1})
    frob = f.frobenius(1)
    assert frob.packing.width == packing_width(p * d)
    assert frob == ring.polynomial({(p * (d - 1), p): 1, (0, 0): 1})
    assert frob.packed == frob.packing.pack_terms(frob.terms)
    assert frob.total_degree() == p * d


@pytest.mark.parametrize("order", [Lex(), DegRevLex()], ids=["lex", "degrevlex"])
def test_bracketed_basis_is_the_basis_of_the_bracketed_generators(order):
    rng = random.Random(17)
    for p in (2, 3, 5):
        ring = PolyRing(p, ("x", "y", "z"), order)
        for _ in range(4):
            gens = [random_nonzero_polynomial(rng, ring, max_degree=3) for _ in range(3)]
            basis = buchberger(gens)
            for e in (1, 2):
                bracketed = buchberger([g.frobenius(e) for g in gens])
                assert basis.frobenius(e).elements == bracketed.elements


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
    # drawn over lex, then divided under each order in the lex ring taken there
    rng = random.Random(19)
    lex = PolyRing(5, ("x", "y"), Lex())
    orders = [
        Lex(),
        DegRevLex(),
        Block(DegRevLex()),
    ]
    for order in orders * 5:
        ring = lex.with_order(order)
        f = random_polynomial(rng, lex, max_degree=5).resorted(ring)
        divisors = [random_nonzero_polynomial(rng, lex).resorted(ring) for _ in range(3)]
        quotients, remainder = division(f, divisors)
        recombined = remainder
        for q, g in zip(quotients, divisors):
            recombined = recombined + q * g
        assert recombined == f
        if not f.is_zero():
            f_key = order.key(f.leading_monomial())
            for q, g in zip(quotients, divisors):
                if not q.is_zero():
                    assert order.key((q * g).leading_monomial()) <= f_key
        # no remainder term reducible
        for mon, _ in remainder.terms:
            for g in divisors:
                assert monomial_div(mon, g.leading_monomial()) is None


def test_division_by_a_table_matches_the_list():
    """One `DivisorTable` serves a narrow dividend, a dividend that forces it
    wider, and the narrow one again, with the quotients and remainder of a
    fresh list each time; a dividend of another order moves into the table's
    ring."""
    lex = PolyRing(5, ("x", "y"), Lex())
    x, y = lex.gens()
    divisors = [x**2 - y, x * y - 1, y**3 + 2 * x]
    table = DivisorTable(divisors)
    narrow = 3 * x**4 * y + x**3 - y**5 + 1
    wide = x**300 * y**2 + 4 * x * y**7
    assert narrow.packing.width < wide.packing.width
    for f in (narrow, wide, narrow):
        quotients, remainder = division(f, table)
        assert (quotients, remainder) == division(f, divisors)
        assert normal_form(f, table) == remainder
    assert remainder.packing.width == wide.packing.width
    grevlex = lex.with_order(DegRevLex())
    quotients, remainder = division(narrow.resorted(grevlex), table)
    assert remainder.ring == lex
    assert (quotients, remainder) == division(narrow, divisors)


@pytest.mark.parametrize("order", [Lex(), DegRevLex(), Block(DegRevLex())], ids=lambda o: o.describe())
@pytest.mark.parametrize("width", [8, 32])
def test_single_term_divisors_match_the_merge_loop(order, width):
    """The core cancels a term against a single-term divisor in place; its
    quotients and remainder equal the merge-only loop's, on tables that mix
    scaled single terms with longer divisors, listed in random order."""
    rng = random.Random(67 + width)
    ring = PolyRing(7, ("s", "x", "y"), order)
    pk = packing_for(order, 3, width)

    def packed(f):
        return pk.repack(f.packed, f.packing)

    steps = 0
    for _ in range(40):
        divisors = [
            ring.polynomial({random_monomial(rng, ring, 3): rng.randint(1, 6)})
            for _ in range(rng.randint(1, 3))
        ]
        divisors += [
            random_nonzero_polynomial(rng, ring, max_degree=3, max_terms=4)
            for _ in range(rng.randint(0, 3))
        ]
        rng.shuffle(divisors)
        table = [pk.reducer(packed(g), pow(g.leading_term()[0], -1, ring.p)) for g in divisors]
        for _ in range(4):
            f = random_polynomial(rng, ring, max_degree=6, max_terms=8)
            quotients = [{} for _ in table]
            expected = [{} for _ in table]
            remainder = _reduce_sorted(packed(f), table, pk, ring.p, quotients)
            assert remainder == reference_reduce_sorted(packed(f), table, pk, ring.p, expected)
            assert quotients == expected
            assert _reduce_sorted(packed(f), table, pk, ring.p) == remainder
            steps += sum(map(len, quotients))
    assert steps > 200


def test_a_table_holding_zero_refuses_to_divide():
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.gens()
    table = DivisorTable([x - y, ring.zero()])
    with pytest.raises(ZeroPolynomial):
        division(x**2, table)
    with pytest.raises(ZeroPolynomial):
        normal_form(x**2, table)


# -- text syntax ---------------------------------------------------------------------

def test_parse_term_syntax(lex_sxy):
    f = lex_sxy.parse("3*s^2*x*y^4")
    assert dict(f.terms) == {(2, 1, 4): 3}
    # a comment on the last line, with no newline after it
    assert lex_sxy.parse("3*s^2*x*y^4  # the lead") == f


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


def test_parse_refuses_non_ascii_digits(lex_sxy):
    """A superscript is a digit to `str.isdigit` but no integer here."""
    with pytest.raises(ExpressionError) as info:
        lex_sxy.parse("x^\u00b2")
    assert info.value.offset == 2
    with pytest.raises(ExpressionError) as info:
        lex_sxy.parse("x^\u0661\u0662")
    assert info.value.offset == 2


def test_parse_refuses_deep_nesting_at_an_offset(lex_sxy):
    """Parentheses and unary minus nest to a fixed bound: 50 deep parses, and
    3000 deep is an `ExpressionError` at the first token past the bound, not
    a `RecursionError`."""
    x = lex_sxy.gen("x")
    assert lex_sxy.parse("(" * 50 + "x" + ")" * 50) == x
    assert lex_sxy.parse("-" * 50 + "x") == x
    assert lex_sxy.parse("-(" * 50 + "x" + ")" * 50) == x
    with pytest.raises(ExpressionError) as info:
        lex_sxy.parse("(" * 3000 + "x" + ")" * 3000)
    assert info.value.offset == 100
    with pytest.raises(ExpressionError) as info:
        lex_sxy.parse("-" * 3000 + "x")
    assert info.value.offset == 101  # the leading sign is no nesting


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


@pytest.mark.parametrize("order", FIVE_ORDERS, ids=ORDER_IDS)
def test_next_level_matches_reduced_products_by_variables(order):
    """`ideals._next_level` at 8 and 16 bits gives, form by form and
    variable by variable, the normal form by `GroebnerBasis.reduce` of the
    product by `Polynomial.__mul__`, and raises `_Overflow` instead of
    forming a shift that would not fit its fields."""
    rng = random.Random(f"level:{order.describe()}")
    ring = PolyRing(7, ("x", "y", "z"), order)
    x, y, z = ring.gens()
    basis = buchberger([x**3 - y * z, y**2 * z + 2 * x, z**3 + x * y + 1], order)
    variables = [2, 0, 1]
    for width in (8, 16):
        pk, entries = DivisorTable(basis.elements).packed(width)
        assert pk.width == width
        forms = [random_nonzero_polynomial(rng, ring, max_degree=5, max_terms=5) for _ in range(6)]
        packed = [pk.repack(f.packed, f.packing) for f in forms]
        level = _next_level(pk, entries, ring.p, packed, variables)
        expected = [basis.reduce(ring.gens()[i] * f) for f in forms for i in variables]
        assert [pk.unpack_terms(h) for h in level] == [r.terms for r in expected]
        edge = [(pk.pack((pk.mask - 1, 0, 0)), 3)]  # x^(mask - 1) fits its field with one to spare
        assert _next_level(pk, [], ring.p, [edge], [0]) == [[(pk.pack((pk.mask, 0, 0)), 3)]]
        full = [(pk.pack((pk.mask, 0, 0)), 3)]
        with pytest.raises(_Overflow):
            _next_level(pk, [], ring.p, [full], [0])


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
    """In Block(O) a t-free monomial packs to the same int as in O."""
    rng = random.Random(11)
    inner = packing_for(order, 3, width)
    outer = packing_for(Block(order), 4, width)
    for _ in range(50):
        mon = tuple(rng.randint(0, 60) for _ in range(3))
        assert outer.pack((0,) + mon) == inner.pack(mon)


def test_orders_that_share_a_layout_keep_equal_polynomials():
    """Lex and Block(Lex) pack alike but are two orders, so their packings
    are two objects; a polynomial and its resorting stay equal, hash alike,
    and repack into each other's packing term for term."""
    rng = random.Random(19)
    lex = PolyRing(7, ("x", "y", "z"), Lex())
    block = PolyRing(7, ("x", "y", "z"), Block(Lex()))
    for _ in range(20):
        f = random_nonzero_polynomial(rng, lex, max_degree=6)
        g = f.resorted(block)
        assert g.packing is not f.packing and g.packing.layout == f.packing.layout
        assert f == g and g == f and hash(f) == hash(g)
        assert g.packing.repack(f.packed, f.packing) == g.packed == f.packed
        assert f.packing.repack(g.packed, g.packing) == f.packed


def _assert_canonical(f, reference: dict):
    """f holds exactly `reference`, packed descending under its ring's order."""
    assert dict(f.terms) == reference
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
    _assert_canonical(c - f, dict_add(dict_add({}, {(0, 0, 0): c}, p), a, p, -1))
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
        edge4 = dict_mul(edge4, dict(edge.terms), p)
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
    fields; under degrevlex its degree 315 does not, so taking it there must
    pack it wider rather than garble the degree field."""
    lex = PolyRing(5, ("x", "y", "z"), Lex())
    x, y, z = lex.gens()
    f = x**63 * y**63 * x**63 * y**63 * z**63 + 2 * y
    assert f.packing.width == 8
    g = x**50 - z
    grevlex = lex.with_order(DegRevLex())
    assert f.resorted(grevlex).packing.width > 8
    quotients, remainder = division(f.resorted(grevlex), [g.resorted(grevlex)])
    assert quotients[0] * g + remainder == f
    assert remainder == normal_form(f.resorted(grevlex), [g.resorted(grevlex)])
    assert remainder == x**26 * y**126 * z**65 + 2 * y


# -- moving terms between rings ---------------------------------------------------

MOVE_ORDERS = [Lex(), DegRevLex(), Block(DegRevLex())]
MOVE_IDS = ["lex", "degrevlex", "block-degrevlex"]


def _fits(order, nvars, width, mon) -> bool:
    """mon packs exactly at `width`: every exponent and every degree field fits."""
    mask = (1 << width) - 1
    return all(
        (mon[arg] if kind != "degree" else sum(mon[i] for i in arg)) <= mask
        for kind, arg in order._fields(tuple(range(nvars)))
    )


def _moved_reference(terms, ring, places, fill, divide):
    """What `moved` must give, by exponent tuples and `ring.polynomial`."""
    shifted = [(tuple(a - b for a, b in zip(m, divide)), c) for m, c in terms]
    mapped = []
    for m, c in shifted:
        out = [0] * ring.nvars
        for j, k in enumerate(places):
            if k is not None:
                out[k] = m[j]
        mapped.append((out, c))
    if fill is not None:
        top = max(sum(out) for out, _ in mapped)
        for out, _ in mapped:
            out[fill] = top - sum(out)
    return ring.polynomial((tuple(out), c) for out, c in mapped)


def _assert_moved(f, ring, places, fill=None, divide=None):
    reference = _moved_reference(f.terms, ring, places, fill, divide or (0,) * f.ring.nvars)
    moved = f.moved(ring, places, fill, divide)
    pk = moved.packing
    assert moved.ring == ring and moved == reference
    assert pk.width >= f.packing.width
    # every degree field holds its whole degree: nothing wrapped
    assert all(_fits(ring.order, ring.nvars, pk.width, m) for m, _ in moved.terms)
    assert moved.packed == pk.pack_terms(reference.terms)
    return moved


@pytest.mark.parametrize("target", MOVE_ORDERS, ids=MOVE_IDS)
@pytest.mark.parametrize("source", MOVE_ORDERS, ids=MOVE_IDS)
def test_moving_terms_matches_the_tuple_route(source, target):
    """Random places, dropped zero variables, a filled slot and a divided-out
    power, from sources packed at 8, 16 and 32 bits; lex sources hold fields
    up to their mask, so a degree field in the target must widen."""
    rng = random.Random(f"{source.describe()}>{target.describe()}")
    for nvars in range(2, 6):
        src_ring = PolyRing(7, [f"x{j}" for j in range(nvars)], source)
        for width in (8, 16, 32):
            mask = (1 << width) - 1
            pk = packing_for(source, nvars, width)
            for _ in range(4):
                cap = rng.choice([3, mask // (2 * nvars), mask])
                dropped = rng.randrange(nvars) if rng.random() < 0.5 else None
                v, k = rng.randrange(nvars), rng.choice([0, 0, 1, 3])
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    mon = [rng.randint(0, cap) for _ in range(nvars)]
                    if dropped is not None:
                        mon[dropped] = 0
                    if dropped != v:
                        mon[v] += k
                    if _fits(source, nvars, width, mon):
                        terms[tuple(mon)] = rng.randint(1, 6)
                if not terms:
                    continue
                f = Polynomial(src_ring, pk, pk.pack_terms(terms.items()))
                divide = None
                if k and dropped != v:
                    divide = tuple(k if j == v else 0 for j in range(nvars))
                filled = rng.random() < 0.5
                nslots = nvars + rng.randint(0, 2) + filled
                fill = rng.randrange(nslots) if filled else None
                free = [s for s in range(nslots) if s != fill]
                rng.shuffle(free)
                places = tuple(None if j == dropped else free[j] for j in range(nvars))
                ring = PolyRing(7, [f"y{s}" for s in range(nslots)], target)
                _assert_moved(f, ring, places, fill, divide)


def test_a_narrow_lex_source_widens_into_a_degree_field():
    """x^200 y^200 z^200 fits the 8-bit fields of lex but its degree 600 does
    not fit an 8-bit degree field: moving it under degrevlex, or homogenizing
    it, must widen the target, never wrap the degree."""
    lex = PolyRing(5, ("x", "y", "z"), Lex())
    pk = packing_for(Lex(), 3, 8)
    f = Polynomial(lex, pk, pk.pack_terms([((200, 200, 200), 1), ((250, 0, 1), 3), ((0, 0, 0), 2)]))
    grevlex = lex.with_order(DegRevLex())
    moved = _assert_moved(f, grevlex, (0, 1, 2))
    assert moved.packing.width == packing_width(600) and moved.total_degree() == 600
    assert f.resorted(grevlex) == moved
    graded = PolyRing(5, ("h", "x", "y", "z"), DegRevLex())
    homogenized = _assert_moved(f, graded, (1, 2, 3), fill=0)
    assert homogenized.is_homogeneous() and homogenized.total_degree() == 600
    block = PolyRing(5, ("x", "y", "z"), Block(DegRevLex()))
    assert _assert_moved(f, block, (0, 1, 2)).packing.width == 16


def test_moving_out_of_the_graded_ring_undoes_the_move_in():
    """The round trip of a saturation by v: homogenize with v last, then drop
    h and divide by v^k, on a width-8 degrevlex source."""
    ring = PolyRing(3, ("x", "y", "z"))
    x, y, z = ring.gens()
    f = x**3 * y + 2 * y * z**2 + z + 1
    graded = PolyRing(3, ("h", "x", "z", "y"), DegRevLex())
    homogenized = _assert_moved(f, graded, (1, 3, 2), fill=0)
    shifted = homogenized * graded.gen("y") ** 2
    back = _assert_moved(shifted, ring, (None, 0, 2, 1), divide=(0, 0, 0, 2))
    assert back == f


def test_a_move_refuses_clashing_places():
    ring = PolyRing(3, ("x", "y"))
    f = ring.gen("x") + ring.gen("y")
    with pytest.raises(ValueError):
        f.moved(ring, (0, 0))
    with pytest.raises(ValueError):
        f.moved(ring, (0, 1), fill=1)
    with pytest.raises(ValueError):
        f.moved(ring, (0,))
