"""Exact multivariate polynomial arithmetic over a prime field F_p.

A polynomial stores its terms once, as (packed monomial, coefficient) pairs:
each monomial is one int (`Packing`) whose integer order is the ring's
monomial order, the list is strictly descending, and coefficients are fully
reduced into [1, p).  Arithmetic, division and Buchberger's algorithm all run
on these ints.  Exponent tuples, one slot per ring variable, are the public
form of a monomial: `Polynomial.terms` unpacks them on first read.  All
operations are pure; values are safe to share freely.

The heart of the module is the division algorithm (`division` /
`normal_form`): divide by the first usable divisor in list order, always
rewriting the largest reducible term, so remainders and quotient certificates
are reproducible bit for bit.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, RingMismatch, ZeroPolynomial

Monomial = tuple[int, ...]
Term = tuple[Monomial, int]

LT, EQ, GT = -1, 0, 1


# Miller-Rabin with these bases is exact below the bound (Sorenson & Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017): the bound is
# the least strong pseudoprime to all of them.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above MILLER_RABIN_BOUND,
    where these bases no longer decide primality exactly."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"cannot decide primality of {n} exactly: must be below {MILLER_RABIN_BOUND}"
        )
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The coefficient domain Z/p for a prime p; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# monomials

def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b as a monomial, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_divides(b: Monomial, a: Monomial) -> bool:
    return all(x >= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total multiplicative order on monomials with 1 minimal.

    A subclass defines the order once, by its `_fields` layout; `key` and
    `Packing` both read it, so tuple and packed comparisons agree by
    construction.  `priority` optionally permutes variables before the layout
    is formed; the default reads the ring's declared variable order as the
    priority (first variable largest for lex).
    """

    kind = "abstract"

    def __init__(self, priority: tuple[int, ...] | None = None):
        self.priority = priority

    def _permute(self, mon: Monomial) -> Monomial:
        if self.priority is None:
            return mon
        return tuple(mon[i] for i in self.priority)

    def key(self, mon: Monomial) -> tuple:
        """A tuple that sorts the way the order compares: per field of the
        layout, the degree of its variables, minus a `rev` exponent, or a
        `lex` exponent."""
        return tuple(
            mon[arg] if kind == "lex" else -mon[arg] if kind == "rev" else sum(mon[i] for i in arg)
            for kind, arg in self._fields(tuple(range(len(mon))))
        )

    def _fields(self, variables: tuple[int, ...]) -> list[tuple[str, object]]:
        """The layout on `variables`, most significant field first: ("lex", i)
        for an exponent compared ascending, ("rev", i) for one compared in
        reverse, ("degree", vars) for the degree of vars, whose fields follow
        it directly."""
        raise NotImplementedError

    def compare(self, a: Monomial, b: Monomial) -> int:
        if len(a) != len(b):
            raise DimensionError(f"exponent vectors of length {len(a)} vs {len(b)}")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def _ident(self) -> tuple:
        return (self.kind, self.priority)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, MonomialOrder) and other._ident() == self._ident()
        )

    def __hash__(self) -> int:
        return hash(self._ident())

    def __repr__(self) -> str:
        return f"<order {self.describe()}>"

    def describe(self) -> str:
        return self.kind


class Lex(MonomialOrder):
    kind = "lex"

    def _fields(self, variables):
        return [("lex", i) for i in self._permute(variables)]


class DegRevLex(MonomialOrder):
    kind = "degrevlex"

    def _fields(self, variables):
        m = self._permute(variables)
        if not m:
            return []
        return [("degree", m)] + [("rev", i) for i in reversed(m)]


class Block(MonomialOrder):
    """Elimination order: the first `elim` variables dominate (compared lex),
    ties broken by `inner` on the remaining variables."""

    kind = "block"

    def __init__(self, elim: int, inner: MonomialOrder):
        super().__init__(None)
        if elim < 1:
            raise ValueError("block order needs at least one elimination variable")
        self.elim = elim
        self.inner = inner

    def _fields(self, variables):
        return [("lex", i) for i in variables[: self.elim]] + self.inner._fields(
            variables[self.elim :]
        )

    def _ident(self) -> tuple:
        return (self.kind, self.elim, self.inner._ident())

    def describe(self) -> str:
        return f"block({self.elim};{self.inner.describe()})"


def compare_monomials(a: Monomial, b: Monomial, order: MonomialOrder) -> int:
    """Three-way comparison under `order`: -1, 0, or 1."""
    return order.compare(a, b)


# ---------------------------------------------------------------------------
# rings and polynomials

class PolyRing:
    """F_p[x_1, ..., x_n] with a fixed active monomial order."""

    __slots__ = ("field", "variables", "order", "_var_index")

    def __init__(self, p: int, variables: Sequence[str], order: MonomialOrder | None = None):
        self.field = PrimeField(p)
        vars_ = tuple(variables)
        if len(set(vars_)) != len(vars_) or not vars_:
            raise ValueError(f"variables must be distinct and nonempty, got {vars_}")
        self.variables = vars_
        self.order = order if order is not None else DegRevLex()
        self._var_index = {v: i for i, v in enumerate(vars_)}

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def compatible(self, other: "PolyRing") -> bool:
        return self.p == other.p and self.variables == other.variables

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        if order == self.order:
            return self
        return PolyRing(self.p, self.variables, order)

    # -- construction -------------------------------------------------------

    def _exponents(self, mon: Sequence[int]) -> Monomial:
        """`mon` as an exponent tuple of this ring, checked."""
        mon = tuple(mon)
        if len(mon) != self.nvars:
            raise DimensionError(f"monomial {mon} has {len(mon)} slots, ring has {self.nvars}")
        if min(mon) < 0:
            raise ValueError(f"negative exponent in {mon}")
        return mon

    def polynomial(self, coeffs: Mapping[Monomial, int] | Iterable[Term]) -> "Polynomial":
        """The polynomial with these coefficients, packed at the width its
        largest degree derives."""
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[Monomial, int] = {}
        for mon, c in items:
            mon = self._exponents(mon)
            acc[mon] = (acc.get(mon, 0) + c) % self.p
        terms = [t for t in acc.items() if t[1]]
        top = max((sum(m) for m, _ in terms), default=0)
        pk = packing_for(self.order, self.nvars, packing_width(top))
        return Polynomial(self, pk, pk.pack_terms(terms))

    def zero(self) -> "Polynomial":
        return self.polynomial(())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return self.polynomial((((0,) * self.nvars, c),))

    def gen(self, name: str) -> "Polynomial":
        i = self._var_index[name]
        return self.polynomial(((tuple(int(j == i) for j in range(self.nvars)), 1),))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(v) for v in self.variables)

    def monomial(self, *exponents: int) -> "Polynomial":
        return self.polynomial(((exponents, 1),))

    def rebase(self, f: "Polynomial") -> "Polynomial":
        """f moved, without repacking, between a ring and its extension by a
        first variable t compared lex ahead of the ring's order (as in
        `Block(1, order)`): t's field sits above the others at the same
        width, so a t-free monomial packs to the same int in both rings."""
        big, small = (f.ring, self) if f.ring.nvars > self.nvars else (self, f.ring)
        n = small.nvars
        if big.p != small.p or big.variables[1:] != small.variables or big.order._fields(
            tuple(range(n + 1))
        ) != [("lex", 0)] + small.order._fields(tuple(range(1, n + 1))):
            raise RingMismatch(f"{self!r} does not extend {f.ring!r} or the other way round")
        pk = f.packing
        if big is f.ring and f.packed and f.packed[0][0] >> pk.shifts[0]:
            raise ValueError(f"{f} involves {big.variables[0]}")
        return Polynomial(self, packing_for(self.order, self.nvars, pk.width), f.packed)

    def parse(self, text: str, names: Mapping[str, "Polynomial"] | None = None) -> "Polynomial":
        """Parse `3*s^2*x*y^4 - x + 7`-style expressions; see parse_polynomial."""
        return parse_polynomial(self, text, names)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.p == self.p
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self) -> int:
        return hash((self.p, self.variables, self.order))

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, vars={','.join(self.variables)}, order={self.order.describe()})"


class Polynomial:
    """Immutable element of a PolyRing.

    `packed` holds the terms as (packed monomial, coefficient) pairs under
    `packing`, a `Packing` of the ring's order, strictly descending, with no
    zero coefficients.  `terms` is the same list with exponent tuples,
    unpacked on first read.  Equality and hashing are mathematical: they
    ignore the order and width the terms happen to be packed in.
    """

    __slots__ = ("ring", "packing", "packed", "_terms", "_top", "_hash")

    def __init__(self, ring: PolyRing, packing: "Packing", packed: list[tuple[int, int]]):
        self.ring = ring
        self.packing = packing
        self.packed = packed
        self._terms: tuple[Term, ...] | None = None
        self._top: int | None = None
        self._hash: int | None = None

    @property
    def terms(self) -> tuple[Term, ...]:
        """(exponent tuple, coefficient) pairs, descending under the ring's order."""
        if self._terms is None:
            self._terms = self.packing.unpack_terms(self.packed)
        return self._terms

    def _bound(self) -> int:
        """The field-wise max of the plain monomials (see `Packing.top`)."""
        if self._top is None:
            self._top = self.packing.top(self.packed)
        return self._top

    def _at(self, pk: "Packing") -> "Polynomial":
        """This polynomial under `pk`, a packing of the ring's order at least
        as wide as its own."""
        if pk == self.packing:
            return self
        return Polynomial(self.ring, pk, pk.repack(self.packed, self.packing))

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __len__(self) -> int:
        return len(self.packed)

    def coefficient(self, mon: Monomial) -> int:
        return self.as_dict().get(tuple(mon), 0)

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    def total_degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=-1)

    def leading_term(self, order: MonomialOrder | None = None) -> tuple[int, Monomial]:
        """(coefficient, monomial) of the maximal term; ZeroPolynomial on 0."""
        if not self.packed:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        if order is None or order == self.ring.order:
            m, c = self.packed[0]
            return c, self.packing.unpack(m)
        m, c = max(self.terms, key=lambda t: order.key(t[0]))
        return c, m

    def leading_monomial(self, order: MonomialOrder | None = None) -> Monomial:
        return self.leading_term(order)[1]

    def leading_coefficient(self, order: MonomialOrder | None = None) -> int:
        return self.leading_term(order)[0]

    def is_monomial(self) -> bool:
        return len(self.packed) == 1

    def monic(self) -> "Polynomial":
        if not self.packed:
            return self
        c = self.packed[0][1]
        if c == 1:
            return self
        return self.scale(self.ring.field.inv(c))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not self.ring.compatible(other.ring):
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                self._check(other)
                if other.ring.order != self.ring.order:
                    other = other.resorted(self.ring)
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return None

    def _aligned(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Both operands under the wider of their two packings."""
        pk = self.packing if self.packing.width >= other.packing.width else other.packing
        return self._at(pk), other._at(pk)

    def _minus(self, other: "Polynomial", c: int) -> "Polynomial":
        """self - c * other, for 0 < c < p, by one merge."""
        a, b = self._aligned(other)
        terms = _merge_sub(a.packed, 0, b.packed, 0, c, self.ring.p)
        return Polynomial(self.ring, a.packing, terms)

    def __add__(self, other) -> "Polynomial":
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self._minus(g, self.ring.p - 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other) -> "Polynomial":
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self._minus(g, 1)

    def __rsub__(self, other) -> "Polynomial":
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g._minus(self, 1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if not self.packed or not g.packed:
            return self.ring.zero()
        a, b = self._aligned(g)
        # a * b packs to a + b - flip; no field may carry into its guard bit
        while (a._bound() + b._bound()) & a.packing.guard:
            pk = packing_for(self.ring.order, self.ring.nvars, 2 * a.packing.width)
            a, b = a._at(pk), b._at(pk)
        if len(a) < len(b):
            a, b = b, a
        # one merge per term of the shorter operand; a shift keeps term order
        pk, p, terms = a.packing, self.ring.p, []
        for mb, cb in b.packed:
            terms = _merge_sub(terms, 0, a.packed, mb - pk.flip, p - cb, p)
        return Polynomial(self.ring, pk, terms)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, self.packing, [(m, k * c % p) for m, k in self.packed])

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_term(self, mon: Monomial, c: int) -> "Polynomial":
        """Multiply by the single term c * x^mon (order of terms is preserved)."""
        mon, p, pk = self.ring._exponents(mon), self.ring.p, self.packing
        c %= p
        # when the product fits, it shifts every packed term by one constant;
        # the degree bounds every field of mon, so then mon packs exactly
        if c and self.packed and sum(mon) <= pk.mask:
            t = pk.pack(mon)
            if not ((t ^ pk.flip) + self._bound()) & pk.guard:
                shift = t - pk.flip
                return Polynomial(self.ring, pk, [(m + shift, k * c % p) for m, k in self.packed])
        return self * self.ring.monomial(*mon).scale(c)

    def frobenius(self, e: int) -> "Polynomial":
        """The p^e-th power: term-wise exponent scaling, coefficients fixed.

        Valid over F_p because c^(p^e) = c and (u+v)^(p^e) = u^(p^e) + v^(p^e).
        """
        if e < 0:
            raise ValueError("frobenius exponent must be non-negative")
        if e == 0:
            return self
        q = self.ring.p**e
        return self.ring.polynomial([(tuple(q * a for a in m), c) for m, c in self.terms])

    def resorted(self, ring: PolyRing) -> "Polynomial":
        """The same polynomial, re-normalized into a compatible ring."""
        if ring == self.ring:
            return self
        if not self.ring.compatible(ring):
            raise RingMismatch(f"{self.ring!r} vs {ring!r}")
        return ring.polynomial(self.terms)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ring.p != other.ring.p or self.ring.variables != other.ring.variables:
            return False
        if self.packing == other.packing:
            return self.packed == other.packed
        return dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.ring.p, self.ring.variables, frozenset(self.terms))
            )
        return self._hash

    def __repr__(self) -> str:
        return f"<{self} over F_{self.ring.p}>"

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        parts = []
        for mon, c in self.terms:
            factors = []
            if c != 1 or not any(mon):
                factors.append(str(c))
            for name, e in zip(self.ring.variables, mon):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# packed monomials

class _Overflow(Exception):
    """A product would not fit its packed fields; the caller repacks wider."""


# Spare bits per field above a polynomial's largest degree, so that the
# products arithmetic and reduction form seldom force a repack.
_HEADROOM = 2


class Packing:
    """The monomials of one order on `nvars` variables, each as one int.

    Every exponent gets a `width`-bit field with a guard bit above it.  A
    degrevlex part of the order (the whole order, or the inner order of a
    `Block`) adds a field above its own variables that holds their degree.
    The fields sit most significant first in the sequence in which the order
    compares them, and those it compares in reverse (degrevlex's exponents)
    are stored complemented, so packed ints compare exactly as the order's
    keys do.  With plain(a) = a ^ flip, the int whose fields hold the
    exponents themselves:

    - b divides a iff (plain(a) - plain(b)) & guard == 0, and the difference
      is then plain(a / b);
    - a * b packs to a + b - flip, so multiplying every term of a list by
      a / b adds the constant a - b to each packed term;
    - the lcm is the field-wise max of the plain ints (`plain_max`), with
      the degree field summed afresh (`with_degree`).

    No field ever wraps: arithmetic and the core test the guard bits before
    they form a product, and on a carry (`_Overflow` in the core) repack at
    twice the width and start again.  Two packings are equal when their
    `layout`s are, whatever order object they were built from.
    """

    __slots__ = (
        "order", "layout", "width", "mask", "shifts", "guard", "flip", "exponents",
        "_deg_vars", "_deg_shift", "_sum_low", "_sum_spread", "_sum_top", "_field_mask",
    )

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        fields = order._fields(tuple(range(nvars)))
        placed = sorted(arg for kind, arg in fields if kind != "degree")
        if placed != list(range(nvars)):
            raise ValueError(f"order {order.describe()} does not rank all {nvars} variables once")
        step = width + 1
        self.order = order
        self.layout = (width, tuple(fields))
        self.width = width
        self.mask = (1 << width) - 1
        self.shifts = [0] * nvars
        self.guard = self.flip = self.exponents = 0
        self._deg_vars: tuple[int, ...] = ()
        for pos, (kind, arg) in enumerate(reversed(fields)):
            shift = pos * step
            self.guard |= 1 << (shift + width)
            if kind == "degree":
                # the len(arg) fields right below hold the summed exponents;
                # multiplying them by `_sum_spread` adds them into its top one
                k = len(arg)
                self._deg_vars, self._deg_shift = arg, shift
                self._sum_low = shift - k * step
                self._sum_spread = sum(1 << (i * step) for i in range(k))
                self._sum_top = (k - 1) * step
                self._field_mask = (1 << step) - 1
            else:
                self.shifts[arg] = shift
                self.exponents |= self.mask << shift
                if kind == "rev":
                    self.flip |= self.mask << shift

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Packing) and other.layout == self.layout)

    def pack(self, mon: Monomial) -> int:
        e = 0
        for x, s in zip(mon, self.shifts):
            e |= x << s
        if self._deg_vars:
            e |= sum(mon[i] for i in self._deg_vars) << self._deg_shift
        return e ^ self.flip

    def unpack(self, m: int) -> Monomial:
        e, mask = m ^ self.flip, self.mask
        return tuple((e >> s) & mask for s in self.shifts)

    def pack_terms(self, terms: Iterable[Term]) -> list[tuple[int, int]]:
        """Terms with distinct monomials, packed and sorted descending."""
        pack = self.pack
        return sorted(((pack(m), c) for m, c in terms), reverse=True)

    def unpack_terms(self, terms: Iterable[tuple[int, int]]) -> tuple[Term, ...]:
        unpack = self.unpack
        return tuple((unpack(m), c) for m, c in terms)

    def repack(self, terms: list[tuple[int, int]], src: "Packing") -> list[tuple[int, int]]:
        """Descending terms of packing `src` in this one.  Widening always
        fits; another layout raises `_Overflow` when a degree does not."""
        if src == self:
            return terms
        mons = src.unpack_terms(terms)
        widening = src.layout[1] == self.layout[1] and src.width <= self.width
        if not widening and any(sum(m) > self.mask for m, _ in mons):
            raise _Overflow
        return self.pack_terms(mons)

    def plain_max(self, a: int, b: int) -> int:
        """Field-wise max of two plain ints (SWAR: a guard bit survives
        (a | guard) - b exactly in the fields where a >= b)."""
        guard = self.guard
        d = ((a | guard) - b) & guard
        return b ^ ((a ^ b) & (d - (d >> self.width)))

    def with_degree(self, e: int) -> int:
        """Fill the empty degree field of the plain lcm `e` of two packed
        monomials; raises `_Overflow` if the degree does not fit."""
        if self._deg_vars:
            d = ((e >> self._sum_low) * self._sum_spread >> self._sum_top) & self._field_mask
            if d > self.mask:
                raise _Overflow
            e |= d << self._deg_shift
        return e

    def top(self, terms: Iterable[tuple[int, int]]) -> int:
        """The field-wise max of the plain monomials of `terms`: a product
        with plain(b) fits iff top + plain(b) sets no guard bit."""
        flip, top = self.flip, 0
        for m, _ in terms:
            top = self.plain_max(top, m ^ flip)
        return top

    def reducer(self, terms: list[tuple[int, int]], lcinv: int) -> tuple:
        """Division table entry of a descending packed term list: (plain
        lead, inverse lead coefficient, terms, `top` of the terms)."""
        return (terms[0][0] ^ self.flip, lcinv, terms, self.top(terms))


@functools.lru_cache(maxsize=64)
def packing_for(order: MonomialOrder, nvars: int, width: int) -> Packing:
    return Packing(order, nvars, width)


def packing_width(top: int) -> int:
    """The field width for exponents and degrees up to `top`, a multiple of 8
    so that most polynomials share one packing."""
    return -(-(max(top, 1).bit_length() + _HEADROOM) // 8) * 8


def _merge_sub(h: list, start: int, g: list, delta: int, c: int, p: int) -> list:
    """h[start:] minus c * x^t * g, both inputs descending; result descending.

    `delta` adds t to a packed monomial (see Packing).  The leading terms
    cancel by construction in the division loop, but the merge does not rely
    on that.
    """
    out: list = []
    append = out.append
    i, nh = start, len(h)
    # packed monomials are >= 0, so -1 stands for "h is used up"
    head = h[i][0] if i < nh else -1
    neg = p - c
    for mg, cg in g:
        m = mg + delta
        while head > m:
            append(h[i])
            i += 1
            head = h[i][0] if i < nh else -1
        if head == m:
            cc = (h[i][1] + neg * cg) % p
            if cc:
                append((m, cc))
            i += 1
            head = h[i][0] if i < nh else -1
        else:
            append((m, neg * cg % p))
    out += h[i:]
    return out


def _reduce_sorted(
    h: list,
    table: Sequence[tuple],
    packing: Packing,
    p: int,
    quotients: list[dict[int, int]] | None = None,
) -> list:
    """Core division loop on descending packed term lists.

    `table` holds a `Packing.reducer` entry per divisor.  Rewrites the largest
    reducible term against the first listed divisor whose lead divides it;
    irreducible terms accumulate into the remainder, which is returned
    (descending).  Quotient terms, when collected, are keyed by packed
    monomial.  Raises `_Overflow` before forming a product that would not fit.
    """
    flip, guard = packing.flip, packing.guard
    leads = [entry[0] for entry in table]
    remainder = []
    start = 0
    while start < len(h):
        term = h[start]
        e = term[0] ^ flip
        for lead in leads:
            t = e - lead
            if not t & guard:
                break
        else:
            remainder.append(term)
            start += 1
            continue
        # the first listed divisor with this lead is the one that matched
        gi = leads.index(lead)
        _, lcinv, gterms, top = table[gi]
        if (t + top) & guard:
            raise _Overflow
        c = term[1] * lcinv % p
        if quotients is not None:
            q = quotients[gi]
            t ^= flip
            q[t] = (q.get(t, 0) + c) % p
        h = _merge_sub(h, start, gterms, term[0] - gterms[0][0], c, p)
        start = 0
    return remainder


class DivisorTable:
    """Divisors under one order, packed on first use and kept for reuse.

    A `GroebnerBasis` holds one, so that repeated normal forms against it
    pack the basis once.  Divisors already packed under the order are taken
    as they are; the table is packed again, wider, only when a dividend or a
    product does not fit.
    """

    __slots__ = ("divisors", "order", "_width", "_packing", "_entries")

    def __init__(self, divisors: Sequence[Polynomial], order: MonomialOrder):
        self.divisors = tuple(divisors)
        self.order = order
        self._width = max((g.packing.width for g in self.divisors), default=0)
        self._packing: Packing | None = None
        self._entries: list[tuple] = []

    def __len__(self) -> int:
        return len(self.divisors)

    def packed(self, nvars: int, width: int) -> tuple[Packing, list[tuple]]:
        """The packing of at least `width` bits per field, and the entries."""
        if self._packing is None or self._packing.width < width:
            if any(g.is_zero() for g in self.divisors):
                raise ZeroPolynomial("cannot divide by the zero polynomial")
            pk = packing_for(self.order, nvars, max(width, self._width))
            entries = []
            for g in self.divisors:
                terms = pk.repack(g.packed, g.packing)
                entries.append(pk.reducer(terms, g.ring.field.inv(terms[0][1])))
            self._packing, self._entries, self._width = pk, entries, pk.width
        return self._packing, self._entries


def _divide(f: Polynomial, table: DivisorTable, with_quotients: bool):
    """Run the core on f, repacking wider on overflow; returns (packing,
    packed quotient dicts or None, packed remainder)."""
    for g in table.divisors:
        if g.ring is not f.ring:
            f._check(g)
    width = f.packing.width
    while True:
        try:
            pk, entries = table.packed(f.ring.nvars, width)
            quotients = [{} for _ in entries] if with_quotients else None
            return pk, quotients, _reduce_sorted(
                pk.repack(f.packed, f.packing), entries, pk, f.ring.p, quotients
            )
        except _Overflow:
            width = 2 * max(width, table._width)


def _in_ring(ring: PolyRing, pk: Packing, terms: list) -> Polynomial:
    """The polynomial of a descending packed term list of `pk`."""
    if pk.order == ring.order:
        return Polynomial(ring, pk, terms)
    return ring.polynomial(pk.unpack_terms(terms))


def division(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder | None = None
) -> tuple[list[Polynomial], Polynomial]:
    """Divide f by the list of divisors; return (quotients, remainder).

    Guarantees: f == sum(q_i * g_i) + r exactly; no term of r is divisible by
    any leading monomial of the divisors; for every nonzero quotient term t,
    lm(t * g_i) <= lm(f).  Ties go to the first divisor in list order, and the
    largest reducible term is always rewritten first, so the output is a
    deterministic function of the inputs.
    """
    ring = f.ring
    if order is None:
        order = ring.order
    pk, quotients, remainder = _divide(f, DivisorTable(divisors, order), True)
    return (
        [
            _in_ring(ring, pk, sorted([t for t in q.items() if t[1]], reverse=True))
            for q in quotients
        ],
        _in_ring(ring, pk, remainder),
    )


def normal_form(
    f: Polynomial,
    divisors: "Sequence[Polynomial] | DivisorTable",
    order: MonomialOrder | None = None,
) -> Polynomial:
    """Remainder of f on division by `divisors` (no quotients are formed).

    `divisors` may be a `DivisorTable`, which brings its own order and keeps
    its packing from one call to the next.
    """
    if not divisors:
        return f
    if isinstance(divisors, DivisorTable):
        if order is not None and order != divisors.order:
            raise ValueError(f"divisor table is for {divisors.order!r}, not {order!r}")
        table = divisors
    else:
        table = DivisorTable(divisors, order if order is not None else f.ring.order)
    pk, _, remainder = _divide(f, table, False)
    return _in_ring(f.ring, pk, remainder)


# ---------------------------------------------------------------------------
# text syntax

_TOKEN_CHARS = {"+", "-", "*", "^", "(", ")", ",", ";", "="}


class ExpressionError(ValueError):
    """Malformed expression text; `offset` is where in the text it goes wrong."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at position {offset}")
        self.message = message
        self.offset = offset


def tokenize_expression(text: str):
    """Yield (kind, value, position) triples; kind in {int, name, op, end}.

    The ops are `+ - * ^ ( ) , ; =`; the last two only end or separate
    expressions, so the session language reads its statements from the same
    token stream.  `#` starts a comment that runs to the end of the line.
    An unknown character raises ExpressionError.
    """
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            i = text.find("\n", i)
            if i < 0:
                break
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", text[i:j], i)
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
        elif ch in _TOKEN_CHARS:
            yield ("op", ch, i)
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    yield ("end", "", n)


class _ExprParser:
    """Recursive descent for +, -, *, ^, parentheses over ring variables."""

    def __init__(self, ring: PolyRing, tokens, names: Mapping[str, Polynomial] | None):
        self.ring = ring
        self.tokens = list(tokens)
        self.pos = 0
        self.names = names or {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, offset: int):
        """Report a syntax error at `offset` in the text; every error goes here."""
        raise ExpressionError(message, offset)

    def expect_op(self, op: str):
        kind, value, at = self.advance()
        if kind != "op" or value != op:
            self.fail(f"expected {op!r}, got {value!r}", at)

    def parse_expr(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in {"+", "-"}:
            self.advance()
            negate = value == "-"
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in {"+", "-"}:
                self.advance()
                rhs = self.parse_term()
                result = result - rhs if value == "-" else result + rhs
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, at = self.advance()
            if kind != "int":
                self.fail("expected integer exponent", at)
            return base ** int(value)
        return base

    def parse_base(self) -> Polynomial:
        kind, value, at = self.advance()
        if kind == "int":
            return self.ring.constant(int(value))
        if kind == "name":
            if value in self.ring._var_index:
                return self.ring.gen(value)
            if value in self.names:
                return self.names[value].resorted(self.ring)
            self.fail(f"unknown name {value!r}", at)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.parse_factor()
        self.fail(f"unexpected token {value!r}", at)


def parse_polynomial(
    ring: PolyRing, text: str, names: Mapping[str, Polynomial] | None = None
) -> Polynomial:
    """Parse an expression like `3*s^2*x*y^4 + x - 7` into `ring`.

    `names` supplies bindings for non-variable identifiers.  A `#` comment may
    follow the expression.  Malformed text raises ExpressionError, a
    ValueError whose message ends in `at position N`.
    """
    parser = _ExprParser(ring, tokenize_expression(text), names)
    result = parser.parse_expr()
    kind, value, at = parser.peek()
    if kind != "end":
        parser.fail(f"trailing input {value!r}", at)
    return result
