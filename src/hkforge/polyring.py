"""Exact multivariate polynomial arithmetic over a prime field F_p.

A polynomial stores its terms once, as (packed monomial, coefficient) pairs:
each monomial is one int (`Packing`) whose integer order is the ring's
monomial order, the list is strictly descending, and coefficients are fully
reduced into [1, p).  Arithmetic, division and Buchberger's algorithm all run
on these ints.  Exponent tuples, one slot per ring variable, are the public
form of a monomial: `Polynomial.terms` unpacks them on first read, and
`PolyRing.polynomial` builds a polynomial from them (the parser, `gen`,
`constant` and `monomial` go through it).  A polynomial that already exists
moves to another order, ring or width on its packed ints alone, by the one
kernel `Packing.move` (`Polynomial.moved`, `resorted`, `frobenius` and
`Packing.repack` use it).  All operations are pure; values are safe to share
freely.

The heart of the module is the division algorithm (`division` /
`normal_form`): divide by the first usable divisor in list order, always
rewriting the largest reducible term, so remainders and quotient certificates
are reproducible bit for bit.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, Sequence

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


# ---------------------------------------------------------------------------
# monomials

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


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """Total multiplicative order on monomials with 1 minimal.

    A subclass defines the order once, by its `_fields` layout; `key` and
    `Packing` both read it, so tuple and packed comparisons agree by
    construction.  Variables rank in the order the ring declares them: the
    first is the largest for lex and the last is compared last by degrevlex.
    To rank them another way, declare them in that order.  There is one
    object per order: a constructor called again with the same arguments
    returns the object it made before, so `==` and `hash` are identity's.
    Rings (`PolyRing`) and packings (`packing_for`) keep the same contract.
    """

    kind = "abstract"
    _made: dict[tuple, "MonomialOrder"] = {}

    def __new__(cls, *args):
        key = (cls, *args)
        if key not in MonomialOrder._made:
            MonomialOrder._made[key] = super().__new__(cls)
        return MonomialOrder._made[key]

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

    def __repr__(self) -> str:
        return f"<order {self.describe()}>"

    def describe(self) -> str:
        return self.kind


class Lex(MonomialOrder):
    kind = "lex"

    def _fields(self, variables):
        return [("lex", i) for i in variables]


class DegRevLex(MonomialOrder):
    kind = "degrevlex"

    def _fields(self, variables):
        if not variables:
            return []
        return [("degree", variables)] + [("rev", i) for i in reversed(variables)]


class Block(MonomialOrder):
    """Elimination order for the first variable: its exponent dominates, ties
    broken by `inner` on the remaining variables.  `Block(Block(X))`
    eliminates the first two."""

    kind = "block"

    def __init__(self, inner: MonomialOrder):
        self.inner = inner

    def _fields(self, variables):
        return [("lex", i) for i in variables[:1]] + self.inner._fields(variables[1:])

    def describe(self) -> str:
        return f"block({self.inner.describe()})"


# ---------------------------------------------------------------------------
# rings and polynomials

class PolyRing:
    """F_p[x_1, ..., x_n] with a fixed active monomial order, by default
    degrevlex.  As for orders and packings, there is one object per ring: a
    constructor called again with the same p, variables and order returns the
    object it made before, so `==` and `hash` are identity's.  A refused ring
    is never kept, so it is refused again on every call."""

    __slots__ = ("p", "variables", "order", "_var_index")
    _made: dict[tuple, "PolyRing"] = {}

    def __new__(cls, p: int, variables: Sequence[str], order: MonomialOrder | None = None):
        key = (p, tuple(variables), order if order is not None else DegRevLex())
        ring = PolyRing._made.get(key)
        if ring is None:
            if not is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
            vars_ = key[1]
            if len(set(vars_)) != len(vars_) or not vars_:
                raise ValueError(f"variables must be distinct and nonempty, got {vars_}")
            ring = PolyRing._made[key] = super().__new__(cls)
            ring.p, ring.variables, ring.order = key
            ring._var_index = {v: i for i, v in enumerate(vars_)}
        return ring

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def compatible(self, other: "PolyRing") -> bool:
        return self.p == other.p and self.variables == other.variables

    def with_order(self, order: MonomialOrder) -> "PolyRing":
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
        largest degree derives: the constructor from exponent tuples.  To
        take an existing polynomial here, use `Polynomial.moved` or
        `resorted`."""
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
        i = self._var_index.get(name)
        if i is None:
            raise ValueError(f"no variable {name!r}; the ring's variables are {self.variables}")
        return self.polynomial(((tuple(int(j == i) for j in range(self.nvars)), 1),))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(v) for v in self.variables)

    def monomial(self, *exponents: int) -> "Polynomial":
        return self.polynomial(((exponents, 1),))

    def parse(self, text: str, names: Mapping[str, "Polynomial"] | None = None) -> "Polynomial":
        """Parse `3*s^2*x*y^4 - x + 7`-style expressions; see parse_polynomial."""
        return parse_polynomial(self, text, names)

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
        if pk is self.packing:
            return self
        return Polynomial(self.ring, pk, pk.repack(self.packed, self.packing))

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __len__(self) -> int:
        return len(self.packed)

    def total_degree(self) -> int:
        """The largest degree of a term, -1 for 0: the lead's degree field
        when it sums every variable."""
        if not self.packed:
            return -1
        if self.packing.graded:
            return self.packed[0][0] >> self.packing.deg_shift
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        """Nonzero with all its terms of one degree, read off the degree
        fields when they sum every variable."""
        pk = self.packing
        if pk.graded:
            degrees = {m >> pk.deg_shift for m, _ in self.packed}
        else:
            degrees = {sum(m) for m, _ in self.terms}
        return len(degrees) == 1

    def leading_term(self) -> tuple[int, Monomial]:
        """(coefficient, monomial) of the maximal term under the ring's order;
        ZeroPolynomial on 0."""
        if not self.packed:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        m, c = self.packed[0]
        return c, self.packing.unpack(m)

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[1]

    def is_monomial(self) -> bool:
        return len(self.packed) == 1

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other.resorted(self.ring)
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
        if e == 0 or not self.packed:
            return self
        # scaling every plain int by q scales each field, the degree field
        # too, and keeps term order, once the fields have room for q * degree
        q, src = self.ring.p**e, self.packing
        width = max(src.width, packing_width(q * self.total_degree()))
        pk = packing_for(self.ring.order, self.ring.nvars, width)
        flip = pk.flip
        return Polynomial(
            self.ring, pk, [((m ^ flip) * q ^ flip, c) for m, c in pk.repack(self.packed, src)]
        )

    def resorted(self, ring: PolyRing) -> "Polynomial":
        """The same polynomial, re-normalized into a compatible ring: the way
        to take it to another monomial order (see `PolyRing.with_order`)."""
        if ring is self.ring:
            return self
        if not self.ring.compatible(ring):
            raise RingMismatch(f"{self.ring!r} vs {ring!r}")
        return self.moved(ring, tuple(range(ring.nvars)))

    def moved(
        self,
        ring: PolyRing,
        places: tuple[int | None, ...],
        fill: int | None = None,
        divide: Monomial | None = None,
    ) -> "Polynomial":
        """This polynomial in `ring`, over the same field, by its packed terms
        (`Packing.move`): variable j becomes variable places[j] of `ring`, or
        is dropped where that is None (its exponent must be 0, or the h of a
        homogeneous polynomial); the monomial `divide` of this ring is divided
        out of every term first; and variable `fill` of `ring` makes up each
        term's degree to the largest (homogenization)."""
        if ring.p != self.ring.p:
            raise RingMismatch(f"{self.ring!r} vs {ring!r}")
        src = self.packing
        plain = 0 if divide is None else src.pack(self.ring._exponents(divide)) ^ src.flip
        pk, terms = packing_for(ring.order, ring.nvars, src.width).move(
            self.packed, src, places, fill, plain
        )
        terms.sort(reverse=True)
        return Polynomial(ring, pk, terms)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ring.p != other.ring.p or self.ring.variables != other.ring.variables:
            return False
        if self.packing is other.packing:
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
    - the lcm is the field-wise max of the plain ints, formed SWAR-wise as
      in `top`; a degree field is then summed afresh from the fields below
      it, ((e >> sum_low) * sum_spread >> sum_top) & field_mask, which
      `_gm_update` does inline.

    No field ever wraps: arithmetic and the core test the guard bits before
    they form a product, and on a carry (`_Overflow` in the core) repack at
    twice the width and start again.  `packing_for` makes the one packing
    per order, number of variables and width, so packings compare by
    identity; two orders may still share a `layout` (`Lex()` and
    `Block(Lex())`), and terms then `repack` between their packings.

    Terms move between packings, of one ring or of two, only by `move`, on
    the plain ints: variable j of the source goes to a slot of the target,
    one field at a time.  `repack` (widening within one layout) is its
    identity case.  A move never narrows, and a degree that would not fit the
    target's degree field widens the target instead of wrapping.
    """

    __slots__ = (
        "order", "layout", "width", "mask", "shifts", "guard", "flip", "exponents",
        "_deg_vars", "deg_shift", "sum_low", "sum_spread", "sum_top", "field_mask",
        "graded", "_plans", "units",
    )

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        fields = order._fields(tuple(range(nvars)))
        step = width + 1
        self.order = order
        self.layout = (width, tuple(fields))
        self._plans: dict[tuple, tuple] = {}
        self.width = width
        self.mask = (1 << width) - 1
        self.shifts = [0] * nvars
        self.guard = self.flip = self.exponents = 0
        self._deg_vars: tuple[int, ...] = ()
        self.deg_shift: int | None = None
        for pos, (kind, arg) in enumerate(reversed(fields)):
            shift = pos * step
            self.guard |= 1 << (shift + width)
            if kind == "degree":
                # the len(arg) fields right below hold the summed exponents;
                # multiplying them by `sum_spread` adds them into its top one
                k = len(arg)
                self._deg_vars, self.deg_shift = arg, shift
                self.sum_low = shift - k * step
                self.sum_spread = sum(1 << (i * step) for i in range(k))
                self.sum_top = (k - 1) * step
                self.field_mask = (1 << step) - 1
            else:
                self.shifts[arg] = shift
                self.exponents |= self.mask << shift
                if kind == "rev":
                    self.flip |= self.mask << shift
        # a degree field of every variable is the topmost field, so then
        # m >> deg_shift is the total degree of a packed m
        self.graded = len(self._deg_vars) == nvars
        # the packed variables, by which the normal-form walks multiply
        self.units = [self.pack(tuple(int(i == j) for j in range(nvars))) for i in range(nvars)]

    def pack(self, mon: Monomial) -> int:
        e = 0
        for x, s in zip(mon, self.shifts):
            e |= x << s
        if self._deg_vars:
            e |= sum(mon[i] for i in self._deg_vars) << self.deg_shift
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
        """Descending terms of packing `src`, of the same layout and no wider,
        in this one; widening keeps their order."""
        if src is self:
            return terms
        if src.layout[1] != self.layout[1]:
            raise ValueError(f"cannot repack width-{src.width} terms of another layout")
        return self.move(terms, src, tuple(range(len(self.shifts))))[1]

    def move(
        self,
        terms: list[tuple[int, int]],
        src: "Packing",
        places: tuple[int | None, ...],
        fill: int | None = None,
        divide: int = 0,
    ) -> tuple["Packing", list[tuple[int, int]]]:
        """Descending terms of packing `src` moved into this packing's layout:
        (packing, terms), in no particular order.

        Variable j of `src` goes to slot places[j] of the target, or is
        dropped where that is None; a dropped exponent must be one the others
        determine (0, or h of a homogeneous polynomial), so that no two terms
        meet.  `divide`, the plain int of a monomial dividing every term, is
        subtracted first.  Slot `fill` receives the degree the term lacks of
        the largest degree of the moved terms (homogenization).  The target's
        degree field is summed afresh.

        This packing must be at least as wide as `src`, so every exponent
        fits.  A degree fits too when the source's degree field sums every
        variable.  Otherwise the field sum of `top` bounds every degree first,
        and the packing returned is the same layout wider when the bound
        exceeds the mask, so that no degree field ever wraps.
        """
        key = (src, places, fill)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(src, places, fill)
        fields, bounded, summed, fill_sum = plan
        if bounded and terms:
            peak, mask, bound = src.top(terms), src.mask, 0
            for shift in src.shifts:
                bound += (peak >> shift) & mask
            if bound > self.mask:
                wider = packing_for(self.order, len(self.shifts), packing_width(bound))
                return wider.move(terms, src, places, fill, divide)
        sflip, flip, mask = src.flip, self.flip, src.mask
        moved = []
        for m, _ in terms:
            e = (m ^ sflip) - divide
            x = 0
            for a, b in fields:
                x |= ((e >> a) & mask) << b
            moved.append(x)
        if fill_sum is not None:
            exponents, spread, top, field, shift = fill_sum
            degrees = [((x & exponents) * spread >> top) & field for x in moved]
            d = max(degrees, default=0)
            moved = [x | (d - t) << shift for x, t in zip(moved, degrees)]
        if summed:
            low, spread, top = self.sum_low, self.sum_spread, self.sum_top
            field, shift = self.field_mask, self.deg_shift
            return self, [
                ((x | (((x >> low) * spread >> top) & field) << shift) ^ flip, t[1])
                for x, t in zip(moved, terms)
            ]
        return self, [(x ^ flip, t[1]) for x, t in zip(moved, terms)]

    def _plan(self, src: "Packing", places: tuple[int | None, ...], fill: int | None) -> tuple:
        """How `move` takes terms of `src` here: (fields, bounded, summed,
        fill_sum).  Each field is (source shift, target shift) of one kept
        variable.  `bounded` asks for the degree bound, `summed` for the
        degree field's sum, and `fill_sum` holds the constants that sum every
        exponent field for the filled slot."""
        slots = [k for k in places if k is not None] + ([] if fill is None else [fill])
        if (
            len(places) != len(src.shifts)
            or len(set(slots)) != len(slots)
            or not all(0 <= k < len(self.shifts) for k in slots)
        ):
            raise ValueError(f"cannot move {len(src.shifts)} variables to slots {places}, fill {fill}")
        if src.width > self.width:
            raise ValueError(f"cannot move width-{src.width} terms to width {self.width}")
        fields = tuple((src.shifts[j], self.shifts[k]) for j, k in enumerate(places) if k is not None)
        summed = self.deg_shift is not None
        fill_sum = None
        if fill is not None:
            nfields, step = len(self.layout[1]), self.width + 1
            fill_sum = (
                self.exponents,
                sum(1 << i * step for i in range(nfields)),
                (nfields - 1) * step,
                (1 << step) - 1,
                self.shifts[fill],
            )
        bounded = (summed or fill is not None) and not src.graded
        return fields, bounded, summed, fill_sum

    def top(self, terms: Iterable[tuple[int, int]]) -> int:
        """The field-wise max of the plain monomials of `terms`: a product
        with plain(b) fits iff top + plain(b) sets no guard bit.  (SWAR: a
        guard bit survives (a | guard) - b exactly in the fields where
        a >= b.)"""
        flip, guard, width, top = self.flip, self.guard, self.width, 0
        for m, _ in terms:
            m ^= flip
            d = ((top | guard) - m) & guard
            top = m ^ ((top ^ m) & (d - (d >> width)))
        return top

    def reducer(self, terms: list[tuple[int, int]], lcinv: int) -> tuple:
        """Division table entry of a descending packed term list: (plain
        lead, inverse lead coefficient, terms, `top` of the terms)."""
        return (terms[0][0] ^ self.flip, lcinv, terms, self.top(terms))


@functools.cache
def packing_for(order: MonomialOrder, nvars: int, width: int, /) -> Packing:
    """The one packing of `order` on `nvars` variables at `width` bits."""
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
    (descending).  A single-term divisor cancels its term exactly, as
    c * lc == the term's coefficient mod p, and touches no other term, so the
    loop records its quotient and moves past the term: no merge, no copy of
    the tail and no restart, with the quotients and remainder the merge
    would give.  Quotient terms, when collected, are keyed by packed
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
        if len(gterms) == 1:
            start += 1
        else:
            h = _merge_sub(h, start, gterms, term[0] - gterms[0][0], c, p)
            start = 0
    return remainder


class DivisorTable:
    """Divisors of one ring, packed under its order on first use and kept for
    reuse, as `Packing.reducer` entries that keep each divisor's scale.

    `division` and `normal_form` take one in place of a list, so that many
    dividends share one packing: a `GroebnerBasis` holds one for its normal
    forms, `certify_groebner` one for all S-pairs of a basis, `colon_element`
    one of (u), and `buchberger` one whose entries start its basis; it then
    `seed`s its result's table with the entries of the reduced basis.  `run`
    packs the table again, twice as wide, only when a product does not fit;
    packed at any width it picks the same divisors, so its quotients and
    remainders equal a fresh list's.  `ring` is the divisors' ring, read off
    them when there are any; a table with no divisors packs under it and has
    no entries, so a kernel run on it divides nothing (the zero ideal's walks
    in `lengths` and `ideals`).
    """

    __slots__ = ("divisors", "ring", "_width", "_packing", "_entries")

    def __init__(self, divisors: Sequence[Polynomial], ring: PolyRing | None = None):
        self.divisors = tuple(divisors)
        self.ring = self.divisors[0].ring if self.divisors else ring
        self._width = max((g.packing.width for g in self.divisors), default=0)
        self._packing: Packing | None = None
        self._entries: list[tuple] = []

    def __len__(self) -> int:
        return len(self.divisors)

    def packed(self, width: int) -> tuple[Packing, list[tuple]]:
        """The packing of at least `width` bits per field, and the entries."""
        if self._packing is None or self._packing.width < width:
            if any(g.is_zero() for g in self.divisors):
                raise ZeroPolynomial("cannot divide by the zero polynomial")
            ring = self.ring
            pk = packing_for(ring.order, ring.nvars, max(width, self._width))
            entries = []
            for g in self.divisors:
                terms = pk.repack(g.packed, g.packing)
                entries.append(pk.reducer(terms, pow(terms[0][1], -1, ring.p)))
            self.seed(pk, entries)
        return self._packing, self._entries

    def seed(self, packing: Packing, entries: list[tuple]) -> None:
        """Keep `entries`, the reducer entries of the divisors in order at
        `packing`, which must be what `packed` would form there: the next
        call at that width or below packs nothing."""
        self._packing, self._entries, self._width = packing, entries, packing.width

    def run(self, width: int, kernel: Callable[..., object], *args) -> tuple:
        """(packing, kernel(packing, entries, *args)) at a packing of at
        least `width` bits; on `_Overflow`, again at twice the packing's
        width.  The kernel must leave the entries as it found them."""
        while True:
            pk, entries = self.packed(width)
            try:
                return pk, kernel(pk, entries, *args)
            except _Overflow:
                width = 2 * pk.width


def _divide_kernel(pk: Packing, entries: list[tuple], f: Polynomial, with_quotients: bool):
    """`_divide`'s kernel for `DivisorTable.run`: (packed quotient dicts or
    None, packed remainder) of f against the entries."""
    quotients = [{} for _ in entries] if with_quotients else None
    h = pk.repack(f.packed, f.packing)
    return quotients, _reduce_sorted(h, entries, pk, f.ring.p, quotients)


def _divide(f: Polynomial, divisors: Sequence[Polynomial] | DivisorTable, with_quotients: bool):
    """Run the core on f against nonempty `divisors` by `DivisorTable.run`.
    A `DivisorTable` is used as it is and f moves into its ring; a list is
    packed afresh in f's ring.  Returns (ring, packing, packed quotient dicts
    or None, packed remainder)."""
    if isinstance(divisors, DivisorTable):
        table = divisors
        f = f.resorted(table.ring)
    else:
        table = DivisorTable([g.resorted(f.ring) for g in divisors])
    pk, (quotients, remainder) = table.run(f.packing.width, _divide_kernel, f, with_quotients)
    return f.ring, pk, quotients, remainder


def division(
    f: Polynomial, divisors: Sequence[Polynomial] | DivisorTable
) -> tuple[list[Polynomial], Polynomial]:
    """Divide f by the list of divisors under f's ring order; return
    (quotients, remainder), all in f's ring.

    Guarantees: f == sum(q_i * g_i) + r exactly; no term of r is divisible by
    any leading monomial of the divisors; for every nonzero quotient term t,
    lm(t * g_i) <= lm(f).  Ties go to the first divisor in list order, and the
    largest reducible term is always rewritten first, so the output is a
    deterministic function of the inputs.

    `divisors` may be a `DivisorTable`, which keeps its packing from one call
    to the next; f is then first moved into the ring of its divisors, where
    the quotients and remainder lie.  Only the packing is reused: every call
    divides afresh.
    """
    if not divisors:
        return [], f
    ring, pk, quotients, remainder = _divide(f, divisors, True)
    zero = Polynomial(ring, pk, [])  # shared by the divisors that took no step
    return (
        [
            Polynomial(ring, pk, sorted([t for t in q.items() if t[1]], reverse=True))
            if q
            else zero
            for q in quotients
        ],
        Polynomial(ring, pk, remainder),
    )


def normal_form(f: Polynomial, divisors: Sequence[Polynomial] | DivisorTable) -> Polynomial:
    """Remainder of f on division by `divisors` under f's ring order (no
    quotients are formed).  As in `division`, `divisors` may be a
    `DivisorTable`, and f then moves into its ring.
    """
    if not divisors:
        return f
    ring, pk, _, remainder = _divide(f, divisors, False)
    return Polynomial(ring, pk, remainder)


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
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
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


# How deep parentheses and unary minus may nest in one expression; deeper
# text is refused as a syntax error before the descent exhausts Python's stack.
_MAX_NESTING = 100


class _ExprParser:
    """Recursive descent for +, -, *, ^, parentheses over ring variables."""

    def __init__(self, ring: PolyRing, tokens, names: Mapping[str, Polynomial] | None):
        self.ring = ring
        self.tokens = list(tokens)
        self.pos = 0
        self.names = names or {}
        self.depth = 0  # open parentheses and unary minus signs

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
        if kind == "op" and value in ("(", "-"):
            if self.depth == _MAX_NESTING:
                self.fail(f"expression nested deeper than {_MAX_NESTING} levels", at)
            self.depth += 1
            if value == "(":
                inner = self.parse_expr()
                self.expect_op(")")
            else:
                inner = -self.parse_factor()
            self.depth -= 1
            return inner
        self.fail(f"unexpected token {value!r}", at)


def parse_polynomial(
    ring: PolyRing, text: str, names: Mapping[str, Polynomial] | None = None
) -> Polynomial:
    """Parse an expression like `3*s^2*x*y^4 + x - 7` into `ring`.

    `names` supplies bindings for non-variable identifiers.  A `#` comment may
    follow the expression.  Malformed text raises ExpressionError, a
    ValueError whose message ends in `at position N`; so does text whose
    parentheses and unary minus signs nest more than `_MAX_NESTING` deep.
    """
    parser = _ExprParser(ring, tokenize_expression(text), names)
    result = parser.parse_expr()
    kind, value, at = parser.peek()
    if kind != "end":
        parser.fail(f"trailing input {value!r}", at)
    return result
