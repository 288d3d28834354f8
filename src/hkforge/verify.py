"""Mechanical verification of a three-variable hypersurface family and the
Katzman-style nested pair built on it.

The family lives in A = F_p[s, x, y] under lex with s > x > y.  For an odd
prime p and m >= 4 with p not dividing m, set n = 2m + 1 and

    g = x*y*(x - y)*(x + y - s*y),
    f = sum_{j=2}^{n-1} (-1)^j x^(n+1-j) y^j,
    e = (x^n, y^n, g),      h = e + (f),      b = (x, y)^(n+2).

Seven claims are checked outright: b <= e; s*f in e; x*f and y*f in e;
f not in e with (e : f) equal to the maximal ideal; h is s-saturated;
the s- and m-saturations of e both equal h; and the m-torsion of A/e has
length exactly 1.  On top of that, an explicitly written-down generating set
of e is certified to be a Groebner basis, as is the (n+5)-entry elimination
basis used to saturate h at s.

The Katzman pair takes J = (x^p, y^p) and I = (x, y)^p modulo g; for q = p^e
the bracketed pair J^[q] + (g) <= I^[q] + (g) reproduces the family with
n = p*q, and the element z = f witnesses that the maximal ideal is associated
to I^[q]/J^[q] while the m-torsion stays of length exactly one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import config
from .errors import CapExceeded, EngineError
from .groebner import certify_groebner
from .ideals import (
    Ideal,
    colon_element,
    ideal_equal,
    maximal_ideal,
    saturate,
    unit_ideal,
)
from .lengths import gamma_length
from .polyring import Lex, PolyRing, Polynomial, is_prime

__all__ = [
    "ConstructionData",
    "ClaimReport",
    "build_construction",
    "construction_basis",
    "aux_saturation_basis",
    "verify_construction",
    "verify_katzman",
]


class PreconditionError(EngineError):
    """A parameter set the family is not defined for."""


@dataclass(frozen=True)
class ConstructionData:
    """The instantiated family for one (p, m)."""

    p: int
    m: int
    n: int
    ring: PolyRing
    g: Polynomial
    f: Polynomial
    b: Ideal
    e: Ideal
    h: Ideal

    @property
    def max_ideal(self) -> Ideal:
        return maximal_ideal(self.ring)


@dataclass(frozen=True)
class Claim:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of a verification run: named claims plus parameters."""

    target: str
    params: dict
    claims: tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        return all(claim.passed for claim in self.claims)

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": self.target,
                "params": self.params,
                "pass": self.ok,
                "claims": [
                    {"label": c.label, "pass": c.passed, "detail": c.detail}
                    for c in self.claims
                ],
            },
            sort_keys=True,
        )


def build_construction(p: int, m: int) -> ConstructionData:
    """Instantiate the family; rejects parameters it is not defined for."""
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if p == 2:
        raise PreconditionError("p must be odd")
    if m < 4:
        raise PreconditionError(f"m = {m} < 4")
    if m % p == 0:
        raise PreconditionError(f"p = {p} divides m = {m}")
    n = 2 * m + 1
    ring = PolyRing(p, ("s", "x", "y"), Lex())
    s, x, y = ring.gens()
    g = x * y * (x - y) * (x + y - s * y)
    f = ring.zero()
    for j in range(2, n):
        f = f + ((-1) ** j) * x ** (n + 1 - j) * y**j
    b = Ideal(ring, [x**i * y ** (n + 2 - i) for i in range(n + 3)])
    e = Ideal(ring, [x**n, y**n, g])
    h = e + Ideal(ring, [f])
    return ConstructionData(p, m, n, ring, g, f, b, e, h)


def construction_basis(data: ConstructionData) -> list[Polynomial]:
    """The explicit generating set {g, x^n, x^(n-1) y^3, ..., x^3 y^(n-1), y^n}
    of e, which certifies as a Groebner basis under lex(s > x > y)."""
    ring = data.ring
    s, x, y = ring.gens()
    n = data.n
    basis = [data.g, x**n]
    basis += [x ** (n - j) * y ** (j + 2) for j in range(1, n - 2)]
    basis += [y**n]
    return basis


def aux_saturation_basis(p: int, m: int) -> tuple[PolyRing, list[Polynomial]]:
    """The explicit (n+5)-entry Groebner basis of t*h*B + (1-t)*s*B in
    B = F_p[t, s, x, y] under lex, used to read off h ∩ (s).

    Returns (B, entries); entry order follows the hand construction: the
    relation t*s - s first, then the t-multiples of the monomial generators
    and the two mixed elements, then the s-multiples.
    """
    data = build_construction(p, m)
    n = data.n
    aux = PolyRing(p, ("t", "s", "x", "y"), Lex())
    t, s, x, y = aux.gens()
    g = aux.rebase(data.g)
    f = aux.rebase(data.f)
    c = t * x**3 * y - t * x * y**3 - s * x**2 * y**2 + s * x * y**3
    d = m * t * x**2 * y ** (n - 1)
    for j in range(1, n - 2):
        d = d + ((-1) ** (j - 1)) * j * s * x ** (n - 1 - j) * y ** (j + 2)
    entries = [t * s - s, t * x**n, c, d, t * y**n, -(s * g), s * x**n, s * f]
    entries += [s * x ** (n - j) * y ** (j + 2) for j in range(2, n - 2)]
    entries += [s * y**n]
    return aux, entries


def verify_construction(p: int, m: int) -> ClaimReport:
    """Check all seven claims of the family plus the explicit-basis certificate."""
    data = build_construction(p, m)
    ring = data.ring
    s, x, y = ring.gens()
    m_ideal = data.max_ideal
    claims: list[Claim] = []

    def record(label: str, passed: bool, detail: str) -> None:
        claims.append(Claim(label, passed, detail))

    inside = [data.e.contains(gen) for gen in data.b.generators]
    record("1: b <= e", all(inside), f"{sum(inside)}/{len(inside)} generators of (x,y)^{data.n + 2} lie in e")

    record("2: s*f in e", data.e.contains(s * data.f), "multiplying f by s lands in e")

    xf = data.e.contains(x * data.f)
    yf = data.e.contains(y * data.f)
    record("3: x*f, y*f in e", xf and yf, f"x*f: {xf}, y*f: {yf}")

    f_outside = not data.e.contains(data.f)
    colon_is_max = ideal_equal(colon_element(data.e, data.f), m_ideal)
    record(
        "4: f not in e and (e : f) = m",
        f_outside and colon_is_max,
        f"f outside: {f_outside}, colon equals (s,x,y): {colon_is_max}",
    )

    record(
        "5: (h : s) = h",
        ideal_equal(colon_element(data.h, s), data.h),
        "h is s-saturated",
    )

    sat_s, steps_s = saturate(data.e, s)
    sat_m, steps_m = saturate(data.e, m_ideal)
    claim6 = ideal_equal(sat_s, data.h) and ideal_equal(sat_m, data.h)
    record(
        "6: e : s^inf = e : m^inf = h",
        claim6,
        f"s-saturation in {steps_s} step(s), m-saturation in {steps_m} step(s)",
    )

    torsion = gamma_length(data.e, unit_ideal(ring))
    record(
        "7: len Gamma_m(A/e) = 1",
        torsion.finite and torsion.value == 1,
        f"computed length {torsion.value}",
    )

    explicit = construction_basis(data)
    cert = certify_groebner(explicit, ring.order)
    computed_lms = set(data.e.groebner_basis().leading_monomials())
    explicit_lms = {g.leading_monomial(ring.order) for g in explicit}
    record(
        "basis: explicit set certifies",
        cert.ok and computed_lms == explicit_lms,
        f"certificate pass: {cert.ok}, leading monomials match: {computed_lms == explicit_lms}",
    )

    return ClaimReport("construction", {"p": p, "m": m, "n": data.n}, tuple(claims))


def verify_katzman(p: int, e: int, slow: bool = False) -> ClaimReport:
    """Check the nested-pair witnesses at q = p^e.

    Levels e >= 2 bracket up to n = p^(e+1) and are gated behind `slow`.
    """
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"p must be an odd prime, got {p}")
    if e < 1:
        raise PreconditionError(f"e must be at least 1, got {e}")
    cap = config.bracket_cap()
    if e > cap:
        raise CapExceeded(f"e = {e} exceeds the bracket cap {cap}")
    if e >= 2 and not slow:
        raise PreconditionError(
            f"e = {e} brackets exponents up to {p ** (e + 1)}; pass slow=True (--slow)"
        )
    q = p**e
    n = p * q
    data = build_construction(p, (n - 1) // 2)
    ring = data.ring
    s, x, y = ring.gens()
    g_ideal = Ideal(ring, [data.g])
    m_ideal = data.max_ideal

    j_ideal = Ideal(ring, [x**p, y**p])
    i_ideal = Ideal(ring, [x, y]) ** p
    j_q = j_ideal.bracket(e) + g_ideal
    i_q = i_ideal.bracket(e) + g_ideal
    z = data.f

    claims: list[Claim] = []

    def record(label: str, passed: bool, detail: str) -> None:
        claims.append(Claim(label, passed, detail))

    if not ideal_equal(j_q, data.e):
        raise EngineError("internal: J^[q] + (g) must equal (x^n, y^n, g)")

    record("i: z in I^[q] + (g)", i_q.contains(z), f"q = {q}")
    record("ii: z not in J^[q] + (g)", not j_q.contains(z), f"n = {n}")
    record(
        "iii: (J^[q] + (g) : z) = m",
        ideal_equal(colon_element(j_q, z), m_ideal),
        "the maximal ideal is associated to I^[q]/J^[q]",
    )

    witness_ideal = Ideal(ring, [x ** (p * q), y ** (p * q), x * y * (x - y)])
    witness = x**q * y ** ((p - 1) * q)
    sat_witness, _ = saturate(witness_ideal, s)
    stepwise = all(
        not witness_ideal.contains(s**k * witness) for k in range(3)
    )
    record(
        "iv: x^q y^((p-1)q) survives s-saturation",
        (not sat_witness.contains(witness)) and stepwise,
        "non-membership holds after saturation and at s-powers 0, 1, 2",
    )

    torsion = gamma_length(j_q, i_q)
    record(
        "v: len Gamma_m(I^[q]/J^[q]) = 1",
        torsion.finite and torsion.value == 1,
        f"computed length {torsion.value} (bound is 1)",
    )

    return ClaimReport("katzman", {"p": p, "e": e, "q": q, "n": n}, tuple(claims))
