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
of e is certified to be a Groebner basis.  Claims 5 and 6 share e's one
saturation at s: once claims 2-3 put m*f inside e, h/e is the line F_p*f,
so e : s^inf <= h is read off normal forms modulo e's basis (`_within_line`),
and h = e : s^inf is then s-saturated itself.

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
    _saturate_variable,
    _saturation_steps,
    bracket_power,
    ideal_equal,
    unit_ideal,
)
from .lengths import _gamma_length, gamma_length
from .polyring import Lex, PolyRing, Polynomial, is_prime

__all__ = [
    "ConstructionData",
    "ClaimReport",
    "build_construction",
    "construction_basis",
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
    f = ring.polynomial(((0, n + 1 - j, j), (-1) ** j) for j in range(2, n))
    b = Ideal(ring, [ring.monomial(0, i, n + 2 - i) for i in range(n + 3)])
    e = Ideal(ring, [x**n, y**n, g])
    h = e + Ideal(ring, [f])
    return ConstructionData(p, m, n, ring, g, f, b, e, h)


def construction_basis(data: ConstructionData) -> list[Polynomial]:
    """The explicit generating set {g, x^n, x^(n-1) y^3, ..., x^3 y^(n-1), y^n}
    of e, which certifies as a Groebner basis under lex(s > x > y)."""
    ring = data.ring
    n = data.n
    basis = [data.g, ring.monomial(0, n, 0)]
    basis += [ring.monomial(0, n - j, j + 2) for j in range(1, n - 2)]
    basis += [ring.monomial(0, 0, n)]
    return basis


def _within_line(ideal: Ideal, e: Ideal, f: Polynomial) -> bool:
    """ideal <= e + (f), for an f with m*f <= e.

    Then (e + (f))/e is the line F_p*f, since A = F_p + m, so a generator
    lies in e + (f) exactly when its normal form modulo e is a scalar
    multiple of f's, zero included; a normal form is F_p-linear with kernel
    e.  Both are read off e's basis under the ring's order."""
    basis = e.groebner_basis()
    line = basis.reduce(f)
    for g in ideal.generators:
        nf = basis.reduce(g)
        if not nf:
            continue
        if not line:
            return False
        c = nf.leading_term()[0] * pow(line.leading_term()[0], -1, e.ring.p)
        if nf != line * c:
            return False
    return True


def verify_construction(p: int, m: int) -> ClaimReport:
    """Check all seven claims of the family plus the explicit-basis certificate.

    Claims 5 and 6 build no basis beyond e's saturation at s: claim 6 reads
    sat <= h off `_within_line` once claims 2-3 hold and h is e + (f), and
    falls back to `ideal_equal` otherwise; claim 5 saturates h only when
    claim 6 fails."""
    data = build_construction(p, m)
    ring = data.ring
    s, x, y = ring.gens()
    claims: list[Claim] = []

    def record(label: str, passed: bool, detail: str) -> None:
        claims.append(Claim(label, passed, detail))

    inside = [data.e.contains(gen) for gen in data.b.generators]
    record("1: b <= e", all(inside), f"{sum(inside)}/{len(inside)} generators of (x,y)^{data.n + 2} lie in e")

    sf = data.e.contains(s * data.f)
    record("2: s*f in e", sf, "multiplying f by s lands in e")

    xf = data.e.contains(x * data.f)
    yf = data.e.contains(y * data.f)
    record("3: x*f, y*f in e", xf and yf, f"x*f: {xf}, y*f: {yf}")

    # m is maximal: e : f = m iff f is not in e and s*f, x*f, y*f are (claims 2-3)
    f_outside = not data.e.contains(data.f)
    colon_is_max = f_outside and sf and xf and yf
    record(
        "4: f not in e and (e : f) = m",
        colon_is_max,
        f"f outside: {f_outside}, colon equals (s,x,y): {colon_is_max}",
    )

    # one saturation serves both: e : m^inf <= e : s^inf = sat, and the m-walk
    # ends only once m^k * sat <= e, which puts sat inside e : m^inf
    s_index = ring.variables.index("s")
    sat = _saturate_variable(data.e, s_index)
    steps_s = _saturation_steps(data.e, sat, [s_index])
    steps_m = _saturation_steps(data.e, sat, range(ring.nvars))
    if sf and xf and yf and data.h.generators == data.e.generators + (data.f,):
        # h <= sat, as e <= sat and s*f in e; m*f <= e, so sat <= h is a
        # question about the line h/e
        sat_is_h = _within_line(sat, data.e, data.f)
    else:
        sat_is_h = ideal_equal(sat, data.h)

    # h = sat is s-saturated; otherwise saturate h itself: buchberger's bases
    # are reduced, so no element of the basis that saturates h at s holds s,
    # and h comes back itself, unless h : s != h
    h_saturated = sat_is_h or _saturate_variable(data.h, s_index) is data.h
    record("5: (h : s) = h", h_saturated, "h is s-saturated")
    record(
        "6: e : s^inf = e : m^inf = h",
        sat_is_h,
        f"s-saturation in {steps_s} step(s), m-saturation in {steps_m} step(s)",
    )

    torsion = _gamma_length(data.e, unit_ideal(ring), sat)
    record(
        "7: len Gamma_m(A/e) = 1",
        torsion.finite and torsion.value == 1,
        f"computed length {torsion.value}",
    )

    explicit = construction_basis(data)
    cert = certify_groebner(explicit, ring.order)
    computed_lms = set(data.e.groebner_basis().leading_monomials())
    explicit_lms = {g.leading_monomial() for g in explicit}
    record(
        "basis: explicit set certifies",
        cert.ok and computed_lms == explicit_lms,
        f"certificate pass: {cert.ok}, leading monomials match: {computed_lms == explicit_lms}",
    )

    return ClaimReport("construction", {"p": p, "m": m, "n": data.n}, tuple(claims))


def verify_katzman(p: int, e: int, slow: bool = False) -> ClaimReport:
    """Check the nested-pair witnesses at q = p^e.

    Levels e >= 2 bracket up to n = p^(e+1) and are gated behind `slow`.
    The torsion of claim v is measured first, so that the degrevlex basis of
    J^[q] + (g) its saturation builds answers claims ii and iii; the claims
    are still recorded i to v.
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

    j_ideal = Ideal(ring, [x**p, y**p])
    i_ideal = Ideal(ring, [x, y]) ** p
    j_q = bracket_power(j_ideal, e) + g_ideal
    i_q = bracket_power(i_ideal, e) + g_ideal
    z = data.f

    claims: list[Claim] = []

    def record(label: str, passed: bool, detail: str) -> None:
        claims.append(Claim(label, passed, detail))

    if not ideal_equal(j_q, data.e):
        raise EngineError("internal: J^[q] + (g) must equal (x^n, y^n, g)")

    # the torsion goes first: the saturation in it builds the degrevlex basis
    # of J^[q] + (g), which then answers claims ii and iii, so no basis of it
    # under the ring's order is built
    torsion = gamma_length(j_q, i_q)

    record("i: z in I^[q] + (g)", i_q.contains(z), f"q = {q}")
    record("ii: z not in J^[q] + (g)", not j_q.contains(z), f"n = {n}")
    # m is maximal: (J^[q] + (g)) : z = m iff z is outside it and every v*z inside
    record(
        "iii: (J^[q] + (g) : z) = m",
        not j_q.contains(z) and all(j_q.contains(v * z) for v in ring.gens()),
        "the maximal ideal is associated to I^[q]/J^[q]",
    )

    witness_ideal = Ideal(ring, [x ** (p * q), y ** (p * q), x * y * (x - y)])
    witness = x**q * y ** ((p - 1) * q)
    sat_witness = _saturate_variable(witness_ideal, ring.variables.index("s"))
    stepwise = all(
        not witness_ideal.contains(s**k * witness) for k in range(3)
    )
    record(
        "iv: x^q y^((p-1)q) survives s-saturation",
        (not sat_witness.contains(witness)) and stepwise,
        "non-membership holds after saturation and at s-powers 0, 1, 2",
    )

    record(
        "v: len Gamma_m(I^[q]/J^[q]) = 1",
        torsion.finite and torsion.value == 1,
        f"computed length {torsion.value} (bound is 1)",
    )

    return ClaimReport("katzman", {"p": p, "e": e, "q": q, "n": n}, tuple(claims))
