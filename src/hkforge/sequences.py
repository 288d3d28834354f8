"""Finite prefixes of the numerical sequences attached to a nested pair of
ideals: the Hilbert-Kunz function, the relative-multiplicity numerators (rjj),
their bracketed-torsion variant (sjj), the Nakayama-style variant (vjj), the
torsion-layer sequences l_e / f_e with their difference criterion, and the
sandwich inequality that pins the f-difference between two length sums.

Everything is reported as exact integers and rationals over a finite window;
no limits are asserted anywhere.  Quotient-ring computations (modulo one named
hypersurface) are supported by adjoining the hypersurface polynomial to every
ideal after bracketing, which leaves all lengths unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import config
from .errors import ContainmentError, InfiniteColength
from .ideals import Ideal, bracket_power, dimension, maximal_ideal, unit_ideal
from .lengths import (
    finite_colength_length,
    gamma_length,
    gamma_submodule,
    nilpotency_exponent,
    subquotient_length,
)
from .polyring import PolyRing, Polynomial

__all__ = [
    "SequenceEntry",
    "SequenceReport",
    "SandwichRecord",
    "hk_function",
    "rjj_sequence",
    "sjj_sequence",
    "vjj_sequence",
    "lf_sequences",
    "f_difference_sequence",
    "check_sandwich",
    "window_bound_check",
]


@dataclass(frozen=True)
class SequenceEntry:
    e: int
    q: int
    raw: int
    scaled: Fraction


@dataclass(frozen=True)
class SequenceReport:
    """A finite prefix of one sequence: per-e raw lengths and raw/q^d."""

    kind: str
    p: int
    d: int
    entries: tuple[SequenceEntry, ...]
    meta: dict = field(default_factory=dict)

    def raw_values(self) -> list[int]:
        return [entry.raw for entry in self.entries]

    def scaled_values(self) -> list[Fraction]:
        return [entry.scaled for entry in self.entries]

    def running_max(self) -> Fraction:
        return max(self.scaled_values())

    def running_min(self) -> Fraction:
        return min(self.scaled_values())

    def csv_rows(self) -> list[str]:
        return [
            f"{self.kind},{entry.e},{entry.q},{entry.raw},"
            f"{entry.scaled.numerator},{entry.scaled.denominator}"
            for entry in self.entries
        ]

    def to_csv(self) -> str:
        return "\n".join(["kind,e,q,raw,scaled_num,scaled_den", *self.csv_rows()])

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "p": self.p,
            "d": self.d,
            "entries": [
                {
                    "e": entry.e,
                    "q": entry.q,
                    "raw": entry.raw,
                    "scaled": f"{entry.scaled.numerator}/{entry.scaled.denominator}",
                }
                for entry in self.entries
            ],
            "window": {
                "max": str(self.running_max()),
                "min": str(self.running_min()),
                "note": "finite window; running extrema are not asserted limits",
            },
            **self.meta,
        }
        return json.dumps(payload, sort_keys=True)


def _entry(e: int, p: int, raw: int, d: int) -> SequenceEntry:
    q = p**e
    return SequenceEntry(e, q, raw, Fraction(raw, q**d))


def _with_hypersurface(ideal: Ideal, hypersurface: Polynomial | None) -> Ideal:
    if hypersurface is None:
        return ideal
    return ideal + Ideal(ideal.ring, [hypersurface])


def _bracket(ideal: Ideal, e: int, hypersurface: Polynomial | None) -> Ideal:
    """Bracket power in the ambient ring, re-adjoining the hypersurface.

    Over R = A/(g) the bracket of (an ideal containing g) corresponds to
    bracketing the other generators and adding g back, not to g^(p^e).
    """
    return _with_hypersurface(bracket_power(ideal, e), hypersurface)


def default_scaling_exponent(ring: PolyRing, hypersurface: Polynomial | None = None) -> int:
    """Dimension of the ambient quotient: nvars, less one per hypersurface."""
    gens = [] if hypersurface is None else [hypersurface]
    return dimension(Ideal(ring, gens))


def _check_nested(j_ideal: Ideal, i_ideal: Ideal, hypersurface: Polynomial | None) -> tuple[Ideal, Ideal]:
    j_full = _with_hypersurface(j_ideal, hypersurface)
    i_full = _with_hypersurface(i_ideal, hypersurface)
    if not i_full.contains_ideal(j_full):
        raise ContainmentError("the sequence needs J <= I")
    return j_full, i_full


def _meta(ring: PolyRing, hypersurface: Polynomial | None, **ideals: Ideal) -> dict:
    meta = {
        "ring": {
            "p": ring.p,
            "variables": list(ring.variables),
            "order": ring.order.describe(),
        },
        "ideals": {
            name: [str(g) for g in ideal.generators] for name, ideal in ideals.items()
        },
    }
    if hypersurface is not None:
        meta["hypersurface"] = str(hypersurface)
    return meta


# ---------------------------------------------------------------------------
# the sequences

def hk_function(
    ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len(R/I^[q]) for q = p^e, e = 0..e_max, scaled by q^d."""
    ring = ideal.ring
    if d is None:
        d = default_scaling_exponent(ring, hypersurface)
    entries = []
    for e in range(e_max + 1):
        bracketed = _bracket(ideal, e, hypersurface)
        length = finite_colength_length(bracketed)
        if not length.finite:
            raise InfiniteColength(
                f"R/I^[p^{e}] does not have finite length: {length.note}"
            )
        entries.append(_entry(e, ring.p, length.value, d))
    return SequenceReport("hk", ring.p, d, tuple(entries), _meta(ring, hypersurface, I=ideal))


def rjj_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len(Gamma_m(I^[q]/J^[q])) for e = 0..e_max, scaled by q^d."""
    ring = j_ideal.ring
    _check_nested(j_ideal, i_ideal, hypersurface)
    if d is None:
        d = default_scaling_exponent(ring, hypersurface)
    entries = []
    for e in range(e_max + 1):
        raw = gamma_length(
            _bracket(j_ideal, e, hypersurface), _bracket(i_ideal, e, hypersurface)
        ).expect()
        entries.append(_entry(e, ring.p, raw, d))
    return SequenceReport(
        "rjj", ring.p, d, tuple(entries), _meta(ring, hypersurface, J=j_ideal, I=i_ideal)
    )


def sjj_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len of the image of (Gamma_m(I/J))^[q] inside R/J^[q], e = 0..e_max.

    The torsion submodule H is computed once from the unbracketed pair; each
    entry then measures (H^[q] + J^[q]) / J^[q].
    """
    ring = j_ideal.ring
    j_full, i_full = _check_nested(j_ideal, i_ideal, hypersurface)
    if d is None:
        d = default_scaling_exponent(ring, hypersurface)
    h = gamma_submodule(j_full, i_full)
    entries = []
    for e in range(e_max + 1):
        j_e = _bracket(j_ideal, e, hypersurface)
        u = _bracket(h, e, hypersurface) + j_e
        raw = subquotient_length(u, j_e).expect()
        entries.append(_entry(e, ring.p, raw, d))
    return SequenceReport(
        "sjj", ring.p, d, tuple(entries), _meta(ring, hypersurface, J=j_ideal, I=i_ideal)
    )


def vjj_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len(I^[q] / (J + m*I)^[q]) for e = 0..e_max; finite because I/(J + m*I)
    is spanned by the classes of the generators of I."""
    ring = j_ideal.ring
    _check_nested(j_ideal, i_ideal, hypersurface)
    if d is None:
        d = default_scaling_exponent(ring, hypersurface)
    k_ideal = j_ideal + maximal_ideal(ring) * i_ideal
    entries = []
    for e in range(e_max + 1):
        raw = subquotient_length(
            _bracket(i_ideal, e, hypersurface), _bracket(k_ideal, e, hypersurface)
        ).expect()
        entries.append(_entry(e, ring.p, raw, d))
    return SequenceReport(
        "vjj", ring.p, d, tuple(entries), _meta(ring, hypersurface, J=j_ideal, I=i_ideal)
    )


def lf_sequences(
    k_ideal: Ideal,
    e_max: int,
    hypersurface: Polynomial | None = None,
) -> tuple[list[int], list[int]]:
    """The torsion-layer lengths l_e = len(Gamma_m(K^[p^e]/K^[p^(e+1)])) and
    their prefix sums f.

    Returns (l, f) with l = [l_(-1), l_0, ..., l_(e_max - 1)] and
    f = [f_0, ..., f_e_max], where l_(-1) measures Gamma_m(R/K) (the bracket
    with exponent -1 is read as the whole ring) and f_n = l_(-1) + ... +
    l_(n-1).  Each bracket level is built once, as one ideal that serves as J
    in l_(e-1) and as I in l_e, so its basis is built once too."""
    levels = [_bracket(k_ideal, e, hypersurface) for e in range(e_max + 1)]
    l_values = [gamma_length(levels[0], unit_ideal(k_ideal.ring)).expect()]
    l_values += [
        gamma_length(levels[e + 1], levels[e]).expect() for e in range(e_max)
    ]
    f_values = []
    total = 0
    for value in l_values:
        total += value
        f_values.append(total)
    return l_values, f_values


def f_difference_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """f_n(J) - f_n(I) for n = 0..e_max, scaled by q^d; signed."""
    ring = j_ideal.ring
    _check_nested(j_ideal, i_ideal, hypersurface)
    if d is None:
        d = default_scaling_exponent(ring, hypersurface)
    _, f_j = lf_sequences(j_ideal, e_max, hypersurface)
    _, f_i = lf_sequences(i_ideal, e_max, hypersurface)
    entries = [
        _entry(n, ring.p, f_j[n] - f_i[n], d) for n in range(e_max + 1)
    ]
    return SequenceReport(
        "fdiff", ring.p, d, tuple(entries), _meta(ring, hypersurface, J=j_ideal, I=i_ideal)
    )


# ---------------------------------------------------------------------------
# the sandwich inequality

@dataclass(frozen=True)
class SandwichRecord:
    """len(I^[p^n]/J^[p^n])  <=  f_n(J) - f_n(I)  <=  sum of the layer lengths.

    The two outer quantities are plain length computations; the middle one
    goes through the torsion-layer sequences, so the inequality cross-checks
    the two routes with exact integers."""

    n: int
    lower: int
    middle: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower <= self.middle <= self.upper

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "lower": self.lower,
                "middle": self.middle,
                "upper": self.upper,
                "holds": self.holds,
            },
            sort_keys=True,
        )


def check_sandwich(
    j_ideal: Ideal,
    i_ideal: Ideal,
    n: int,
    hypersurface: Polynomial | None = None,
) -> SandwichRecord:
    """Compute the three quantities at level n and return them as a record."""
    j_full, i_full = _check_nested(j_ideal, i_ideal, hypersurface)
    cap = config.DEFAULT_NILPOTENCY_CAP
    if nilpotency_exponent(i_full, j_full, cap) is None:
        raise InfiniteColength(
            "check_sandwich needs len(I/J) finite: I/J must be supported at the origin,"
            f" with m^n I <= J for some n <= {cap}"
        )

    def layer(j: int) -> int:
        return subquotient_length(
            _bracket(i_ideal, j, hypersurface), _bracket(j_ideal, j, hypersurface)
        ).expect()

    lower = layer(n)
    upper = sum(layer(j) for j in range(n + 1))
    _, f_j = lf_sequences(j_ideal, n, hypersurface)
    _, f_i = lf_sequences(i_ideal, n, hypersurface)
    middle = f_j[n] - f_i[n]
    return SandwichRecord(n, lower, middle, upper)


def window_bound_check(report: SequenceReport) -> dict:
    """Heuristic boundedness probe for raw_e <= C * q^(d-1).

    Checks that raw_e / q^(d-1) is non-increasing over the window, or at least
    bounded by the maximum of the first three entries.  A finite window cannot
    certify the bound, so the result is flagged heuristic."""
    values = [
        Fraction(entry.raw, entry.q ** max(report.d - 1, 0)) for entry in report.entries
    ]
    non_increasing = all(a >= b for a, b in zip(values, values[1:]))
    head = max(values[: min(3, len(values))]) if values else Fraction(0)
    bounded = all(v <= head for v in values)
    return {
        "ok": non_increasing or bounded,
        "window_bound": str(head),
        "non_increasing": non_increasing,
        "heuristic": True,
        "note": "observed-window surrogate; not a proof of the asymptotic bound",
    }
