"""Finite prefixes of the numerical sequences attached to a nested pair of
ideals: the Hilbert-Kunz function, the relative-multiplicity numerators (rjj),
their bracketed-torsion variant (sjj), the Nakayama-style variant (vjj), the
torsion-layer sequences l_e / f_e with their difference criterion, and the
sandwich inequality that pins the f-difference between two length sums.

Everything is reported as exact integers and rationals over a finite window;
no limits are asserted anywhere.  Quotient-ring computations (modulo one named
hypersurface g) are supported by adjoining g to every ideal after bracketing,
which leaves all lengths unchanged.

Every sequence reads its ideals from a ladder, the Frobenius levels
I^[p^e] + (g), e = 0..e_max, of one ideal I.  A level is made on first read
and then kept, so each level and its Groebner basis are built once per call:
the containment check J <= I runs on level 0 of the two ladders, which the
e = 0 entry then reuses, and the l/f sequences, the f-difference and the
sandwich read their layers off the same levels.  That one check covers every
pair measured: bracketing and adding (g) keep J <= I, and J + m*I <= I,
H >= J and level e+1 <= level e hold by construction.  Each such length is
finite by proof (Gamma_m of a finite module, I/(J + m*I) spanned by I's
generators, the sandwich's layers once its support guard holds), so the
sequences call `_gamma_length` and `_subquotient_length` with no re-check and
no level cap.  The ladder also keeps level 0's J : m^infinity, which the
sandwich's support guard and the first torsion layer l_(-1) share.  The ladder
refuses an e_max outside 0..`config.bracket_cap()` before any basis is built,
and so does `_scaling_exponent` a negative d, or a constant hypersurface when d
is left to default.  One report builder scales the raw lengths by q^d and
records d and the meta.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import config
from .errors import CapExceeded, ContainmentError, EmptyVariety, InfiniteColength
from .ideals import Ideal, bracket_power, maximal_ideal, unit_ideal
from .lengths import (
    _gamma_length,
    _m_saturation,
    _subquotient_length,
    finite_colength_length,
    gamma_submodule,
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


class _Ladder:
    """The levels I^[p^e] + (g), e = 0..e_max, of one ideal I (I^[p^e] with
    no hypersurface g), each made on first read and then kept.

    Over A/(g) the bracket of an ideal holding g brackets the other generators
    and adds g back, not g^(p^e).  With no hypersurface, level 0 is I itself
    and `bracket_power` hands each later level every reduced basis that level
    0 has built by then, one per order; an eager list would make the levels
    before that.
    """

    def __init__(self, ideal: Ideal, e_max: int, hypersurface: Polynomial | None):
        if e_max < 0:
            raise ValueError(f"the top Frobenius exponent must be non-negative, got {e_max}")
        cap = config.bracket_cap()
        if e_max > cap:
            raise CapExceeded(f"bracket exponent {e_max} exceeds cap {cap}")
        self.ideal = ideal
        self.e_max = e_max
        self.hypersurface = hypersurface
        self._levels: list[Ideal] = []

    def __getitem__(self, e: int) -> Ideal:
        while len(self._levels) <= e:
            level = bracket_power(self.ideal, len(self._levels))
            if self.hypersurface is not None:
                level += Ideal(level.ring, [self.hypersurface])
            self._levels.append(level)
        return self._levels[e]

    def __iter__(self):
        return (self[e] for e in range(self.e_max + 1))

    @functools.cached_property
    def saturation(self) -> Ideal | None:
        """`_m_saturation` of level 0, made on first read and then kept."""
        return _m_saturation(self[0])


def _nested_ladders(
    j_ideal: Ideal, i_ideal: Ideal, e_max: int, hypersurface: Polynomial | None
) -> tuple[_Ladder, _Ladder]:
    """The ladders of J and I, once level 0 shows J + (g) <= I + (g)."""
    j, i = _Ladder(j_ideal, e_max, hypersurface), _Ladder(i_ideal, e_max, hypersurface)
    if not i[0].contains_ideal(j[0]):
        raise ContainmentError("the sequence needs J <= I")
    return j, i


def _lf(ladder: _Ladder) -> tuple[list[int], list[int]]:
    """The (l, f) of `lf_sequences`, read off one ladder: each level serves as
    J in l_(e-1) and as I in l_e."""
    unit = unit_ideal(ladder.ideal.ring)
    l_values = [_gamma_length(ladder[0], unit, ladder.saturation).expect()]
    l_values += [
        _gamma_length(upper, lower, _m_saturation(upper)).expect()
        for lower, upper in itertools.pairwise(ladder)
    ]
    return l_values, list(itertools.accumulate(l_values))


def default_scaling_exponent(ring: PolyRing, hypersurface: Polynomial | None = None) -> int:
    """Dimension of the ambient quotient, with no Groebner basis: nvars, less
    one for a nonconstant hypersurface g (Krull's principal ideal theorem);
    g = 0 cuts nothing, and a nonzero constant g leaves the empty variety."""
    if hypersurface is None or hypersurface.is_zero():
        return ring.nvars
    if hypersurface.total_degree() == 0:
        raise EmptyVariety("the unit ideal defines the empty variety")
    return ring.nvars - 1


def _scaling_exponent(ring: PolyRing, d: int | None, hypersurface: Polynomial | None) -> int:
    """d, by default the dimension of the ambient quotient; refused when
    negative."""
    if d is None:
        return default_scaling_exponent(ring, hypersurface)
    if d < 0:
        raise ValueError(f"the scaling exponent d must be non-negative, got {d}")
    return d


def _report(
    kind: str,
    ring: PolyRing,
    d: int,
    hypersurface: Polynomial | None,
    raws: list[int],
    **ideals: Ideal,
) -> SequenceReport:
    """The report whose entry e holds raws[e] scaled by q^d, q = p^e, with
    the ring, the named ideals and the hypersurface as its meta; d is
    resolved by `_scaling_exponent`."""
    p = ring.p
    entries = tuple(
        SequenceEntry(e, p**e, raw, Fraction(raw, p ** (e * d))) for e, raw in enumerate(raws)
    )
    meta = {
        "ring": {
            "p": p,
            "variables": list(ring.variables),
            "order": ring.order.describe(),
        },
        "ideals": {
            name: [str(g) for g in ideal.generators] for name, ideal in ideals.items()
        },
    }
    if hypersurface is not None:
        meta["hypersurface"] = str(hypersurface)
    return SequenceReport(kind, p, d, entries, meta)


# ---------------------------------------------------------------------------
# the sequences

def hk_function(
    ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len(R/I^[q]) for q = p^e, e = 0..e_max, scaled by q^d."""
    d = _scaling_exponent(ideal.ring, d, hypersurface)
    raws = []
    for e, level in enumerate(_Ladder(ideal, e_max, hypersurface)):
        length = finite_colength_length(level)
        if not length.finite:
            raise InfiniteColength(
                f"R/I^[p^{e}] does not have finite length: {length.note}"
            )
        raws.append(length.value)
    return _report("hk", ideal.ring, d, hypersurface, raws, I=ideal)


def rjj_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len(Gamma_m(I^[q]/J^[q])) for e = 0..e_max, scaled by q^d."""
    d = _scaling_exponent(j_ideal.ring, d, hypersurface)
    j, i = _nested_ladders(j_ideal, i_ideal, e_max, hypersurface)
    raws = [_gamma_length(j_e, i_e, _m_saturation(j_e)).expect() for j_e, i_e in zip(j, i)]
    return _report("rjj", j_ideal.ring, d, hypersurface, raws, J=j_ideal, I=i_ideal)


def sjj_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len of the image of (Gamma_m(I/J))^[q] inside R/J^[q], e = 0..e_max.

    The torsion submodule H is computed once from the unbracketed pair; each
    entry then measures H^[q] / J^[q], the image of H^[q] in R/J^[q] because
    H holds J.
    """
    d = _scaling_exponent(j_ideal.ring, d, hypersurface)
    j, i = _nested_ladders(j_ideal, i_ideal, e_max, hypersurface)
    h = _Ladder(gamma_submodule(j[0], i[0]), e_max, hypersurface)
    raws = [_subquotient_length(h_e, j_e).expect() for h_e, j_e in zip(h, j)]
    return _report("sjj", j_ideal.ring, d, hypersurface, raws, J=j_ideal, I=i_ideal)


def vjj_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """len(I^[q] / (J + m*I)^[q]) for e = 0..e_max; finite because I/(J + m*I)
    is spanned by the classes of the generators of I."""
    d = _scaling_exponent(j_ideal.ring, d, hypersurface)
    _, i = _nested_ladders(j_ideal, i_ideal, e_max, hypersurface)
    k = _Ladder(j_ideal + maximal_ideal(j_ideal.ring) * i_ideal, e_max, hypersurface)
    raws = [_subquotient_length(i_e, k_e).expect() for i_e, k_e in zip(i, k)]
    return _report("vjj", j_ideal.ring, d, hypersurface, raws, J=j_ideal, I=i_ideal)


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
    l_(n-1)."""
    return _lf(_Ladder(k_ideal, e_max, hypersurface))


def f_difference_sequence(
    j_ideal: Ideal,
    i_ideal: Ideal,
    e_max: int,
    d: int | None = None,
    hypersurface: Polynomial | None = None,
) -> SequenceReport:
    """f_n(J) - f_n(I) for n = 0..e_max, scaled by q^d; signed."""
    d = _scaling_exponent(j_ideal.ring, d, hypersurface)
    j, i = _nested_ladders(j_ideal, i_ideal, e_max, hypersurface)
    (_, f_j), (_, f_i) = _lf(j), _lf(i)
    raws = [a - b for a, b in zip(f_j, f_i)]
    return _report("fdiff", j_ideal.ring, d, hypersurface, raws, J=j_ideal, I=i_ideal)


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
    j, i = _nested_ladders(j_ideal, i_ideal, n, hypersurface)
    sat = j.saturation
    if sat is not None and not sat.contains_ideal(i[0]):
        raise InfiniteColength(
            "check_sandwich needs len(I/J) finite: I/J must be supported at the origin,"
            " that is I <= J : m^infinity"
        )
    layers = [_subquotient_length(i_e, j_e).expect() for j_e, i_e in zip(j, i)]
    (_, f_j), (_, f_i) = _lf(j), _lf(i)
    return SandwichRecord(n, layers[n], f_j[n] - f_i[n], sum(layers))


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
