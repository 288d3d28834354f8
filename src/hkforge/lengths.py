"""Lengths of finite-length quotients and 0th local cohomology at (all variables).

Three measurement routes, kept deliberately independent of each other:

* standard-monomial counting for finite-colength ideals (the initial ideal
  must contain a pure power of every variable; the staircase is counted by a
  sweep over the exponents of the leads, with no grid);
* subquotient measurement for (U + J)/J: the span of the normal forms of
  U's generators modulo J, closed under multiplication by the variables
  (FGLM's walk).  The walk is a kernel of the division table of J's basis
  (`DivisorTable.run`), so it stays on packed term lists from the first
  normal form to the last: a product by a variable is one packed shift, each
  normal form is the division core's, and the rows are the forms' packed
  term lists, kept in echelon by their leads.  When a product would not fit
  its fields, the table widens and the walk starts again;
* a brute-force oracle that never looks at Groebner bases: the generator
  multiples up to a degree bound, over the monomials coded in a fixed radix
  as columns.  The monomial generators' multiples are taken as pivot columns
  outright, and sparse Gaussian elimination (`linalg.row_reduce`) runs on one
  row per multiple of another generator, with those columns struck.

Gamma_m is realized on ideals: Gamma_m(I/J) = H/J for
H = (J : m^infinity) ∩ I.  `gamma_submodule` builds H; `gamma_length`
measures it without building it, as len(S/J) - len((S + I)/I) for
S = J : m^infinity, by the exact sequence 0 -> H/J -> S/J -> (S + I)/I -> 0.
S is the intersection of the saturations J : v^infinity by single variables,
each taken by homogenization (`ideals._saturate_variable`), not by a colon
chain.  J <= S holds by construction and is not checked, since the check
would build a basis of S, which no length needs.

The standard-monomial count and the span closure read J's basis through
`Ideal.any_basis`: the basis under the ring's order if J's table holds it,
else one the table already holds, such as the degrevlex basis a saturation
of J has built on a lex ring, so J gets no second basis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import config
from .errors import CapExceeded, ContainmentError, RingMismatch
from .ideals import Ideal, _next_level, _saturate_variable, _saturation_steps, _walk, intersect
from .linalg import rank_of_rows, reduce_row, row_reduce
from .polyring import Monomial, Packing, Polynomial, _merge_sub, _reduce_sorted

__all__ = [
    "LengthResult",
    "finite_colength_length",
    "gamma_submodule",
    "subquotient_length",
    "gamma_length",
    "oracle_quotient_dimension",
    "oracle_ideal_member",
]


@dataclass(frozen=True)
class LengthResult:
    """A length, or the verdict that none exists.

    `method` records which route produced the number: "standard-monomials",
    "subquotient", or "oracle".  When `finite` is False, `value` is None.
    """

    value: int | None
    finite: bool
    method: str
    note: str | None = None

    def expect(self) -> int:
        if not self.finite:
            raise ValueError(f"length is not finite: {self.note or 'no value'}")
        return self.value


# ---------------------------------------------------------------------------
# standard monomials

def count_standard_monomials(lms: list[Monomial], nvars: int) -> int | None:
    """Number of monomials outside the monomial ideal generated by `lms`,
    or None when that number is infinite.

    Sweeps the last variable: the distinct last exponents of the leads split
    its range into runs, and every slice in a run is the staircase of the
    same leads (those whose last exponent is at most the run's start), so one
    count in the other variables, times the run's length, covers the run.
    """
    if nvars == 0:
        return 0 if lms else 1
    cuts = sorted({0, *(lm[-1] for lm in lms)})
    total = 0
    for lo, hi in zip(cuts, [*cuts[1:], None]):
        count = count_standard_monomials([lm[:-1] for lm in lms if lm[-1] <= lo], nvars - 1)
        if count == 0:
            return total  # the slices only shrink as the last exponent grows
        if count is None or hi is None:
            return None
        total += (hi - lo) * count


def finite_colength_length(ideal: Ideal) -> LengthResult:
    """len(R/I) by standard-monomial count; finite=False when unbounded.

    Any Groebner basis of I serves, whatever its order: the standard
    monomials of every order form a basis of R/I over F_p (Macaulay; Cox,
    Little & O'Shea, ch. 5 §3), so their number, finite or not, is the same.
    """
    basis = ideal.any_basis()
    if not len(basis):
        return LengthResult(None, False, "standard-monomials", "zero ideal")
    lms = list(basis.leading_monomials())
    count = count_standard_monomials(lms, ideal.ring.nvars)
    if count is None:
        return LengthResult(
            None, False, "standard-monomials", "no pure power of some variable"
        )
    return LengthResult(count, True, "standard-monomials")


# ---------------------------------------------------------------------------
# local cohomology submodule

def _m_saturation(j_ideal: Ideal) -> Ideal | None:
    """J : m^infinity, or None when the parts below show it is the unit ideal
    (then J is m-primary).

    J : m^infinity is the intersection of the parts J : v^infinity over the
    variables v, because the ideal of the k-th powers of the N variables lies
    between m^(N(k-1)+1) and m^k.  A generator c*v^k of J puts v^k into J, so
    1 lies in J : v^infinity and that part is the unit ideal; it is skipped
    without building any basis.  Each other part is `_saturate_variable(J, i)`,
    two Buchberger bases by homogenization and no elimination, dropped when a
    nonzero constant among its generators proves it the unit ideal, as for the
    z-part of (x^q, y^q, g) over the Fermat cubic; only the intersection of two
    or more parts eliminates.  Finite colength alone does not make J m-primary:
    (x, y + 1) has colength 1 and no m-torsion.
    """
    held = set()
    for g in j_ideal.generators:
        support = [i for i, e in enumerate(g.leading_monomial()) if e]
        if g.is_monomial() and len(support) == 1:
            held.add(support[0])
    parts = [_saturate_variable(j_ideal, i) for i in range(j_ideal.ring.nvars) if i not in held]
    parts = [part for part in parts if all(g.total_degree() for g in part.generators)]
    return functools.reduce(intersect, parts) if parts else None


def gamma_submodule(j_ideal: Ideal, i_ideal: Ideal) -> Ideal:
    """H with Gamma_m(I/J) = H/J, namely H = (J : m^infinity) ∩ I.

    Needs J <= I.  The saturation is `_m_saturation`; when J is m-primary,
    H = I, and when I is the unit ideal, H is the saturation itself.
    """
    if not i_ideal.contains_ideal(j_ideal):
        raise ContainmentError("gamma_submodule requires J <= I")
    sat = _m_saturation(j_ideal)
    if sat is None:
        return i_ideal
    if i_ideal.is_unit():
        return sat
    return intersect(sat, i_ideal)


# ---------------------------------------------------------------------------
# subquotient length

def nilpotency_exponent(u_ideal: Ideal, j_ideal: Ideal, cap: int) -> int | None:
    """Least n <= cap with m^n * U <= J, or None if the cap is exhausted: the
    walk of `ideals._saturation_steps` by every variable."""
    try:
        return _saturation_steps(j_ideal, u_ideal, range(j_ideal.ring.nvars), cap)
    except CapExceeded:
        return None


def subquotient_length(
    u_ideal: Ideal,
    j_ideal: Ideal,
    *,
    method: str = "auto",
    nilpotency_cap: int | None = None,
) -> LengthResult:
    """len((U + J)/J) for J <= U, when finite.

    "rank": the span of the normal forms of U's generators against J's basis,
    closed under the variables (`_span_closure`); at most `nilpotency_cap` + 1
    levels run (default `config.DEFAULT_NILPOTENCY_CAP`; a negative cap is
    refused before any basis is built), since nothing here proves the length
    finite.  "difference": when both colengths are finite, len(R/J) - len(R/U).
    "auto" takes the difference route when available.
    Both routes give the global length, over all of V(J): 1 for U = R,
    J = (x, y + 1).
    """
    _check_method(method)
    cap = config.DEFAULT_NILPOTENCY_CAP if nilpotency_cap is None else nilpotency_cap
    if cap < 0:
        raise ValueError(f"the nilpotency cap must be non-negative, got {cap}")
    if not u_ideal.contains_ideal(j_ideal):
        raise ContainmentError("subquotient_length requires J <= U")
    return _subquotient_length(u_ideal, j_ideal, method, cap)


def _check_method(method: str) -> None:
    if method not in {"auto", "rank", "difference"}:
        raise ValueError(f"unknown method {method!r}")


def _subquotient_length(
    u_ideal: Ideal, j_ideal: Ideal, method: str = "auto", cap: int | None = None
) -> LengthResult:
    """`subquotient_length` for a caller that knows J <= U, without the check:
    it would build a basis of U, which only the difference route needs.
    `cap` None runs the rank route's closure to its end, for a caller that
    knows the length is finite."""
    if method != "rank":
        len_j = finite_colength_length(j_ideal)
        if len_j.finite:
            len_u = finite_colength_length(u_ideal)
            if len_u.finite:
                return LengthResult(
                    len_j.value - len_u.value, True, "standard-monomials"
                )
        if method == "difference":
            return LengthResult(
                None, False, "standard-monomials", "a colength is not finite"
            )

    length = _span_closure(u_ideal.generators, j_ideal, cap)
    if length is None:
        return LengthResult(None, False, "subquotient", f"possibly infinite: not closed by level {cap}")
    return LengthResult(length, True, "subquotient")


def _span_closure(gens: tuple[Polynomial, ...], j_ideal: Ideal, cap: int | None = None) -> int | None:
    """dim over F_p of the span of the normal forms of `gens` modulo J's
    basis, closed under the variables: len((U + J)/J) for U = (gens).  None
    when the closure has not ended after `cap` + 1 levels; with `cap` None it
    runs to its end, which comes within L + 1 levels for a length L and never
    for an infinite one (a span closed under the variables is all of (U + J)/J).

    Any Groebner basis of J serves, whatever its order: f -> its normal form
    is F_p-linear with kernel J, so the span of the normal forms has the
    dimension of (U + J)/J under every order.

    The walk is `_closure_kernel`, run on J's basis by `ideals._walk`.
    """
    return _walk(j_ideal, _closure_kernel, gens, cap)


def _closure_kernel(
    pk: Packing, entries: list[tuple], p: int, gens: list[Polynomial], cap: int | None
) -> int | None:
    """`_span_closure`'s walk (FGLM's, Faugere, Gianni, Lazard & Mora, JSC
    1993) for `DivisorTable.run`, on packed term lists.

    Level 0 holds the normal forms of the generators, `_reduce_sorted`
    against the entries.  A form that the rows kept so far do not reduce to
    zero is kept, and the normal forms of its products with the variables
    make the next level (`ideals._next_level`).  If f lies in the span of
    earlier rows, x_i * f lies in that of their x_i-multiples, queued
    already, so the first level that adds nothing ends the closure.

    The rows are packed term lists, with packed monomials as columns, keyed
    by their leads.  A form's lead is struck while a kept row has it, and
    what is left, if anything, becomes a row, scaled to lead 1.  Rows with
    distinct leads are independent, so the length is the number of rows.
    """
    rows: dict[int, list] = {}
    level = [_reduce_sorted(pk.repack(g.packed, g.packing), entries, pk, p) for g in gens]
    for _ in itertools.count() if cap is None else range(cap + 1):
        kept = []
        for nf in level:
            row = nf
            while row and (pivot := rows.get(row[0][0])) is not None:
                row = _merge_sub(row, 0, pivot, 0, row[0][1], p)
            if row:
                inv = pow(row[0][1], -1, p)
                rows[row[0][0]] = [(m, c * inv % p) for m, c in row]
                kept.append(nf)
        if not kept:
            return len(rows)
        level = _next_level(pk, entries, p, kept, range(len(pk.shifts)))
    return None


def gamma_length(j_ideal: Ideal, i_ideal: Ideal, *, method: str = "auto") -> LengthResult:
    """len(Gamma_m(I/J)); always finite for Noetherian inputs.

    Needs J <= I.  Gamma_m(I/J) = H/J with H = S ∩ I, S = J : m^infinity,
    and the exact sequence 0 -> (S ∩ I)/J -> S/J -> (S + I)/I -> 0 gives

        len(H/J) = len(S/J) - len((S + I)/I),

    so the elimination basis of H is never built.  len(S/J) is measured as by
    `subquotient_length` with `method`, and the result keeps its method.  S/J
    is m-torsion and finitely generated, so its length is finite and the span
    closure runs to its end, with no level cap; only `method="difference"`,
    which needs both colengths finite, can answer "not finite".  J <= S holds
    by construction, so that measurement skips the containment check, which
    would build a basis of S that no length reads.  len((S + I)/I) is the span
    closure of S's generators modulo I's basis, which the containment check
    J <= I has built; (S + I)/I is a quotient of S/J, so it is finite too.
    When J is m-primary, S is the unit ideal and the length is that of I/J.
    """
    _check_method(method)
    if not i_ideal.contains_ideal(j_ideal):
        raise ContainmentError("gamma_length requires J <= I")
    return _gamma_length(j_ideal, i_ideal, _m_saturation(j_ideal), method)


def _gamma_length(
    j_ideal: Ideal, i_ideal: Ideal, sat: Ideal | None, method: str = "auto"
) -> LengthResult:
    """`gamma_length` for a caller that knows J <= I and holds
    sat = `_m_saturation(j_ideal)`."""
    if sat is None:
        return _subquotient_length(i_ideal, j_ideal, method)
    whole = _subquotient_length(sat, j_ideal, method)
    if not whole.finite:
        return whole
    image = _span_closure(sat.generators, i_ideal)
    return LengthResult(whole.value - image, True, whole.method)


# ---------------------------------------------------------------------------
# brute-force oracles (no Groebner bases anywhere below)

@functools.lru_cache(maxsize=256)
def _shift_codes(nvars: int, bound: int) -> tuple[int, ...]:
    """The `_code`s at radix bound + 1 of the monomials of degree <= bound,
    by ascending degree, so those of degree <= d are a prefix.  The code of
    variable i is radix**i, and a product's code is the sum of its factors'."""
    radix = bound + 1
    return tuple(
        sum(radix**i for i in combo)
        for degree in range(bound + 1)
        for combo in itertools.combinations_with_replacement(range(nvars), degree)
    )


def _code(mon: Monomial, radix: int) -> int:
    """`mon` as a numeral in base `radix`, last variable most significant.
    While every exponent stays below the radix, a product's code is the sum
    of its factors' codes."""
    code = 0
    for e in reversed(mon):
        code = code * radix + e
    return code


def _span_rows(ideal: Ideal, bound: int) -> tuple[set[int], list[dict[int, int]]]:
    """The generator multiples of degree <= bound, as `(units, rows)` over the
    columns `_code`d at radix bound + 1.

    `units` holds the columns of the monomial generators' multiples, each a
    one-entry row that no row dict is built for.  `rows` holds one sparse row
    per multiple of another generator with the unit columns struck out, and
    no row that the strike leaves empty.  Each unit pivots its column, and
    striking that column from another row is a row operation, so the span of
    all the multiples has rank len(units) + the rank of `rows`.
    """
    ring = ideal.ring
    radix = bound + 1
    shifts = _shift_codes(ring.nvars, bound)
    multiples = []
    for g in ideal.generators:
        room = bound - g.total_degree()
        if room >= 0:
            terms = [(_code(m, radix), c) for m, c in g.terms]
            multiples.append((terms, shifts[: math.comb(ring.nvars + room, room)]))
    units = set()
    for terms, reach in multiples:
        if len(terms) == 1:
            [(code, _)] = terms
            units.update(code + shift for shift in reach)
    rows = []
    for terms, reach in multiples:
        if len(terms) > 1:
            for shift in reach:
                row = {col: c for code, c in terms if (col := code + shift) not in units}
                if row:
                    rows.append(row)
    return units, rows


def oracle_quotient_dimension(ideal: Ideal, degree_bound: int) -> int:
    """dim over F_p of (monomials of degree <= bound) modulo the span of all
    generator multiples of degree <= bound, by Gaussian elimination: the
    monomials, less the unit columns of `_span_rows`, less the rank of its
    struck rows.

    For a finite-colength ideal this stabilizes to len(R/I) as the bound
    grows.  Entirely independent of the Groebner machinery.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    monomials = math.comb(ideal.ring.nvars + degree_bound, degree_bound)
    units, rows = _span_rows(ideal, degree_bound)
    return monomials - len(units) - rank_of_rows(rows, ideal.ring.p)


def oracle_ideal_member(f: Polynomial, ideal: Ideal, *, slack: int = 3) -> bool:
    """Membership by linear algebra: is f in the span of generator multiples
    of degree <= deg(f) + slack?  One row reduction at that degree.  Sound for
    positives; a negative is exact only when the window is wide enough, since
    the span grows with the window.  Needs `slack` >= 0.  f may be over the
    ideal's ring under any order; over another p or other variables it is
    refused, as `Ideal.contains` refuses it."""
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack}")
    if not ideal.ring.compatible(f.ring):
        raise RingMismatch(f"{f.ring!r} vs {ideal.ring!r}")
    if f.is_zero():
        return True
    bound = f.total_degree() + slack
    p = ideal.ring.p
    units, rows = _span_rows(ideal, bound)
    row = {col: c for m, c in f.terms if (col := _code(m, bound + 1)) not in units}
    return not reduce_row(row, row_reduce(rows, p), p)
