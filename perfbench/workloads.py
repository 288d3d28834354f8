"""Seeded job lists for the three benchmark workloads.

A job is split into a timed part and an untimed part.  `compute` makes fresh
`Ideal` objects from polynomials built at set-up and calls the library, so no
cached Groebner basis survives from one run of a job to the next.  `render`
turns the result into the text that goes into the workload digest, and
`check` compares it with a fact that does not come from the same code path.

Library functions are looked up through their module at call time
(`sequences.rjj_sequence`, not a name bound here), so the traced run sees the
benchmark's own calls as well as the calls between hkforge modules.

Per-job cost varies by a factor of about 30 inside every workload.  A random
subset of a grid would move `jobs_per_s` by more than its bound from one seed
to the next, so every list covers its whole grid (`verify`, `seq`) or every
exponent stratum (`crosscheck`) and the seed draws the rest: the job order,
and in `crosscheck` which draw meets which prime, the variable order of the exponents and the
terms and coefficients of the sparse polynomials.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from hkforge import groebner, lengths, sequences, verify
from hkforge.ideals import Ideal
from hkforge.polyring import DegRevLex, Lex, PolyRing

WORKLOADS = ("verify", "seq", "crosscheck")


@dataclass
class Job:
    label: str
    compute: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    jobs: list[Job]
    # Checks that span several jobs: given every job's result in list order,
    # return the indices of the jobs that fail them.
    cross_check: Callable[[list[Any]], set[int]] = field(default=lambda results: set())


def build(name: str, seed: int) -> Workload:
    """The job list of workload `name` for `seed`; equal seeds give equal lists."""
    rng = random.Random(f"{name}:{seed}")
    if name == "verify":
        return _verify_jobs(rng)
    if name == "seq":
        return _seq_jobs(rng)
    if name == "crosscheck":
        return _crosscheck_jobs(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# verify: the `hkforge verify` grid

# 19, 23 and 29 extend the grid to 42 jobs, so one pass holds the 40 samples
# a run needs and the quantiles fall among many distinct jobs.
VERIFY_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 101)
VERIFY_M = range(4, 8)
# (p, e, slow); (5, 2) takes about 19 s, too long for one sample of a percentile.
KATZMAN_CASES = ((3, 1, False), (5, 1, False), (7, 1, False), (3, 2, True))


def _torsion_is_one(report) -> bool:
    """The `len Gamma_m(...) = 1` claim reports a computed length of exactly 1."""
    (torsion,) = [c for c in report.claims if "len Gamma_m" in c.label]
    return torsion.passed and torsion.detail.split()[:3] == ["computed", "length", "1"]


def _verify_job(label: str, call: Callable[[], Any]) -> Job:
    return Job(
        label,
        call,
        lambda report: report.to_json(),
        lambda report: report.ok and _torsion_is_one(report),
    )


def _verify_jobs(rng: random.Random) -> Workload:
    jobs = [
        _verify_job(
            f"construction p={p} m={m}",
            lambda p=p, m=m: verify.verify_construction(p, m),
        )
        for p in VERIFY_PRIMES
        for m in VERIFY_M
        if m % p
    ]
    jobs += [
        _verify_job(
            f"katzman p={p} e={e}",
            lambda p=p, e=e, slow=slow: verify.verify_katzman(p, e, slow),
        )
        for p, e, slow in KATZMAN_CASES
    ]
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# seq: the sequence pipeline modulo g = xy(x - y)(x + y - sy)

SEQ_PRIMES = (2, 3)
SEQ_KINDS = ("rjj", "sjj", "vjj", "fdiff")
SEQ_EMAX = (1, 2)
# Nested pairs J = (x^a, y^b) <= I = (x, y)^k, as (k, a, b).  (3, 3, 3) at
# p = 3 is the Katzman pair (x^3, y^3) <= (x, y)^3.  Seven shapes give 105
# jobs whose times lie close together near p50 and p75, so those quantiles do
# not jump when two neighbouring jobs swap places from run to run.
SEQ_SHAPES = ((1, 2, 3), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 4, 4), (3, 3, 3))
KATZMAN_PAIR = (3, (3, 3, 3))


def _seq_call(kind: str):
    return {
        "rjj": sequences.rjj_sequence,
        "sjj": sequences.sjj_sequence,
        "vjj": sequences.vjj_sequence,
        "fdiff": sequences.f_difference_sequence,
    }[kind]


def _seq_jobs(rng: random.Random) -> Workload:
    jobs: list[Job] = []
    keys: list[tuple] = []
    for p in SEQ_PRIMES:
        ring = PolyRing(p, ("s", "x", "y"), Lex())
        s, x, y = ring.gens()
        g = x * y * (x - y) * (x + y - s * y)
        maximal = Ideal(ring, [x, y])
        for k, a, b in SEQ_SHAPES:
            i_gens = (maximal**k).generators
            j_gens = (x**a, y**b)
            katzman = (p, (k, a, b)) == KATZMAN_PAIR
            for kind in SEQ_KINDS:
                for e_max in SEQ_EMAX:
                    if kind == "vjj" and p == 3 and e_max == 2:
                        # 0.4 s to 9 s across these shapes, all of it in the
                        # rank route; the pipeline under test is Buchberger.
                        continue

                    def compute(ring=ring, g=g, i_gens=i_gens, j_gens=j_gens, kind=kind, e_max=e_max):
                        j_ideal = Ideal(ring, j_gens)
                        i_ideal = Ideal(ring, i_gens)
                        return _seq_call(kind)(j_ideal, i_ideal, e_max, hypersurface=g)

                    def check(report, katzman=katzman, kind=kind, e_max=e_max):
                        raw = report.raw_values()
                        if len(raw) != e_max + 1:
                            return False
                        return not (katzman and kind == "rjj") or raw == [1] * (e_max + 1)

                    jobs.append(
                        Job(
                            f"{kind} p={p} k={k} a={a} b={b} e_max={e_max}",
                            compute,
                            lambda report: report.to_csv(),
                            check,
                        )
                    )
                    keys.append((p, k, a, b, e_max, kind))
    order = list(range(len(jobs)))
    rng.shuffle(order)
    jobs = [jobs[i] for i in order]
    keys = [keys[i] for i in order]

    def cross_check(results: list[Any]) -> set[int]:
        """rjj_0 = sjj_0 for the same pair: both are len Gamma_m(I/J)."""
        first: dict[tuple, dict[str, tuple[int, int]]] = {}
        for idx, (key, report) in enumerate(zip(keys, results)):
            if report is not None and key[-1] in ("rjj", "sjj"):
                first.setdefault(key[:-1], {})[key[-1]] = (idx, report.raw_values()[0])
        bad: set[int] = set()
        for pair in first.values():
            if len(pair) == 2 and pair["rjj"][1] != pair["sjj"][1]:
                bad.update(idx for idx, _ in pair.values())
        return bad

    return Workload(jobs, cross_check)


# ---------------------------------------------------------------------------
# crosscheck: three independent length routes on the same ideals

# Primes stop at 2^31 - 1: above it rank and is_prime take other code paths.
CROSSCHECK_PRIMES = (3, 5, 7, 11, 101, 2147483647)
CROSSCHECK_EXPONENTS = range(3, 7)
CROSSCHECK_FORM_DEGREES = (2, 3, 4)
# Draws per exponent multiset, one per prime.  Job cost depends on the random
# forms, so the median of a pass settles only with many distinct jobs.
CROSSCHECK_DRAWS = len(CROSSCHECK_PRIMES)


def _sparse_form(rng: random.Random, ring: PolyRing, degree: int):
    """A homogeneous polynomial of the given degree with 2 or 3 random terms."""
    nterms = rng.randint(2, 3)
    mons: set[tuple[int, int, int]] = set()
    while len(mons) < nterms:
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        mons.add((i, j, degree - i - j))
    return ring.polynomial({mon: rng.randrange(1, ring.p) for mon in sorted(mons)})


def _crosscheck_jobs(rng: random.Random) -> Workload:
    rings = {p: PolyRing(p, ("x", "y", "z"), DegRevLex()) for p in CROSSCHECK_PRIMES}
    # The degrees of the sparse forms set the size of the oracle matrices, so
    # they follow a fixed cycle rather than the seed.
    degrees = itertools.cycle(CROSSCHECK_FORM_DEGREES)
    jobs = []
    for exps in itertools.combinations_with_replacement(CROSSCHECK_EXPONENTS, 3):
        # Each multiset meets every prime once; the seed shifts which draw
        # gets which prime.
        shift = rng.randrange(len(CROSSCHECK_PRIMES))
        for draw in range(CROSSCHECK_DRAWS):
            extra = 1 + draw % 2
            a, b, c = rng.sample(exps, 3)
            p = CROSSCHECK_PRIMES[(draw + shift) % len(CROSSCHECK_PRIMES)]
            ring = rings[p]
            x, y, z = ring.gens()
            j_gens = [x**a, y**b, z**c] + [
                _sparse_form(rng, ring, next(degrees)) for _ in range(extra)
            ]
            u_gens = j_gens + [_sparse_form(rng, ring, next(degrees))]
            # Every generator is homogeneous and R/J is a quotient of
            # R/(x^a, y^b, z^c), whose top degree is a + b + c - 3, so the
            # oracle is exact at that bound.
            bound = a + b + c - 3

            def compute(ring=ring, j_gens=j_gens, u_gens=u_gens, bound=bound):
                j_ideal = Ideal(ring, j_gens)
                u_ideal = Ideal(ring, u_gens)
                return {
                    "len_j": lengths.finite_colength_length(j_ideal).expect(),
                    "len_u": lengths.finite_colength_length(u_ideal).expect(),
                    "len_u_over_j": lengths.subquotient_length(
                        u_ideal, j_ideal, method="rank"
                    ).expect(),
                    "certified": groebner.certify_groebner(
                        j_ideal.groebner_basis().elements, ring.order
                    ).ok,
                    "oracle_j": lengths.oracle_quotient_dimension(j_ideal, bound),
                    "oracle_u": lengths.oracle_quotient_dimension(u_ideal, bound),
                }

            def check(out):
                return (
                    out["certified"]
                    and out["len_j"] == out["oracle_j"]
                    and out["len_u"] == out["oracle_u"]
                    and out["len_j"] - out["len_u"] == out["len_u_over_j"]
                )

            jobs.append(
                Job(
                    f"crosscheck p={p} a={a} b={b} c={c} extra={extra}",
                    compute,
                    lambda out: json.dumps(out, sort_keys=True),
                    check,
                )
            )
    rng.shuffle(jobs)
    return Workload(jobs)
