"""Outside-in tracing of the calls between hkforge layers.

`Tracer.install` rebinds each function in `TARGETS` at every module-level name
in the hkforge package that holds it: in the modules that import it (the
`_reduce_sorted` that `groebner` imports from `polyring`, `buchberger` as
bound in `ideals`) and in its own module, so that a module's calls to its own
entry points (`rank_of_rows` calling `rank`, `colon_element` calling
`intersect`) are traced as well.  No line of hkforge changes and no private
helper is wrapped: `_merge_sub`, the `monomial_*` primitives and `_gm_update`
run millions of times per pass, and their time counts as the self time of
the nearest traced caller.

Spans stay in memory until `dump`.  A span has an id, its parent's id, the
job index, a name `<layer>.<entry point>`, start and end, the time its child
spans cover, and a small note that the target's `note` function takes from
the call's arguments and result.  Self time is duration minus child time.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

from hkforge import groebner, ideals, lengths, linalg, polyring, sequences, verify

LAYERS = ("polyring", "groebner", "ideals", "lengths", "linalg", "sequences", "verify")

# span fields
SID, PARENT, JOB, NAME, START, END, CHILD, NOTE, REACHED_GB = range(9)


def _matrix_note(args, kwargs, result):
    rows, cols = args[0].shape
    return rows, cols, result


# (owner, attribute, span name, note(args, kwargs, result) or None)
TARGETS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (polyring, "_reduce_sorted", "polyring.reduce", lambda a, k, r: (len(a[0]), not r)),
    (polyring, "division", "polyring.division", None),
    (polyring, "normal_form", "polyring.normal_form", None),
    (groebner, "buchberger", "groebner.buchberger",
     lambda a, k, r: (bool(k.get("gebauer_moller")), len(r))),
    (groebner, "certify_groebner", "groebner.certify", None),
    (ideals.Ideal, "groebner_basis", "ideals.gb", None),
    (ideals, "bracket_power", "ideals.bracket", None),
    (ideals, "intersect", "ideals.intersect", None),
    (ideals, "colon_element", "ideals.colon", None),
    (ideals, "colon_ideal", "ideals.colon_ideal", None),
    (ideals, "saturate", "ideals.saturate", lambda a, k, r: r[1]),
    (ideals, "ideal_equal", "ideals.equal", None),
    (ideals, "dimension", "ideals.dimension", None),
    (lengths, "finite_colength_length", "lengths.standard", None),
    (lengths, "gamma_submodule", "lengths.gamma_submodule", None),
    (lengths, "gamma_length", "lengths.gamma", None),
    (lengths, "subquotient_length", "lengths.subquotient", None),
    (lengths, "nilpotency_exponent", "lengths.nilpotency", None),
    (lengths, "oracle_quotient_dimension", "lengths.oracle", None),
    (linalg, "rank", "linalg.rank", _matrix_note),
    (linalg, "row_reduce", "linalg.row_reduce", None),
    (linalg, "rank_of_rows", "linalg.rank_of_rows", None),
    (linalg, "in_row_span", "linalg.in_row_span", None),
    (sequences, "hk_function", "sequences.hk", None),
    (sequences, "rjj_sequence", "sequences.rjj", None),
    (sequences, "sjj_sequence", "sequences.sjj", None),
    (sequences, "vjj_sequence", "sequences.vjj", None),
    (sequences, "lf_sequences", "sequences.lf", None),
    (sequences, "f_difference_sequence", "sequences.fdiff", None),
    (verify, "verify_construction", "verify.construction", None),
    (verify, "verify_katzman", "verify.katzman", None),
)


class Tracer:
    """Records spans around the `TARGETS` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        marks_gb = name == "groebner.buchberger"

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][SID] if stack else -1, self.job, name, 0.0, 0.0, 0.0, None, False]
            spans.append(span)
            stack.append(span)
            if marks_gb:
                for open_span in stack:
                    open_span[REACHED_GB] = True
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[END] = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += end - span[START]
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items() if name == "hkforge" or name.startswith("hkforge.")
        ]
        for owner, attr, name, note in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, note)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner: Any, key: str, wrapper: Callable) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str) -> None:
        """Write one tab-separated line per span, times relative to the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tjob\tname\tstart_s\tend_s\tself_s\n")
            for s in self.spans:
                out.write(
                    f"{s[SID]}\t{s[PARENT]}\t{s[JOB]}\t{s[NAME]}\t{s[START] - origin:.6f}"
                    f"\t{s[END] - origin:.6f}\t{_self_s(s):.6f}\n"
                )


def _self_s(span: list) -> float:
    return span[END] - span[START] - span[CHILD]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    names = {s[SID]: s[NAME] for s in spans}
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(_self_s(s) for s in named(name))

    def children(child, parent):
        return [s for s in named(child) if names.get(s[PARENT]) == parent]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s[NAME].split(".", 1)[0]] += _self_s(s)
    traced_self = sum(layer_self.values())

    reduce_spans = named("polyring.reduce")
    gb_reductions = children("polyring.reduce", "groebner.buchberger")
    bb = named("groebner.buchberger")
    gb_calls = named("ideals.gb")
    saturations = named("ideals.saturate")
    colon_rounds = children("ideals.colon", "ideals.saturate") + children(
        "ideals.colon_ideal", "ideals.saturate"
    )
    ranks = named("linalg.rank")
    cells = sum(r * c for r, c, _ in (s[NOTE] for s in ranks))
    out = {
        "polyring.reduce.calls": (len(reduce_spans), "count"),
        "polyring.reduce.terms_in": (sum(s[NOTE][0] for s in reduce_spans), "count"),
        "polyring.reduce.self_s": (self_s("polyring.reduce"), "s"),
        "groebner.buchberger.calls": (len(bb), "count"),
        "groebner.buchberger.gm_share": (_ratio(sum(s[NOTE][0] for s in bb), len(bb)), "ratio"),
        "groebner.buchberger.basis_len": (_ratio(sum(s[NOTE][1] for s in bb), len(bb)), "count"),
        "groebner.buchberger.self_s": (self_s("groebner.buchberger"), "s"),
        "groebner.spair.zero_ratio": (
            _ratio(sum(s[NOTE][1] for s in gb_reductions), len(gb_reductions)), "ratio"
        ),
        "groebner.certify.self_s": (self_s("groebner.certify"), "s"),
        "ideals.gb.calls": (len(gb_calls), "count"),
        "ideals.gb.hit_ratio": (
            _ratio(sum(not s[REACHED_GB] for s in gb_calls), len(gb_calls)), "ratio"
        ),
        "ideals.intersect.calls": (len(named("ideals.intersect")), "count"),
        "ideals.equal.calls": (len(named("ideals.equal")), "count"),
        "ideals.saturate.steps": (sum(s[NOTE] for s in saturations), "count"),
        "ideals.saturate.useful_ratio": (
            _ratio(sum(s[NOTE] for s in saturations), len(colon_rounds)), "ratio"
        ),
        "ideals.self_s": (layer_self["ideals"], "s"),
        "lengths.gamma.calls": (len(named("lengths.gamma")), "count"),
        "lengths.subquotient.calls": (len(named("lengths.subquotient")), "count"),
        "lengths.nilpotency.probes": (
            len(children("polyring.normal_form", "lengths.nilpotency")), "count"
        ),
        "lengths.oracle.calls": (len(named("lengths.oracle")), "count"),
        "lengths.self_s": (layer_self["lengths"], "s"),
        "linalg.rank.calls": (len(ranks), "count"),
        "linalg.rank.cells": (cells, "count"),
        "linalg.rank.bytes_computed": (8 * cells, "B"),
        "linalg.rank.yield": (
            _ratio(sum(s[NOTE][2] for s in ranks), sum(s[NOTE][0] for s in ranks)), "ratio"
        ),
        "linalg.rank.self_s": (self_s("linalg.rank"), "s"),
        "linalg.row_reduce.self_s": (self_s("linalg.row_reduce"), "s"),
        "sequences.self_s": (layer_self["sequences"], "s"),
        "verify.self_s": (layer_self["verify"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (_ratio(layer_self[layer], traced_self), "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out
