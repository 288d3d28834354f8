"""Line-oriented session language and the `hkforge` entry point.

A session is a list of `;`-terminated statements: one ring declaration,
named polynomial and ideal bindings, then commands.  `#` starts a comment
that runs to the end of the line.

    ring p=5 vars=s,x,y order=lex;
    poly G = x*y*(x-y)*(x+y-s*y);
    ideal E = x^9, y^9, G;
    gb E;
    member G E;
    seq rjj J I e_max=2 d=2 mod=G;
    verify construction p=5 m=4;

Statements are read from `polyring.tokenize_expression`'s token stream with
the polynomial grammar itself, so an expression ends where the grammar stops
(at `,` or `;`).  Sequences print CSV, everything else prints one JSON object
per command, and identical sessions produce byte-identical output.  Exit
codes: 0 success, 1 engine error, 2 parse error, 3 a verification claim
failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .errors import EngineError, ParseError
from .ideals import (
    Ideal,
    bracket_power,
    colon_element,
    colon_ideal,
    intersect,
    saturate,
)
from .lengths import finite_colength_length, gamma_length
from .polyring import (
    DegRevLex,
    ExpressionError,
    Lex,
    PolyRing,
    Polynomial,
    _ExprParser,
    tokenize_expression,
)
from .sequences import (
    _report,
    _scaling_exponent,
    check_sandwich,
    f_difference_sequence,
    hk_function,
    lf_sequences,
    rjj_sequence,
    sjj_sequence,
    vjj_sequence,
)
from .verify import verify_construction, verify_katzman

EXIT_OK = 0
EXIT_ENGINE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3

_ORDERS = {"lex": Lex, "degrevlex": DegRevLex}


# ---------------------------------------------------------------------------
# commands: each runner takes the run state, then the parsed arguments, and
# returns the command's output text

@dataclass
class _RunState:
    json_mode: bool
    default_d: int | None
    verify_failed: bool = False


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _length_json(result) -> str:
    payload = {"finite": result.finite}
    if result.finite:
        payload["value"] = result.value
        payload["method"] = result.method
    elif result.note:
        payload["note"] = result.note
    return _json(payload)


def _ideal_json(ideal: Ideal, **extra) -> str:
    return _json({"generators": [str(g) for g in ideal.generators], **extra})


def _gb(_, ideal: Ideal) -> str:
    basis = ideal.groebner_basis()
    return _json(
        {
            "basis": [str(g) for g in basis],
            "order": basis.order.describe(),
            "reduced": True,
        }
    )


def _colon(_, ideal: Ideal, x) -> str:
    return _ideal_json(
        colon_element(ideal, x) if isinstance(x, Polynomial) else colon_ideal(ideal, x)
    )


def _saturate(_, ideal: Ideal, x) -> str:
    stable, steps = saturate(ideal, x)
    return _ideal_json(stable, exponent=steps)


# keyword -> (argument kinds, runner) for the commands that take only names
# and integers; kinds are "ideal", "poly", "poly-or-ideal" and "int"
_COMMANDS = {
    "gb": (("ideal",), _gb),
    "nf": (("poly", "ideal"), lambda _, f, i: _json({"result": str(i.groebner_basis().reduce(f))})),
    "member": (("poly", "ideal"), lambda _, f, i: _json({"member": i.contains(f)})),
    "colon": (("ideal", "poly-or-ideal"), _colon),
    "intersect": (("ideal", "ideal"), lambda _, a, b: _ideal_json(intersect(a, b))),
    "saturate": (("ideal", "poly-or-ideal"), _saturate),
    "bracket": (("ideal", "int"), lambda _, i, e: _ideal_json(bracket_power(i, e))),
    "length": (("ideal",), lambda _, i: _length_json(finite_colength_length(i))),
    "gamma_length": (("ideal", "ideal"), lambda _, j, i: _length_json(gamma_length(j, i))),
}

# seq kind -> (number of ideal arguments, sequence function); lf has its own rows
_SEQUENCES = {
    "hk": (1, hk_function),
    "rjj": (2, rjj_sequence),
    "sjj": (2, sjj_sequence),
    "vjj": (2, vjj_sequence),
    "lf": (1, None),
    "fdiff": (2, f_difference_sequence),
}


def _seq(state: _RunState, kind: str, ideals: tuple, e_max: int, d: int | None, mod) -> str:
    if d is None:
        d = state.default_d
    if kind != "lf":
        report = _SEQUENCES[kind][1](*ideals, e_max, d, mod)
        return report.to_json() if state.json_mode else report.to_csv()
    ring = ideals[0].ring
    d = _scaling_exponent(ring, d, mod)
    l_values, f_values = lf_sequences(ideals[0], e_max, hypersurface=mod)
    if state.json_mode:
        return _json({"kind": "lf", "l": l_values, "f": f_values})
    le = _report("le", ring, d, mod, l_values[1:])
    fe = _report("fe", ring, d, mod, f_values)
    return "\n".join([le.to_csv(), *fe.csv_rows()])


def _sandwich(_, j: Ideal, i: Ideal, n: int, mod) -> str:
    return check_sandwich(j, i, n, hypersurface=mod).to_json()


# verify target -> its integer keys, in order; katzman also takes `slow`
_VERIFY_KEYS = {"construction": ("p", "m"), "katzman": ("p", "e")}


def _verify(state: _RunState, target: str, params: dict) -> str:
    """The `verify` statement; `hkforge verify` runs it as a one-command session."""
    if target == "construction":
        report = verify_construction(**params)
    else:
        report = verify_katzman(**params)
    state.verify_failed |= not report.ok
    return report.to_json()


# ---------------------------------------------------------------------------
# parsing

@dataclass
class Session:
    """A parsed session: the ring, resolved bindings, and command list."""

    ring: PolyRing | None = None
    polys: dict[str, Polynomial] = field(default_factory=dict)
    ideals: dict[str, Ideal] = field(default_factory=dict)
    commands: list[tuple] = field(default_factory=list)  # (runner, arguments)
    statements: list[str] = field(default_factory=list)  # canonical text

    def pretty(self) -> str:
        """Canonical text that re-parses to an equivalent session."""
        return "\n".join(self.statements)


class _SessionParser(_ExprParser):
    """Statements over the polynomial grammar's own tokens and expressions."""

    def __init__(self, text: str):
        self.text = text
        try:
            super().__init__(None, tokenize_expression(text), None)
        except ExpressionError as exc:
            self.fail(exc.message, exc.offset)
        self.session = Session()
        self.names = self.session.polys

    def fail(self, message: str, offset: int):
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        raise ParseError(message, line, column)

    # -- token helpers ----------------------------------------------------

    def _at_name(self, name: str) -> bool:
        return self.peek()[:2] == ("name", name)

    def _name(self) -> str:
        kind, value, at = self.advance()
        if kind != "name":
            self.fail(f"expected a name, got {value!r}", at)
        return value

    def _comma_list(self, read) -> list:
        items = [read()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            items.append(read())
        return items

    def _key(self, key: str) -> None:
        kind, value, at = self.advance()
        if kind != "name" or value != key:
            self.fail(f"expected {key}=..., got {value!r}", at)
        self.expect_op("=")

    def _keyed(self, key: str) -> int:
        """Read `key=<integer>`."""
        self._key(key)
        return self._argument("int")[1]

    def _argument(self, kind: str) -> tuple[str, object]:
        """One command argument of `kind`: its source text and its value."""
        token, value, at = self.advance()
        if kind == "int":
            if token != "int":
                self.fail(f"expected an integer, got {value!r}", at)
            return value, int(value)
        ideals, polys = self.session.ideals, self.session.polys
        if kind == "ideal" or value in ideals:
            if value not in ideals:
                self.fail(f"unknown ideal {value!r}", at)
            if kind == "poly":
                self.fail(f"{value!r} names an ideal, need a polynomial", at)
            return value, ideals[value]
        if value in polys:
            return value, polys[value]
        if self.ring is not None and value in self.ring._var_index:
            return value, self.ring.gen(value)
        self.fail(f"unknown name {value!r}", at)

    def _optional_mod(self) -> tuple[str, Polynomial | None]:
        """` mod=G` and the hypersurface, or ("", None) when absent."""
        if not self._at_name("mod"):
            return "", None
        self._key("mod")
        name, value = self._argument("poly")
        return f" mod={name}", value

    def _add(self, text: str, runner, arguments: tuple) -> None:
        self.session.commands.append((runner, arguments))
        self.session.statements.append(text)

    # -- statements ----------------------------------------------------------

    def parse(self) -> Session:
        while self.peek()[0] != "end":
            kind, keyword, at = self.advance()
            if (kind, keyword) == ("op", ";"):
                continue  # stray empty statement
            if kind != "name":
                self.fail(f"expected a statement, got {keyword!r}", at)
            if keyword in _COMMANDS:
                self._command(keyword)
            elif hasattr(self, f"_stmt_{keyword}"):
                getattr(self, f"_stmt_{keyword}")(at)
            else:
                self.fail(f"unknown statement {keyword!r}", at)
        return self.session

    def _command(self, keyword: str) -> None:
        kinds, runner = _COMMANDS[keyword]
        texts, values = zip(*(self._argument(kind) for kind in kinds))
        self.expect_op(";")
        self._add(f"{keyword} {' '.join(texts)};", runner, values)

    def _stmt_ring(self, at):
        if self.ring is not None:
            self.fail("a session declares exactly one ring", at)
        p = self._keyed("p")
        self._key("vars")
        variables = self._comma_list(self._name)
        self._key("order")
        order_at = self.peek()[2]
        order_name = self._name()
        if order_name not in _ORDERS:
            self.fail(f"order must be one of {sorted(_ORDERS)}, got {order_name!r}", order_at)
        self.expect_op(";")
        try:  # PolyRing refuses a p that is not a prime and repeated variables
            self.ring = self.session.ring = PolyRing(p, variables, _ORDERS[order_name]())
        except ValueError as exc:
            self.fail(str(exc), at)
        self.session.statements.append(
            f"ring p={p} vars={','.join(variables)} order={order_name};"
        )

    def _bind_name(self, at) -> str:
        if self.ring is None:
            self.fail("no ring declared yet", at)
        name_at = self.peek()[2]
        name = self._name()
        if name in self.ring._var_index:
            self.fail(f"{name!r} is a ring variable", name_at)
        if name in self.session.polys or name in self.session.ideals:
            self.fail(f"{name!r} is already bound", name_at)
        self.expect_op("=")
        return name

    def _stmt_poly(self, at):
        name = self._bind_name(at)
        value = self.parse_expr()
        self.expect_op(";")
        self.session.polys[name] = value
        self.session.statements.append(f"poly {name} = {value};")

    def _stmt_ideal(self, at):
        name = self._bind_name(at)
        gens = self._comma_list(self.parse_expr)
        self.expect_op(";")
        self.session.ideals[name] = Ideal(self.ring, gens)
        self.session.statements.append(
            f"ideal {name} = {', '.join(str(g) for g in gens)};"
        )

    def _stmt_seq(self, at):
        _, seq_kind, kind_at = self.advance()
        if seq_kind not in _SEQUENCES:
            self.fail(f"seq kind must be one of {sorted(_SEQUENCES)}, got {seq_kind!r}", kind_at)
        names, ideals = zip(*(self._argument("ideal") for _ in range(_SEQUENCES[seq_kind][0])))
        e_max = self._keyed("e_max")
        text = f"seq {seq_kind} {' '.join(names)} e_max={e_max}"
        d = None
        if self._at_name("d"):
            d = self._keyed("d")
            text += f" d={d}"
        mod_text, mod = self._optional_mod()
        self.expect_op(";")
        self._add(text + mod_text + ";", _seq, (seq_kind, ideals, e_max, d, mod))

    def _stmt_sandwich(self, at):
        (jname, j), (iname, i) = self._argument("ideal"), self._argument("ideal")
        n = self._keyed("n")
        mod_text, mod = self._optional_mod()
        self.expect_op(";")
        self._add(f"sandwich {jname} {iname} n={n}{mod_text};", _sandwich, (j, i, n, mod))

    def _stmt_verify(self, at):
        _, target, target_at = self.advance()
        if target not in _VERIFY_KEYS:
            self.fail("verify target must be construction or katzman", target_at)
        params = {key: self._keyed(key) for key in _VERIFY_KEYS[target]}
        text = f"verify {target} " + " ".join(f"{k}={v}" for k, v in params.items())
        if target == "katzman" and self._at_name("slow"):
            self.advance()
            params["slow"] = True
            text += " slow"
        self.expect_op(";")
        self._add(text + ";", _verify, (target, params))


def parse_session(text: str) -> Session:
    """Parse session text; raises ParseError with line/column on bad input."""
    return _SessionParser(text).parse()


# ---------------------------------------------------------------------------
# execution

def run(
    session: Session, *, json_mode: bool = False, default_d: int | None = None
) -> tuple[list[str], bool]:
    """Execute the session commands in order.

    Returns (per-command output strings, any-verification-failed flag).
    Output is a deterministic function of the session text.
    """
    state = _RunState(json_mode, default_d)
    outputs = [runner(state, *arguments) for runner, arguments in session.commands]
    return outputs, state.verify_failed


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkforge",
        description="characteristic-p Groebner engine and Hilbert-Kunz sequence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a session file ('-' for stdin)")
    run_p.add_argument("path")
    run_p.add_argument("--json", action="store_true", help="emit sequences as JSON instead of CSV")
    run_p.add_argument("--d", type=int, default=None, help="default scaling exponent for seq commands")

    verify_p = sub.add_parser("verify", help="run a built-in verification")
    vsub = verify_p.add_subparsers(dest="target", required=True)
    vc = vsub.add_parser("construction")
    vc.add_argument("--p", type=int, required=True)
    vc.add_argument("--m", type=int, required=True)
    vk = vsub.add_parser("katzman")
    vk.add_argument("--p", type=int, required=True)
    vk.add_argument("--e", type=int, required=True)
    vk.add_argument("--slow", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            if args.path == "-":
                text = sys.stdin.read()
            else:
                with open(args.path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            outputs, verify_failed = run(
                parse_session(text), json_mode=args.json, default_d=args.d
            )
        else:
            params = {key: getattr(args, key) for key in _VERIFY_KEYS[args.target]}
            if getattr(args, "slow", False):
                params["slow"] = True
            outputs, verify_failed = run(Session(commands=[(_verify, (args.target, params))]))
        for chunk in outputs:
            print(chunk)
        return EXIT_VERIFY if verify_failed else EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
