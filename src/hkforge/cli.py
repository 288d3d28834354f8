"""Line-oriented session language and the `hkforge` entry point.

A session is a list of `;`-terminated statements: one ring declaration,
named polynomial and ideal bindings, then commands.

    ring p=5 vars=s,x,y order=lex;
    poly G = x*y*(x-y)*(x+y-s*y);
    ideal E = x^9, y^9, G;
    gb E;
    member G E;
    seq rjj J I e_max=2 d=2 mod=G;
    verify construction p=5 m=4;

Sequences print CSV, everything else prints one JSON object per command, and
identical sessions produce byte-identical output.  Exit codes: 0 success,
1 engine error, 2 parse error, 3 a verification claim failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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
from .polyring import DegRevLex, Lex, PolyRing, Polynomial, is_prime, parse_polynomial
from .sequences import (
    check_sandwich,
    default_scaling_exponent,
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
# tokenizing

_PUNCT = set("=,;^*+-()")


def _tokenize(text: str):
    """(kind, value, line, col, offset) tuples; kinds: name, int, punct."""
    line, col = 1, 1
    i = 0
    out = []
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":  # comment to end of line
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start = i
        if ch.isdigit():
            while i < len(text) and text[i].isdigit():
                i += 1
            out.append(("int", text[start:i], line, col, start))
        elif ch.isalpha() or ch == "_":
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            out.append(("name", text[start:i], line, col, start))
        elif ch in _PUNCT:
            out.append(("punct", ch, line, col, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        col += i - start
    return out


# ---------------------------------------------------------------------------
# session model

@dataclass
class Session:
    """A parsed session: the ring, resolved bindings, and command list."""

    ring: PolyRing | None = None
    polys: dict[str, Polynomial] = field(default_factory=dict)
    ideals: dict[str, Ideal] = field(default_factory=dict)
    commands: list[tuple] = field(default_factory=list)
    statements: list[str] = field(default_factory=list)  # canonical text

    def pretty(self) -> str:
        """Canonical text that re-parses to an equivalent session."""
        return "\n".join(self.statements)


class _StatementParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.session = Session()

    # -- token helpers ----------------------------------------------------

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        if self.tokens:
            _, _, line, col, _ = self.tokens[-1]
        else:
            line, col = 1, 1
        return ("end", "", line, col, len(self.text))

    def _next(self):
        tok = self._peek()
        if tok[0] != "end":
            self.pos += 1
        return tok

    def _expect_punct(self, value: str):
        kind, val, line, col, _ = self._next()
        if kind != "punct" or val != value:
            raise ParseError(f"expected {value!r}, got {val!r}", line, col)

    def _expect_name(self) -> str:
        kind, val, line, col, _ = self._next()
        if kind != "name":
            raise ParseError(f"expected a name, got {val!r}", line, col)
        return val

    def _expect_int(self) -> int:
        kind, val, line, col, _ = self._next()
        if kind != "int":
            raise ParseError(f"expected an integer, got {val!r}", line, col)
        return int(val)

    def _expect_keyvalue(self, key: str) -> str:
        kind, val, line, col, _ = self._next()
        if kind != "name" or val != key:
            raise ParseError(f"expected {key}=..., got {val!r}", line, col)
        self._expect_punct("=")
        kind, val, line, col, _ = self._next()
        if kind not in {"name", "int"}:
            raise ParseError(f"expected a value for {key}", line, col)
        return val

    # -- expressions -------------------------------------------------------

    def _require_ring(self, line: int, col: int) -> PolyRing:
        if self.session.ring is None:
            raise ParseError("no ring declared yet", line, col)
        return self.session.ring

    def _parse_expression(self, stop_at_comma: bool) -> Polynomial:
        """Parse an expression slice with the polynomial grammar."""
        kind, val, line, col, start = self._peek()
        if kind == "end":
            raise ParseError("expected an expression", line, col)
        ring = self._require_ring(line, col)
        depth = 0
        end_offset = start
        while True:
            kind, val, line2, col2, off = self._peek()
            if kind == "end":
                raise ParseError("missing ';'", line2, col2)
            if kind == "punct":
                if val == "(":
                    depth += 1
                elif val == ")":
                    depth -= 1
                elif val == ";" and depth == 0:
                    break
                elif val == "," and depth == 0 and stop_at_comma:
                    break
            end_offset = off + len(val)
            self.pos += 1
        source = self.text[start:end_offset]
        try:
            return parse_polynomial(ring, source, self.session.polys)
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from exc

    # -- statements ----------------------------------------------------------

    def parse(self) -> Session:
        while self._peek()[0] != "end":
            self._parse_statement()
        return self.session

    def _parse_statement(self) -> None:
        kind, keyword, line, col, _ = self._next()
        if kind == "punct" and keyword == ";":
            return  # stray empty statement
        if kind != "name":
            raise ParseError(f"expected a statement, got {keyword!r}", line, col)
        handler = getattr(self, f"_stmt_{keyword}", None)
        if handler is None:
            raise ParseError(f"unknown statement {keyword!r}", line, col)
        handler(line, col)

    def _stmt_ring(self, line, col):
        if self.session.ring is not None:
            raise ParseError("a session declares exactly one ring", line, col)
        p = int(self._expect_keyvalue("p"))
        if not is_prime(p):
            raise ParseError(f"p must be prime, got {p}", line, col)
        kind, val, l2, c2, _ = self._next()
        if kind != "name" or val != "vars":
            raise ParseError("expected vars=...", l2, c2)
        self._expect_punct("=")
        variables = [self._expect_name()]
        while self._peek()[:2] == ("punct", ","):
            self._next()
            variables.append(self._expect_name())
        order_name = self._expect_keyvalue("order")
        if order_name not in _ORDERS:
            raise ParseError(
                f"order must be one of {sorted(_ORDERS)}, got {order_name!r}", line, col
            )
        self._expect_punct(";")
        self.session.ring = PolyRing(p, variables, _ORDERS[order_name]())
        self.session.statements.append(
            f"ring p={p} vars={','.join(variables)} order={order_name};"
        )

    def _bind_name(self, line, col) -> str:
        name = self._expect_name()
        ring = self._require_ring(line, col)
        if name in ring._var_index:
            raise ParseError(f"{name!r} is a ring variable", line, col)
        if name in self.session.polys or name in self.session.ideals:
            raise ParseError(f"{name!r} is already bound", line, col)
        return name

    def _stmt_poly(self, line, col):
        name = self._bind_name(line, col)
        self._expect_punct("=")
        value = self._parse_expression(stop_at_comma=False)
        self._expect_punct(";")
        self.session.polys[name] = value
        self.session.statements.append(f"poly {name} = {value};")

    def _stmt_ideal(self, line, col):
        name = self._bind_name(line, col)
        self._expect_punct("=")
        gens = [self._parse_expression(stop_at_comma=True)]
        while self._peek()[:2] == ("punct", ","):
            self._next()
            gens.append(self._parse_expression(stop_at_comma=True))
        self._expect_punct(";")
        ring = self._require_ring(line, col)
        self.session.ideals[name] = Ideal(ring, gens)
        self.session.statements.append(
            f"ideal {name} = {', '.join(str(g) for g in gens)};"
        )

    # -- name lookups ---------------------------------------------------------

    def _ideal_arg(self) -> tuple[str, Ideal]:
        kind, val, line, col, _ = self._next()
        if kind != "name" or val not in self.session.ideals:
            raise ParseError(f"unknown ideal {val!r}", line, col)
        return val, self.session.ideals[val]

    def _poly_or_ideal_arg(self):
        kind, val, line, col, _ = self._next()
        if kind == "name" and val in self.session.polys:
            return val, self.session.polys[val]
        if kind == "name" and val in self.session.ideals:
            return val, self.session.ideals[val]
        ring = self._require_ring(line, col)
        if kind == "name" and val in ring._var_index:
            return val, ring.gen(val)
        raise ParseError(f"unknown name {val!r}", line, col)

    def _poly_arg(self) -> tuple[str, Polynomial]:
        name, value = self._poly_or_ideal_arg()
        if isinstance(value, Ideal):
            kind, val, line, col, _ = self.tokens[self.pos - 1]
            raise ParseError(f"{name!r} names an ideal, need a polynomial", line, col)
        return name, value

    def _add_command(self, command: tuple, text: str) -> None:
        self.session.commands.append(command)
        self.session.statements.append(text)

    # -- commands ---------------------------------------------------------------

    def _stmt_gb(self, line, col):
        name, ideal = self._ideal_arg()
        self._expect_punct(";")
        self._add_command(("gb", name, ideal), f"gb {name};")

    def _stmt_nf(self, line, col):
        fname, f = self._poly_arg()
        iname, ideal = self._ideal_arg()
        self._expect_punct(";")
        self._add_command(("nf", fname, f, iname, ideal), f"nf {fname} {iname};")

    def _stmt_member(self, line, col):
        fname, f = self._poly_arg()
        iname, ideal = self._ideal_arg()
        self._expect_punct(";")
        self._add_command(("member", fname, f, iname, ideal), f"member {fname} {iname};")

    def _stmt_colon(self, line, col):
        iname, ideal = self._ideal_arg()
        xname, x = self._poly_or_ideal_arg()
        self._expect_punct(";")
        self._add_command(("colon", iname, ideal, xname, x), f"colon {iname} {xname};")

    def _stmt_intersect(self, line, col):
        aname, a = self._ideal_arg()
        bname, b = self._ideal_arg()
        self._expect_punct(";")
        self._add_command(("intersect", aname, a, bname, b), f"intersect {aname} {bname};")

    def _stmt_saturate(self, line, col):
        iname, ideal = self._ideal_arg()
        xname, x = self._poly_or_ideal_arg()
        self._expect_punct(";")
        self._add_command(("saturate", iname, ideal, xname, x), f"saturate {iname} {xname};")

    def _stmt_bracket(self, line, col):
        iname, ideal = self._ideal_arg()
        e = self._expect_int()
        self._expect_punct(";")
        self._add_command(("bracket", iname, ideal, e), f"bracket {iname} {e};")

    def _stmt_length(self, line, col):
        iname, ideal = self._ideal_arg()
        self._expect_punct(";")
        self._add_command(("length", iname, ideal), f"length {iname};")

    def _stmt_gamma_length(self, line, col):
        jname, j = self._ideal_arg()
        iname, i = self._ideal_arg()
        self._expect_punct(";")
        self._add_command(("gamma_length", jname, j, iname, i), f"gamma_length {jname} {iname};")

    _SEQ_ARITY = {"hk": 1, "rjj": 2, "sjj": 2, "vjj": 2, "lf": 1, "fdiff": 2}

    def _stmt_seq(self, line, col):
        kind, val, l2, c2, _ = self._next()
        if kind != "name" or val not in self._SEQ_ARITY:
            raise ParseError(
                f"seq kind must be one of {sorted(self._SEQ_ARITY)}, got {val!r}", l2, c2
            )
        seq_kind = val
        args = []
        for _ in range(self._SEQ_ARITY[seq_kind]):
            args.append(self._ideal_arg())
        e_max = int(self._expect_keyvalue("e_max"))
        d = None
        if self._peek()[:2] == ("name", "d"):
            self._next()
            self._expect_punct("=")
            d = self._expect_int()
        mod_name, mod = self._optional_mod()
        self._expect_punct(";")
        names = " ".join(name for name, _ in args)
        text = f"seq {seq_kind} {names} e_max={e_max}"
        if d is not None:
            text += f" d={d}"
        if mod_name:
            text += f" mod={mod_name}"
        self._add_command(
            ("seq", seq_kind, tuple(ideal for _, ideal in args), e_max, d, mod), text + ";"
        )

    def _stmt_sandwich(self, line, col):
        jname, j = self._ideal_arg()
        iname, i = self._ideal_arg()
        n = int(self._expect_keyvalue("n"))
        mod_name, mod = self._optional_mod()
        self._expect_punct(";")
        text = f"sandwich {jname} {iname} n={n}" + (f" mod={mod_name}" if mod_name else "") + ";"
        self._add_command(("sandwich", jname, j, iname, i, n, mod), text)

    def _optional_mod(self):
        if self._peek()[:2] == ("name", "mod"):
            self._next()
            self._expect_punct("=")
            name, value = self._poly_arg()
            return name, value
        return None, None

    def _stmt_verify(self, line, col):
        kind, target, l2, c2, _ = self._next()
        if kind != "name" or target not in {"construction", "katzman"}:
            raise ParseError("verify target must be construction or katzman", l2, c2)
        p = int(self._expect_keyvalue("p"))
        if target == "construction":
            m = int(self._expect_keyvalue("m"))
            self._expect_punct(";")
            self._add_command(("verify", "construction", p, m), f"verify construction p={p} m={m};")
        else:
            e = int(self._expect_keyvalue("e"))
            slow = False
            if self._peek()[:2] == ("name", "slow"):
                self._next()
                slow = True
            self._expect_punct(";")
            text = f"verify katzman p={p} e={e}" + (" slow" if slow else "") + ";"
            self._add_command(("verify", "katzman", p, e, slow), text)


def parse_session(text: str) -> Session:
    """Parse session text; raises ParseError with line/column on bad input."""
    return _StatementParser(text).parse()


# ---------------------------------------------------------------------------
# execution

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
    payload = {"generators": [str(g) for g in ideal.generators]}
    payload.update(extra)
    return _json(payload)


def _run_seq(command, json_mode: bool, default_d: int | None) -> str:
    _, seq_kind, ideals, e_max, d, mod = command
    if d is None:
        d = default_d
    if seq_kind == "lf":
        l_values, f_values = lf_sequences(ideals[0], e_max, hypersurface=mod)
        if json_mode:
            return _json({"kind": "lf", "l": l_values, "f": f_values})
        lines = ["kind,e,q,raw,scaled_num,scaled_den"]
        ring = ideals[0].ring
        d_eff = d if d is not None else default_scaling_exponent(ring, mod)
        for e, raw in enumerate(l_values[1:]):
            q = ring.p**e
            scaled = Fraction(raw, q**d_eff)
            lines.append(f"le,{e},{q},{raw},{scaled.numerator},{scaled.denominator}")
        for n, raw in enumerate(f_values):
            q = ring.p**n
            scaled = Fraction(raw, q**d_eff)
            lines.append(f"fe,{n},{q},{raw},{scaled.numerator},{scaled.denominator}")
        return "\n".join(lines)
    builder = {
        "hk": lambda: hk_function(ideals[0], e_max, d, mod),
        "rjj": lambda: rjj_sequence(ideals[0], ideals[1], e_max, d, mod),
        "sjj": lambda: sjj_sequence(ideals[0], ideals[1], e_max, d, mod),
        "vjj": lambda: vjj_sequence(ideals[0], ideals[1], e_max, d, mod),
        "fdiff": lambda: f_difference_sequence(ideals[0], ideals[1], e_max, d, mod),
    }[seq_kind]
    report = builder()
    return report.to_json() if json_mode else report.to_csv()


def run(
    session: Session, *, json_mode: bool = False, default_d: int | None = None
) -> tuple[list[str], bool]:
    """Execute the session commands in order.

    Returns (per-command output strings, any-verification-failed flag).
    Output is a deterministic function of the session text.
    """
    outputs: list[str] = []
    verify_failed = False
    for command in session.commands:
        kind = command[0]
        if kind == "gb":
            _, name, ideal = command
            basis = ideal.groebner_basis()
            outputs.append(
                _json(
                    {
                        "basis": [str(g) for g in basis],
                        "order": basis.order.describe(),
                        "reduced": basis.reduced,
                    }
                )
            )
        elif kind == "nf":
            _, fname, f, iname, ideal = command
            outputs.append(_json({"result": str(ideal.groebner_basis().reduce(f))}))
        elif kind == "member":
            _, fname, f, iname, ideal = command
            outputs.append(_json({"member": ideal.contains(f)}))
        elif kind == "colon":
            _, iname, ideal, xname, x = command
            result = (
                colon_element(ideal, x) if isinstance(x, Polynomial) else colon_ideal(ideal, x)
            )
            outputs.append(_ideal_json(result))
        elif kind == "intersect":
            _, aname, a, bname, b = command
            outputs.append(_ideal_json(intersect(a, b)))
        elif kind == "saturate":
            _, iname, ideal, xname, x = command
            stable, steps = saturate(ideal, x)
            outputs.append(_ideal_json(stable, exponent=steps))
        elif kind == "bracket":
            _, iname, ideal, e = command
            outputs.append(_ideal_json(bracket_power(ideal, e)))
        elif kind == "length":
            _, iname, ideal = command
            outputs.append(_length_json(finite_colength_length(ideal)))
        elif kind == "gamma_length":
            _, jname, j, iname, i = command
            outputs.append(_length_json(gamma_length(j, i)))
        elif kind == "seq":
            outputs.append(_run_seq(command, json_mode, default_d))
        elif kind == "sandwich":
            _, jname, j, iname, i, n, mod = command
            outputs.append(check_sandwich(j, i, n, hypersurface=mod).to_json())
        elif kind == "verify":
            if command[1] == "construction":
                _, _, p, m = command
                report = verify_construction(p, m)
            else:
                _, _, p, e, slow = command
                report = verify_katzman(p, e, slow=slow)
            if not report.ok:
                verify_failed = True
            outputs.append(report.to_json())
        else:  # pragma: no cover - parser emits only the kinds above
            raise EngineError(f"unknown command {kind!r}")
    return outputs, verify_failed


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
            session = parse_session(text)
            outputs, verify_failed = run(session, json_mode=args.json, default_d=args.d)
            for chunk in outputs:
                print(chunk)
            return EXIT_VERIFY if verify_failed else EXIT_OK
        # verify subcommand
        if args.target == "construction":
            report = verify_construction(args.p, args.m)
        else:
            report = verify_katzman(args.p, args.e, slow=args.slow)
        print(report.to_json())
        return EXIT_OK if report.ok else EXIT_VERIFY
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
