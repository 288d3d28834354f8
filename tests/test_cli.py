import json
import os
import subprocess
import sys

import pytest

from hkforge import ParseError, parse_session, run
from hkforge.cli import EXIT_ENGINE, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main

KATZMAN_SESSION = """\
ring p=3 vars=s,x,y order=lex;
poly G = x*y*(x-y)*(x+y-s*y);
ideal J = x^3, y^3;
ideal I = x^3, x^2*y, x*y^2, y^3;
seq rjj J I e_max=2 d=2 mod=G;
"""


# -- parsing --------------------------------------------------------------------

def test_parse_ring_header():
    session = parse_session("ring p=3 vars=s,x,y order=lex;")
    assert session.ring.p == 3
    assert session.ring.variables == ("s", "x", "y")
    assert session.ring.order.describe() == "lex"


def test_parse_rejects_composite_characteristic():
    with pytest.raises(ParseError, match="prime"):
        parse_session("ring p=4 vars=x,y order=lex;")


def test_parse_binds_polynomials_into_ideals():
    session = parse_session(
        "ring p=5 vars=s,x,y order=lex;\n"
        "poly G = x*y*(x-y)*(x+y-s*y);\n"
        "ideal E = x^9, y^9, G;\n"
    )
    assert set(session.polys) == {"G"}
    assert set(session.ideals) == {"E"}
    assert len(session.ideals["E"].generators) == 3


def test_parse_unknown_identifier_reports_location():
    with pytest.raises(ParseError) as info:
        parse_session("ring p=3 vars=x,y order=lex;\nideal E = x, w;\n")
    assert info.value.line == 2


def test_parse_missing_semicolon():
    with pytest.raises(ParseError, match=";"):
        parse_session("ring p=3 vars=x,y order=lex")


def test_parse_requires_ring_before_bindings():
    with pytest.raises(ParseError, match="ring"):
        parse_session("poly F = x;")


def test_parse_rejects_rebinding():
    with pytest.raises(ParseError, match="bound"):
        parse_session("ring p=3 vars=x,y order=lex;\npoly F = x;\npoly F = y;\n")


def test_parse_rejects_variable_shadowing():
    with pytest.raises(ParseError, match="variable"):
        parse_session("ring p=3 vars=x,y order=lex;\npoly x = y;\n")


def test_parse_one_ring_per_session():
    with pytest.raises(ParseError, match="one ring"):
        parse_session("ring p=3 vars=x order=lex;\nring p=5 vars=y order=lex;\n")



EVERY_STATEMENT = """\
# every statement form, with comments
ring p=3 vars=s,x,y order=lex;   # the ambient ring
poly G = x*y*(x-y)*(x+y-s*y);
poly F = -(x + y)^2 + 3*s - 2;   # constants reduce mod p
ideal J = x^3, y^3;
ideal I = x^3, x^2*y, x*y^2, y^3;
ideal M = s, x, y;
gb J;
nf F J;
member G J;
colon I x;
colon J M;
colon J G;
intersect J I;
saturate I x;
saturate J M;
bracket J 1;
length J;
gamma_length J I;
seq hk M e_max=1;
seq rjj J I e_max=2 d=2 mod=G;
seq sjj J I e_max=2 d=1 mod=G;
seq vjj J I e_max=1;
seq lf J e_max=1;
seq fdiff J I e_max=1 mod=G;
sandwich J I n=1 mod=G;
sandwich J I n=0;
verify construction p=3 m=4;
verify katzman p=3 e=2 slow;
verify katzman p=5 e=1;
"""

EVERY_STATEMENT_PRETTY = """\
ring p=3 vars=s,x,y order=lex;
poly G = 2*s*x^2*y^2 + s*x*y^3 + x^3*y + 2*x*y^3;
poly F = 2*x^2 + x*y + 2*y^2 + 1;
ideal J = x^3, y^3;
ideal I = x^3, x^2*y, x*y^2, y^3;
ideal M = s, x, y;
gb J;
nf F J;
member G J;
colon I x;
colon J M;
colon J G;
intersect J I;
saturate I x;
saturate J M;
bracket J 1;
length J;
gamma_length J I;
seq hk M e_max=1;
seq rjj J I e_max=2 d=2 mod=G;
seq sjj J I e_max=2 d=1 mod=G;
seq vjj J I e_max=1;
seq lf J e_max=1;
seq fdiff J I e_max=1 mod=G;
sandwich J I n=1 mod=G;
sandwich J I n=0;
verify construction p=3 m=4;
verify katzman p=3 e=2 slow;
verify katzman p=5 e=1;"""


def test_every_statement_form_round_trips():
    # parsing only: nothing here runs a command
    session = parse_session(EVERY_STATEMENT)
    assert session.pretty() == EVERY_STATEMENT_PRETTY
    assert parse_session(session.pretty()).pretty() == session.pretty()


def test_readme_session_syntax_round_trips():
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    cli_section = readme.read_text().split("## The CLI", 1)[1].split("\n## ", 1)[0]
    text = cli_section.split("```text\n", 1)[1].split("```", 1)[0]
    session = parse_session(text)
    statements = [line for line in text.splitlines() if line.split("#", 1)[0].strip()]
    assert len(session.statements) == len(statements) > 10
    assert parse_session(session.pretty()).pretty() == session.pretty()


def test_console_script_names_main():
    """The `hkforge` command that installing the package makes runs the
    `[project.scripts]` entry, which must name `hkforge.cli.main`.
    pyproject.toml is read as plain text, since Python 3.10 has no tomllib."""
    import importlib
    import pathlib

    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    section = pyproject.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.split(" = ", 1) for line in section.splitlines() if line.strip())
    module, attr = scripts["hkforge"].strip('"').split(":")
    assert getattr(importlib.import_module(module), attr) is main


def _parse_error(text: str, tmp_path, capsys) -> str:
    path = tmp_path / "bad.hk"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    return err[len("parse error: "):]


@pytest.mark.parametrize(
    "text, location",
    [
        ("ring p=x vars=x,y order=lex;", "1:8: "),
        ("ring p=3 vars=x,y order=lex;\nideal I = x, y;\nseq hk I e_max=abc;", "3:16: "),
        ("verify construction p=x m=4;", "1:23: "),
        ("ring p=3317044064679887385961981 vars=x order=lex;", "1:1: "),
        ("ring p=3 vars=x,x order=lex;", "1:1: variables must be distinct"),
        ("ring p=\u00b3 vars=x order=lex;", "1:8: unexpected character '\u00b3'"),
    ],
    ids=[
        "ring-p", "seq-e_max", "verify-p", "p-past-primality-bound", "repeated-variable",
        "superscript-p",
    ],
)
def test_malformed_value_is_a_located_parse_error(text, location, tmp_path, capsys):
    assert _parse_error(text, tmp_path, capsys).startswith(location)


@pytest.mark.parametrize(
    "statement, expected",
    [
        ("poly F = (x + y;", "2:16: expected ')'"),
        ("poly F = x +* y;", "2:13: unexpected token '*'"),
        ("ideal E = x, y w;", "2:16: expected ';'"),
        ("ideal E = x, w;", "2:14: unknown name 'w'"),
        ("poly F = x $ y;", "2:12: unexpected character '$'"),
        # Unicode digits are digits to str.isdigit, but no integer here
        ("poly F = x^\u00b2;", "2:12: unexpected character '\u00b2'"),
        ("poly F = x^\u0661\u0662;", "2:12: unexpected character '\u0661'"),
        # nesting past the parser's bound is a syntax error, not a RecursionError
        pytest.param(
            "poly F = " + "(" * 3000 + "x" + ")" * 3000 + ";",
            "2:110: expression nested deeper",
            id="3000-parentheses",
        ),
        pytest.param(
            "poly F = " + "-" * 3000 + "x;", "2:111: expression nested deeper", id="3000-minus"
        ),
    ],
)
def test_expression_errors_point_at_the_offending_token(statement, expected, tmp_path, capsys):
    text = f"ring p=3 vars=x,y order=lex;\n{statement}\n"
    assert _parse_error(text, tmp_path, capsys).startswith(expected)


# -- running ----------------------------------------------------------------------

def test_run_katzman_sequence_rows():
    session = parse_session(KATZMAN_SESSION)
    outputs, failed = run(session)
    assert not failed
    lines = outputs[0].split("\n")
    assert lines[0] == "kind,e,q,raw,scaled_num,scaled_den"
    raws = [int(line.split(",")[3]) for line in lines[1:]]
    assert len(raws) == 3
    assert all(raw in (0, 1) for raw in raws)


def test_run_length_of_non_finite_ideal():
    session = parse_session(
        "ring p=5 vars=s,x,y order=lex;\n"
        "poly G = x*y*(x-y)*(x+y-s*y);\n"
        "ideal E = x^9, y^9, G;\n"
        "length E;\n"
    )
    outputs, _ = run(session)
    assert json.loads(outputs[0])["finite"] is False


def test_run_empty_command_list_is_empty_output():
    session = parse_session("ring p=3 vars=x,y order=lex;")
    outputs, failed = run(session)
    assert outputs == [] and not failed


def test_run_commands_cover_the_engine():
    session = parse_session(
        "ring p=3 vars=x,y order=lex;\n"
        "ideal I = x^2, x*y;\n"
        "ideal M = x, y;\n"
        "ideal P = x^2, y^2;\n"
        "poly U = x;\n"
        "gb I;\n"
        "nf U I;\n"
        "member U I;\n"
        "colon I M;\n"
        "colon I U;\n"
        "intersect I M;\n"
        "saturate I M;\n"
        "bracket I 1;\n"
        "gamma_length I M;\n"
        "sandwich P M n=1;\n"
    )
    outputs, failed = run(session)
    assert not failed
    payloads = [json.loads(chunk) for chunk in outputs]
    assert payloads[0]["reduced"] is True
    assert payloads[1]["result"] == "x"
    assert payloads[2]["member"] is False
    assert payloads[3]["generators"] == ["x"]  # (x^2, xy) : (x, y)
    assert payloads[4]["generators"] == ["x", "y"]  # (x^2, xy) : x
    assert payloads[6]["exponent"] == 1  # saturation of x(x,y) needs one colon
    assert payloads[7]["generators"] == ["x^6", "x^3*y^3"]
    assert payloads[8]["value"] == 1
    assert payloads[9]["holds"] is True


def test_run_seq_json_mode():
    session = parse_session(KATZMAN_SESSION)
    outputs, _ = run(session, json_mode=True)
    payload = json.loads(outputs[0])
    assert payload["kind"] == "rjj"
    assert payload["hypersurface"].startswith("2*s*x^2*y^2")


def test_run_lf_csv_rows():
    session = parse_session(
        "ring p=3 vars=x,y order=lex;\nideal M = x, y;\nseq lf M e_max=2;\n"
    )
    outputs, _ = run(session)
    lines = outputs[0].split("\n")
    assert lines[0] == "kind,e,q,raw,scaled_num,scaled_den"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"le", "fe"}



@pytest.mark.parametrize(
    "suffix, rows",
    [
        ("", "le,0,1,16,16,1\nle,1,3,144,16,1\nfe,0,1,2,2,1\nfe,1,3,18,2,1\nfe,2,9,162,2,1"),
        (" d=1", "le,0,1,16,16,1\nle,1,3,144,48,1\nfe,0,1,2,2,1\nfe,1,3,18,6,1\nfe,2,9,162,18,1"),
    ],
    ids=["default-d", "d=1"],
)
def test_run_lf_golden_bytes(suffix, rows):
    session = parse_session(
        f"ring p=3 vars=x,y order=lex;\nideal M = x, y^2;\nseq lf M e_max=2{suffix};\n"
    )
    assert run(session)[0] == ["kind,e,q,raw,scaled_num,scaled_den\n" + rows]
    assert run(session, json_mode=True)[0] == [
        '{"f": [2, 18, 162], "kind": "lf", "l": [2, 16, 144]}'
    ]

def test_run_verify_statement():
    session = parse_session("verify construction p=3 m=4;")
    outputs, failed = run(session)
    assert not failed
    assert json.loads(outputs[0])["pass"] is True


# -- round trip and determinism ------------------------------------------------------

def test_pretty_reparse_is_equivalent():
    session = parse_session(KATZMAN_SESSION)
    again = parse_session(session.pretty())
    assert again.pretty() == session.pretty()
    assert run(again) == run(session)


def test_identical_sessions_give_identical_bytes():
    a = "\n".join(run(parse_session(KATZMAN_SESSION))[0]).encode()
    b = "\n".join(run(parse_session(KATZMAN_SESSION))[0]).encode()
    assert a == b


def test_katzman_csv_golden_bytes():
    outputs, _ = run(parse_session(KATZMAN_SESSION))
    assert outputs[0] == (
        "kind,e,q,raw,scaled_num,scaled_den\n"
        "rjj,0,1,1,1,1\n"
        "rjj,1,3,1,1,9\n"
        "rjj,2,9,1,1,81"
    )


# -- entry point -----------------------------------------------------------------------

def test_main_runs_a_session_file(tmp_path, capsys):
    path = tmp_path / "session.hk"
    path.write_text(KATZMAN_SESSION)
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out.startswith("kind,e,q,raw")


def test_main_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.hk"
    path.write_text("ring p=4 vars=x order=lex;")
    assert main(["run", str(path)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_main_engine_error_exit_code(tmp_path, capsys):
    path = tmp_path / "engine.hk"
    path.write_text(
        "ring p=3 vars=x,y order=lex;\nideal I = x;\nbracket I 7;\n"
    )
    assert main(["run", str(path)]) == EXIT_ENGINE
    assert "cap" in capsys.readouterr().err


def test_main_env_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HKFORGE_EMAX_CAP", "7")
    path = tmp_path / "engine.hk"
    path.write_text(
        "ring p=3 vars=x,y order=lex;\nideal I = x;\nbracket I 7;\n"
    )
    assert main(["run", str(path)]) == EXIT_OK
    assert "x^2187" in capsys.readouterr().out


VERIFY_CONSTRUCTION_3_4 = (
    '{"claims": [{"detail": "12/12 generators of (x,y)^11 lie in e", "label": "1: b <= e", "pass": true}, '
    '{"detail": "multiplying f by s lands in e", "label": "2: s*f in e", "pass": true}, '
    '{"detail": "x*f: True, y*f: True", "label": "3: x*f, y*f in e", "pass": true}, '
    '{"detail": "f outside: True, colon equals (s,x,y): True", "label": "4: f not in e and (e : f) = m", "pass": true}, '
    '{"detail": "h is s-saturated", "label": "5: (h : s) = h", "pass": true}, '
    '{"detail": "s-saturation in 1 step(s), m-saturation in 1 step(s)", "label": "6: e : s^inf = e : m^inf = h", "pass": true}, '
    '{"detail": "computed length 1", "label": "7: len Gamma_m(A/e) = 1", "pass": true}, '
    '{"detail": "certificate pass: True, leading monomials match: True", "label": "basis: explicit set certifies", "pass": true}], "params": {"m": 4, "n": 9, "p": 3}, "pass": true, "target": "construction"}'
    "\n"
)


def test_main_verify_construction(capsys):
    assert main(["verify", "construction", "--p", "3", "--m", "4"]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_CONSTRUCTION_3_4


UNIT_IDEAL_SESSION = """\
ring p=3 vars=x,y order=degrevlex;
ideal A = x, x + 1;
ideal B = y^2, x*y;
ideal C = x^2, x*y;
ideal M = x, y;
intersect A B;
intersect B A;
intersect A A;
colon C M;
saturate C M;
saturate C x;
saturate B A;
"""


def test_main_unit_ideal_session_golden_bytes(tmp_path, capsys):
    """A = (x, x + 1) is the unit ideal without a constant generator: an
    intersection with it prints the other argument's generators."""
    path = tmp_path / "unit.hk"
    path.write_text(UNIT_IDEAL_SESSION)
    assert main(["run", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{"generators": ["y^2", "x*y"]}\n'
        '{"generators": ["y^2", "x*y"]}\n'
        '{"generators": ["x", "x + 1"]}\n'
        '{"generators": ["x"]}\n'
        '{"exponent": 1, "generators": ["x"]}\n'
        '{"exponent": 2, "generators": ["1"]}\n'
        '{"exponent": 0, "generators": ["y^2", "x*y"]}\n'
    )


@pytest.mark.parametrize(
    "target",
    [["construction", "--m", "4"], ["katzman", "--e", "1"]],
    ids=["construction", "katzman"],
)
def test_main_verify_has_no_json_flag(target):
    # verify output is always JSON, so the flag is refused
    with pytest.raises(SystemExit):
        main(["verify", *target, "--p", "3", "--json"])


def test_main_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("ring p=3 vars=x order=lex;\nideal I = x;\nlength I;\n"))
    assert main(["run", "-"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_main_default_d_flag(tmp_path, capsys):
    path = tmp_path / "session.hk"
    path.write_text("ring p=3 vars=x,y order=lex;\nideal M = x, y;\nseq hk M e_max=1;\n")
    assert main(["run", str(path), "--d", "1"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[2] == "hk,1,3,9,3,1"  # raw 9 scaled by q^1


@pytest.mark.parametrize("kind", ["hk", "lf"])
def test_main_negative_d_is_an_engine_error(tmp_path, capsys, kind):
    path = tmp_path / "session.hk"
    path.write_text(f"ring p=3 vars=x,y order=lex;\nideal M = x, y;\nseq {kind} M e_max=1;\n")
    assert main(["run", str(path), "--d", "-1"]) == EXIT_ENGINE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "got -1" in captured.err
    assert not captured.out


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["csv", "json"])
@pytest.mark.parametrize(
    "statement, flags, message",
    [
        ("seq lf K e_max=1;", ["--d", "-1"], "got -1"),
        ("poly G = 2;\nseq lf K e_max=1 mod=G;", [], "empty variety"),
    ],
    ids=["negative-d", "unit-hypersurface"],
)
def test_lf_refuses_a_bad_scaling_exponent_in_both_modes(
    tmp_path, capsys, mode, statement, flags, message
):
    """The output mode never decides whether a statement is accepted."""
    path = tmp_path / "session.hk"
    path.write_text(f"ring p=3 vars=x,y order=degrevlex;\nideal K = x^2, y^2;\n{statement}\n")
    assert main(["run", str(path), *flags, *mode]) == EXIT_ENGINE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert not captured.out


def test_main_verify_katzman_needs_slow(capsys):
    assert main(["verify", "katzman", "--p", "3", "--e", "2"]) == EXIT_ENGINE
    assert "--slow" in capsys.readouterr().err


def test_main_verification_failure_exit_code(monkeypatch, capsys):
    from hkforge import cli as cli_module
    from hkforge.verify import Claim, ClaimReport

    fake = ClaimReport("construction", {"p": 3, "m": 4}, (Claim("1", False, "forced"),))
    monkeypatch.setattr(cli_module, "verify_construction", lambda p, m: fake)
    assert main(["verify", "construction", "--p", "3", "--m", "4"]) == EXIT_VERIFY


def test_shipped_sample_session_runs_clean(capsys):
    import pathlib

    sample = pathlib.Path(__file__).resolve().parent.parent / "demos" / "sample_session.hk"
    assert main(["run", str(sample)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rjj,2,9,1,1,81" in out
    assert '"target": "construction"' in out
    assert '"target": "katzman"' in out


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "hkforge", "verify", "construction", "--p", "3", "--m", "4"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["pass"] is True
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_output_identical_across_processes(tmp_path):
    """Hash-seed independence: two fresh interpreters emit the same bytes."""
    path = tmp_path / "session.hk"
    path.write_text(KATZMAN_SESSION + "verify construction p=3 m=4;\n")

    def run_once(seed: str) -> bytes:
        # Forward the caller's environment so the child finds the package the
        # same way this interpreter did (installed, or via PYTHONPATH=src).
        proc = subprocess.run(
            [sys.executable, "-m", "hkforge", "run", str(path)],
            capture_output=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        out = proc.stdout.decode()
        assert "rjj,2,9,1,1,81" in out, out
        assert '"target": "construction"' in out, out
        return proc.stdout

    assert run_once("1") == run_once("2")
