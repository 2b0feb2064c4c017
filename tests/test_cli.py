"""Command line behaviour: output contracts and exit codes."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

from arrowlang import cli, semantics
from arrowlang.cli import main
from arrowlang.combinator import decode, encode
from arrowlang.errors import NonNumericOutcome
from arrowlang.parser import load_file, load_text, parse, pretty
from arrowlang.semantics import interpret, trace
from arrowlang.subdist import FAILURE, Subdist, expected_value, ket
from arrowlang.syntax import alpha_eq, applicable_steps

ROOT = Path(__file__).resolve().parent.parent
PUZZLES = ROOT / "puzzles"
# `eq` on two programs without a GEN: one exact run of each, no random trial
EXACT_EQUAL = ("programs are equal: neither declares a GEN,"
               " so the declared tables are their only interpretation\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_monty_hall(capsys):
    code, out, _ = run_cli(capsys, "run", str(PUZZLES / "monty_hall.arrow"))
    assert code == 0
    assert "Final: 1/6|M> + 1/3|R>" in out
    assert "Validity: 1/2" in out
    assert "Posterior: 1/3|M> + 2/3|R>" in out


def test_run_normalized_full_monty_hall(capsys):
    code, out, _ = run_cli(capsys, "run", "--normalize-each-line",
                           str(PUZZLES / "monty_hall_full.arrow"))
    assert code == 0
    assert "Posterior: 1/3|M> + 2/3|R>" in out


def test_run_expected_value_newcomb(capsys):
    code, out, _ = run_cli(capsys, "run", "--expected-value", str(PUZZLES / "newcomb_a.arrow"))
    assert code == 0 and "Expected value: 1" in out
    code, out, _ = run_cli(capsys, "run", "--expected-value", str(PUZZLES / "newcomb_b.arrow"))
    assert code == 0 and "Expected value: 10" in out


def test_run_expected_value_imperfect(capsys):
    code, out, _ = run_cli(capsys, "run", "--expected-value",
                           str(PUZZLES / "imperfect_newcomb_a.arrow"))
    assert code == 0 and "Expected value: 3" in out
    code, out, _ = run_cli(capsys, "run", "--expected-value",
                           str(PUZZLES / "imperfect_newcomb_b.arrow"))
    assert code == 0 and "Expected value: 8" in out


def test_trace_three_prisoners_line_two(capsys):
    code, out, _ = run_cli(capsys, "trace", str(PUZZLES / "three_prisoners.arrow"))
    assert code == 0
    assert "1/6|A,B> + 1/6|A,C> + 1/3|B,C> + 1/3|C,B>" in out


def test_trace_sailor_line_two(capsys):
    code, out, _ = run_cli(capsys, "trace", str(PUZZLES / "sailors_child.arrow"))
    assert code == 0
    assert "1/4|H,A> + 1/4|H,B> + 1/4|T,A> + 1/4|T,B>" in out


def test_trace_imperfect_newcomb_line_four(capsys):
    code, out, _ = run_cli(capsys, "trace", str(PUZZLES / "imperfect_newcomb_a.arrow"))
    assert code == 0
    assert "1/5|a,a,T> + 1/20|a,b,T> + 1/20|b,a,T> + 1/5|b,b,T>" in out


def test_run_trace_flag_equals_trace(capsys):
    code1, out1, _ = run_cli(capsys, "run", "--trace", str(PUZZLES / "monty_hall.arrow"))
    code2, out2, _ = run_cli(capsys, "trace", str(PUZZLES / "monty_hall.arrow"))
    assert (code1, out1) == (code2, out2)


def test_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "trace", str(PUZZLES / "sailors_child.arrow"))
    _, second, _ = run_cli(capsys, "trace", str(PUZZLES / "sailors_child.arrow"))
    assert first == second


def test_structured_output(capsys):
    code, out, _ = run_cli(capsys, "run", "--format", "structured",
                           str(PUZZLES / "monty_hall.arrow"))
    assert code == 0
    doc = json.loads(out)
    assert doc["validity"] == {"num": 1, "den": 2}
    assert doc["failure"] is False
    assert {"weight": {"num": 1, "den": 3}, "outcome": ["M"]} in doc["posterior"]
    assert doc["lines"][0]["statement"] == "car <- UNIFORM {L, M, R}"
    code, out, err = run_cli(capsys, "run", "--format", "structured", "--expected-value",
                             str(PUZZLES / "newcomb_a.arrow"))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["expected_value"] == {"den": 1, "num": 1}
    assert doc["posterior"] == [{"outcome": ["$1"], "weight": {"den": 1, "num": 1}}]
    assert doc["validity"] == {"den": 4, "num": 1} and len(doc["lines"]) == 6


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.arrow"
    bad.write_text("TYPE Coin = {H, T}\nx <- UNIFORM {H T}\nRETURN(x)\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert "error" in err


def test_superscript_digit_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.arrow"
    bad.write_text("TYPE A = {²}\nx <- UNIFORM {²}\nRETURN(x)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert (code, out, err) == (1, "", "error: 1:11: unexpected character '²'\n")


@pytest.mark.parametrize("command", ["run", "trace", "eq"])
@pytest.mark.parametrize("text, error", [
    ("TYPE Coin = {H, T}\nx <- UNIFORM {H, T}\nRETURN(y)\n",
     "error: line 3: variable y not in scope in RETURN(y)\n"),
    ("TYPE Coin = {H, T}\nx <- UNIFORM {H, T}\nOBSERVE(H IN x)\nRETURN(x)\n",
     "error: line 3: x is not set-valued\n"),
])
def test_load_error_is_one_line_naming_its_line(tmp_path, capsys, command, text, error):
    path = tmp_path / "bad.arrow"
    path.write_text(text)
    paths = [str(path), str(path)] if command == "eq" else [str(path)]
    assert run_cli(capsys, command, *paths) == (1, "", error)


def test_arg_parser_is_built_once():
    assert cli.build_arg_parser() is cli.build_arg_parser()


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_file.arrow")
    assert code == 1


FAILING = """TYPE Coin = {H, T}
GEN always_h : () -> Coin = () -> 1|H>
GEN always_t : () -> Coin = () -> 1|T>
x <- always_h()
y <- always_t()
OBSERVE(x = y)
RETURN(x)
"""


def test_zero_mass_run_exits_two(tmp_path, capsys):
    f = tmp_path / "fail.arrow"
    f.write_text(FAILING)
    code, out, _ = run_cli(capsys, "run", str(f))
    assert code == 2
    assert "Final: 0" in out
    assert "Posterior: Failure" in out
    assert run_cli(capsys, "trace", str(f)) == (2, (
        "(1) x <- always_h() | 1|H>\n(2) y <- always_t() | 1|H,T>\n(3) OBSERVE(x = y) | 0\n"
        "(4) RETURN(x) | 0\nValidity: 0\nFailure\n"), "")


def _run_text(result, with_ev: bool) -> str:
    """What `run` prints for a trace result."""
    lines = [f"Final: {ket(result.final)}", f"Validity: {result.validity}"]
    if result.posterior is FAILURE:
        lines.append("Posterior: Failure")
    else:
        lines.append(f"Posterior: {ket(result.posterior)}")
        if with_ev:
            lines.append(f"Expected value: {expected_value(result.posterior)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", sorted(PUZZLES.glob("*.arrow")), ids=lambda p: p.stem)
def test_run_prints_what_the_trace_gives(path, capsys):
    # plain `run` evaluates without recording lines; its output must still
    # follow from the full trace
    prog = load_file(path)
    _, result = trace(prog.typed, prog.interp, prog.texts)
    for flags in ([], ["--expected-value"]):
        code, out, err = run_cli(capsys, "run", *flags, str(path))
        try:
            expected = _run_text(result, bool(flags))
        except NonNumericOutcome:
            assert (code, out) == (1, "") and err.startswith("error:")
            continue
        assert (code, out) == (2 if result.posterior is FAILURE else 0, expected)


def test_zero_mass_normalized_exits_two(tmp_path, capsys):
    f = tmp_path / "fail.arrow"
    f.write_text(FAILING)
    code, out, _ = run_cli(capsys, "run", "--normalize-each-line", str(f))
    assert code == 2
    assert "line 3" in out
    assert run_cli(capsys, "run", "--normalize-each-line", "--format", "structured", str(f)) == (
        2, '{"failure": true, "failure_line": 3, "lines": [], "posterior": [], '
           f'"program": "{f}", "validity": {{"den": 1, "num": 0}}}}\n', "")


def test_eq_program_with_itself(capsys):
    code, out, _ = run_cli(capsys, "eq", str(PUZZLES / "monty_hall.arrow"),
                           str(PUZZLES / "monty_hall.arrow"), "--trials", "5")
    assert code == 0


@pytest.mark.parametrize("trials", ["-3", "-1"])
def test_eq_rejects_a_negative_trial_count(capsys, trials):
    monty_hall = str(PUZZLES / "monty_hall.arrow")
    with pytest.raises(SystemExit) as exc:
        main(["eq", monty_hall, monty_hall, "--trials", trials])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err == f"error: argument --trials: must not be negative, got {trials}\n"
    assert run_cli(capsys, "eq", monty_hall, monty_hall, "--trials", "0")[:2] == (0, EXACT_EQUAL)


def test_eq_rejects_a_trial_count_that_is_not_an_int(capsys):
    monty_hall = str(PUZZLES / "monty_hall.arrow")
    with pytest.raises(SystemExit) as exc:
        main(["eq", monty_hall, monty_hall, "--trials", "x"])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", "error: argument --trials: invalid int value: 'x'\n")


def test_eq_with_zero_trials_needs_every_gen_tabled(tmp_path, capsys):
    # an untabled GEN is compared only under random trials: none compares nothing
    left, right = _untabled_host(tmp_path, "L"), _untabled_host(tmp_path, "R")
    for pair in ((left, right), (left, left)):
        assert run_cli(capsys, "eq", *pair, "--trials", "0") == (
            1, "", "error: --trials 0 compares nothing: generator opens has no table\n")
    assert run_cli(capsys, "eq", left, right)[0] == 3
    assert run_cli(capsys, "eq", left, right, "--trials", "1")[0] == 3
    tabled = tmp_path / "tabled.arrow"
    tabled.write_text(FAILING)
    assert run_cli(capsys, "eq", str(tabled), str(tabled), "--trials", "0") == (
        0, "programs agree under the declared interpretation and 0 random interpretations\n", "")
    monty_hall, monty_fall = str(PUZZLES / "monty_hall.arrow"), str(PUZZLES / "monty_fall.arrow")
    assert run_cli(capsys, "eq", monty_hall, monty_hall, "--trials", "0") == (0, EXACT_EQUAL, "")
    assert run_cli(capsys, "eq", monty_hall, monty_fall, "--trials", "0")[0] == 3


@pytest.mark.parametrize("declared, verdict", [
    ("", "programs are equal: neither declares a GEN, "
         "so the declared tables are their only interpretation\n"),
    ("GEN g : T -> T\n", "programs agree under the 20 random interpretations\n"),
])
def test_eq_ignores_the_order_of_a_carrier(tmp_path, capsys, declared, verdict):
    # the two files declare T with the same values in another order
    body = "x <- UNIFORM {a, b}\n" + ("y <- g(x)\nRETURN(y)\n" if declared else "RETURN(x)\n")
    paths = []
    for side, values in (("left", "a, b"), ("right", "b, a")):
        (tmp_path / f"{side}.arrow").write_text(f"TYPE T = {{{values}}}\n{declared}{body}")
        paths.append(str(tmp_path / f"{side}.arrow"))
    assert run_cli(capsys, "eq", *paths) == (0, verdict, "")


@pytest.mark.parametrize("left, right, error", [
    ("TYPE T = {a, b}\nx <- UNIFORM {a, b}\nRETURN(x)\n",
     "TYPE T = {a, c}\nx <- UNIFORM {a, c}\nRETURN(x)\n", "type T has different carriers"),
    ("TYPE T = {a, b}\nGEN g : T -> T\nx <- UNIFORM {a, b}\ny <- g(x)\nRETURN(y)\n",
     "TYPE T = {a, b}\nGEN g : () -> T\ny <- g()\nRETURN(y)\n",
     "generator g declared with different types"),
    ("TYPE T = {3}\nx <- UNIFORM {3}\nRETURN(x)\n",
     "TYPE T = {$3}\nx <- UNIFORM {$3}\nRETURN(x)\n", "type T has different carriers"),
])
def test_eq_of_programs_that_disagree_on_a_declaration_exits_one(tmp_path, capsys,
                                                                  left, right, error):
    paths = []
    for side, text in (("left", left), ("right", right)):
        (tmp_path / f"{side}.arrow").write_text(text)
        paths.append(str(tmp_path / f"{side}.arrow"))
    assert run_cli(capsys, "eq", *paths) == (1, "", f"error: {error}\n")


def test_eq_after_observe_symmetry_rewrite(tmp_path, capsys):
    # swapping the operands of the core observe is the symmetry axiom
    source = (PUZZLES / "newcomb_a.arrow").read_text()
    swapped = source.replace("OBSERVE(prediction = choice)", "OBSERVE(choice = prediction)")
    assert swapped != source
    variant = tmp_path / "newcomb_swapped.arrow"
    variant.write_text(swapped)
    code, out, _ = run_cli(capsys, "eq", str(PUZZLES / "newcomb_a.arrow"), str(variant),
                           "--trials", "10", "--seed", "7")
    assert code == 0, out


def test_eq_after_frobenius_rewrite(tmp_path, capsys):
    # replacing prediction by choice after observing their equality
    source = (PUZZLES / "newcomb_a.arrow").read_text()
    rewritten = source.replace("outcome <- CASE (prediction, choice) OF",
                               "outcome <- CASE (choice, choice) OF")
    assert rewritten != source
    variant = tmp_path / "newcomb_frob.arrow"
    variant.write_text(rewritten)
    code, out, _ = run_cli(capsys, "eq", str(PUZZLES / "newcomb_a.arrow"), str(variant),
                           "--trials", "10", "--seed", "3")
    assert code == 0, out


def test_terms_are_compared_over_a_signature_not_an_interpretation(tmp_path, capsys):
    # the observed literal lives in the table of __obs2, not in the term:
    # `==` and alpha_eq see the same generator, and `eq` sees the tables
    paths = []
    for value in ("a", "b"):
        path = tmp_path / f"{value}.arrow"
        path.write_text(f"TYPE T = {{a, b, c}}\nx <- UNIFORM {{a, b, c}}\nOBSERVE(x = {value})\n"
                        "RETURN(x)\n")
        paths.append(path)
    left, right = (load_file(path).typed.term for path in paths)
    assert left == right and hash(left) == hash(right)
    assert alpha_eq(left, right)
    code, out, _ = run_cli(capsys, "eq", *map(str, paths))
    assert code == 3
    assert "  left final:  1/3|a>\n  right final: 1/3|b>\n" in out


def test_eq_monty_hall_vs_fall(capsys):
    code, out, _ = run_cli(capsys, "eq", str(PUZZLES / "monty_hall.arrow"),
                           str(PUZZLES / "monty_fall.arrow"), "--trials", "3")
    assert code == 3
    assert "1/6|M> + 1/3|R>" in out
    assert "1/3|M> + 1/3|R>" in out


def test_eq_clash_message_independent_of_hash_seed(tmp_path):
    # several GEN declarations clash; the first in name order is reported
    decls = {"left": ("GEN zeta : T -> T", "GEN beta : T -> U", "GEN alpha : () -> T"),
             "right": ("GEN zeta : U -> U", "GEN beta : U -> T", "GEN alpha : () -> U")}
    paths = []
    for side, gens in decls.items():
        path = tmp_path / f"{side}.arrow"
        path.write_text("TYPE T = {a, b}\nTYPE U = {c, d}\n" + "\n".join(gens)
                        + "\nx <- UNIFORM {a, b}\nRETURN(x)\n")
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    errs = set()
    for seed in ("2", "5"):
        done = subprocess.run(
            [sys.executable, "-m", "arrowlang.cli", "eq", *paths],
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        errs.add(done.stderr)
    assert errs == {"error: generator alpha declared with different types\n"}


# `eq` exit codes over every ordered pair of puzzles, in sorted file order:
# a puzzle equals itself, and any two puzzles differ under their declared tables
EQ_EXITS = """
0 3 3 3 3 3 3 3 3
3 0 3 3 3 3 3 3 3
3 3 0 3 3 3 3 3 3
3 3 3 0 3 3 3 3 3
3 3 3 3 0 3 3 3 3
3 3 3 3 3 0 3 3 3
3 3 3 3 3 3 0 3 3
3 3 3 3 3 3 3 0 3
3 3 3 3 3 3 3 3 0
"""


def test_eq_exits_over_every_pair_of_puzzles_are_pinned(capsys):
    paths = [str(p) for p in sorted(PUZZLES.glob("*.arrow"))]
    exits = [" ".join(str(run_cli(capsys, "eq", a, b)[0]) for b in paths) for a in paths]
    assert "\n".join(exits) == EQ_EXITS.strip()


def _swapped_sources(path):
    """The source of ``path`` with each adjacent pair of independent
    statements swapped, one pair at a time: every interchange (axiom 1a,
    1b or 1c) that `applicable_steps` finds between two source statements."""
    prog = load_file(path)
    stmts = list(prog.source.stmts)
    for which, pos, _ in applicable_steps(prog.typed.term):
        first, second = prog.lines[pos], prog.lines[pos + 1]
        if which[0] != "1" or isinstance(first, str) or isinstance(second, str):
            continue
        i = stmts.index(first)
        assert stmts[i + 1] is second
        swapped = stmts[:i] + [second, first] + stmts[i + 2:]
        yield pretty(dataclasses.replace(prog.source, stmts=tuple(swapped)))


def test_eq_equates_each_puzzle_with_its_interchanged_statements(tmp_path, capsys):
    swaps = 0
    for path in sorted(PUZZLES.glob("*.arrow")):
        for n, text in enumerate(_swapped_sources(path)):
            variant = tmp_path / f"{path.stem}_{n}.arrow"
            variant.write_text(text)
            assert run_cli(capsys, "eq", str(path), str(variant))[:2] == (0, EXACT_EQUAL), text
            swaps += 1
    assert swaps == 16  # axiom 1a also swaps a predicate observe, a sample with no outputs


def test_eq_keeps_a_sugar_table_that_shares_a_gen_name(tmp_path, capsys):
    # the left program's GEN __case2 is redrawn; the right's CASE of the
    # same name and type keeps its table, so the two differ
    left, right = tmp_path / "left.arrow", tmp_path / "right.arrow"
    left.write_text("TYPE T = {a, b}\nGEN __case2 : T -> T\n"
                    "x <- UNIFORM {a, b}\ny <- __case2(x)\nRETURN(x, y)\n")
    right.write_text("TYPE T = {a, b}\n"
                     "x <- UNIFORM {a, b}\ny <- CASE x OF a -> 1|b>; b -> 1|a>\nRETURN(x, y)\n")
    code, out, _ = run_cli(capsys, "eq", str(left), str(right))
    assert code == 3
    assert out.startswith("programs differ under random interpretation (seed 0, trial 0)\n")
    assert out.count("    __case2(") == 2  # the drawn rows, one per input


def test_eq_without_gen_runs_each_program_once(capsys, monkeypatch):
    drawn, runs = [], []
    denoter = cli.denoter

    def counting_denoter(typed):
        denote = denoter(typed)
        return lambda *args: runs.append(typed) or denote(*args)

    monkeypatch.setattr(cli, "gen_kernels", lambda *args: drawn.append(args))
    monkeypatch.setattr(cli, "denoter", counting_denoter)
    for left, right, code in (("monty_hall", "monty_hall", 0), ("monty_hall", "monty_fall", 3)):
        runs.clear()
        a, b = str(PUZZLES / f"{left}.arrow"), str(PUZZLES / f"{right}.arrow")
        assert run_cli(capsys, "eq", a, b)[0] == code
        assert len(runs) == 2 and runs[0] is not runs[1]
    assert drawn == []


def test_python_dash_m_arrowlang_traces_the_golden_file():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "arrowlang", "trace", "puzzles/monty_hall.arrow"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (PUZZLES / "monty_hall.golden").read_text()


def _untabled_host(tmp_path, opened: str) -> str:
    """Monty Hall with the host as a generator that has no table."""
    source = (PUZZLES / "monty_hall.arrow").read_text()
    table = "host <- CASE car OF\n  L -> 1|R>\n  M -> 1/2|L> + 1/2|R>\n  R -> 1|L>\n"
    assert table in source
    variant = source.replace(table, "host <- opens(car)\n").replace(
        "TYPE Door = {L, M, R}\n", "TYPE Door = {L, M, R}\nGEN opens : Door -> Door\n")
    path = tmp_path / f"opens_{opened}.arrow"
    path.write_text(variant.replace("OBSERVE(host = L)", f"OBSERVE(host = {opened})"))
    return str(path)


def test_output_independent_of_hash_seed(tmp_path):
    # subdistributions hash by their entries; nothing printed may depend on it
    calls = [[command, str(path), *flags] for path in sorted(PUZZLES.glob("*.arrow"))
             for command, flags in (("run", ()), ("trace", ()), ("run", ("--format", "structured")))]
    calls.append(["eq", _untabled_host(tmp_path, "L"), _untabled_host(tmp_path, "R"),
                  "--seed", "3"])
    driver = ("import json, sys\nfrom arrowlang.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    print(main(argv))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("0", "7"):
        done = subprocess.run([sys.executable, "-c", driver, json.dumps(calls)],
                              env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0 and done.stderr == ""
        outputs.add(done.stdout)
    assert len(outputs) == 1
    out = outputs.pop()
    assert "programs differ under random interpretation (seed 3, trial 0)" in out
    assert "    opens(M) = " in out


def test_run_and_eq_render_no_statement(tmp_path, capsys, monkeypatch):
    from arrowlang import parser

    rendered = []
    original = parser.render_stmt

    def counting(stmt, *args, **kwargs):
        rendered.append(stmt)
        return original(stmt, *args, **kwargs)

    monkeypatch.setattr(parser, "render_stmt", counting)
    for path in sorted(PUZZLES.glob("*.arrow")):
        assert run_cli(capsys, "run", str(path))[0] == 0
    monty_hall = str(PUZZLES / "monty_hall.arrow")
    assert run_cli(capsys, "eq", monty_hall, monty_hall)[0] == 0
    assert run_cli(capsys, "eq", monty_hall, str(PUZZLES / "monty_fall.arrow"))[0] == 3
    assert run_cli(capsys, "eq", _untabled_host(tmp_path, "L"), _untabled_host(tmp_path, "R"),
                   "--trials", "2")[0] == 3
    assert rendered == []
    assert run_cli(capsys, "trace", str(PUZZLES / "monty_hall.arrow"))[0] == 0
    assert len(rendered) == 4  # the trace prints each statement's text


# Monty Hall with the host as inline sugar, as a GEN with a table (checked as
# declared, then drawn), and as a GEN without one (only drawn)
SELF_PAIRS = {
    "sugar": EXACT_EQUAL,
    "gen table": "programs agree under the declared interpretation and 20 random interpretations\n",
    "gen": "programs agree under the 20 random interpretations\n",
}


def _self_pair_path(tmp_path, tables: str) -> str:
    if tables == "sugar":
        return str(PUZZLES / "monty_hall.arrow")
    path = Path(_untabled_host(tmp_path, "L"))
    if tables == "gen table":
        path.write_text(path.read_text().replace(
            "GEN opens : Door -> Door\n",
            "GEN opens : Door -> Door =\n  L -> 1|R>\n  M -> 1/2|L> + 1/2|R>\n  R -> 1|L>\n"))
    return str(path)


@pytest.mark.parametrize("tables", SELF_PAIRS)
def test_eq_plans_each_program_once(tmp_path, capsys, monkeypatch, tables):
    plans = []
    original = semantics._plan

    def counting(*args):
        plans.append(args)
        return original(*args)

    monkeypatch.setattr(semantics, "_plan", counting)
    path = _self_pair_path(tmp_path, tables)
    code, out, _ = run_cli(capsys, "eq", path, path)
    assert (code, out) == (0, SELF_PAIRS[tables])
    assert len(plans) == 2


@pytest.mark.parametrize("tables", SELF_PAIRS)
def test_eq_of_a_program_with_itself_makes_no_fraction(tmp_path, capsys, monkeypatch, tables):
    # loading, drawing the random kernels, running and comparing all stay in integers
    made = []
    new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(sys._getframe(1).f_globals.get("__name__"))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    path = _self_pair_path(tmp_path, tables)
    code, out, _ = run_cli(capsys, "eq", path, path)
    monkeypatch.undo()
    assert (code, out) == (0, SELF_PAIRS[tables])
    assert made == []


def test_internal_error_is_one_line(capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_file", broken)
    code, out, err = run_cli(capsys, "run", str(PUZZLES / "monty_hall.arrow"))
    assert code == 1
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_eq_reproducible_with_seed(capsys):
    args = ("eq", str(PUZZLES / "monty_hall.arrow"), str(PUZZLES / "monty_fall.arrow"),
            "--trials", "3", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_corpus_all_pass(capsys):
    code, out, _ = run_cli(capsys, "corpus", str(PUZZLES))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)


def test_corpus_reports_a_missing_golden_file(tmp_path, capsys):
    shutil.copy(PUZZLES / "monty_hall.arrow", tmp_path / "monty_hall.arrow")
    assert run_cli(capsys, "corpus", str(tmp_path)) == (4, (
        "FAIL monty_hall (missing golden file)\n"
        "first failure: monty_hall: missing golden file\n"), "")


def test_corpus_compares_a_normalized_zero_mass_run(tmp_path, capsys):
    (tmp_path / "fail.arrow").write_text(cli.NORMALIZE_PRAGMA + "\n" + FAILING)
    (tmp_path / "fail.golden").write_text("Failure: state mass is zero at line 3\n")
    assert run_cli(capsys, "corpus", str(tmp_path)) == (0, "PASS fail\n", "")


def test_corpus_detects_corruption(tmp_path, capsys):
    shutil.copy(PUZZLES / "monty_hall.arrow", tmp_path / "monty_hall.arrow")
    golden = (PUZZLES / "monty_hall.golden").read_text()
    (tmp_path / "monty_hall.golden").write_text(golden.replace("1/2", "1/3"))
    code, out, _ = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 4
    assert "FAIL monty_hall" in out
    assert "golden:" in out


@pytest.mark.parametrize("command", ["run", "trace", "eq"])
def test_non_utf8_program_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.arrow"
    path.write_bytes("TYPE A = {a}\n# café\nx <- UNIFORM {a}\nRETURN(x)\n".encode("latin-1"))
    paths = [str(path), str(path)] if command == "eq" else [str(path)]
    code, out, err = run_cli(capsys, command, *paths)
    assert (code, out) == (1, "")
    assert err == f"error: 2:6: byte 0xE9 is not UTF-8 in {path}\n"


def test_corpus_reports_unreadable_files_and_goes_on(tmp_path, capsys):
    for name in ("monty_hall", "monty_fall"):
        shutil.copy(PUZZLES / f"{name}.arrow", tmp_path / f"{name}.arrow")
        shutil.copy(PUZZLES / f"{name}.golden", tmp_path / f"{name}.golden")
    golden = tmp_path / "monty_fall.golden"
    golden.write_bytes(golden.read_bytes() + b"\xff\n")
    (tmp_path / "folder.arrow").mkdir()
    shutil.copy(PUZZLES / "monty_hall.golden", tmp_path / "folder.golden")
    (tmp_path / "latin1.arrow").write_bytes(b"TYPE A = {\xe9}\n")
    shutil.copy(PUZZLES / "monty_hall.golden", tmp_path / "latin1.golden")
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 4 and err == ""
    folder, *rest, first = out.splitlines()
    assert folder.startswith("FAIL folder (error: ") and "folder.arrow" in folder
    bad_line = len(golden.read_bytes().splitlines())
    assert rest == [
        f"FAIL latin1 (error: 1:11: byte 0xE9 is not UTF-8 in {tmp_path / 'latin1.arrow'})",
        f"FAIL monty_fall (error: {bad_line}:1: byte 0xFF is not UTF-8 in {golden})",
        "PASS monty_hall",
    ]
    assert first == f"first failure: folder: {folder[len('FAIL folder ('):-1]}"


def test_corpus_empty_dir_warns(tmp_path, capsys):
    code, out, err = run_cli(capsys, "corpus", str(tmp_path))
    assert code == 0
    assert "warning" in err


def test_corpus_on_a_path_that_is_not_a_directory_exits_one(tmp_path, capsys):
    program = tmp_path / "p.arrow"
    program.write_text("TYPE T = {a}\nx <- UNIFORM {a}\nRETURN(x)\n")
    for path in (tmp_path / "missing", program):
        assert run_cli(capsys, "corpus", str(path)) == (
            1, "", f"error: {path} is not a directory\n")


# -- programs whose joint state would not fit in memory -----------------------------
#
# Plain `run` and `interpret` sum out dead variables and observe early, so
# these run with a handful of monomials; keeping every column, as a trace
# does, would take 3 * 2**60 and 4 * 3**30.


def _check_run_and_interpret(tmp_path, capsys, source: str, final: dict):
    path = tmp_path / "scale.arrow"
    path.write_text(source)
    expected = Subdist(final)
    prog = load_file(path)
    assert interpret(prog.typed, prog.interp) == expected
    mass = sum(final.values())
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert out == (f"Final: {ket(expected)}\nValidity: {mass}\n"
                   f"Posterior: {ket(Subdist({x: w / mass for x, w in final.items()}))}\n")


def test_run_chain_of_sixty(tmp_path, capsys):
    k = 60
    step = {"a": {"a": Q(1, 3), "b": Q(2, 3)},
            "b": {"b": Q(1, 3), "c": Q(2, 3)},
            "c": {"c": Q(1, 3), "a": Q(2, 3)}}
    rows = "; ".join(f"{s} -> " + " + ".join(f"{w}|{t}>" for t, w in out.items())
                     for s, out in step.items())
    lines = ["TYPE S = {a, b, c}", "x0 <- UNIFORM {a, b, c}"]
    lines += [f"x{j} <- CASE x{j - 1} OF {rows}" for j in range(1, k + 1)]
    lines += [f"OBSERVE(x{k} = a)", "RETURN(x0)"]
    # reach[s0][s]: probability of being in s after j steps from s0
    reach = {s0: {s: Q(int(s == s0)) for s in step} for s0 in step}
    for _ in range(k):
        reach = {s0: {t: sum((p * step[s].get(t, 0) for s, p in row.items()), Q(0))
                      for t in step}
                 for s0, row in reach.items()}
    final = {s0: Q(1, 3) * reach[s0]["a"] for s0 in step}
    _check_run_and_interpret(tmp_path, capsys, "\n".join(lines) + "\n", final)


def test_run_evidence_of_thirty_observed_last(tmp_path, capsys):
    k = 30
    hidden = ("h0", "h1", "h2", "h3")
    weights = (Q(1, 2), Q(1, 3), Q(1, 6))
    lines = ["TYPE H = {h0, h1, h2, h3}", "TYPE R = {r0, r1, r2}",
             "h <- UNIFORM {h0, h1, h2, h3}"]
    final = {h: Q(1, 4) for h in hidden}
    for i in range(1, k + 1):
        # reading r_j of h_m has weight weights[(j + m + i) % 3]
        table = {h: {f"r{j}": weights[(j + m + i) % 3] for j in range(3)}
                 for m, h in enumerate(hidden)}
        rows = "; ".join(f"{h} -> " + " + ".join(f"{w}|{r}>" for r, w in out.items())
                         for h, out in table.items())
        lines.append(f"e{i} <- CASE h OF {rows}")
        final = {h: w * table[h][f"r{i % 3}"] for h, w in final.items()}
    lines += [f"OBSERVE(e{i} = r{i % 3})" for i in range(1, k + 1)]
    lines.append("RETURN(h)")
    _check_run_and_interpret(tmp_path, capsys, "\n".join(lines) + "\n", final)


# -- long programs at the default recursion limit ----------------------------------

ROTATE = {"a": "b", "b": "c", "c": "a"}


def _straight_line(n: int) -> tuple[str, dict]:
    """A program of n statements and its final state in closed form.

    x1 is uniform and every later statement rotates the current state,
    except that every tenth statement starts a noisy reading of the state
    observed equal to it, which halves the mass.
    """
    lines = ["TYPE S = {a, b, c}",
             "GEN rot : S -> S = a -> 1|b>; b -> 1|c>; c -> 1|a>",
             "GEN noisy : S -> S = a -> 1/2|a> + 1/2|b>; b -> 1/2|b> + 1/2|c>; "
             "c -> 1/2|c> + 1/2|a>",
             "x1 <- UNIFORM {a, b, c}"]
    stmts, cur, turns, halvings = 1, "x1", 0, 0
    while stmts < n - 1:
        if stmts % 10 == 0 and stmts + 2 < n:
            lines += [f"y{stmts} <- noisy({cur})", f"OBSERVE(y{stmts} = {cur})"]
            stmts += 2
            halvings += 1
        else:
            stmts += 1
            lines.append(f"x{stmts} <- rot({cur})")
            cur = f"x{stmts}"
            turns += 1
    lines.append(f"RETURN(x1, {cur})")
    final = {}
    for s in ROTATE:
        t = s
        for _ in range(turns % 3):
            t = ROTATE[t]
        final[(s, t)] = Q(1, 3) / 2**halvings
    return "\n".join(lines) + "\n", final


def test_ten_thousand_statements_at_default_recursion_limit(tmp_path, capsys):
    assert sys.getrecursionlimit() == 1000
    source, final = _straight_line(10_000)
    assert len(source.splitlines()) == 3 + 10_000
    _check_run_and_interpret(tmp_path, capsys, source, final)
    tt = load_file(tmp_path / "scale.arrow").typed
    back = decode(encode(tt), tt.sig)
    assert alpha_eq(back.term, tt.term, back.ctx, tt.ctx) is True


def test_trace_of_twelve_hundred_statements(tmp_path, capsys):
    source, final = _straight_line(1_200)
    path = tmp_path / "long.arrow"
    path.write_text(source)
    code, out, _ = run_cli(capsys, "trace", str(path))
    assert code == 0
    lines = out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines[:-2]] == [f"({i})" for i in range(1, 1_201)]
    mass = sum(final.values())
    assert lines[-2:] == [f"Validity: {mass}",
                          f"Posterior: {ket(Subdist({x: w / mass for x, w in final.items()}))}"]


SHORT_OBSERVE = "OBSERVE(A IN ports AND guide != B)"


def _long_observe(n: int) -> str:
    """The AND chain of n atoms that cycles through ``A IN ports``,
    ``guide != B``, ``coin = coin`` and ``A = guide``: all four kinds of
    atom, and together no stronger than `SHORT_OBSERVE`."""
    cycle = ("A IN ports", "guide != B", "coin = coin", "A = guide")
    return "OBSERVE(" + " AND ".join(cycle[i % 4] for i in range(n)) + ")"


def test_observe_of_ten_thousand_atoms_at_default_recursion_limit(tmp_path, capsys):
    assert sys.getrecursionlimit() == 1000
    source = (PUZZLES / "sailors_child.arrow").read_text()
    long_observe = _long_observe(10_000)
    short, long = tmp_path / "short.arrow", tmp_path / "long.arrow"
    short.write_text(source.replace("OBSERVE(A IN ports)", SHORT_OBSERVE))
    long.write_text(source.replace("OBSERVE(A IN ports)", long_observe))
    assert long_observe.count(" AND ") == 9_999

    code, out, _ = run_cli(capsys, "run", str(long))
    assert code == 0
    assert out == "Final: 1/4|H> + 1/4|T>\nValidity: 1/2\nPosterior: 1/2|H> + 1/2|T>\n"
    code, short_trace, _ = run_cli(capsys, "trace", str(short))
    assert code == 0 and f"(4) {SHORT_OBSERVE} | 1/4|H,A,{{A}}> + 1/4|T,A,{{A,B}}>" in short_trace
    code, out, _ = run_cli(capsys, "trace", str(long))
    assert code == 0 and out == short_trace.replace(SHORT_OBSERVE, long_observe)
    code, out, _ = run_cli(capsys, "eq", str(long), str(short), "--trials", "5")
    assert (code, out) == (0, EXACT_EQUAL)

    canonical = pretty(parse(long.read_text()))
    assert long_observe in canonical.splitlines()
    assert pretty(parse(canonical)) == canonical
    back, ahead = load_text(canonical), load_file(long)
    assert alpha_eq(back.typed.term, ahead.typed.term)
    # alpha_eq compares the terms; the 10,000 atoms live in the rows of __obs4
    assert interpret(back.typed, back.interp) == interpret(ahead.typed, ahead.interp)
    obs = ahead.typed.sig.generators["__obs4"]
    assert back.typed.sig.generators["__obs4"] == obs and obs.inputs
    for args in product(*map(ahead.interp.carrier, obs.inputs)):
        assert back.interp.kernel_row(obs, args) == ahead.interp.kernel_row(obs, args), args


def _coprime_program(n: int) -> tuple[str, dict]:
    """A program of n statements whose kernels have pairwise coprime
    denominators, and its final state in closed form.

    x1 is uniform; then, in turn, a reading y of the current state from
    k7_11, k11_13 or k13_7 is observed equal to it, and the state rotates.
    Kernel kP_Q reads state number i (0, 1, 2) correctly with weight
    (i+1)/P, so each observe multiplies the weight by that.  The reading
    one step ahead has weight 1/Q: the row's common denominator is P*Q,
    but every kept weight is over P alone.
    """
    states = ("a", "b", "c")
    kernels = {"k7_11": (7, 11), "k11_13": (11, 13), "k13_7": (13, 7)}
    lines = ["TYPE S = {a, b, c}",
             "GEN rot : S -> S = a -> 1|b>; b -> 1|c>; c -> 1|a>"]
    for name, (p, q) in kernels.items():
        rows = "; ".join(
            f"{s} -> {i + 1}/{p}|{s}> + 1/{q}|{states[(i + 1) % 3]}> + "
            f"{1 - Q(i + 1, p) - Q(1, q)}|{states[(i + 2) % 3]}>"
            for i, s in enumerate(states))
        lines.append(f"GEN {name} : S -> S = {rows}")
    lines.append("x1 <- UNIFORM {a, b, c}")
    weight = {s: Q(1, 3) for s in states}
    cur = {s: s for s in states}  # x1 -> current state
    stmts, var = 1, "x1"
    while stmts + 3 < n:
        j = stmts // 3 + 1
        name = list(kernels)[j % 3]
        lines += [f"y{j} <- {name}({var})", f"OBSERVE(y{j} = {var})", f"x{j + 1} <- rot({var})"]
        for s in states:
            weight[s] *= Q(states.index(cur[s]) + 1, kernels[name][0])
            cur[s] = states[(states.index(cur[s]) + 1) % 3]
        stmts += 3
        var = f"x{j + 1}"
    lines.append(f"RETURN(x1, {var})")
    assert stmts + 1 == n
    return "\n".join(lines) + "\n", {(s, cur[s]): weight[s] for s in states}


def test_coprime_denominators_over_five_hundred_statements(tmp_path, capsys, monkeypatch):
    reductions = []
    reduce = semantics._reduce

    def counting_reduce(state, denom):
        state, reduced = reduce(state, denom)
        reductions.append(reduced < denom)
        return state, reduced

    monkeypatch.setattr(semantics, "_reduce", counting_reduce)
    source, final = _coprime_program(500)
    path = tmp_path / "coprime.arrow"
    path.write_text(source)
    prog = load_file(path)
    assert len(source.splitlines()) == 5 + 500
    expected = Subdist(final)
    mass = sum(final.values())
    assert mass.denominator.bit_length() > 500  # far past the reduction bound
    posterior = Subdist({x: w / mass for x, w in final.items()})

    assert interpret(prog.typed, prog.interp) == expected
    assert reductions.count(True) >= 2
    assert len(reductions) <= 32  # a gcd only once the denominator has grown again
    reductions.clear()
    lines, result = trace(prog.typed, prog.interp, prog.texts)
    assert lines[-1].state == expected and result.validity == mass
    assert reductions.count(True) >= 2
    reductions.clear()
    code, out, _ = run_cli(capsys, "run", "--normalize-each-line", str(path))
    assert reductions.count(True) >= 2
    assert code == 0
    assert out == f"Final: {ket(posterior)}\nValidity: 1\nPosterior: {ket(posterior)}\n"


@pytest.mark.parametrize("literal", ["7" * 5000, "$" + "7" * 5000], ids=["int", "dollar"])
def test_integer_literal_past_the_digit_limit_is_a_parse_error(tmp_path, capsys, literal):
    bad = tmp_path / "bad.arrow"
    bad.write_text(f"TYPE A = {{{literal}}}\nx <- UNIFORM {{{literal}}}\nRETURN(x)\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert (code, out, err) == (1, "", "error: 1:11: integer literal of 5000 digits is too long\n")


@pytest.mark.parametrize("ket_text", ["1" * 5000 + "/2|a>", "1/" + "1" * 5000 + "|a>"],
                         ids=["numerator", "denominator"])
def test_weight_past_the_digit_limit_is_a_parse_error(tmp_path, capsys, ket_text):
    bad = tmp_path / "bad.arrow"
    bad.write_text(f"TYPE A = {{a}}\nx <- UNIFORM {{a}}\ny <- CASE x OF a -> {ket_text}\nRETURN(y)\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: 3:") and "internal" not in err
    assert err.endswith(": integer literal of 5000 digits is too long\n")


def _long_weight_program(printed: str) -> str:
    """A program whose first weight past 4,300 digits is where ``printed`` says."""
    if printed == "ket":
        # every observe keeps (10^90 - 1)/10^90 of the mass: 59 of them
        # leave weights of 5,310 digits
        big = 10**90
        lines = ["TYPE B = {0, 1}", f"GEN tick : () -> B = () -> 1/{big}|0> + {big - 1}/{big}|1>"]
        for i in range(1, 60):
            lines += [f"x{i} <- tick()", f"OBSERVE(x{i} = 1)"]
        return "\n".join(lines + ["RETURN(x1)"]) + "\n"
    if printed == "validity":
        # two weights of 2,201-digit coprime denominators: the mass has 4,401
        p, q = 10**2200 + 1, 10**2200 + 3
        return f"TYPE B = {{0, 1}}\nGEN g : () -> B = () -> 1/{p}|0> + 1/{q}|1>\nx <- g()\nRETURN(x)\n"
    # 4,001- and 601-digit factors with no common divisor: 4,601 digits
    top, big = 10**4000 + 1, 10**600
    return (f"TYPE N = {{0, {top}}}\nGEN g : () -> N = () -> 1/{big}|0> + {big - 1}/{big}|{top}>\n"
            "x <- g()\nRETURN(x)\n")


@pytest.mark.parametrize("printed, argv", [
    ("ket", ["run"]), ("ket", ["trace"]), ("ket", ["run", "--format", "structured"]),
    ("validity", ["run"]), ("validity", ["run", "--format", "structured"]),
    ("expected value", ["run", "--expected-value"]),
], ids=["run", "trace", "structured", "validity", "structured-validity", "expected-value"])
def test_weight_past_the_digit_limit_is_an_error_line(tmp_path, capsys, printed, argv):
    path = tmp_path / "long_weights.arrow"
    path.write_text(_long_weight_program(printed))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err == "error: an exact weight has more than 4300 digits, more than Python converts to text\n"


def test_eq_counterexample_past_the_digit_limit_is_an_error_line(tmp_path, capsys):
    left, right = tmp_path / "left.arrow", tmp_path / "right.arrow"
    left.write_text(_long_weight_program("ket"))
    right.write_text(_long_weight_program("ket").replace("OBSERVE(x59 = 1)\n", ""))
    code, out, err = run_cli(capsys, "eq", str(left), str(right))
    assert (code, out) == (1, "")
    assert err == "error: an exact weight has more than 4300 digits, more than Python converts to text\n"


def test_deeply_nested_set_is_a_parse_error(tmp_path, capsys):
    value = "{" * 1_200 + "a" + "}" * 1_200
    bad = tmp_path / "bad.arrow"
    bad.write_text(f"TYPE A = {{{value}}}\nx <- UNIFORM {{{value}}}\nRETURN(x)\n")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert (code, out, err) == (1, "", "error: 1:111: set values nested more than 100 deep\n")


def test_in_element_takes_its_type_from_the_set_variable(tmp_path, capsys):
    # `a` is a value of both T and V; the sets of S hold only values of T
    path = tmp_path / "in.arrow"
    path.write_text("TYPE T = {a, b}\nTYPE V = {a, c}\nTYPE S = {{a}, {b}}\n"
                    "s <- UNIFORM {{a}, {b}}\nOBSERVE(a IN s)\nRETURN(s)\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, err) == (0, "")
    assert out == "Final: 1/2|{a}>\nValidity: 1/2\nPosterior: 1|{a}>\n"
    # no one type holds every element of S's sets: `a` is typed as any value
    path.write_text("TYPE T = {a}\nTYPE U = {b}\nTYPE S = {{a}, {b}}\n"
                    "s <- UNIFORM {{a}, {b}}\nOBSERVE(a IN s)\nRETURN(s)\n")
    assert run_cli(capsys, "run", str(path)) == (0, out, "")


def _perfbench_programs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_programs",
                                                  ROOT / "perfbench" / "programs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family, size", [("doors", 3), ("doors", 5), ("doors", 8), ("chain", 8),
                                          ("evidence", 4)])
def test_pretty_layout_loads_and_runs_as_the_source(tmp_path, capsys, family, size):
    import random

    text, _, _ = getattr(_perfbench_programs(), family)(size, random.Random(size))
    printed = pretty(parse(text))
    assert printed != text  # pretty writes each CASE row on its own line
    assert load_text(printed).interp.kernels == load_text(text).interp.kernels
    outputs = []
    for name, source in (("source.arrow", text), ("pretty.arrow", printed)):
        (tmp_path / name).write_text(source)
        outputs.append(run_cli(capsys, "run", str(tmp_path / name)))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
