"""Concrete syntax: parsing, elaboration, errors, pretty round trips."""

from dataclasses import replace
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest

import puzzle_programs

from arrowlang.errors import ElaborationError, ParseError
from arrowlang.parser import load_file, load_text, parse, pretty
from arrowlang.semantics import interpret, trace
from arrowlang.subdist import Dollar, Subdist, dirac, ket, uniform, zero
from arrowlang.syntax import Generator, Observe, Sample, alpha_eq

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"

CORPUS = [
    "monty_hall",
    "monty_fall",
    "three_prisoners",
    "sailors_child",
    "newcomb_a",
    "newcomb_b",
    "imperfect_newcomb_a",
    "imperfect_newcomb_b",
    "monty_hall_full",
]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parses_and_typechecks(name):
    prog = load_file(PUZZLES / f"{name}.arrow")
    assert prog.typed.ctx == ()


BUILDERS = {
    "monty_hall": puzzle_programs.monty_hall,
    "monty_fall": puzzle_programs.monty_fall,
    "three_prisoners": puzzle_programs.three_prisoners,
    "sailors_child": puzzle_programs.sailors_child,
    "newcomb_a": lambda: puzzle_programs.newcomb("a"),
    "newcomb_b": lambda: puzzle_programs.newcomb("b"),
    "imperfect_newcomb_a": lambda: puzzle_programs.imperfect_newcomb("a"),
    "imperfect_newcomb_b": lambda: puzzle_programs.imperfect_newcomb("b"),
    "monty_hall_full": puzzle_programs.monty_hall_full,
}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_files_match_direct_constructions(name):
    prog = load_file(PUZZLES / f"{name}.arrow")
    tt, interp = BUILDERS[name]()
    assert interpret(prog.typed, prog.interp) == interpret(tt, interp)


def without_lines(sp) -> list:
    """The declarations and statements of ``sp``, each with its line set to 0."""
    return [replace(node, line=0) for node in sp.types + sp.gens + sp.stmts]


@pytest.mark.parametrize("name", CORPUS)
def test_pretty_round_trip_on_corpus(name):
    source = (PUZZLES / f"{name}.arrow").read_text()
    sp = parse(source)
    canonical = pretty(sp)
    reparsed = parse(canonical)
    assert pretty(reparsed) == canonical
    assert without_lines(reparsed) == without_lines(sp)
    p1 = load_text(source)
    p2 = load_text(canonical)
    assert alpha_eq(p1.typed.term, p2.typed.term)


def test_pretty_prints_an_untabled_gen_as_its_head():
    source = "TYPE T = {a, b}\nGEN g : T -> T\nx <- UNIFORM {a, b}\ny <- g(x)\nRETURN(y)\n"
    canonical = pretty(parse(source))
    assert canonical == source.replace("T -> T\n", "T -> T\n\n")
    assert without_lines(parse(canonical)) == without_lines(parse(source))


def test_rational_literals_normalize():
    src = """TYPE Coin = {H, T}
x <- CASE H OF _ -> 2/4|H> + 1/2|T>
RETURN(x)
"""
    # scrutinee must be a variable; use a uniform draw instead
    src = """TYPE Coin = {H, T}
y <- UNIFORM {H, T}
x <- CASE y OF _ -> 2/4|H> + 2/4|T>
RETURN(x)
"""
    canonical = pretty(parse(src))
    assert "1/2|H> + 1/2|T>" in canonical
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == uniform(("H", "T"))


def test_comments_and_blank_lines_ignored():
    src = """
# a comment
TYPE Coin = {H, T}   # trailing comment

x <- UNIFORM {H, T}
RETURN(x)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == uniform(("H", "T"))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("TYPE Coin = {H, T}\nx <- UNIFORM H, T}\nRETURN(x)\n")
    assert exc.value.line == 2


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse("TYPE Coin = {H, T}\nx <- UNIFORM {H, T} @\nRETURN(x)\n")


# Tabs and carriage returns count one column; a comment gives its column
# to the NEWLINE or end of file after it.
@pytest.mark.parametrize("src, line, col, message", [
    ("TYPE A = {a}\n\tx <- UNIFORM {a} @\nRETURN(x)\n",
     2, 19, "unexpected character '@'"),
    ("TYPE A = {a, b}\n# a comment\nOBSERVE(x = $)\nRETURN(x)\n",
     3, 13, "expected digits after $"),
    ("TYPE A = {a, b}\nx <- UNIFORM {a, b}\nOBSERVE(x = a # c\nRETURN(x)\n",
     3, 15, "expected ')', got '\\n'"),
    ("TYPE A = {a, b}\nx <- UNIFORM {a, b}\nOBSERVE(x = a  # c",
     3, 16, "expected ')', got end of file"),
    ("TYPE A = {a, b}\nx <- UNIFORM {a, b}\nRETURN(x) junk # done",
     3, 11, "expected end of line, got 'junk'"),
])
def test_parse_error_positions(src, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.col, str(exc.value)) == (line, col, f"{line}:{col}: {message}")


def test_digit_that_int_rejects_is_an_unexpected_character():
    # "²" is a digit to str.isdigit but not a decimal digit
    with pytest.raises(ParseError) as exc:
        parse("TYPE A = {²}\nx <- UNIFORM {²}\nRETURN(x)\n")
    assert str(exc.value) == "1:11: unexpected character '²'"
    # decimal digits of any script are numbers
    prog = load_text("TYPE A = {٣, 7}\nx <- UNIFORM {٣, 7}\nRETURN(x)\n")
    assert interpret(prog.typed, prog.interp) == uniform((3, 7))


@pytest.mark.parametrize("data, line, col, byte", [
    (b"TYPE A = {a}\nx <- UNIF\xffORM {a}\nRETURN(x)\n", 2, 10, "FF"),
    # the column counts characters, and a line may end in CR LF
    (b"TYPE A = {\xc3\xa9}\r\nx <- UNIFORM {\xc3\xa9} # \xe9\r\nRETURN(x)\r\n", 2, 20, "E9"),
    (b"\xc3", 1, 1, "C3"),  # a sequence cut short by the end of the file
], ids=["mid-line", "crlf", "cut-short"])
def test_undecodable_byte_is_a_parse_error_at_its_position(tmp_path, data, line, col, byte):
    path = tmp_path / "bad.arrow"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_file(path)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{line}:{col}: byte 0x{byte} is not UTF-8 in {path}"


def test_statements_after_return_rejected():
    src = "TYPE Coin = {H, T}\nx <- UNIFORM {H, T}\nRETURN(x)\ny <- UNIFORM {H, T}\n"
    with pytest.raises(ParseError):
        parse(src)


def test_program_must_end_with_return():
    with pytest.raises(ParseError):
        parse("TYPE Coin = {H, T}\nx <- UNIFORM {H, T}\n")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse("TYPE Coin = {H, T}\ny <- UNIFORM {H, T}\nx <- CASE y OF _ -> 1/0|H>\nRETURN(x)\n")


def test_non_exhaustive_case_rejected():
    src = """TYPE Door = {L, M, R}
car <- UNIFORM {L, M, R}
host <- CASE car OF L -> 1|R>
RETURN(host)
"""
    with pytest.raises(ElaborationError) as exc:
        load_text(src)
    assert "no row matches" in str(exc.value)


def test_row_mass_above_one_rejected():
    src = """TYPE Coin = {H, T}
y <- UNIFORM {H, T}
x <- CASE y OF _ -> 3/4|H> + 1/2|T>
RETURN(x)
"""
    with pytest.raises(ElaborationError) as exc:
        load_text(src)
    assert "mass" in str(exc.value)


@pytest.mark.parametrize("ket, ok", [
    ("1/3|H> + 1/6|T> + 1/2|H>", True),  # mass exactly 1 over mixed denominators
    ("1/3|H> + 2/3|T> + 1/1000000000000|H>", False),
    ("0|H> + 1|T>", True),
    ("2/2|H> + 0/5|T>", True),
    ("7/6|H>", False),
])
def test_row_mass_is_compared_with_one_exactly(ket, ok):
    src = f"TYPE Coin = {{H, T}}\ny <- UNIFORM {{H, T}}\nx <- CASE y OF _ -> {ket}\nRETURN(x)\n"
    if ok:
        assert load_text(src).interp.kernels["__case2"][("H",)].mass == 1
    else:
        with pytest.raises(ElaborationError, match="line 3: row mass exceeds 1"):
            load_text(src)


def test_each_case_row_is_classified_once(monkeypatch):
    from arrowlang import parser

    made = []
    init = parser._RowMatcher.__init__

    def counting_init(self, row, *args):
        made.append(row)
        init(self, row, *args)

    monkeypatch.setattr(parser._RowMatcher, "__init__", counting_init)
    rows = []
    for name in CORPUS:
        prog = load_file(PUZZLES / f"{name}.arrow")
        rows += [row for stmt in prog.source.stmts for row in getattr(stmt, "rows", ())]
        rows += [row for gd in prog.source.gens for row in gd.rows or ()]
    assert len(rows) > 9 and sorted(map(id, made)) == sorted(map(id, rows))


TABLES = """TYPE Door = {L, M, R}
GEN noisy : Door -> Door =
  L -> 1/2|L> + 0|M> + 1/4|R> + 1/4|L>
  x -> 1/2|y> + 1/2|z> IF x != y AND y != z AND z != x
car <- UNIFORM {L, M, R}
seen <- noisy(car)
host <- CASE (car, seen) OF
  (x, x) -> 1/3|x> + 2/3|M>
  (L, _) -> 0/7|L> + 5/10|R>
  (_, _) -> 1|R>
RETURN(car, host)
"""


def test_load_builds_tables_from_numerators(monkeypatch):
    public = []
    init = Subdist.__init__

    def counting_init(self, entries):
        public.append(entries)
        init(self, entries)

    monkeypatch.setattr(Subdist, "__init__", counting_init)
    prog = load_text(TABLES)
    assert public == []
    expected = {
        "noisy": {  # a 0|x> weight, a repeated outcome, an extra-variable row
            ("L",): Subdist({"L": Q(3, 4), "R": Q(1, 4)}),
            ("M",): Subdist({"R": Q(1, 2), "L": Q(1, 2)}),
            ("R",): Subdist({"M": Q(1, 2), "L": Q(1, 2)}),
        },
        "__u1": {(): Subdist({"L": Q(1, 3), "M": Q(1, 3), "R": Q(1, 3)})},
        "__case3": {
            ("L", "L"): Subdist({"L": Q(1, 3), "M": Q(2, 3)}),
            ("M", "M"): Subdist({"M": Q(1)}),  # 1/3|x> + 2/3|M> at x = M
            ("R", "R"): Subdist({"R": Q(1, 3), "M": Q(2, 3)}),
            ("L", "M"): Subdist({"R": Q(1, 2)}),
            ("L", "R"): Subdist({"R": Q(1, 2)}),
            **{(c, s): Subdist({"R": Q(1)}) for c, s in (("M", "L"), ("M", "R"), ("R", "L"),
                                                          ("R", "M"))},
        },
    }
    assert prog.interp.kernels == expected
    for name, table in expected.items():
        for args, row in table.items():
            built = prog.interp.kernels[name][args]
            assert built.items() == row.items() and hash(built) == hash(row)
            assert ket(built) == ket(row)
    assert ket(interpret(prog.typed, prog.interp)) == (
        "1/12|L,L> + 1/6|L,M> + 1/24|L,R> + 1/3|M,R> + 1/3|R,R>")


@pytest.mark.parametrize("row", ["L -> 2/3|L> + 2/3|L>", "L -> 3/4|M> + 0|L> + 1/3|R>"])
def test_row_mass_over_one_from_numerators_is_an_elaboration_error(row):
    src = TABLES.replace("L -> 1/2|L> + 0|M> + 1/4|R> + 1/4|L>", row)
    with pytest.raises(ElaborationError, match="generator noisy: row mass exceeds 1"):
        load_text(src)


def test_substochastic_rows_allowed():
    src = """TYPE Coin = {H, T}
y <- UNIFORM {H, T}
x <- CASE y OF H -> 1/2|H>; T -> 1|T>
RETURN(x)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == Subdist({"H": Q(1, 4), "T": Q(1, 2)})


def test_uniform_ambiguous_type_rejected():
    src = """TYPE Coin = {H, T}
TYPE Koin = {H, T}
x <- UNIFORM {H, T}
RETURN(x)
"""
    with pytest.raises(ElaborationError) as exc:
        load_text(src)
    assert "ambiguous" in str(exc.value)


def test_rebinding_variable_rejected():
    src = """TYPE Coin = {H, T}
x <- UNIFORM {H, T}
x <- UNIFORM {H, T}
RETURN(x)
"""
    with pytest.raises(ElaborationError):
        load_text(src)


def test_observe_both_constants_rejected():
    src = """TYPE Coin = {H, T}
x <- UNIFORM {H, T}
OBSERVE(H = T)
RETURN(x)
"""
    with pytest.raises(ElaborationError):
        load_text(src)


def test_empty_type_rejected():
    with pytest.raises(ParseError):
        # the grammar itself requires at least one value
        parse("TYPE Coin = {}\nx <- UNIFORM {H}\nRETURN(x)\n")


def test_core_observe_between_variables():
    src = """TYPE Coin = {H, T}
x <- UNIFORM {H, T}
y <- UNIFORM {H, T}
OBSERVE(x = y)
RETURN(x)
"""
    prog = load_text(src)
    heads = prog.typed.term.heads
    assert isinstance(heads[2], Observe)
    _, result = trace(prog.typed, prog.interp, prog.texts)
    assert result.validity == Q(1, 2)


def test_literal_observe_is_predicate():
    # OBSERVE(host = L) is a sample of __obs3 : Door -> (), its row of mass 1 only at L
    prog = load_file(PUZZLES / "monty_hall.arrow")
    heads = prog.typed.term.heads
    observe = heads[2]
    assert isinstance(observe, Sample) and observe.outs == () and observe.args == ("host",)
    assert observe.gen == Generator("__obs3", ("Door",), ())
    assert prog.typed.sig.generators["__obs3"] is observe.gen
    rows = {door: prog.interp.kernel_row(observe.gen, (door,)) for door in ("L", "M", "R")}
    assert rows == {"L": dirac(()), "M": zero(), "R": zero()}


def test_conjunction_observe():
    src = """TYPE Coin = {H, T}
x <- UNIFORM {H, T}
y <- UNIFORM {H, T}
OBSERVE(x = H AND y = T)
RETURN(x, y)
"""
    prog = load_text(src)
    _, result = trace(prog.typed, prog.interp, prog.texts)
    assert result.validity == Q(1, 4)
    assert result.posterior == dirac(("H", "T"))


def test_nullary_generator_observe_desugars():
    src = """TYPE Coin = {H, T}
GEN flip : () -> Coin = () -> 1/2|H> + 1/2|T>
x <- flip()
OBSERVE(x = flip)
RETURN(x)
"""
    prog = load_text(src)
    heads = prog.typed.term.heads
    # the sugar expands to a sampling statement plus a core observe
    assert isinstance(heads[1], Sample)
    assert isinstance(heads[2], Observe)
    assert prog.texts == ("x <- flip()", "__o2 <- flip()", "OBSERVE(x = __o2)", "RETURN(x)")
    _, result = trace(prog.typed, prog.interp, prog.texts)
    assert result.validity == Q(1, 2)


def test_declared_generator_with_table():
    src = """TYPE Door = {L, M, R}
GEN shift : Door -> Door = L -> 1|M>; M -> 1|R>; R -> 1|L>
x <- UNIFORM {L, M, R}
y <- shift(x)
RETURN(y)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == uniform(("L", "M", "R"))


def test_multi_output_generator():
    src = """TYPE Coin = {H, T}
GEN pair : () -> Coin, Coin = () -> 1/4|H,H> + 3/4|T,T>
x, y <- pair()
RETURN(y, x)
"""
    prog = load_text(src)
    result = interpret(prog.typed, prog.interp)
    assert result == Subdist({("H", "H"): Q(1, 4), ("T", "T"): Q(3, 4)})


def test_generator_without_table_cannot_run():
    from arrowlang.errors import CarrierMismatch

    src = """TYPE Coin = {H, T}
GEN oracle_flip : () -> Coin
x <- oracle_flip()
RETURN(x)
"""
    prog = load_text(src)
    with pytest.raises(CarrierMismatch):
        interpret(prog.typed, prog.interp)


def test_wildcard_and_literal_patterns():
    src = """TYPE Door = {L, M, R}
car <- UNIFORM {L, M, R}
sign <- CASE car OF L -> 1|L>; _ -> 1|R>
RETURN(sign)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == Subdist({"L": Q(1, 3), "R": Q(2, 3)})


def test_pattern_variables_with_conditions_expand():
    src = """TYPE Door = {L, M, R}
car <- UNIFORM {L, M, R}
other <- CASE car OF x -> 1/2|y> + 1/2|z> IF x != y AND y != z AND z != x
RETURN(other)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == uniform(("L", "M", "R"))


def test_untypable_extra_variable_rejected():
    src = """TYPE Door = {L, M, R}
car <- UNIFORM {L, M, R}
x <- CASE car OF _ -> 1|w>
RETURN(x)
"""
    with pytest.raises(ElaborationError):
        load_text(src)


def test_ket_without_coefficient_defaults_to_one():
    src = """TYPE Door = {L, M, R}
car <- UNIFORM {L, M, R}
x <- CASE car OF _ -> |L>
RETURN(x)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == dirac("L")


def test_dollar_values():
    src = """TYPE Money = {$0, $5}
x <- UNIFORM {$0, $5}
RETURN(x)
"""
    prog = load_text(src)
    assert interpret(prog.typed, prog.interp) == uniform((Dollar(0), Dollar(5)))
    assert "1/2|$0> + 1/2|$5>" == ket(interpret(prog.typed, prog.interp))
    # $3 and 3 are two values
    prog = load_text("TYPE T = {3, $3}\nx <- UNIFORM {$3, 3}\nRETURN(x)\n")
    assert prog.interp.carriers["T"] == (3, Dollar(3))
    assert ket(interpret(prog.typed, prog.interp)) == "1/2|3> + 1/2|$3>"


def test_set_values_and_membership():
    prog = load_file(PUZZLES / "sailors_child.arrow")
    lines, result = trace(prog.typed, prog.interp, prog.texts)
    assert result.validity == Q(3, 4)
    assert "OBSERVE(A IN ports)" in lines[3].text


def test_monty_hall_shaped_program_encodes_when_fully_core():
    # writing the literal observation through a declared constant
    # generator keeps the whole program in the equality-observe core,
    # so it has a combinator form and round-trips
    from arrowlang.combinator import CGen, CObs, CombTerm, decode, encode

    src = """TYPE Door = {L, M, R}
GEN left : () -> Door = () -> 1|L>
car <- UNIFORM {L, M, R}
host <- CASE car OF
  L -> 1|R>
  M -> 1/2|L> + 1/2|R>
  R -> 1|L>
OBSERVE(host = left)
RETURN(car)
"""
    prog = load_text(src)
    c = encode(prog.typed)
    # generator, generator, generator (the constant), observe, return
    assert isinstance(c, CombTerm)
    assert [type(h) for h in c.heads] == [CGen, CGen, CGen, CObs]
    back = decode(c, prog.typed.sig)
    assert alpha_eq(back.term, prog.typed.term, back.ctx, prog.typed.ctx)
    # and it still computes the puzzle
    _, result = trace(prog.typed, prog.interp, prog.texts)
    assert result.validity == Q(1, 2)


# -- randomized round trips ---------------------------------------------------


def _random_source(rng):
    """A random well-formed surface program over disjoint symbol carriers,
    with tabled GEN declarations of 0-2 inputs and 1-2 outputs."""
    from arrowlang.parser import (
        CallStmt,
        CaseRow,
        CaseStmt,
        GenDecl,
        ObserveStmt,
        ReturnStmt,
        SAtom,
        SourceProgram,
        TypeDecl,
        UniformStmt,
    )

    n_types = rng.randint(1, 2)
    decls = []
    carriers = {}
    for i in range(n_types):
        name = f"T{i}"
        values = tuple(f"{chr(97 + i)}{k}" for k in range(rng.randint(2, 3)))
        decls.append(TypeDecl(name, values, 0))
        carriers[name] = values

    gens = []
    for j in range(rng.randint(0, 2)):
        ins = tuple(rng.choice(sorted(carriers)) for _ in range(rng.randint(0, 2)))
        outs = tuple(rng.choice(sorted(carriers)) for _ in range(rng.randint(1, 2)))
        picks = [tuple(rng.choice(carriers[t]) for t in outs) for _ in range(rng.randint(1, 2))]
        weight = (1, len(picks))
        row = CaseRow(("_",) * len(ins), tuple((weight, pick) for pick in picks), ())
        gens.append(GenDecl(f"g{j}", ins, outs, (row,), 0))

    stmts = []
    scope = {}
    counter = 0
    for _ in range(rng.randint(1, 4)):
        choice = rng.random()
        callable_ = [gd for gd in gens if all(t in scope.values() for t in gd.inputs)]
        if choice < 0.45 or not scope:
            tname = rng.choice(sorted(carriers))
            pool = list(carriers[tname])
            rng.shuffle(pool)
            picked = tuple(sorted(pool[: rng.randint(1, len(pool))]))
            counter += 1
            var = f"v{counter}"
            stmts.append(UniformStmt((var,), picked))
            scope[var] = tname
        elif choice < 0.65 and callable_:
            gd = rng.choice(callable_)
            args = tuple(rng.choice(sorted(v for v, t in scope.items() if t == tname))
                         for tname in gd.inputs)
            outs = tuple(f"v{counter + k}" for k in range(1, len(gd.outputs) + 1))
            counter += len(outs)
            stmts.append(CallStmt(outs, gd.name, args))
            scope.update(zip(outs, gd.outputs))
        elif choice < 0.8:
            scrut = rng.choice(sorted(scope))
            stype = scope[scrut]
            out_type = rng.choice(sorted(carriers))
            denom = rng.randint(1, 6)
            rows = []
            for value in carriers[stype]:
                remaining = denom
                ket = []
                for out in carriers[out_type]:
                    w = rng.randint(0, remaining)
                    remaining -= w
                    if w:  # a weight is a reduced (numerator, denominator) pair
                        g = gcd(w, denom)
                        ket.append(((w // g, denom // g), (out,)))
                if not ket:
                    ket = [((1, 1), (carriers[out_type][0],))]
                rows.append(CaseRow((value,), tuple(ket), ()))
            counter += 1
            var = f"v{counter}"
            stmts.append(CaseStmt((var,), (scrut,), tuple(rows)))
            scope[var] = out_type
        else:
            var = rng.choice(sorted(scope))
            if rng.random() < 0.5:
                same = [v for v, t in scope.items() if t == scope[var]]
                other = rng.choice(same)
                atom = SAtom("=", var, other)
            else:
                atom = SAtom("!=", var, rng.choice(carriers[scope[var]]))
            stmts.append(ObserveStmt((atom,)))
    names = sorted(scope)
    ret = tuple(rng.choice(names) for _ in range(rng.randint(0, 2))) if names else ()
    stmts.append(ReturnStmt(ret))
    return SourceProgram(tuple(decls), tuple(gens), tuple(stmts))


def test_pretty_parse_round_trip_on_random_programs():
    import random

    from arrowlang.parser import CallStmt, elaborate

    rng = random.Random(42)
    outputs = set()  # the output counts of the calls drawn
    for _ in range(150):
        sp = _random_source(rng)
        outputs.update(len(stmt.vars) for stmt in sp.stmts if isinstance(stmt, CallStmt))
        text = pretty(sp)
        reparsed = parse(text)
        assert pretty(reparsed) == text
        assert without_lines(reparsed) == without_lines(sp)
        t1 = elaborate(sp).typed
        t2 = elaborate(reparsed).typed
        assert alpha_eq(t1.term, t2.term)
        assert interpret(t1, elaborate(sp).interp) == interpret(t2, elaborate(reparsed).interp)
    assert outputs == {1, 2}


# -- weights read as integers ---------------------------------------------------

UNREDUCED = """TYPE T = {a, b, c}
GEN g : T -> T =
  a -> 2/4|a> + 2/4|b>
  b -> 06/12|c> + 0/7|a>
  c -> 3/3|c>
x <- UNIFORM {a, b, c}
y <- g(x)
z <- CASE y OF a -> 2/4|a> + 2/4|b>; b -> 06/12|c> + 0/7|a> + 0|b>; c -> 3/3|c>
RETURN(x, z)
"""


def test_unreduced_and_zero_weights_print_reduced(tmp_path, capsys):
    from arrowlang.cli import main

    prog = load_text(UNREDUCED)
    assert pretty(prog.source) == (
        "TYPE T = {a, b, c}\nGEN g : T -> T =\n  a -> 1/2|a> + 1/2|b>\n  b -> 1/2|c> + 0|a>\n"
        "  c -> 1|c>\n\nx <- UNIFORM {a, b, c}\ny <- g(x)\nz <- CASE y OF\n"
        "  a -> 1/2|a> + 1/2|b>\n  b -> 1/2|c> + 0|a> + 0|b>\n  c -> 1|c>\nRETURN(x, z)\n")
    rows = {("a",): "1/2|a> + 1/2|b>", ("b",): "1/2|c>", ("c",): "1|c>"}
    assert {name: {args: ket(row) for args, row in table.items()}
            for name, table in prog.interp.kernels.items()} == {
        "g": rows, "__case3": rows, "__u1": {(): "1/3|a> + 1/3|b> + 1/3|c>"}}
    path = tmp_path / "weights.arrow"
    path.write_text(UNREDUCED)
    posterior = "Validity: 3/4\nPosterior: 1/9|a,a> + 1/9|a,b> + 1/9|a,c> + 2/9|b,c> + 4/9|c,c>\n"
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == (
        "Final: 1/12|a,a> + 1/12|a,b> + 1/12|a,c> + 1/6|b,c> + 1/3|c,c>\n" + posterior)
    assert main(["trace", str(path)]) == 0
    assert capsys.readouterr().out == (
        "(1) x <- UNIFORM {a, b, c} | 1/3|a> + 1/3|b> + 1/3|c>\n"
        "(2) y <- g(x) | 1/6|a,a> + 1/6|a,b> + 1/6|b,c> + 1/3|c,c>\n"
        "(3) z <- CASE y OF a -> 1/2|a> + 1/2|b>; b -> 1/2|c> + 0|a> + 0|b>; c -> 1|c>"
        " | 1/12|a,a,a> + 1/12|a,a,b> + 1/12|a,b,c> + 1/6|b,c,c> + 1/3|c,c,c>\n"
        "(4) RETURN(x, z) | 1/12|a,a> + 1/12|a,b> + 1/12|a,c> + 1/6|b,c> + 1/3|c,c>\n" + posterior)


def test_weights_over_one_in_total_are_still_rejected():
    src = "TYPE T = {a, b}\nx <- UNIFORM {a, b}\ny <- CASE x OF _ -> 2/3|a> + 2/3|b>\nRETURN(y)\n"
    with pytest.raises(ElaborationError, match="^line 3: row mass exceeds 1$"):
        load_text(src)


def _ket_of(src: str) -> tuple:
    """The ket of the first row of the CASE on line 3 of ``src``."""
    return parse(src).stmts[1].rows[0].ket


KET_PREFIX = "TYPE A = {a, b, c}\nx <- UNIFORM {a}\ny <- CASE x OF a -> "


def test_each_weight_spelling_reads_as_its_reduced_pair():
    ket = _ket_of(KET_PREFIX + "2/12|a> + 1/6|b> + 1 / 6|c> + |a> + 2/12|b>\nRETURN(y)\n")
    assert ket == (((1, 6), ("a",)), ((1, 6), ("b",)), ((1, 6), ("c",)), ((1, 1), ("a",)),
                   ((1, 6), ("b",)))


@pytest.mark.parametrize("ket_text, col", [
    ("1/6|a> + 1/0|b>", 32),
    ("1/0|a> + 1/6|b>", 23),
    ("1/6|a> + 1/6|b> + 1/0|c>", 41),
])
def test_zero_denominator_is_raised_at_its_own_token(ket_text, col):
    # a weight that fails to read is not remembered: each text raises at its own 0
    with pytest.raises(ParseError) as exc:
        parse(KET_PREFIX + ket_text + "\nRETURN(y)\n")
    assert str(exc.value) == f"3:{col}: zero denominator"


@pytest.mark.parametrize("which", ["numerator", "denominator"])
def test_weight_is_read_again_under_the_digit_limit_of_each_parse(which):
    import sys

    digits = "1" * 700
    weight = f"{digits}/{digits}0" if which == "numerator" else f"1/{digits}"
    src = KET_PREFIX + f"{weight}|a> + {weight}|b>\nRETURN(y)\n"
    assert _ket_of(src)[0][0] == ((1, 10) if which == "numerator" else (1, int(digits)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ParseError) as exc:
            parse(src)
    finally:
        sys.set_int_max_str_digits(limit)
    col = 21 if which == "numerator" else 23
    assert str(exc.value) == f"3:{col}: integer literal of 700 digits is too long"


def _random_ket(rng, arity: int) -> tuple[str, tuple]:
    """A ket text over ``arity`` values per monomial, and the ket it reads as.

    Weights are left out, ``p`` or an unreduced ``p/q`` with blanks around
    the ``/``, some of them 0; values are names, integers, ``$`` amounts
    and sets, written in a random order.
    """
    texts, ket = [], []
    for _ in range(rng.randint(1, 5)):
        shape = rng.randrange(3)
        if shape == 0:
            weight_text, weight = "", (1, 1)
        elif shape == 1:
            num = rng.choice((0, 1, 1, 2, 7))
            weight_text, weight = str(num), (num, 1)
        else:
            den = rng.randint(1, 12)
            num = rng.choice((0, rng.randint(1, 2 * den)))
            g = gcd(num, den)
            blank = lambda: rng.choice(("", " ", "  "))
            weight_text, weight = f"{num}{blank()}/{blank()}{den}", (num // g, den // g)
        value_texts, values = [], []
        for _ in range(arity):
            kind = rng.randrange(4)
            if kind == 0:
                value = rng.choice(("a", "b", "H", "door_2", "_x"))
                text = value
            elif kind == 1:
                value = rng.randint(0, 30)
                text = str(value)
            elif kind == 2:
                value = Dollar(rng.randint(0, 500))
                text = f"${int(value)}"
            else:
                elems = rng.sample(("a", "b", "c", "d"), rng.randint(0, 3))
                value = frozenset(elems)
                text = "{" + ", ".join(elems) + "}"
            value_texts.append(text)
            values.append(value)
        texts.append(f"{weight_text}|{rng.choice(('', ' '))}{','.join(value_texts)}>")
        ket.append((weight, tuple(values)))
    return " + ".join(texts), tuple(ket)


def test_generated_kets_parse_to_what_was_written():
    import random

    rng = random.Random(17)
    for _ in range(150):
        lines, expected = ["TYPE A = {a, b}", "x <- UNIFORM {a, b}"], []
        for g in range(rng.randint(0, 2)):
            arity = rng.randint(1, 3)
            outs = ", ".join(["A"] * arity)
            kets = [_random_ket(rng, arity) for _ in range(rng.randint(1, 3))]
            rows = "; ".join(f"{p} -> {text}" for p, (text, _) in zip("abc", kets))
            lines.insert(1, f"GEN g{g} : A -> {outs} = {rows}")
            expected.append([ket for _, ket in kets])
        kets = [_random_ket(rng, 1) for _ in range(rng.randint(1, 3))]
        rows = "\n  ".join(f"{p} -> {text}" + (" IF p != q" if p == "p" else "")
                           for p, (text, _) in zip(("a", "_", "p"), kets))
        lines += [f"y <- CASE x OF\n  {rows}", "RETURN(y)"]
        expected.append([ket for _, ket in kets])
        text = "\n".join(lines) + "\n"
        sp = parse(text)
        tables = [gd.rows for gd in reversed(sp.gens)] + [sp.stmts[1].rows]
        assert [[row.ket for row in rows] for rows in tables] == expected, text
        reparsed = parse(pretty(sp))
        assert without_lines(reparsed) == without_lines(sp), text


def _doors_source(n: int) -> str:
    """Monty Hall with n doors; the host's row is explicit per (car, player)."""
    doors = [f"d{i}" for i in range(1, n + 1)]
    listed = ", ".join(doors)
    rows = []
    for c in doors:
        for p in doors:
            opens = [d for d in doors if d not in (c, p)]
            rows.append(f"({c}, {p}) -> " + " + ".join(f"1/{len(opens)}|{d}>" for d in opens))
    return (f"TYPE Door = {{{listed}}}\ncar <- UNIFORM {{{listed}}}\n"
            f"player <- UNIFORM {{{listed}}}\nhost <- CASE (car, player) OF " + "; ".join(rows)
            + "\nOBSERVE(player = d1)\nOBSERVE(host = d2)\nRETURN(car)\n")


def test_source_weights_build_no_fractions(monkeypatch):
    import sys
    from fractions import Fraction

    text = _doors_source(8)
    assert text.count("|") == 56 * 6 + 8 * 7  # a weight per ket value
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(sys._getframe(1).f_globals.get("__name__"))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    prog = load_text(text)
    monkeypatch.undo()
    assert "arrowlang.parser" not in made
    # a table row holds its weights as integers: loading makes no Fraction
    assert made.count("arrowlang.subdist") == 0
    assert ket(interpret(prog.typed, prog.interp)) == (
        "1/448|d1> + " + " + ".join(f"1/384|d{i}>" for i in range(3, 9)))


def _two_door_table(rows: str, gen: str = "") -> list[str]:
    """The kernel built for ``rows`` over (x, y) in Door x Door, as
    ``"x,y: ket"`` in table order; a GEN header makes it generator g's."""
    text = (f"TYPE D = {{L, M, R}}\n{gen}x <- UNIFORM {{L, M, R}}\ny <- UNIFORM {{L, M, R}}\n"
            + ("z <- g(x, y)" if gen else f"z <- CASE (x, y) OF {rows}") + "\nRETURN(z)\n")
    kernels = load_text(text).interp.kernels
    table = kernels["g"] if gen else kernels["__case3"]
    return [f"{','.join(combo)}: {ket(row)}" for combo, row in table.items()]


# Each table lists its rows in order; the expected kernel gives each
# combination the first row that matches it and whose conditions can be met.
ROW_ORDER = [
    # a literal row after a wildcard row that covers it is never reached
    ("(_, M) -> 1|L>; (L, M) -> 1|R>; (_, _) -> 1|M>",
     "L,L: 1|M>; L,M: 1|L>; L,R: 1|M>; M,L: 1|M>; M,M: 1|L>; M,R: 1|M>; "
     "R,L: 1|M>; R,M: 1|L>; R,R: 1|M>"),
    # a wildcard row after a literal row
    ("(L, M) -> 1|R>; (_, M) -> 1|L>; (_, _) -> 1|M>",
     "L,L: 1|M>; L,M: 1|R>; L,R: 1|M>; M,L: 1|M>; M,M: 1|L>; M,R: 1|M>; "
     "R,L: 1|M>; R,M: 1|L>; R,R: 1|M>"),
    # duplicate literal rows: the first wins
    ("(L, M) -> 1|R>; (L, M) -> 1|L>; (_, _) -> 1|M>",
     "L,L: 1|M>; L,M: 1|R>; L,R: 1|M>; M,L: 1|M>; M,M: 1|M>; M,R: 1|M>; "
     "R,L: 1|M>; R,M: 1|M>; R,R: 1|M>"),
    # a row with a literal and an IF that no assignment meets (four distinct
    # doors out of three), then a literal row for (L, L); a row of literals
    # only cannot have an IF, whose extra variables would have no type
    ("(L, y) -> 1|M> IF y != u AND u != v AND v != y AND w != y AND w != u AND w != v; "
     "(L, L) -> 1|R>; (L, y) -> 1|y>; (_, _) -> 1|L>",
     "L,L: 1|R>; L,M: 1|M>; L,R: 1|R>; M,L: 1|L>; M,M: 1|L>; M,R: 1|L>; "
     "R,L: 1|L>; R,M: 1|L>; R,R: 1|L>"),
    # an IF row met off the diagonal, literal rows for the diagonal, and a
    # literal row that the IF row already covers
    ("(x, y) -> 1|w> IF x != y AND y != w AND w != x; (L, L) -> 1|M>; (M, M) -> 1|R>; "
     "(R, R) -> 1|L>; (L, M) -> 1|L>",
     "L,L: 1|M>; L,M: 1|R>; L,R: 1|M>; M,L: 1|R>; M,M: 1|R>; M,R: 1|L>; "
     "R,L: 1|M>; R,M: 1|L>; R,R: 1|L>"),
    # a pattern-variable row before literal rows
    ("(x, x) -> 1|x>; (L, L) -> 1|R>; (L, M) -> 1|R>; (_, _) -> 1|M>",
     "L,L: 1|L>; L,M: 1|R>; L,R: 1|M>; M,L: 1|M>; M,M: 1|M>; M,R: 1|M>; "
     "R,L: 1|M>; R,M: 1|M>; R,R: 1|R>"),
    # a ket that reads no variable, under an IF on the pattern variables
    ("(x, y) -> 1|L> IF x != y; (_, _) -> 1|R>",
     "L,L: 1|R>; L,M: 1|L>; L,R: 1|L>; M,L: 1|L>; M,M: 1|R>; M,R: 1|L>; "
     "R,L: 1|L>; R,M: 1|L>; R,R: 1|R>"),
    # every assignment of w gives the same empty row
    ("(x, x) -> 0|w> IF w != x; (L, _) -> 1|M>; (_, _) -> 1/2|R>",
     "L,L: 0; L,M: 1|M>; L,R: 1|M>; M,L: 1/2|R>; M,M: 0; M,R: 1/2|R>; "
     "R,L: 1/2|R>; R,M: 1/2|R>; R,R: 0"),
]


@pytest.mark.parametrize("rows, expected", ROW_ORDER)
def test_case_rows_are_tried_in_order(rows, expected):
    assert _two_door_table(rows) == expected.split("; ")


def test_bad_ket_values_raise_in_every_row():
    # one rule for GEN and CASE rows: each row's ket is checked when its
    # table is declared, whether or not an input reaches the row
    bad = (("1|Q>", "Q is neither a variable nor a value of D"), ("1/2|L> + 1/2|$3>", "$3 not in D"),
           ("1|L> + 1|R>", "row mass exceeds 1"))
    for ket_text, message in bad:
        # (L, M) is reached in the first table; the wildcard row before it
        # covers every input in the second
        for rows in (f"(L, L) -> 1|L>; (L, M) -> {ket_text}; (_, _) -> 1|R>",
                     f"(_, _) -> 1|L>; (L, M) -> {ket_text}; (M, M) -> 1/2|$3> + 1/2|L>"):
            with pytest.raises(ElaborationError) as exc:
                _two_door_table("", f"GEN g : D, D -> D = {rows}\n")
            assert str(exc.value) == f"line 2: generator g: {message}" and exc.value.line == 2
    # a CASE row no input reaches, with the output type voted by a ket variable
    for ket_text, message in bad:
        with pytest.raises(ElaborationError) as exc:
            _two_door_table(f"(x, _) -> 1|x>; (L, M) -> {ket_text}")
        assert str(exc.value) == f"line 4: {message}" and exc.value.line == 4
    # with literal kets only, a value of no type fails the inference first
    with pytest.raises(ElaborationError, match="^line 4: no declared type contains the CASE kets$"):
        _two_door_table("(_, _) -> 1|L>; (L, M) -> 1|Q>")


def test_first_uncovered_combination_after_looked_up_rows():
    with pytest.raises(ElaborationError) as exc:
        _two_door_table("(L, L) -> 1|L>; (L, M) -> 1|L>; (M, y) -> 1|y>; (R, R) -> 1|M>")
    assert str(exc.value) == "line 4: no row matches (L, R)" and exc.value.line == 4


def test_literal_rows_are_looked_up_not_matched(monkeypatch):
    from arrowlang import parser

    matched = []
    bind = parser._RowMatcher.bind
    monkeypatch.setattr(parser._RowMatcher, "bind",
                        lambda self, combo: matched.append(combo) or bind(self, combo))
    prog = load_text(_doors_source(8))
    assert matched == []
    doors = [f"d{i}" for i in range(1, 9)]
    table = prog.interp.kernels["__case3"]
    assert list(table) == [(c, p) for c in doors for p in doors]
    for (c, p), row in table.items():
        opens = [d for d in doors if d not in (c, p)]
        assert row == Subdist({d: Q(1, len(opens)) for d in opens})


def test_row_with_no_variables_is_built_once(monkeypatch):
    built = []
    of_numerators = Subdist._of_numerators.__func__

    def counting(cls, *args):
        built.append(args)
        return of_numerators(cls, *args)

    monkeypatch.setattr(Subdist, "_of_numerators", classmethod(counting))
    doors = ", ".join(f"d{i}" for i in range(1, 9))
    prog = load_text(f"TYPE Door = {{{doors}}}\n"
                     "GEN g : Door, Door -> Door = (_, _) -> 1/2|d1> + 1/2|d2>\nRETURN()\n")
    table = prog.interp.kernels["g"]
    assert len(table) == 64 and len(built) == 1
    assert {id(row) for row in table.values()} == {id(next(iter(table.values())))}
    assert ket(table["d3", "d5"]) == "1/2|d1> + 1/2|d2>"


def test_literal_rows_are_built_by_one_walk(monkeypatch):
    from arrowlang import parser

    calls = []
    numerators = parser._RowMatcher._numerators
    monkeypatch.setattr(parser._RowMatcher, "_numerators",
                        lambda self, env: calls.append("_numerators") or numerators(self, env))
    collapse_values = parser.collapse_values
    monkeypatch.setattr(parser, "collapse_values",
                        lambda values: calls.append("collapse_values") or collapse_values(values))
    load_text(_doors_source(8))
    assert calls == []


LITERAL_TYPES = "TYPE A = {a0, a1, a2}\nTYPE B = {b0, b1}\nTYPE V = {v0, v1, 7, $7, {v0}}\n"
LITERAL_VALUES = {"A": ("a0", "a1", "a2"), "B": ("b0", "b1"),
                  "V": ("v0", "v1", 7, Dollar(7), frozenset({"v0"}))}


def _literal_rows(rng, inputs: tuple, outputs: tuple) -> tuple[list[str], dict]:
    """Literal rows covering every combination of ``inputs``, in a random
    order, some patterns repeated with another ket, and the kernel they
    should load as, built with the public `Subdist` constructor: the first
    row of a pattern wins, repeated outcomes of a ket sum, and a zero
    weight is dropped."""
    from itertools import product

    from arrowlang.parser import _src_value

    combos = list(product(*(LITERAL_VALUES[t] for t in inputs)))
    patterns = combos + rng.sample(combos, rng.randint(0, len(combos)))
    rng.shuffle(patterns)
    rows, kernel = [], {}
    for combo in patterns:
        den = rng.randint(1, 6)
        budget, terms, weights = den, [], {}
        for _ in range(rng.randint(1, 4)):
            num = rng.choice((0, rng.randint(0, budget)))
            budget -= num
            values = tuple(rng.choice(LITERAL_VALUES[t]) for t in outputs)
            terms.append(f"{num}/{den}|{','.join(map(_src_value, values))}>")
            x = values[0] if len(values) == 1 else values
            weights[x] = weights.get(x, 0) + Q(num, den)
        entries = ", ".join(map(_src_value, combo))
        rows.append(f"({entries}) -> " + " + ".join(terms) if len(combo) > 1
                    else f"{entries} -> " + " + ".join(terms))
        kernel.setdefault(combo, Subdist(weights))
    return rows, kernel


def test_literal_tables_match_an_independent_reference():
    import random

    rng = random.Random(23)
    for trial in range(60):
        inputs = ("A", "B")[:rng.randint(1, 2)]
        case = trial % 2 == 0
        outputs = ("V",) if case else ("V", "A")[:rng.randint(1, 2)]
        rows, kernel = _literal_rows(rng, inputs, outputs)
        wildcard = "_" if len(inputs) == 1 else "(_, _)"
        catch_all = f"{wildcard} -> 1|{', '.join(LITERAL_VALUES[t][0] for t in outputs)}>"
        for table in (rows, rows + [catch_all]):
            if case:
                scrutinee = "x" if len(inputs) == 1 else "(x, y)"
                text = (LITERAL_TYPES + "x <- UNIFORM {a0, a1, a2}\ny <- UNIFORM {b0, b1}\n"
                        f"z <- CASE {scrutinee} OF " + "; ".join(table) + "\nRETURN(z)\n")
                name = "__case3"
            else:
                text = (LITERAL_TYPES + f"GEN g : {', '.join(inputs)} -> {', '.join(outputs)} =\n  "
                        + "\n  ".join(table) + "\nRETURN()\n")
                name = "g"
            assert load_text(text).interp.kernels[name] == kernel, text


def test_conflicting_extra_variables_fail_at_the_first_difference(monkeypatch):
    from arrowlang import parser

    resolved = []
    collapse_values = parser.collapse_values
    monkeypatch.setattr(parser, "collapse_values",
                        lambda values: resolved.append(values) or collapse_values(values))
    values = ", ".join(f"v{i}" for i in range(20))
    src = (f"TYPE V = {{{values}}}\nx <- UNIFORM {{{values}}}\n"
           "y <- CASE x OF a -> 1|e> IF a != b AND b != c AND c != d AND d != e\nRETURN(y)\n")
    with pytest.raises(ElaborationError) as exc:
        load_text(src)
    assert str(exc.value) == "line 3: conflicting assignments of b, c, d, e give different rows"
    # of the 19^4 assignments that meet the conditions, the second already
    # gives another row, and it is the last one resolved
    assert len(resolved) == 2


def test_row_whose_ket_names_no_extra_variable_takes_the_first_assignment(monkeypatch):
    from arrowlang import parser

    resolved = []
    collapse_values = parser.collapse_values
    monkeypatch.setattr(parser, "collapse_values",
                        lambda values: resolved.append(values) or collapse_values(values))
    values = [f"v{i}" for i in range(20)]
    listed = ", ".join(values)
    prog = load_text(f"TYPE V = {{{listed}}}\nx <- UNIFORM {{{listed}}}\n"
                     "y <- CASE x OF a -> 1|a> IF a != b AND b != c AND c != d\nRETURN(y)\n")
    assert prog.interp.kernels["__case2"] == {(v,): dirac(v) for v in values}
    # each value of x has 19^3 assignments that meet the conditions, and
    # every one gives the same row: the first is the only one resolved
    assert len(resolved) == 20


def test_extra_variables_are_assigned_in_product_order():
    # the pruned walk against the plain one: every assignment in `product`
    # order, kept when it meets the conditions
    import random
    from itertools import product

    from arrowlang.parser import CaseRow, _RowMatcher

    rng = random.Random(5)
    carriers = {"T": ("a", "b", "c", "d")}
    for _ in range(100):
        names = ["x"] + [f"e{i}" for i in range(rng.randint(0, 4))]
        conditions = [(rng.choice(names[:i]), names[i]) for i in range(1, len(names))]
        if len(names) > 1:
            conditions += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(conditions)
        row = CaseRow(("x",), (((1, 1), ("x",)),), tuple(conditions))
        matcher = _RowMatcher(row, ("T",), carriers)
        for x in carriers["T"]:
            bound = {"x": x}
            walked = [dict(bound) for _ in matcher._assignments(bound)]
            every = ({"x": x, **dict(zip(matcher.extra_names, values))}
                     for values in product(*matcher.spaces))
            assert walked == [env for env in every if all(env[a] != env[b] for a, b in conditions)]


IF_VALUE = "TYPE Door = {L, M, R}\ncar <- UNIFORM {L, M, R}\n"


@pytest.mark.parametrize("conditions", ["x != L", "x != y AND y != L"])
def test_value_in_a_case_condition_is_rejected(conditions):
    # read as a variable, L would let the first row take car = L as well
    with pytest.raises(ElaborationError) as exc:
        load_text(IF_VALUE + f"host <- CASE car OF\n  x -> 1|x> IF {conditions}\n  _ -> 1|M>\n"
                  "RETURN(car, host)\n")
    assert str(exc.value) == "line 3: L in IF is a value of Door, not a variable"
    assert exc.value.line == 3


def test_value_in_a_gen_condition_is_rejected():
    with pytest.raises(ElaborationError) as exc:
        load_text(IF_VALUE + "GEN g : Door -> Door =\n  x -> 1|y> IF x != y AND y != M\n"
                  "host <- g(car)\nRETURN(host)\n")
    assert str(exc.value) == "line 3: generator g: M in IF is a value of Door, not a variable"
    assert exc.value.line == 3


def test_extra_named_like_a_value_of_another_type_is_a_variable():
    # A is a value of Port only; linked to x, it is a Door variable
    prog = load_text("TYPE Door = {L, M}\nTYPE Port = {A, B}\ncar <- UNIFORM {L, M}\n"
                     "host <- CASE car OF x -> 1|A> IF x != A\nRETURN(host)\n")
    assert prog.interp.kernels["__case2"] == {("L",): dirac("M"), ("M",): dirac("L")}


def test_ket_variable_named_like_an_output_value_is_a_variable():
    # v is a pattern variable of D and a value of the output type U: the
    # ket names a variable, so it is not checked as a ket of values
    with pytest.raises(ElaborationError) as exc:
        load_text("TYPE D = {a, b}\nTYPE U = {u, v}\nGEN g : D -> U = v -> 1|v>\nRETURN()\n")
    assert str(exc.value) == "line 3: generator g: ket variable v is D, not U"


PATTERN_VALUES = ("a", "b", "c")


def _pattern_table(rng, inputs: int, outputs: int) -> tuple[list[str], list]:
    """Rows over inputs and outputs of type D = {a, b, c}, as text and as
    (pattern, ket, conditions) for `_reference_table`.  A pattern entry is
    ``_``, a value or a variable, possibly repeated; an IF links each
    extra variable to a typed name; a ket names values and the row's
    variables, repeats monomials and has zero weights.  ``v`` and
    ``u`` are values of U only, so they are variables here."""
    texts, rows = [], []
    for _ in range(rng.randint(1, 5)):
        pattern = tuple(rng.choice(("_", *PATTERN_VALUES, "x", "y", "v")) for _ in range(inputs))
        names = sorted({p for p in pattern if p in ("x", "y", "v")})
        conditions = []
        for _ in range(rng.randint(0, 3) if names else 0):
            # a new extra variable or a typed name, linked to a typed name
            pair = [rng.choice(("e", "f", "u") if rng.random() < 0.7 else names), rng.choice(names)]
            rng.shuffle(pair)
            conditions.append(tuple(pair))
            names = sorted({*names, *pair})
        ket, budget = [], Q(1)
        for _ in range(rng.randint(1, 4)):
            weight = rng.choice((Q(0), Q(1, 2), Q(1, 3), Q(1, 4), Q(1, 6), budget))
            if weight > budget:
                continue
            budget -= weight
            values = (ket[-1][1] if ket and rng.random() < 0.3 else
                      tuple(rng.choice((*PATTERN_VALUES, *names)) for _ in range(outputs)))
            ket.append((weight, values))
        text = (pattern[0] if inputs == 1 else f"({', '.join(pattern)})") + " -> " + " + ".join(
            f"{w}|{', '.join(values)}>" for w, values in ket)
        if conditions:
            text += " IF " + " AND ".join(f"{a} != {b}" for a, b in conditions)
        texts.append(text)
        rows.append((pattern, ket, conditions))
    return texts, rows


def _reference_table(rows, inputs: int, outputs: int):
    """The kernel of ``rows``, expanded by brute force, or the message of
    the first error: each input takes the first row that matches it and
    whose conditions some assignment of its extra variables meets, and
    every such assignment must give the same row."""
    from itertools import product

    kernel = {}
    for combo in product(PATTERN_VALUES, repeat=inputs):
        for pattern, ket, conditions in rows:
            env = {}
            if any(p != "_" and (c != p if p in PATTERN_VALUES else env.setdefault(p, c) != c)
                   for p, c in zip(pattern, combo)):
                continue
            extras = sorted({n for pair in conditions for n in pair} - set(env))
            found = []
            for values in product(PATTERN_VALUES, repeat=len(extras)):
                full = {**env, **dict(zip(extras, values))}
                if all(full[a] != full[b] for a, b in conditions):
                    weights = {}
                    for w, names in ket:
                        out = tuple(full.get(n, n) for n in names)
                        x = out[0] if outputs == 1 else out
                        weights[x] = weights.get(x, 0) + w
                    found.append(Subdist({x: w for x, w in weights.items() if w}))
            if found:
                if any(row != found[0] for row in found):
                    return f"conflicting assignments of {', '.join(extras)} give different rows"
                kernel[combo] = found[0]
                break
        else:
            return f"no row matches ({', '.join(combo)})"
    return kernel


def test_pattern_tables_match_an_independent_reference():
    import random

    rng = random.Random(25)
    outcomes = {"kernel": 0, "no": 0, "conflicting": 0}
    for trial in range(400):
        inputs, case = rng.randint(1, 2), trial % 2 == 0
        outputs = 1 if case else rng.randint(1, 2)
        texts, rows = _pattern_table(rng, inputs, outputs)
        if rng.random() < 0.5:  # a catch-all row
            texts.append(("_" if inputs == 1 else "(_, _)") + " -> 1|" + ", ".join("a" * outputs) + ">")
            rows.append((("_",) * inputs, [(Q(1), ("a",) * outputs)], []))
        types = "TYPE D = {a, b, c}\nTYPE U = {u, v}\n"
        if case:
            scrutinee = "s" if inputs == 1 else "(s, t)"
            text = (types + "s <- UNIFORM {a, b, c}\nt <- UNIFORM {a, b, c}\n"
                    f"z <- CASE {scrutinee} OF " + "; ".join(texts) + "\nRETURN(z)\n")
            name, prefix = "__case3", "line 5: "
        else:
            text = (types + f"GEN g : {', '.join(['D'] * inputs)} -> {', '.join(['D'] * outputs)} =\n  "
                    + "\n  ".join(texts) + "\nRETURN()\n")
            name, prefix = "g", "line 3: generator g: "
        expected = _reference_table(rows, inputs, outputs)
        if isinstance(expected, dict):
            assert load_text(text).interp.kernels[name] == expected, text
            outcomes["kernel"] += 1
        else:
            with pytest.raises(ElaborationError) as exc:
                load_text(text)
            assert str(exc.value) == prefix + expected, text
            outcomes[expected.split()[0]] += 1
    assert min(outcomes.values()) >= 20, outcomes


# The variables an observe may read, with their types and carriers: two
# symbols, an integer and two sets of symbols.
OBSERVED = {"x": "C", "y": "C", "n": "K", "s": "S", "t": "S"}
OBSERVED_CARRIERS = {"C": ("a", "b", "c"), "K": (1, 2, 3),
                     "S": (frozenset("a"), frozenset("ab"), frozenset("bc"))}


def _surface(v) -> str:
    return "{" + ", ".join(sorted(v)) + "}" if isinstance(v, frozenset) else str(v)


def _draw_atom(rng) -> tuple:
    """One atom ``(op, left, right)`` over `OBSERVED`: a variable against a
    value of its type on either side, two variables of one type (possibly
    the same), or a symbol IN a set-valued variable; rarely two variables
    of different types."""
    var = rng.choice(sorted(OBSERVED))
    kind = rng.random()
    if kind < 0.2:
        return "IN", rng.choice(OBSERVED_CARRIERS["C"]), rng.choice(("s", "t"))
    op = rng.choice(("=", "!="))
    if kind < 0.27:
        return op, var, rng.choice(sorted(OBSERVED))  # of another type now and then
    if kind < 0.45:
        return op, var, rng.choice([v for v, t in OBSERVED.items() if t == OBSERVED[var]])
    value = rng.choice(OBSERVED_CARRIERS[OBSERVED[var]])
    return (op, var, value) if rng.random() < 0.5 else (op, value, var)


def _reference_holds(atoms, env: dict) -> bool:
    """The conjunction ``atoms`` at the variable values ``env``, read from the surface."""
    def value(o):
        return env[o] if o in OBSERVED else o

    for op, left, right in atoms:
        a, b = value(left), value(right)
        if not (a == b if op == "=" else a != b if op == "!=" else a in b):
            return False
    return True


def test_predicate_tables_match_an_independent_reference():
    import random
    from itertools import product

    from arrowlang.proptest import oracle_denote

    rng = random.Random(26)
    names = sorted(OBSERVED)
    declared = "".join(f"TYPE {t} = {{{', '.join(map(_surface, c))}}}\n"
                       for t, c in OBSERVED_CARRIERS.items())
    samples = "".join(f"{v} <- UNIFORM {{{', '.join(map(_surface, OBSERVED_CARRIERS[t]))}}}\n"
                      for v, t in OBSERVED.items())
    worlds = list(product(*(OBSERVED_CARRIERS[OBSERVED[v]] for v in names)))
    outcomes = {"table": 0, "core": 0, "mismatch": 0}
    for _ in range(300):
        atoms = [_draw_atom(rng) for _ in range(rng.randint(1, 5))]
        observe = "OBSERVE(" + " AND ".join(f"{_surface(a)} {op} {_surface(b)}"
                                           for op, a, b in atoms) + ")"
        ret = rng.sample(names, rng.randint(1, 3))
        text = declared + samples + observe + f"\nRETURN({', '.join(ret)})\n"
        core = len(atoms) == 1 and atoms[0][0] == "=" and {atoms[0][1], atoms[0][2]} <= set(OBSERVED)
        mismatch = next(((OBSERVED[a], OBSERVED[b]) for op, a, b in atoms if op != "IN"
                         and a in OBSERVED and b in OBSERVED and OBSERVED[a] != OBSERVED[b]), None)
        if mismatch:
            with pytest.raises(ElaborationError) as exc:
                load_text(text)
            assert str(exc.value) == ("line 9: " + ("OBSERVE needs equal types, got " if core
                                                    else "comparison between ")
                                      + " and ".join(mismatch) + f" in {observe}"), text
            outcomes["mismatch"] += 1
            continue
        prog = load_text(text)
        head = prog.typed.term.heads[5]
        if core:
            assert head == Observe(atoms[0][1], atoms[0][2]), text
            outcomes["core"] += 1
        else:
            read = [o for op, a, b in atoms for o in ((b,) if op == "IN" else (a, b))]
            args = tuple(dict.fromkeys(o for o in read if o in OBSERVED))  # in order of first reading
            assert (head.args, head.outs) == (args, ()), text
            assert head.gen == Generator("__obs6", tuple(OBSERVED[v] for v in args), ()), text
            for values in product(*(OBSERVED_CARRIERS[OBSERVED[v]] for v in args)):
                holds = _reference_holds(atoms, dict(zip(args, values)))
                row = prog.interp.kernel_row(head.gen, values)
                assert row == (dirac(()) if holds else zero()), (text, values)
            outcomes["table"] += 1
        final: dict = {}
        for world in worlds:
            env = dict(zip(names, world))
            if _reference_holds(atoms, env):
                key = tuple(env[v] for v in ret)
                key = key[0] if len(key) == 1 else key
                final[key] = final.get(key, 0) + Q(1, len(worlds))
        expected = Subdist(final)
        assert interpret(prog.typed, prog.interp) == expected, text
        assert oracle_denote(prog.typed, prog.interp) == expected, text
    assert min(outcomes.values()) >= 5, outcomes


T2 = "TYPE T = {a, b, c}\nTYPE U = {u, v}\n"

ELABORATION_ERRORS = [
    ("TYPE T = {a}\nTYPE T = {b}\nx <- UNIFORM {a}\nRETURN(x)\n", 2, "line 2: type T declared twice"),
    ("TYPE T = {a, b}\n\nGEN g : T -> U\nx <- UNIFORM {a, b}\nRETURN(x)\n", 3,
     "line 3: generator g uses undeclared type U"),
    ("TYPE T = {a, b}\nGEN g : T -> T =\n  a -> 1|b>\nx <- UNIFORM {a, b}\nRETURN(x)\n", 2,
     "line 2: generator g: no row matches (b)"),
    ("TYPE T = {a, b}\nx <- UNIFORM {a, b}\n# a comment\n\ny <- CASE x OF a -> 1|b>\nRETURN(y)\n",
     5, "line 5: no row matches (b)"),
    ("TYPE T = {a, b}\nx <- UNIFORM {a, b}\nOBSERVE(a = b)\nRETURN(x)\n", 3,
     "line 3: neither side of the comparison (a and b) is a bound variable"),
    ("TYPE T = {a, b}\nx <- UNIFORM {a, b}\ny <- f(x)\nRETURN(y)", 3,
     "line 3: unknown generator f"),
    (T2 + "x <- UNIFORM {a, b}\ny <- CASE x OF (a, b) -> 1|a>\nRETURN(y)\n", 4,
     "line 4: pattern arity 2 does not match 1 inputs"),
    (T2 + "x <- UNIFORM {a, b}\nz <- UNIFORM {u, v}\ny <- CASE (x, z) OF (p, p) -> 1|a>\nRETURN(y)\n",
     5, "line 5: pattern variable p used at two types"),
    (T2 + "x <- UNIFORM {a, b}\nz <- UNIFORM {u, v}\n"
     "y <- CASE (x, z) OF (p, q) -> 1|a> IF p != q\nRETURN(y)\n",
     5, "line 5: condition p != q compares T with U"),
    (T2 + "x <- UNIFORM {a, b}\ny <- CASE x OF p -> 1|a> IF e != f\nRETURN(y)\n", 4,
     "line 4: cannot infer a type for variable e"),
    (T2 + "GEN g : T -> T =\n  p -> 1|a, b>\nx <- UNIFORM {a, b}\ny <- g(x)\nRETURN(y)\n", 3,
     "line 3: generator g: ket arity 2 does not match outputs"),
    (T2 + "x <- UNIFORM {a, b}\ny <- CASE x OF p -> 1|a, b>\nRETURN(y)\n", 4,
     "line 4: CASE kets must have exactly one value"),
    (T2 + "x <- UNIFORM {a, b}\nz <- UNIFORM {u, v}\n"
     "y <- CASE (x, z) OF (p, q) -> 1/2|p> + 1/2|q>\nRETURN(y)\n",
     5, "line 5: CASE kets mix output types T and U"),
    (T2 + "x <- UNIFORM {a, b}\ny <- CASE x OF p -> 1/2|p> + 1/2|u>\nRETURN(y)\n", 4,
     "line 4: u is neither a variable nor a value of T"),
    (T2 + "GEN g : T -> T\nGEN g : T -> T\nx <- UNIFORM {a, b}\nRETURN(x)\n", 4,
     "line 4: generator g declared twice"),
    (T2 + "x, y <- UNIFORM {a, b}\nRETURN(x)\n", 3, "line 3: UNIFORM binds exactly one variable"),
    (T2 + "x <- UNIFORM {a, b}\ny, z <- CASE x OF p -> 1|p>\nRETURN(y)\n", 4,
     "line 4: CASE binds exactly one variable"),
    (T2 + "x <- UNIFORM {a, b, a}\nRETURN(x)\n", 3, "line 3: UNIFORM repeats a value"),
    (T2 + "GEN g : T -> T\nx <- UNIFORM {a, b}\ny <- g(w)\nRETURN(y)\n", 5,
     "line 5: variable w not in scope in y <- g(w)"),
    (T2 + "GEN g : T -> T\nx <- UNIFORM {a, b}\ny, z <- g(x)\nRETURN(y)\n", 5,
     "line 5: output arity mismatch in y, z <- g(x)"),
    (T2 + "x <- UNIFORM {a, b}\ny <- CASE x OF 5 -> 1|a>; _ -> 1|b>\nRETURN(y)\n", 4,
     "line 4: literal 5 not in T"),
    (T2 + "GEN g : T -> T =\n  p -> 1|7>\nx <- UNIFORM {a, b}\ny <- g(x)\nRETURN(y)\n", 3,
     "line 3: generator g: 7 not in T"),
    (T2 + "x <- UNIFORM {a, b}\nOBSERVE(a IN s)\nRETURN(x)\n", 4,
     "line 4: IN needs a bound set-valued variable"),
    ("TYPE S = {{a}, {b}}\ns <- UNIFORM {{a}, {b}}\nOBSERVE(c IN s)\nRETURN(s)\n", 3,
     "line 3: no declared type contains c"),
    ("TYPE T = {a, b}\nTYPE V = {a, c}\nx <- UNIFORM {a}\nRETURN(x)\n", 3,
     "line 3: ambiguous type for UNIFORM: T or V"),
    (T2 + "x <- UNIFORM {a, b}\nOBSERVE({a} != x)\nRETURN(x)\n", 4,
     "line 4: {a} is not a value of T"),
    # a ket variable of a GEN row holds values of its own type, which must
    # be the output's: a pattern variable, an extra variable, a second output
    (T2 + "GEN g : T -> U = p -> 1|p>\nx <- UNIFORM {a, b}\ny <- g(x)\nRETURN(y)\n", 3,
     "line 3: generator g: ket variable p is T, not U"),
    (T2 + "GEN g : T -> U = p -> 1|q> IF p != q\nx <- UNIFORM {a, b}\ny <- g(x)\nRETURN(y)\n",
     3, "line 3: generator g: ket variable q is T, not U"),
    (T2 + "GEN g : T, U -> T, U = (p, q) -> 1|q, p>\nx <- UNIFORM {a, b}\nz <- UNIFORM {u}\n"
     "y, w <- g(x, z)\nRETURN(y, w)\n", 3, "line 3: generator g: ket variable q is U, not T"),
    # typing errors, found by the typing rule as each statement is built
    (T2 + "x <- UNIFORM {a, b}\nRETURN(y)\n", 4, "line 4: variable y not in scope in RETURN(y)"),
    (T2 + "GEN g : T -> T\nx <- UNIFORM {u, v}\ny <- g(x)\nRETURN(y)\n", 5,
     "line 5: argument x: U is not T in y <- g(x)"),
    (T2 + "GEN g : T -> T\nx <- UNIFORM {a, b}\ny <- g(x, x)\nRETURN(y)\n", 5,
     "line 5: arity mismatch in y <- g(x, x)"),
    (T2 + "x <- UNIFORM {a, b}\ny <- UNIFORM {u, v}\nOBSERVE(x = y)\nRETURN(x)\n", 5,
     "line 5: OBSERVE needs equal types, got T and U in OBSERVE(x = y)"),
    (T2 + "x <- UNIFORM {a, b}\ny <- UNIFORM {u, v}\nOBSERVE(x != y)\nRETURN(x)\n", 5,
     "line 5: comparison between T and U in OBSERVE(x != y)"),
    # the failing atom of a conjunction is named in the statement as written
    (T2 + "x <- UNIFORM {a, b}\ny <- UNIFORM {u, v}\nOBSERVE(x = a AND x != y)\nRETURN(x)\n", 5,
     "line 5: comparison between T and U in OBSERVE(x = a AND x != y)"),
    (T2 + "x <- UNIFORM {a, b}\ny <- UNIFORM {u, v}\nOBSERVE(x != y AND x = a)\nRETURN(x)\n", 5,
     "line 5: comparison between T and U in OBSERVE(x != y AND x = a)"),
    ("TYPE T = {a, b}\nx <- UNIFORM {a, b}\nOBSERVE(a IN x)\nRETURN(x)\n", 3,
     "line 3: x is not set-valued"),
    # the element of an IN is in some value of the set variable's type
    ("TYPE Door = {L, M, R}\nTYPE Port = {A, B}\nTYPE Ports = {{A}, {A, B}}\n"
     "d <- UNIFORM {L, M, R}\nports <- UNIFORM {{A}, {A, B}}\nOBSERVE(L IN ports)\nRETURN(d)\n", 6,
     "line 6: L is in no value of Ports"),
    # a typing error in sugar names the statement as written, not its generator
    (T2 + "x <- UNIFORM {a, b}\nx <- UNIFORM {a, b}\nRETURN(x)\n", 4,
     "line 4: output x shadows an existing variable in x <- UNIFORM {a, b}"),
    (T2 + "x <- UNIFORM {a, b}\nx <- CASE x OF\n  a -> 1|b>\n  _ -> 1|a>\nRETURN(x)\n", 4,
     "line 4: output x shadows an existing variable in x <- CASE x OF a -> 1|b>; _ -> 1|a>"),
    (T2 + "GEN g : () -> U\nx <- UNIFORM {a, b}\nOBSERVE(x = g)\nRETURN(x)\n", 5,
     "line 5: OBSERVE needs equal types, got T and U in OBSERVE(x = g)"),
    # a $ amount is not the integer of the same digits, in either direction
    ("TYPE T = {3, 4}\nx <- UNIFORM {$3, 4}\nRETURN(x)\n", 2,
     "line 2: no declared type contains UNIFORM"),
    ("TYPE M = {$0, $1}\nTYPE C = {a, b}\nc <- UNIFORM {a, b}\nm <- CASE c OF a -> 1|$0>; b -> 1|1>\n"
     "RETURN(m)\n", 4, "line 4: no declared type contains the CASE kets"),
    ("TYPE M = {$0, $3}\nx <- UNIFORM {$0, $3}\nOBSERVE(x = 3)\nRETURN(x)\n", 3,
     "line 3: 3 is not a value of M"),
    # literal rows (values only, no IF) and other rows in one table: the
    # first bad row in row order is reported, whichever kind it is
    ("TYPE Door = {L, M, R}\nx <- UNIFORM {L, M, R}\ny <- UNIFORM {L, M, R}\n"
     "z <- CASE (x, y) OF\n  (a, b) -> 1|c> IF a != b AND b != c AND c != a\n  (L, L) -> 1|Q>\n"
     "  (_, _) -> 1|L>\nRETURN(z)\n", 4, "line 4: Q is neither a variable nor a value of Door"),
    ("TYPE Door = {L, M, R}\nx <- UNIFORM {L, M, R}\ny <- UNIFORM {L, M, R}\n"
     "z <- CASE (x, y) OF (L, L) -> 1|L> + 1|M>; (a, b) -> 1/2|a> + 1/2|Q> IF a != b; (_, _) -> 1|L>\n"
     "RETURN(z)\n", 4, "line 4: row mass exceeds 1"),
    ("TYPE Door = {L, M, R}\nGEN g : Door -> Door, Door =\n  a -> 1|a, a>\n  L -> 1|M>\n"
     "x <- UNIFORM {L, M, R}\ny, z <- g(x)\nRETURN(y, z)\n", 2,
     "line 2: generator g: ket arity 1 does not match outputs"),
]


@pytest.mark.parametrize("src, line, message", ELABORATION_ERRORS)
def test_elaboration_errors_carry_their_line(src, line, message):
    with pytest.raises(ElaborationError) as exc:
        load_text(src)
    assert exc.value.line == line
    assert str(exc.value) == message


def test_fresh_generator_name_steps_past_a_user_generator():
    prog = load_text("TYPE T = {a, b}\nGEN __u1 : () -> T = () -> 1|a>\n"
                     "x <- UNIFORM {a, b}\ny <- __u1()\nRETURN(x, y)\n")
    heads = prog.typed.term.heads
    assert [h.gen.name for h in heads] == ["__u1_", "__u1"]
    assert interpret(prog.typed, prog.interp) == Subdist({("a", "a"): Q(1, 2), ("b", "a"): Q(1, 2)})
    prog = load_text("TYPE T = {a, b}\nGEN __obs2 : T -> T\nx <- UNIFORM {a, b}\nOBSERVE(x = a)\n"
                     "RETURN(x)\n")
    heads = prog.typed.term.heads
    assert [h.gen.name for h in heads] == ["__u1", "__obs2_"]
    assert interpret(prog.typed, prog.interp) == Subdist({"a": Q(1, 2)})


def test_fresh_observe_variable_steps_past_a_user_variable():
    prog = load_text("TYPE T = {a, b}\nGEN flip : () -> T = () -> 1/2|a> + 1/2|b>\n"
                     "x <- UNIFORM {a, b}\n__o3 <- UNIFORM {a, b}\nOBSERVE(x = flip)\n"
                     "RETURN(x, __o3)\n")
    assert prog.texts == ("x <- UNIFORM {a, b}", "__o3 <- UNIFORM {a, b}", "__o3_ <- flip()",
                          "OBSERVE(x = __o3_)", "RETURN(x, __o3)")
    _, result = trace(prog.typed, prog.interp, prog.texts)
    quarter = {(x, y): Q(1, 4) for x in "ab" for y in "ab"}
    assert result.validity == Q(1, 2)
    assert result.posterior == Subdist(quarter)
    assert interpret(prog.typed, prog.interp) == Subdist({k: w / 2 for k, w in quarter.items()})


def test_elaborate_rejects_an_empty_carrier_built_by_hand():
    # the grammar reads no empty carrier; a SourceProgram built directly can hold one
    from arrowlang.parser import ReturnStmt, SourceProgram, TypeDecl, elaborate

    with pytest.raises(ElaborationError) as exc:
        elaborate(SourceProgram((TypeDecl("T", (), 1),), (), (ReturnStmt((), 2),)))
    assert str(exc.value) == "line 1: type T has an empty carrier" and exc.value.line == 1


def test_in_accepts_an_element_of_some_value_of_the_set_type():
    prog = load_text("TYPE Door = {L, M, R}\nTYPE Port = {A, B}\nTYPE Ports = {{A}, {A, B}}\n"
                     "d <- UNIFORM {L, M, R}\nports <- UNIFORM {{A}, {A, B}}\n"
                     "OBSERVE(B IN ports)\nRETURN(ports)\n")
    assert interpret(prog.typed, prog.interp) == Subdist({frozenset({"A", "B"}): Q(1, 2)})
