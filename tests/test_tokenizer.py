"""The scanner against the character loop it replaced.

``tokenize`` returns token texts only; ``located_tokens``, the walk that
places errors, gives each token's kind, line and column.  The located
walk is compared with ``reference_tokenize``, the earlier tokenizer, kept
verbatim apart from its token type: it is the specification of the token
stream, including two quirks (``_`` is an IDENT, and a comment gives its
column to the NEWLINE or EOF after it).  The one intended difference is
left out of the comparison: characters such as ``²`` that ``str.isdigit``
accepts but ``int`` rejects, which the loop turned into INT tokens that
crashed the parser (see ``test_parser.py``).  ``tokenize`` must give the
located walk's texts, and the parser, which classifies them, must raise
the same ParseError.  ``tokenize`` reads most texts by splitting padded
text instead of scanning it: ``test_the_split_reads_every_text_as_the_scan``
compares the two on random texts, and
``test_the_split_is_taken_for_the_puzzles_and_the_benchmark_programs``
checks that the split is not quietly declined.

Every ParseError position is computed by the located walk after the
fact, so ``test_load_outcomes_are_pinned`` pins the outcome of loading
20,000 mutated puzzles, positions and messages included, to a digest.
Every success and ParseError in it is as it was before positions became
lazy; the elaboration errors were re-pinned when each came to name its
line, and three outcomes when ``$3`` stopped being equal to ``3``.
No puzzle declares a ``GEN`` or has a call statement, so
``test_call_form_load_outcomes_are_pinned`` pins the same for 5,000
generated programs of ``GEN`` calls, each whole, mutated, and with one
line mutated; its digest was taken before statements were read in one
walk.  Neither reaches every statement error, so
``test_statement_errors_are_pinned`` pins the parse outcome of 20,000
statements, almost all malformed; its digest was taken while a second,
token-by-token reader still placed those errors.
``test_declaration_and_table_errors_are_pinned`` does the same for 20,000
``TYPE`` and ``GEN`` declarations and ``CASE`` tables; its digest was
taken while they were still read through a token cursor.
"""

import hashlib
import importlib
import random
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from arrowlang.errors import ArrowError, ElaborationError, ParseError
from arrowlang import parser
from arrowlang.parser import load_text, located_tokens, parse, pretty, tokenize

PUZZLES = sorted((Path(__file__).resolve().parent.parent / "puzzles").glob("*.arrow"))
TEXTS = [p.read_text(encoding="utf-8") for p in PUZZLES]

PUNCT_TWO = ("<-", "->", "!=")
PUNCT_ONE = "{}(),;:|>+/=_"


def reference_tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            tokens.append(("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text[i : i + 2] in PUNCT_TWO:
            tokens.append(("PUNCT", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if c == "$":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after $", line, col)
            tokens.append(("DOLLAR", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in PUNCT_ONE:
            tokens.append(("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def outcome(tok, text: str):
    """The token list as plain tuples, or the ParseError's position and text."""
    try:
        return [tuple(t) for t in tok(text)]
    except ParseError as exc:
        return ("error", exc.line, exc.col, str(exc))


# Grammar fragments, layout and comment characters, non-ASCII letters
# (``é``, ``λ``, ``日``), Unicode decimal digits (Arabic-Indic ``٣``,
# fullwidth ``７``) and numeric characters that are neither letters nor
# digits (``½``, ``Ⅻ``).
FRAGMENTS = (
    "<-", "->", "!=", "<", "-", "!", "{", "}", "(", ")", ",", ";", ":", "|", ">", "+",
    "/", "=", "_", "$", "$7", "$٣", "#", "# note", "#<-", "\n", "\t", "\r", "\r\n", " ",
    "  ", "0", "12", "1/2", "x", "_y", "a1", "IF", "AND", "IN", "CASE", "OF", "UNIFORM",
    "RETURN(", "OBSERVE(", "é", "λx", "日", "٣", "７", "x٣", "a½", "½", "Ⅻ", "@", "?",
    "\x0c", "\xa0",
)

# Characters that are digits to ``str.isdigit`` but not to ``int`` (``²``,
# ``¹``, ``①``) and numeric characters that are neither (``¼``, ``Ⅻ``).
NUMERIC_NOT_DECIMAL = ("²", "¹", "①", "¼", "Ⅻ")


def mutate(text: str, rng: random.Random) -> str:
    """One to four edits; most are made on a window of at most 120 characters."""
    if rng.random() < 0.9:
        i = rng.randrange(len(text))
        text = text[i:i + rng.randint(1, 120)]
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.6:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i:]
        elif op < 0.8:
            text = text[:i] + text[i + rng.randint(1, 5):]
        else:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i + 1:]
    return text


def scan(text: str) -> list[str]:
    """The token texts as the regex scan reads them, which `tokenize` must give."""
    return parser._TOKEN_RE.findall(text, parser._LEAD_RE.match(text).end())


def scanned(text: str):
    """The texts ``tokenize`` returns, or the ParseError that the parser
    raises on classifying them, as ``outcome`` gives it."""
    try:
        tokens = tokenize(text)
        parser._Parser(text, tokens)
        return tokens
    except ParseError as exc:
        return ("error", exc.line, exc.col, str(exc))


def assert_scans_as_located(text: str, located):
    expected = located if located[0] == "error" else [tok[1] for tok in located]
    assert scanned(text) == expected, repr(text)


def mutated_texts():
    """The same 20,000 mutated puzzle texts on every call."""
    rng = random.Random(20240501)
    for _ in range(20_000):
        yield mutate(rng.choice(TEXTS), rng)


def test_puzzles_tokenize_as_before():
    for text in TEXTS:
        located = outcome(located_tokens, text)
        assert located == outcome(reference_tokenize, text)
        assert_scans_as_located(text, located)


def test_mutated_puzzles_tokenize_as_before():
    errors = 0
    for text in mutated_texts():
        expected = outcome(reference_tokenize, text)
        located = outcome(located_tokens, text)
        assert located == expected, repr(text)
        assert_scans_as_located(text, located)
        errors += expected[0] == "error"
    # both kinds of outcome are exercised
    assert 1_000 < errors < 19_000


def load_outcome(text: str):
    """What loading ``text`` gives: the canonical source, or the error."""
    try:
        return pretty(load_text(text).source)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.col, str(exc))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def test_load_outcomes_are_pinned():
    digest = hashlib.sha256()
    for text in mutated_texts():
        digest.update(repr(load_outcome(text)).encode() + b"\n")
    assert digest.hexdigest() == (
        "f665b1c5649a503f704a7a369c87e70d6382aff1147d88fdbe75d8e7dde30cde")


CALL_CARRIERS = {"S": ("a", "b", "c"), "B": ("t", "f")}


def _ket(rng: random.Random, outs: tuple) -> str:
    """One or two monomials over the output types, of mass at most 1."""
    picks = [",".join(rng.choice(CALL_CARRIERS[t]) for t in outs) for _ in range(rng.randint(1, 2))]
    return " + ".join(f"{'1' if len(picks) == 1 else '1/2'}|{p}>" for p in picks)


def _pattern(entries: tuple) -> str:
    return entries[0] if len(entries) == 1 else "(" + ", ".join(entries) + ")"


def call_program(rng: random.Random) -> str:
    """A straight-line program that samples declared generators.

    Its generators have 0-3 inputs and 1-2 outputs, and most have a
    table: at times a literal row, then a row of wildcards, on one line
    or on one indented line each.  Its statements are calls, UNIFORMs,
    one-name CASEs, ``OBSERVE(x = y)``, ``OBSERVE(x = a)`` and nullary
    ``OBSERVE(x = g)``, and it ends with ``RETURN()`` or a RETURN of one
    or two variables.
    """
    lines = ["TYPE S = {a, b, c}", "TYPE B = {t, f}"]
    gens = []
    for j in range(rng.randint(1, 4)):
        ins = tuple(rng.choice("SB") for _ in range(rng.randint(0, 3)))
        outs = tuple(rng.choice("SB") for _ in range(rng.randint(1, 2)))
        head = f"GEN g{j} : {', '.join(ins) or '()'} -> {', '.join(outs)}"
        gens.append((f"g{j}", ins, outs))
        if rng.random() < 0.1:
            lines.append(head)
            continue
        rows = []
        if ins and rng.random() < 0.5:
            literal = tuple(rng.choice(CALL_CARRIERS[t]) for t in ins)
            rows.append(f"{_pattern(literal)} -> {_ket(rng, outs)}")
        rows.append(f"{_pattern(('_',) * len(ins)) if ins else '()'} -> {_ket(rng, outs)}")
        if rng.random() < 0.5:
            lines.append(head + " = " + "; ".join(rows))
        else:
            lines.append(head + " =")
            lines.extend("  " + row for row in rows)
    scope: dict[str, str] = {}

    def bind(tname: str) -> str:
        var = f"v{len(scope)}"
        scope[var] = tname
        return var

    def variable(tname: str) -> str:
        """A variable of ``tname`` in scope, sampled by a UNIFORM if there is none."""
        have = [v for v, t in scope.items() if t == tname]
        if have and rng.random() < 0.8:
            return rng.choice(have)
        values = ", ".join(CALL_CARRIERS[tname])
        var = bind(tname)
        lines.append(f"{var} <- UNIFORM {{{values}}}")
        return var

    for _ in range(rng.randint(2, 10)):
        choice = rng.random()
        if choice < 0.55:
            name, ins, outs = rng.choice(gens)
            args = [variable(t) for t in ins]
            bound = [bind(t) for t in outs]
            lines.append(f"{', '.join(bound)} <- {name}({', '.join(args)})")
        elif choice < 0.65:
            tname = rng.choice("SB")
            scrutinee = variable(tname)
            lines.append(f"{bind(tname)} <- CASE {scrutinee} OF _ -> 1|{CALL_CARRIERS[tname][0]}>")
        elif choice < 0.77:
            left = variable(rng.choice("SB"))
            lines.append(f"OBSERVE({left} = {variable(scope[left])})")
        elif choice < 0.9:
            left = variable(rng.choice("SB"))
            lines.append(f"OBSERVE({left} = {rng.choice(CALL_CARRIERS[scope[left]])})")
        else:
            nullary = [(name, outs) for name, ins, outs in gens if not ins and len(outs) == 1]
            if nullary:
                name, outs = rng.choice(nullary)
                lines.append(f"OBSERVE({variable(outs[0])} = {name})")
    names = sorted(scope)
    returned = rng.sample(names, min(len(names), rng.randint(0, 2)))
    lines.append(f"RETURN({', '.join(returned)})")
    return "\n".join(lines) + "\n"


def call_texts():
    """The same 5,000 call programs on every call, each whole, mutated, and
    with one line mutated, so that the edits reach every line."""
    rng = random.Random(20261020)
    for _ in range(5_000):
        text = call_program(rng)
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        yield text
        yield mutate(text, rng)
        yield "".join(lines[:i]) + mutate(lines[i], rng) + "".join(lines[i + 1:])


def test_call_form_load_outcomes_are_pinned():
    digest = hashlib.sha256()
    kinds = {}
    for text in call_texts():
        loaded = load_outcome(text)
        kind = loaded[0] if isinstance(loaded, tuple) else "loaded"
        kinds[kind] = kinds.get(kind, 0) + 1
        digest.update(repr(loaded).encode() + b"\n")
    # every whole program loads, and the mutations reach both kinds of error
    assert kinds.keys() == {"loaded", "ParseError", "ElaborationError"}
    assert kinds["loaded"] > 5_000 and kinds["ParseError"] > 5_000
    assert kinds["ElaborationError"] > 100
    assert digest.hexdigest() == (
        "f3b1d2f3c8551f8b44e065027c46bccaabce33540a4aee9690bacdba2db578f2")


def test_every_failed_load_names_its_line():
    elaboration_errors = 0
    for text in mutated_texts():
        try:
            load_text(text)
        except ParseError:
            pass
        except ElaborationError as exc:
            assert exc.line is not None and str(exc).startswith(f"line {exc.line}: "), repr(text)
            elaboration_errors += 1
    assert elaboration_errors > 100


def test_every_core_statement_keeps_a_source_statement():
    # a nullary OBSERVE(x = g) gives two core statements, each with a record at its line
    rng = random.Random(6)
    nullary = 0
    for text in TEXTS + [call_program(rng) for _ in range(300)]:
        prog = load_text(text)
        lines, stmts = prog.lines, prog.source.stmts
        assert len(lines) == len(prog.typed.term.heads) + 1
        assert prog.texts == tuple(map(parser.render_stmt, lines))
        for record in lines:
            assert isinstance(record, (parser.CallStmt, parser.UniformStmt, parser.CaseStmt,
                                       parser.ObserveStmt, parser.ReturnStmt))
            if not any(record is stmt for stmt in stmts):
                assert any(isinstance(stmt, parser.ObserveStmt) and stmt.line == record.line
                           for stmt in stmts)
                nullary += 1
    assert nullary > 50


def test_statements_parse_or_raise_at_the_first_unexpected_token():
    rng = random.Random(5)
    for text in TEXTS + [call_program(rng) for _ in range(300)]:
        parse(text)
    for statement, error in (
            ("y <- g(x,)", "3:10: expected a variable, got ')'"),
            ("OBSERVE(x IN)", "3:13: expected a set-valued variable, got ')'"),
            ("RETURN(x) x", "3:11: expected end of line, got 'x'"),
            ("y <- UNIFORM {H T}", "3:17: expected '}', got 'T'"),
            ("y <- CASE () OF", "3:12: expected a variable, got ')'"),
            ("y, 3 <- g(x)", "3:4: expected a variable, got '3'"),
            ("y <- 3", "3:6: expected a generator name, got '3'")):
        with pytest.raises(ParseError) as exc:
            parse(COIN + statement + "\nRETURN(y)\n")
        assert str(exc.value) == error


STATEMENT_HEADS = ("x <-", "y, z <-", "OBSERVE(", "RETURN(", "y <- CASE", "y <- UNIFORM", "y <- g(")
STATEMENT_TOKENS = ("x", "y", "g", "H", "T", "3", "$2", "1/2", "_", ",", "(", ")", "{", "}", "<-",
                    "->", "=", "!=", "IN", "AND", "OF", "|", ">", ";", "UNIFORM", "CASE", "\n")


def test_statement_errors_are_pinned():
    """20,000 statements, each a head and 0-8 tokens: every message that
    the statement walk raises is reached, and each outcome is pinned."""
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    messages = set()
    for _ in range(20_000):
        head = rng.choice(STATEMENT_HEADS)
        tokens = rng.choices(STATEMENT_TOKENS, k=rng.randint(0, 8))
        text = COIN + " ".join([head, *tokens]) + "\nRETURN(x)\n"
        try:
            parsed = pretty(parse(text))
        except ParseError as exc:
            parsed = (exc.line, exc.col, str(exc))
            messages.add(str(exc).split(": ", 1)[1].split(", got ")[0])
        digest.update(repr(parsed).encode() + b"\n")
    assert messages >= {
        "expected a variable", "expected '<-'", "expected a generator name", "expected '('",
        "expected ')'", "expected '{'", "expected '}'", "expected 'OF'",
        "expected =, != or IN", "expected a set-valued variable", "expected end of line"}
    assert digest.hexdigest() == (
        "7982e0145bcca469fca329f47e8011fabd719dab95d35b34db22c1946e85d71b")


DECLARATION_HEADS = ("TYPE", "TYPE T =", "GEN", "GEN g :", "GEN g : S ->", "GEN g : S -> S =",
                     "y <- CASE x OF", "y <- CASE (x, x) OF", "y <- CASE x OF H ->",
                     "y <- CASE x OF H -> 1|H> IF")
DECLARATION_TOKENS = ("x", "y", "S", "H", "T", "_", "3", "$2", "0", "1/2", "2/0", "/", ",", "(", ")",
                      "{", "}", "=", ":", "->", "!=", "|", ">", "+", ";", "IF", "AND", "OF", "TYPE",
                      "\n")


def test_declaration_and_table_errors_are_pinned():
    """20,000 declarations and tables, each a head and 0-8 tokens: every
    message that the declaration, row and ket readers raise is reached,
    and each outcome is pinned."""
    rng = random.Random(20261021)
    digest = hashlib.sha256()
    messages = set()
    for _ in range(20_000):
        head = rng.choice(DECLARATION_HEADS)
        tokens = rng.choices(DECLARATION_TOKENS, k=rng.randint(0, 8))
        text = COIN + "TYPE S = {H, T}\n" + " ".join([head, *tokens]) + "\nRETURN(x)\n"
        try:
            parsed = pretty(parse(text))
        except ParseError as exc:
            parsed = (exc.line, exc.col, str(exc))
            messages.add(str(exc).split(": ", 1)[1].split(", got ")[0])
        digest.update(repr(parsed).encode() + b"\n")
    assert messages >= {
        "expected a type name", "expected '='", "expected '{'", "expected '}'", "expected a value",
        "expected a generator name", "expected ':'", "expected ')'", "expected '->'",
        "expected at least one table row", "expected '|'", "expected '>'", "expected a denominator",
        "zero denominator", "expected a pattern variable", "expected '!='", "expected end of line"}
    assert digest.hexdigest() == (
        "cef03bad100337491b607262504d108a33678cd65aab1c7adb341253924cfc37")


def _cases(n: int) -> str:
    """A program of n CASE statements, each reading the one before."""
    lines = ["TYPE S = {a, b, c}", "x0 <- UNIFORM {a, b, c}"]
    for i in range(1, n + 1):
        lines.append(f"x{i} <- CASE x{i - 1} OF a -> 1|b>; b -> 1/2|a> + 1/2|c>; _ -> 1|a>")
    return "\n".join(lines + [f"RETURN(x0, x{n})"]) + "\n"


def test_each_distinct_text_is_classified_once_per_parse(monkeypatch):
    calls = []
    kind = parser._kind
    monkeypatch.setattr(parser, "_kind", lambda tok: calls.append(tok) or kind(tok))
    for text in TEXTS + [_cases(200)]:
        distinct = set(tokenize(text))
        calls.clear()
        parse(text)
        assert sorted(calls) == sorted(distinct)
    assert len(distinct) > 200


COIN = "TYPE Coin = {H, T}\nx <- UNIFORM {H, T}\n"
COIN_SOURCE = "TYPE Coin = {H, T}\n\nx <- UNIFORM {H, T}\n"


@pytest.mark.parametrize("text, last_tokens, loaded", [
    # a comment at the end of the text, with no newline, gives EOF its column
    (COIN + "RETURN(x) # done", [("IDENT", "x", 3, 8), ("PUNCT", ")", 3, 9), ("EOF", "", 3, 11)],
     COIN_SOURCE + "RETURN(x)\n"),
    (COIN.replace("\n", "\r\n") + "RETURN(x)\r\n",
     [("PUNCT", ")", 3, 9), ("NEWLINE", "\n", 3, 11), ("EOF", "", 4, 1)],
     COIN_SOURCE + "RETURN(x)\n"),
    ("TYPE Pièce = {Pile, Face}\nété <- UNIFORM {Pile, Face}\nRETURN(été)\n",
     [("PUNCT", ")", 3, 11), ("NEWLINE", "\n", 3, 12), ("EOF", "", 4, 1)],
     "TYPE Pièce = {Pile, Face}\n\nété <- UNIFORM {Pile, Face}\nRETURN(été)\n"),
    # a statement on the last line, with no newline
    (COIN + "OBSERVE(x = H)\nRETURN(x)",
     [("IDENT", "x", 4, 8), ("PUNCT", ")", 4, 9), ("EOF", "", 4, 10)],
     COIN_SOURCE + "OBSERVE(x = H)\nRETURN(x)\n"),
    # parse errors on the first, the second and the last token
    (")\n", [("PUNCT", ")", 1, 1), ("NEWLINE", "\n", 1, 2), ("EOF", "", 2, 1)],
     ("ParseError", 1, 1, "1:1: expected a declaration or statement, got ')'")),
    ("RETURN x\n", [("IDENT", "x", 1, 8), ("NEWLINE", "\n", 1, 9), ("EOF", "", 2, 1)],
     ("ParseError", 1, 8, "1:8: expected '(', got 'x'")),
    (COIN + "RETURN(x", [("PUNCT", "(", 3, 7), ("IDENT", "x", 3, 8), ("EOF", "", 3, 9)],
     ("ParseError", 3, 9, "3:9: expected ')', got end of file")),
    (COIN + "RETURN(x) )", [("PUNCT", ")", 3, 9), ("PUNCT", ")", 3, 11), ("EOF", "", 3, 12)],
     ("ParseError", 3, 11, "3:11: expected end of line, got ')'")),
    (COIN + "y <- CASE x OF # no rows",
     [("IDENT", "x", 3, 11), ("IDENT", "OF", 3, 13), ("EOF", "", 3, 16)],
     ("ParseError", 3, 16, "3:16: expected at least one table row, got end of file")),
    # punctuation that the split pads and mends, and chunks it declines
    ("<->", [("PUNCT", "<-", 1, 1), ("PUNCT", ">", 1, 3), ("EOF", "", 1, 4)],
     ("ParseError", 1, 1, "1:1: expected a declaration or statement, got '<-'")),
    ("<-->", [("PUNCT", "<-", 1, 1), ("PUNCT", "->", 1, 3), ("EOF", "", 1, 5)],
     ("ParseError", 1, 1, "1:1: expected a declaration or statement, got '<-'")),
    ("!==", [("PUNCT", "!=", 1, 1), ("PUNCT", "=", 1, 3), ("EOF", "", 1, 4)],
     ("ParseError", 1, 1, "1:1: expected a declaration or statement, got '!='")),
    ("- >", ("error", 1, 1, "1:1: unexpected character '-'"),
     ("ParseError", 1, 1, "1:1: unexpected character '-'")),
    ("! =", ("error", 1, 1, "1:1: unexpected character '!'"),
     ("ParseError", 1, 1, "1:1: unexpected character '!'")),
    ("3abc", [("INT", "3", 1, 1), ("IDENT", "abc", 1, 2), ("EOF", "", 1, 5)],
     ("ParseError", 1, 1, "1:1: expected a declaration or statement, got '3'")),
    ("$3x", [("DOLLAR", "$3", 1, 1), ("IDENT", "x", 1, 3), ("EOF", "", 1, 4)],
     ("ParseError", 1, 1, "1:1: expected a declaration or statement, got '$3'")),
    ("a$3", [("IDENT", "a", 1, 1), ("DOLLAR", "$3", 1, 2), ("EOF", "", 1, 4)],
     ("ParseError", 1, 2, "1:2: expected '<-', got '$3'")),
    ("a#b", [("IDENT", "a", 1, 1), ("EOF", "", 1, 2)],
     ("ParseError", 1, 2, "1:2: expected '<-', got end of file")),
    # a \r alone is a blank, not a line end
    (COIN + "RETURN(x)\rRETURN(x)\r",
     [("IDENT", "x", 3, 18), ("PUNCT", ")", 3, 19), ("EOF", "", 3, 21)],
     ("ParseError", 3, 11, "3:11: expected end of line, got 'RETURN'")),
    ("", [("EOF", "", 1, 1)], ("ParseError", 1, 1, "1:1: program must end with RETURN")),
    ("# only a comment", [("EOF", "", 1, 1)],
     ("ParseError", 1, 1, "1:1: program must end with RETURN")),
])
def test_hand_cases_scan_and_load_as_before(text, last_tokens, loaded):
    located = outcome(located_tokens, text)
    assert (located if located[0] == "error" else located[-3:]) == last_tokens
    assert tokenize(text) == scan(text)
    assert_scans_as_located(text, located)
    assert load_outcome(text) == loaded


@pytest.mark.parametrize("text, error", [
    (COIN + "RETURN(x)\n$", ("error", 4, 1, "4:1: expected digits after $")),
    (COIN + "y <- CASE x OF H -> ²|H>; T -> 1|T>\nRETURN(y)\n",
     ("error", 3, 21, "3:21: unexpected character '²'")),
    (COIN + "y <- CASE x OF H -> ½|H>; T -> 1|T>\nRETURN(y)\n",
     ("error", 3, 21, "3:21: unexpected character '½'")),
])
def test_lexical_errors_are_placed_as_before(text, error):
    assert outcome(located_tokens, text) == error
    assert scanned(text) == error
    assert load_outcome(text) == ("ParseError", *error[1:])


def _apply(text: str, edits: list) -> str:
    for where, fragment in edits:
        i = where % (len(text) + 1)
        text = text[:i] + fragment + text[i:]
    return text


# Set values nested past the parser's depth bound, and integer literals
# past the interpreter's int-conversion digit limit (4,300 by default).
OVERSIZED = (st.builds(lambda k: "{" * k + "a" + "}" * k, st.integers(90, 1_200))
             | st.builds(lambda k: "{" * k, st.integers(90, 1_200))
             | st.builds(lambda d, k: d * k, st.sampled_from(("7", "$7", "1/7")),
                         st.integers(4_000, 5_000)))


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(TEXTS),
       st.lists(st.tuples(st.integers(0, 600),
                          st.sampled_from(FRAGMENTS) | st.sampled_from(NUMERIC_NOT_DECIMAL)
                          | OVERSIZED),
                max_size=6))
def test_every_text_loads_or_raises_an_arrow_error(text, edits):
    try:
        load_text(_apply(text, edits))
    except ArrowError:
        pass


# Fragments of ASCII texts that the split in `tokenize` pads, mends and
# takes: every punctuation character, ``$`` amounts, digits, names,
# blanks, line ends and comments.  Inserted into half of them: a lone
# ``<``, ``-``, ``!`` or ``$``, which may join its neighbours into a token
# or be declined, and characters that make the split decline a whole text.
SPLIT_FRAGMENTS = ("<-", "->", "!=", ">", "=", "$5", "0", "12", "x", "ab", "_", "IF",
                   " ", "\t", "\r", "\n", "#", *"{}(),;:|+/")
INSERTED = ("<", "-", "!", "$", "é", "²", "٣", "\x0b", "\x0c", "\x1c", "\x00", "@")


@settings(derandomize=True, deadline=None, max_examples=1_000)
@given(st.lists(st.sampled_from(SPLIT_FRAGMENTS), max_size=16),
       st.just([]) | st.lists(st.tuples(st.integers(0, 40), st.sampled_from(INSERTED)),
                              min_size=1, max_size=2))
def test_the_split_reads_every_text_as_the_scan(fragments, inserted):
    text = _apply("".join(fragments), inserted)
    assert tokenize(text) == scan(text)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.lists(st.sampled_from(SPLIT_FRAGMENTS), max_size=16),
       st.just([]) | st.lists(st.tuples(st.integers(0, 40), st.sampled_from(INSERTED)),
                              min_size=1, max_size=2))
def test_tokenize_fills_the_set_of_its_texts(fragments, inserted):
    """The set that `tokenize` fills for the parser, split or scanned, on one
    line or more: the distinct texts of the list it returns."""
    text = _apply("".join(fragments), inserted)
    texts = set()
    tokens = tokenize(text, texts)
    assert texts == set(tokens), repr(text)


class _CountedFindall:
    """`parser._TOKEN_RE`, counting the calls of its ``findall``."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def findall(self, *args):
        self.calls += 1
        return self.pattern.findall(*args)

    def __getattr__(self, name):
        return getattr(self.pattern, name)


def test_the_split_is_taken_for_the_puzzles_and_the_benchmark_programs(monkeypatch):
    """Every puzzle and every program the benchmark loads is tokenized
    without the scan, and so are texts whose punctuation the split must
    pad and mend in order; a non-ASCII program goes through it once."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(1)
    texts = list(TEXTS)
    texts += [getattr(workloads.programs, family)(size, rng)[0]
              for family, size in workloads.FAMILIES]
    texts += [workloads.programs.straight_line(size, rng)[0] for size in workloads.LONG_SIZES]
    padded = {text: scan(text) for text in ("<->", "<-->", "!==", "x<-y->z!=w", "a#b", "x\ry")}
    counted = _CountedFindall(parser._TOKEN_RE)
    monkeypatch.setattr(parser, "_TOKEN_RE", counted)
    for text in texts:
        load_text(text)
    for text, tokens in padded.items():
        assert tokenize(text) == tokens
    assert counted.calls == 0
    load_text("TYPE Pièce = {Pile, Face}\nété <- UNIFORM {Pile, Face}\nRETURN(été)\n")
    assert counted.calls == 1
