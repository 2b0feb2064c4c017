"""The regular-expression tokenizer against the character loop it replaced.

``reference_tokenize`` is the earlier tokenizer, kept verbatim apart from
its token type: it is the specification of the token stream, including
two quirks (``_`` is an IDENT, and a comment gives its column to the
NEWLINE or EOF after it).  The one intended difference is left out of
the comparison: characters such as ``²`` that ``str.isdigit`` accepts but
``int`` rejects, which the loop turned into INT tokens that crashed the
parser (see ``test_parser.py``).
"""

import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from arrowlang.errors import ArrowError, ParseError
from arrowlang.parser import load_text, tokenize

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


def test_puzzles_tokenize_as_before():
    for text in TEXTS:
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_mutated_puzzles_tokenize_as_before():
    rng = random.Random(20240501)
    errors = 0
    for _ in range(20_000):
        text = mutate(rng.choice(TEXTS), rng)
        expected = outcome(reference_tokenize, text)
        assert outcome(tokenize, text) == expected, repr(text)
        errors += expected[0] == "error"
    # both kinds of outcome are exercised
    assert 1_000 < errors < 19_000


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
