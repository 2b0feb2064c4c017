"""Concrete syntax for .arrow program files.

A file declares enumerated types (and optionally named generators with
kernel tables), then a statement list ending in RETURN.  UNIFORM and
CASE are sugar: elaboration turns each into a fresh generator whose
kernel is the inline table.  So is an OBSERVE other than ``x = y``: it
becomes a sample of a fresh generator with no outputs whose row is
``1|()>`` where the predicate holds and zero where it fails.  The core
term thus uses exactly the three statement forms.

Grammar sketch (comments start with ``#``, newlines separate
statements; a ket weight is ``p`` or ``p/q``, read reduced, with blanks
allowed around the ``/``, and a weight left out is 1):

    TYPE Door = {L, M, R}
    GEN f : Door -> Door = L -> 1|R>; M -> 1/2|L> + 1/2|R>; R -> 1|L>
    car <- UNIFORM {L, M, R}
    host <- CASE (car, player) OF
      (x, x) -> 1/2|y> + 1/2|z> IF x != y AND y != z AND z != x
      (x, y) -> 1|z> IF x != y AND y != z AND z != x
    OBSERVE(host = L)
    OBSERVE(A IN ports)
    RETURN(car)

Tokens come from a few ``str`` passes (`tokenize`), or from the regex
scan that defines them, ``_TOKEN_RE``, for a text those passes decline and
for the position of a lexical error.

A program is read in one walk over the token list
(`_Parser.parse_program`), into one record per declaration and statement
form: `TypeDecl`, `GenDecl`, `UniformStmt`, `CaseStmt`, `CallStmt`,
`ObserveStmt` and `ReturnStmt`.  Each production has one reader, which
takes the token index where it starts and returns what it read with the
index after it: a name list, a value, a list of values, a table, its
rows, patterns and kets.  The walk is the one grammar: it raises at the
first token it does not expect, naming what it expected there.

A surface value is stored as the value itself: a name is a ``str``,
either a variable or a symbol, and elaboration tells which by the
variables in scope; anything else (an integer, a ``$`` amount, a set) is
a literal; ``_`` in a pattern is the wildcard.

CASE patterns are literals, ``_`` wildcards, or variables; repeated
variables force equality and ``IF`` inequalities constrain both pattern
variables and extra ket variables (an extra named like a value of its
type is an error), which are resolved by enumeration over the carrier.
Every row's ket is read by one walk and checked once, when its table is
declared, whether or not an input reaches it.  Each input combination
takes the first row that matches it and whose conditions can be met; a
literal row (values only, no ``IF``) skips only the pattern set-up and
is looked up by its values, and the other rows are scanned in order.  A
row whose ket names no extra variable takes the first assignment that
meets its conditions; otherwise every such assignment must give the same row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, lcm

from .errors import ArrowError, ElaborationError, ParseError
from .semantics import Interpretation
from .subdist import Dollar, Outcome, Subdist, collapse_values, outcome_key, render_outcome
from .syntax import (
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Term,
    TypedTerm,
    check_statement,
    render_statement,
)

# Set values nest at most this deep.  Parsing, ordering and printing a set
# recurse once per level, so a deeper value would exhaust the stack.
MAX_SET_DEPTH = 100

KEYWORDS = {"TYPE", "GEN", "UNIFORM", "CASE", "OF", "OBSERVE", "RETURN", "IF", "AND", "IN"}


# -- tokens ------------------------------------------------------------------

# One alternative per token, tried in this order at each position, then the
# blanks and the comment after it: PUNCT, names that start with a letter or
# ``_`` and go on with letters, digits and ``_`` (``\w`` is exactly
# ``str.isalnum()`` or ``_``), INT (runs of Unicode decimal digits, ``\d``,
# exactly what ``int`` accepts), a name that starts with a non-ASCII letter
# (or a ``²`` or ``½``, a lexical error), DOLLAR, NEWLINE, one unexpected
# character, and the empty EOF at the end of the text.  A comment runs to
# the end of its line and gives its column to the NEWLINE (or EOF) after it.
_COMMENT = r"#[^\n]*"
_SKIP = rf"[ \t\r]*(?:{_COMMENT})?"
_TOKEN_RE = re.compile(r"(<-|->|!=|[{}(),;:|>+/=]|[A-Za-z_]\w*|\d+|\w+|\$\d*|\n|.|\Z)" + _SKIP)
_LEAD_RE = re.compile(_SKIP)  # what comes before the first token
_COMMENT_RE = re.compile(_COMMENT)
_PUNCT = frozenset(("<-", "->", "!=", *"{}(),;:|>+/="))

# Punctuation padded with blanks, in an order that keeps the scan's reading:
# ``<-`` first (``<`` ends no token), each ``->``/``!=`` mended once split.
_PADDING = (("<-", " <- "), (">", " > "), ("- > ", " -> "), ("=", " = "), ("! = ", " != "),
            *((c, f" {c} ") for c in "{}(),;:|+/"))


def _kind(tok: str) -> str | None:
    """IDENT, INT, DOLLAR, PUNCT, NEWLINE or EOF; None for a lexical error.

    IDENT is tested first: most distinct texts of a long program are names.
    """
    first = tok[:1]
    if first.isalpha() or first == "_":
        return "IDENT"
    if tok in _PUNCT:
        return "PUNCT"
    if first.isdecimal():
        return "INT"
    if first == "$":
        return "DOLLAR" if len(tok) > 1 else None
    return {"\n": "NEWLINE", "": "EOF"}.get(tok)


def tokenize(text: str, texts: set[str] | None = None) -> list[str]:
    """The token texts of ``text``, ending with the empty EOF token.

    An ASCII text without its comments, padded around its punctuation,
    is split into lines and words, taken when each word is one whole token
    (a name, digits, ``$`` and digits, or punctuation).  The scan reads any
    other text: ``3abc``, ``<``, a non-ASCII name, a blank such as ``\\x0c``
    that ``str.split`` knows and the scan does not.  The texts are not
    classified here: the parser gives each distinct text its kind, and
    places a lexical error with `located_tokens`.  ``texts``, if given, is
    filled with the distinct texts, the set that the split's check builds,
    for the parser.
    """
    texts = set() if texts is None else texts
    if text.isascii() and not any(map(text.__contains__, "\x0b\x0c\x1c\x1d\x1e\x1f")):
        padded = _COMMENT_RE.sub("", text) if "#" in text else text
        for old, new in _PADDING:
            padded = padded.replace(old, new)
        tokens = []
        for line in padded.split("\n"):
            tokens += line.split()
            tokens.append("\n")
        texts.update(tokens)
        for tok in texts.difference(_PUNCT, ("\n",)):
            if not (tok.isidentifier() or tok.isdigit() or tok[0] == "$" and tok[1:].isdigit()):
                texts.clear()
                break
        else:
            tokens[-1] = ""
            texts.add("")
            if "\n" not in text:  # the one "\n" became EOF
                texts.remove("\n")
            return tokens
    tokens = _TOKEN_RE.findall(text, _LEAD_RE.match(text).end())
    texts.update(tokens)
    return tokens


def located_tokens(text: str) -> list[tuple]:
    """``(kind, text, line, col)`` per token, raising at the first lexical error.

    The same scan as `tokenize`, with positions; it is only run to place
    an error.
    """
    located = []
    line, line_start = 1, 0
    pos = _LEAD_RE.match(text).end()
    comment = text.find("#", 0, pos)
    for m in _TOKEN_RE.finditer(text, pos):
        tok = m.group(1)
        col = (comment if comment >= 0 else m.start()) - line_start + 1
        kind = _kind(tok)
        if kind is None:
            raise ParseError("expected digits after $" if tok == "$"
                             else f"unexpected character {tok[0]!r}", line, col)
        located.append((kind, tok, line, col))
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end(1)
        comment = text.find("#", m.end(1), m.end())
    return located


# -- surface syntax ------------------------------------------------------------

@dataclass(frozen=True)
class SAtom:
    op: str  # "=", "!=", "IN"
    left: Outcome  # a surface value: a name (str) or a literal
    right: Outcome  # the same; for IN, the name of a set-valued variable


@dataclass(frozen=True)
class CaseRow:
    pattern: tuple  # surface values, one per input; "_" is the wildcard
    ket: tuple  # (((num, den), (surface value, ...)), ...)
    conditions: tuple  # ((name, name), ...) inequalities


@dataclass(frozen=True)
class TypeDecl:
    name: str
    values: tuple
    line: int


@dataclass(frozen=True)
class GenDecl:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    rows: tuple[CaseRow, ...] | None
    line: int


@dataclass(frozen=True)
class UniformStmt:
    vars: tuple[str, ...]
    values: tuple
    line: int = 0


@dataclass(frozen=True)
class CaseStmt:
    vars: tuple[str, ...]
    scrutinee: tuple[str, ...]
    rows: tuple[CaseRow, ...]
    line: int = 0


@dataclass(frozen=True)
class CallStmt:
    vars: tuple[str, ...]
    callee: str
    args: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class ObserveStmt:
    atoms: tuple[SAtom, ...]  # conjunction
    line: int = 0


@dataclass(frozen=True)
class ReturnStmt:
    vars: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class SourceProgram:
    types: tuple[TypeDecl, ...]
    gens: tuple[GenDecl, ...]
    stmts: tuple


class _Parser:
    """Recursive descent over token texts, at a token index.

    Each reader takes the index where its production starts and returns
    what it read with the index after it.  A declaration's reader also
    takes its line, and a table's reader, which passes line breaks, returns
    the line after it too.  Positions are computed only for an error.
    """

    def __init__(self, text: str, tokens: list[str], texts: set[str] | None = None):
        self.text = text
        self.toks = tokens  # ends with EOF, ""
        # each distinct text, of the set that tokenize filled if it is given
        self.kind = kind = {tok: _kind(tok) for tok in (set(tokens) if texts is None else texts)}
        if None in kind.values():
            located_tokens(text)  # raises at the first lexical error
        self.idents = {tok for tok, k in kind.items() if k == "IDENT"} - KEYWORDS
        # the reduced pair of each weight read, by its texts (p,) or (p, q); per
        # parse, as the int-conversion digit limit may change between parses
        self.weights: dict[tuple, tuple[int, int]] = {}

    def error(self, message: str, index: int, got: bool = True) -> ParseError:
        """A ParseError at token ``index``, naming the token found there if ``got``."""
        if got:
            tok = self.toks[index]
            message += f", got {tok!r}" if tok else ", got end of file"
        _, _, line, col = located_tokens(self.text)[index]
        return ParseError(message, line, col)

    # -- declarations and statements -------------------------------------------

    def parse_program(self) -> SourceProgram:
        """Every declaration and statement, read in one walk over the tokens
        (see the module docstring).  Each ends at a line end, line breaks or
        EOF, or with its table; the program ends with its RETURN."""
        toks, idents = self.toks, self.idents
        types: list[TypeDecl] = []
        gens: list[GenDecl] = []
        stmts: list = []
        pos, line, returned = 0, 1, False
        while True:
            while toks[pos] == "\n":
                pos += 1
                line += 1
            tok = toks[pos]
            if not tok or returned:
                break
            if tok == "TYPE":
                decl, pos = self.read_type_decl(pos, line)
                types.append(decl)
            elif tok == "GEN":
                decl, pos, line = self.read_gen_decl(pos, line)
                gens.append(decl)
                if decl.rows is not None:
                    continue
            elif tok == "OBSERVE":
                atoms, pos = self.read_atoms(pos + 1)
                stmts.append(ObserveStmt(atoms, line))
            elif tok == "RETURN":
                if toks[pos + 1] != "(":
                    raise self.error("expected '('", pos + 1)
                names, pos = self.read_names(pos + 1, "a variable")
                stmts.append(ReturnStmt(names, line))
                returned = True
            elif tok in idents:  # names <- ...
                outs, pos = self.read_names(pos, "a variable")
                if toks[pos] != "<-":
                    raise self.error("expected '<-'", pos)
                head = toks[pos + 1]
                pos += 2
                if head in idents:
                    if toks[pos] != "(":
                        raise self.error("expected '('", pos)
                    args, pos = self.read_names(pos, "a variable")
                    stmts.append(CallStmt(outs, head, args, line))
                elif head == "UNIFORM":
                    values, pos = self.read_set(pos)
                    stmts.append(UniformStmt(outs, values, line))
                elif head == "CASE":
                    if toks[pos] in idents:
                        scrutinee, pos = (toks[pos],), pos + 1
                    elif toks[pos] == "(" and toks[pos + 1] != ")":
                        scrutinee, pos = self.read_names(pos, "a variable")
                    else:
                        raise self.error("expected a variable", pos + (toks[pos] == "("))
                    if toks[pos] != "OF":
                        raise self.error("expected 'OF'", pos)
                    rows, pos, next_line = self.read_rows(pos + 1, line)
                    stmts.append(CaseStmt(outs, scrutinee, rows, line))
                    line = next_line
                    continue
                else:
                    raise self.error("expected a generator name", pos - 1)
            else:
                raise self.error("expected a declaration or statement", pos)
            if toks[pos] and toks[pos] != "\n":
                raise self.error("expected end of line", pos)
        if not returned:
            raise self.error("program must end with RETURN", pos, got=False)
        if tok:
            raise self.error("statements after RETURN", pos)
        return SourceProgram(tuple(types), tuple(gens), tuple(stmts))

    def read_type_decl(self, pos: int, line: int) -> tuple:
        """``TYPE name = {value, ...}`` at ``pos``."""
        toks = self.toks
        name = toks[pos + 1]
        if name not in self.idents:
            raise self.error("expected a type name", pos + 1)
        if toks[pos + 2] != "=":
            raise self.error("expected '='", pos + 2)
        values, pos = self.read_set(pos + 3)
        return TypeDecl(name, values, line), pos

    def read_gen_decl(self, pos: int, line: int) -> tuple:
        """``GEN name : types -> types``, then ``=`` and its table, at ``pos``;
        with a table, the index and line of what follows it."""
        toks = self.toks
        name = toks[pos + 1]
        if name not in self.idents:
            raise self.error("expected a generator name", pos + 1)
        if toks[pos + 2] != ":":
            raise self.error("expected ':'", pos + 2)
        inputs, pos = self.read_types(pos + 3)
        if toks[pos] != "->":
            raise self.error("expected '->'", pos)
        outputs, pos = self.read_types(pos + 1)
        if toks[pos] != "=":
            return GenDecl(name, inputs, outputs, None, line), pos, line
        rows, pos, next_line = self.read_rows(pos + 1, line)
        return GenDecl(name, inputs, outputs, rows, line), pos, next_line

    def read_types(self, pos: int) -> tuple:
        """A generator's types at ``pos``: ``()`` or ``name, ...``."""
        toks = self.toks
        if toks[pos] != "(":
            return self.read_names(pos, "a type name")
        if toks[pos + 1] != ")":
            raise self.error("expected ')'", pos + 1)
        return (), pos + 2

    def read_atoms(self, pos: int) -> tuple:
        """The atoms of ``( atom AND ... )`` at ``pos``."""
        toks = self.toks
        if toks[pos] != "(":
            raise self.error("expected '('", pos)
        atoms = []
        while True:
            left, pos = self.read_value(pos + 1)
            op = toks[pos]
            if op == "=" or op == "!=":
                right, pos = self.read_value(pos + 1)
            elif op == "IN":
                right, pos = toks[pos + 1], pos + 2
                if right not in self.idents:
                    raise self.error("expected a set-valued variable", pos - 1)
            else:
                raise self.error("expected =, != or IN", pos)
            atoms.append(SAtom(op, left, right))
            if toks[pos] != "AND":
                break
        if toks[pos] != ")":
            raise self.error("expected ')'", pos)
        return tuple(atoms), pos + 1

    # -- names and values ----------------------------------------------------------

    def read_names(self, pos: int, what: str) -> tuple:
        """The names at ``pos``, each ``what``: ``name, ...``, one or more, or
        ``( name, ... )``, possibly none."""
        toks, idents = self.toks, self.idents
        paren = toks[pos] == "("
        if paren and toks[pos + 1] == ")":
            return (), pos + 2
        start = pos = pos + paren
        while toks[pos] in idents:
            pos += 1
            if toks[pos] != ",":
                names = tuple(toks[start:pos:2])
                if not paren:
                    return names, pos
                if toks[pos] != ")":
                    raise self.error("expected ')'", pos)
                return names, pos + 1
            pos += 1
        raise self.error(f"expected {what}", pos)

    def read_int(self, digits: str, pos: int) -> int:
        """The number of the INT or DOLLAR token at ``pos``, ``digits`` its digits."""
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's int-conversion digit limit
            raise self.error(f"integer literal of {len(digits)} digits is too long",
                             pos, got=False) from None

    def read_value(self, pos: int, depth: int = 0) -> tuple:
        """The surface value at ``pos``, inside ``depth`` enclosing set braces;
        a name is its text."""
        tok = self.toks[pos]
        if tok in self.idents:
            return tok, pos + 1
        kind = self.kind[tok]
        if kind == "INT":
            return self.read_int(tok, pos), pos + 1
        if kind == "DOLLAR":
            return Dollar(self.read_int(tok[1:], pos)), pos + 1
        if tok == "{":
            if depth == MAX_SET_DEPTH:
                raise self.error(f"set values nested more than {MAX_SET_DEPTH} deep", pos, got=False)
            values, pos = self.read_set(pos, depth + 1)
            return frozenset(values), pos
        raise self.error("expected a value", pos)

    def read_set(self, pos: int, depth: int = 0) -> tuple:
        """The values of ``{ value, ... }`` at ``pos``, inside ``depth`` enclosing
        set braces: a set value (``depth`` above 0) may be empty, the list of
        a ``TYPE`` or a ``UNIFORM`` may not."""
        toks = self.toks
        if toks[pos] != "{":
            raise self.error("expected '{'", pos)
        if depth and toks[pos + 1] == "}":
            return (), pos + 2
        return self.read_values(pos + 1, "}", depth)

    def read_values(self, pos: int, close: str, depth: int = 0) -> tuple:
        """``value, ...`` at ``pos``, one value or more, then ``close``."""
        toks, values = self.toks, []
        while True:
            value, pos = self.read_value(pos, depth)
            values.append(value)
            if toks[pos] != ",":
                break
            pos += 1
        if toks[pos] != close:
            raise self.error(f"expected {close!r}", pos)
        return tuple(values), pos + 1

    # -- tables ----------------------------------------------------------------------

    def read_rows(self, pos: int, line: int) -> tuple:
        """The rows of a table at ``pos``, up to the next declaration or
        statement; ``;`` and line breaks may come before each."""
        toks, rows = self.toks, []
        while True:
            while toks[pos] == "\n" or toks[pos] == ";":
                line += toks[pos] == "\n"
                pos += 1
            if self.at_new_statement(pos):
                break
            row, pos = self.read_row(pos)
            rows.append(row)
        if not rows:
            raise self.error("expected at least one table row", pos)
        return tuple(rows), pos, line

    def at_new_statement(self, pos: int) -> bool:
        tok = self.toks[pos]
        if tok in ("", "TYPE", "GEN", "OBSERVE", "RETURN"):
            return True
        if tok in self.idents:
            # scan an identifier list for a following arrow; it stops at
            # a token that is not a comma, at the latest at EOF
            toks, kind = self.toks, self.kind
            pos += 1
            while toks[pos] == "," and kind[toks[pos + 1]] == "IDENT":
                pos += 2
            return toks[pos] == "<-"
        return False

    def read_row(self, pos: int) -> tuple:
        """``pattern -> ket``, then its ``IF`` conditions, at ``pos``."""
        toks, idents = self.toks, self.idents
        pattern, pos = self.read_pattern(pos)
        if toks[pos] != "->":
            raise self.error("expected '->'", pos)
        ket, pos = self.read_ket(pos + 1)
        conditions = []
        while toks[pos] == ("AND" if conditions else "IF"):
            if toks[pos + 1] not in idents:
                raise self.error("expected a pattern variable", pos + 1)
            if toks[pos + 2] != "!=":
                raise self.error("expected '!='", pos + 2)
            if toks[pos + 3] not in idents:
                raise self.error("expected a pattern variable", pos + 3)
            conditions.append((toks[pos + 1], toks[pos + 3]))
            pos += 4
        return CaseRow(pattern, ket, tuple(conditions)), pos

    def read_pattern(self, pos: int) -> tuple:
        """A row's pattern at ``pos``: a value, or ``( value, ... )``, possibly empty."""
        toks = self.toks
        if toks[pos] != "(":
            value, pos = self.read_value(pos)
            return (value,), pos
        if toks[pos + 1] == ")":
            return (), pos + 2
        return self.read_values(pos + 1, ")")

    def read_ket(self, pos: int) -> tuple:
        """``weight? |values>`` monomials joined by ``+``, at ``pos``."""
        toks, kind, idents = self.toks, self.kind, self.idents
        monomials = []
        while True:
            weight = (1, 1)
            if kind[toks[pos]] == "INT":
                weight, pos = self.read_weight(pos)
            if toks[pos] != "|":
                raise self.error("expected '|'", pos)
            if toks[pos + 1] in idents and toks[pos + 2] == ">":  # |name>, the commonest
                values, pos = (toks[pos + 1],), pos + 3
            else:
                values, pos = self.read_values(pos + 1, ">")
            monomials.append((weight, values))
            if toks[pos] != "+":
                return tuple(monomials), pos
            pos += 1

    def read_weight(self, pos: int) -> tuple:
        """The weight ``p`` or ``p/q`` at ``pos``, an INT, as a reduced
        (numerator, denominator) pair; each weight text is read once a parse."""
        toks = self.toks
        text = (toks[pos], toks[pos + 2]) if toks[pos + 1] == "/" else (toks[pos],)
        weight = self.weights.get(text)
        if weight is None:
            num = self.read_int(text[0], pos)
            if len(text) == 1:
                weight = (num, 1)
            else:
                if self.kind[text[1]] != "INT":
                    raise self.error("expected a denominator", pos + 2)
                den = self.read_int(text[1], pos + 2)
                if den == 0:
                    raise self.error("zero denominator", pos + 2, got=False)
                g = gcd(num, den)
                weight = (num // g, den // g)
            self.weights[text] = weight
        return weight, pos + 2 * len(text) - 1


def parse(text: str) -> SourceProgram:
    """Parse .arrow source text; raises ParseError with line and column."""
    texts: set[str] = set()
    return _Parser(text, tokenize(text, texts), texts).parse_program()


# -- canonical rendering ---------------------------------------------------------


def _src_value(v: Outcome) -> str:
    if isinstance(v, Dollar):
        return repr(v)
    if isinstance(v, frozenset):
        return "{" + ", ".join(_src_value(e) for e in sorted(v, key=outcome_key)) + "}"
    return str(v)


def render_ket(ket: tuple) -> str:
    parts = []
    for (num, den), values in ket:
        weight = str(num) if den == 1 else f"{num}/{den}"
        parts.append(f"{weight}|{','.join(render_outcome(v) for v in values)}>")
    return " + ".join(parts)


def render_row(row: CaseRow) -> str:
    atoms = [_src_value(v) for v in row.pattern]
    pattern = atoms[0] if len(atoms) == 1 else "(" + ", ".join(atoms) + ")"
    text = f"{pattern} -> {render_ket(row.ket)}"
    if row.conditions:
        text += " IF " + " AND ".join(f"{a} != {b}" for a, b in row.conditions)
    return text


def render_stmt(stmt, oneline: bool = True) -> str:
    """Canonical statement text; CASE tables fold onto one line when asked."""
    if isinstance(stmt, ObserveStmt):
        inner = " AND ".join(
            f"{_src_value(a.left)} {a.op} {_src_value(a.right)}"
            for a in stmt.atoms
        )
        return f"OBSERVE({inner})"
    if isinstance(stmt, ReturnStmt):
        return f"RETURN({', '.join(stmt.vars)})"
    lhs = ", ".join(stmt.vars)
    if isinstance(stmt, CallStmt):
        return f"{lhs} <- {stmt.callee}({', '.join(stmt.args)})"
    if isinstance(stmt, UniformStmt):
        values = ", ".join(_src_value(v) for v in stmt.values)
        return f"{lhs} <- UNIFORM {{{values}}}"
    scrutinee = stmt.scrutinee[0] if len(stmt.scrutinee) == 1 else "(" + ", ".join(stmt.scrutinee) + ")"
    head = f"{lhs} <- CASE {scrutinee} OF"
    rows = [render_row(r) for r in stmt.rows]
    if oneline:
        return head + " " + "; ".join(rows)
    return head + "\n" + "\n".join("  " + r for r in rows)


def pretty(sp: SourceProgram) -> str:
    """Canonical source text; parsing it back gives the same program up to
    the source line numbers of its declarations and statements."""
    lines: list[str] = []
    for td in sp.types:
        values = ", ".join(_src_value(v) for v in td.values)
        lines.append(f"TYPE {td.name} = {{{values}}}")
    for gd in sp.gens:
        ins = ", ".join(gd.inputs) if gd.inputs else "()"
        outs = ", ".join(gd.outputs) if gd.outputs else "()"
        head = f"GEN {gd.name} : {ins} -> {outs}"
        if gd.rows is None:
            lines.append(head)
        else:
            lines.append(head + " =")
            lines.extend("  " + render_row(r) for r in gd.rows)
    if lines:
        lines.append("")
    for stmt in sp.stmts:
        lines.append(render_stmt(stmt, oneline=not isinstance(stmt, CaseStmt)))
    return "\n".join(lines) + "\n"


# -- elaboration -------------------------------------------------------------------


@dataclass
class Program:
    """A parsed, elaborated, and typechecked program.

    ``typed`` is the core term and ``interp`` the interpretation declared
    by the file's tables.  ``lines`` holds a statement record per core
    statement, then the return's: the source statement it elaborates, or
    for the two that a nullary ``OBSERVE(x = f)`` gives, the `CallStmt` and
    the `ObserveStmt` it abbreviates, at its line.  So ``lines[i].line`` is
    the source line of core statement ``i``; ``texts`` renders each record
    on first read, as the trace shows it.  ``untabled`` is the first
    statement that samples a ``GEN`` with no table, as (generator name,
    source line), or None.
    """

    source: SourceProgram
    typed: TypedTerm
    interp: Interpretation
    lines: tuple
    untabled: tuple | None = None

    def require_tables(self) -> None:
        """Raise unless every generator the program samples has a table: a
        ``GEN`` without one has a denotation only under `eq`'s random tables."""
        if self.untabled is not None:
            name, line = self.untabled
            raise ElaborationError(f"generator {name} has no table; only eq reinterprets it", line)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(map(render_stmt, self.lines))


def _unique_type_for(values, carriers: dict, what: str) -> str:
    candidates = [t for t, carrier in carriers.items() if all(v in carrier for v in values)]
    if not candidates:
        raise ElaborationError(f"no declared type contains {what}")
    if len(candidates) > 1:
        raise ElaborationError(f"ambiguous type for {what}: {' or '.join(sorted(candidates))}")
    return candidates[0]


class _RowMatcher:
    """Pattern-matching and instantiation for one table row."""

    def __init__(self, row: CaseRow, input_types: tuple[str, ...], carriers: dict):
        if len(row.pattern) != len(input_types):
            raise ElaborationError(
                f"pattern arity {len(row.pattern)} does not match {len(input_types)} inputs")
        # the ket in one walk: integer numerators over the lcm of its weights'
        # denominators, per outcome as written (names unresolved, zero sums
        # kept), and the arities of its monomials
        self.den = den = lcm(*[den for (_, den), _ in row.ket])
        self.nums, self.arities = nums, arities = {}, set()
        for (num, d), values in row.ket:
            arities.add(len(values))
            x = values[0] if len(values) == 1 else values
            nums[x] = nums.get(x, 0) + num * (den // d)
        self.key = None  # the pattern of a literal row (values only, no IF), looked up by it
        if not row.conditions and all(v != "_" and v in carriers[t]
                                      for v, t in zip(row.pattern, input_types)):
            self.key, self.names = row.pattern, {}  # it needs no pattern set-up
            return
        # classify pattern entries; names that denote carrier values are literals
        self.literals: list[tuple[int, Outcome]] = []
        self.variables: list[tuple[int, str]] = []
        # every variable, pattern or extra, with its type; a name in the ket
        # is a variable when it is one of these, and a value otherwise
        self.names = names = {}
        for i, (value, tname) in enumerate(zip(row.pattern, input_types)):
            if value == "_":
                continue
            if value in carriers[tname]:
                self.literals.append((i, value))
            elif not isinstance(value, str):
                raise ElaborationError(f"literal {_src_value(value)} not in {tname}")
            else:  # a name that is no value of its type is a pattern variable
                if names.setdefault(value, tname) != tname:
                    raise ElaborationError(f"pattern variable {value} used at two types")
                self.variables.append((i, value))
        # extra variables are condition names not bound by the pattern;
        # their types come from inequation links, propagated to a fixpoint
        extras = [name for pair in row.conditions for name in pair if name not in names]
        names.update(dict.fromkeys(extras))
        changed = True
        while changed:
            changed = False
            for a, b in row.conditions:
                ta, tb = names[a], names[b]
                if ta and tb and ta != tb:
                    raise ElaborationError(f"condition {a} != {b} compares {ta} with {tb}")
                if (ta is None) != (tb is None):
                    names[a] = names[b] = ta or tb
                    changed = True
        for name in extras:
            if names[name] is None:
                raise ElaborationError(f"cannot infer a type for variable {name}")
            if name in carriers[names[name]]:  # IF compares variables, not a variable with a value
                raise ElaborationError(f"{name} in IF is a value of {names[name]}, not a variable")
        # the extra variables in the order they are enumerated, and their carriers
        self.extra_names = sorted(set(extras))
        self.spaces = [carriers[names[name]] for name in self.extra_names]
        # each condition at the depth where both its names are bound: 0 for
        # two pattern variables, k + 1 once extra_names[k] is
        depth = {name: k for k, name in enumerate(self.extra_names, 1)}
        self.checks: list[list] = [[] for _ in range(len(self.extra_names) + 1)]
        for a, b in row.conditions:
            self.checks[max(depth.get(a, 0), depth.get(b, 0))].append((a, b))
        # a row whose ket names no extra variable takes the first assignment
        self.ket_extras = bool(depth) and any(v in depth for x in self.nums
                                              for v in (x if type(x) is tuple else (x,)))

    def bind(self, combo: tuple):
        """Match the pattern against concrete values; None when it fails."""
        for i, value in self.literals:
            if combo[i] != value:
                return None
        bound: dict[str, Outcome] = {}
        for i, name in self.variables:
            if bound.setdefault(name, combo[i]) != combo[i]:
                return None
        return bound

    def check(self, out_types: tuple[str, ...], members: dict) -> None:
        """Check the ket against the outputs, once, whether or not any input
        reaches the row: its arity, that each name is a variable of the
        output's type or a value of it (in ``members``, by type), and a mass of
        at most 1.  A ket that names no variable is ``row``, built here once."""
        names, nums, named = self.names, self.nums, False
        # a ket of single values that names no variable is checked by one test of
        # its values, any other outcome by outcome
        one = (self.arities == {1} == {len(out_types)} and names.keys().isdisjoint(nums)
               and members[out_types[0]].issuperset(nums))
        for x in () if one else nums:
            values = x if type(x) is tuple else (x,)
            if len(values) != len(out_types):
                raise ElaborationError(f"ket arity {len(values)} does not match outputs")
            for v, tname in zip(values, out_types):
                if v in names:
                    if names[v] != tname:
                        raise ElaborationError(f"ket variable {v} is {names[v]}, not {tname}")
                    named = True
                elif v not in members[tname]:
                    raise ElaborationError(f"{v} is neither a variable nor a value of {tname}"
                                           if isinstance(v, str) else f"{_src_value(v)} not in {tname}")
        if sum(nums.values()) > self.den:
            raise ElaborationError("row mass exceeds 1")
        self.row = None if named else Subdist._of_numerators(
            [(x, n) for x, n in nums.items() if n], self.den)

    def _numerators(self, env: dict[str, Outcome]) -> dict:
        """The row's outcomes under ``env`` with their nonzero numerators over ``den``."""
        acc: dict = {}
        for x, n in self.nums.items():
            key = collapse_values(tuple([env.get(v, v) for v in (x if type(x) is tuple else (x,))]))
            acc[key] = acc.get(key, 0) + n
        return {x: n for x, n in acc.items() if n}

    def _assignments(self, bound: dict[str, Outcome]):
        """Extend ``bound`` to each assignment of the extra variables that
        meets the conditions, yielding after each, in `product` order.

        The walk is depth first in ``extra_names`` order, and a condition is
        tested as soon as both its names are bound, so a failing one prunes
        every assignment below it.  Without extra variables there is one
        assignment, the empty one.
        """
        names, spaces, checks = self.extra_names, self.spaces, self.checks
        levels = [iter((None,))]  # level 0: the empty assignment; k: the values of names[k - 1]
        while levels:
            k = len(levels) - 1
            for value in levels[k]:
                if k:
                    bound[names[k - 1]] = value
                if not any(bound[a] == bound[b] for a, b in checks[k]):
                    if k == len(names):
                        yield
                    else:
                        levels.append(iter(spaces[k]))
                    break
            else:
                levels.pop()

    def instantiate(self, bound: dict[str, Outcome]):
        """Row subdistribution for a matched combo; None when unsatisfiable.

        When the ket names an extra variable, every satisfying assignment
        must yield the same table row, and the first one that does not
        raises; otherwise the first satisfying assignment gives the row.
        """
        first = None
        for _ in self._assignments(bound):
            if self.row is not None:  # a ket with no variable: any assignment gives it
                return self.row
            numerators = self._numerators(bound)
            if first is None:
                first = numerators
                if not self.ket_extras:
                    break
            elif numerators != first:
                raise ElaborationError(
                    f"conflicting assignments of {', '.join(self.extra_names)} give different rows")
        return None if first is None else Subdist._of_numerators(first.items(), self.den)


# The two rows of a predicate observe's table: 1|()> and the zero row.
_HOLDS, _FAILS = Subdist._of_numerators([((), 1)], 1), Subdist._of_numerators([], 1)


class _PredicateTable(dict):
    """The kernel table of a predicate observe, one row made per argument
    tuple on its first read: `_HOLDS` where every atom ``(op, i, j)`` holds
    of the arguments followed by ``literals``, `_FAILS` where one fails."""

    def __init__(self, atoms: list, literals: tuple):
        self.atoms, self.literals = atoms, literals

    def __missing__(self, args: tuple) -> Subdist:
        values = args + self.literals
        row = _HOLDS
        for op, i, j in self.atoms:
            a, b = values[i], values[j]
            if not (a == b if op == "=" else a != b if op == "!=" else a in b):
                row = _FAILS
                break
        self[args] = row
        return row


def build_table(matchers, input_types: tuple[str, ...], out_types: tuple[str, ...],
                carriers: dict) -> dict:
    """Expand classified pattern rows into a total kernel table over the carriers.

    Each combo takes the first row that matches it and whose conditions
    can be met.  Every row is checked first, in order, reached or not.
    Rows of literals only, with no IF, are looked up by their values; the
    other rows are scanned, up to the row that the lookup found.
    """
    scanned = []
    index: dict = {}  # literal tuple -> (number of rows scanned before it, its matcher)
    members = {t: frozenset(carriers[t]) for t in out_types}
    for matcher in matchers:
        matcher.check(out_types, members)
        if matcher.key is None:
            scanned.append(matcher)
        else:
            index.setdefault(matcher.key, (len(scanned), matcher))
    miss = (len(scanned), None)
    table: dict = {}
    for combo in product(*(carriers[t] for t in input_types)):
        before, hit = index.get(combo, miss)
        for matcher in scanned[:before]:
            bound = matcher.bind(combo)
            if bound is not None:
                row_value = matcher.instantiate(bound)
                if row_value is not None:
                    table[combo] = row_value
                    break
        else:
            if hit is None:
                raise ElaborationError(f"no row matches ({', '.join(map(_src_value, combo))})")
            table[combo] = hit.row
    return table


def _infer_case_output_type(matchers, carriers: dict) -> str:
    votes, values = set(), set()  # the types of the ket variables; every value in the kets
    for matcher in matchers:
        if matcher.arities != {1}:
            raise ElaborationError("CASE kets must have exactly one value")
        values.update(matcher.nums)  # variables too: read only when no ket names one
        for v in matcher.nums if matcher.names else ():
            if v in matcher.names:
                votes.add(matcher.names[v])
    if len(votes) > 1:
        raise ElaborationError(f"CASE kets mix output types {' and '.join(sorted(votes))}")
    return votes.pop() if votes else _unique_type_for(values, carriers, "the CASE kets")


def elaborate(sp: SourceProgram) -> Program:
    """Resolve sugar and build the core term, interpretation, and trace lines.

    Each core statement is checked by the typing rule, `check_statement`,
    as it is built.  Any error, a typing error included, is raised as an
    ElaborationError at the line of the declaration or statement being
    elaborated: declarations first, then statements in order.
    """
    at = [None, ""]  # that line, and the context its messages are given in
    try:
        return _elaborate(sp, at)
    except ArrowError as exc:
        raise ElaborationError(at[1] + str(exc), at[0]) from exc


def _elaborate(sp: SourceProgram, at: list) -> Program:
    carriers: dict[str, tuple] = {}
    for td in sp.types:
        at[0] = td.line
        if td.name in carriers:
            raise ElaborationError(f"type {td.name} declared twice")
        if not td.values:
            raise ElaborationError(f"type {td.name} has an empty carrier")
        if len(set(td.values)) != len(td.values):
            raise ElaborationError(f"type {td.name} repeats a value")
        carriers[td.name] = tuple(td.values)

    gens: dict[str, Generator] = {}
    kernels: dict[str, dict] = {}
    for gd in sp.gens:
        at[0] = gd.line
        if gd.name in gens:
            raise ElaborationError(f"generator {gd.name} declared twice")
        for t in gd.inputs + gd.outputs:
            if t not in carriers:
                raise ElaborationError(f"generator {gd.name} uses undeclared type {t}")
        gens[gd.name] = Generator(gd.name, gd.inputs, gd.outputs)
        if gd.rows is not None:
            at[1] = f"generator {gd.name}: "
            matchers = [_RowMatcher(row, gd.inputs, carriers) for row in gd.rows]
            kernels[gd.name] = build_table(matchers, gd.inputs, gd.outputs, carriers)
            at[1] = ""

    sig = Signature(frozenset(carriers), gens)  # the sugar's generators join ``gens`` below
    scope: dict[str, str] = {}  # each variable bound so far, and its type, kept by the rule
    heads: list = []  # the core statements
    lines: list = []  # Program.lines
    untabled = None  # Program.untabled
    binds = None  # every variable the program binds or returns, made when first needed

    def add(node, record):
        try:
            check_statement(sig, scope, node)
        except ArrowError as exc:  # name ``stmt``, the statement as written, not its core form
            message = str(exc)
            cut = message.rfind(f" in {render_statement(node)}")
            raise type(exc)(message[:cut] + f" in {render_stmt(stmt)}") from exc
        heads.append(node)
        lines.append(record)

    def fresh(base: str, index: int, taken) -> str:
        # keyed by statement index, not source line, so reformatting a
        # file never changes the synthesised names
        name = f"__{base}{index}"
        while name in taken:
            name += "_"
        return name

    def fresh_gen(base: str, index: int, inputs: tuple, outputs: tuple, table) -> Generator:
        name = fresh(base, index, gens)
        gens[name], kernels[name] = Generator(name, inputs, outputs), table
        return gens[name]

    def predicate_sample(stmt: ObserveStmt, index: int) -> Sample:
        # a sample of __obsN : T1..Tk -> (), its inputs the variables the
        # conjunction reads, in order of first reading; each atom becomes
        # (op, slot, slot), a slot indexing the arguments followed by the
        # literals in reverse, so a literal's (negative) slot is fixed at once
        args: dict[str, int] = {}
        literals: list = []

        def slot(v) -> int:
            if v in scope:
                return args.setdefault(v, len(args))
            literals.append(v)
            return -len(literals)

        atoms, mismatch = [], None
        for atom in stmt.atoms:
            left, right = atom.left, atom.right
            if atom.op == "IN":
                if right not in scope:
                    raise ElaborationError("IN needs a bound set-valued variable")
                sets = carriers[scope[right]]
                if not all(isinstance(v, frozenset) for v in sets):
                    raise ElaborationError(f"{right} is not set-valued")
                elements = set().union(*sets)  # typed as these when one declared type holds them all
                if sum(elements.issubset(carrier) for carrier in carriers.values()) != 1:
                    _unique_type_for([left], carriers, _src_value(left))
                if not any(left in v for v in sets):
                    raise ElaborationError(f"{_src_value(left)} is in no value of {scope[right]}")
                literals.append(left)
                atoms.append(("IN", -len(literals), slot(right)))
                continue
            if left not in scope and right not in scope:
                raise ElaborationError(f"neither side of the comparison ({_src_value(left)} "
                                       f"and {_src_value(right)}) is a bound variable")
            # a side that is not a variable in scope is a value of the other side's type
            tname = scope[left] if left in scope else scope[right]
            for v in (left, right):
                if v not in scope and v not in carriers[tname]:
                    raise ElaborationError(f"{_src_value(v)} is not a value of {tname}")
            if mismatch is None and right in scope and scope[right] != tname:
                mismatch = f"comparison between {tname} and {scope[right]}"
            atoms.append((atom.op, slot(left), slot(right)))
        if mismatch is not None:  # found once every atom is read, as the first error
            raise ElaborationError(f"{mismatch} in {render_stmt(stmt)}")
        gen = fresh_gen("obs", index, tuple(scope[v] for v in args), (),
                        _PredicateTable(atoms, tuple(reversed(literals))))
        return Sample(gen, tuple(args), ())

    for stmt_index, stmt in enumerate(sp.stmts, 1):
        at[0] = stmt.line
        kind = type(stmt)
        if kind is CallStmt:
            gen = gens.get(stmt.callee)
            if gen is None:
                raise ElaborationError(f"unknown generator {stmt.callee}")
            add(Sample(gen, stmt.args, stmt.vars), stmt)
            if untabled is None and gen.name not in kernels:
                untabled = (gen.name, stmt.line)
        elif kind is UniformStmt:
            if len(stmt.vars) != 1:
                raise ElaborationError("UNIFORM binds exactly one variable")
            values = stmt.values
            if len(set(values)) != len(values):
                raise ElaborationError("UNIFORM repeats a value")
            gen = fresh_gen("u", stmt_index, (), (_unique_type_for(values, carriers, "UNIFORM"),),
                            {(): Subdist._of_numerators([(v, 1) for v in values], len(values))})
            add(Sample(gen, (), stmt.vars), stmt)
        elif kind is CaseStmt:
            for v in stmt.scrutinee:
                if v not in scope:
                    raise ElaborationError(f"unknown variable {v}")
            if len(stmt.vars) != 1:
                raise ElaborationError("CASE binds exactly one variable")
            in_types = tuple(scope[v] for v in stmt.scrutinee)
            matchers = [_RowMatcher(row, in_types, carriers) for row in stmt.rows]
            outs = (_infer_case_output_type(matchers, carriers),)
            gen = fresh_gen("case", stmt_index, in_types, outs,
                            build_table(matchers, in_types, outs, carriers))
            add(Sample(gen, stmt.scrutinee, stmt.vars), stmt)
        elif kind is ObserveStmt:
            atom = stmt.atoms[0]
            both_vars = (
                len(stmt.atoms) == 1
                and atom.op == "="
                and atom.left in scope
                and atom.right in scope
            )
            if both_vars:
                add(Observe(atom.left, atom.right), stmt)
                continue
            nullary = None
            if len(stmt.atoms) == 1 and atom.op == "=":
                for a, b in ((atom.left, atom.right), (atom.right, atom.left)):
                    gen = gens.get(b)
                    if (a in scope and b not in scope
                            and gen is not None and gen.inputs == () and len(gen.outputs) == 1):
                        nullary = (a, gen)
                        break
            if nullary is not None:
                var, gen = nullary
                if binds is None:  # the variable sampled steps past all of them
                    binds = {v for s in sp.stmts if type(s) is not ObserveStmt for v in s.vars}
                out = fresh("o", stmt_index, binds)
                add(Sample(gen, (), (out,)), CallStmt((out,), gen.name, (), stmt.line))
                add(Observe(var, out), ObserveStmt((SAtom("=", var, out),), stmt.line))
                if untabled is None and gen.name not in kernels:
                    untabled = (gen.name, stmt.line)
                continue
            add(predicate_sample(stmt, stmt_index), stmt)
        else:  # ReturnStmt, the last statement
            ret = Return(stmt.vars)
            check_statement(sig, scope, ret)
            lines.append(stmt)

    typed = TypedTerm(sig, (), Term(tuple(heads), ret), tuple(scope[v] for v in ret.vars))
    return Program(sp, typed, Interpretation(carriers, kernels), tuple(lines), untabled)


def load_text(text: str) -> Program:
    return elaborate(parse(text))


def read_source(path) -> str:
    """A file's text; raises ParseError at the first byte that is not UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = re.search("[\udc80-\udcff]", text)  # the bytes the decoder escaped
    if bad:
        at = bad.start()
        raise ParseError(f"byte 0x{ord(bad.group()) - 0xDC00:02X} is not UTF-8 in {path}",
                         text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))
    return text


def load_file(path) -> Program:
    return load_text(read_source(path))
