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
_SKIP = r"[ \t\r]*(?:#[^\n]*)?"
_TOKEN_RE = re.compile(r"(<-|->|!=|[{}(),;:|>+/=]|[A-Za-z_]\w*|\d+|\w+|\$\d*|\n|.|\Z)" + _SKIP)
_LEAD_RE = re.compile(_SKIP)  # what comes before the first token
_PUNCT = frozenset(("<-", "->", "!=", *"{}(),;:|>+/="))


def _kind(tok: str) -> str | None:
    """IDENT, INT, DOLLAR, PUNCT, NEWLINE or EOF; None for a lexical error."""
    if tok in _PUNCT:
        return "PUNCT"
    first = tok[:1]
    if first.isdecimal():
        return "INT"
    if first.isalpha() or first == "_":
        return "IDENT"
    if first == "$":
        return "DOLLAR" if len(tok) > 1 else None
    return {"\n": "NEWLINE", "": "EOF"}.get(tok)


def tokenize(text: str) -> list[str]:
    """The token texts of ``text``, ending with the empty EOF token.

    The texts are not classified here: the parser gives each distinct
    text its kind, and places a lexical error with `located_tokens`.
    """
    return _TOKEN_RE.findall(text, _LEAD_RE.match(text).end())


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
class SampleStmt:
    vars: tuple[str, ...]
    kind: str  # "uniform" | "case" | "call"
    uniform_values: tuple = ()
    scrutinee: tuple[str, ...] = ()
    rows: tuple[CaseRow, ...] = ()
    callee: str = ""
    args: tuple[str, ...] = ()
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
    """Recursive descent over token texts; positions are computed only for an error."""

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.toks = tokens
        self.pos = 0
        self.tok = tokens[0]  # the current token; the list ends with EOF, ""
        self.line = 1  # the current token's line: one more than the "\n" tokens passed
        self.kind = kind = {tok: _kind(tok) for tok in set(tokens)}
        if None in kind.values():
            located_tokens(text)  # raises at the first lexical error
        self.idents = {tok for tok, k in kind.items() if k == "IDENT"} - KEYWORDS
        # the reduced pair of each weight read, by its texts (p,) or (p, q); per
        # parse, as the int-conversion digit limit may change between parses
        self.weights: dict[tuple, tuple[int, int]] = {}

    def next(self):
        """Move past the current token, which is not EOF."""
        self.pos += 1
        self.tok = self.toks[self.pos]

    def error_at(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token ``index``, by default the current one."""
        _, _, line, col = located_tokens(self.text)[self.pos if index is None else index]
        return ParseError(message, line, col)

    def error(self, message: str) -> ParseError:
        tok = self.tok
        return self.error_at(message + (f", got {tok!r}" if tok else ", got end of file"))

    def expect(self, text: str):
        if self.tok != text:
            raise self.error(f"expected {text!r}")
        self.pos += 1  # as next() does, inline: this and expect_ident pass most tokens
        self.tok = self.toks[self.pos]

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.tok
        if tok not in self.idents:
            raise self.error(f"expected {what}")
        self.pos += 1
        self.tok = self.toks[self.pos]
        return tok

    def comma_list(self, item) -> list:
        """``item (, item)*``: one or more items separated by commas."""
        items = [item()]
        while self.tok == ",":
            self.next()
            items.append(item())
        return items

    def names(self, what: str) -> tuple[str, ...]:
        return tuple(self.comma_list(lambda: self.expect_ident(what)))

    def skip_newlines(self, also: str = "\n"):
        """Pass "\n" tokens, and ``also`` tokens, counting lines."""
        while self.tok in ("\n", also):
            self.line += self.tok == "\n"
            self.next()

    def end_statement(self):
        if self.tok not in ("\n", ""):
            raise self.error("expected end of line")
        self.skip_newlines()

    # -- values ------------------------------------------------------

    def int_literal(self, digits: str) -> int:
        """The number of the current INT or DOLLAR token, ``digits`` its digits; moves past it."""
        try:
            value = int(digits)
        except ValueError:  # longer than the interpreter's int-conversion digit limit
            raise self.error_at(f"integer literal of {len(digits)} digits is too long") from None
        self.next()
        return value

    def parse_value(self, depth: int = 0) -> Outcome:
        """A surface value inside ``depth`` enclosing set braces; a name is its text."""
        tok = self.tok
        if tok in self.idents:
            self.next()
            return tok
        kind = self.kind[tok]
        if kind == "INT":
            return self.int_literal(tok)
        if kind == "DOLLAR":
            return Dollar(self.int_literal(tok[1:]))
        if tok == "{":
            if depth == MAX_SET_DEPTH:
                raise self.error_at(f"set values nested more than {MAX_SET_DEPTH} deep")
            self.next()
            elems = (self.comma_list(lambda: self.parse_value(depth + 1))
                     if self.tok != "}" else [])
            self.expect("}")
            return frozenset(elems)
        raise self.error("expected a value")

    def parse_value_set(self) -> tuple:
        self.expect("{")
        values = self.comma_list(self.parse_value)
        self.expect("}")
        return tuple(values)

    # -- kets and rows ---------------------------------------------------

    def parse_rational(self) -> tuple[int, int]:
        """``p`` or ``p/q``, at an INT token, as a reduced (numerator, denominator) pair."""
        num = self.int_literal(self.tok)
        if self.tok != "/":
            return num, 1
        self.next()
        if self.kind[self.tok] != "INT":
            raise self.error("expected a denominator")
        at = self.pos
        den = self.int_literal(self.tok)
        if den == 0:
            raise self.error_at("zero denominator", at)
        g = gcd(num, den)
        return num // g, den // g

    def parse_ket(self) -> tuple:
        """``weight? |values>`` terms joined by ``+``, read at a local index.

        A weight seen before in this parse is looked up and a one-name
        monomial is read off the list; the rest goes through
        `parse_rational` and `parse_value`, which place any error.
        """
        toks, kind, idents, weights = self.toks, self.kind, self.idents, self.weights
        monomials = []
        pos = self.pos
        while True:
            tok = toks[pos]
            weight = (1, 1)
            if kind[tok] == "INT":
                text = (tok, toks[pos + 2]) if toks[pos + 1] == "/" else (tok,)
                weight = weights.get(text)
                if weight is None:
                    self.pos, self.tok = pos, tok
                    weight = weights[text] = self.parse_rational()
                pos += 2 * len(text) - 1
            if toks[pos] == "|" and toks[pos + 1] in idents and toks[pos + 2] == ">":
                monomials.append((weight, (toks[pos + 1],)))
                pos += 3
            else:
                self.pos, self.tok = pos, toks[pos]
                self.expect("|")
                values = self.comma_list(self.parse_value)
                self.expect(">")
                monomials.append((weight, tuple(values)))
                pos = self.pos
            if toks[pos] != "+":
                self.pos, self.tok = pos, toks[pos]
                return tuple(monomials)
            pos += 1

    def parse_pattern(self) -> tuple:
        if self.tok != "(":
            return (self.parse_value(),)
        self.next()
        entries = self.comma_list(self.parse_value) if self.tok != ")" else []
        self.expect(")")
        return tuple(entries)

    def parse_row(self) -> CaseRow:
        toks, idents, pos = self.toks, self.idents, self.pos  # a pattern of names is read here
        paren = toks[pos] == "("
        end = pos + paren  # the pattern's last name, if it is one
        while paren and toks[end] in idents and toks[end + 1] == ",":
            end += 2
        if toks[end] in idents and (not paren or toks[end + 1] == ")"):
            pattern = tuple(toks[pos + paren:end + 1:2])
            self.pos, self.tok = end + 1 + paren, toks[end + 1 + paren]
        else:  # parse_pattern reads any other pattern and places its errors
            pattern = self.parse_pattern()
        self.expect("->")
        ket = self.parse_ket()
        conditions = []
        if self.tok == "IF":
            self.next()
            while True:
                left = self.expect_ident("a pattern variable")
                self.expect("!=")
                conditions.append((left, self.expect_ident("a pattern variable")))
                if self.tok != "AND":
                    break
                self.next()
        return CaseRow(pattern, ket, tuple(conditions))

    def at_new_statement(self) -> bool:
        tok = self.tok
        if tok in ("", "TYPE", "GEN", "OBSERVE", "RETURN"):
            return True
        if tok in self.idents:
            # scan an identifier list for a following arrow; it stops at
            # a token that is not a comma, at the latest at EOF
            toks, kind, k = self.toks, self.kind, self.pos + 1
            while toks[k] == "," and kind[toks[k + 1]] == "IDENT":
                k += 2
            return toks[k] == "<-"
        return False

    def parse_rows(self) -> tuple[CaseRow, ...]:
        rows = []
        while True:
            self.skip_newlines(also=";")
            if self.at_new_statement():
                break
            rows.append(self.parse_row())
        if not rows:
            raise self.error("expected at least one table row")
        return tuple(rows)

    # -- declarations and statements -----------------------------------------

    def parse_type_decl(self, line: int) -> TypeDecl:
        self.next()  # TYPE
        name = self.expect_ident("a type name")
        self.expect("=")
        values = self.parse_value_set()
        self.end_statement()
        return TypeDecl(name, values, line)

    def parse_type_list(self) -> tuple[str, ...]:
        if self.tok == "(":
            self.next()
            self.expect(")")
            return ()
        return self.names("a type name")

    def parse_gen_decl(self, line: int) -> GenDecl:
        self.next()  # GEN
        name = self.expect_ident("a generator name")
        self.expect(":")
        inputs = self.parse_type_list()
        self.expect("->")
        outputs = self.parse_type_list()
        rows = None
        if self.tok == "=":
            self.next()
            rows = self.parse_rows()
        else:
            self.end_statement()
        return GenDecl(name, inputs, outputs, rows, line)

    def parse_observe(self, line: int) -> ObserveStmt:
        self.next()  # OBSERVE
        self.expect("(")
        atoms = []
        while True:
            left = self.parse_value()
            tok = self.tok
            if tok in ("=", "!="):
                self.next()
                atoms.append(SAtom(tok, left, self.parse_value()))
            elif tok == "IN":
                self.next()
                atoms.append(SAtom("IN", left, self.expect_ident("a set-valued variable")))
            else:
                raise self.error("expected =, != or IN")
            if self.tok != "AND":
                break
            self.next()
        self.expect(")")
        self.end_statement()
        return ObserveStmt(tuple(atoms), line)

    def parse_args(self) -> tuple[str, ...]:
        """``( variable, ... )``, possibly empty."""
        self.expect("(")
        names = self.names("a variable") if self.tok != ")" else ()
        self.expect(")")
        return names

    def parse_return(self, line: int) -> ReturnStmt:
        self.next()  # RETURN
        names = self.parse_args()
        self.end_statement()
        return ReturnStmt(names, line)

    def parse_sample(self, line: int) -> SampleStmt:
        names = self.names("a variable")
        self.expect("<-")
        tok = self.tok
        if tok == "UNIFORM":
            self.next()
            values = self.parse_value_set()
            self.end_statement()
            return SampleStmt(names, "uniform", uniform_values=values, line=line)
        if tok == "CASE":
            self.next()
            if self.tok == "(":
                self.next()
                scrutinee = self.names("a variable")
                self.expect(")")
            else:
                scrutinee = (self.expect_ident("a variable"),)
            self.expect("OF")
            rows = self.parse_rows()
            return SampleStmt(names, "case", scrutinee=scrutinee, rows=rows, line=line)
        callee = self.expect_ident("a generator name")
        args = self.parse_args()
        self.end_statement()
        return SampleStmt(names, "call", callee=callee, args=args, line=line)

    def parse_program(self) -> SourceProgram:
        types: list[TypeDecl] = []
        gens: list[GenDecl] = []
        stmts: list = []
        self.skip_newlines()
        while self.tok:
            tok, line = self.tok, self.line
            if tok == "TYPE":
                types.append(self.parse_type_decl(line))
            elif tok == "GEN":
                gens.append(self.parse_gen_decl(line))
            elif tok == "OBSERVE":
                stmts.append(self.parse_observe(line))
            elif tok == "RETURN":
                stmts.append(self.parse_return(line))
                self.skip_newlines()
                if self.tok:
                    raise self.error("statements after RETURN")
                break
            elif tok in self.idents:
                stmts.append(self.parse_sample(line))
            else:
                raise self.error("expected a declaration or statement")
            self.skip_newlines()
        if not stmts or not isinstance(stmts[-1], ReturnStmt):
            raise self.error_at("program must end with RETURN")
        return SourceProgram(tuple(types), tuple(gens), tuple(stmts))


def parse(text: str) -> SourceProgram:
    """Parse .arrow source text; raises ParseError with line and column."""
    return _Parser(text, tokenize(text)).parse_program()


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
    if stmt.kind == "uniform":
        values = ", ".join(_src_value(v) for v in stmt.uniform_values)
        return f"{lhs} <- UNIFORM {{{values}}}"
    if stmt.kind == "call":
        return f"{lhs} <- {stmt.callee}({', '.join(stmt.args)})"
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
        if isinstance(stmt, SampleStmt) and stmt.kind == "case":
            lines.append(render_stmt(stmt, oneline=False))
        else:
            lines.append(render_stmt(stmt))
    return "\n".join(lines) + "\n"


# -- elaboration -------------------------------------------------------------------


@dataclass
class Program:
    """A parsed, elaborated, and typechecked program.

    ``typed`` is the core term, ``interp`` the interpretation declared by
    the file's tables, and ``texts`` the display line for each core
    statement of the trace, rendered on first read from ``lines``: per
    core statement its source statement, or its text when it has none.
    """

    source: SourceProgram
    typed: TypedTerm
    interp: Interpretation
    lines: tuple

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(line if isinstance(line, str) else render_stmt(line) for line in self.lines)


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

    def add(node, line):
        try:
            check_statement(sig, scope, node)
        except ArrowError as exc:  # name ``stmt``, the statement as written, not its core form
            message = str(exc)
            cut = message.rfind(f" in {render_statement(node)}")
            if cut < 0:
                raise
            raise type(exc)(message[:cut] + f" in {render_stmt(stmt)}") from exc
        heads.append(node)
        lines.append(line)

    def fresh_gen_name(base: str, index: int) -> str:
        # keyed by statement index, not source line, so reformatting a
        # file never changes the synthesised signature
        name = f"__{base}{index}"
        while name in gens:
            name += "_"
        return name

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
        gen = Generator(fresh_gen_name("obs", index), tuple(scope[v] for v in args), ())
        gens[gen.name] = gen
        kernels[gen.name] = _PredicateTable(atoms, tuple(reversed(literals)))
        return Sample(gen, tuple(args), ())

    for stmt_index, stmt in enumerate(sp.stmts, 1):
        at[0] = stmt.line
        if isinstance(stmt, SampleStmt):
            if stmt.kind == "uniform":
                if len(stmt.vars) != 1:
                    raise ElaborationError("UNIFORM binds exactly one variable")
                values = stmt.uniform_values
                if len(set(values)) != len(values):
                    raise ElaborationError("UNIFORM repeats a value")
                gen = Generator(fresh_gen_name("u", stmt_index), (),
                                (_unique_type_for(values, carriers, "UNIFORM"),))
                gens[gen.name] = gen
                kernels[gen.name] = {(): Subdist._of_numerators([(v, 1) for v in values], len(values))}
                add(Sample(gen, (), stmt.vars), stmt)
            elif stmt.kind == "case":
                for v in stmt.scrutinee:
                    if v not in scope:
                        raise ElaborationError(f"unknown variable {v}")
                if len(stmt.vars) != 1:
                    raise ElaborationError("CASE binds exactly one variable")
                in_types = tuple(scope[v] for v in stmt.scrutinee)
                matchers = [_RowMatcher(row, in_types, carriers) for row in stmt.rows]
                gen = Generator(fresh_gen_name("case", stmt_index), in_types,
                                (_infer_case_output_type(matchers, carriers),))
                gens[gen.name] = gen
                kernels[gen.name] = build_table(matchers, in_types, gen.outputs, carriers)
                add(Sample(gen, stmt.scrutinee, stmt.vars), stmt)
            else:  # call
                gen = gens.get(stmt.callee)
                if gen is None:
                    raise ElaborationError(f"unknown generator {stmt.callee}")
                add(Sample(gen, stmt.args, stmt.vars), stmt)
        elif isinstance(stmt, ObserveStmt):
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
                out = f"__o{stmt_index}"
                while out in scope:
                    out += "_"
                add(Sample(gen, (), (out,)), f"{out} <- {gen.name}()")
                add(Observe(var, out), f"OBSERVE({var} = {out})")
                continue
            add(predicate_sample(stmt, stmt_index), stmt)
        else:  # ReturnStmt, the last statement
            ret = Return(stmt.vars)
            check_statement(sig, scope, ret)
            lines.append(stmt)

    typed = TypedTerm(sig, (), Term(tuple(heads), ret), tuple(scope[v] for v in ret.vars))
    return Program(sp, typed, Interpretation(carriers, kernels), tuple(lines))


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
