"""Typed variable-based terms: signatures, contexts, statements, rewrites.

A term is a tuple of sampling and observation statements followed by
a return statement.  Sampling binds fresh output variables; observation
constrains two variables of equal type.  There is no other statement
form: a predicate over the scope is a sample of a generator with no
outputs, whose kernel row has mass 1 where the predicate holds and 0
where it fails, so every pass here covers every term.

The interchange law: two adjacent statements commute when neither reads
a variable that the other binds (`reads`, `binds`), because the
subdistribution monad is commutative.  Axioms 1a-1c are its instances,
and the evaluation planner moves observes by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import (
    NonFreshOutput,
    NotApplicable,
    TypeMismatch,
    UnboundVariable,
    UnknownGenerator,
)

TypeName = str
Var = str
Context = tuple[tuple[Var, TypeName], ...]


@dataclass(frozen=True)
class Generator:
    """A named primitive channel symbol with typed input and output lists."""

    name: str
    inputs: tuple[TypeName, ...]
    outputs: tuple[TypeName, ...]

    def __post_init__(self):
        if type(self.name) is not str or type(self.inputs) is not tuple or type(self.outputs) is not tuple:
            raise TypeMismatch(f"generator {self.name!r} : {self.inputs!r} -> {self.outputs!r}"
                               " needs a str name and tuples of type names")
        for t in self.inputs + self.outputs:
            if type(t) is not str:
                raise TypeMismatch(f"type name {t!r} of generator {self.name} is not a str")


@dataclass(frozen=True)
class Signature:
    types: frozenset[TypeName]
    generators: Mapping[str, Generator] = field(default_factory=dict)

    def __post_init__(self):
        for gen in self.generators.values():
            for t in gen.inputs + gen.outputs:
                if t not in self.types:
                    raise UnknownGenerator(f"generator {gen.name} uses undeclared type {t}")


# -- term nodes ------------------------------------------------------------

@dataclass(frozen=True)
class Return:
    vars: tuple[Var, ...]


@dataclass(frozen=True)
class Observe:
    left: Var
    right: Var


@dataclass(frozen=True)
class Sample:
    gen: Generator
    args: tuple[Var, ...]
    outs: tuple[Var, ...]


Statement = Union[Observe, Sample]


@dataclass(frozen=True)
class Term:
    """The statements in order, then the return."""

    heads: tuple[Statement, ...]
    ret: Return

    # A read-only chain view, kept only because perfbench/tracing.py counts
    # statements by walking `cont` and `gen`; no module here reads it.  The
    # next benchmark change should read `heads` there and delete the view.
    @property
    def cont(self) -> Term:
        """The term after the first statement."""
        if not self.heads:
            raise AttributeError("a term with no statements has no cont")
        return Term(self.heads[1:], self.ret)

    @property
    def gen(self) -> Generator:
        """The generator of the first statement, when that is a sample."""
        if not self.heads or not isinstance(self.heads[0], Sample):
            raise AttributeError("a term that does not start with a sample has no gen")
        return self.heads[0].gen


def reads(node: Statement) -> set[Var]:
    """The variables a statement reads."""
    return set(node.args) if isinstance(node, Sample) else {node.left, node.right}


def binds(node: Statement) -> tuple[Var, ...]:
    """The variables a statement binds: a sample's outputs."""
    return node.outs if isinstance(node, Sample) else ()


def render_statement(node: Statement | Return) -> str:
    """Canonical one-line text of a single statement."""
    if isinstance(node, Return):
        return f"RETURN({', '.join(node.vars)})"
    if isinstance(node, Observe):
        return f"OBSERVE({node.left} = {node.right})"
    return f"{', '.join(node.outs) or '()'} <- {node.gen.name}({', '.join(node.args)})"


# -- typechecking ------------------------------------------------------------

@dataclass(frozen=True)
class TypedTerm:
    """A term together with the signature, context, and output type list
    certifying it."""

    sig: Signature
    ctx: Context
    term: Term
    out_types: tuple[TypeName, ...]


def check_statement(sig: Signature, scope: dict[Var, TypeName], node: Statement | Return) -> None:
    """The typing rule of one statement, the return included: check ``node``
    against ``scope``, each variable bound before it with its type, then add
    the variables it binds.  Raises as `typecheck` does."""
    if isinstance(node, Sample):
        declared = sig.generators.get(node.gen.name)
        if declared is not node.gen and (declared is None or declared != node.gen):
            raise UnknownGenerator(
                f"generator {node.gen.name} not in signature in {render_statement(node)}")
        if len(node.args) != len(node.gen.inputs):
            raise TypeMismatch(f"arity mismatch in {render_statement(node)}")
        for v, expected in zip(node.args, node.gen.inputs):
            if v not in scope:
                raise UnboundVariable(f"variable {v} not in scope in {render_statement(node)}")
            if scope[v] != expected:
                raise TypeMismatch(
                    f"argument {v}: {scope[v]} is not {expected} in {render_statement(node)}")
        if len(node.outs) != len(node.gen.outputs):
            raise TypeMismatch(f"output arity mismatch in {render_statement(node)}")
        for v, tname in zip(node.outs, node.gen.outputs):
            if v in scope:
                raise NonFreshOutput(
                    f"output {v} shadows an existing variable in {render_statement(node)}")
            scope[v] = tname
    elif isinstance(node, Observe):
        for v in (node.left, node.right):
            if v not in scope:
                raise UnboundVariable(f"variable {v} not in scope in {render_statement(node)}")
        if scope[node.left] != scope[node.right]:
            raise TypeMismatch(
                f"OBSERVE needs equal types, got {scope[node.left]} and "
                f"{scope[node.right]} in {render_statement(node)}"
            )
    elif isinstance(node, Return):
        for v in node.vars:
            if v not in scope:
                raise UnboundVariable(f"variable {v} not in scope in {render_statement(node)}")
    else:
        raise TypeMismatch(f"not a term node: {node!r}")


def typecheck(sig: Signature, ctx: Context, t: Term) -> TypedTerm:
    """Accept exactly the derivable terms; return the certified term.

    Raises UnboundVariable, TypeMismatch, NonFreshOutput, or
    UnknownGenerator, naming the offending statement; `check_statement`
    checks each statement.
    """
    scope: dict[Var, TypeName] = {}
    for name, tname in ctx:
        if name in scope:
            raise NonFreshOutput(f"duplicate context variable {name}")
        if tname not in sig.types:
            raise UnknownGenerator(f"context uses undeclared type {tname}")
        scope[name] = tname
    for node in t.heads:
        if isinstance(node, Return):
            raise TypeMismatch(f"not a statement: {node!r}")
        check_statement(sig, scope, node)
    if not isinstance(t.ret, Return):
        raise TypeMismatch(f"not a return: {t.ret!r}")
    check_statement(sig, scope, t.ret)
    return TypedTerm(sig, ctx, t, tuple(scope[v] for v in t.ret.vars))


# -- alpha equivalence ---------------------------------------------------------


def alpha_eq(t1: Term, t2: Term, ctx1: Context | None = None, ctx2: Context | None = None) -> bool:
    """Equality up to consistent renaming of sampling-bound variables.

    Without contexts, free variables must match literally.  When both
    contexts are given they are aligned positionally, so terms over
    differently named but equally typed contexts can be compared.

    Like `==`, it compares terms over a signature, not interpretations: a
    generator is its name and types, and its kernel table lives in the
    interpretation.  So the loads of ``OBSERVE(x = a)`` and
    ``OBSERVE(x = b)`` over one ``x`` give equal terms, whose ``__obsN``
    tables, and so denotations, differ.
    """

    def resolve(v: Var, bound: dict[Var, int]):
        return bound.get(v, v)

    ba: dict[Var, int] = {}
    bb: dict[Var, int] = {}
    if ctx1 is not None and ctx2 is not None:
        if tuple(t for _, t in ctx1) != tuple(t for _, t in ctx2):
            return False
        for i, ((v1, _), (v2, _)) in enumerate(zip(ctx1, ctx2)):
            ba[v1] = -(i + 1)
            bb[v2] = -(i + 1)
    if not (type(t1) is type(t2) is Term) or len(t1.heads) != len(t2.heads):
        return False
    depth = 0
    for a, b in zip(t1.heads, t2.heads):
        if type(a) is not type(b):
            return False
        if isinstance(a, Observe):
            if resolve(a.left, ba) != resolve(b.left, bb) or resolve(a.right, ba) != resolve(b.right, bb):
                return False
        elif isinstance(a, Sample):
            if a.gen != b.gen or len(a.outs) != len(b.outs):
                return False
            if [resolve(v, ba) for v in a.args] != [resolve(v, bb) for v in b.args]:
                return False
            for i, (va, vb) in enumerate(zip(a.outs, b.outs)):
                ba[va] = depth + i
                bb[vb] = depth + i
            depth += len(a.outs)
        else:
            return False
    return [resolve(v, ba) for v in t1.ret.vars] == [resolve(v, bb) for v in t2.ret.vars]


# -- substitution -----------------------------------------------------------------


def substitute(t: Term, x: Var, u: Var, ctx: Context | None = None) -> Term:
    """Replace the context variable x by u everywhere it is consumed.

    Return statements substitute every variable, observe statements both
    sides, sampling statements their arguments; bound outputs are never
    touched.  When a context is supplied, x and u must have the same type.
    """
    if ctx is not None:
        types = dict(ctx)
        if x not in types or u not in types:
            raise UnboundVariable(f"{x} or {u} not in the ambient context")
        if types[x] != types[u]:
            raise TypeMismatch(f"cannot substitute {types[x]} {x} by {types[u]} {u}")
    return Term(*_substituted(t.heads, t.ret, x, u))


def _substituted(heads: tuple[Statement, ...], ret: Return, x: Var,
                 u: Var) -> tuple[tuple[Statement, ...], Return]:
    """`substitute` on statements and a return: the new ones."""

    def sub(v: Var) -> Var:
        return u if v == x else v

    moved: list[Statement] = []
    for node in heads:
        if isinstance(node, Observe):
            moved.append(Observe(sub(node.left), sub(node.right)))
        else:
            moved.append(Sample(node.gen, tuple(sub(v) for v in node.args), node.outs))
    return tuple(moved), Return(tuple(sub(v) for v in ret.vars))


# -- axiom rewrites ------------------------------------------------------------------

AXIOM_IDS = ("1a", "1b", "1c", "2", "3", "4")

# The instances of the interchange law, by the shapes of the two statements
# they swap, read forward; read backward, the shapes come in reverse order.
_INTERCHANGE = {"1a": (Sample, Sample), "1b": (Sample, Observe), "1c": (Observe, Observe)}

# The distinct rewrites, as `applicable_steps` lists them at each position.
_STEPS = (("1a", "fwd"), ("1b", "fwd"), ("1b", "bwd"), ("1c", "fwd"),
          ("2", "fwd"), ("3", "fwd"), ("3", "bwd"), ("4", "fwd"))


def _obstacle(heads: tuple[Statement, ...], which: str, position: int,
              direction: str) -> str | None:
    """Why the axiom cannot rewrite the statement list at the position, or None."""
    if not 0 <= position < len(heads):
        return f"no statement at position {position}"
    node = heads[position]
    if which in _INTERCHANGE:
        if position + 1 == len(heads):
            return "needs two adjacent statements"
        second = heads[position + 1]
        shape = _INTERCHANGE[which] if direction == "fwd" else _INTERCHANGE[which][::-1]
        if not (isinstance(node, shape[0]) and isinstance(second, shape[1])):
            return f"needs {shape[0].__name__} then {shape[1].__name__}"
        independent = reads(node).isdisjoint(binds(second)) and reads(second).isdisjoint(binds(node))
        return None if independent else "one statement reads what the other binds"
    if which == "4" and direction == "bwd":
        return "inserting a self-observation needs a variable choice"
    if not isinstance(node, Observe):
        return "needs an observe statement"
    return "observe is not of the form x = x" if which == "4" and node.left != node.right else None


def axiom_step(t: Term, which: str, position: int, direction: str = "fwd") -> Term:
    """Apply one named axiom at a statement position (0-based from the head).

    Directions read the axiom left-to-right (``fwd``) or right-to-left
    (``bwd``).  Raises NotApplicable when the statement shapes or side
    conditions do not match.
    """
    if which not in AXIOM_IDS:
        raise NotApplicable(f"unknown axiom {which!r}")
    if direction not in ("fwd", "bwd"):
        raise NotApplicable(f"unknown direction {direction!r}")
    why = _obstacle(t.heads, which, position, direction)
    if why is not None:
        raise NotApplicable(why)
    heads, ret = list(t.heads), t.ret
    node = heads[position]
    if which in _INTERCHANGE:
        heads[position : position + 2] = heads[position + 1], node
    elif which == "2":
        heads[position] = Observe(node.right, node.left)
    elif which == "3":
        # backward is the mirrored substitution; sound by composing with the symmetry axiom
        x, u = (node.left, node.right) if direction == "fwd" else (node.right, node.left)
        heads[position + 1 :], ret = _substituted(t.heads[position + 1 :], ret, x, u)
    else:
        del heads[position]
    return Term(tuple(heads), ret)


def applicable_steps(t: Term) -> Iterator[tuple[str, int, str]]:
    """Enumerate every (axiom, position, direction) that rewrites the term.

    Backward 1a, 1c and 2 are left out, being the same rewrites as forward,
    and so is backward 4, which would need a variable to observe equal to itself."""
    for pos in range(len(t.heads)):
        for which, direction in _STEPS:
            if _obstacle(t.heads, which, pos, direction) is None:
                yield which, pos, direction
