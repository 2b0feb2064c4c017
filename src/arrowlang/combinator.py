"""Variable-free term encoding driven by finite functions.

Finite functions are lists of 1-based integers with an explicit
codomain; they reindex contexts.  A term in this form is, as a variable
term is, a tuple of observe and generator statements followed by a
return, but every variable reference is a finite function into the
context its statement sees, making composition, whiskering, and
tensoring purely mechanical.

Composition note: ``ff_compose(alpha, beta)`` selects through beta
first (``result[i] = alpha[beta[i]]``), matching the defining list
formula.  The method ``FiniteFunction.then`` is the same operation in
diagrammatic order, which is how the rewriting equations below read.

Every statement's context is a prefix of the return's context, so a
term stores that one context and each statement's context is the part
bound before it.  Every pass over a term is one loop over its
statements.

Terms and finite functions are checked where they enter: the public
`FiniteFunction` and `CombTerm` constructors check every field, and
`act` its arguments.  The passes (`act`'s result, composition, the
whiskers, tensoring, `FiniteFunction.then`) and `encode`'s selectors
build from values checked there through `FiniteFunction._of_targets`
and `CombTerm._of_parts`, which check nothing.  The term that `encode`
returns is checked, since a `TypedTerm` built by hand is only
type-checked there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import ArityMismatch, TypeMismatch
from .syntax import (
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Term,
    TypeName,
    TypedTerm,
)

_set = object.__setattr__  # sets a field of a frozen dataclass


@dataclass(frozen=True)
class FiniteFunction:
    """A function dom -> cod encoded as the list of its 1-based values."""

    targets: tuple[int, ...]
    cod: int

    def __post_init__(self):
        if type(self.targets) is not tuple:
            raise TypeMismatch(f"targets {self.targets!r} are not a tuple")
        if type(self.cod) is not int:
            raise TypeMismatch(f"codomain {self.cod!r} is not an integer")
        if self.cod < 0:
            raise ArityMismatch(f"negative codomain {self.cod}")
        for t in self.targets:
            if type(t) is not int:
                raise TypeMismatch(f"target {t!r} is not an integer")
            if not 1 <= t <= self.cod:
                raise ArityMismatch(f"target {t} outside 1..{self.cod}")

    @classmethod
    def _of_targets(cls, targets: tuple[int, ...], cod: int) -> "FiniteFunction":
        """Build from a tuple of integers in 1..cod.  Nothing is checked:
        each caller builds from finite functions checked where they entered,
        or from context positions it has counted itself."""
        self = cls.__new__(cls)
        _set(self, "targets", targets)
        _set(self, "cod", cod)
        return self

    @property
    def dom(self) -> int:
        return len(self.targets)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.dom:
            raise ArityMismatch(f"index {i} outside 1..{self.dom}")
        return self.targets[i - 1]

    def then(self, other: "FiniteFunction") -> "FiniteFunction":
        """Diagrammatic composite: apply self, then other."""
        if self.cod != other.dom:
            raise ArityMismatch(f"cannot chain cod {self.cod} into dom {other.dom}")
        return FiniteFunction._of_targets(tuple([other.targets[t - 1] for t in self.targets]), other.cod)

    def __repr__(self) -> str:
        return f"[{', '.join(map(str, self.targets))}] -> {self.cod}"


def ff(targets, cod: int) -> FiniteFunction:
    return FiniteFunction(tuple(targets), cod)


def ff_identity(n: int) -> FiniteFunction:
    return ff(range(1, n + 1), n)


def ff_compose(alpha: FiniteFunction, beta: FiniteFunction) -> FiniteFunction:
    """Select through beta into alpha: result[i] = alpha[beta[i]]."""
    if beta.cod != alpha.dom:
        raise ArityMismatch(f"compose needs cod(beta) = dom(alpha), got {beta.cod} and {alpha.dom}")
    return beta.then(alpha)


def ff_symmetry(n: int, m: int) -> FiniteFunction:
    return ff(list(range(n + 1, n + m + 1)) + list(range(1, n + 1)), n + m)


def ff_incl_left(n: int, k: int) -> FiniteFunction:
    return ff(range(1, n + 1), n + k)


def ff_incl_right(n: int, m: int) -> FiniteFunction:
    return ff(range(m + 1, m + n + 1), m + n)


def ff_collapse(beta: FiniteFunction) -> FiniteFunction:
    """Identity except that position beta(2) is redirected to beta(1)."""
    if beta.dom != 2:
        raise ArityMismatch("collapse needs a function with domain 2")
    targets = list(range(1, beta.cod + 1))
    targets[beta(2) - 1] = beta(1)
    return ff(targets, beta.cod)


def ff_whisker_left(k: int, alpha: FiniteFunction) -> FiniteFunction:
    return ff(list(range(1, k + 1)) + [k + t for t in alpha.targets], k + alpha.cod)


def ff_whisker_right(alpha: FiniteFunction, k: int) -> FiniteFunction:
    return ff(list(alpha.targets) + list(range(alpha.cod + 1, alpha.cod + k + 1)), alpha.cod + k)


# -- combinator terms ----------------------------------------------------------

TypeList = tuple[TypeName, ...]


@dataclass(frozen=True)
class CObs:
    """Observe statement comparing two context positions."""

    pair: FiniteFunction


@dataclass(frozen=True)
class CGen:
    """Generator statement; later statements see its outputs appended."""

    gen: Generator
    sel: FiniteFunction


@dataclass(frozen=True)
class CombTerm:
    """Statements ``heads``, then a return reindexing ``ctx`` through ``sel``.

    ``ctx`` is the return's context: the input context (its first
    ``arity`` positions) followed by each generator's outputs in order.
    A statement's context is the prefix of ``ctx`` bound before it.
    """

    heads: tuple[Union[CObs, CGen], ...]
    sel: FiniteFunction
    ctx: TypeList
    arity: int = field(init=False, compare=False, repr=False)
    in_types: TypeList = field(init=False, compare=False, repr=False)
    out_types: TypeList = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ctx = self.ctx
        if type(self.heads) is not tuple:
            raise TypeMismatch(f"statements {self.heads!r} are not a tuple")
        if type(ctx) is not tuple:
            raise TypeMismatch(f"context {ctx!r} is not a tuple")
        if type(self.sel) is not FiniteFunction:
            raise TypeMismatch(f"selector {self.sel!r} is not a finite function")
        if self.sel.cod != len(ctx):
            raise ArityMismatch(f"selector codomain {self.sel.cod} != context length {len(ctx)}")
        n = len(ctx)
        for h in self.heads:
            if type(h) is CGen and type(h.gen) is Generator and type(h.sel) is FiniteFunction:
                n -= len(h.gen.outputs)
            elif type(h) is not CObs or type(h.pair) is not FiniteFunction:
                raise TypeMismatch(f"not a statement: {h!r}")
        if n < 0:
            raise TypeMismatch("context is shorter than the generators' outputs")
        self._set_types(n)
        for h in self.heads:
            if type(h) is CObs:
                if h.pair.dom != 2:
                    raise ArityMismatch("observe needs a selector with domain 2")
                if h.pair.cod != n:
                    raise ArityMismatch("observe selector does not match the context")
                if ctx[h.pair(1) - 1] != ctx[h.pair(2) - 1]:
                    raise TypeMismatch("observe compares positions of different types")
            else:
                gen = h.gen
                if h.sel.cod != n:
                    raise ArityMismatch("argument selector does not match the context")
                if h.sel.dom != len(gen.inputs):
                    raise ArityMismatch(f"{gen.name} expects {len(gen.inputs)} arguments")
                picked = tuple(ctx[t - 1] for t in h.sel.targets)
                if picked != gen.inputs:
                    raise TypeMismatch(f"arguments {picked} do not match {gen.inputs}")
                if ctx[n:n + len(gen.outputs)] != gen.outputs:
                    raise TypeMismatch(f"context does not continue with {gen.name}'s outputs")
                n += len(gen.outputs)

    @classmethod
    def _of_parts(cls, heads: tuple, sel: FiniteFunction, ctx: TypeList, arity: int) -> "CombTerm":
        """Build from statements, a return selector and a context (all
        tuples) that fit together, the first ``arity`` positions of ``ctx``
        being the input.  Nothing is checked: each caller builds from
        terms checked where they entered."""
        self = cls.__new__(cls)
        _set(self, "heads", heads)
        _set(self, "sel", sel)
        _set(self, "ctx", ctx)
        self._set_types(arity)
        return self

    def _set_types(self, arity: int) -> None:
        ctx = self.ctx
        _set(self, "arity", arity)
        _set(self, "in_types", ctx[:arity])
        _set(self, "out_types", tuple([ctx[t - 1] for t in self.sel.targets]))


def comb_identity(x: TypeList) -> CombTerm:
    return CombTerm((), ff_identity(len(x)), x)


def _through(pos: tuple[int, ...], f: FiniteFunction) -> tuple[int, ...]:
    return tuple([pos[t] for t in f.targets])


def _reindexed(t: CombTerm, pos: tuple[int, ...], ctx: TypeList, ret: tuple[int, ...]) -> CombTerm:
    """``t`` over the context ``ctx``, returning the positions ``ret``.

    Position p of ``t.ctx`` becomes ``pos[p]`` (``pos[0]`` is unused) in
    every statement.  Every statement's context grows by as much as the
    whole context does.
    """
    arity = n = t.arity + len(ctx) - len(t.ctx)
    of = FiniteFunction._of_targets
    heads = []
    for h in t.heads:
        if type(h) is CObs:
            heads.append(CObs(of(_through(pos, h.pair), n)))
        else:
            heads.append(CGen(h.gen, of(_through(pos, h.sel), n)))
            n += len(h.gen.outputs)
    return CombTerm._of_parts(tuple(heads), of(ret, len(ctx)), ctx, arity)


# -- the module action -----------------------------------------------------------


def act(phi: FiniteFunction, t: CombTerm, ctx: TypeList) -> CombTerm:
    """Reindex the context of ``t`` through ``phi``.

    Position i of the old context becomes position phi(i) of the new
    context ``ctx``.
    """
    old = t.in_types
    if phi.dom != len(old):
        raise ArityMismatch(f"action domain {phi.dom} != context length {len(old)}")
    ctx = tuple(ctx)
    if len(ctx) != phi.cod:
        raise ArityMismatch(f"target context length {len(ctx)} != codomain {phi.cod}")
    for j, tname in zip(phi.targets, old):
        if ctx[j - 1] != tname:
            raise TypeMismatch(f"position {j} is {ctx[j - 1]}, expected {tname}")
    # generator outputs follow the new context in their order
    pos = (0, *phi.targets, *range(phi.cod + 1, phi.cod + len(t.ctx) - len(old) + 1))
    return _reindexed(t, pos, ctx + t.ctx[len(old):], _through(pos, t.sel))


# -- composition, whiskering, tensoring ----------------------------------------------


def comb_compose(s: CombTerm, t: CombTerm) -> CombTerm:
    """Sequential composition; the output list of s must equal t's context."""
    if s.out_types != t.in_types:
        raise TypeMismatch(f"cannot compose {s.out_types} into {t.in_types}")
    # `act(s.sel, t, s.ctx)`, whose argument checks the equation above implies
    k = len(s.ctx)
    pos = (0, *s.sel.targets, *range(k + 1, k + len(t.ctx) - t.arity + 1))
    tail = _reindexed(t, pos, s.ctx + t.ctx[t.arity:], _through(pos, t.sel))
    return CombTerm._of_parts(s.heads + tail.heads, tail.sel, tail.ctx, s.arity)


def comb_whisker_left(z: TypeList, t: CombTerm) -> CombTerm:
    """Pad the context and outputs on the left by the type list z."""
    z = tuple(z)
    k = len(z)
    if k == 0:
        return t
    pos = (0, *range(k + 1, k + len(t.ctx) + 1))
    return _reindexed(t, pos, z + t.ctx, (*range(1, k + 1), *_through(pos, t.sel)))


def comb_whisker_right(t: CombTerm, z: TypeList) -> CombTerm:
    """Pad the context and outputs on the right by the type list z."""
    z = tuple(z)
    k = len(z)
    if k == 0:
        return t
    # the padding goes between the input context and the generator outputs
    n = t.arity
    pos = (0, *range(1, n + 1), *range(n + k + 1, k + len(t.ctx) + 1))
    ret = (*_through(pos, t.sel), *range(n + 1, n + k + 1))
    return _reindexed(t, pos, t.in_types + z + t.ctx[n:], ret)


def comb_tensor(t1: CombTerm, t2: CombTerm) -> CombTerm:
    """Parallel composite: whisker each side and compose."""
    return comb_compose(
        comb_whisker_right(t1, t2.in_types),
        comb_whisker_left(t1.out_types, t2),
    )


def structure_maps(x: TypeList) -> tuple[CombTerm, CombTerm, CombTerm]:
    """Copy, discard, and compare maps for a list of types.

    Atomic copy is ``ret([1, 1])``, discard is ``ret([])``, compare is
    ``obs([1, 2]); ret([1])``; lists extend coordinatewise, matching the
    uniformity equations for tensors.
    """
    x = tuple(x)
    k = len(x)
    copy = CombTerm((), ff(list(range(1, k + 1)) * 2, k), x)
    discard = CombTerm((), ff([], k), x)
    compares = tuple(CObs(ff([i, k + i], 2 * k)) for i in range(1, k + 1))
    compare = CombTerm(compares, ff(range(1, k + 1), 2 * k), x + x)
    return copy, discard, compare


# -- translation to and from the variable form -----------------------------------------


def encode(tt: TypedTerm) -> CombTerm:
    """Mechanical translation of a typed term into combinator form.

    One pass finds each statement's selector: a variable's position is
    that of its latest binding.
    """
    types = [tname for _, tname in tt.ctx]
    pos = {name: i for i, (name, _) in enumerate(tt.ctx, start=1)}

    def at(v: str) -> int:
        try:
            return pos[v]
        except KeyError:
            raise TypeMismatch(f"variable {v} not in context") from None

    of = FiniteFunction._of_targets  # every position `at` returns is in range
    heads = []
    for node in tt.term.heads:
        if isinstance(node, Observe):
            heads.append(CObs(of((at(node.left), at(node.right)), len(types))))
        elif isinstance(node, Sample):
            heads.append(CGen(node.gen, of(tuple([at(v) for v in node.args]), len(types))))
            for v, tname in zip(node.outs, node.gen.outputs):
                types.append(tname)
                pos[v] = len(types)
        else:
            raise TypeMismatch(f"not a term node: {node!r}")
    return CombTerm(tuple(heads), of(tuple([at(v) for v in tt.term.ret.vars]), len(types)), tuple(types))


def decode(c: CombTerm, sig: Signature | None = None) -> TypedTerm:
    """Rebuild a variable-based term; position p becomes variable vp.

    A signature is synthesised from the generators in the term when none
    is supplied.
    """
    names = [f"v{i}" for i in range(1, len(c.ctx) + 1)]
    heads = []
    n = c.arity  # the context length before the statement at hand
    for h in c.heads:
        if type(h) is CObs:
            heads.append(Observe(names[h.pair(1) - 1], names[h.pair(2) - 1]))
        else:
            m = n + len(h.gen.outputs)
            heads.append(Sample(h.gen, tuple(names[t - 1] for t in h.sel.targets), tuple(names[n:m])))
            n = m
    term = Term(tuple(heads), Return(tuple(names[t - 1] for t in c.sel.targets)))
    if sig is None:
        samples = [h.gen for h in c.heads if type(h) is CGen]
        types = set().union(*(g.inputs + g.outputs for g in samples)) | set(c.ctx)
        sig = Signature(frozenset(types), {g.name: g for g in samples})
    return TypedTerm(sig, tuple(zip(names, c.in_types)), term, c.out_types)
