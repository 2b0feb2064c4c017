"""Variable-free term encoding driven by finite functions.

Finite functions are lists of 1-based integers with an explicit
codomain; they reindex contexts.  Terms in this form are return,
observe, or generator statements whose variable references are finite
functions into the ambient context, making composition, whiskering,
and tensoring purely mechanical.

Composition note: ``ff_compose(alpha, beta)`` selects through beta
first (``result[i] = alpha[beta[i]]``), matching the defining list
formula.  The method ``FiniteFunction.then`` is the same operation in
diagrammatic order, which is how the rewriting equations below read.

Along a chain, every statement's context is a prefix of the context of
the chain's final return.  Observe and generator nodes keep that return
(``ret``) and their own context length (``arity``), so building a node
indexes one shared context, and ``encode``/``decode`` are linear loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .errors import ArityMismatch, NonCoreTerm, TypeMismatch
from .syntax import (
    Generator,
    Observe,
    ObservePred,
    Return,
    Sample,
    Signature,
    Term,
    TypeName,
    TypedTerm,
)


@dataclass(frozen=True)
class FiniteFunction:
    """A function dom -> cod encoded as the list of its 1-based values."""

    targets: tuple[int, ...]
    cod: int

    def __post_init__(self):
        if self.cod < 0:
            raise ArityMismatch(f"negative codomain {self.cod}")
        for t in self.targets:
            if not 1 <= t <= self.cod:
                raise ArityMismatch(f"target {t} outside 1..{self.cod}")

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
        return FiniteFunction(tuple(other(t) for t in self.targets), other.cod)

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
class CRet:
    """Return statement: outputs reindex the context through ``sel``."""

    sel: FiniteFunction
    ctx: TypeList
    out_types: TypeList = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.sel.cod != len(self.ctx):
            raise ArityMismatch(f"selector codomain {self.sel.cod} != context length {len(self.ctx)}")
        object.__setattr__(self, "out_types", tuple(self.ctx[t - 1] for t in self.sel.targets))

    @property
    def ret(self) -> CRet:
        return self

    @property
    def arity(self) -> int:
        return len(self.ctx)

    @property
    def in_types(self) -> TypeList:
        return self.ctx


@dataclass(frozen=True)
class _Chained:
    """A statement before the chain's return: its context is the prefix of
    length ``arity`` of the return's context, kept in ``ret`` once."""

    ret: CRet = field(init=False, compare=False, repr=False)
    arity: int = field(init=False, compare=False, repr=False)

    @property
    def ctx(self) -> TypeList:
        return self.ret.ctx[: self.arity]

    in_types = ctx

    @property
    def out_types(self) -> TypeList:
        return self.ret.out_types


@dataclass(frozen=True)
class CObs(_Chained):
    """Observe statement comparing two context positions."""

    pair: FiniteFunction
    cont: "CombTerm"

    def __post_init__(self):
        if self.pair.dom != 2:
            raise ArityMismatch("observe needs a selector with domain 2")
        ret, n = self.cont.ret, self.cont.arity
        if self.pair.cod != n:
            raise ArityMismatch("observe selector does not match the context")
        if ret.ctx[self.pair(1) - 1] != ret.ctx[self.pair(2) - 1]:
            raise TypeMismatch("observe compares positions of different types")
        object.__setattr__(self, "ret", ret)
        object.__setattr__(self, "arity", n)


@dataclass(frozen=True)
class CGen(_Chained):
    """Generator statement; the continuation sees the outputs appended."""

    gen: Generator
    sel: FiniteFunction
    cont: "CombTerm"

    def __post_init__(self):
        ret, inner = self.cont.ret, self.cont.arity
        n = inner - len(self.gen.outputs)
        if n < 0 or ret.ctx[n:inner] != self.gen.outputs:
            raise TypeMismatch(f"continuation context does not end with {self.gen.name}'s outputs")
        if self.sel.cod != n:
            raise ArityMismatch("argument selector does not match the context")
        if self.sel.dom != len(self.gen.inputs):
            raise ArityMismatch(f"{self.gen.name} expects {len(self.gen.inputs)} arguments")
        picked = tuple(ret.ctx[t - 1] for t in self.sel.targets)
        if picked != self.gen.inputs:
            raise TypeMismatch(f"arguments {picked} do not match {self.gen.inputs}")
        object.__setattr__(self, "ret", ret)
        object.__setattr__(self, "arity", n)


CombTerm = Union[CRet, CObs, CGen]


def comb_identity(x: TypeList) -> CRet:
    return CRet(ff_identity(len(x)), x)


# -- the module action -----------------------------------------------------------


def act(phi: FiniteFunction, t: CombTerm, ctx: TypeList | None = None) -> CombTerm:
    """Reindex the context of ``t`` through ``phi``.

    Position i of the old context becomes position phi(i) of the new
    context ``ctx``.  When ``ctx`` is omitted it is synthesised, which
    requires phi to cover every new position.
    """
    old = t.in_types
    if phi.dom != len(old):
        raise ArityMismatch(f"action domain {phi.dom} != context length {len(old)}")
    if ctx is None:
        slots: list[TypeName | None] = [None] * phi.cod
        for i, tname in enumerate(old, start=1):
            j = phi(i) - 1
            if slots[j] is not None and slots[j] != tname:
                raise TypeMismatch(f"position {j + 1} would need both {slots[j]} and {tname}")
            slots[j] = tname
        if any(s is None for s in slots):
            raise TypeMismatch("target context not inferable; pass it explicitly")
        ctx = tuple(slots)  # type: ignore[arg-type]
    else:
        ctx = tuple(ctx)
        if len(ctx) != phi.cod:
            raise ArityMismatch(f"target context length {len(ctx)} != codomain {phi.cod}")
        for i, tname in enumerate(old, start=1):
            if ctx[phi(i) - 1] != tname:
                raise TypeMismatch(f"position {phi(i)} is {ctx[phi(i) - 1]}, expected {tname}")

    if isinstance(t, CRet):
        return CRet(t.sel.then(phi), ctx)
    if isinstance(t, CObs):
        return CObs(t.pair.then(phi), act(phi, t.cont, ctx))
    m = len(t.gen.outputs)
    extended = ff_whisker_right(phi, m)
    return CGen(t.gen, t.sel.then(phi), act(extended, t.cont, ctx + t.gen.outputs))


# -- composition, whiskering, tensoring ----------------------------------------------


def comb_compose(s: CombTerm, t: CombTerm) -> CombTerm:
    """Sequential composition; the output list of s must equal t's context."""
    if s.out_types != t.in_types:
        raise TypeMismatch(f"cannot compose {s.out_types} into {t.in_types}")
    if isinstance(s, CRet):
        return act(s.sel, t, s.ctx)
    if isinstance(s, CObs):
        return CObs(s.pair, comb_compose(s.cont, t))
    return CGen(s.gen, s.sel, comb_compose(s.cont, t))


def comb_whisker_left(z: TypeList, t: CombTerm) -> CombTerm:
    """Pad the context and outputs on the left by the type list z."""
    z = tuple(z)
    k = len(z)
    if k == 0:
        return t
    if isinstance(t, CRet):
        return CRet(ff_whisker_left(k, t.sel), z + t.ctx)
    shift = ff_incl_right(t.arity, k)
    if isinstance(t, CObs):
        return CObs(t.pair.then(shift), comb_whisker_left(z, t.cont))
    return CGen(t.gen, t.sel.then(shift), comb_whisker_left(z, t.cont))


def comb_whisker_right(t: CombTerm, z: TypeList) -> CombTerm:
    """Pad the context and outputs on the right by the type list z."""
    z = tuple(z)
    k = len(z)
    if k == 0:
        return t
    if isinstance(t, CRet):
        return CRet(ff_whisker_right(t.sel, k), t.ctx + z)
    n = t.arity
    widen = ff_incl_left(n, k)
    if isinstance(t, CObs):
        return CObs(t.pair.then(widen), comb_whisker_right(t.cont, z))
    # generator outputs land after the padding; reposition them in front
    # of it for the padded continuation
    m = len(t.gen.outputs)
    reorder = ff_whisker_left(n, ff_symmetry(k, m))
    inner = act(reorder, comb_whisker_right(t.cont, z), t.ctx + z + t.gen.outputs)
    return CGen(t.gen, t.sel.then(widen), inner)


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
    copy = CRet(ff(list(range(1, k + 1)) * 2, k), x)
    discard = CRet(ff([], k), x)
    compare: CombTerm = CRet(ff(range(1, k + 1), 2 * k), x + x)
    for i in range(k, 0, -1):
        compare = CObs(ff([i, k + i], 2 * k), compare)
    return copy, discard, compare


# -- translation to and from the variable form -----------------------------------------


def encode(tt: TypedTerm) -> CombTerm:
    """Mechanical translation of a typed term into combinator form.

    One forward pass finds each statement's selector (a variable's position
    is that of its latest binding), one backward pass builds the nodes.
    """
    types = [tname for _, tname in tt.ctx]
    pos = {name: i for i, (name, _) in enumerate(tt.ctx, start=1)}

    def at(v: str) -> int:
        try:
            return pos[v]
        except KeyError:
            raise TypeMismatch(f"variable {v} not in context") from None

    heads = []  # (generator or None for an observe, selector)
    node = tt.term
    while not isinstance(node, Return):
        if isinstance(node, Observe):
            heads.append((None, ff([at(node.left), at(node.right)], len(types))))
        elif isinstance(node, ObservePred):
            raise NonCoreTerm("predicate observes have no combinator form")
        elif isinstance(node, Sample):
            heads.append((node.gen, ff([at(v) for v in node.args], len(types))))
            for v, tname in zip(node.outs, node.gen.outputs):
                types.append(tname)
                pos[v] = len(types)
        else:
            raise TypeMismatch(f"not a term node: {node!r}")
        node = node.cont
    c: CombTerm = CRet(ff([at(v) for v in node.vars], len(types)), tuple(types))
    for gen, sel in reversed(heads):
        c = CObs(sel, c) if gen is None else CGen(gen, sel, c)
    return c


def decode(c: CombTerm, sig: Signature | None = None) -> TypedTerm:
    """Rebuild a variable-based term; positions become v1, v2, ...

    A signature is synthesised from the generators in the term when none
    is supplied.
    """
    names = [f"v{i}" for i in range(1, c.arity + 1)]
    heads = []  # (statement class, fields before the continuation)
    gens: dict[str, Generator] = {}
    types: set[TypeName] = set()
    node = c
    while not isinstance(node, CRet):
        if isinstance(node, CObs):
            heads.append((Observe, (names[node.pair(1) - 1], names[node.pair(2) - 1])))
        else:
            args = tuple(names[t - 1] for t in node.sel.targets)
            outs = tuple(f"v{len(names) + i}" for i in range(1, len(node.gen.outputs) + 1))
            names.extend(outs)
            heads.append((Sample, (node.gen, args, outs)))
            if sig is None:
                gens[node.gen.name] = node.gen
                types.update(node.gen.inputs, node.gen.outputs)
        node = node.cont
    term: Term = Return(tuple(names[t - 1] for t in node.sel.targets))
    for make, fields in reversed(heads):
        term = make(*fields, term)
    if sig is None:
        sig = Signature(frozenset(types | set(node.ctx)), gens)
    return TypedTerm(sig, tuple(zip(names, c.in_types)), term, node.out_types)
