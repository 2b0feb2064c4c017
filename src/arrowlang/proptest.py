"""Seeded random generators and an independent evaluation oracle.

Everything here is driven by a `GenBudget`; fixed default seeds keep
the randomized suites reproducible.  The oracle enumerates whole worlds
(one joint assignment of every sampled output), multiplies kernel
weights, filters by the observe statements, and projects the return --
a deliberately different path from the Kleisli evaluator it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product

from .combinator import FiniteFunction, ff
from .errors import InvalidSubdistribution
from .semantics import Interpretation
from .subdist import Subdist, collapse_values
from .syntax import (
    Context,
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Statement,
    Term,
    TypedTerm,
    typecheck,
)


@dataclass(frozen=True)
class GenBudget:
    max_types: int = 3
    max_generators: int = 4
    max_arity: int = 2
    max_statements: int = 6
    max_carrier: int = 3
    max_denominator: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("max_types", "max_generators", "max_arity",
                     "max_statements", "max_carrier", "max_denominator"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def rng(self) -> random.Random:
        return random.Random(self.seed)


TYPE_POOL = ("A", "B", "C", "D", "E")


def gen_signature(budget: GenBudget, rng: random.Random) -> Signature:
    """Random signature with at least one nullary, one-output generator."""
    types = TYPE_POOL[: rng.randint(1, budget.max_types)]
    gens: dict[str, Generator] = {}
    first_out = rng.choice(types)
    gens["g1"] = Generator("g1", (), (first_out,))
    for i in range(2, rng.randint(1, budget.max_generators) + 1):
        n_in = rng.randint(0, budget.max_arity)
        n_out = rng.randint(0, budget.max_arity)
        gens[f"g{i}"] = Generator(
            f"g{i}",
            tuple(rng.choice(types) for _ in range(n_in)),
            tuple(rng.choice(types) for _ in range(n_out)),
        )
    return Signature(frozenset(types), gens)


def gen_term_for_ctx(budget: GenBudget, rng: random.Random, sig: Signature,
                     ctx_types: tuple[str, ...]) -> TypedTerm:
    """Random well-typed term over a prescribed context type list."""
    ctx = tuple((f"x{i}", t) for i, t in enumerate(ctx_types, 1))
    scope = dict(ctx)
    heads: list[Statement] = []
    fresh = count(1)  # numbers the outputs: w1, w2, ...
    n = rng.randint(1, budget.max_statements)
    for _ in range(n):
        kind = rng.choice(("sample", "sample", "observe"))
        if kind == "observe" and scope:
            by_type: dict[str, list[str]] = {}
            for v, t in scope.items():
                by_type.setdefault(t, []).append(v)
            candidates = [vs for vs in by_type.values() if vs]
            vs = rng.choice(candidates)
            left, right = rng.choice(vs), rng.choice(vs)
            heads.append(Observe(left, right))
            continue
        usable = [  # never empty: `gen_signature` declares the nullary g1
            g for g in sig.generators.values()
            if all(any(t == tv for tv in scope.values()) for t in g.inputs)
        ]
        g = rng.choice(usable)
        args = []
        for t in g.inputs:
            args.append(rng.choice([v for v, tv in scope.items() if tv == t]))
        outs = tuple(f"w{next(fresh)}" for _ in g.outputs)
        heads.append(Sample(g, tuple(args), outs))
        for v, t in zip(outs, g.outputs):
            scope[v] = t

    ret_len = rng.randint(0, 3)
    names = list(scope)
    ret = Return(tuple(rng.choice(names) for _ in range(ret_len)) if names else ())
    return typecheck(sig, ctx, Term(tuple(heads), ret))


def gen_term(budget: GenBudget, rng: random.Random | None = None
             ) -> tuple[Signature, Context, Term]:
    """Random well-typed open term; the context may be empty."""
    rng = rng or budget.rng()
    sig = gen_signature(budget, rng)
    types = sorted(sig.types)
    ctx_types = tuple(rng.choice(types) for _ in range(rng.randint(0, 3)))
    tt = gen_term_for_ctx(budget, rng, sig, ctx_types)
    return sig, tt.ctx, tt.term


def gen_closed_program(budget: GenBudget, rng: random.Random | None = None) -> TypedTerm:
    """Random well-typed program with an empty context."""
    rng = rng or budget.rng()
    return gen_term_for_ctx(budget, rng, gen_signature(budget, rng), ())


def gen_kernels(gens, carriers, rng: random.Random,
                max_denominator: int = 8) -> dict[str, dict[tuple, Subdist]]:
    """Random substochastic kernel tables over given carriers.

    About half the rows are exactly stochastic; the rest may lose mass,
    exercising the sub-1 branches everywhere.
    """
    kernels: dict[str, dict[tuple, Subdist]] = {}
    for gen in gens:
        table: dict[tuple, Subdist] = {}
        out_space = list(product(*(carriers[t] for t in gen.outputs)))
        for args in product(*(carriers[t] for t in gen.inputs)):
            q = rng.randint(1, max_denominator)
            weights = []
            remaining = q
            for _ in out_space:
                w = rng.randint(0, remaining)
                weights.append(w)
                remaining -= w
            if remaining and rng.random() < 0.5 and out_space:
                weights[rng.randrange(len(out_space))] += remaining
            table[args] = Subdist._of_numerators(
                [(collapse_values(o), w) for o, w in zip(out_space, weights) if w], q)
        kernels[gen.name] = table
    return kernels


def gen_interpretation(budget: GenBudget, sig: Signature,
                       rng: random.Random | None = None) -> Interpretation:
    """Random finite interpretation with substochastic kernel rows."""
    rng = rng or budget.rng()
    carriers = {
        t: tuple(f"{t.lower()}{i}" for i in range(1, rng.randint(1, budget.max_carrier) + 1))
        for t in sorted(sig.types)
    }
    kernels = gen_kernels(sig.generators.values(), carriers, rng, budget.max_denominator)
    interp = Interpretation(carriers, kernels)
    interp.validate(sig)
    return interp


def gen_ff(budget: GenBudget, rng: random.Random | None = None) -> FiniteFunction:
    rng = rng or budget.rng()
    cod = rng.randint(0, 4)
    dom = rng.randint(0, 4) if cod else 0
    return ff([rng.randint(1, cod) for _ in range(dom)], cod)


def gen_reindexing(rng: random.Random, src_types: tuple[str, ...]):
    """Random context reindexing plus a compatible target context.

    Positions sharing a target slot must carry the same type, so slots
    are claimed per type as they are assigned; uncovered slots receive
    arbitrary types from the source pool.
    """
    p = len(src_types)
    q = p + rng.randint(0, 2)
    if q == 0:
        return ff([], 0), ()
    claimed: dict[int, str] = {}
    targets = []
    for tname in src_types:
        options = [j for j in range(1, q + 1) if claimed.get(j, tname) == tname]
        j = rng.choice(options)
        claimed[j] = tname
        targets.append(j)
    pool = sorted(set(src_types)) or ["A"]
    new_ctx = tuple(claimed.get(j, rng.choice(pool)) for j in range(1, q + 1))
    return ff(targets, q), new_ctx


# -- the world-enumeration oracle ----------------------------------------------------


def oracle_denote(program: TypedTerm, interp: Interpretation) -> Subdist:
    """Brute-force denotation of a closed program.

    Enumerates every joint assignment of all sampled outputs over the
    full output carriers, multiplies the kernel weights along the
    assignment, drops worlds violating an observe, and projects by the
    return statement.
    """
    if program.ctx:
        raise InvalidSubdistribution("oracle needs a closed program")
    heads, ret = program.term.heads, program.term.ret
    samples = [h for h in heads if isinstance(h, Sample)]
    spaces = [
        list(product(*(interp.carrier(t) for t in h.gen.outputs)))
        for h in samples
    ]
    total: dict = {}
    for combo in product(*spaces):
        env: dict = {}
        weight = Fraction(1)
        alive = True
        si = 0
        for h in heads:
            if isinstance(h, Sample):
                out_vals = combo[si]
                si += 1
                args = tuple(env[a] for a in h.args)
                row = interp.kernels[h.gen.name][args]
                w = row.weight(collapse_values(out_vals))
                if w == 0:
                    alive = False
                    break
                weight *= w
                env.update(zip(h.outs, out_vals))
            elif isinstance(h, Observe):
                if env[h.left] != env[h.right]:
                    alive = False
                    break
        if alive:
            key = collapse_values(tuple(env[v] for v in ret.vars))
            total[key] = total.get(key, Fraction(0)) + weight
    return Subdist(total)
