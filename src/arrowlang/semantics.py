"""Evaluation of terms into subdistributions.

An interpretation assigns a finite carrier to each type and a
substochastic kernel row to every generator input.  One engine
evaluates every term, a statement at a time: each statement is one
Kleisli step on the joint state over all variables introduced so far,
and the return projects onto the returned variables.  `trace` records
the state after every line, exactly as the worked puzzles compute it;
`interpret` starts from the point mass at an input vector;
`denote_channel` and `semantics_of_comb` tabulate `interpret` over the
input carriers.  The world-enumeration oracle in `proptest` shares no
code with this engine, so it can cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from .combinator import CombTerm, decode
from .errors import CarrierMismatch, PredicateTypeError, ZeroMassState
from .subdist import FAILURE, ONE, ZERO, Outcome, Subdist, rescale, restrict
from .syntax import (
    Generator,
    Observe,
    ObservePred,
    PAnd,
    PEq,
    PIn,
    PNe,
    Pred,
    PTrue,
    PVar,
    Return,
    Sample,
    Signature,
    Term,
    TypedTerm,
    TypeName,
    render_statement,
    statements,
)

KernelTable = Mapping[tuple, Subdist]


@dataclass(frozen=True)
class Interpretation:
    """Carriers per type plus one substochastic kernel row per generator input."""

    carriers: Mapping[TypeName, tuple[Outcome, ...]]
    kernels: Mapping[str, KernelTable]

    def carrier(self, t: TypeName) -> tuple[Outcome, ...]:
        try:
            return self.carriers[t]
        except KeyError:
            raise CarrierMismatch(f"no carrier for type {t}") from None

    def kernel_row(self, gen: Generator, args: tuple) -> Subdist:
        table = self.kernels.get(gen.name)
        if table is None:
            raise CarrierMismatch(f"no kernel for generator {gen.name}")
        try:
            return table[args]
        except KeyError:
            raise CarrierMismatch(f"kernel {gen.name} undefined on {args!r}") from None

    def validate(self, sig: Signature) -> None:
        """Check carriers are nonempty and kernels are total and substochastic."""
        for t in sig.types:
            if not self.carrier(t):
                raise CarrierMismatch(f"empty carrier for type {t}")
        for gen in sig.generators.values():
            if gen.name not in self.kernels:
                raise CarrierMismatch(f"no kernel for generator {gen.name}")
            table = self.kernels[gen.name]
            out_space = set(product(*(self.carrier(t) for t in gen.outputs)))
            for args in product(*(self.carrier(t) for t in gen.inputs)):
                row = table.get(args)
                if row is None:
                    raise CarrierMismatch(f"kernel {gen.name} undefined on {args!r}")
                for x, _ in row.items():
                    if outs_tuple(x, len(gen.outputs)) not in out_space:
                        raise CarrierMismatch(
                            f"kernel {gen.name} emits {x!r} outside its output carrier"
                        )


def collapse_values(values: tuple) -> Outcome:
    return values[0] if len(values) == 1 else values


def joint_values(joint: Outcome, n: int) -> tuple:
    """Inverse of collapse_values for a joint outcome over n variables."""
    if n == 1:
        return (joint,)
    return joint if isinstance(joint, tuple) else (joint,)


def outs_tuple(out_val: Outcome, arity: int) -> tuple:
    if arity == 1:
        return (out_val,)
    if arity == 0:
        return ()
    return out_val  # type: ignore[return-value]


def pred_holds(p: Pred, env: Mapping[str, Outcome]) -> bool:
    """Evaluate a predicate in a variable environment."""

    def value(operand) -> Outcome:
        if isinstance(operand, PVar):
            try:
                return env[operand.name]
            except KeyError:
                raise PredicateTypeError(f"variable {operand.name} not in scope") from None
        return operand.value

    if isinstance(p, PEq):
        return value(p.left) == value(p.right)
    if isinstance(p, PNe):
        return value(p.left) != value(p.right)
    if isinstance(p, PIn):
        container = value(p.var)
        if not isinstance(container, frozenset):
            raise PredicateTypeError(f"{p.var.name} is not set-valued")
        return p.element.value in container
    if isinstance(p, PAnd):
        return pred_holds(p.left, env) and pred_holds(p.right, env)
    if isinstance(p, PTrue):
        return True
    raise PredicateTypeError(f"not a predicate: {p!r}")


# -- the evaluation engine ----------------------------------------------------
#
# A state maps flat value tuples, one entry per variable of its layout,
# to positive weights.  It becomes a validated Subdist only where it
# leaves the engine.


def _step(state: dict, layout: list[str], node: Term, interp: Interpretation) -> dict:
    """Apply one statement to a joint state.

    Sampling tensors the kernel row onto every monomial and appends the
    outputs to ``layout``; an observe keeps the monomials satisfying it.
    """
    index = {name: i for i, name in enumerate(layout)}
    if isinstance(node, Sample):
        picks = [index[a] for a in node.args]
        arity = len(node.outs)
        out: dict = {}
        for values, w in state.items():
            row = interp.kernel_row(node.gen, tuple(values[i] for i in picks))
            for out_val, wv in row.items():
                key = values + outs_tuple(out_val, arity)
                out[key] = out.get(key, ZERO) + w * wv
        layout.extend(node.outs)
        return out
    if isinstance(node, Observe):
        i, j = index[node.left], index[node.right]
        return {values: w for values, w in state.items() if values[i] == values[j]}
    return {values: w for values, w in state.items()
            if pred_holds(node.pred, dict(zip(layout, values)))}


def _evaluate(term: Term, layout: list[str], state: dict, interp: Interpretation,
              record: Callable[[Term, dict], dict] | None = None) -> dict:
    """Run every statement of a term, then project onto the returned variables.

    ``record``, when given, sees each statement, the return included,
    with the state it produced and returns the state to continue from.
    """
    heads, ret = statements(term)
    for node in heads:
        state = _step(state, layout, node, interp)
        if record:
            state = record(node, state)
    index = {name: i for i, name in enumerate(layout)}
    picks = [index[x] for x in ret.vars]
    projected: dict = {}
    for values, w in state.items():
        key = tuple(values[i] for i in picks)
        projected[key] = projected.get(key, ZERO) + w
    return record(ret, projected) if record else projected


def _subdist(state: dict) -> Subdist:
    return Subdist((collapse_values(values), w) for values, w in state.items())


def interpret(tt: TypedTerm, interp: Interpretation, v: tuple = ()) -> Subdist:
    """Denotation of a typed term at one input vector: the engine run
    from the point mass at ``v``."""
    if len(v) != len(tt.ctx):
        raise CarrierMismatch(f"input arity {len(v)} != context length {len(tt.ctx)}")
    for (name, tname), val in zip(tt.ctx, v):
        if val not in interp.carrier(tname):
            raise CarrierMismatch(f"{val!r} outside carrier of {tname} (variable {name})")
    layout = [name for name, _ in tt.ctx]
    return _subdist(_evaluate(tt.term, layout, {tuple(v): ONE}, interp))


# -- line-by-line traces -------------------------------------------------------


@dataclass(frozen=True)
class TraceLine:
    line: int
    text: str
    state: Subdist
    mass: Fraction


@dataclass(frozen=True)
class EvalResult:
    final: Subdist
    validity: Fraction
    posterior: object  # Subdist or FAILURE


def trace(program: TypedTerm, interp: Interpretation,
          texts: tuple[str, ...] | None = None,
          normalize: bool = False) -> tuple[list[TraceLine], EvalResult]:
    """Evaluate a closed program statement by statement.

    Each line records the joint state over all variables introduced so
    far; observe lines cross out violating monomials and the final
    return projects.  With ``normalize`` the state is rescaled to mass 1
    after every line, raising ZeroMassState if the mass hits zero.
    """
    if program.ctx:
        raise CarrierMismatch("trace needs a closed program (empty context)")
    lines: list[TraceLine] = []

    def record(node: Term, state: dict) -> dict:
        lineno = len(lines) + 1
        if normalize:
            if not state:
                raise ZeroMassState(lineno)
            mass = sum(state.values(), ZERO)
            state = {values: w / mass for values, w in state.items()}
        text = texts[lineno - 1] if texts else render_statement(node)
        line_state = _subdist(state)
        lines.append(TraceLine(lineno, text, line_state, line_state.mass))
        return state

    _evaluate(program.term, [], {(): ONE}, interp, record)
    final = lines[-1].state
    res = rescale(final)
    if res is FAILURE:
        result = EvalResult(final, Fraction(0), FAILURE)
    else:
        validity, posterior = res
        result = EvalResult(final, validity, posterior)
    return lines, result


def observe_predicate(state: Subdist, p: Pred, layout: list[str]) -> Subdist:
    """Restrict a joint state to the monomials satisfying a predicate."""
    n = len(layout)
    return restrict(state, lambda j: pred_holds(p, dict(zip(layout, joint_values(j, n)))))


# -- channels -------------------------------------------------------------------


def denote_channel(tt: TypedTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """Tabulate `interpret` over the whole input carrier product."""
    space = product(*(interp.carrier(t) for _, t in tt.ctx))
    return {env: interpret(tt, interp, env) for env in space}


def semantics_of_comb(c: CombTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """The channel denoted by a combinator term: `interpret` on its
    decoding, tabulated over its whole input carrier product."""
    tt = decode(c)
    space = product(*(interp.carrier(t) for _, t in tt.ctx))
    return {env: interpret(tt, interp, env) for env in space}
