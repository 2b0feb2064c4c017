"""Evaluation of terms into subdistributions.

An interpretation assigns a finite carrier to each type and a
substochastic kernel row to every generator input.  One engine
evaluates every term, a statement at a time: each statement is one
Kleisli step on the joint state over the variables in play, and the
return projects onto the returned variables.  `trace` runs the
statements as written and records the full joint state after every
line, exactly as the worked puzzles compute it.  `interpret` records
nothing, so it plans the term once first: each observe moves to just
after the sample that binds its last variable, and after each step
every variable that no later statement and no return reads is summed
out (variable elimination).  Both moves leave the result unchanged and
keep the state small.  `interpret` starts from the point mass at an
input vector; `denote_channel` and `semantics_of_comb` tabulate it over
the input carriers.  The world-enumeration oracle in `proptest` shares
no code with this engine, so it can cross-check it.
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
    pred_vars,
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


def _project(state: dict, picks: list[int]) -> dict:
    """Marginalise a state onto the columns at ``picks``, in that order."""
    out: dict = {}
    for values, w in state.items():
        key = tuple([values[i] for i in picks])
        out[key] = out.get(key, ZERO) + w
    return out


def _reads(node: Term) -> set[str]:
    if isinstance(node, Sample):
        return set(node.args)
    if isinstance(node, Observe):
        return {node.left, node.right}
    return pred_vars(node.pred)


# A schedule pairs each statement with the variables summed out after it.
Schedule = list[tuple[Term, set[str]]]


def _plan(term: Term, inputs: list[str]) -> tuple[Schedule, Return]:
    """Schedule a term for evaluation that records no intermediate state.

    Each observe moves to just after the sample that binds the last
    variable it reads; samples keep their order.  Each statement is paired
    with the variables that it reads or binds and that no later statement
    and no return reads; the engine sums them out after the step.  Inputs
    that nothing reads go after the first step.  Neither move changes the
    result: an observe commutes with a sample whose outputs it does not
    read, and summing out a column preserves mass.
    """
    heads, ret = statements(term)
    # slots[k], k >= 1: the k-th sample, then the observes placed after it
    slots: list[list[tuple[Term, set[str]]]] = [[]]
    bound = dict.fromkeys(inputs, 0)
    for node in heads:
        reads = _reads(node)
        if isinstance(node, Sample):
            bound.update(dict.fromkeys(node.outs, len(slots)))
            slots.append([(node, reads)])
        else:
            # a variable not bound yet is out of scope: the observe stays
            # where it is and raises there
            slots[max((bound.get(x, len(slots) - 1) for x in reads), default=0)].append(
                (node, reads))
    live = set(ret.vars)
    steps: Schedule = []
    for node, reads in reversed([entry for slot in slots for entry in slot]):
        outs = node.outs if isinstance(node, Sample) else ()
        steps.append((node, reads.union(outs) - live))
        live.difference_update(outs)
        live |= reads
    steps.reverse()
    if steps:
        steps[0][1].update(set(inputs) - live)
    return steps, ret


def _evaluate(schedule: tuple[Schedule, Return], layout: list[str], state: dict,
              interp: Interpretation,
              record: Callable[[Term, dict], dict] | None = None) -> dict:
    """Run every scheduled statement, summing out the variables paired with
    it, then project onto the returned variables.

    ``record``, when given, sees each statement, the return included,
    with the state it produced and returns the state to continue from.
    """
    steps, ret = schedule
    for node, dead in steps:
        state = _step(state, layout, node, interp)
        if dead:
            keep = [i for i, name in enumerate(layout) if name not in dead]
            state = _project(state, keep)
            layout[:] = [layout[i] for i in keep]
        if record:
            state = record(node, state)
    index = {name: i for i, name in enumerate(layout)}
    projected = _project(state, [index[x] for x in ret.vars])
    return record(ret, projected) if record else projected


def _subdist(state: dict) -> Subdist:
    return Subdist((collapse_values(values), w) for values, w in state.items())


def denoter(tt: TypedTerm) -> Callable[[Interpretation, tuple], Subdist]:
    """Plan a typed term once; the result evaluates it under an
    interpretation at an input vector, unchecked."""
    inputs = [name for name, _ in tt.ctx]
    schedule = _plan(tt.term, inputs)
    return lambda interp, v: _subdist(_evaluate(schedule, list(inputs), {tuple(v): ONE}, interp))


def interpret(tt: TypedTerm, interp: Interpretation, v: tuple = ()) -> Subdist:
    """Denotation of a typed term at one input vector: the engine run
    from the point mass at ``v``, observing early and summing out dead
    variables."""
    if len(v) != len(tt.ctx):
        raise CarrierMismatch(f"input arity {len(v)} != context length {len(tt.ctx)}")
    for (name, tname), val in zip(tt.ctx, v):
        if val not in interp.carrier(tname):
            raise CarrierMismatch(f"{val!r} outside carrier of {tname} (variable {name})")
    return denoter(tt)(interp, v)


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

    @classmethod
    def of(cls, final: Subdist) -> EvalResult:
        """Split a final subdistribution into its validity and posterior."""
        res = rescale(final)
        if res is FAILURE:
            return cls(final, Fraction(0), FAILURE)
        validity, posterior = res
        return cls(final, validity, posterior)


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

    heads, ret = statements(program.term)
    _evaluate(([(node, set()) for node in heads], ret), [], {(): ONE}, interp, record)
    return lines, EvalResult.of(lines[-1].state)


def observe_predicate(state: Subdist, p: Pred, layout: list[str]) -> Subdist:
    """Restrict a joint state to the monomials satisfying a predicate."""
    n = len(layout)
    return restrict(state, lambda j: pred_holds(p, dict(zip(layout, joint_values(j, n)))))


# -- channels -------------------------------------------------------------------


def denote_channel(tt: TypedTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """`interpret` tabulated over the whole input carrier product, the
    term planned once."""
    denote = denoter(tt)
    return {env: denote(interp, env) for env in product(*(interp.carrier(t) for _, t in tt.ctx))}


def semantics_of_comb(c: CombTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """The channel denoted by a combinator term: the channel of its decoding."""
    return denote_channel(decode(c), interp)
