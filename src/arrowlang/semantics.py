"""Evaluation of terms into subdistributions.

An interpretation assigns a finite carrier to each type and a
substochastic kernel row to every generator input.  One engine
evaluates every term, a statement at a time: each statement is one
Kleisli step on the joint state over the variables in play, and the
return projects onto the returned variables.  `trace` runs the
statements as written and records the full joint state after every
line, exactly as the worked puzzles compute it.  Every other caller
records nothing, so it plans the term once first: each observe, and
each sample with no outputs (a predicate observe, say), moves to just
after the sample that binds its last variable, and after each step
every variable that no later statement and no return reads is summed
out (variable elimination); a sample output that nothing reads is summed
out of the kernel row and never becomes a column.  These moves leave the
result unchanged and keep the state small.

An open term denotes a channel, one subdistribution per input
environment, and one run tabulates it.  A channel is constant along an
input that nothing reads, so such inputs are not enumerated: the state
starts with each distinct value of the inputs read, weight 1 each, in
their columns, which are never summed out, and splits by them at the
end.  `interpret` runs it on one environment; a closed program has no
input columns.  The world-enumeration oracle in `proptest` shares no
code with this engine, so it can cross-check it.

Inside the engine every weight is an integer numerator over one
denominator shared by the whole state, so a step multiplies, filters or
adds integers and reduces by a gcd only once the denominator grows
large.  A `Subdist` holds its weights in the same form, so kernel rows
enter the engine, and states leave it as trace lines and results, as
integers; a `Fraction` is made only where a weight is read as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Mapping

from .combinator import CombTerm, decode
from .errors import CarrierMismatch, ZeroMassState
from .subdist import FAILURE, Outcome, Subdist, collapse_values, outcome_key, rescale
from .syntax import (
    Generator,
    Return,
    Sample,
    Signature,
    Term,
    TypedTerm,
    TypeName,
    reads,
    render_statement,
    statements,
)

KernelTable = Mapping[tuple, Subdist]


@dataclass(frozen=True)
class Interpretation:
    """Carriers per type plus one substochastic kernel row per generator input."""

    carriers: Mapping[TypeName, tuple[Outcome, ...]]
    kernels: Mapping[str, KernelTable]

    def __post_init__(self) -> None:
        for v in chain.from_iterable(self.carriers.values()):
            outcome_key(v)  # carrier values enter runs here; the engine checks none

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
            out_space = set(product(*(self.carrier(t) for t in gen.outputs)))
            for args in product(*(self.carrier(t) for t in gen.inputs)):
                for x, _ in self.kernel_row(gen, args).numerators()[0]:
                    if outs_tuple(x, len(gen.outputs)) not in out_space:
                        raise CarrierMismatch(
                            f"kernel {gen.name} emits {x!r} outside its output carrier"
                        )


def outs_tuple(out_val: Outcome, arity: int) -> tuple:
    if arity == 1:
        return (out_val,)
    if arity == 0:
        return ()
    return out_val  # type: ignore[return-value]


# -- the evaluation engine ----------------------------------------------------
#
# A state maps flat value tuples, one entry per variable of its layout,
# to positive integer numerators over one denominator shared by the whole
# state.  It leaves the engine only in `_subdists`, as an unchecked
# Subdist: its values were checked where they entered the interpretation.

# The gcd of a state's numerators and denominator is divided out only
# once the denominator passes this bound, and after that only once it has
# grown by this factor again (delayed normalisation, as in Knuth, TAOCP
# vol. 2, 4.5.1): most states never need it, and a reduction costs one
# gcd per monomial.
_REDUCE_ABOVE = 1 << 62

# Kernel rows in integer form, per generator name and input tuple:
# (denominator, [(output tuple, numerator), ...]).  Each run converts
# the rows it uses on first use, once for all its input environments.
RowCache = dict[str, dict[tuple, tuple[int, list[tuple[tuple, int]]]]]


def _kernel_row(interp: Interpretation, gen: Generator,
                args: tuple) -> tuple[int, list[tuple[tuple, int]]]:
    """One kernel row as integer numerators over its denominator."""
    row, denom = interp.kernel_row(gen, args).numerators()
    arity = len(gen.outputs)
    return denom, [(outs_tuple(x, arity), n) for x, n in row]


def _step(state: dict, denom: int, layout: list[str], node: Term, kept: tuple | None,
          interp: Interpretation, rows: RowCache, margins: dict) -> tuple[dict, int]:
    """Apply one statement to a joint state over ``denom``.

    Sampling tensors the kernel row onto every monomial, puts the state
    over ``denom`` times the lcm of the rows it used, and appends the
    outputs to ``layout``; an observe keeps the monomials satisfying it.
    ``kept``, when not None, lists the sample's output positions to keep:
    the row is first summed onto them, once per run in ``margins``.
    """
    if isinstance(node, Sample):
        picks = [layout.index(a) for a in node.args]
        groups: dict = {}
        for item in state.items():
            values = item[0]
            args = tuple([values[i] for i in picks])
            group = groups.get(args)
            if group is None:
                groups[args] = [item]
            else:
                group.append(item)
        converted = rows.setdefault(node.gen.name, {})
        summed = converted if kept is None else margins.setdefault((node.gen.name, kept), {})
        used = []
        for args, members in groups.items():
            entry = summed.get(args)
            if entry is None:
                entry = converted.get(args)
                if entry is None:
                    entry = converted[args] = _kernel_row(interp, node.gen, args)
                if kept is not None:
                    entry = summed[args] = (entry[0], list(_project(dict(entry[1]), kept).items()))
            used.append((entry, members))
        scale = math.lcm(*[row_denom for (row_denom, _), _ in used])
        out: dict = {}
        for (row_denom, row), members in used:
            if row_denom != scale:
                factor = scale // row_denom
                row = [(outs, n * factor) for outs, n in row]
            # keys are distinct: the monomials are, and so are a row's outputs
            for values, w in members:
                for outs, n in row:
                    out[values + outs] = w * n
        layout.extend(node.outs if kept is None else [node.outs[i] for i in kept])
        return out, denom * scale
    i, j = layout.index(node.left), layout.index(node.right)
    return {values: w for values, w in state.items() if values[i] == values[j]}, denom


def _project(state: dict, picks: list[int]) -> dict:
    """Marginalise a state onto the columns at ``picks``, in that order."""
    out: dict = {}
    for values, w in state.items():
        key = tuple([values[i] for i in picks])
        out[key] = out.get(key, 0) + w
    return out


def _reduce(state: dict, denom: int) -> tuple[dict, int]:
    """Divide the numerators and the denominator by their gcd."""
    g = math.gcd(denom, *state.values())
    if g == 1:
        return state, denom
    return {values: w // g for values, w in state.items()}, denom // g


# A schedule pairs each statement with the variables summed out after it,
# and a sample with the positions of its outputs that some later statement
# or the return reads (None: all of them); the others never become columns.
Schedule = list[tuple[Term, set[str], tuple | None]]


def _plan(term: Term, inputs: list[str]) -> tuple[tuple[Schedule, Return], list[str]]:
    """Schedule a term for evaluation that records no intermediate state,
    and list the inputs that some statement or the return reads.

    Each observe, and each sample with no outputs, moves to just after
    the sample that binds the last variable it reads; the other samples
    keep their order.  Each statement is paired with the variables that
    it reads and that no later statement and no return reads, and each
    sample with its outputs that some do; the engine sums the first out
    after the step and the rest out of the kernel row.  Inputs are never
    summed out: they index the channel the run tabulates.  No move
    changes the result: a statement commutes with a sample whose outputs
    it does not read (the interchange law of `syntax`), and summing out a
    column or a row's outputs keeps mass.
    """
    heads, ret = statements(term)
    # slots[k], k >= 1: the k-th sample with outputs, then the statements placed after it
    slots: list[list[tuple[Term, set[str], tuple]]] = [[]]
    bound = dict.fromkeys(inputs, 0)
    for node in heads:
        read = reads(node)
        if isinstance(node, Sample) and node.outs:
            bound.update(dict.fromkeys(node.outs, len(slots)))
            slots.append([(node, read, node.outs)])
        else:
            # a variable not bound yet is out of scope: the statement stays
            # where it is and raises there
            slots[max((bound.get(x, len(slots) - 1) for x in read), default=0)].append(
                (node, read, ()))
    # inputs stay out of `live`, so that it ends as the inputs read
    live, ins = set(ret.vars), frozenset(inputs)
    steps: Schedule = []
    for node, read, outs in reversed([entry for slot in slots for entry in slot]):
        kept = None if live.issuperset(outs) else tuple(i for i, x in enumerate(outs) if x in live)
        steps.append((node, read.difference(live, ins), kept))
        live.difference_update(outs)
        live |= read
    steps.reverse()
    return (steps, ret), [x for x in inputs if x in live]


# A record callback sees a statement and the state it produced, and
# returns the state to continue from.
Record = Callable[[Term, dict, int], tuple[dict, int]]


def _evaluate(schedule: tuple[Schedule, Return], layout: list[str], state: dict,
              interp: Interpretation, record: Record | None = None) -> tuple[dict, int]:
    """Run every scheduled statement from ``state``, numerators over 1 on
    the columns ``layout``, summing out the variables paired with each;
    then project onto those starting columns followed by the returned
    variables.  The result is a state and its denominator.

    ``record``, when given, sees each statement, the return included.
    """
    steps, ret = schedule
    # the starting columns are never summed out, so they stay in front
    picks = list(range(len(layout)))
    denom, bound = 1, _REDUCE_ABOVE
    rows: RowCache = {}
    margins: dict = {}
    for node, dead, kept in steps:
        state, denom = _step(state, denom, layout, node, kept, interp, rows, margins)
        if dead:
            keep = [i for i, name in enumerate(layout) if name not in dead]
            state = _project(state, keep)
            layout[:] = [layout[i] for i in keep]
        if denom > bound:
            state, denom = _reduce(state, denom)
            bound = denom * _REDUCE_ABOVE
        if record:
            state, denom = record(node, state, denom)
    picks += [layout.index(x) for x in ret.vars]
    if picks != list(range(len(layout))):
        state = _project(state, picks)
    return record(ret, state, denom) if record else (state, denom)


def _subdists(state: dict, denom: int, keys: list[tuple], width: int) -> dict[tuple, Subdist]:
    """The one exit from the engine: a Subdist over ``denom`` for each
    key in ``keys``, as held in the state's first ``width`` columns.  A
    key that no monomial is left for gets zero."""
    split: dict[tuple, list] = {key: [] for key in keys}
    for values, w in state.items():
        split[values[:width]].append((collapse_values(values[width:]), w))
    return {key: Subdist._of_numerators(entries, denom) for key, entries in split.items()}


def denoter(tt: TypedTerm) -> Callable[[Interpretation, list[tuple]], dict[tuple, Subdist]]:
    """Plan a typed term once; the result tabulates it under an
    interpretation at the given input environments, unchecked, in one run
    that starts from the distinct projections of the environments onto
    the inputs read, each with weight 1 in those columns."""
    inputs = [name for name, _ in tt.ctx]
    schedule, read = _plan(tt.term, inputs)
    picks = [inputs.index(x) for x in read]

    def tabulate(interp: Interpretation, envs: list[tuple]) -> dict[tuple, Subdist]:
        keys = [tuple([env[i] for i in picks]) for env in envs]
        state, denom = _evaluate(schedule, list(read), dict.fromkeys(keys, 1), interp)
        results = _subdists(state, denom, keys, len(read))
        return {env: results[key] for env, key in zip(envs, keys)}
    return tabulate


def interpret(tt: TypedTerm, interp: Interpretation, v: tuple = ()) -> Subdist:
    """Denotation of a typed term at one input vector: the channel run on
    that one environment."""
    v = tuple(v)
    if len(v) != len(tt.ctx):
        raise CarrierMismatch(f"input arity {len(v)} != context length {len(tt.ctx)}")
    for (name, tname), val in zip(tt.ctx, v):
        if val not in interp.carrier(tname):
            raise CarrierMismatch(f"{val!r} outside carrier of {tname} (variable {name})")
    return denoter(tt)(interp, [v])[v]


# -- line-by-line traces -------------------------------------------------------


@dataclass(frozen=True)
class TraceLine:
    line: int
    text: str
    state: Subdist

    @property
    def mass(self) -> Fraction:
        """The mass of the line's state, made only when read."""
        return self.state.mass


@dataclass(frozen=True)
class EvalResult:
    final: Subdist
    validity: Fraction
    posterior: object  # Subdist or FAILURE

    @classmethod
    def of(cls, final: Subdist) -> EvalResult:
        """Split a final subdistribution into its validity and posterior."""
        res = rescale(final)
        return cls(final, Fraction(0), FAILURE) if res is FAILURE else cls(final, *res)


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

    def record(node: Term, state: dict, denom: int) -> tuple[dict, int]:
        lineno = len(lines) + 1
        if normalize:
            if not state:
                raise ZeroMassState(lineno)
            denom = sum(state.values())
        text = texts[lineno - 1] if texts else render_statement(node)
        lines.append(TraceLine(lineno, text, _subdists(state, denom, [()], 0)[()]))
        return state, denom

    heads, ret = statements(program.term)
    _evaluate(([(node, set(), None) for node in heads], ret), [], {(): 1}, interp, record)
    return lines, EvalResult.of(lines[-1].state)


# -- channels -------------------------------------------------------------------


def denote_channel(tt: TypedTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """`interpret` at every point of the input carrier product, in one run
    that keeps the inputs read as columns of the joint state to the end."""
    return denoter(tt)(interp, list(product(*(interp.carrier(t) for _, t in tt.ctx))))


def semantics_of_comb(c: CombTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """The channel denoted by a combinator term: the channel of its decoding."""
    return denote_channel(decode(c), interp)
