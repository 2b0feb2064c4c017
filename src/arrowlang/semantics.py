"""Evaluation of terms into subdistributions.

An interpretation assigns a finite carrier to each type and a
substochastic kernel row to every generator input.  One engine
evaluates every term, a statement at a time: each statement is one
Kleisli step on the joint state over the variables in play, and the
return projects onto the returned variables.  `trace` runs the
statements as written and records the full joint state after every
line, exactly as the worked puzzles compute it.  Every other caller
records nothing, so it plans the term once first, in three passes.
The first places the statements: each observe, and each sample with no
outputs (a predicate observe, say), moves to just after the sample that
binds its last variable.  The second finds each variable's last reader,
after which the variable is summed out (variable elimination); a sample
output that nothing reads is summed out of the kernel row and never
becomes a column.  These moves leave the result unchanged and keep the
state small.  The third compiles the steps and fixes every column's
position: each step holds the positions it reads and the positions that
survive its sum-out, so a run looks up no variable by name.  `trace`
compiles its statements the same way, with nothing moved and nothing
summed out, and runs them through the same loop.

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
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .combinator import CombTerm, decode
from .errors import CarrierMismatch, ZeroMassState
from .subdist import FAILURE, Outcome, Subdist, collapse_values, outcome_key, rescale
from .syntax import (
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Statement,
    Term,
    TypedTerm,
    TypeName,
    render_statement,
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

    @classmethod
    def _of_tables(cls, carriers: Mapping[TypeName, tuple[Outcome, ...]],
                   kernels: Mapping[str, KernelTable]) -> "Interpretation":
        """Build from carriers checked where they entered and kernel rows
        over them.  Nothing is checked."""
        self = cls.__new__(cls)
        object.__setattr__(self, "carriers", carriers)
        object.__setattr__(self, "kernels", kernels)
        return self

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
            out_space = set(map(collapse_values, product(*(self.carrier(t) for t in gen.outputs))))
            for args in product(*(self.carrier(t) for t in gen.inputs)):
                for x, _ in self.kernel_row(gen, args).numerators()[0]:
                    if x not in out_space:
                        raise CarrierMismatch(
                            f"kernel {gen.name} emits {x!r} outside its output carrier"
                        )


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
    return denom, [((x,), n) for x, n in row] if len(gen.outputs) == 1 else list(row)


def _sum_out(items, key_of: Callable[[tuple], tuple]) -> dict:
    """Add up the weights of (values, weight) ``items`` by ``key_of(values)``."""
    out: dict = {}
    for values, w in items:
        key = key_of(values)
        out[key] = out.get(key, 0) + w
    return out


def _reduce(state: dict, denom: int) -> tuple[dict, int]:
    """Divide the numerators and the denominator by their gcd."""
    g = math.gcd(denom, *state.values())
    if g == 1:
        return state, denom
    return {values: w // g for values, w in state.items()}, denom // g


def _picker(picks: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The function from a value tuple to the tuple of its entries at ``picks``."""
    if len(picks) > 1:
        return itemgetter(*picks)
    # one position or none: a slice, so the result is still a tuple
    p = picks[0] if picks else 0
    return itemgetter(slice(p, p + len(picks)))


# A compiled step.  Every position in it is fixed by the plan, so a run
# looks up no variable by name:
#   node     the statement, or the return;
#   sides    the positions of an observe's two sides (None otherwise);
#   kept     the positions of a sample's outputs that become columns (None:
#            all of them); the others are summed out of its kernel row;
#   layout   the names of the columns after the step;
#   args_of  a sample's arguments as a function of a value tuple: the key
#            of its kernel row;
#   key_of   the columns that survive the step's sum-out, as a function of
#            the values before it followed by a sample's kept outputs
#            (None: all of them, nothing is summed out).
Step = tuple[Statement | Return, tuple[int, int] | None, tuple[int, ...] | None,
             list[str], Callable | None, Callable | None]


def _compile(node: Statement, layout: list[str], last: dict[str, float] | None,
             place: int) -> Step:
    """Compile ``node`` against the columns ``layout`` before it.  Given
    ``last``, the index in the plan of the last statement that reads each
    variable, a sample's outputs that nothing reads never become columns,
    and the variables whose last reader is this statement, at ``place``,
    are summed out after it; given None, every output becomes a column and
    nothing is summed out."""
    if isinstance(node, Sample):
        read = node.args
        sides, args_of = None, _picker(tuple(map(layout.index, read)))
        outs, kept = node.outs, None
        if last is not None:
            for x in outs:
                if x not in last:
                    kept = tuple([i for i, y in enumerate(outs) if y in last])
                    outs = [outs[i] for i in kept]
                    break
    else:
        read = node.left, node.right
        sides, args_of = (layout.index(node.left), layout.index(node.right)), None
        outs, kept = (), None
    after = [*layout, *outs]
    survive = None
    for x in () if last is None else read:
        if last[x] == place and x in after:  # a repeated argument is summed out once
            if survive is None:
                survive = [*range(len(after))]
            i = after.index(x)
            del after[i], survive[i]
    return node, sides, kept, after, args_of, None if survive is None else _picker(tuple(survive))


def _returning(ret: Return, layout: list[str], width: int) -> Step:
    """The return's step: the columns ``layout`` summed onto their first
    ``width``, which are never summed out, and then the returned variables."""
    at = (*range(width), *map(layout.index, ret.vars))
    if at == tuple(range(len(layout))):
        return ret, None, None, layout, None, None
    return ret, None, None, [layout[i] for i in at], None, _picker(at)


def _plan(term: Term, inputs: list[str]) -> tuple[list[Step], list[str]]:
    """Compile a term for evaluation that records no intermediate state,
    and list the inputs that some statement or the return reads.

    Each observe, and each sample with no outputs, moves to just after
    the sample that binds the last variable it reads; the other samples
    keep their order.  After each statement the variables that it reads
    and that no later statement and no return reads are summed out, and a
    sample's outputs that none of them reads are summed out of its kernel
    row.  Inputs are never summed out: they index the channel the run
    tabulates.  No move changes the result: a statement commutes with a
    sample whose outputs it does not read (the interchange law of
    `syntax`), and summing out a column or a row's outputs keeps mass.

    Three passes: the first places the statements, the second finds, for
    each variable, the index of the last placed statement that reads it,
    and the third compiles them in order, fixing every column's position.
    """
    # groups[k], k >= 1: the k-th sample with outputs, then the statements
    # placed after it; groups[0] holds those that read only inputs
    groups: list[list[Statement]] = [[]]
    bound = dict.fromkeys(inputs, 0)
    for node in term.heads:
        if isinstance(node, Sample):
            read = node.args
            if node.outs:
                for x in node.outs:
                    bound[x] = len(groups)
                groups.append([node])
                continue
        else:
            read = node.left, node.right
        # a variable not bound yet is out of scope: the statement stays
        # where it is and its compilation raises
        k = 0
        for x in read:
            k = max(k, bound.get(x, len(groups) - 1))
        groups[k].append(node)
    placed = [node for group in groups for node in group]
    # last[x]: the index of the last placed statement that reads x (inf for
    # the returned variables and the inputs read, which are never summed out)
    last: dict[str, float] = {}
    for i, node in enumerate(placed):
        for x in node.args if isinstance(node, Sample) else (node.left, node.right):
            last[x] = i
    read_inputs = [x for x in inputs if x in last or x in term.ret.vars] if inputs else []
    for x in (*term.ret.vars, *read_inputs):
        last[x] = math.inf
    steps: list[Step] = []
    layout = read_inputs
    for i, node in enumerate(placed):
        steps.append(_compile(node, layout, last, i))
        layout = steps[-1][3]
    steps.append(_returning(term.ret, layout, len(read_inputs)))
    return steps, read_inputs


# A record callback sees a step and the state it produced; it only observes.
Record = Callable[[Step, dict, int], None]


def _evaluate(steps: Iterable[Step], state: dict, interp: Interpretation,
              record: Record | None = None) -> tuple[dict, int]:
    """Run compiled steps from ``state``, numerators over 1; the result
    is the state the return step leaves and its denominator.

    Sampling tensors the kernel row onto every monomial and puts the
    state over its denominator times the lcm of the rows it used; when a
    column is summed out after it, each monomial's surviving key is made
    in the same pass.  ``record``, when given, sees each step, the return
    included, and the state it left; the run takes nothing back from it.
    """
    denom, bound = 1, _REDUCE_ABOVE
    rows: RowCache = {}
    margins: dict = {}
    for step in steps:
        node, sides, kept, _, args_of, key_of = step
        if isinstance(node, Sample):
            gen = node.gen
            converted = rows.setdefault(gen.name, {})
            summed = converted if kept is None else margins.setdefault((gen.name, kept), {})
            used, scale = [], 1
            for item in state.items():
                args = args_of(item[0])
                entry = summed.get(args)
                if entry is None:
                    entry = converted.get(args)
                    if entry is None:
                        entry = converted[args] = _kernel_row(interp, gen, args)
                    if kept is not None:
                        entry = summed[args] = (entry[0], list(_sum_out(entry[1], _picker(kept)).items()))
                if entry[0] != scale:
                    scale = math.lcm(scale, entry[0])
                used.append((item, entry))
            out: dict = {}
            for (values, w), (row_denom, row) in used:
                if row_denom != scale:
                    w *= scale // row_denom
                if key_of is None:
                    # keys are distinct: the monomials are, and so are a row's outputs
                    for outs, n in row:
                        out[values + outs] = w * n
                else:
                    for outs, n in row:
                        key = key_of(values + outs)
                        out[key] = out.get(key, 0) + w * n
            state = out
            denom *= scale
            if denom > bound:
                state, denom = _reduce(state, denom)
                bound = denom * _REDUCE_ABOVE
        elif isinstance(node, Observe):
            i, j = sides
            if key_of is None:
                state = {values: w for values, w in state.items() if values[i] == values[j]}
            else:
                state = _sum_out([item for item in state.items() if item[0][i] == item[0][j]],
                                 key_of)
        elif key_of is not None:
            state = _sum_out(state.items(), key_of)
        if record:
            record(step, state, denom)
    return state, denom


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
    steps, read = _plan(tt.term, inputs)
    picks = [inputs.index(x) for x in read]

    def tabulate(interp: Interpretation, envs: list[tuple]) -> dict[tuple, Subdist]:
        # each environment is its own projection when every input is read
        keys = envs if len(read) == len(inputs) else [tuple([env[i] for i in picks]) for env in envs]
        state, denom = _evaluate(steps, dict.fromkeys(keys, 1), interp)
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
    return projects.  With ``normalize`` each line records its state over
    its own mass, as if rescaled to mass 1 after every line (every step is
    linear), and ZeroMassState is raised at the first line of mass zero.
    """
    if program.ctx:
        raise CarrierMismatch("trace needs a closed program (empty context)")
    lines: list[TraceLine] = []

    def record(step: Step, state: dict, denom: int) -> None:
        lineno = len(lines) + 1
        if normalize:
            if not state:
                raise ZeroMassState(lineno)
            denom = sum(state.values())
        text = texts[lineno - 1] if texts else render_statement(step[0])
        lines.append(TraceLine(lineno, text, _subdists(state, denom, [()], 0)[()]))

    _evaluate(_traced(program.term), {(): 1}, interp, record)
    return lines, EvalResult.of(lines[-1].state)


def _traced(term: Term) -> Iterator[Step]:
    """The statements as written, compiled one at a time as the run
    reaches them, with every column kept: a trace's columns grow with its
    length, so no step holds its columns after the run has passed it."""
    layout: list[str] = []
    for node in term.heads:
        step = _compile(node, layout, None, 0)
        layout = step[3]
        yield step
    yield _returning(term.ret, layout, 0)


# -- channels -------------------------------------------------------------------


def denote_channel(tt: TypedTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """`interpret` at every point of the input carrier product, in one run
    that keeps the inputs read as columns of the joint state to the end."""
    return denoter(tt)(interp, list(product(*(interp.carrier(t) for _, t in tt.ctx))))


def semantics_of_comb(c: CombTerm, interp: Interpretation) -> dict[tuple, Subdist]:
    """The channel denoted by a combinator term: the channel of its decoding."""
    return denote_channel(decode(c), interp)
