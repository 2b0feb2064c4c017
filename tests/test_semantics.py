"""Evaluation: denotations, traces, normalisation, soundness of rewrites."""

import random
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest

from puzzle_programs import (
    imperfect_newcomb,
    monty_fall,
    monty_hall,
    monty_hall_full,
    newcomb,
    sailors_child,
    three_prisoners,
)

from arrowlang.combinator import decode, encode
from arrowlang.errors import CarrierMismatch, ZeroMassState
from arrowlang.proptest import (
    GenBudget,
    gen_closed_program,
    gen_interpretation,
    gen_term,
    oracle_denote,
)
from arrowlang.semantics import (
    Interpretation,
    denote_channel,
    interpret,
    semantics_of_comb,
    trace,
)
from arrowlang.subdist import (
    FAILURE,
    Dollar,
    Subdist,
    dirac,
    expected_value,
    ket,
    kleisli_extend,
    rescale,
    uniform,
    zero,
)
from arrowlang.syntax import (
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Term,
    TypedTerm,
    applicable_steps,
    axiom_step,
    typecheck,
)

BUDGET = GenBudget(max_statements=5)


# -- interpret on the puzzles -------------------------------------------------


def test_interpret_return_is_projection():
    sig = Signature(frozenset({"X"}))
    tt = typecheck(sig, (("x", "X"),), Term((), Return(("x",))))
    interp = Interpretation({"X": ("u", "v")}, {})
    assert interpret(tt, interp, ("u",)) == dirac("u")


def test_interpret_monty_hall():
    tt, interp = monty_hall()
    assert interpret(tt, interp) == Subdist({"M": Q(1, 6), "R": Q(1, 3)})


def test_interpret_monty_fall():
    tt, interp = monty_fall()
    assert interpret(tt, interp) == Subdist({"M": Q(1, 3), "R": Q(1, 3)})


def test_interpret_long_chain_is_iterative():
    # 2,000 statements: deeper than the default recursion limit
    start = Generator("start", (), ("Bit",))
    flip = Generator("flip", ("Bit",), ("Bit",))
    sig = Signature(frozenset({"Bit"}), {"start": start, "flip": flip})
    n = 2000
    heads = [Sample(start, (), ("x0",))]
    heads += [Sample(flip, (f"x{j - 1}",), (f"x{j}",)) for j in range(1, n)]
    tt = TypedTerm(sig, (), Term(tuple(heads), Return((f"x{n - 1}",))), ("Bit",))
    interp = Interpretation(
        {"Bit": (0, 1)},
        {"start": {(): Subdist({0: Q(1, 3), 1: Q(2, 3)})},
         "flip": {(0,): dirac(1), (1,): dirac(0)}},
    )
    # n - 1 = 1999 flips, an odd number, swap the two weights
    assert interpret(tt, interp) == Subdist({0: Q(2, 3), 1: Q(1, 3)})


def test_interpret_carrier_mismatch():
    sig = Signature(frozenset({"X"}))
    tt = typecheck(sig, (("x", "X"),), Term((), Return(("x",))))
    interp = Interpretation({"X": ("u",)}, {})
    with pytest.raises(CarrierMismatch) as exc:
        interpret(tt, interp, ("w",))
    assert str(exc.value) == "'w' outside carrier of X (variable x)"


@pytest.mark.parametrize("v, message", [
    ((), "input arity 0 != context length 1"),
    (("u", "u"), "input arity 2 != context length 1"),
])
def test_interpret_rejects_an_input_of_the_wrong_arity(v, message):
    tt = typecheck(Signature(frozenset({"X"})), (("x", "X"),), Term((), Return(("x",))))
    with pytest.raises(CarrierMismatch) as exc:
        interpret(tt, Interpretation({"X": ("u",)}, {}), v)
    assert str(exc.value) == message


def test_trace_rejects_an_open_term():
    tt = typecheck(Signature(frozenset({"X"})), (("x", "X"),), Term((), Return(("x",))))
    with pytest.raises(CarrierMismatch) as exc:
        trace(tt, Interpretation({"X": ("u",)}, {}))
    assert str(exc.value) == "trace needs a closed program (empty context)"


@pytest.mark.parametrize("carriers, kernels, message", [
    ({}, {}, "no carrier for type X"),
    ({"X": ()}, {}, "empty carrier for type X"),
    ({"X": ("u", "v")}, {}, "no kernel for generator g"),
    ({"X": ("u", "v")}, {"g": {("u",): dirac("u")}}, "kernel g undefined on ('v',)"),
    ({"X": ("u", "v")}, {"g": {("u",): dirac("w"), ("v",): dirac("u")}},
     "kernel g emits 'w' outside its output carrier"),
])
def test_validate_rejects_partial_interpretations(carriers, kernels, message):
    sig = Signature(frozenset({"X"}), {"g": Generator("g", ("X",), ("X",))})
    with pytest.raises(CarrierMismatch) as exc:
        Interpretation(carriers, kernels).validate(sig)
    assert str(exc.value) == message


def test_validate_checks_rows_of_no_outputs_and_of_pairs():
    # a generator with no outputs emits only (); one with two emits pairs
    sig = Signature(frozenset({"X"}), {"seen": Generator("seen", ("X",), ()),
                                       "pair": Generator("pair", (), ("X", "X"))})
    good = {"seen": {("u",): dirac(()), ("v",): zero()}, "pair": {(): dirac(("u", "v"))}}
    Interpretation({"X": ("u", "v")}, good).validate(sig)
    for gen, args, x in (("seen", ("v",), "u"), ("pair", (), ("u", "w"))):
        bad = Interpretation({"X": ("u", "v")}, {**good, gen: {**good[gen], args: dirac(x)}})
        with pytest.raises(CarrierMismatch) as exc:
            bad.validate(sig)
        assert str(exc.value) == f"kernel {gen} emits {x!r} outside its output carrier"


# -- traces against the figures ----------------------------------------------------


def test_trace_monty_hall_lines():
    tt, interp = monty_hall()
    lines, result = trace(tt, interp)
    states = [ket(l.state) for l in lines]
    assert states == [
        "1/3|L> + 1/3|M> + 1/3|R>",
        "1/3|L,R> + 1/6|M,L> + 1/6|M,R> + 1/3|R,L>",
        "1/6|M,L> + 1/3|R,L>",
        "1/6|M> + 1/3|R>",
    ]
    assert result.validity == Q(1, 2)
    assert result.posterior == Subdist({"M": Q(1, 3), "R": Q(2, 3)})


def test_trace_three_prisoners():
    tt, interp = three_prisoners()
    lines, result = trace(tt, interp)
    assert ket(lines[1].state) == "1/6|A,B> + 1/6|A,C> + 1/3|B,C> + 1/3|C,B>"
    assert result.validity == Q(1, 2)
    assert result.posterior == Subdist({"A": Q(1, 3), "C": Q(2, 3)})


def test_trace_sailors_child():
    tt, interp = sailors_child()
    lines, result = trace(tt, interp)
    assert ket(lines[1].state) == "1/4|H,A> + 1/4|H,B> + 1/4|T,A> + 1/4|T,B>"
    assert ket(lines[2].state) == (
        "1/4|H,A,{A}> + 1/4|H,B,{B}> + 1/4|T,A,{A,B}> + 1/4|T,B,{A,B}>"
    )
    # the anthropic observation crosses out exactly |H,B,{B}>
    assert ket(lines[3].state) == "1/4|H,A,{A}> + 1/4|T,A,{A,B}> + 1/4|T,B,{A,B}>"
    assert result.validity == Q(3, 4)
    assert result.posterior == Subdist({"H": Q(1, 3), "T": Q(2, 3)})


def test_sailors_child_without_anthropic_observation():
    tt, interp = sailors_child(anthropic=False)
    _, result = trace(tt, interp)
    assert result.posterior == uniform(("H", "T"))


def test_trace_newcomb_branches():
    for branch, payout in (("a", Dollar(1)), ("b", Dollar(10))):
        tt, interp = newcomb(branch)
        _, result = trace(tt, interp)
        assert result.validity == Q(1, 4)
        assert result.posterior == dirac(payout)


def test_trace_imperfect_newcomb_branch_a():
    tt, interp = imperfect_newcomb("a")
    lines, result = trace(tt, interp)
    assert ket(lines[3].state) == (
        "1/5|a,a,T> + 1/20|a,b,T> + 1/20|b,a,T> + 1/5|b,b,T>"
    )
    assert result.posterior == Subdist({Dollar(11): Q(1, 5), Dollar(1): Q(4, 5)})
    assert expected_value(result.posterior) == 3


def test_trace_imperfect_newcomb_branch_b():
    tt, interp = imperfect_newcomb("b")
    _, result = trace(tt, interp)
    assert result.posterior == Subdist({Dollar(10): Q(4, 5), Dollar(0): Q(1, 5)})
    assert expected_value(result.posterior) == 8


def test_trace_zero_mass_gives_failure_posterior():
    # observing equality of two distinct deterministic draws fails
    a = Generator("always_h", (), ("Coin",))
    b = Generator("always_t", (), ("Coin",))
    sig = Signature(frozenset({"Coin"}), {"always_h": a, "always_t": b})
    term = Term((Sample(a, (), ("x",)),
                 Sample(b, (), ("y",)),
                 Observe("x", "y")),
                Return(("x",)))
    tt = typecheck(sig, (), term)
    interp = Interpretation(
        {"Coin": ("h", "t")},
        {"always_h": {(): dirac("h")}, "always_t": {(): dirac("t")}},
    )
    lines, result = trace(tt, interp)
    assert result.final.is_zero()
    assert result.validity == 0
    assert result.posterior is FAILURE
    with pytest.raises(ZeroMassState) as exc:
        trace(tt, interp, normalize=True)
    assert exc.value.line == 3


# -- normalising mode -----------------------------------------------------------------


def test_trace_normalized_full_monty_hall():
    tt, interp = monty_hall_full()
    lines, result = trace(tt, interp, normalize=True)
    assert ket(lines[3].state) == (
        "1/3|L,M,R> + 1/6|M,M,L> + 1/6|M,M,R> + 1/3|R,M,L>"
    )
    assert ket(lines[4].state) == "1/3|M,M,L> + 2/3|R,M,L>"
    assert ket(lines[5].state) == "1/3|M> + 2/3|R>"
    assert result.final == Subdist({"M": Q(1, 3), "R": Q(2, 3)})
    assert result.posterior == result.final


def test_normalized_posterior_matches_plain_trace():
    for build in (monty_hall, monty_fall, three_prisoners, sailors_child,
                  monty_hall_full):
        tt, interp = build()
        _, plain = trace(tt, interp)
        _, normal = trace(tt, interp, normalize=True)
        assert plain.posterior == normal.posterior


def test_normalized_posterior_matches_on_random_programs():
    rng = random.Random(100)
    checked = 0
    while checked < 120:
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        _, plain = trace(tt, interp)
        if plain.validity == 0:
            continue
        _, normal = trace(tt, interp, normalize=True)
        assert normal.posterior == plain.posterior
        checked += 1


def test_normalized_trace_lines_are_the_plain_lines_over_their_mass():
    # every step is linear, so the run need not be rescaled as it goes
    zero_mass = 0
    for seed in range(3000):
        budget = GenBudget(max_statements=6, seed=seed)
        rng = budget.rng()
        tt = gen_closed_program(budget, rng)
        interp = gen_interpretation(budget, tt.sig, rng)
        plain, _ = trace(tt, interp)
        first_zero = next((ln.line for ln in plain if ln.state.is_zero()), None)
        if first_zero is not None:
            with pytest.raises(ZeroMassState) as exc:
                trace(tt, interp, normalize=True)
            assert exc.value.line == first_zero
            zero_mass += 1
            continue
        normal, _ = trace(tt, interp, normalize=True)
        assert [(ln.line, ln.text, ket(ln.state)) for ln in normal] == [
            (ln.line, ln.text, ket(rescale(ln.state)[1])) for ln in plain]
    assert zero_mass > 200


def test_trace_agrees_with_interpret():
    rng = random.Random(101)
    for _ in range(100):
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        _, result = trace(tt, interp)
        assert result.final == interpret(tt, interp)


def test_mass_monotone_along_traces():
    rng = random.Random(102)
    for _ in range(60):
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        lines, _ = trace(tt, interp)
        prev = Q(1)
        for line in lines:  # every kernel row is substochastic
            assert line.mass <= prev
            prev = line.mass


def test_stochastic_kernels_preserve_mass():
    tt, interp = monty_hall_full()  # every row of a generator with outputs is stochastic
    lines, _ = trace(tt, interp)
    prev = Q(1)
    for node, line in zip(tt.term.heads, lines):
        if isinstance(node, Sample) and node.outs:
            assert line.mass == prev
        prev = line.mass


def test_a_trace_line_makes_its_mass_only_when_read(monkeypatch):
    tt, interp = monty_hall_full()
    made = []
    new = Q.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(sys._getframe(1).f_code.co_name)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counting_new))
    lines, result = trace(tt, interp)
    assert made.count("mass") == 1  # the validity, the final line's mass
    masses = [line.mass for line in lines]
    assert made.count("mass") == len(lines)  # the final line's is the validity, made once
    monkeypatch.undo()
    assert masses == [line.state.mass for line in lines] and masses[-1] == result.validity


# -- predicate observes ------------------------------------------------------------


def _observe_pred(state, holds, layout, types):
    """Restrict a joint state over ``layout`` by the predicate ``holds``
    through the engine.

    The predicate is a sample of ``seen : types -> ()``, whose row is
    1|()> where ``holds`` is true and zero where it is false.  The
    one-statement term ``() <- seen(layout); RETURN(layout)`` runs under
    `interpret` at each outcome of ``state``, and under `trace` after a
    nullary generator whose one kernel row is ``state``; both must agree.
    """
    init = Generator("init", (), types)
    seen = Generator("seen", types, ())
    sig = Signature(frozenset(types), {"init": init, "seen": seen})
    flat = (lambda x: x) if len(layout) > 1 else (lambda x: (x,))
    carriers = {t: tuple({flat(x)[i] for x in state.support()}) for i, t in enumerate(types)}
    table = {args: dirac(()) if holds(*args) else zero()
             for args in product(*(carriers[t] for t in types))}
    interp = Interpretation(carriers, {"init": {(): state}, "seen": table})
    body = Sample(seen, tuple(layout), ())
    tt = typecheck(sig, tuple(zip(layout, types)), Term((body,), Return(tuple(layout))))
    by_interpret = kleisli_extend(lambda x: interpret(tt, interp, flat(x)), state)
    closed = Term((Sample(init, (), tuple(layout)), body), Return(tuple(layout)))
    lines, _ = trace(typecheck(sig, (), closed), interp)
    assert lines[1].state == lines[2].state == by_interpret
    return by_interpret


def test_observe_predicate_monty_fall():
    state = uniform(("L", "M", "R"))
    out = _observe_pred(state, lambda car: car != "L", ["car"], ("Door",))
    assert out == Subdist({"M": Q(1, 3), "R": Q(1, 3)})


def test_observe_predicate_membership():
    sA, sB, sAB = frozenset({"A"}), frozenset({"B"}), frozenset({"A", "B"})
    state = Subdist({
        ("H", "A", sA): Q(1, 4),
        ("H", "B", sB): Q(1, 4),
        ("T", "A", sAB): Q(1, 4),
        ("T", "B", sAB): Q(1, 4),
    })
    out = _observe_pred(state, lambda coin, guide, ports: "A" in ports,
                        ["coin", "guide", "ports"], ("Coin", "Port", "Ports"))
    assert ("H", "B", sB) not in out
    assert out.mass == Q(3, 4)


def test_observe_predicate_true_is_identity():
    state = uniform(("u", "v"))
    assert _observe_pred(state, lambda x: True, ["x"], ("X",)) == state


# -- combinator semantics agreement ---------------------------------------------------


def test_comb_semantics_of_return_reindexes():
    from arrowlang.combinator import CombTerm, ff

    interp = Interpretation({"X": ("u", "v")}, {})
    chan = semantics_of_comb(CombTerm((), ff([1, 1], 1), ("X",)), interp)
    assert chan[("u",)] == dirac(("u", "u"))


def test_comb_semantics_of_compare():
    from arrowlang.combinator import structure_maps

    _, _, compare = structure_maps(("X",))
    interp = Interpretation({"X": ("u", "v")}, {})
    chan = semantics_of_comb(compare, interp)
    assert chan[("u", "u")] == dirac("u")
    assert chan[("u", "v")].is_zero()


def test_comb_semantics_matches_interpret():
    rng = random.Random(103)
    for _ in range(60):
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        interp = gen_interpretation(BUDGET, sig, rng)
        c = encode(tt)
        assert semantics_of_comb(c, interp) == denote_channel(tt, interp)
        if not tt.ctx:
            assert semantics_of_comb(c, interp)[()] == oracle_denote(tt, interp)


def test_comb_semantics_equals_decode_then_interpret():
    rng = random.Random(104)
    for _ in range(40):
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        interp = gen_interpretation(BUDGET, sig, rng)
        c = encode(tt)
        decoded = decode(c, sig)
        assert semantics_of_comb(c, interp) == denote_channel(decoded, interp)


# -- a channel is one run -------------------------------------------------------------


def _gate_program():
    """x: X; y <- pick(); OBSERVE(x = y); RETURN(y), with pick = 1/2|u> + 1/4|v>:
    the observe empties the environment x = w and keeps part of the others."""
    pick = Generator("pick", (), ("X",))
    sig = Signature(frozenset({"X"}), {"pick": pick})
    term = Term((Sample(pick, (), ("y",)), Observe("x", "y")), Return(("y",)))
    interp = Interpretation({"X": ("u", "v", "w")},
                            {"pick": {(): Subdist({"u": Q(1, 2), "v": Q(1, 4)})}})
    return typecheck(sig, (("x", "X"),), term), interp


def _count_engine(monkeypatch):
    from arrowlang import semantics

    runs, rows = [], Counter()
    evaluate, kernel_row = semantics._evaluate, semantics._kernel_row

    def counting_evaluate(*args, **kwargs):
        runs.append(1)
        return evaluate(*args, **kwargs)

    def counting_kernel_row(interp, gen, args):
        rows[gen.name, args] += 1
        return kernel_row(interp, gen, args)

    monkeypatch.setattr(semantics, "_evaluate", counting_evaluate)
    monkeypatch.setattr(semantics, "_kernel_row", counting_kernel_row)
    return runs, rows


@pytest.mark.parametrize("channel", [
    denote_channel, lambda tt, interp: semantics_of_comb(encode(tt), interp)],
    ids=["denote_channel", "semantics_of_comb"])
def test_channel_is_one_engine_run(monkeypatch, channel):
    runs, rows = _count_engine(monkeypatch)
    tt, interp = _gate_program()
    channel(tt, interp)
    assert len(runs) == 1 and rows == {("pick", ()): 1}  # not once per environment
    rng = random.Random(106)
    shared = 0
    for _ in range(60):
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        interp = gen_interpretation(BUDGET, sig, rng)
        runs.clear()
        rows.clear()
        channel(tt, interp)
        assert len(runs) == 1 and set(rows.values()) <= {1}
        shared += len(ctx) > 0 and bool(rows)
    assert shared >= 20


def test_channel_keeps_environments_an_observe_empties():
    tt, interp = _gate_program()
    expected = {("u",): Subdist({"u": Q(1, 2)}), ("v",): Subdist({"v": Q(1, 4)}),
                ("w",): Subdist({})}
    for chan in (denote_channel(tt, interp), semantics_of_comb(encode(tt), interp)):
        assert chan == expected
        assert chan[("w",)].is_zero() and not chan[("u",)].is_zero()
    assert interpret(tt, interp, ("w",)).is_zero()


# -- axiom soundness ------------------------------------------------------------------


def test_axiom_steps_preserve_denotation():
    rng = random.Random(105)
    checked = 0
    while checked < 150:
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        steps = list(applicable_steps(term))
        if not steps:
            continue
        which, pos, direction = rng.choice(steps)
        rewritten = axiom_step(term, which, pos, direction)
        tt2 = typecheck(sig, ctx, rewritten)
        interp = gen_interpretation(BUDGET, sig, rng)
        assert denote_channel(tt, interp) == denote_channel(tt2, interp), (
            f"axiom {which} at {pos} ({direction}) changed the denotation"
        )
        checked += 1


def test_kernel_row_rejects_an_input_its_table_lacks():
    g = Generator("g", ("X",), ("X",))
    with pytest.raises(CarrierMismatch) as exc:
        Interpretation({"X": ("u", "v")}, {"g": {("u",): dirac("u")}}).kernel_row(g, ("v",))
    assert str(exc.value) == "kernel g undefined on ('v',)"
