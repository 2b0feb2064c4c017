"""Harness contracts: generators, the enumeration oracle, bounded search."""

import hashlib
import random
from collections import deque
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

from arrowlang import semantics
from arrowlang.errors import NotApplicable
from arrowlang.parser import load_file
from arrowlang.proptest import (
    GenBudget,
    gen_closed_program,
    gen_interpretation,
    gen_term,
    gen_term_for_ctx,
    oracle_denote,
)
from arrowlang.semantics import Interpretation, denote_channel, interpret, trace
from arrowlang.subdist import Dollar, Subdist
from arrowlang.syntax import (
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    alpha_eq,
    applicable_steps,
    axiom_step,
    from_statements,
    reads,
    statements,
    substitute,
    typecheck,
)

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"
BUDGET = GenBudget(max_statements=5)


def test_budget_validates():
    with pytest.raises(ValueError):
        GenBudget(max_types=0)


def test_default_seed_gives_well_typed_term():
    sig, ctx, term = gen_term(GenBudget())
    typecheck(sig, ctx, term)  # raises on failure


def test_generator_coverage():
    rng = random.Random(0)
    saw_observe = False
    saw_repeated_return = False
    for _ in range(1000):
        _, _, term = gen_term(BUDGET, rng)
        heads, ret = statements(term)
        if any(isinstance(h, Observe) for h in heads):
            saw_observe = True
        if len(ret.vars) != len(set(ret.vars)):
            saw_repeated_return = True
        if saw_observe and saw_repeated_return:
            break
    assert saw_observe and saw_repeated_return


def test_random_interpretations_hit_both_mass_regimes():
    rng = random.Random(1)
    saw_stochastic = saw_losing = False
    for _ in range(50):
        sig, _, _ = gen_term(BUDGET, rng)
        interp = gen_interpretation(BUDGET, sig, rng)
        for table in interp.kernels.values():
            for row in table.values():
                if row.mass == 1:
                    saw_stochastic = True
                elif row.mass < 1:
                    saw_losing = True
    assert saw_stochastic and saw_losing


# -- oracle ----------------------------------------------------------------------


def test_generators_draw_as_pinned():
    # The benchmark's differential workload draws its programs through
    # these three generators, in this order; the digest was taken when
    # each had its own body.  A signature's types are sorted, since a
    # frozenset's repr follows the hash seed.
    budget = GenBudget(max_statements=4)
    digest = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        tt = gen_closed_program(budget, rng)
        sig, ctx, term = gen_term(budget, rng)
        ctx2 = tuple(rng.choice(sorted(sig.types)) for _ in range(rng.randint(0, 2)))
        tt2 = gen_term_for_ctx(budget, rng, sig, ctx2)
        for s, c, t in ((tt.sig, tt.ctx, tt.term), (sig, ctx, term), (tt2.sig, tt2.ctx, tt2.term)):
            digest.update(repr((sorted(s.types), list(s.generators.values()), c, t)).encode())
    assert digest.hexdigest() == (
        "36986488070e11b0611ad6d04f4f52d7726341d442f97bdbe4cbf7fed0991d6c")


def test_oracle_monty_hall():
    prog = load_file(PUZZLES / "monty_hall.arrow")
    assert oracle_denote(prog.typed, prog.interp) == Subdist({"M": Q(1, 6), "R": Q(1, 3)})


def test_oracle_newcomb_b_before_rescale():
    prog = load_file(PUZZLES / "newcomb_b.arrow")
    assert oracle_denote(prog.typed, prog.interp) == Subdist({Dollar(10): Q(1, 4)})


def test_oracle_matches_interpreter_on_corpus():
    for path in sorted(PUZZLES.glob("*.arrow")):
        prog = load_file(path)
        assert oracle_denote(prog.typed, prog.interp) == interpret(prog.typed, prog.interp), path


def test_oracle_matches_interpreter_on_random_programs():
    rng = random.Random(2)
    for _ in range(300):
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        assert oracle_denote(tt, interp) == interpret(tt, interp)


def test_planned_interpret_matches_trace_and_oracle():
    # `interpret` observes early and sums out dead columns; `trace` runs
    # the statements as written and keeps every column.  States leave the
    # engine unchecked, so each is rebuilt through the public constructor,
    # which checks every outcome and the mass
    rng = random.Random(3)
    for _ in range(1000):
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        lines, result = trace(tt, interp)
        final = interpret(tt, interp)
        assert final == result.final == oracle_denote(tt, interp)
        for s in [final] + [line.state for line in lines]:
            assert Subdist(list(s.entries())) == s


def _closed_at(tt, interp, env):
    """The term with each input bound first by a sample from a fresh
    nullary generator whose kernel is the point mass at its value in env."""
    gens, kernels, heads = dict(tt.sig.generators), dict(interp.kernels), []
    for (name, tname), value in zip(tt.ctx, env):
        gen = gens[f"in_{name}"] = Generator(f"in_{name}", (), (tname,))
        kernels[gen.name] = {(): Subdist({value: Q(1)})}
        heads.append(Sample(gen, (), (name,), None))
    rest, ret = statements(tt.term)
    closed = typecheck(Signature(tt.sig.types, gens), (), from_statements(heads + rest, ret))
    return closed, Interpretation(interp.carriers, kernels)


def test_open_channels_match_the_oracle_at_every_environment():
    # the oracle enumerates worlds of one closed program per environment;
    # the engine tabulates the open term in one run
    rng = random.Random(7)
    open_terms = envs = emptied = unread_inputs = unread_outputs = 0
    while open_terms < 200:
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        interp = gen_interpretation(BUDGET, sig, rng)
        chan = denote_channel(tt, interp)
        assert set(chan) == set(product(*(interp.carrier(t) for _, t in ctx)))
        for env, result in chan.items():
            assert oracle_denote(*_closed_at(tt, interp, env)) == result
        open_terms += len(ctx) > 0
        envs += len(chan) if ctx else 0
        emptied += sum(result.is_zero() for result in chan.values()) if ctx else 0
        # the run enumerates only the inputs read, and never makes a column
        # of a sample output that nothing reads
        heads, ret = statements(term)
        read = set(ret.vars).union(*map(reads, heads))
        unread_inputs += any(name not in read for name, _ in ctx)
        unread_outputs += any(x not in read for h in heads if isinstance(h, Sample)
                              for x in h.outs)
    assert envs >= 1_000 and emptied >= 200
    assert unread_inputs >= 50 and unread_outputs >= 50


# -- a run carries only what is read -------------------------------------------------


def _count_steps(monkeypatch):
    """Record each engine step: the sampled generator (None for an observe),
    the monomials before and after it, and the columns after it."""
    steps = []
    step = semantics._step

    def counting_step(state, denom, layout, node, *rest):
        out = step(state, denom, layout, node, *rest)
        gen = node.gen.name if isinstance(node, Sample) else None
        steps.append((gen, len(state), len(out[0]), list(layout)))
        return out

    monkeypatch.setattr(semantics, "_step", counting_step)
    return steps


def test_unread_inputs_are_not_enumerated(monkeypatch):
    # y <- noisy(x); RETURN(y) over x and k inputs that nothing reads: the
    # run starts from the 3 values of x, not from 3**(k+1) environments
    steps = _count_steps(monkeypatch)
    noisy = Generator("noisy", ("X",), ("X",))
    sig = Signature(frozenset({"X"}), {"noisy": noisy})
    rows = {("a",): {"a": Q(1, 2), "b": Q(1, 4)}, ("b",): {"b": Q(1)},
            ("c",): {"a": Q(1, 3), "b": Q(1, 3), "c": Q(1, 3)}}
    interp = Interpretation({"X": ("a", "b", "c")},
                            {"noisy": {args: Subdist(row) for args, row in rows.items()}})
    peaks = []
    for k in (6, 7):
        ctx = (("x", "X"),) + tuple((f"u{i}", "X") for i in range(k))
        tt = typecheck(sig, ctx, Sample(noisy, ("x",), ("y",), Return(("y",))))
        steps.clear()
        chan = denote_channel(tt, interp)
        peaks.append(max(after for _, _, after, _ in steps))
        assert set(chan) == set(product(*(interp.carrier(t) for _, t in ctx)))
        for env, result in chan.items():  # the closed form: noisy's row at x
            assert result == Subdist(rows[env[:1]])
    assert peaks == [6, 6]  # 3 ** (k + 1) and more when every input is a column
    for env, result in chan.items():
        assert interpret(tt, interp, env) == result


def test_a_sample_nothing_reads_scales_by_its_row_mass(monkeypatch):
    # z <- noise() with a 3-outcome row of mass 3/4 that nothing reads: the
    # step keeps the state's monomials and scales them, and is never dropped
    steps = _count_steps(monkeypatch)
    coin = Generator("coin", (), ("X",))
    noise = Generator("noise", (), ("X",))
    sig = Signature(frozenset({"X"}), {"coin": coin, "noise": noise})
    interp = Interpretation({"X": ("a", "b", "c")}, {
        "coin": {(): Subdist({"a": Q(1, 2), "b": Q(1, 2)})},
        "noise": {(): Subdist({"a": Q(1, 4), "b": Q(1, 4), "c": Q(1, 4)})}})
    term = Sample(coin, (), ("x",), Sample(noise, (), ("z",), Return(("x",))))
    tt = typecheck(sig, (), term)
    result = interpret(tt, interp)
    assert [(gen, before, after) for gen, before, after, _ in steps] == [
        ("coin", 1, 2), ("noise", 2, 2)]
    assert result == oracle_denote(tt, interp) == Subdist({"a": Q(3, 8), "b": Q(3, 8)})
    # a row of mass 0 empties the state
    empty = Interpretation(interp.carriers, {**interp.kernels, "noise": {(): Subdist({})}})
    assert interpret(tt, empty).is_zero() and oracle_denote(tt, empty).is_zero()


def test_only_the_live_output_of_a_sample_becomes_a_column(monkeypatch):
    # x: X; a, b <- pair(x); OBSERVE(a = x); RETURN(a): b is summed out of
    # the row, so the step adds one column
    steps = _count_steps(monkeypatch)
    pair = Generator("pair", ("X",), ("X", "X"))
    sig = Signature(frozenset({"X"}), {"pair": pair})
    rng = random.Random(11)
    carriers = {"X": ("a", "b", "c")}
    table = {(v,): Subdist({(p, q): Q(rng.randint(0, 2), 18) for p in carriers["X"]
                            for q in carriers["X"]}) for v in carriers["X"]}
    interp = Interpretation(carriers, {"pair": table})
    term = Sample(pair, ("x",), ("a", "b"), Observe("a", "x", Return(("a",))))
    tt = typecheck(sig, (("x", "X"),), term)
    chan = denote_channel(tt, interp)
    assert steps[0][0] == "pair" and steps[0][3] == ["x", "a"]
    assert set(chan) == {("a",), ("b",), ("c",)}
    for env, result in chan.items():
        assert oracle_denote(*_closed_at(tt, interp, env)) == result


# -- substitution respects the axioms (bounded search) ------------------------------


def _alpha_class_member(term, seen):
    return any(alpha_eq(term, other) for other in seen)


def _reachable(start, goal, depth):
    """Breadth-first search of the axiom-step neighbourhood."""
    frontier = deque([(start, 0)])
    seen = [start]
    while frontier:
        term, d = frontier.popleft()
        if alpha_eq(term, goal):
            return True
        if d == depth:
            continue
        for which, pos, direction in applicable_steps(term):
            try:
                nxt = axiom_step(term, which, pos, direction)
            except NotApplicable:
                continue
            if not _alpha_class_member(nxt, seen):
                seen.append(nxt)
                frontier.append((nxt, d + 1))
    return False


def test_substitution_well_defined_under_axioms():
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        sig, ctx, term = gen_term(GenBudget(max_statements=4), rng)
        by_type = {}
        for name, tname in ctx:
            by_type.setdefault(tname, []).append(name)
        pairs = [vs for vs in by_type.values() if len(vs) >= 2]
        if not pairs:
            continue
        x, u = rng.choice(pairs)[:2]
        steps = list(applicable_steps(term))
        if not steps:
            continue
        which, pos, direction = rng.choice(steps)
        rewritten = axiom_step(term, which, pos, direction)
        s1 = substitute(term, x, u, ctx)
        s2 = substitute(rewritten, x, u, ctx)
        assert _reachable(s1, s2, depth=2), (
            f"substituted terms not related within 2 steps (axiom {which})"
        )
        checked += 1


def test_oracle_rejects_an_open_program():
    from arrowlang.errors import InvalidSubdistribution
    from arrowlang.syntax import Return, typecheck

    tt = typecheck(Signature(frozenset({"X"})), (("x", "X"),), Return(("x",)))
    with pytest.raises(InvalidSubdistribution, match="^oracle needs a closed program$"):
        oracle_denote(tt, Interpretation({"X": ("u",)}, {}))
