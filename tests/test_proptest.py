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
from arrowlang.parser import load_file, load_text
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
    Term,
    axiom_step,
    reads,
    substitute,
    typecheck,
)
from test_syntax import serialized

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
        if any(isinstance(h, Observe) for h in term.heads):
            saw_observe = True
        if len(term.ret.vars) != len(set(term.ret.vars)):
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


def test_random_interpretations_pass_the_public_checks():
    # `gen_interpretation` builds through the unchecked constructors, so the
    # checks of `Interpretation`, `validate` and `Subdist` run here instead
    for budget in (BUDGET, GenBudget(max_arity=3, max_carrier=4, max_denominator=12)):
        for seed in range(200):
            rng = random.Random(seed)
            sig, _, _ = gen_term(budget, rng)
            interp = gen_interpretation(budget, sig, rng)
            checked = Interpretation(interp.carriers, interp.kernels)
            checked.validate(sig)
            assert checked == interp
            for table in interp.kernels.values():
                for row in table.values():
                    assert Subdist(dict(row.items())) == row


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
            digest.update(repr((sorted(s.types), list(s.generators.values()), c,
                                serialized(t))).encode())
    assert digest.hexdigest() == (
        "ada1cb126c79bfb4050b339d06e6a22f1a3ca971d5ce5885cf1ebaa67c3d0fe4")


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
        heads.append(Sample(gen, (), (name,)))
    closed = typecheck(Signature(tt.sig.types, gens), (), Term((*heads, *tt.term.heads), tt.term.ret))
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
        read = set(term.ret.vars).union(*map(reads, term.heads))
        unread_inputs += any(name not in read for name, _ in ctx)
        unread_outputs += any(x not in read for h in term.heads if isinstance(h, Sample)
                              for x in h.outs)
    assert envs >= 1_000 and emptied >= 200
    assert unread_inputs >= 50 and unread_outputs >= 50


# -- a run carries only what is read -------------------------------------------------


def _count_steps(monkeypatch):
    """Record each engine step: the sampled generator (None for an observe),
    the monomials before and after it, and the columns after it.  Each run
    records through the engine's per-step callback."""
    steps = []
    evaluate = semantics._evaluate

    def counting_evaluate(plan, state, interp, record=None):
        before = len(state)

        def counting(step, state, denom):
            nonlocal before
            node = step[0]
            if not isinstance(node, Return):
                gen = node.gen.name if isinstance(node, Sample) else None
                steps.append((gen, before, len(state), list(step[3])))
                before = len(state)
            return record(step, state, denom) if record else (state, denom)

        return evaluate(plan, state, interp, counting)

    monkeypatch.setattr(semantics, "_evaluate", counting_evaluate)
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
        tt = typecheck(sig, ctx, Term((Sample(noisy, ("x",), ("y",)),), Return(("y",))))
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
    term = Term((Sample(coin, (), ("x",)), Sample(noise, (), ("z",))), Return(("x",)))
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
    term = Term((Sample(pair, ("x",), ("a", "b")), Observe("a", "x")), Return(("a",)))
    tt = typecheck(sig, (("x", "X"),), term)
    chan = denote_channel(tt, interp)
    assert steps[0][0] == "pair" and steps[0][3] == ["x", "a"]
    assert set(chan) == {("a",), ("b",), ("c",)}
    for env, result in chan.items():
        assert oracle_denote(*_closed_at(tt, interp, env)) == result


def test_a_predicate_sample_keeps_what_its_row_holds_and_a_partial_row_scales():
    # () <- seen(x) whose rows are 1|()> or the zero row keeps a monomial
    # exactly where its row holds (); a row of mass strictly between 0 and
    # 1 scales it, and 1|()> held over a denominator of 2 keeps it whole.
    # Each runs with x live and with x summed out right after the predicate.
    coin = Generator("coin", (), ("X",))
    seen = Generator("seen", ("X",), ())
    sig = Signature(frozenset({"X"}), {"coin": coin, "seen": seen})
    holds, fails = Subdist({(): Q(1)}), Subdist({})
    tables = [{("a",): holds, ("b",): fails, ("c",): holds},
              {("a",): fails, ("b",): fails, ("c",): fails},
              {("a",): Subdist({(): Q(1, 2)}), ("b",): holds, ("c",): fails},
              {("a",): Subdist._of_numerators([((), 2)], 2), ("b",): fails, ("c",): holds}]
    draw = Sample(coin, (), ("x",))
    terms = [Term((draw, Sample(seen, ("x",), ())), Return(("x",))),
             Term((draw, Sample(seen, ("x",), ()), Sample(coin, (), ("y",))), Return(("y",)))]
    for table in tables:
        interp = Interpretation({"X": ("a", "b", "c")}, {
            "coin": {(): Subdist({"a": Q(1, 2), "b": Q(1, 3), "c": Q(1, 6)})}, "seen": table})
        for term in terms:
            tt = typecheck(sig, (), term)
            result = interpret(tt, interp)
            assert result == oracle_denote(tt, interp) == trace(tt, interp)[1].final
    # the last table keeps x = a and x = c, of mass 1/2 + 1/6
    assert result == Subdist({"a": Q(1, 3), "b": Q(2, 9), "c": Q(1, 9)})


def test_observes_written_last_run_right_after_their_readings(monkeypatch):
    # one hidden state of 4 values, 8 noisy readings of it with 3 outcomes
    # each, then the 8 observes: planned, each observe runs right after its
    # reading, which is then summed out, so the state never holds more than
    # 4 * 3 monomials; run as written it reaches 4 * 3**8
    k = 8
    lines = ["TYPE H = {h0, h1, h2, h3}", "TYPE R = {r0, r1, r2}", "h <- UNIFORM {h0, h1, h2, h3}"]
    for i in range(1, k + 1):
        # reading r_j of h_m has weight 1/2, 1/3 or 1/6 as (j - m - i) % 3 is 0, 1 or 2
        rows = "; ".join(f"h{m} -> " + " + ".join(f"{w}|r{(m + i + d) % 3}>"
                                                   for d, w in enumerate(("1/2", "1/3", "1/6")))
                         for m in range(4))
        lines.append(f"e{i} <- CASE h OF {rows}")
    lines += [f"OBSERVE(e{i} = r{i % 3})" for i in range(1, k + 1)]
    prog = load_text("\n".join(lines) + "\nRETURN(h)\n")
    steps = _count_steps(monkeypatch)
    final = interpret(prog.typed, prog.interp)
    assert max(after for _, _, after, _ in steps) == 12
    steps.clear()
    _, result = trace(prog.typed, prog.interp)
    assert max(after for _, _, after, _ in steps) == 4 * 3 ** k == 26_244
    assert final == result.final and not final.is_zero()


def test_plan_places_each_statement_after_its_last_binder():
    # the reference: a stable sort of the statements by the index of the
    # last sample with outputs that binds a variable the statement reads
    # (a sample with outputs by its own index; -1 for reading only inputs)
    def placed(term):
        binder, keys = {}, []
        for i, node in enumerate(term.heads):
            if isinstance(node, Sample) and node.outs:
                keys.append(i)
                binder.update(dict.fromkeys(node.outs, i))
            else:
                keys.append(max((binder[x] for x in reads(node) if x in binder), default=-1))
        order = sorted(range(len(term.heads)), key=keys.__getitem__)
        return [term.heads[i] for i in order]

    moved = 0
    for seed in range(1000):
        rng = random.Random(seed)
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = gen_closed_program(BUDGET, rng)
        for term, inputs in ((term, [name for name, _ in ctx]), (tt.term, [])):
            nodes = [step[0] for step in semantics._plan(term, inputs)[0][:-1]]
            assert nodes == placed(term)
            moved += nodes != list(term.heads)
    assert moved >= 100, moved


def test_tabulating_at_repeated_and_reordered_environments():
    # the tabulator keys each environment by the inputs read: all of them
    # (each environment is its own key), none, or some
    rng = random.Random(17)
    kinds = {"all": 0, "none": 0, "some": 0}
    while min(kinds.values()) < 25:
        sig, ctx, term = gen_term(BUDGET, rng)
        if not ctx:
            continue
        tt = typecheck(sig, ctx, term)
        interp = gen_interpretation(BUDGET, sig, rng)
        chan = denote_channel(tt, interp)
        envs = list(product(*(interp.carrier(t) for _, t in ctx)))
        assert list(chan) == envs
        asked = envs[::-1] + envs[1::2] + rng.choices(envs, k=3)
        table = semantics.denoter(tt)(interp, asked)
        assert list(table) == list(dict.fromkeys(asked))
        for env in asked:
            assert table[env] == chan[env]
        read = set(term.ret.vars).union(*map(reads, term.heads))
        n = sum(name in read for name, _ in ctx)
        kinds["all" if n == len(ctx) else "some" if n else "none"] += 1


def _replayed(steps, inputs, planned):
    """A reference replay of the statements of compiled ``steps``, in
    their order: a layout simulated as a list and searched with
    `list.index`.  A planned run starts from the inputs read and keeps
    them to the end, keeps any other variable until the last statement
    that reads it, and a sample's output only if a later statement or the
    return reads it; a traced run keeps every column.  The result is the
    starting columns and each step as (node, at, kept, survive, layout):
    the positions it reads (for the return, the starting columns and then
    the returned variables), the kept outputs, and the positions of the
    columns after it among those before it and the kept outputs (None
    when nothing is summed out)."""
    *nodes, ret = [step[0] for step in steps]

    def read(node):
        return node.args if isinstance(node, Sample) else (node.left, node.right)

    live_after, live = [], set(ret.vars)
    for node in reversed(nodes):
        live_after.append(set(live))
        live |= set(read(node))
    live_after.reverse()
    start = [x for x in inputs if x in live] if planned else []
    layout, replayed = list(start), []
    for node, later in zip(nodes, live_after):
        at = tuple(layout.index(x) for x in read(node))
        outs = list(node.outs) if isinstance(node, Sample) else []
        kept = None
        if planned and not later.issuperset(outs):
            kept = tuple(i for i, x in enumerate(outs) if x in later)
            outs = [outs[i] for i in kept]
        after = layout + outs
        dead = {x for x in read(node) if x not in later and x not in inputs} if planned else ()
        survive = tuple(i for i, x in enumerate(after) if x not in dead) if dead else None
        layout = [x for x in after if x not in dead]
        replayed.append((node, at, kept, survive, layout))
    at = tuple(range(len(start))) + tuple(layout.index(x) for x in ret.vars)
    survive = None if at == tuple(range(len(layout))) else at
    replayed.append((ret, at, None, survive, start + list(ret.vars)))
    return start, replayed


def _check_positions(steps, start, inputs, planned, seen):
    """Check every position that compiled ``steps`` from the columns
    ``start`` hold, directly or through their functions, against
    `_replayed`."""
    replay_start, replayed = _replayed(steps, inputs, planned)
    assert start == replay_start and len(steps) == len(replayed)
    width = len(start)
    for step, (node, at, kept, survive, layout) in zip(steps, replayed):
        assert step[0] is node and step[2:4] == (kept, layout)
        _, sides, _, _, args_of, key_of = step
        # a function of positions applied to the positions gives them back
        positions = tuple(range(width))
        if isinstance(node, Sample):
            assert sides is None and args_of(positions) == at
            positions += tuple(range(width, width + len(node.outs if kept is None else kept)))
            seen["kept"] += kept is not None
        else:
            assert args_of is None and sides == (at if isinstance(node, Observe) else None)
        assert (key_of and key_of(positions)) == survive
        seen[type(node).__name__] += key_of is not None
        width = len(layout)


def test_plan_positions_match_a_replay(monkeypatch):
    # every position a compiled step holds, planned or traced, is the one
    # a replay over a simulated layout finds
    seen = {"kept": 0, "Sample": 0, "Observe": 0, "Return": 0}

    def planned(tt):
        inputs = [name for name, _ in tt.ctx]
        steps, start = semantics._plan(tt.term, inputs)
        _check_positions(steps, start, inputs, True, seen)

    def traced(tt, interp):
        runs, evaluate = [], semantics._evaluate
        with monkeypatch.context() as m:
            m.setattr(semantics, "_evaluate", lambda steps, *rest: runs.append(list(steps)) or
                      evaluate(runs[-1], *rest))
            trace(tt, interp)
        _check_positions(runs[0], [], [], False, seen)

    for seed in range(1000):
        rng = random.Random(seed)
        sig, ctx, term = gen_term(BUDGET, rng)
        planned(typecheck(sig, ctx, term))
        tt = gen_closed_program(BUDGET, rng)
        planned(tt)
        traced(tt, gen_interpretation(BUDGET, tt.sig, rng))
    for path in sorted(PUZZLES.glob("*.arrow")):
        prog = load_file(path)
        planned(prog.typed)
        traced(prog.typed, prog.interp)
    assert min(seen.values()) >= 100, seen


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

    tt = typecheck(Signature(frozenset({"X"})), (("x", "X"),), Term((), Return(("x",))))
    with pytest.raises(InvalidSubdistribution, match="^oracle needs a closed program$"):
        oracle_denote(tt, Interpretation({"X": ("u",)}, {}))
