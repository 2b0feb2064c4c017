"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import random
import time
from fractions import Fraction as Q
from pathlib import Path

from arrowlang.combinator import (
    CombTerm,
    act,
    comb_compose,
    comb_identity,
    comb_whisker_left,
    comb_whisker_right,
    decode,
    encode,
    ff,
    ff_compose,
    ff_identity,
    ff_symmetry,
)
from arrowlang.errors import NotApplicable
from arrowlang.parser import load_file, load_text
from arrowlang.proptest import (
    GenBudget,
    gen_closed_program,
    gen_interpretation,
    gen_reindexing,
    gen_term,
    gen_term_for_ctx,
    oracle_denote,
)
from arrowlang.semantics import (
    denote_channel,
    interpret,
    semantics_of_comb,
    trace,
)
from arrowlang.subdist import Dollar, Subdist, dirac, expected_value, ket, uniform
from arrowlang.syntax import applicable_steps, axiom_step, alpha_eq, typecheck

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"
BUDGET = GenBudget(max_statements=4)


def _report(number: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _run(name: str, normalize=False):
    prog = load_file(PUZZLES / f"{name}.arrow")
    return trace(prog.typed, prog.interp, prog.texts, normalize=normalize)


def test_criterion_1_monty_hall():
    start = time.monotonic()
    lines, result = _run("monty_hall")
    elapsed = time.monotonic() - start
    expected_states = [
        "1/3|L> + 1/3|M> + 1/3|R>",
        "1/3|L,R> + 1/6|M,L> + 1/6|M,R> + 1/3|R,L>",
        "1/6|M,L> + 1/3|R,L>",
        "1/6|M> + 1/3|R>",
    ]
    ok = (
        result.validity == Q(1, 2)
        and result.posterior == Subdist({"M": Q(1, 3), "R": Q(2, 3)})
        and [ket(l.state) for l in lines] == expected_states
        and elapsed < 1.0
    )
    _report(1, ok, f"Monty Hall validity 1/2, posterior 1/3|M> + 2/3|R> ({elapsed:.3f}s)")


def test_criterion_2_monty_fall():
    start = time.monotonic()
    _, result = _run("monty_fall")
    elapsed = time.monotonic() - start
    ok = (
        result.validity == Q(2, 3)
        and result.posterior == Subdist({"M": Q(1, 2), "R": Q(1, 2)})
        and elapsed < 1.0
    )
    _report(2, ok, f"Monty Fall validity 2/3, posterior 1/2|M> + 1/2|R> ({elapsed:.3f}s)")


def test_criterion_3_three_prisoners():
    _, result = _run("three_prisoners")
    ok = result.validity == Q(1, 2) and result.posterior == Subdist(
        {"A": Q(1, 3), "C": Q(2, 3)}
    )
    _report(3, ok, "Three Prisoners validity 1/2, posterior 1/3|A> + 2/3|C>")


def test_criterion_4_sailors_child():
    _, result = _run("sailors_child")
    source = (PUZZLES / "sailors_child.arrow").read_text()
    without = "\n".join(
        line for line in source.splitlines() if not line.startswith("OBSERVE(")
    )
    prog = load_text(without)
    _, unconditioned = trace(prog.typed, prog.interp, prog.texts)
    ok = (
        result.validity == Q(3, 4)
        and result.posterior == Subdist({"H": Q(1, 3), "T": Q(2, 3)})
        and unconditioned.posterior == uniform(("H", "T"))
    )
    _report(4, ok, "Sailor's Child 3/4 and 1/3|H> + 2/3|T>; without the "
                   "anthropic line the posterior is uniform")


def test_criterion_5_newcomb():
    _, res_a = _run("newcomb_a")
    _, res_b = _run("newcomb_b")
    ok = res_a.posterior == dirac(Dollar(1)) and res_b.posterior == dirac(Dollar(10))
    _report(5, ok, "Newcomb branch (a) 1|$1>, branch (b) 1|$10> after normalization")


def test_criterion_6_imperfect_newcomb():
    _, res_a = _run("imperfect_newcomb_a")
    _, res_b = _run("imperfect_newcomb_b")
    ok = (
        res_a.posterior == Subdist({Dollar(11): Q(1, 5), Dollar(1): Q(4, 5)})
        and expected_value(res_a.posterior) == 3
        and res_b.posterior == Subdist({Dollar(10): Q(4, 5), Dollar(0): Q(1, 5)})
        and expected_value(res_b.posterior) == 8
    )
    _report(6, ok, "Imperfect Newcomb posteriors with expected values 3 and 8")


def test_criterion_7_normalize_each_line():
    _, result = _run("monty_hall_full", normalize=True)
    ok = result.final == Subdist({"M": Q(1, 3), "R": Q(2, 3)})
    rng = random.Random(700)
    checked = 0
    while checked < 500:
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        _, plain = trace(tt, interp)
        if plain.validity == 0:
            continue
        _, normal = trace(tt, interp, normalize=True)
        if normal.posterior != plain.posterior:
            ok = False
            break
        checked += 1
    _report(7, ok, f"normalising each line: full Monty Hall final exact; {checked} random "
                   "programs agree with the plain trace posterior")


def test_criterion_8_axiom_soundness():
    start = time.monotonic()
    rng = random.Random(800)
    checked = 0
    ok = True
    while checked < 1000:
        sig, ctx, term = gen_term(BUDGET, rng)
        steps = list(applicable_steps(term))
        if not steps:
            continue
        which, pos, direction = rng.choice(steps)
        rewritten = axiom_step(term, which, pos, direction)
        tt = typecheck(sig, ctx, term)
        tt2 = typecheck(sig, ctx, rewritten)
        interp = gen_interpretation(BUDGET, sig, rng)
        if denote_channel(tt, interp) != denote_channel(tt2, interp):
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(8, ok, f"{checked} random axiom rewrites preserve the denotation "
                   f"exactly ({elapsed:.1f}s)")


def _random_comb(rng, budget=BUDGET):
    sig, ctx, term = gen_term(budget, rng)
    return sig, encode(typecheck(sig, ctx, term))


def test_criterion_9_appendix_algebra():
    rng = random.Random(900)
    trials = 500
    ok = True
    detail = []

    # module laws: identity action and action of a composite
    for _ in range(trials):
        sig, t = _random_comb(rng)
        if act(ff_identity(len(t.in_types)), t, t.in_types) != t:
            ok = False
        psi, ctx_q = gen_reindexing(rng, t.in_types)
        phi, ctx_r = gen_reindexing(rng, ctx_q)
        lhs = act(phi, act(psi, t, ctx_q), ctx_r)
        rhs = act(ff_compose(phi, psi), t, ctx_r)
        if lhs != rhs:
            ok = False
    detail.append("module laws")

    # action distributes over composition; composition associative and unital
    for _ in range(trials):
        sig, ctx, term = gen_term(BUDGET, rng)
        s = encode(typecheck(sig, ctx, term))
        t = encode(gen_term_for_ctx(BUDGET, rng, sig, s.out_types))
        r = encode(gen_term_for_ctx(BUDGET, rng, sig, t.out_types))
        if comb_compose(comb_compose(s, t), r) != comb_compose(s, comb_compose(t, r)):
            ok = False
        if comb_compose(comb_identity(s.in_types), s) != s:
            ok = False
        if comb_compose(s, comb_identity(s.out_types)) != s:
            ok = False
        # composing after a return is the action of its selector
        ret = CombTerm((), s.sel, s.ctx)
        if comb_compose(ret, t) != act(ret.sel, t, ret.ctx):
            ok = False
    detail.append("composition laws")

    # whiskering functoriality (structural on the left)
    for _ in range(trials):
        sig, ctx, term = gen_term(BUDGET, rng)
        s = encode(typecheck(sig, ctx, term))
        t = encode(gen_term_for_ctx(BUDGET, rng, sig, s.out_types))
        pad = tuple(rng.choice(sorted(sig.types)) for _ in range(rng.randint(1, 2)))
        lhs = comb_compose(comb_whisker_left(pad, s), comb_whisker_left(pad, t))
        if lhs != comb_whisker_left(pad, comb_compose(s, t)):
            ok = False
    detail.append("whisker functoriality")

    # interchange law, checked semantically
    for _ in range(trials):
        sig, ctx1, term1 = gen_term(BUDGET, rng)
        t1 = encode(typecheck(sig, ctx1, term1))
        ctx2 = tuple(rng.choice(sorted(sig.types)) for _ in range(rng.randint(0, 2)))
        t2 = encode(gen_term_for_ctx(BUDGET, rng, sig, ctx2))
        interp = gen_interpretation(BUDGET, sig, rng)
        first = comb_compose(comb_whisker_right(t1, t2.in_types),
                             comb_whisker_left(t1.out_types, t2))
        second = comb_compose(comb_whisker_left(t1.in_types, t2),
                              comb_whisker_right(t1, t2.out_types))
        if semantics_of_comb(first, interp) != semantics_of_comb(second, interp):
            ok = False
    detail.append("interchange")

    # encode/decode round trips
    for _ in range(trials):
        sig, ctx, term = gen_term(GenBudget(max_statements=6), rng)
        tt = typecheck(sig, ctx, term)
        c = encode(tt)
        back = decode(c, sig)
        if not alpha_eq(back.term, term, back.ctx, ctx) or encode(back) != c:
            ok = False
    detail.append("encode/decode")

    # FinSet^op comonoid equations, exhaustively for object sizes <= 4
    for n in range(5):
        x = ("X",) * n
        copy = CombTerm((), ff(list(range(1, n + 1)) * 2, n), x)
        discard = CombTerm((), ff([], n), x)
        ident = comb_identity(x)
        assoc_l = comb_compose(copy, comb_whisker_right(copy, x))
        assoc_r = comb_compose(copy, comb_whisker_left(x, copy))
        unit_l = comb_compose(copy, comb_whisker_right(discard, x))
        unit_r = comb_compose(copy, comb_whisker_left(x, discard))
        swap = CombTerm((), ff_symmetry(n, n), x + x)
        comm = comb_compose(copy, swap)
        if not (assoc_l == assoc_r and unit_l == ident and unit_r == ident and comm == copy):
            ok = False
    detail.append("comonoid equations <= 4")

    _report(9, ok, f"{trials} trials each: {', '.join(detail)}")


def test_criterion_10_oracle_equivalence():
    ok = True
    for path in sorted(PUZZLES.glob("*.arrow")):
        prog = load_file(path)
        if oracle_denote(prog.typed, prog.interp) != interpret(prog.typed, prog.interp):
            ok = False
    rng = random.Random(1000)
    for _ in range(1000):
        tt = gen_closed_program(BUDGET, rng)
        interp = gen_interpretation(BUDGET, tt.sig, rng)
        if oracle_denote(tt, interp) != interpret(tt, interp):
            ok = False
            break
    _report(10, ok, "world-enumeration oracle matches the evaluator on the "
                    "corpus and 1000 random programs")
