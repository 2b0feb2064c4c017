"""Typing rules, alpha equivalence, substitution, and axiom rewrites."""

import hashlib
import sys
from dataclasses import fields, replace
from fractions import Fraction as Q

import pytest

from arrowlang import syntax
from arrowlang.errors import (
    ElaborationError,
    NonFreshOutput,
    NotApplicable,
    TypeMismatch,
    UnboundVariable,
    UnknownGenerator,
)
from arrowlang.parser import load_text
from arrowlang.proptest import GenBudget, gen_closed_program, gen_term, oracle_denote
from arrowlang.semantics import Interpretation, interpret, trace
from arrowlang.subdist import Subdist, dirac, ket, uniform, zero
from arrowlang.syntax import (
    AXIOM_IDS,
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Term,
    alpha_eq,
    applicable_steps,
    axiom_step,
    render_statement,
    substitute,
    typecheck,
)
from test_cli import _straight_line
from test_parser import BUILDERS, PUZZLES

COIN = Generator("flip", (), ("Coin",))
STEP = Generator("step", ("Coin",), ("Coin",))
PAIR = Generator("pair", ("Coin",), ("Coin", "Door"))
SIG = Signature(frozenset({"Coin", "Door"}), {g.name: g for g in (COIN, STEP, PAIR)})
SEEN = Generator("seen", ("Door",), ())  # a predicate on a door, as a predicate observe is


def test_return_repeats_variables():
    tt = typecheck(SIG, (("x", "Coin"),), Term((), Return(("x", "x"))))
    assert tt.out_types == ("Coin", "Coin")


def test_observe_type_mismatch():
    term = Term((Observe("x", "y"),), Return(("x",)))
    with pytest.raises(TypeMismatch):
        typecheck(SIG, (("x", "Coin"), ("y", "Door")), term)


def test_monty_hall_shape_typechecks():
    # the Monty Hall program shape under a matching signature
    door = Generator("pick", (), ("Door",))
    host = Generator("host", ("Door",), ("Door",))
    sig = Signature(frozenset({"Door"}), {"pick": door, "host": host})
    term = Term((Sample(door, (), ("car",)),
                 Sample(host, ("car",), ("h",)),
                 Observe("h", "h")),
                Return(("car",)))
    tt = typecheck(sig, (), term)
    assert tt.out_types == ("Door",)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        typecheck(SIG, (), Term((), Return(("x",))))


def test_unknown_generator():
    rogue = Generator("rogue", (), ("Coin",))
    with pytest.raises(UnknownGenerator):
        typecheck(SIG, (), Term((Sample(rogue, (), ("x",)),), Return(("x",))))


def test_non_fresh_output():
    term = Term((Sample(COIN, (), ("x",)), Sample(COIN, (), ("x",))), Return(("x",)))
    with pytest.raises(NonFreshOutput):
        typecheck(SIG, (), term)


def test_argument_type_checked():
    term = Term((Sample(STEP, ("d",), ("y",)),), Return(("y",)))
    with pytest.raises(TypeMismatch):
        typecheck(SIG, (("d", "Door"),), term)


# -- alpha equivalence -------------------------------------------------------


def test_alpha_bound_rename():
    t1 = Term((Sample(STEP, ("x",), ("y",)),), Return(("y",)))
    t2 = Term((Sample(STEP, ("x",), ("z",)),), Return(("z",)))
    assert alpha_eq(t1, t2)


def test_alpha_different_projection():
    t1 = Term((Sample(STEP, ("x",), ("y",)),), Return(("y",)))
    t2 = Term((Sample(STEP, ("x",), ("y",)),), Return(("x",)))
    assert not alpha_eq(t1, t2)


def test_alpha_free_variables_matter():
    t1 = Term((), Return(("x",)))
    t2 = Term((), Return(("y",)))
    assert not alpha_eq(t1, t2)


def test_alpha_whole_program_rename():
    # two transcriptions of the same program with different bound names
    def program(car, host):
        pick = Generator("pick", (), ("Door",))
        h = Generator("host", ("Door",), ("Door",))
        return Term((Sample(pick, (), (car,)),
                     Sample(h, (car,), (host,)),
                     Observe(host, host)),
                    Return((car,)))

    assert alpha_eq(program("car", "h"), program("c", "opened"))


# -- substitution --------------------------------------------------------------


def test_substitute_return():
    assert substitute(Term((), Return(("x", "y"))), "x", "u") == Term((), Return(("u", "y")))


def test_substitute_observe():
    t = Term((Observe("x", "y"),), Return(("x",)))
    assert substitute(t, "x", "u") == Term((Observe("u", "y"),), Return(("u",)))


def test_substitute_leaves_bound_outputs():
    t = Term((Sample(STEP, ("x",), ("z",)),), Return(("z", "x")))
    assert substitute(t, "x", "u") == Term((Sample(STEP, ("u",), ("z",)),), Return(("z", "u")))


def test_substitute_type_checked_against_context():
    with pytest.raises(TypeMismatch):
        substitute(Term((), Return(("x",))), "x", "d", ctx=(("x", "Coin"), ("d", "Door")))


def test_substitute_two_thousand_statements_at_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    heads = []
    for i in range(1, 1_001):
        heads += [Sample(STEP, ("x",), (f"z{i}",)), Observe("x", f"z{i}")]
    t = Term(tuple(heads), Return(("x", "z1000")))
    done = substitute(t, "x", "u", ctx=(("x", "Coin"), ("u", "Coin")))
    assert len(done.heads) == 2_000 and done.ret == Return(("u", "z1000"))
    assert done.heads[-2:] == (Sample(STEP, ("u",), ("z1000",)), Observe("u", "z1000"))
    assert alpha_eq(substitute(done, "u", "x"), t)


def test_long_terms_compare_hash_and_print_at_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    heads = []
    for i in range(1, 1_001):
        heads += [Sample(STEP, ("x",), (f"z{i}",)), Observe("x", f"z{i}")]
    t = Term(tuple(heads), Return(("x", "z1000")))
    done = substitute(t, "x", "u", ctx=(("x", "Coin"), ("u", "Coin")))
    back = substitute(done, "u", "x")
    assert back == t and back is not t and done != t
    assert Term(tuple(heads), Return(("x",))) != t  # differs only in the return
    assert hash(back) == hash(t)
    step = "Sample(gen=Generator(name='step', inputs=('Coin',), outputs=('Coin',)), args=('x',), "
    text = repr(t)
    assert text.startswith(f"Term(heads=({step}outs=('z1',)), Observe(left='x', right='z1'), {step}")
    assert text.endswith("Observe(left='x', right='z1000')), ret=Return(vars=('x', 'z1000')))")


def test_statement_repr_is_the_dataclass_text():
    seen = Sample(SEEN, ("e",), ())
    t = Term((Sample(PAIR, ("c",), ("d", "e")), Observe("d", "d"), seen), Return(("e",)))
    assert repr(t) == (
        "Term(heads=(Sample(gen=Generator(name='pair', inputs=('Coin',), outputs=('Coin', 'Door')), "
        "args=('c',), outs=('d', 'e')), Observe(left='d', right='d'), "
        "Sample(gen=Generator(name='seen', inputs=('Door',), outputs=()), args=('e',), "
        "outs=())), ret=Return(vars=('e',)))")
    assert repr(Observe("a", "b")) == "Observe(left='a', right='b')"
    assert t == Term((Sample(PAIR, ("c",), ("d", "e")),
                      Observe("d", "d"),
                      Sample(SEEN, ("e",), ())),
                     Return(("e",)))
    assert t != Term((Sample(PAIR, ("c",), ("d", "e")), Observe("d", "d")), Return(("e",)))
    assert Observe("a", "b") != Sample(SEEN, ("a",), ()) and t != "t"
    assert len({t, Observe("a", "b"), Observe("a", "b")}) == 2


def test_a_sample_with_no_outputs_renders_an_empty_output_list():
    # as `pretty` writes the generator's type, GEN seen : Door -> ()
    seen = Sample(SEEN, ("d",), ())
    assert render_statement(seen) == "() <- seen(d)"
    with pytest.raises(UnknownGenerator) as caught:
        typecheck(SIG, (("d", "Door"),), Term((seen,), Return(("d",))))
    assert str(caught.value) == "generator seen not in signature in () <- seen(d)"
    door = Generator("door", (), ("Door",))
    sig = Signature(SIG.types, {"door": door, "seen": SEEN})
    interp = Interpretation({"Coin": ("H",), "Door": ("L", "R")},
                            {"door": {(): uniform(("L", "R"))},
                             "seen": {("L",): dirac(()), ("R",): zero()}})
    lines, _ = trace(typecheck(sig, (), Term((Sample(door, (), ("d",)), seen), Return(("d",)))),
                     interp)
    assert [line.text for line in lines] == ["d <- door()", "() <- seen(d)", "RETURN(d)"]
    assert ket(lines[1].state) == "1/2|L>"


# -- long predicates at the default recursion limit --------------------------------


def _sailor_observing(atoms: list[str], guide: str = "guide") -> str:
    """The sailor's child source with its observe the conjunction of ``atoms``."""
    source = (PUZZLES / "sailors_child.arrow").read_text()
    source = source.replace("OBSERVE(A IN ports)", f"OBSERVE({' AND '.join(atoms)})")
    return source.replace("guide", guide)


def test_ten_thousand_atom_observe_at_default_recursion_limit():
    # the conjunction is one sample of __obs4 over the variables it reads,
    # in order of first reading, and its 10,000 atoms live in the table
    assert sys.getrecursionlimit() == 1000
    cycle = ("A IN ports", "guide != B", "coin = coin", "A = guide")
    atoms = [cycle[i % 4] for i in range(10_000)]
    prog = load_text(_sailor_observing(atoms))
    observe = prog.typed.term.heads[3]
    assert observe.gen == Generator("__obs4", ("Ports", "Port", "Coin"), ())
    assert render_statement(observe) == "() <- __obs4(ports, guide, coin)"
    assert typecheck(prog.typed.sig, (), prog.typed.term).out_types == ("Coin",)
    for ports in prog.interp.carrier("Ports"):
        for guide in ("A", "B"):
            for coin in ("H", "T"):
                holds = "A" in ports and guide == "A"
                assert prog.interp.kernel_row(observe.gen, (ports, guide, coin)) == (
                    Subdist({(): Q(1)}) if holds else Subdist({})), (ports, guide, coin)

    with pytest.raises(ElaborationError) as caught:
        load_text(_sailor_observing(atoms[:-1] + ["coin = guide"]))
    message = str(caught.value)
    assert message.startswith("line 14: comparison between Coin and Port in OBSERVE(A IN ports AND")
    assert message.endswith(" AND coin = coin AND coin = guide)")

    renamed = load_text(_sailor_observing([a.replace("guide", "g") for a in atoms], "g"))
    assert alpha_eq(renamed.typed.term, prog.typed.term)
    assert renamed.typed.term != prog.typed.term

    expected = Subdist({"H": Q(1, 4), "T": Q(1, 4)})
    assert oracle_denote(prog.typed, prog.interp) == expected
    assert interpret(prog.typed, prog.interp) == expected


def test_substitute_through_a_ten_thousand_input_sample_at_default_recursion_limit():
    # a predicate observe reading 10,000 variables is a sample with 10,000 arguments
    assert sys.getrecursionlimit() == 1000
    ctx = tuple((f"x{i}", "Door") for i in range(10_000))
    seen = Generator("seen", ("Door",) * 10_000, ())
    sig = Signature(frozenset({"Door"}), {"seen": seen})
    names = [name for name, _ in ctx]
    t = Term((Sample(seen, tuple(names), ()),), Return(("x0",)))
    done = substitute(t, "x0", "x1", ctx=ctx)
    assert done == Term((Sample(seen, ("x1", "x1", *names[2:]), ()),), Return(("x1",)))
    assert typecheck(sig, ctx, done).out_types == ("Door",)
    assert alpha_eq(substitute(done, "x1", "x0"),
                    Term((Sample(seen, ("x0", "x0", *names[2:]), ()),), Return(("x0",))))
    assert not alpha_eq(done, t)
    assert render_statement(done.heads[0]) == f"() <- seen(x1, x1, {', '.join(names[2:])})"


# -- axiom rewrites ---------------------------------------------------------------


def two_coins(*rest, ret):
    return Term((Sample(COIN, (), ("x",)), Sample(COIN, (), ("y",)), *rest), ret)


def test_axiom_1a_swaps_independent_samples():
    t = two_coins(ret=Return(("x", "y")))
    swapped = axiom_step(t, "1a", 0)
    assert swapped.heads[0].outs == ("y",)
    assert swapped.heads[1].outs == ("x",)


def test_axiom_1a_blocked_by_dataflow():
    t = Term((Sample(COIN, (), ("x",)), Sample(STEP, ("x",), ("y",))), Return(("y",)))
    with pytest.raises(NotApplicable):
        axiom_step(t, "1a", 0)


def test_axiom_1b_both_directions():
    t = Term((Sample(COIN, (), ("y",)), Observe("a", "b")), Return(("y",)))
    ctx_term = axiom_step(t, "1b", 0, "fwd")
    assert isinstance(ctx_term.heads[0], Observe)
    back = axiom_step(ctx_term, "1b", 0, "bwd")
    assert back == t


def test_axiom_1b_blocked_when_observe_uses_output():
    t = Term((Sample(COIN, (), ("y",)), Observe("y", "a")), Return(("y",)))
    with pytest.raises(NotApplicable):
        axiom_step(t, "1b", 0, "fwd")


def test_axiom_2_swaps_operands():
    t = Term((Observe("a", "b"),), Return(("a",)))
    assert axiom_step(t, "2", 0) == Term((Observe("b", "a"),), Return(("a",)))


def test_axiom_3_propagates_equality():
    t = Term((Observe("a", "b"),), Return(("a", "a")))
    assert axiom_step(t, "3", 0, "fwd") == Term((Observe("a", "b"),), Return(("b", "b")))
    assert axiom_step(t, "3", 0, "bwd") == Term((Observe("a", "b"),), Return(("a", "a")))


def test_axiom_4_deletes_self_observation():
    t = Term((Observe("x", "x"),), Return(("x",)))
    assert axiom_step(t, "4", 0) == Term((), Return(("x",)))


def test_axiom_4_requires_equal_variables():
    t = Term((Observe("x", "y"),), Return(("x",)))
    with pytest.raises(NotApplicable):
        axiom_step(t, "4", 0)


def test_axiom_4_backward_not_applicable():
    with pytest.raises(NotApplicable):
        axiom_step(Term((), Return(("x",))), "4", 0, "bwd")


def test_symmetric_axioms_involutive():
    t = two_coins(Observe("x", "y"), ret=Return(("x",)))
    for which, pos in [("1a", 0), ("2", 2)]:
        once = axiom_step(t, which, pos)
        twice = axiom_step(once, which, pos)
        assert alpha_eq(twice, t)


def test_axiom_1c_involutive():
    t = Term((Observe("a", "b"), Observe("c", "d")), Return(("a",)))
    assert alpha_eq(axiom_step(axiom_step(t, "1c", 0), "1c", 0), t)


def test_subject_reduction():
    ctx = (("a", "Coin"), ("b", "Coin"))
    t = Term((Sample(COIN, (), ("x",)),
              Sample(COIN, (), ("y",)),
              Observe("a", "b")),
             Return(("x", "a")))
    tt = typecheck(SIG, ctx, t)
    for which, pos, direction in applicable_steps(t):
        rewritten = axiom_step(t, which, pos, direction)
        tt2 = typecheck(SIG, ctx, rewritten)
        assert tt2.out_types == tt.out_types


def test_statement_round_trip():
    t = two_coins(Observe("x", "y"), ret=Return(("y",)))
    assert render_statement(t.heads[0]) == "x <- flip()"
    assert render_statement(t.heads[2]) == "OBSERVE(x = y)"
    assert render_statement(t.ret) == "RETURN(y)"


def test_the_chain_view_walks_the_statements():
    # the view that perfbench/tracing.py walks: `cont` drops the first
    # statement, `gen` is its generator, and both are missing where the
    # chain form had a return or an observe
    t = two_coins(Observe("x", "y"), ret=Return(("y",)))
    assert t.gen == COIN and t.cont == Term(t.heads[1:], t.ret)
    assert t.cont.cont.cont == Term((), t.ret)
    assert not hasattr(t.cont.cont, "gen") and hasattr(t.cont.cont, "cont")
    assert not hasattr(t.cont.cont.cont, "cont") and not hasattr(t.cont.cont.cont, "gen")


def serialized(t) -> str:
    """A term's text that does not depend on how terms are stored: each
    statement's class name and fields, then the return's variables."""
    return repr([(type(h).__name__, *[getattr(h, f.name) for f in fields(h)]) for h in t.heads]
                + [t.ret.vars])


def _step_outcome(t, which, pos, direction):
    try:
        return serialized(axiom_step(t, which, pos, direction))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def test_rewrites_are_pinned():
    # Every applicable_steps list, and every axiom_step outcome over all
    # axioms (and an unknown one), both directions (and an invalid one)
    # and every position from -1 to one past the end; the generated terms
    # and the hand-built puzzles, whose observes of a literal are samples
    # with no outputs, are pinned apart.
    def digest(terms) -> str:
        found = hashlib.sha256()
        for t in terms:
            found.update(repr(list(applicable_steps(t))).encode() + b"\n")
            n = len(t.heads)
            for which in AXIOM_IDS + ("5",):
                for direction in ("fwd", "bwd", "sideways"):
                    for pos in range(-1, n + 2):
                        outcome = _step_outcome(t, which, pos, direction)
                        found.update(repr(outcome).encode() + b"\n")
        return found.hexdigest()

    assert digest(gen_term(GenBudget(seed=seed))[2] for seed in range(500)) == (
        "e22c9336d2bed5b64a25d912bbdb672023637f3a0866031d51d4e894ac94b1e4")
    assert digest(build()[0].term for build in BUILDERS.values()) == (
        "197b1f8694689e0386920e7b4fb940f9b8056c24921833ea4a04fdcc2699f2bf")


def test_generated_terms_are_pinned():
    # the terms themselves, through the same serialization as the rewrites
    found = hashlib.sha256()
    for seed in range(200):
        _, ctx, term = gen_term(GenBudget(seed=seed))
        found.update(repr((ctx, serialized(term))).encode() + b"\n")
        found.update(serialized(gen_closed_program(GenBudget(seed=seed)).term).encode() + b"\n")
    assert found.hexdigest() == (
        "5b9c15a1f3692556d03f2700570896e906ae6cccb45e2caf86794eb79ff30eae")


def test_ten_thousand_statement_rewrites_at_default_recursion_limit(monkeypatch):
    assert sys.getrecursionlimit() == 1000
    tt = load_text(_straight_line(10_000)[0]).typed
    t = tt.term
    heads = t.heads
    calls = {"axiom_step": 0}

    def counted_step(*args):
        calls["axiom_step"] += 1
        raise NotApplicable("counted")  # an enumeration by trial goes on, and is counted

    monkeypatch.setattr(syntax, "axiom_step", counted_step)
    steps = list(applicable_steps(t))
    monkeypatch.undo()
    assert calls == {"axiom_step": 0}
    last = max(pos for _, pos, _ in steps)
    kinds = [(which, direction) for which, pos, direction in steps if pos == last]
    assert kinds == [("1b", "bwd"), ("2", "fwd"), ("3", "fwd"), ("3", "bwd")]
    observe, sample = heads[last : last + 2]
    texts = [render_statement(h) for h in heads]
    swapped = Observe(observe.right, observe.left)
    mirrored = replace(sample, args=(observe.left,))
    expected = {("1b", "bwd"): [sample, observe], ("2", "fwd"): [swapped, sample],
                ("3", "fwd"): [observe, sample], ("3", "bwd"): [observe, mirrored]}
    for which, direction in kinds:
        rewritten = axiom_step(t, which, last, direction)
        assert typecheck(tt.sig, tt.ctx, rewritten).out_types == tt.out_types
        want = [*texts[:last], *map(render_statement, expected[which, direction]), *texts[last + 2 :]]
        assert [render_statement(h) for h in rewritten.heads] == want


@pytest.mark.parametrize("call, error, message", [
    (lambda: Signature(frozenset({"Coin"}), {"g": Generator("g", ("Coin",), ("Die",))}),
     UnknownGenerator, "generator g uses undeclared type Die"),
    (lambda: typecheck(Signature(SIG.types, {"seen": SEEN}), (),
                       Term((Sample(SEEN, ("y",), ()),), Return(()))),
     UnboundVariable, "variable y not in scope in () <- seen(y)"),
    (lambda: typecheck(SIG, (("x", "Coin"),), Term((Observe("x", "y"),), Return(("x",)))),
     UnboundVariable, "variable y not in scope in OBSERVE(x = y)"),
    (lambda: typecheck(SIG, (), Term(("junk",), Return(()))), TypeMismatch,
     "not a term node: 'junk'"),
    (lambda: typecheck(SIG, (), Term((Return(()),), Return(()))), TypeMismatch,
     "not a statement: Return(vars=())"),
    (lambda: typecheck(SIG, (), Term((), Observe("x", "x"))), TypeMismatch,
     "not a return: Observe(left='x', right='x')"),
    (lambda: typecheck(SIG, (("x", "Coin"), ("x", "Coin")), Term((), Return(("x",)))),
     NonFreshOutput, "duplicate context variable x"),
    (lambda: typecheck(SIG, (("x", "Die"),), Term((), Return(("x",)))), UnknownGenerator,
     "context uses undeclared type Die"),
    (lambda: substitute(Term((), Return(("x",))), "x", "u", (("x", "Coin"),)), UnboundVariable,
     "x or u not in the ambient context"),
])
def test_signature_typing_and_substitution_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_alpha_eq_is_false_for_contexts_of_other_types_and_for_non_terms():
    x, y = Term((), Return(("x",))), Term((), Return(("y",)))
    assert not alpha_eq(x, y, (("x", "Coin"),), (("y", "Door"),))
    assert alpha_eq(x, y, (("x", "Coin"),), (("y", "Coin"),))
    assert not alpha_eq("junk", "junk")
    junk = Term(("junk",), Return(()))
    assert not alpha_eq(junk, junk)
