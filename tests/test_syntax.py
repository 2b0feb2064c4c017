"""Typing rules, alpha equivalence, substitution, and axiom rewrites."""

import hashlib
import sys
from dataclasses import replace
from fractions import Fraction as Q

import pytest

import puzzle_programs
from arrowlang import syntax
from arrowlang.errors import (
    NonFreshOutput,
    NotApplicable,
    PredicateTypeError,
    TypeMismatch,
    UnboundVariable,
    UnknownGenerator,
)
from arrowlang.parser import SAtom, load_text
from arrowlang.proptest import GenBudget, gen_term, oracle_denote
from arrowlang.semantics import interpret
from arrowlang.subdist import Subdist
from arrowlang.syntax import (
    AXIOM_IDS,
    Atom,
    Generator,
    Observe,
    ObservePred,
    PLit,
    Return,
    Sample,
    Signature,
    alpha_eq,
    applicable_steps,
    axiom_step,
    from_statements,
    render_statement,
    statements,
    substitute,
    typecheck,
)
from test_cli import _straight_line
from test_parser import BUILDERS

COIN = Generator("flip", (), ("Coin",))
STEP = Generator("step", ("Coin",), ("Coin",))
PAIR = Generator("pair", ("Coin",), ("Coin", "Door"))
SIG = Signature(frozenset({"Coin", "Door"}), {g.name: g for g in (COIN, STEP, PAIR)})


def test_return_repeats_variables():
    tt = typecheck(SIG, (("x", "Coin"),), Return(("x", "x")))
    assert tt.out_types == ("Coin", "Coin")


def test_observe_type_mismatch():
    term = Observe("x", "y", Return(("x",)))
    with pytest.raises(TypeMismatch):
        typecheck(SIG, (("x", "Coin"), ("y", "Door")), term)


def test_monty_hall_shape_typechecks():
    # the Monty Hall program shape under a matching signature
    door = Generator("pick", (), ("Door",))
    host = Generator("host", ("Door",), ("Door",))
    sig = Signature(frozenset({"Door"}), {"pick": door, "host": host})
    term = Sample(door, (), ("car",),
                  Sample(host, ("car",), ("h",),
                         Observe("h", "h", Return(("car",)))))
    tt = typecheck(sig, (), term)
    assert tt.out_types == ("Door",)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        typecheck(SIG, (), Return(("x",)))


def test_unknown_generator():
    rogue = Generator("rogue", (), ("Coin",))
    with pytest.raises(UnknownGenerator):
        typecheck(SIG, (), Sample(rogue, (), ("x",), Return(("x",))))


def test_non_fresh_output():
    term = Sample(COIN, (), ("x",), Sample(COIN, (), ("x",), Return(("x",))))
    with pytest.raises(NonFreshOutput):
        typecheck(SIG, (), term)


def test_argument_type_checked():
    term = Sample(STEP, ("d",), ("y",), Return(("y",)))
    with pytest.raises(TypeMismatch):
        typecheck(SIG, (("d", "Door"),), term)


# -- alpha equivalence -------------------------------------------------------


def test_alpha_bound_rename():
    t1 = Sample(STEP, ("x",), ("y",), Return(("y",)))
    t2 = Sample(STEP, ("x",), ("z",), Return(("z",)))
    assert alpha_eq(t1, t2)


def test_alpha_different_projection():
    t1 = Sample(STEP, ("x",), ("y",), Return(("y",)))
    t2 = Sample(STEP, ("x",), ("y",), Return(("x",)))
    assert not alpha_eq(t1, t2)


def test_alpha_free_variables_matter():
    t1 = Return(("x",))
    t2 = Return(("y",))
    assert not alpha_eq(t1, t2)


def test_alpha_whole_program_rename():
    # two transcriptions of the same program with different bound names
    def program(car, host):
        pick = Generator("pick", (), ("Door",))
        h = Generator("host", ("Door",), ("Door",))
        return Sample(pick, (), (car,),
                      Sample(h, (car,), (host,),
                             Observe(host, host, Return((car,)))))

    assert alpha_eq(program("car", "h"), program("c", "opened"))


# -- substitution --------------------------------------------------------------


def test_substitute_return():
    assert substitute(Return(("x", "y")), "x", "u") == Return(("u", "y"))


def test_substitute_observe():
    t = Observe("x", "y", Return(("x",)))
    assert substitute(t, "x", "u") == Observe("u", "y", Return(("u",)))


def test_substitute_leaves_bound_outputs():
    t = Sample(STEP, ("x",), ("z",), Return(("z", "x")))
    assert substitute(t, "x", "u") == Sample(STEP, ("u",), ("z",), Return(("z", "u")))


def test_substitute_type_checked_against_context():
    with pytest.raises(TypeMismatch):
        substitute(Return(("x",)), "x", "d", ctx=(("x", "Coin"), ("d", "Door")))


def test_substitute_two_thousand_statements_at_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    heads = []
    for i in range(1, 1_001):
        heads += [Sample(STEP, ("x",), (f"z{i}",), None), Observe("x", f"z{i}", None)]
    t = from_statements(heads, Return(("x", "z1000")))
    done = substitute(t, "x", "u", ctx=(("x", "Coin"), ("u", "Coin")))
    moved, ret = statements(done)
    assert len(moved) == 2_000 and ret == Return(("u", "z1000"))
    assert moved[-2:] == [Sample(STEP, ("u",), ("z1000",), moved[-1]),
                          Observe("u", "z1000", ret)]
    assert alpha_eq(substitute(done, "u", "x"), t)


def test_long_terms_compare_hash_and_print_at_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    heads = []
    for i in range(1, 1_001):
        heads += [Sample(STEP, ("x",), (f"z{i}",), None), Observe("x", f"z{i}", None)]
    t = from_statements(heads, Return(("x", "z1000")))
    done = substitute(t, "x", "u", ctx=(("x", "Coin"), ("u", "Coin")))
    back = substitute(done, "u", "x")
    assert back == t and back is not t and done != t
    assert from_statements(heads, Return(("x",))) != t  # differs only in the return
    assert hash(back) == hash(t)
    step = "Sample(gen=Generator(name='step', inputs=('Coin',), outputs=('Coin',)), args=('x',), "
    text = repr(t)
    assert text.startswith(f"{step}outs=('z1',), cont=Observe(left='x', right='z1', cont={step}")
    assert text.endswith("cont=Return(vars=('x', 'z1000'))" + ")" * 2_000)


def test_statement_repr_is_the_dataclass_text():
    t = Sample(PAIR, ("c",), ("d", "e"), Observe("d", "d", ObservePred((), Return(("e",)))))
    assert repr(t) == (
        "Sample(gen=Generator(name='pair', inputs=('Coin',), outputs=('Coin', 'Door')), "
        "args=('c',), outs=('d', 'e'), cont=Observe(left='d', right='d', "
        "cont=ObservePred(pred=(), cont=Return(vars=('e',)))))")
    assert repr(Observe("a", "b", None)) == "Observe(left='a', right='b', cont=None)"
    assert t == Sample(PAIR, ("c",), ("d", "e"), Observe("d", "d", ObservePred((), Return(("e",)))))
    assert t != Sample(PAIR, ("c",), ("d", "e"), Observe("d", "d", Return(("e",))))
    assert Observe("a", "b", None) != ObservePred((), None) and t != "t"
    assert len({t, Observe("a", "b", None), Observe("a", "b", None)}) == 2



# -- long predicates at the default recursion limit --------------------------------


def _chain(n: int, guide: str = "guide") -> tuple:
    """The conjunction of n atoms that cycles through ``A IN ports``,
    ``guide != B``, ``coin = coin`` and ``A = guide``."""
    a, b = PLit("A", "Port"), PLit("B", "Port")
    cycle = (Atom("IN", a, "ports"), Atom("!=", guide, b),
             Atom("=", "coin", "coin"), Atom("=", a, guide))
    return tuple(cycle[i % 4] for i in range(n))


def _sailor_observing(pred, guide: str = "guide"):
    """The sailor's child term with its observe replaced by ``pred``."""
    tt, _ = puzzle_programs.sailors_child()
    (coin, book, ports, _), ret = statements(tt.term)
    return from_statements([coin, replace(book, outs=(guide,)),
                            replace(ports, args=("coin", guide)), ObservePred(pred, None)], ret)


@pytest.mark.parametrize("entry, message", [
    (Atom("<", "x", PLit("H", "Coin")),
     "not a predicate atom: Atom(op='<', left='x', right=PLit(value='H', type='Coin'))"),
    (Atom("==", "x", "x"), "not a predicate atom: Atom(op='==', left='x', right='x')"),
    ("junk", "not a predicate atom: 'junk'"),
    (("=", "x", "x"), "not a predicate atom: ('=', 'x', 'x')"),
    (SAtom("=", "x", "H"), "not a predicate atom: SAtom(op='=', left='x', right='H')"),
])
def test_typing_rejects_a_predicate_entry_the_engine_cannot_evaluate(entry, message):
    # the entry is rejected where the observe is built, so neither the
    # typing rule nor the engine nor the oracle ever meets it
    ok = Atom("=", "x", PLit("H", "Coin"))
    for pred in ((entry,), (ok, entry)):
        with pytest.raises(PredicateTypeError) as caught:
            ObservePred(pred, Return(("x",)))
        assert str(caught.value) == message
    # typing knows no carriers: IN over a variable of a symbol type is the engine's to reject
    term = Sample(COIN, (), ("x",), ObservePred((Atom("IN", PLit("H", "Coin"), "x"),),
                                                Return(("x",))))
    assert typecheck(SIG, (), term).out_types == ("Coin",)


def test_ten_thousand_atom_observe_at_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    tt, interp = puzzle_programs.sailors_child()
    pred = _chain(10_000)
    term = _sailor_observing(pred)
    typed = typecheck(tt.sig, (), term)
    assert typed.out_types == ("Coin",)
    last_wrong = pred[:-1] + (Atom("=", "coin", PLit("A", "Port")),)
    with pytest.raises(TypeMismatch) as caught:
        typecheck(tt.sig, (), _sailor_observing(last_wrong))
    assert str(caught.value) == "comparison between Coin and Port in OBSERVE(coin = A)"
    assert render_statement(statements(term)[0][3]) == (
        "OBSERVE(" + " AND ".join(["A IN ports AND guide != B AND coin = coin AND A = guide"]
                                  * 2_500) + ")")

    assert alpha_eq(_sailor_observing(_chain(10_000, "g"), "g"), term)
    assert not alpha_eq(_sailor_observing(last_wrong), term)
    assert not alpha_eq(_sailor_observing(pred[:-1]), term)

    copy = _sailor_observing(_chain(10_000))
    assert copy == term and copy is not term and hash(copy) == hash(term)
    assert _sailor_observing(pred[:-1]) != term
    text = repr(term)
    assert text.count("Atom(op='IN', left=PLit(value='A', type='Port'), right='ports')") == 2_500
    assert text.endswith("Atom(op='=', left=PLit(value='A', type='Port'), right='guide')), "
                         "cont=Return(vars=('coin',))))))")

    expected = Subdist({"H": Q(1, 4), "T": Q(1, 4)})
    assert oracle_denote(typed, interp) == expected
    assert interpret(typed, interp) == expected


def test_substitute_through_ten_thousand_atoms_at_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    a, b = PLit("A", "Port"), PLit("B", "Port")

    def chain(x: str) -> tuple:
        return tuple(Atom("!=", x, b) if i % 2 else Atom("=", a, x) for i in range(10_000))

    ctx = (("x", "Port"), ("u", "Port"))
    t = ObservePred(chain("x"), Return(("x",)))
    done = substitute(t, "x", "u", ctx=ctx)
    assert done == ObservePred(chain("u"), Return(("u",)))
    assert typecheck(Signature(frozenset({"Port"})), ctx, done).out_types == ("Port",)
    assert alpha_eq(substitute(done, "u", "x"), t) and not alpha_eq(done, t)


# -- axiom rewrites ---------------------------------------------------------------


def two_coins(ret):
    return Sample(COIN, (), ("x",), Sample(COIN, (), ("y",), ret))


def test_axiom_1a_swaps_independent_samples():
    t = two_coins(Return(("x", "y")))
    swapped = axiom_step(t, "1a", 0)
    heads, _ = statements(swapped)
    assert heads[0].outs == ("y",)
    assert heads[1].outs == ("x",)


def test_axiom_1a_blocked_by_dataflow():
    t = Sample(COIN, (), ("x",), Sample(STEP, ("x",), ("y",), Return(("y",))))
    with pytest.raises(NotApplicable):
        axiom_step(t, "1a", 0)


def test_axiom_1b_both_directions():
    t = Sample(COIN, (), ("y",), Observe("a", "b", Return(("y",))))
    ctx_term = axiom_step(t, "1b", 0, "fwd")
    heads, _ = statements(ctx_term)
    assert isinstance(heads[0], Observe)
    back = axiom_step(ctx_term, "1b", 0, "bwd")
    assert back == t


def test_axiom_1b_blocked_when_observe_uses_output():
    t = Sample(COIN, (), ("y",), Observe("y", "a", Return(("y",))))
    with pytest.raises(NotApplicable):
        axiom_step(t, "1b", 0, "fwd")


def test_axiom_2_swaps_operands():
    t = Observe("a", "b", Return(("a",)))
    assert axiom_step(t, "2", 0) == Observe("b", "a", Return(("a",)))


def test_axiom_3_propagates_equality():
    t = Observe("a", "b", Return(("a", "a")))
    assert axiom_step(t, "3", 0, "fwd") == Observe("a", "b", Return(("b", "b")))
    assert axiom_step(t, "3", 0, "bwd") == Observe("a", "b", Return(("a", "a")))


def test_axiom_4_deletes_self_observation():
    t = Observe("x", "x", Return(("x",)))
    assert axiom_step(t, "4", 0) == Return(("x",))


def test_axiom_4_requires_equal_variables():
    t = Observe("x", "y", Return(("x",)))
    with pytest.raises(NotApplicable):
        axiom_step(t, "4", 0)


def test_axiom_4_backward_not_applicable():
    with pytest.raises(NotApplicable):
        axiom_step(Return(("x",)), "4", 0, "bwd")


def test_symmetric_axioms_involutive():
    t = two_coins(Observe("x", "y", Return(("x",))))
    for which, pos in [("1a", 0), ("2", 2)]:
        once = axiom_step(t, which, pos)
        twice = axiom_step(once, which, pos)
        assert alpha_eq(twice, t)


def test_axiom_1c_involutive():
    t = Observe("a", "b", Observe("c", "d", Return(("a",))))
    assert alpha_eq(axiom_step(axiom_step(t, "1c", 0), "1c", 0), t)


def test_subject_reduction():
    ctx = (("a", "Coin"), ("b", "Coin"))
    t = Sample(COIN, (), ("x",),
               Sample(COIN, (), ("y",),
                      Observe("a", "b", Return(("x", "a")))))
    tt = typecheck(SIG, ctx, t)
    for which, pos, direction in applicable_steps(t):
        rewritten = axiom_step(t, which, pos, direction)
        tt2 = typecheck(SIG, ctx, rewritten)
        assert tt2.out_types == tt.out_types


def test_statement_round_trip():
    t = two_coins(Observe("x", "y", Return(("y",))))
    heads, ret = statements(t)
    assert from_statements(heads, ret) == t
    assert render_statement(heads[0]) == "x <- flip()"
    assert render_statement(heads[2]) == "OBSERVE(x = y)"
    assert render_statement(ret) == "RETURN(y)"


def _step_outcome(t, which, pos, direction):
    try:
        return repr(axiom_step(t, which, pos, direction))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def test_rewrites_are_pinned():
    # Every applicable_steps list, and every axiom_step outcome over all
    # axioms (and an unknown one), both directions (and an invalid one)
    # and every position from -1 to one past the end.
    terms = [gen_term(GenBudget(seed=seed))[2] for seed in range(500)]
    terms += [build()[0].term for build in BUILDERS.values()]
    digest = hashlib.sha256()
    for t in terms:
        digest.update(repr(list(applicable_steps(t))).encode() + b"\n")
        n = len(statements(t)[0])
        for which in AXIOM_IDS + ("5",):
            for direction in ("fwd", "bwd", "sideways"):
                for pos in range(-1, n + 2):
                    outcome = _step_outcome(t, which, pos, direction)
                    digest.update(repr(outcome).encode() + b"\n")
    assert digest.hexdigest() == (
        "f5d953af0568b03d8672854afe6661d1ebffc071899f1fef8f54ad080f4b2f18")


def test_ten_thousand_statement_rewrites_at_default_recursion_limit(monkeypatch):
    assert sys.getrecursionlimit() == 1000
    tt = load_text(_straight_line(10_000)[0]).typed
    t = tt.term
    heads, _ = statements(t)
    calls = {"statements": 0, "axiom_step": 0}

    def counted_statements(term):
        calls["statements"] += 1
        return statements(term)

    def counted_step(*args):
        calls["axiom_step"] += 1
        raise NotApplicable("counted")  # an enumeration by trial goes on, and is counted

    monkeypatch.setattr(syntax, "statements", counted_statements)
    monkeypatch.setattr(syntax, "axiom_step", counted_step)
    steps = list(applicable_steps(t))
    monkeypatch.undo()
    assert calls == {"statements": 1, "axiom_step": 0}
    last = max(pos for _, pos, _ in steps)
    kinds = [(which, direction) for which, pos, direction in steps if pos == last]
    assert kinds == [("1b", "bwd"), ("2", "fwd"), ("3", "fwd"), ("3", "bwd")]
    observe, sample = heads[last : last + 2]
    texts = [render_statement(h) for h in heads]
    swapped = Observe(observe.right, observe.left, None)
    mirrored = replace(sample, args=(observe.left,))
    expected = {("1b", "bwd"): [sample, observe], ("2", "fwd"): [swapped, sample],
                ("3", "fwd"): [observe, sample], ("3", "bwd"): [observe, mirrored]}
    for which, direction in kinds:
        rewritten = axiom_step(t, which, last, direction)
        assert typecheck(tt.sig, tt.ctx, rewritten).out_types == tt.out_types
        want = [*texts[:last], *map(render_statement, expected[which, direction]), *texts[last + 2 :]]
        assert [render_statement(h) for h in statements(rewritten)[0]] == want


@pytest.mark.parametrize("call, error, message", [
    (lambda: Signature(frozenset({"Coin"}), {"g": Generator("g", ("Coin",), ("Die",))}),
     UnknownGenerator, "generator g uses undeclared type Die"),
    (lambda: typecheck(SIG, (), ObservePred((Atom("=", "y", PLit("H", "Coin")),), Return(()))),
     UnboundVariable, "variable y not in scope"),
    (lambda: typecheck(SIG, (("x", "Coin"),), Observe("x", "y", Return(("x",)))),
     UnboundVariable, "variable y not in scope in OBSERVE(x = y)"),
    (lambda: typecheck(SIG, (), "junk"), TypeMismatch, "not a term node: 'junk'"),
    (lambda: typecheck(SIG, (("x", "Coin"), ("x", "Coin")), Return(("x",))), NonFreshOutput,
     "duplicate context variable x"),
    (lambda: typecheck(SIG, (("x", "Die"),), Return(("x",))), UnknownGenerator,
     "context uses undeclared type Die"),
    (lambda: substitute(Return(("x",)), "x", "u", (("x", "Coin"),)), UnboundVariable,
     "x or u not in the ambient context"),
])
def test_signature_typing_and_substitution_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_alpha_eq_is_false_for_contexts_of_other_types_and_for_non_terms():
    assert not alpha_eq(Return(("x",)), Return(("y",)), (("x", "Coin"),), (("y", "Door"),))
    assert alpha_eq(Return(("x",)), Return(("y",)), (("x", "Coin"),), (("y", "Coin"),))
    assert not alpha_eq("junk", "junk")
