"""Finite functions, the module action, composition, whiskering, tensoring."""

import random
import sys
from itertools import product

import pytest

from arrowlang.combinator import (
    CGen,
    CObs,
    CombTerm,
    act,
    comb_compose,
    comb_identity,
    comb_tensor,
    comb_whisker_left,
    comb_whisker_right,
    decode,
    encode,
    FiniteFunction,
    ff,
    ff_collapse,
    ff_compose,
    ff_identity,
    ff_incl_left,
    ff_incl_right,
    ff_symmetry,
    ff_whisker_left,
    ff_whisker_right,
)
from arrowlang.errors import ArityMismatch, TypeMismatch
from arrowlang.parser import load_file, load_text
from arrowlang.proptest import (
    GenBudget,
    gen_ff,
    gen_interpretation,
    gen_reindexing,
    gen_term,
    gen_term_for_ctx,
)
from arrowlang.semantics import interpret, semantics_of_comb
from arrowlang.syntax import (
    Generator,
    Return,
    Signature,
    Term,
    TypedTerm,
    alpha_eq,
    typecheck,
)
from test_cli import PUZZLES, _straight_line

BUDGET = GenBudget(max_statements=4)


def comb_pair(rng):
    """A random composable pair of combinator terms plus an interpretation."""
    sig, ctx, term = gen_term(BUDGET, rng)
    s = encode(typecheck(sig, ctx, term))
    t = encode(gen_term_for_ctx(BUDGET, rng, sig, s.out_types))
    interp = gen_interpretation(BUDGET, sig, rng)
    return s, t, interp


# -- finite function formulas ---------------------------------------------------


def test_compose_indexes_through_the_second_list():
    assert ff_compose(ff([2, 1, 1], 2), ff([3, 1], 3)) == ff([1, 2], 2)


def test_compose_identity():
    alpha = ff([2, 1, 1], 3)
    assert ff_compose(alpha, ff_identity(3)) == alpha
    assert ff_compose(ff_identity(3), alpha) == alpha


def test_compose_arity_checked():
    with pytest.raises(ArityMismatch):
        ff_compose(ff([1], 2), ff([2], 2))


def test_symmetry_formula():
    assert ff_symmetry(2, 1) == ff([3, 1, 2], 3)


def test_symmetry_involutive_exhaustive():
    for n in range(5):
        for m in range(5):
            left = ff_compose(ff_symmetry(n, m), ff_symmetry(m, n))
            assert left == ff_identity(n + m)


def test_inclusions():
    assert ff_incl_left(2, 3) == ff([1, 2], 5)
    assert ff_incl_right(2, 3) == ff([4, 5], 5)


def test_collapse_formula():
    assert ff_collapse(ff([1, 3], 3)) == ff([1, 2, 1], 3)
    assert ff_collapse(ff([2, 2], 3)) == ff_identity(3)


def test_collapse_after_pair_hits_first_position():
    # the idempotency shape: beta then its collapse selects beta(1) twice
    for n in range(1, 5):
        for b1 in range(1, n + 1):
            for b2 in range(1, n + 1):
                beta = ff([b1, b2], n)
                both = beta.then(ff_collapse(beta))
                assert both.targets[0] == both.targets[1]


def test_whiskering_formulas():
    alpha = ff([2, 1], 2)
    assert ff_whisker_left(2, alpha) == ff([1, 2, 4, 3], 4)
    assert ff_whisker_right(alpha, 2) == ff([2, 1, 3, 4], 4)


def test_compose_associative_exhaustive_small():
    fs = [ff(t, 2) for t in product([1, 2], repeat=2)]
    for a, b, c in product(fs, repeat=3):
        assert ff_compose(ff_compose(a, b), c) == ff_compose(a, ff_compose(b, c))


def test_gen_ff_respects_codomain():
    rng = random.Random(5)
    for _ in range(100):
        f = gen_ff(BUDGET, rng)
        assert all(1 <= t <= f.cod for t in f.targets)


# -- the module action -----------------------------------------------------------


def test_act_identity_is_identity():
    rng = random.Random(1)
    for _ in range(50):
        sig, ctx, term = gen_term(BUDGET, rng)
        t = encode(typecheck(sig, ctx, term))
        assert act(ff_identity(len(t.in_types)), t, t.in_types) == t


def test_act_module_law():
    rng = random.Random(2)
    done = 0
    while done < 50:
        sig, ctx, term = gen_term(BUDGET, rng)
        t = encode(typecheck(sig, ctx, term))
        psi, ctx_q = gen_reindexing(rng, t.in_types)
        phi, ctx_r = gen_reindexing(rng, ctx_q)
        lhs = act(phi, act(psi, t, ctx_q), ctx_r)
        rhs = act(ff_compose(phi, psi), t, ctx_r)
        assert lhs == rhs
        done += 1


def test_act_preserves_semantics_ofgen_reindexing():
    rng = random.Random(3)
    for _ in range(25):
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        t = encode(tt)
        psi, ctx_q = gen_reindexing(rng, t.in_types)
        interp = gen_interpretation(BUDGET, sig, rng)
        moved = act(psi, t, ctx_q)
        chan = semantics_of_comb(t, interp)
        chan_moved = semantics_of_comb(moved, interp)
        for env, value in chan_moved.items():
            pulled = tuple(env[psi(i) - 1] for i in range(1, psi.dom + 1))
            assert value == chan[pulled]


def test_act_distributes_over_composition():
    rng = random.Random(4)
    for _ in range(50):
        s, t, _ = comb_pair(rng)
        phi, new_ctx = gen_reindexing(rng, s.in_types)
        lhs = act(phi, comb_compose(s, t), new_ctx)
        rhs = comb_compose(act(phi, s, new_ctx), t)
        assert lhs == rhs


# -- composition -------------------------------------------------------------------


def test_compose_ret_is_action():
    rng = random.Random(6)
    for _ in range(25):
        s, t, _ = comb_pair(rng)
        ret = CombTerm((), s.sel, s.ctx)
        assert comb_compose(ret, t) == act(ret.sel, t, ret.ctx)


def test_compose_unital():
    rng = random.Random(7)
    for _ in range(50):
        sig, ctx, term = gen_term(BUDGET, rng)
        s = encode(typecheck(sig, ctx, term))
        assert comb_compose(comb_identity(s.in_types), s) == s
        assert comb_compose(s, comb_identity(s.out_types)) == s


def test_compose_associative():
    rng = random.Random(8)
    for _ in range(50):
        sig, ctx, term = gen_term(BUDGET, rng)
        s = encode(typecheck(sig, ctx, term))
        t = encode(gen_term_for_ctx(BUDGET, rng, sig, s.out_types))
        r = encode(gen_term_for_ctx(BUDGET, rng, sig, t.out_types))
        assert comb_compose(comb_compose(s, t), r) == comb_compose(s, comb_compose(t, r))


def test_compose_semantics_is_kleisli():
    from arrowlang.subdist import kleisli_extend

    rng = random.Random(9)
    for _ in range(25):
        s, t, interp = comb_pair(rng)
        composed = semantics_of_comb(comb_compose(s, t), interp)
        chan_s = semantics_of_comb(s, interp)
        chan_t = semantics_of_comb(t, interp)
        # channels are keyed by input tuples; an outcome over one variable is bare
        unflatten = (lambda mid: (mid,)) if len(t.in_types) == 1 else (lambda mid: mid)
        for env, value in composed.items():
            pushed = kleisli_extend(lambda mid: chan_t[unflatten(mid)], chan_s[env])
            assert value == pushed


def test_compose_type_mismatch():
    x = comb_identity(("A",))
    y = comb_identity(("A", "A"))
    with pytest.raises(TypeMismatch):
        comb_compose(x, y)


# -- whiskering and tensoring ----------------------------------------------------------


def test_whisker_by_empty_list_is_identity():
    rng = random.Random(10)
    for _ in range(25):
        sig, ctx, term = gen_term(BUDGET, rng)
        t = encode(typecheck(sig, ctx, term))
        assert comb_whisker_left((), t) == t
        assert comb_whisker_right(t, ()) == t


def test_whisker_left_of_ret():
    t = CombTerm((), ff([2, 1], 2), ("A", "B"))
    assert comb_whisker_left(("C",), t) == CombTerm((), ff([1, 3, 2], 3), ("C", "A", "B"))


def test_whisker_left_functorial():
    rng = random.Random(11)
    for _ in range(50):
        s, t, _ = comb_pair(rng)
        pad = ("A",) * rng.randint(1, 2)
        lhs = comb_compose(comb_whisker_left(pad, s), comb_whisker_left(pad, t))
        rhs = comb_whisker_left(pad, comb_compose(s, t))
        assert lhs == rhs


def test_whisker_right_functorial_semantically():
    rng = random.Random(12)
    for _ in range(25):
        s, t, interp = comb_pair(rng)
        pool = sorted(interp.carriers)
        pad = (rng.choice(pool),)
        lhs = comb_compose(comb_whisker_right(s, pad), comb_whisker_right(t, pad))
        rhs = comb_whisker_right(comb_compose(s, t), pad)
        assert semantics_of_comb(lhs, interp) == semantics_of_comb(rhs, interp)


def test_tensor_unit():
    rng = random.Random(13)
    for _ in range(25):
        sig, ctx, term = gen_term(BUDGET, rng)
        t = encode(typecheck(sig, ctx, term))
        assert comb_tensor(t, comb_identity(())) == t
        assert comb_tensor(comb_identity(()), t) == t


def test_tensor_of_returns_is_block_return():
    alpha = ff([2, 1], 2)
    beta = ff([1, 1], 1)
    t1 = CombTerm((), alpha, ("A", "B"))
    t2 = CombTerm((), beta, ("C",))
    expected = CombTerm((), ff([2, 1, 3, 3], 3), ("A", "B", "C"))
    assert comb_tensor(t1, t2) == expected


def test_interchange_law_semantically():
    rng = random.Random(14)
    for _ in range(25):
        sig, ctx1, term1 = gen_term(BUDGET, rng)
        t1 = encode(typecheck(sig, ctx1, term1))
        t2 = encode(gen_term_for_ctx(BUDGET, rng, sig,
                                     tuple(rng.choice(sorted(sig.types)) for _ in range(rng.randint(0, 2)))))
        interp = gen_interpretation(BUDGET, sig, rng)
        first = comb_compose(comb_whisker_right(t1, t2.in_types),
                             comb_whisker_left(t1.out_types, t2))
        second = comb_compose(comb_whisker_left(t1.in_types, t2),
                              comb_whisker_right(t1, t2.out_types))
        assert semantics_of_comb(first, interp) == semantics_of_comb(second, interp)


def test_tensor_preserves_semantics():
    from arrowlang.subdist import tensor as sd_tensor

    rng = random.Random(15)
    for _ in range(25):
        sig, ctx1, term1 = gen_term(BUDGET, rng)
        t1 = encode(typecheck(sig, ctx1, term1))
        t2 = encode(gen_term_for_ctx(BUDGET, rng, sig,
                                     tuple(rng.choice(sorted(sig.types)) for _ in range(rng.randint(0, 2)))))
        interp = gen_interpretation(BUDGET, sig, rng)
        chan = semantics_of_comb(comb_tensor(t1, t2), interp)
        c1 = semantics_of_comb(t1, interp)
        c2 = semantics_of_comb(t2, interp)
        for env, value in chan.items():
            v1 = env[: len(t1.in_types)]
            v2 = env[len(t1.in_types):]
            assert value == sd_tensor(c1[v1], c2[v2])


# -- encoding round trips -----------------------------------------------------------


def test_encode_identity_projection():
    tt = typecheck(Signature(frozenset({"X"})), (("x1", "X"),), Term((), Return(("x1",))))
    assert encode(tt) == CombTerm((), ff([1], 1), ("X",))


def test_decode_compare_map():
    from arrowlang.combinator import structure_maps

    _, _, compare = structure_maps(("X",))
    decoded = decode(compare)
    from arrowlang.syntax import Observe

    assert decoded.term == Term((Observe("v1", "v2"),), Return(("v1",)))


@pytest.mark.parametrize("path", sorted(PUZZLES.glob("*.arrow")), ids=lambda p: p.stem)
def test_every_puzzle_has_a_combinator_form(path):
    # an observe of a literal is a sample with no outputs, so it encodes like any other
    prog = load_file(path)
    c = encode(prog.typed)
    assert alpha_eq(decode(c, prog.typed.sig).term, prog.typed.term)
    assert semantics_of_comb(c, prog.interp) == {(): interpret(prog.typed, prog.interp)}


def test_round_trip_random_terms():
    rng = random.Random(16)
    for _ in range(100):
        sig, ctx, term = gen_term(BUDGET, rng)
        tt = typecheck(sig, ctx, term)
        c = encode(tt)
        back = decode(c, sig)
        assert alpha_eq(back.term, term, back.ctx, ctx)
        assert encode(back) == c


# -- copy, discard, compare ------------------------------------------------------


def _chan(term, carriers={"X": ("u", "v"), "Y": ("p", "q", "r")}):
    from arrowlang.semantics import Interpretation, semantics_of_comb

    return semantics_of_comb(term, Interpretation(carriers, {}))


def test_structure_maps_atomic_forms():
    from arrowlang.combinator import structure_maps

    copy, discard, compare = structure_maps(("X",))
    assert copy == CombTerm((), ff([1, 1], 1), ("X",))
    assert discard == CombTerm((), ff([], 1), ("X",))
    assert compare == CombTerm((CObs(ff([1, 2], 2)),), ff([1], 2), ("X", "X"))


def test_structure_maps_empty_list():
    from arrowlang.combinator import structure_maps

    copy, discard, compare = structure_maps(())
    assert copy == discard == compare == comb_identity(())


def test_partial_frobenius_laws():
    from arrowlang.combinator import structure_maps

    for obj in (("X",), ("X", "Y")):
        copy, discard, compare = structure_maps(obj)
        ident = comb_identity(obj)
        # comultiplication associative, counit neutral
        assert comb_compose(copy, comb_whisker_right(copy, obj)) == comb_compose(
            copy, comb_whisker_left(obj, copy)
        )
        assert comb_compose(copy, comb_whisker_right(discard, obj)) == ident
        assert comb_compose(copy, comb_whisker_left(obj, discard)) == ident
        # compare is right inverse to copy (semantically)
        assert _chan(comb_compose(copy, compare)) == _chan(ident)
        # compare associative (semantically)
        assoc_l = comb_compose(comb_whisker_right(compare, obj), compare)
        assoc_r = comb_compose(comb_whisker_left(obj, compare), compare)
        assert _chan(assoc_l) == _chan(assoc_r)
        # the Frobenius rule
        frob_l = comb_compose(comb_whisker_right(copy, obj), comb_whisker_left(obj, compare))
        frob_r = comb_compose(comb_whisker_left(obj, copy), comb_whisker_right(compare, obj))
        assert _chan(frob_l) == _chan(frob_r)


def test_structure_maps_extend_by_uniformity():
    from arrowlang.combinator import structure_maps

    copy_x, discard_x, compare_x = structure_maps(("X",))
    copy_y, discard_y, compare_y = structure_maps(("Y",))
    copy_xy, discard_xy, compare_xy = structure_maps(("X", "Y"))
    # copy_{X,Y} = (copy_X tensor copy_Y) ; (id x swap x id)
    swap_mid = CombTerm(
        (), ff([1, 3, 2, 4], 4), ("X", "X", "Y", "Y")
    )
    built_copy = comb_compose(comb_tensor(copy_x, copy_y), swap_mid)
    assert _chan(built_copy) == _chan(copy_xy)
    # discard_{X,Y} = discard_X tensor discard_Y
    assert _chan(comb_tensor(discard_x, discard_y)) == _chan(discard_xy)
    # compare_{X,Y} = (id x swap x id) ; (compare_X tensor compare_Y)
    swap_in = CombTerm((), ff([1, 3, 2, 4], 4), ("X", "Y", "X", "Y"))
    built_compare = comb_compose(swap_in, comb_tensor(compare_x, compare_y))
    assert _chan(built_compare) == _chan(compare_xy)


def test_frobenius_composite_of_copy_and_compare():
    from arrowlang.combinator import ff_collapse, structure_maps

    copy, _, compare = structure_maps(("X",))
    composite = comb_compose(comb_whisker_left(("X",), copy),
                             comb_whisker_right(compare, ("X",)))
    # definitional steps land on obs([1,2]); ret([1,2]) ...
    penultimate = CombTerm((CObs(ff([1, 2], 2)),), ff([1, 2], 2), ("X", "X"))
    assert composite == penultimate
    # ... and one rewrite of the return along the collapse map reaches
    # ret([1,1]), with the same semantics
    ret = CombTerm((), penultimate.sel, penultimate.ctx)
    moved = act(ff_collapse(ff([1, 2], 2)), ret, ("X", "X"))
    collapsed = CombTerm(penultimate.heads + moved.heads, moved.sel, moved.ctx)
    assert collapsed == CombTerm((CObs(ff([1, 2], 2)),), ff([1, 1], 2), ("X", "X"))
    assert _chan(composite) == _chan(collapsed)


# -- the types each term stores ------------------------------------------------------


def _rest(term):
    """The term after its first statement."""
    return CombTerm(term.heads[1:], term.sel, term.ctx)


def _reference_in_types(term):
    """A term's context by the recursive definition, from the term after
    its first statement."""
    if not term.heads:
        return term.ctx
    inner = _reference_in_types(_rest(term))
    if isinstance(term.heads[0], CObs):
        return inner
    return inner[: len(inner) - len(term.heads[0].gen.outputs)]


def _reference_out_types(term):
    if not term.heads:
        return tuple(term.ctx[t - 1] for t in term.sel.targets)
    return _reference_out_types(_rest(term))


def test_stored_types_match_the_recursive_definition():
    from arrowlang.combinator import structure_maps

    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        s, t, interp = comb_pair(rng)
        types = sorted(interp.carriers)
        z = tuple(rng.choice(types) for _ in range(rng.randint(0, 3)))
        phi, new_ctx = gen_reindexing(rng, s.in_types)
        terms = [s, t, act(phi, s, new_ctx), comb_compose(s, t),
                 comb_whisker_left(z, s), comb_whisker_right(s, z), comb_tensor(s, t),
                 *structure_maps(z)]
        for term in terms:
            # every suffix: the statements from the i-th on, then the return
            for i in range(len(term.heads) + 1):
                node = CombTerm(term.heads[i:], term.sel, term.ctx)
                assert node.in_types == _reference_in_types(node)
                # the i-th statement's context is a prefix of the one stored
                assert term.ctx[: node.arity] == _reference_in_types(node)
                assert node.out_types == _reference_out_types(node)
                checked += 1
    assert checked > 1000


# -- long terms: every pass is one loop over the statements ---------------------------


def _every_pass(tt):
    """Encode, then act, compose, whisker, tensor and decode the result."""
    c = encode(tt)
    wide = act(ff([], 2), c, ("S", "S"))  # two unused inputs shift every position
    same = comb_compose(comb_identity(wide.in_types), wide)
    left = comb_whisker_left(("S",), same)
    right = comb_whisker_right(same, ("S",))
    both = comb_tensor(left, right)
    return c, wide, same, left, right, both, decode(both)


def test_ten_thousand_statements_through_every_combinator_pass():
    assert sys.getrecursionlimit() == 1000
    tt = load_text(_straight_line(10_000)[0]).typed
    c, wide, same, left, right, both, back = _every_pass(tt)
    assert len(c.heads) == 9_999
    assert [type(h) for h in c.heads[9:13]] == [CGen, CGen, CObs, CGen]
    assert wide.in_types == ("S", "S") and wide.ctx == ("S", "S") + c.ctx
    assert same == wide and hash(same) == hash(wide)
    assert act(ff_identity(0), c, ()) == c
    assert left.in_types == ("S",) * 3 and left.out_types == ("S",) * 3
    assert right.in_types == ("S",) * 3 and right.out_types == ("S",) * 3
    assert len(both.heads) == 2 * 9_999 and both.in_types == ("S",) * 6
    assert encode(back) == both
    roundtrip = decode(c, tt.sig)
    assert alpha_eq(roundtrip.term, tt.term, roundtrip.ctx, tt.ctx)
    text = repr(both)
    assert text.startswith("CombTerm(heads=(CGen(") and text.count("CObs(") == 2 * 999


def _selector_entries(n, monkeypatch):
    """Selector entries built by `_every_pass` on an n-statement program."""
    tt = load_text(_straight_line(n)[0]).typed
    built = [0]
    check = FiniteFunction.__post_init__

    def counting(self):
        built[0] += len(self.targets)
        check(self)

    with monkeypatch.context() as m:
        m.setattr(FiniteFunction, "__post_init__", counting)
        _every_pass(tt)
    return built[0]


def test_combinator_passes_build_linearly_many_selector_entries(monkeypatch):
    small = _selector_entries(1_000, monkeypatch)
    large = _selector_entries(4_000, monkeypatch)
    assert small > 1_000
    assert large <= 4.5 * small


def _g(inputs, outputs):
    return Generator("g", inputs, outputs)


@pytest.mark.parametrize("heads, sel, ctx, error, message", [
    ((), ff([1], 3), ("A", "B"), ArityMismatch, "selector codomain 3 != context length 2"),
    ((CGen(_g((), ("A", "B")), ff([], 1)),), ff([], 1), ("A",), TypeMismatch,
     "context is shorter than the generators' outputs"),
    ((CObs(ff([1], 2)),), ff([], 2), ("A", "A"), ArityMismatch,
     "observe needs a selector with domain 2"),
    ((CObs(ff([1, 2], 3)),), ff([], 2), ("A", "A"), ArityMismatch,
     "observe selector does not match the context"),
    ((CObs(ff([1, 2], 2)),), ff([], 2), ("A", "B"), TypeMismatch,
     "observe compares positions of different types"),
    ((CGen(_g(("A",), ("B",)), ff([1], 2)),), ff([], 2), ("A", "B"), ArityMismatch,
     "argument selector does not match the context"),
    ((CGen(_g(("A", "A"), ("B",)), ff([1], 1)),), ff([], 2), ("A", "B"), ArityMismatch,
     "g expects 2 arguments"),
    ((CGen(_g(("B",), ("B",)), ff([1], 1)),), ff([], 2), ("A", "B"), TypeMismatch,
     "arguments ('A',) do not match ('B',)"),
    ((CGen(_g(("A",), ("A",)), ff([1], 1)),), ff([], 2), ("A", "B"), TypeMismatch,
     "context does not continue with g's outputs"),
    (("x",), ff([], 1), ("A",), TypeMismatch, "not a statement: 'x'"),
])
def test_comb_term_rejects_ill_formed_terms(heads, sel, ctx, error, message):
    with pytest.raises(error) as exc:
        CombTerm(heads, sel, ctx)
    assert str(exc.value) == message


@pytest.mark.parametrize("call, error, message", [
    (lambda: FiniteFunction((), -1), ArityMismatch, "negative codomain -1"),
    (lambda: ff([3], 2), ArityMismatch, "target 3 outside 1..2"),
    (lambda: ff([1], 1)(2), ArityMismatch, "index 2 outside 1..1"),
    (lambda: ff([1], 2).then(ff([1], 1)), ArityMismatch, "cannot chain cod 2 into dom 1"),
    (lambda: ff_collapse(ff([1], 1)), ArityMismatch, "collapse needs a function with domain 2"),
    (lambda: act(ff([1, 2], 2), comb_identity(("A",)), ("A", "A")), ArityMismatch,
     "action domain 2 != context length 1"),
    (lambda: act(ff([1], 2), comb_identity(("A",)), ("A",)), ArityMismatch,
     "target context length 1 != codomain 2"),
    (lambda: act(ff([1], 1), comb_identity(("A",)), ("B",)), TypeMismatch,
     "position 1 is B, expected A"),
    # a TypedTerm built directly, past the typing rule
    (lambda: encode(TypedTerm(Signature(frozenset({"A"})), (), Term((), Return(("x",))), ("A",))),
     TypeMismatch, "variable x not in context"),
    (lambda: encode(TypedTerm(Signature(frozenset({"A"})), (), Term(("junk",), Return(())), ())),
     TypeMismatch, "not a term node: 'junk'"),
])
def test_finite_functions_action_and_encode_reject_bad_arguments(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
