"""Subdistribution core: exact arithmetic, tensor, restriction, rescaling."""

import random
import sys
from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from arrowlang.errors import (
    DomainError,
    EmptySupport,
    InvalidSubdistribution,
    NonNumericOutcome,
    PredicateTypeError,
    WeightTooLong,
)
from arrowlang import subdist
from arrowlang.semantics import Interpretation
from arrowlang.subdist import (
    FAILURE,
    Dollar,
    Subdist,
    dirac,
    expected_value,
    ket,
    kleisli_compose,
    kleisli_extend,
    normalize_channel,
    outcome_key,
    render_weight,
    rescale,
    restrict,
    tensor,
    uniform,
    zero,
)


# -- strategies ----------------------------------------------------------

symbols = st.sampled_from(["L", "M", "R", "H", "T", "a", "b", "A", "B", "C"])
atoms = symbols | st.integers(min_value=-20, max_value=20)


@st.composite
def subdists(draw, elements=atoms, max_size=4):
    xs = draw(st.lists(elements, min_size=0, max_size=max_size, unique=True))
    if not xs:
        return zero()
    denom = draw(st.integers(min_value=1, max_value=12))
    weights = []
    remaining = denom
    for _ in xs:
        w = draw(st.integers(min_value=0, max_value=remaining))
        weights.append(w)
        remaining -= w
    return Subdist({x: Q(w, denom) for x, w in zip(xs, weights) if w})


# -- construction and invariants ------------------------------------------


def test_dirac_point_mass():
    assert dirac("H").items() == (("H", Q(1)),)
    assert dirac("H").mass == 1


def test_dirac_tuple_point_mass():
    d = dirac(("M", "L"))
    assert d.weight(("M", "L")) == 1
    assert ket(d) == "1|M,L>"


def test_dirac_set_outcome():
    d = dirac(frozenset({"A", "B"}))
    assert ket(d) == "1|{A,B}>"


def test_uniform_three_doors():
    u = uniform(["L", "M", "R"])
    assert u.weight("L") == Q(1, 3)
    assert u.mass == 1
    assert ket(u) == "1/3|L> + 1/3|M> + 1/3|R>"


def test_uniform_singleton_and_pair():
    assert uniform(["H"]) == dirac("H")
    assert uniform(["a", "b"]).weight("a") == Q(1, 2)


def test_uniform_empty_rejected():
    with pytest.raises(EmptySupport):
        uniform([])


def test_zero_weights_dropped():
    s = Subdist({"x": Q(1, 2), "y": Q(0)})
    assert s.support() == ["x"]


def test_mass_bound_enforced():
    with pytest.raises(InvalidSubdistribution):
        Subdist({"x": Q(2, 3), "y": Q(1, 2)})


def test_float_weights_rejected():
    with pytest.raises(InvalidSubdistribution):
        Subdist({"x": 0.5})


def test_public_constructor_checks_mass_and_outcomes():
    # the evaluation engine hands over integer numerators over one
    # denominator, unchecked; the public constructor checks what it is given
    built = Subdist._of_numerators([("y", 2), ("x", 2), ("z", 3)], 21)
    assert built == Subdist({"x": Q(2, 21), "y": Q(2, 21), "z": Q(1, 7)})
    assert built.items() == Subdist({"x": Q(2, 21), "y": Q(2, 21), "z": Q(1, 7)}).items()
    assert built.mass == Q(1, 3)
    assert Subdist._of_numerators([("x", 5), ("y", 2)], 7).is_distribution()
    with pytest.raises(InvalidSubdistribution, match="total mass 8/7 exceeds 1"):
        Subdist([("x", Q(6, 7)), ("y", Q(2, 7))])
    with pytest.raises(InvalidSubdistribution):
        Subdist([(1.5, Q(1, 2))])
    with pytest.raises(InvalidSubdistribution, match=r"not an outcome: \['b'\]"):
        uniform(["a", ["b"]])


@pytest.mark.parametrize("bad, message", [
    (("a", 1.5), "not an outcome: 1.5"),
    ((1, ("b", frozenset({"c", 2.0}))), "not an outcome: 2.0"),
    (frozenset({"a", True}), "bool is not an outcome"),
    ((frozenset({("x", False)}),), "bool is not an outcome"),
    (["a", "b"], r"not an outcome: \['a', 'b'\]"),
    (("a", ["b"]), r"not an outcome: \['b'\]"),
    (None, "not an outcome: None"),
    (True, "bool is not an outcome"),
])
def test_every_edge_rejects_what_outcome_key_rejects(bad, message):
    # values are checked where they enter: the public constructor, `dirac`,
    # `uniform` and the carriers of an interpretation
    for ok in ("x", 3, Dollar(4), ("x", 3, Dollar(4)), frozenset({("x", frozenset({1}))})):
        Subdist._of_numerators([(ok, 1)], 2)
        assert Subdist([("fine", Q(1, 2)), (ok, Q(1, 2))]) == uniform(["fine", ok])
        assert dirac(ok).support() == [ok]
        Interpretation({"T": ("fine", ok)}, {})
    with pytest.raises(InvalidSubdistribution, match=message):
        outcome_key(bad)
    with pytest.raises(InvalidSubdistribution, match=message):
        Subdist([("fine", Q(1, 3)), (bad, Q(1, 3))])
    with pytest.raises(InvalidSubdistribution, match=message):
        dirac(bad)
    with pytest.raises(InvalidSubdistribution, match=message):
        uniform(["fine", bad])
    with pytest.raises(InvalidSubdistribution, match=message):
        Interpretation({"T": ("fine", bad)}, {})


def test_constructors_agree_in_any_insertion_order():
    # the same map, built in every insertion order by either constructor
    numerators = [(("M", "L"), 1), ("R", 2), (Dollar(3), 4), (frozenset({"a", "b"}), 1), (-1, 3)]
    canonical = ((-1, Q(1, 4)), (Dollar(3), Q(1, 3)), ("R", Q(1, 6)),
                 (("M", "L"), Q(1, 12)), (frozenset({"a", "b"}), Q(1, 12)))
    built = []
    for order in permutations(numerators):
        built.append(Subdist._of_numerators(list(order), 12))
        built.append(Subdist({x: Q(n, 12) for x, n in order}))
    assert len(built) == 240
    for d in built:
        assert d == built[0] and hash(d) == hash(built[0])
        assert d.items() == canonical
        assert d.support() == [x for x, _ in canonical]
        assert ket(d) == "1/4|-1> + 1/3|$3> + 1/6|R> + 1/12|M,L> + 1/12|{a,b}>"
    assert len(set(built)) == 1
    assert built[0] != Subdist._of_numerators([("R", 2)], 12)


# -- the stored form: integer numerators over one denominator -------------

OUTCOMES = ["L", "M", "R", 1, Dollar(1), -2, ("a", 3), ("a", Dollar(3)), frozenset({"x", 2})]


def _random_numerators(rng: random.Random) -> tuple[list, int]:
    """Distinct outcomes with positive numerators over a denominator they
    sum to no more than."""
    den = rng.randint(1, 40)
    entries, remaining = [], den
    for x in rng.sample(OUTCOMES, rng.randint(0, len(OUTCOMES))):
        if not remaining:
            break
        n = rng.randint(1, remaining)
        entries.append((x, n))
        remaining -= n
    return entries, den


def test_the_same_map_over_any_denominator_is_one_value():
    rng = random.Random(1901)
    for _ in range(400):
        entries, den = _random_numerators(rng)
        scale = rng.randint(2, 9)
        forms = [Subdist._of_numerators(entries, den),
                 Subdist._of_numerators([(x, n * scale) for x, n in reversed(entries)],
                                        den * scale),
                 Subdist({x: Q(n, den) for x, n in entries}),
                 Subdist([(x, Q(n * scale, den * scale)) for x, n in entries])]
        first = forms[0]
        for d in forms:
            assert d == first and first == d and not d != first
            assert hash(d) == hash(first)
            assert d.items() == first.items() and d.mass == first.mass
            assert ket(d) == ket(first)
        assert len(set(forms)) == 1
        if entries:
            # one numerator one less, over the scaled denominator: another map
            i = rng.randrange(len(entries))
            changed = [(x, n * scale - (j == i)) for j, (x, n) in enumerate(entries)]
            other = Subdist._of_numerators(changed, den * scale)
            for d in forms:
                assert d != other and other != d and not d == other


def test_two_quarters_is_one_half():
    half = Subdist({"x": Q(1, 2)})
    for same in (Subdist._of_numerators([("x", 2)], 4), Subdist({"x": Q(2, 4)}),
                 Subdist._of_numerators([("x", 1)], 2)):
        assert same == half and hash(same) == hash(half)
    nothing = Subdist._of_numerators([], 7)
    assert nothing == zero() and hash(nothing) == hash(zero())
    assert Subdist._of_numerators([("x", 2)], 4) != Subdist._of_numerators([("y", 2)], 4)
    assert Subdist._of_numerators([("x", 2)], 4) != Subdist._of_numerators([("x", 2)], 5)
    assert Subdist._of_numerators([("x", 1)], 2) != Subdist._of_numerators([("x", 1), ("y", 1)], 4)


def test_weights_past_the_digit_limit_compare_and_hash():
    digits = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) + 10
    big = 10**digits + 1
    a = Subdist._of_numerators([("x", big), ("y", 1)], 2 * big + 7)
    b = Subdist._of_numerators([("y", 3), ("x", 3 * big)], 3 * (2 * big + 7))
    c = Subdist({"x": Q(big, 2 * big + 7), "y": Q(1, 2 * big + 7)})
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a != Subdist._of_numerators([("x", big + 1), ("y", 1)], 2 * big + 7)
    assert a.mass == Q(big + 1, 2 * big + 7)
    with pytest.raises(WeightTooLong):
        ket(a)


def test_only_ordered_reads_sort(monkeypatch):
    calls = []
    original = subdist.outcome_key

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(subdist, "outcome_key", counting)
    entries = [(("M", "L"), 1), ("R", 2), ("L", 3), (Dollar(5), 1)]
    a = Subdist._of_numerators(entries, 12)
    b = Subdist({x: Q(n, 12) for x, n in reversed(entries)})
    calls.clear()  # building checks each outcome's shape once
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.mass == b.mass == Q(7, 12)
    assert a.weight("R") == Q(1, 6) and a.weight("nowhere") == 0
    assert len(a) == 4 and "L" in a and not a.is_distribution()
    assert calls == []
    assert a.items() == b.items()
    assert calls  # an ordered read sorts, once
    calls.clear()
    assert a.support() == b.support() == [Dollar(5), "L", "R", ("M", "L")]
    assert ket(a) == ket(b)
    assert calls == []


def test_scaling_takes_only_exact_weights():
    d = Subdist({"x": Q(1, 2), "y": Q(1, 4)})
    for factor in (0.1, 0.0, 1.0, True, False):
        with pytest.raises(InvalidSubdistribution):
            factor * d
        with pytest.raises(InvalidSubdistribution):
            d.scaled(factor)
    with pytest.raises(InvalidSubdistribution):
        "2" * d
    assert 0 * d == d.scaled(0) == d.scaled(Q(0)) == zero()
    assert 1 * d == d
    assert Q(2, 3) * d == d.scaled(Q(2, 3)) == Subdist({"x": Q(1, 3), "y": Q(1, 6)})


def test_negative_weight_rejected():
    with pytest.raises(InvalidSubdistribution):
        Subdist({"x": Q(-1, 2)})


@given(subdists())
def test_mass_in_unit_interval(s):
    assert 0 <= s.mass <= 1
    assert all(0 < w <= 1 for _, w in s.items())


# -- tensor ----------------------------------------------------------------


def test_tensor_two_coins():
    # the joint of two independent fair draws
    coins = tensor(uniform(["H", "T"]), uniform(["A", "B"]))
    assert coins == Subdist(
        {
            ("H", "A"): Q(1, 4),
            ("H", "B"): Q(1, 4),
            ("T", "A"): Q(1, 4),
            ("T", "B"): Q(1, 4),
        }
    )


def test_tensor_unit():
    s = Subdist({"H": Q(1, 2), "T": Q(1, 4)})
    assert tensor(s, dirac(())) == s
    assert tensor(dirac(()), s) == s


def test_tensor_by_hand():
    left = Subdist({"L": Q(1, 3)})
    right = Subdist({"x": Q(1, 2), "y": Q(1, 4)})
    assert tensor(left, right) == Subdist({("L", "x"): Q(1, 6), ("L", "y"): Q(1, 12)})


def test_tensor_flattens():
    s = tensor(dirac(("M", "L")), dirac("R"))
    assert s.support() == [("M", "L", "R")]


@given(subdists(max_size=3), subdists(max_size=3))
def test_tensor_mass_multiplicative(a, b):
    assert tensor(a, b).mass == a.mass * b.mass


# -- restriction -----------------------------------------------------------


def test_restrict_monty_hall_line3():
    # Monty Hall: keep the monomials whose host component equals L
    state = Subdist(
        {
            ("L", "R"): Q(1, 3),
            ("M", "L"): Q(1, 6),
            ("M", "R"): Q(1, 6),
            ("R", "L"): Q(1, 3),
        }
    )
    kept = restrict(state, lambda x: x[1] == "L")
    assert kept == Subdist({("M", "L"): Q(1, 6), ("R", "L"): Q(1, 3)})


def test_restrict_full_predicate():
    s = Subdist({"a": Q(1, 2), "b": Q(1, 3)})
    assert restrict(s, lambda _: True) == s


def test_restrict_monty_fall():
    # Monty Fall: doors different from L survive
    s = restrict(uniform(["L", "M", "R"]), lambda d: d != "L")
    assert s == Subdist({"M": Q(1, 3), "R": Q(1, 3)})


def test_restrict_bad_predicate():
    with pytest.raises(PredicateTypeError):
        restrict(dirac("H"), lambda x: x + 1)


@given(subdists())
def test_restrict_decomposition(s):
    pred = lambda x: outcome_key(x) < outcome_key("M")
    left = restrict(s, pred)
    right = restrict(s, lambda x: not pred(x))
    assert left + right == s
    assert left.mass <= s.mass


# -- rescaling ---------------------------------------------------------------


def test_rescale_monty_hall():
    # Monty Hall: validity 1/6 + 1/3 = 1/2
    v, post = rescale(Subdist({"M": Q(1, 6), "R": Q(1, 3)}))
    assert v == Q(1, 2)
    assert post == Subdist({"M": Q(1, 3), "R": Q(2, 3)})


def test_rescale_zero_is_failure():
    assert rescale(zero()) is FAILURE


def test_rescale_sailor():
    # Sailor's Child: validity 1/4 + 1/2 = 3/4
    v, post = rescale(Subdist({"H": Q(1, 4), "T": Q(1, 2)}))
    assert v == Q(3, 4)
    assert post == Subdist({"H": Q(1, 3), "T": Q(2, 3)})


@given(subdists())
def test_rescale_round_trip(s):
    res = rescale(s)
    if s.is_zero():
        assert res is FAILURE
    else:
        v, post = res
        assert post.mass == 1
        assert post.scaled(v) == s


# -- Kleisli extension ---------------------------------------------------------


HOST = {
    "L": dirac("R"),
    "M": Subdist({"L": Q(1, 2), "R": Q(1, 2)}),
    "R": dirac("L"),
}


def test_kleisli_unit_law():
    s = Subdist({"x": Q(1, 3), "y": Q(1, 4)})
    assert kleisli_extend(dirac, s) == s


def test_kleisli_point_mass():
    assert kleisli_extend(HOST, dirac("M")) == HOST["M"]


def test_kleisli_host_table():
    # summing the Monty Hall host table over the uniform prior, by hand:
    # 1/3*1|R> + 1/3*(1/2|L> + 1/2|R>) + 1/3*1|L> = 1/2|L> + 1/2|R>
    result = kleisli_extend(HOST, uniform(["L", "M", "R"]))
    assert result == Subdist({"L": Q(1, 2), "R": Q(1, 2)})


def test_kleisli_outside_domain():
    with pytest.raises(DomainError):
        kleisli_extend(HOST, dirac("Q"))


@given(subdists(elements=symbols, max_size=3), subdists(elements=symbols, max_size=3))
def test_kleisli_linearity(a, b):
    half_sum = a.scaled(Q(1, 2)) + b.scaled(Q(1, 2))
    f = lambda x: Subdist({(x, "t"): Q(1, 2)})
    lhs = kleisli_extend(f, half_sum)
    rhs = kleisli_extend(f, a).scaled(Q(1, 2)) + kleisli_extend(f, b).scaled(Q(1, 2))
    assert lhs == rhs


# -- channel normalisation -------------------------------------------------------


def test_normalize_stochastic_channel_fixed():
    assert normalize_channel(HOST) == HOST


def test_normalize_monty_posterior():
    f = {"x": Subdist({"M": Q(1, 6), "R": Q(1, 3)})}
    assert normalize_channel(f)["x"] == Subdist({"M": Q(1, 3), "R": Q(2, 3)})


def test_normalize_zero_row():
    f = {"x": zero()}
    assert normalize_channel(f)["x"] == zero()


@given(st.data())
def test_normalisation_law(data):
    f = {}
    for x in ["p", "q"]:
        f[x] = data.draw(subdists(max_size=3))
    nf = normalize_channel(f)
    for x, row in f.items():
        assert row == nf[x].scaled(row.mass)
        assert nf[x].mass in (0, 1)


@given(st.data())
def test_normalisation_composes(data):
    # n(f ; g) == n(n(f) ; g), pointwise and exactly
    ys = ["u", "v"]
    f = {x: data.draw(subdists(elements=st.sampled_from(ys), max_size=2)) for x in ["p", "q"]}
    g = {y: data.draw(subdists(elements=symbols, max_size=3)) for y in ys}
    direct = normalize_channel(kleisli_compose(f, g))
    staged = normalize_channel(kleisli_compose(normalize_channel(f), g))
    assert direct == staged


# -- expected value -----------------------------------------------------------------


def test_expected_value_imperfect_newcomb():
    # imperfect Newcomb: 1/5 * $11 + 4/5 * $1 = $3 and 4/5 * $10 + 1/5 * $0 = $8
    assert expected_value(Subdist({Dollar(11): Q(1, 5), Dollar(1): Q(4, 5)})) == 3
    assert expected_value(Subdist({Dollar(10): Q(4, 5), Dollar(0): Q(1, 5)})) == 8


def test_expected_value_point_zero():
    assert expected_value(dirac(0)) == 0


def test_expected_value_rejects_symbols():
    with pytest.raises(NonNumericOutcome):
        expected_value(dirac("H"))


# -- rendering ---------------------------------------------------------------------


def test_ket_canonical_order():
    s = Subdist({("R", "L"): Q(1, 3), ("M", "L"): Q(1, 6)})
    assert ket(s) == "1/6|M,L> + 1/3|R,L>"
    assert repr(s) == ket(s)


def test_ket_integer_weight():
    assert ket(dirac("H")) == "1|H>"


def test_ket_zero():
    assert ket(zero()) == "0"


def test_ket_dollar():
    s = Subdist({Dollar(1): Q(4, 5), Dollar(11): Q(1, 5)})
    assert ket(s) == "4/5|$1> + 1/5|$11>"


def test_weights_past_the_digit_limit_do_not_print():
    widest = 10**4300 - 1  # 4,300 digits, the default limit of str(int)
    assert render_weight(Q(widest)) == str(widest)
    assert ket(Subdist({"a": Q(1, widest)})) == f"1/{widest}|a>"
    for w in (Q(10**4300), Q(1, 10**4300), Q(widest, widest + 1)):
        with pytest.raises(WeightTooLong, match="more than 4300 digits"):
            render_weight(w)
        with pytest.raises(WeightTooLong):
            ket(Subdist({"a": w / (w + 1)}))


def test_dollar_is_integer():
    assert Dollar(10) != 10
    assert isinstance(Dollar(10), int)
    # but equals only a Dollar
    assert not (Dollar(3) == 3 or 3 == Dollar(3) or Dollar(3) != Dollar(3))
    assert Dollar(3) != 3 and 3 != Dollar(3) and Dollar(3) == Dollar(3)
    assert hash(Dollar(3)) == hash(3) and len({3, Dollar(3), Dollar(3)}) == 2
    # the order stays total: an integer before the $ amount of the same digits
    assert sorted([Dollar(3), 4, Dollar(2), 3], key=outcome_key) == [Dollar(2), 3, Dollar(3), 4]
    assert ket(Subdist({Dollar(3): Q(1, 2), 3: Q(1, 2)})) == "1/2|3> + 1/2|$3>"


@pytest.mark.parametrize("call, error, message", [
    (lambda: subdist.render_outcome(1.5), InvalidSubdistribution, "not an outcome: 1.5"),
    (lambda: Subdist([("x", Q(1, 4)), ("x", Q(1, 4))]), InvalidSubdistribution,
     "duplicate outcome 'x'"),
    (lambda: uniform(["a", "b", "a"]), InvalidSubdistribution, "uniform requires distinct outcomes"),
    (lambda: restrict(dirac("x"), lambda x: 1), PredicateTypeError,
     "predicate returned non-boolean on 'x'"),
    (lambda: kleisli_extend(lambda x: "y", dirac("x")), DomainError,
     "channel produced non-subdistribution for 'x'"),
])
def test_public_edges_reject_what_they_cannot_use(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_restrict_passes_on_a_predicate_error_as_raised():
    def pred(x):
        raise PredicateTypeError("the predicate's own message")

    with pytest.raises(PredicateTypeError, match="^the predicate's own message$"):
        restrict(dirac("x"), pred)


def test_failure_and_equality_with_a_non_subdist():
    assert repr(FAILURE) == "Failure"
    assert (dirac("x") == "x") is False and dirac("x") != "x"
