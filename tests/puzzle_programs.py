"""The worked decision puzzles, built directly as typed terms.

These constructions bypass the concrete syntax entirely; parser tests
and the shipped corpus cross-check against them.  Each observe of a
literal is written out as what it means: a sample of a generator with
no outputs whose table, written here by hand, has the row 1|()> where
the predicate holds and the zero row where it fails.
"""

from fractions import Fraction as Q

from arrowlang.semantics import Interpretation
from arrowlang.subdist import Dollar, Subdist, dirac, uniform, zero
from arrowlang.syntax import (
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    typecheck,
)

DOORS = ("L", "M", "R")
HOLDS, FAILS = dirac(()), zero()  # the two rows of a predicate's table


def monty_hall():
    pick = Generator("pick", (), ("Door",))
    host = Generator("host", ("Door",), ("Door",))
    is_l = Generator("is_L", ("Door",), ())
    sig = Signature(frozenset({"Door"}), {"pick": pick, "host": host, "is_L": is_l})
    term = Sample(pick, (), ("car",),
                  Sample(host, ("car",), ("h",),
                         Sample(is_l, ("h",), (), Return(("car",)))))
    interp = Interpretation(
        {"Door": DOORS},
        {
            "pick": {(): uniform(DOORS)},
            "is_L": {("L",): HOLDS, ("M",): FAILS, ("R",): FAILS},
            "host": {
                ("L",): dirac("R"),
                ("M",): Subdist({"L": Q(1, 2), "R": Q(1, 2)}),
                ("R",): dirac("L"),
            },
        },
    )
    return typecheck(sig, (), term), interp


def monty_fall():
    pick = Generator("pick", (), ("Door",))
    not_l = Generator("not_L", ("Door",), ())
    sig = Signature(frozenset({"Door"}), {"pick": pick, "not_L": not_l})
    term = Sample(pick, (), ("car",), Sample(not_l, ("car",), (), Return(("car",))))
    interp = Interpretation({"Door": DOORS}, {
        "pick": {(): uniform(DOORS)},
        "not_L": {("L",): FAILS, ("M",): HOLDS, ("R",): HOLDS},
    })
    return typecheck(sig, (), term), interp


def three_prisoners():
    pardon = Generator("pardon_pick", (), ("Prisoner",))
    reply = Generator("reply", ("Prisoner",), ("Prisoner",))
    is_b = Generator("is_B", ("Prisoner",), ())
    sig = Signature(frozenset({"Prisoner"}),
                    {"pardon_pick": pardon, "reply": reply, "is_B": is_b})
    term = Sample(pardon, (), ("pardon",),
                  Sample(reply, ("pardon",), ("reply_to_A",),
                         Sample(is_b, ("reply_to_A",), (), Return(("pardon",)))))
    interp = Interpretation(
        {"Prisoner": ("A", "B", "C")},
        {
            "pardon_pick": {(): uniform(("A", "B", "C"))},
            "is_B": {("A",): FAILS, ("B",): HOLDS, ("C",): FAILS},
            "reply": {
                ("A",): Subdist({"B": Q(1, 2), "C": Q(1, 2)}),
                ("B",): dirac("C"),
                ("C",): dirac("B"),
            },
        },
    )
    return typecheck(sig, (), term), interp


def sailors_child(anthropic=True):
    sA, sB, sAB = frozenset({"A"}), frozenset({"B"}), frozenset({"A", "B"})
    coin = Generator("toss", (), ("Coin",))
    guide = Generator("open_guide", (), ("Port",))
    ports = Generator("ports_of", ("Coin", "Port"), ("Ports",))
    has_a = Generator("has_A", ("Ports",), ())
    sig = Signature(
        frozenset({"Coin", "Port", "Ports"}),
        {"toss": coin, "open_guide": guide, "ports_of": ports, "has_A": has_a},
    )
    tail = Return(("coin",))
    if anthropic:
        tail = Sample(has_a, ("ports",), (), tail)
    term = Sample(coin, (), ("coin",),
                  Sample(guide, (), ("guide",),
                         Sample(ports, ("coin", "guide"), ("ports",), tail)))
    interp = Interpretation(
        {"Coin": ("H", "T"), "Port": ("A", "B"), "Ports": (sA, sB, sAB)},
        {
            "toss": {(): uniform(("H", "T"))},
            "open_guide": {(): uniform(("A", "B"))},
            "has_A": {(sA,): HOLDS, (sB,): FAILS, (sAB,): HOLDS},
            "ports_of": {
                ("H", "A"): dirac(sA),
                ("H", "B"): dirac(sB),
                ("T", "A"): dirac(sAB),
                ("T", "B"): dirac(sAB),
            },
        },
    )
    return typecheck(sig, (), term), interp


def _newcomb_outcome_table():
    return {
        ("a", "a"): dirac(Dollar(1)),
        ("a", "b"): dirac(Dollar(0)),
        ("b", "a"): dirac(Dollar(11)),
        ("b", "b"): dirac(Dollar(10)),
    }


def _chose(branch):
    """The generator and table of observing ``choice = branch``."""
    other = "b" if branch == "a" else "a"
    return Generator("chose", ("Choice",), ()), {(branch,): HOLDS, (other,): FAILS}


def newcomb(branch):
    """Newcomb; branch 'a' takes both boxes, branch 'b' only the second."""
    pick = Generator("predict", (), ("Choice",))
    choose = Generator("choose", (), ("Choice",))
    outcome = Generator("payout", ("Choice", "Choice"), ("Money",))
    chose, chose_table = _chose(branch)
    sig = Signature(
        frozenset({"Choice", "Money"}),
        {"predict": pick, "choose": choose, "payout": outcome, "chose": chose},
    )
    term = Sample(pick, (), ("prediction",),
                  Sample(choose, (), ("choice",),
                         Observe("prediction", "choice",
                                 Sample(outcome, ("prediction", "choice"), ("outcome",),
                                        Sample(chose, ("choice",), (), Return(("outcome",)))))))
    interp = Interpretation(
        {"Choice": ("a", "b"), "Money": (Dollar(0), Dollar(1), Dollar(10), Dollar(11))},
        {
            "predict": {(): uniform(("a", "b"))},
            "choose": {(): uniform(("a", "b"))},
            "payout": _newcomb_outcome_table(),
            "chose": chose_table,
        },
    )
    return typecheck(sig, (), term), interp


def imperfect_newcomb(branch):
    """Imperfect Newcomb; the predictor is right with probability 4/5."""
    pick = Generator("predict", (), ("Choice",))
    choose = Generator("choose", (), ("Choice",))
    correct = Generator("grade", ("Choice", "Choice"), ("Truth",))
    outcome = Generator("payout", ("Choice", "Choice"), ("Money",))
    is_t = Generator("is_T", ("Truth",), ())
    chose, chose_table = _chose(branch)
    sig = Signature(
        frozenset({"Choice", "Truth", "Money"}),
        {"predict": pick, "choose": choose, "grade": correct, "payout": outcome,
         "is_T": is_t, "chose": chose},
    )
    hit = Subdist({"T": Q(4, 5), "F": Q(1, 5)})
    miss = Subdist({"T": Q(1, 5), "F": Q(4, 5)})
    term = Sample(pick, (), ("prediction",),
                  Sample(choose, (), ("choice",),
                         Sample(correct, ("prediction", "choice"), ("correctness",),
                                Sample(is_t, ("correctness",), (),
                                       Sample(outcome, ("prediction", "choice"), ("outcome",),
                                              Sample(chose, ("choice",), (),
                                                     Return(("outcome",))))))))
    interp = Interpretation(
        {"Choice": ("a", "b"), "Truth": ("T", "F"),
         "Money": (Dollar(0), Dollar(1), Dollar(10), Dollar(11))},
        {
            "predict": {(): uniform(("a", "b"))},
            "choose": {(): uniform(("a", "b"))},
            "grade": {
                ("a", "a"): hit,
                ("b", "b"): hit,
                ("a", "b"): miss,
                ("b", "a"): miss,
            },
            "payout": _newcomb_outcome_table(),
            "is_T": {("T",): HOLDS, ("F",): FAILS},
            "chose": chose_table,
        },
    )
    return typecheck(sig, (), term), interp


def monty_hall_full():
    """Full Monty Hall: the player's choice is sampled too."""
    pick = Generator("pick", (), ("Door",))
    choose = Generator("choose", (), ("Door",))
    host = Generator("host", ("Door", "Door"), ("Door",))
    is_m, is_l = Generator("is_M", ("Door",), ()), Generator("is_L", ("Door",), ())
    sig = Signature(frozenset({"Door"}), {"pick": pick, "choose": choose, "host": host,
                                          "is_M": is_m, "is_L": is_l})

    def host_row(car, player):
        if car == player:
            others = [d for d in DOORS if d != car]
            return Subdist({others[0]: Q(1, 2), others[1]: Q(1, 2)})
        third = next(d for d in DOORS if d not in (car, player))
        return dirac(third)

    term = Sample(pick, (), ("car",),
                  Sample(choose, (), ("player",),
                         Sample(host, ("car", "player"), ("h",),
                                Sample(is_m, ("player",), (),
                                       Sample(is_l, ("h",), (), Return(("car",)))))))
    interp = Interpretation(
        {"Door": DOORS},
        {
            "pick": {(): uniform(DOORS)},
            "choose": {(): uniform(DOORS)},
            "host": {(c, p): host_row(c, p) for c in DOORS for p in DOORS},
            "is_M": {("L",): FAILS, ("M",): HOLDS, ("R",): FAILS},
            "is_L": {("L",): HOLDS, ("M",): FAILS, ("R",): FAILS},
        },
    )
    return typecheck(sig, (), term), interp
