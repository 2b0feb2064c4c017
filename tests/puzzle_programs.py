"""The worked decision puzzles, built directly as typed terms.

These constructions bypass the concrete syntax entirely; parser tests
and the shipped corpus cross-check against them.
"""

from fractions import Fraction as Q

from arrowlang.semantics import Interpretation
from arrowlang.subdist import Dollar, Subdist, dirac, uniform
from arrowlang.syntax import (
    Atom,
    Generator,
    Observe,
    ObservePred,
    PLit,
    Return,
    Sample,
    Signature,
    typecheck,
)

DOORS = ("L", "M", "R")


def monty_hall():
    pick = Generator("pick", (), ("Door",))
    host = Generator("host", ("Door",), ("Door",))
    sig = Signature(frozenset({"Door"}), {"pick": pick, "host": host})
    term = Sample(pick, (), ("car",),
                  Sample(host, ("car",), ("h",),
                         ObservePred((Atom("=", "h", PLit("L", "Door")),),
                                     Return(("car",)))))
    interp = Interpretation(
        {"Door": DOORS},
        {
            "pick": {(): uniform(DOORS)},
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
    sig = Signature(frozenset({"Door"}), {"pick": pick})
    term = Sample(pick, (), ("car",),
                  ObservePred((Atom("!=", "car", PLit("L", "Door")),),
                              Return(("car",))))
    interp = Interpretation({"Door": DOORS}, {"pick": {(): uniform(DOORS)}})
    return typecheck(sig, (), term), interp


def three_prisoners():
    pardon = Generator("pardon_pick", (), ("Prisoner",))
    reply = Generator("reply", ("Prisoner",), ("Prisoner",))
    sig = Signature(frozenset({"Prisoner"}), {"pardon_pick": pardon, "reply": reply})
    term = Sample(pardon, (), ("pardon",),
                  Sample(reply, ("pardon",), ("reply_to_A",),
                         ObservePred((Atom("=", "reply_to_A", PLit("B", "Prisoner")),),
                                     Return(("pardon",)))))
    interp = Interpretation(
        {"Prisoner": ("A", "B", "C")},
        {
            "pardon_pick": {(): uniform(("A", "B", "C"))},
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
    sig = Signature(
        frozenset({"Coin", "Port", "Ports"}),
        {"toss": coin, "open_guide": guide, "ports_of": ports},
    )
    tail = Return(("coin",))
    if anthropic:
        tail = ObservePred((Atom("IN", PLit("A", "Port"), "ports"),), tail)
    term = Sample(coin, (), ("coin",),
                  Sample(guide, (), ("guide",),
                         Sample(ports, ("coin", "guide"), ("ports",), tail)))
    interp = Interpretation(
        {"Coin": ("H", "T"), "Port": ("A", "B"), "Ports": (sA, sB, sAB)},
        {
            "toss": {(): uniform(("H", "T"))},
            "open_guide": {(): uniform(("A", "B"))},
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


def newcomb(branch):
    """Newcomb; branch 'a' takes both boxes, branch 'b' only the second."""
    pick = Generator("predict", (), ("Choice",))
    choose = Generator("choose", (), ("Choice",))
    outcome = Generator("payout", ("Choice", "Choice"), ("Money",))
    sig = Signature(
        frozenset({"Choice", "Money"}),
        {"predict": pick, "choose": choose, "payout": outcome},
    )
    term = Sample(pick, (), ("prediction",),
                  Sample(choose, (), ("choice",),
                         Observe("prediction", "choice",
                                 Sample(outcome, ("prediction", "choice"), ("outcome",),
                                        ObservePred((Atom("=", "choice", PLit(branch, "Choice")),),
                                                    Return(("outcome",)))))))
    interp = Interpretation(
        {"Choice": ("a", "b"), "Money": (Dollar(0), Dollar(1), Dollar(10), Dollar(11))},
        {
            "predict": {(): uniform(("a", "b"))},
            "choose": {(): uniform(("a", "b"))},
            "payout": _newcomb_outcome_table(),
        },
    )
    return typecheck(sig, (), term), interp


def imperfect_newcomb(branch):
    """Imperfect Newcomb; the predictor is right with probability 4/5."""
    pick = Generator("predict", (), ("Choice",))
    choose = Generator("choose", (), ("Choice",))
    correct = Generator("grade", ("Choice", "Choice"), ("Truth",))
    outcome = Generator("payout", ("Choice", "Choice"), ("Money",))
    sig = Signature(
        frozenset({"Choice", "Truth", "Money"}),
        {"predict": pick, "choose": choose, "grade": correct, "payout": outcome},
    )
    hit = Subdist({"T": Q(4, 5), "F": Q(1, 5)})
    miss = Subdist({"T": Q(1, 5), "F": Q(4, 5)})
    term = Sample(pick, (), ("prediction",),
                  Sample(choose, (), ("choice",),
                         Sample(correct, ("prediction", "choice"), ("correctness",),
                                ObservePred((Atom("=", "correctness", PLit("T", "Truth")),),
                                            Sample(outcome, ("prediction", "choice"), ("outcome",),
                                                   ObservePred((Atom("=", "choice", PLit(branch, "Choice")),),
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
        },
    )
    return typecheck(sig, (), term), interp


def monty_hall_full():
    """Full Monty Hall: the player's choice is sampled too."""
    pick = Generator("pick", (), ("Door",))
    choose = Generator("choose", (), ("Door",))
    host = Generator("host", ("Door", "Door"), ("Door",))
    sig = Signature(frozenset({"Door"}), {"pick": pick, "choose": choose, "host": host})

    def host_row(car, player):
        if car == player:
            others = [d for d in DOORS if d != car]
            return Subdist({others[0]: Q(1, 2), others[1]: Q(1, 2)})
        third = next(d for d in DOORS if d not in (car, player))
        return dirac(third)

    term = Sample(pick, (), ("car",),
                  Sample(choose, (), ("player",),
                         Sample(host, ("car", "player"), ("h",),
                                ObservePred((Atom("=", "player", PLit("M", "Door")),),
                                            ObservePred((Atom("=", "h", PLit("L", "Door")),),
                                                        Return(("car",)))))))
    interp = Interpretation(
        {"Door": DOORS},
        {
            "pick": {(): uniform(DOORS)},
            "choose": {(): uniform(DOORS)},
            "host": {(c, p): host_row(c, p) for c in DOORS for p in DOORS},
        },
    )
    return typecheck(sig, (), term), interp
