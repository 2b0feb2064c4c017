"""Generated .arrow programs and their references, computed without arrowlang.

Each generator returns the program text, its number of source statements
and the exact text ``arrowlang run`` must print for it.  The references
come from the generating model itself, with ``Fraction`` arithmetic and a
ket renderer written here, so they share no code with the interpreter.
"""

from __future__ import annotations

import random
from fractions import Fraction


def render_weight(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def render_ket(dist: dict) -> str:
    """Ket text of a map from symbol (or tuple of symbols) to weight.

    Outcomes here are plain symbols or tuples of symbols, whose canonical
    order is the natural string and tuple order.
    """
    parts = []
    for x in sorted(x for x, w in dist.items() if w):
        shown = ",".join(x) if isinstance(x, tuple) else x
        parts.append(f"{render_weight(dist[x])}|{shown}>")
    return " + ".join(parts) if parts else "0"


def run_output(final: dict) -> str:
    """What ``arrowlang run`` prints for a final subdistribution."""
    validity = sum(final.values(), Fraction(0))
    lines = [f"Final: {render_ket(final)}", f"Validity: {validity}"]
    if validity == 0:
        lines.append("Posterior: Failure")
    else:
        lines.append(f"Posterior: {render_ket({x: w / validity for x, w in final.items()})}")
    return "\n".join(lines) + "\n"


def _ket_src(row: dict) -> str:
    return " + ".join(f"{render_weight(w)}|{x}>" for x, w in row.items())


def _case(var: str, scrutinee: str, table: dict) -> str:
    rows = "; ".join(f"{s} -> {_ket_src(row)}" for s, row in table.items())
    return f"{var} <- CASE {scrutinee} OF {rows}"


# Every row uses the same weights and the seed only decides which outcome
# gets which, so all seeds give fractions of the same sizes and the exact
# arithmetic costs the same.
TWO_WAY = (Fraction(1, 3), Fraction(2, 3))
THREE_WAY = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))


def chain(k: int, rng: random.Random) -> tuple[str, int, str]:
    """x0 uniform over 3 states, k noisy two-outcome steps, one final observe.

    The trace keeps every x_i, so its support is 3 * 2**k although the
    answer has 3 outcomes; the observe keeps 2**k of them.
    """
    states = ("a", "b", "c")
    lines = ["TYPE S = {a, b, c}", "x0 <- UNIFORM {a, b, c}"]
    # dist[x0][s]: probability that x0 leads to the current state s
    dist = {s0: {s: Fraction(int(s == s0)) for s in states} for s0 in states}
    for i in range(1, k + 1):
        # each state is left out of the row of exactly one state, so every
        # state is reached from two and, whatever the seed, 2**k of the
        # 3 * 2**k paths end in the observed state
        table = {}
        for s, left_out in zip(states, rng.sample(states, 3)):
            reached = [t for t in states if t != left_out]
            rng.shuffle(reached)
            table[s] = dict(zip(reached, TWO_WAY))
        lines.append(_case(f"x{i}", f"x{i - 1}", table))
        dist = {s0: {t: sum((row[s] * table[s].get(t, 0) for s in states), Fraction(0))
                     for t in states}
                for s0, row in dist.items()}
    target = rng.choice(states)
    lines.append(f"OBSERVE(x{k} = {target})")
    lines.append("RETURN(x0)")
    final = {s0: Fraction(1, 3) * dist[s0][target] for s0 in states}
    return "\n".join(lines) + "\n", k + 3, run_output(final)


def evidence(k: int, rng: random.Random) -> tuple[str, int, str]:
    """One hidden state, k noisy readings of it, then all k observes."""
    hidden = ("h0", "h1", "h2", "h3")
    readings = ("r0", "r1", "r2")
    lines = ["TYPE H = {h0, h1, h2, h3}", "TYPE R = {r0, r1, r2}",
             "h <- UNIFORM {h0, h1, h2, h3}"]
    final = {h: Fraction(1, 4) for h in hidden}
    observed = []
    for i in range(1, k + 1):
        table = {h: dict(zip(rng.sample(readings, 3), THREE_WAY)) for h in hidden}
        lines.append(_case(f"e{i}", "h", table))
        seen = rng.choice(readings)
        observed.append(f"OBSERVE(e{i} = {seen})")
        final = {h: w * table[h][seen] for h, w in final.items()}
    lines += observed
    lines.append("RETURN(h)")
    return "\n".join(lines) + "\n", 2 * k + 2, run_output(final)


def doors(n: int, rng: random.Random) -> tuple[str, int, str]:
    """n-door Monty Hall; the host's choice is an explicit row per (car, player)."""
    names = tuple(f"d{i}" for i in range(1, n + 1))
    listed = ", ".join(names)
    lines = [f"TYPE Door = {{{listed}}}",
             f"car <- UNIFORM {{{listed}}}",
             f"player <- UNIFORM {{{listed}}}"]
    table = {}
    pairs = [(c, p) for c in names for p in names]
    rng.shuffle(pairs)
    for c, p in pairs:
        opens = [d for d in names if d not in (c, p)]
        table[c, p] = {d: Fraction(1, len(opens)) for d in opens}
    rows = "; ".join(f"({c}, {p}) -> {_ket_src(row)}" for (c, p), row in table.items())
    lines.append(f"host <- CASE (car, player) OF {rows}")
    pick, opened = rng.sample(names, 2)
    lines.append(f"OBSERVE(player = {pick})")
    lines.append(f"OBSERVE(host = {opened})")
    lines.append("RETURN(car)")
    final = {c: Fraction(1, n * n) * table[c, pick].get(opened, Fraction(0)) for c in names}
    return "\n".join(lines) + "\n", 6, run_output(final)


PERMUTATIONS = ({"a": "b", "b": "c", "c": "a"},
                {"a": "c", "b": "a", "c": "b"},
                {"a": "a", "b": "c", "c": "b"},
                {"a": "b", "b": "a", "c": "c"})


def straight_line(n: int, rng: random.Random) -> tuple[str, int, str]:
    """About n statements of deterministic steps with a noisy reading every 8.

    Each noisy reading is observed equal to the state it reads, so the
    support stays at 3 while the joint tuples grow one column per statement.
    """
    lines = ["TYPE S = {a, b, c}"]
    for j, perm in enumerate(PERMUTATIONS, 1):
        rows = "; ".join(f"{s} -> 1|{t}>" for s, t in perm.items())
        lines.append(f"GEN p{j} : S -> S = {rows}")
    lines.append("GEN noisy : S -> S = a -> 1/2|a> + 1/2|b>; b -> 1/2|b> + 1/2|c>; "
                 "c -> 1/2|c> + 1/2|a>")
    lines.append("x1 <- UNIFORM {a, b, c}")
    where = {s: s for s in "abc"}  # x1 value -> current value
    cur, i, stmts, halvings = "x1", 1, 1, 0
    while stmts < n - 1:
        i += 1
        if stmts % 8 == 0 and stmts + 2 < n:
            lines.append(f"y{i} <- noisy({cur})")
            lines.append(f"OBSERVE(y{i} = {cur})")
            stmts += 2
            halvings += 1
        else:
            j = rng.randrange(len(PERMUTATIONS))
            lines.append(f"x{i} <- p{j + 1}({cur})")
            where = {s: PERMUTATIONS[j][v] for s, v in where.items()}
            cur = f"x{i}"
            stmts += 1
    lines.append(f"RETURN(x1, {cur})")
    weight = Fraction(1, 3) / 2 ** halvings
    final = {(s, v): weight for s, v in where.items()}
    return "\n".join(lines) + "\n", stmts + 1, run_output(final)
