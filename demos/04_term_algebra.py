"""The term algebra: rewrites, the combinator form, and structure maps.

Terms are data.  The rewrite axioms (interchange, symmetry, Frobenius,
idempotency) never change the denotation; the combinator encoding
removes variables so composition and tensoring become purely
mechanical.
"""

from arrowlang import (
    Generator,
    Interpretation,
    Observe,
    Return,
    Sample,
    Signature,
    Term,
    axiom_step,
    encode,
    interpret,
    ket,
    semantics_of_comb,
    structure_maps,
    typecheck,
    uniform,
)
from arrowlang.syntax import render_statement

# Two independent draws, observed to agree, returning the first.
flip = Generator("flip", (), ("Coin",))
sig = Signature(frozenset({"Coin"}), {"flip": flip})
term = Term((Sample(flip, (), ("x",)), Sample(flip, (), ("y",)), Observe("x", "y")),
            Return(("x",)))
tt = typecheck(sig, (), term)
interp = Interpretation({"Coin": ("h", "t")}, {"flip": {(): uniform(["h", "t"])}})

def show(label, t):
    print(label)
    for node in t.heads + (t.ret,):
        print("  " + render_statement(node))
    print("denotes:", ket(interpret(typecheck(sig, (), t), interp)))


show("original:", term)

# Interchanging the two independent draws is axiom 1a; the denotation
# is untouched.
show("\nafter interchanging the draws:", axiom_step(term, "1a", 0))

# The Frobenius axiom propagates an observed equality forward: after
# OBSERVE(x = y) the continuation may use y for x.
show("\nafter propagating the equality:", axiom_step(term, "3", 2, "fwd"))

# The combinator form replaces variables by positions.
print("\ncombinator form:", encode(tt))

# Copy, discard, and compare exist at every object; compare glues two
# wires together and fails on disagreement.
copy, discard, compare = structure_maps(("Coin",))
chan = semantics_of_comb(compare, interp)
print("\ncompare on (h, h):", ket(chan[("h", "h")]))
print("compare on (h, t):", ket(chan[("h", "t")]))
