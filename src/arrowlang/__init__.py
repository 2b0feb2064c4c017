"""Exact interpreter and algebraic core for probabilistic decision programs.

Programs sample from generators, observe constraints, and return
variables; states are finitely-supported subdistributions with exact
rational weights.  The package also implements the variable-free
combinator form of terms with composition, whiskering, and tensoring,
one statement-at-a-time evaluation engine (behind line-by-line traces
reproducing pen-and-paper calculations, denotations and channels), a
concrete ``.arrow`` file syntax, and a brute-force world-enumeration
oracle, independent of the engine, for cross-checking it.
"""

from .errors import ArrowError
from .subdist import (
    FAILURE,
    Dollar,
    Subdist,
    dirac,
    expected_value,
    ket,
    kleisli_extend,
    normalize_channel,
    rescale,
    restrict,
    tensor,
    uniform,
    zero,
)
from .syntax import (
    Context,
    Generator,
    Observe,
    Return,
    Sample,
    Signature,
    Term,
    TypedTerm,
    alpha_eq,
    axiom_step,
    substitute,
    typecheck,
)
from .combinator import (
    CombTerm,
    FiniteFunction,
    act,
    comb_compose,
    comb_tensor,
    comb_whisker_left,
    comb_whisker_right,
    decode,
    encode,
    structure_maps,
)
from .semantics import (
    EvalResult,
    Interpretation,
    TraceLine,
    interpret,
    semantics_of_comb,
    trace,
)
from .parser import Program, elaborate, load_file, load_text, parse, pretty
from .proptest import GenBudget, gen_interpretation, gen_term, oracle_denote

__version__ = "0.1.0"

__all__ = [
    "ArrowError",
    "FAILURE",
    "Dollar",
    "Subdist",
    "dirac",
    "expected_value",
    "ket",
    "kleisli_extend",
    "normalize_channel",
    "rescale",
    "restrict",
    "tensor",
    "uniform",
    "zero",
    "Context",
    "Generator",
    "Observe",
    "Return",
    "Sample",
    "Signature",
    "Term",
    "TypedTerm",
    "alpha_eq",
    "axiom_step",
    "substitute",
    "typecheck",
    "CombTerm",
    "FiniteFunction",
    "act",
    "comb_compose",
    "comb_tensor",
    "comb_whisker_left",
    "comb_whisker_right",
    "decode",
    "encode",
    "structure_maps",
    "EvalResult",
    "Interpretation",
    "TraceLine",
    "interpret",
    "semantics_of_comb",
    "trace",
    "Program",
    "elaborate",
    "load_file",
    "load_text",
    "parse",
    "pretty",
    "GenBudget",
    "gen_interpretation",
    "gen_term",
    "oracle_denote",
    "__version__",
]
