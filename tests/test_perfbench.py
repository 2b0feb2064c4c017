"""What the benchmark reads off arrowlang: `perfbench/tracing.py` wraps
functions by name and counts statements by walking terms, so a renamed
function or a changed term shape must fail here, not skew its counts."""

import importlib
import importlib.util
import math
import random
from pathlib import Path

import pytest

from arrowlang.parser import load_file
from arrowlang.proptest import GenBudget, gen_closed_program, gen_interpretation
from arrowlang.syntax import Sample, statements

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _programs():
    """The puzzles, then the first 200 differential draws (``GenBudget(max_statements=4)``)."""
    for path in sorted((ROOT / "puzzles").glob("*.arrow")):
        prog = load_file(path)
        yield path.stem, prog.typed, prog.interp.carriers
    budget = GenBudget(max_statements=4)
    draws = random.Random(0)
    for i in range(200):
        rng = random.Random(draws.randrange(2**31))
        tt = gen_closed_program(budget, rng)
        yield f"draw {i}", tt, gen_interpretation(budget, tt.sig, rng).carriers


@pytest.mark.parametrize("module, function", [(m, f) for m, f, _, _ in tracing.TARGETS])
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"arrowlang.{module}"), function))


def test_chain_length_and_worlds_count_statements_and_sampled_outputs():
    for label, tt, carriers in _programs():
        heads, _ = statements(tt.term)
        assert tracing.chain_length(tt.term) == len(heads) + 1, label
        outputs = [t for h in heads if isinstance(h, Sample) for t in h.gen.outputs]
        assert tracing.worlds(tt.term, carriers) == math.prod(len(carriers[t]) for t in outputs), label
