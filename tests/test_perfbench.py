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
from arrowlang.syntax import Sample

ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_perfbench("tracing")


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
        assert tracing.chain_length(tt.term) == len(tt.term.heads) + 1, label
        outputs = [t for h in tt.term.heads if isinstance(h, Sample) for t in h.gen.outputs]
        assert tracing.worlds(tt.term, carriers) == math.prod(len(carriers[t]) for t in outputs), label


def test_traced_loads_count_every_token_and_table_row():
    """``parser.tokens`` and ``parser.table_rows`` come from the wrappers
    around `parser.tokenize` and `parser.build_table`: a load that went
    round either name would read 0 on the benchmark."""
    from arrowlang import parser

    texts = {path.stem: path.read_text() for path in sorted((ROOT / "puzzles").glob("*.arrow"))}
    programs = _load_perfbench("programs")
    texts["straight_line 40"], _, _ = programs.straight_line(40, random.Random(1))
    texts["doors 8"], _, _ = programs.doors(8, random.Random(1))
    counted = {}
    for label, text in texts.items():
        rec = tracing.Recorder()
        with rec.installed(0, counting=True):
            prog = parser.load_text(text)
        carriers = prog.interp.carriers
        tables = [prog.typed.sig.generators[gd.name] for gd in prog.source.gens if gd.rows is not None]
        tables += [head.gen for head, line in zip(prog.typed.term.heads, prog.lines)
                   if isinstance(line, parser.CaseStmt)]
        rows = sum(math.prod(len(carriers[t]) for t in gen.inputs) for gen in tables)
        assert rec.counts["parser.tokens"] == len(parser.located_tokens(text)), label
        assert rec.counts["parser.table_rows"] == rows, label
        counted[label] = rows
    assert counted["straight_line 40"] == 15  # five GEN tables over S, three rows each
    assert counted["doors 8"] == 64  # one table over Door x Door
