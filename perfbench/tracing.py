"""Spans and counters recorded from outside arrowlang.

The traced run replaces public functions of the arrowlang modules with
wrappers that record one span per call: name, start, end, parent span and
operation id.  A wrapper goes into every arrowlang module that imported
the function by name, so calls between layers are seen.  Functions that
call themselves through their module name (``act``, ``comb_compose``, the
whiskers) stay unwrapped in their own module, which keeps their recursion
depth, and so today's RecursionError thresholds, as they are untraced.
A generator function (``applicable_steps``) is run to its end inside its
span, so the work and the exceptions it handles stay in its layer.

Counts, and exceptions by the layer they escape, are taken at the same
boundaries during the first pass over the operations, so they repeat
exactly from run to run.  Nothing under ``src/`` is changed; the wrappers
are removed after every traced operation.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

LAYERS = ("cli", "parser", "syntax", "combinator", "semantics", "subdist", "proptest")


# -- counters, one per instrumented boundary ----------------------------------


def _count_tokens(rec, result, args):
    rec.counts["parser.tokens"] += len(result)


def _count_table_rows(rec, result, args):
    rec.counts["parser.table_rows"] += len(result)


def chain_length(term) -> int:
    """Statements (or combinator nodes) in a term, the final return included."""
    n = 1
    while hasattr(term, "cont"):
        term = term.cont
        n += 1
    return n


def worlds(term, carriers) -> int:
    """Joint assignments of every sampled output: what the oracle enumerates."""
    w = 1
    while hasattr(term, "cont"):
        for tname in getattr(getattr(term, "gen", None), "outputs", ()):
            w *= len(carriers[tname])
        term = term.cont
    return w


def _count_nodes(rec, result, args):
    rec.counts["combinator.nodes"] += chain_length(result)


def _count_trace(rec, result, args):
    lines, _ = result
    heads = []
    node = args[0].term
    while hasattr(node, "cont"):
        heads.append(node)
        node = node.cont
    sizes = [len(line.state) for line in lines]
    rec.counts["semantics.monomials"] += sum(sizes)
    rec.counts["semantics.peak_support"] = max(rec.counts["semantics.peak_support"], *sizes)
    for i, head in enumerate(heads):
        if not hasattr(head, "gen"):  # an observe statement
            rec.counts["semantics.observe_in"] += sizes[i - 1] if i else 1
            rec.counts["semantics.observe_out"] += sizes[i]


def _count_ket_bytes(rec, result, args):
    rec.counts["subdist.ket_bytes"] += len(result.encode("utf-8"))


def _count_worlds(rec, result, args):
    program, interp = args[0], args[1]
    rec.counts["proptest.worlds"] += worlds(program.term, interp.carriers)


# (module, function, patch the defining module too, counter).  The
# defining module is patched only for functions that do not recurse
# through their own module-level name.
TARGETS = (
    ("cli", "main", False, None),
    ("parser", "load_file", True, None),
    ("parser", "parse", True, None),
    ("parser", "tokenize", True, _count_tokens),
    ("parser", "elaborate", True, None),
    ("parser", "build_table", True, _count_table_rows),
    ("syntax", "typecheck", True, None),
    ("syntax", "alpha_eq", True, None),
    ("syntax", "applicable_steps", True, None),
    ("syntax", "axiom_step", True, None),
    ("combinator", "encode", True, _count_nodes),
    ("combinator", "decode", True, None),
    ("combinator", "act", False, _count_nodes),
    ("combinator", "comb_compose", False, _count_nodes),
    ("combinator", "comb_whisker_left", False, _count_nodes),
    ("combinator", "comb_whisker_right", False, _count_nodes),
    ("combinator", "comb_tensor", False, _count_nodes),
    ("semantics", "trace", True, _count_trace),
    ("semantics", "interpret", False, None),
    ("semantics", "denote_channel", True, None),
    ("semantics", "semantics_of_comb", True, None),
    ("subdist", "ket", False, _count_ket_bytes),
    ("proptest", "gen_closed_program", True, None),
    ("proptest", "gen_interpretation", True, None),
    ("proptest", "gen_term", True, None),
    ("proptest", "gen_term_for_ctx", True, None),
    ("proptest", "gen_kernels", False, None),
    ("proptest", "oracle_denote", True, _count_worlds),
)

# Per-layer time metrics: metric name -> span names summed into it.
TIME_GROUPS = {
    "parser.parse_s": ("parser.parse",),
    "parser.elaborate_s": ("parser.elaborate",),
    "syntax.typecheck_s": ("syntax.typecheck",),
    "syntax.alpha_eq_s": ("syntax.alpha_eq",),
    "syntax.axiom_step_s": ("syntax.applicable_steps", "syntax.axiom_step"),
    "combinator.encode_s": ("combinator.encode",),
    "combinator.decode_s": ("combinator.decode",),
    "combinator.compose_s": ("combinator.act", "combinator.comb_compose",
                             "combinator.comb_whisker_left", "combinator.comb_whisker_right",
                             "combinator.comb_tensor"),
    "semantics.trace_s": ("semantics.trace",),
    "semantics.interpret_s": ("semantics.interpret",),
    "semantics.channel_s": ("semantics.denote_channel", "semantics.semantics_of_comb"),
    "subdist.ket_s": ("subdist.ket",),
    "proptest.gen_s": ("proptest.gen_closed_program", "proptest.gen_interpretation",
                       "proptest.gen_term", "proptest.gen_term_for_ctx", "proptest.gen_kernels"),
    "proptest.oracle_s": ("proptest.oracle_denote",),
}

COUNTS = ("parser.tokens", "parser.table_rows", "combinator.nodes", "semantics.peak_support",
          "semantics.monomials", "proptest.worlds", "subdist.ket_bytes")

ERROR_LAYERS = ("parser", "syntax", "combinator", "semantics")


def _originals() -> dict:
    return {(mod, fn): getattr(importlib.import_module(f"arrowlang.{mod}"), fn)
            for mod, fn, _, _ in TARGETS}


def plain_api() -> SimpleNamespace:
    """The instrumented functions themselves, for untraced runs."""
    return SimpleNamespace(**{fn: f for (_, fn), f in _originals().items()})


class Recorder:
    """Spans and counts of one traced run, kept in memory until written out.

    ``api`` holds the wrapped functions; the benchmark calls arrowlang
    through it so that its own calls into each layer are spans too.
    Wrappers are in place in the arrowlang modules only inside
    ``installed()``.
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counting = False
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> count
        self._attributed: list = []
        self._patches: list = []
        originals = _originals()
        self.api = SimpleNamespace(**{fn: self._wrap(f"{mod}.{fn}", originals[mod, fn], count)
                                      for (mod, fn, _, count) in TARGETS})
        for mod, fn, home, _ in TARGETS:
            original, wrapper = originals[mod, fn], getattr(self.api, fn)
            for name, module in list(sys.modules.items()):
                if not name.startswith("arrowlang.") or getattr(module, fn, None) is not original:
                    continue
                if name == f"arrowlang.{mod}" and not home:
                    continue
                self._patches.append((module, fn, original, wrapper))

    def _wrap(self, name: str, fn, count):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self.stack
        generator = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = iter(list(result))
            except Exception as exc:
                if self.counting:
                    self._error(layer, parent, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None and self.counting:
                count(self, result, args)
            return result

        return wrapper

    def _error(self, layer: str, parent, exc: Exception):
        # An exception belongs to the innermost layer whose call it escapes;
        # leaving a span of the same layer does not leave the layer.
        if parent is not None and self.spans[parent][0].split(".", 1)[0] == layer:
            return
        if any(e is exc for e in self._attributed):
            return
        self._attributed.append(exc)
        self.errors[layer, type(exc).__name__] += 1

    @contextmanager
    def installed(self, op_id: int, counting: bool):
        """Wrappers in place for one operation; spans carry ``op_id``."""
        self.op_id, self.counting = op_id, counting
        self._attributed.clear()
        for module, fn, _, wrapper in self._patches:
            setattr(module, fn, wrapper)
        try:
            yield self.api
        finally:
            for module, fn, original, _ in self._patches:
                setattr(module, fn, original)
            self.stack.clear()
