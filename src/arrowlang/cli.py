"""Command line front end.

Subcommands: ``run`` evaluates a program (``--trace`` prints the line
states), ``trace`` is run in trace mode, ``eq`` compares two programs
under the declared interpretation and random ones of their ``GEN``
generators, ``corpus`` replays a directory of programs against golden
traces.

Exit codes: 0 success, 1 a usage, parse, type or internal error (one
stderr line, never a traceback: ``error: line:col: ...`` for a parse
error, ``error: line N: ...`` for any other load error), 2 a failed run
(zero mass), 3 programs differ under ``eq``, 4 a corpus mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ArrowError, WeightTooLong, ZeroMassState
from .parser import Program, load_file, load_text, read_source
from .proptest import gen_kernels
from .semantics import EvalResult, Interpretation, denoter, interpret, trace
from .subdist import (
    FAILURE,
    Subdist,
    expected_value,
    ket,
    outcome_key,
    render_outcome,
    render_weight,
    rescale,
    weight_parts,
)
from .syntax import Generator

NORMALIZE_PRAGMA = "# mode: normalize-each-line"


def _fraction_json(q) -> dict:
    num, den = weight_parts(q)
    return {"num": num, "den": den}


def _subdist_json(s: Subdist) -> list:
    out = []
    for x, w in s.items():
        components = x if isinstance(x, tuple) else (x,)
        out.append({"weight": _fraction_json(w),
                    "outcome": [render_outcome(c) for c in components]})
    return out


def _run_output(prog: Program, path: str, *, trace_mode: bool, normalize: bool,
                expected: bool = False, structured: bool = False) -> tuple[str, int]:
    """What ``run`` and ``trace`` print on stdout, and their exit code.

    The output is rendered whole before anything is written: a weight too
    long to print raises WeightTooLong and leaves no partial output.
    """
    doc = {"program": path, "lines": [], "failure": False}
    try:
        if structured or trace_mode or normalize:
            lines, result = trace(prog.typed, prog.interp, prog.texts, normalize=normalize)
        else:
            # only the final state is printed: no line is recorded
            lines, result = [], EvalResult.of(interpret(prog.typed, prog.interp))
    except ZeroMassState as exc:
        if structured:
            doc.update(failure=True, failure_line=exc.line,
                       validity=_fraction_json(Fraction(0)), posterior=[])
            return json.dumps(doc, sort_keys=True) + "\n", 2
        return f"Failure: state mass is zero at line {exc.line}\n", 2

    failed = result.posterior is FAILURE
    ev = expected_value(result.posterior) if expected and not failed else None
    code = 2 if failed else 0

    if structured:
        doc["lines"] = [
            {"line": ln.line, "statement": ln.text,
             "state": _subdist_json(ln.state), "mass": _fraction_json(ln.mass)}
            for ln in lines
        ]
        doc["validity"] = _fraction_json(result.validity)
        doc["posterior"] = [] if failed else _subdist_json(result.posterior)
        doc["failure"] = failed
        if ev is not None:
            doc["expected_value"] = _fraction_json(ev)
        return json.dumps(doc, sort_keys=True) + "\n", code

    validity = f"Validity: {render_weight(result.validity)}"
    if trace_mode:
        body = [f"({ln.line}) {ln.text} | {ket(ln.state)}" for ln in lines]
        body += [validity, "Failure" if failed else f"Posterior: {ket(result.posterior)}"]
    else:
        body = [f"Final: {ket(result.final)}", validity,
                f"Posterior: {'Failure' if failed else ket(result.posterior)}"]
    if ev is not None:
        body.append(f"Expected value: {render_weight(ev)}")
    return "\n".join(body) + "\n", code


def cmd_run(args) -> int:
    try:
        prog = load_file(args.path)
        prog.require_tables()
        text, code = _run_output(prog, str(args.path), trace_mode=args.trace_mode,
                                 normalize=args.normalize_each_line,
                                 expected=args.expected_value,
                                 structured=args.format == "structured")
        sys.stdout.write(text)
        return code
    except (ArrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _declared_gens(p: Program) -> dict[str, Generator]:
    """The generators ``p`` declares with ``GEN``: the only ones ``eq``
    reinterprets.  An inline ``UNIFORM``/``CASE`` table means its table."""
    gens = p.typed.sig.generators
    return {gd.name: gens[gd.name] for gd in p.source.gens}


def _compatible(a: Program, b: Program) -> bool:
    for tname in sorted(set(a.interp.carriers) & set(b.interp.carriers)):
        if set(a.interp.carriers[tname]) != set(b.interp.carriers[tname]):  # order is free
            print(f"error: type {tname} has different carriers", file=sys.stderr)
            return False
    gens_a, gens_b = _declared_gens(a), _declared_gens(b)
    for name in sorted(set(gens_a) & set(gens_b)):
        if gens_a[name] != gens_b[name]:
            print(f"error: generator {name} declared with different types", file=sys.stderr)
            return False
    return True


def _final(prog: Program, denote, kernels=None) -> Subdist:
    """The final state of ``prog``; ``kernels`` replaces the tables of its
    own ``GEN`` declarations, never a sugar table of the same name."""
    interp = prog.interp
    if kernels is not None:
        merged = dict(interp.kernels)
        merged.update({gd.name: kernels[gd.name] for gd in prog.source.gens})
        interp = Interpretation._of_tables(interp.carriers, merged)
    return denote(interp, [()])[()]


def _describe_counterexample(which: str, fa: Subdist, fb: Subdist, kernels=None) -> int:
    """Print how the programs differ, and the random kernels if given."""
    try:
        lines = [f"programs differ under {which}",
                 f"  left final:  {ket(fa)}", f"  right final: {ket(fb)}"]
        for side, final in (("left", fa), ("right", fb)):
            res = rescale(final)
            text = "Failure" if res is FAILURE else ket(res[1])
            lines.append(f"  {side} posterior: {text}")
        for name, table in sorted((kernels or {}).items()):
            for inputs in sorted(table, key=outcome_key):
                shown = ", ".join(render_outcome(v) for v in inputs)
                lines.append(f"    {name}({shown}) = {ket(table[inputs])}")
    except WeightTooLong as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 3


def cmd_eq(args) -> int:
    try:
        a = load_file(args.path_a)
        b = load_file(args.path_b)
    except (ArrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not _compatible(a, b):
        return 1
    denote_a, denote_b = denoter(a.typed), denoter(b.typed)

    gens = {**_declared_gens(a), **_declared_gens(b)}
    untabled = sorted(gd.name for p in (a, b) for gd in p.source.gens if gd.rows is None)
    if untabled and not args.trials:
        print(f"error: --trials 0 compares nothing: generator {untabled[0]} has no table",
              file=sys.stderr)
        return 1
    if not untabled:
        fa, fb = _final(a, denote_a), _final(b, denote_b)
        if fa != fb:
            return _describe_counterexample("the declared interpretation", fa, fb)
    if not gens:  # every trial would repeat the declared comparison
        print("programs are equal: neither declares a GEN, "
              "so the declared tables are their only interpretation")
        return 0

    rng = random.Random(args.seed)
    carriers = dict(a.interp.carriers)
    carriers.update({t: c for t, c in b.interp.carriers.items() if t not in carriers})
    for trial in range(args.trials):
        kernels = gen_kernels(gens.values(), carriers, rng)
        fa, fb = _final(a, denote_a, kernels), _final(b, denote_b, kernels)
        if fa != fb:
            return _describe_counterexample(
                f"random interpretation (seed {args.seed}, trial {trial})", fa, fb, kernels)
    checked = "" if untabled else "declared interpretation and "
    print(f"programs agree under the {checked}{args.trials} random interpretations")
    return 0


def cmd_corpus(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 1
    programs = sorted(root.glob("*.arrow"))
    if not programs:
        print(f"warning: no .arrow files in {root}", file=sys.stderr)
        return 0
    failures = []
    for path in programs:
        golden = path.with_suffix(".golden")
        name = path.stem
        if not golden.exists():
            failures.append((name, "missing golden file", None, None))
            print(f"FAIL {name} (missing golden file)")
            continue
        try:
            source = read_source(path)
            expected = read_source(golden)
            prog = load_text(source)
            prog.require_tables()
            normalize = any(line.strip() == NORMALIZE_PRAGMA for line in source.splitlines())
            actual, _ = _run_output(prog, str(path), trace_mode=True, normalize=normalize)
        except (ArrowError, OSError) as exc:
            failures.append((name, f"error: {exc}", None, None))
            print(f"FAIL {name} (error: {exc})")
            continue
        if actual == expected:
            print(f"PASS {name}")
            continue
        exp_lines = expected.splitlines()
        act_lines = actual.splitlines()
        where = next(
            (i for i, (e, g) in enumerate(zip(exp_lines, act_lines), 1) if e != g),
            min(len(exp_lines), len(act_lines)) + 1,
        )
        failures.append((name, f"first difference at line {where}",
                         exp_lines[where - 1] if where <= len(exp_lines) else "<end>",
                         act_lines[where - 1] if where <= len(act_lines) else "<end>"))
        print(f"FAIL {name} (first difference at line {where})")
    if failures:
        name, why, exp, act = failures[0]
        print(f"first failure: {name}: {why}")
        if exp is not None:
            print(f"  golden: {exp}")
            print(f"  actual: {act}")
        return 4
    return 0


def _count(text: str) -> int:
    """An option's count: an int, and not negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as one stderr line and exit 1."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: ``main`` runs many
    times in one process under the tests and the benchmark."""
    ap = _ArgumentParser(prog="arrowlang",
                         description="evaluate probabilistic decision programs exactly")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_run_flags(p, trace_default: bool):
        p.add_argument("path")
        if not trace_default:
            p.add_argument("--trace", dest="trace_mode", action="store_true",
                           help="print the per-statement states")
        p.add_argument("--normalize-each-line", action="store_true",
                       help="rescale the state to mass 1 after every statement")
        p.add_argument("--expected-value", action="store_true",
                       help="print the expected value of the posterior")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.set_defaults(trace_mode=trace_default)

    add_run_flags(sub.add_parser("run", help="evaluate a program"), trace_default=False)
    add_run_flags(sub.add_parser("trace", help="print the statement-by-statement trace"),
                  trace_default=True)

    eq = sub.add_parser("eq", help="check two programs for equal denotations")
    eq.add_argument("path_a")
    eq.add_argument("path_b")
    eq.add_argument("--trials", type=_count, default=20)
    eq.add_argument("--seed", type=int, default=0)

    corpus = sub.add_parser("corpus", help="replay a directory against golden traces")
    corpus.add_argument("dir")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    command = {"run": cmd_run, "trace": cmd_run, "eq": cmd_eq, "corpus": cmd_corpus}
    try:
        return command[args.command](args)
    except Exception as exc:  # the commands report the errors they expect
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
