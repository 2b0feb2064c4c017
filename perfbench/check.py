"""Checks of the benchmark itself.

    python3 perfbench/check.py [--seed N]

1. Self-test: for every workload, one operation is run as it is and then
   with one of its references corrupted; the corrupted run must count as a
   failed operation and make the result incorrect.
2. Determinism: every count metric must repeat exactly across two traced
   runs with one ``PYTHONHASHSEED`` and one run with another.
3. The metric names and units printed match ``BENCHMARK.json``.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

import run
import tracing


class Corrupt:
    """A reference no output equals."""

    def __eq__(self, other):
        return False

    __hash__ = None


def self_test(seed: int) -> list[str]:
    run.import_arrowlang()
    import workloads
    from workloads import Op

    plain = tracing.plain_api()
    problems = []
    for name in run.WORKLOAD_NAMES:
        workdir = run.OUT / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        op = workloads.WORKLOADS[name](run.ROOT, workdir, random.Random(seed), plain)[0]

        def corrupted(api, op=op):
            (what, actual, _), *rest = op.run(api)
            return [(what, actual, Corrupt())] + rest

        records = [run.execute(op, plain), run.execute(Op(op.label, op.stmts, corrupted), plain)]
        correct, attempted, failed = run.summarize(records)
        statuses = [r[2] for r in records]
        ok = statuses == [None, "mismatch"] and (correct, attempted, failed) == (False, 2, 1)
        print(f"self-test {name}: {op.label}: statuses {statuses}, correct={correct}, "
              f"failed={failed}/{attempted}: {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"self-test {name}")
    return problems


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=run.ROOT, env=env, capture_output=True, text=True,
                          check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracing.COUNTS}


def determinism(seed: int) -> list[str]:
    problems = []
    for name in run.WORKLOAD_NAMES:
        runs = [traced_counts(name, seed, h) for h in ("0", "0", "1")]
        ok = runs[0] == runs[1] == runs[2]
        print(f"determinism {name}: {runs[0]}: {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"determinism {name}: {runs}")
    return problems


def declared_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared != run.END_TO_END:
        problems.append(f"end_to_end metrics differ: {declared} != {run.END_TO_END}")
    if layers != run.per_layer_units():
        problems.append(f"per_layer metrics differ: {layers} != {run.per_layer_units()}")
    print(f"BENCHMARK.json metric names and units: {'FAILED' if problems else 'ok'}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = declared_metrics() + self_test(args.seed) + determinism(args.seed)
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
