"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 10 --label "commit abc1234" --out perfbench/baseline.json

Each run is a fresh process of ``run.py`` with ``run_seconds`` from
BENCHMARK.json and seeds 1..N.  For every end-to-end metric the file keeps
each run's value, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
interquartile range as a share of the median, next to the metric's bound.
One traced run per workload (seed 1) gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    doc = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, args.seeds + 1)),
        "spread": "(q3 - q1) / median over the seeds, quartiles from statistics.quantiles(n=4)",
        "workloads": {},
    }
    for name in run.WORKLOAD_NAMES:
        results = [one_run(name, seed, spec["run_seconds"], 0) for seed in doc["seeds"]]
        end_to_end = {}
        for metric in run.END_TO_END:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric] = {
                "unit": run.END_TO_END[metric], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[metric], "values": values,
            }
            print(f"{name:13s} {metric:16s} median {median:12.6g}  spread "
                  f"{(q3 - q1) / median:7.4f}  bound {bounds[metric]}", flush=True)
        traced = one_run(name, 1, spec["run_seconds"], 1)
        doc["workloads"][name] = {
            "why": whys[name],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "end_to_end": end_to_end,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
