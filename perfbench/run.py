"""The arrowlang benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Runs one workload in this process as a single-client closed loop: the
next operation starts when the previous one has returned, with no
threads.  Each operation's output is checked against a reference that
does not come from the code it checks (see ``workloads.py``).  Without
``--workload`` every workload runs in a fresh process of its own and a
table of all metrics is printed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: each operation runs once with wrappers around
the public functions of the arrowlang modules and once without, in
alternating order; the wrapped runs give the spans and counts (see
``tracing.py``) and the pair gives the tracing overhead.  Spans are kept
in memory and written to ``perfbench/out/`` at the end.  After the
measured window the workload's probes, if it has any, run once each; the
exceptions they raise are counted in ``<layer>.errors``.

``setup_s`` is the median, over SETUP_REPEATS fresh processes started
through the run, of the time from starting the process to having the
workload's operations ready: interpreter start-up, imports, input
generation and the files written.

Every end-to-end time is scaled to one reference speed of the machine
(see ``scaled``): the machine is shared, and its speed drifts by up to 2x
over seconds and minutes with other tenants' load.  Per-layer times are
wall times as measured.

The last line of output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import fractions
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("corpus", "families", "differential", "long")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "stmts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    import tracing

    units = {name: "s/op" for name in tracing.TIME_GROUPS}
    units.update({f"{layer}.self_s": "s/op" for layer in tracing.LAYERS})
    units.update({name: "count" for name in tracing.COUNTS})
    units["subdist.ket_bytes"] = "bytes"
    units["semantics.observe_keep_ratio"] = "ratio"
    for layer in tracing.ERROR_LAYERS:
        units[f"{layer}.errors"] = "count"
        units[f"{layer}.errors.RecursionError"] = "count"
    units["trace_overhead_frac"] = "ratio"
    units["failed_frac"] = "ratio"
    return units


def import_arrowlang() -> None:
    """Import arrowlang from this checkout's ``src``, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import arrowlang
        import arrowlang.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        sys.exit(f"error: cannot import arrowlang from {src}: {exc}")
    if Path(arrowlang.__file__).resolve().parent != (src / "arrowlang").resolve():
        sys.exit(f"error: imported arrowlang from {arrowlang.__file__}, not from {src}")


# -- where to run, and at what speed ---------------------------------------------

# Scaled times read as times at the speed where ``speed_sample()`` takes
# REFERENCE_S.  On the 2-vCPU x86_64 host the bounds were set on it takes
# 1.1 to 2 ms, depending on other tenants' load.
REFERENCE_S = 0.001


def _reference_work() -> None:
    """Fixed pure-Python work of the kinds arrowlang spends its time on:
    ``Fraction`` arithmetic, tuple keys, dict updates, allocation, sorting.
    It calls nothing in arrowlang, so a change to arrowlang does not move
    it."""
    third = fractions.Fraction(1, 3)
    acc = {}
    for i in range(200):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + third * (i % 7)
    sorted(acc.items())
    table = {(i, str(i)): [i, i + 1] for i in range(1500)}
    sorted(table, key=lambda key: -key[0])


def speed_sample() -> float:
    """Seconds the reference work takes now: the fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time scaled to the reference speed, given ``speed_sample()``
    taken right before and right after it.

    The machine is shared, and other tenants' load slows it by up to 2x
    for stretches of seconds to minutes.  Such a stretch slows the
    reference work about as much as the measured code, so it mostly
    cancels out here.
    """
    return seconds * REFERENCE_S * 2 / (before + after)


class CpuPicker:
    """Keeps this process on the CPU where the reference work runs fastest now.

    The CPUs of a shared machine are slowed by other machines' work, often
    one CPU by up to 1.5x for many seconds while another runs at full
    speed.  A process left where the scheduler put it would measure that
    neighbour's load; the CPU is therefore chosen afresh every
    ``PICK_EVERY_S`` seconds, between operations.
    """

    PICK_EVERY_S = 1.0

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.next_pick = 0.0

    def pick(self) -> bool:
        """Choose the CPU if ``PICK_EVERY_S`` have passed since the last
        choice; True if it did."""
        if time.perf_counter() >= self.next_pick:
            self.pick_now()
            return True
        return False

    def pick_now(self) -> None:
        if len(self.cpus) < 2:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = speed_sample()
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.next_pick = time.perf_counter() + self.PICK_EVERY_S


# -- one operation ----------------------------------------------------------------


def execute(op, api) -> tuple:
    """Run one operation: (op, seconds, status, detail).

    ``status`` is None when every check held, ``"mismatch"`` when an
    output differed from its reference, else the exception's type name.
    Comparing with the reference is not part of the timed region.  Every
    operation starts right after a full garbage collection, so the
    collections it meets depend on its own allocations only, not on what
    ran before it.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        checks = op.run(api)
    except Exception as exc:  # every failure, RecursionError included, is counted
        # keep no reference to the exception: its traceback holds the
        # frames of a deep recursion
        return op, time.perf_counter() - start, type(exc).__name__, str(exc)[:200]
    elapsed = time.perf_counter() - start
    wrong = [what for what, actual, reference in checks if actual != reference]
    return op, elapsed, ("mismatch" if wrong else None), (", ".join(wrong) if wrong else None)


def measure(ops, api, seconds: float, cpu: CpuPicker, set_up) -> tuple[list, list]:
    """Passes over ``ops`` until ``seconds`` have passed, the first one whole.

    The metrics take each operation of the pass once, so where in a pass
    the clock runs out does not change the mix they cover.  Between
    operations, at SETUP_REPEATS even intervals, ``set_up()`` times one
    fresh set-up; spread over the run, the set-ups meet the same changes
    in the machine's speed as the operations.  Every time is ``scaled()``
    with speed samples taken right before and after it.  Returns the
    records, with scaled times, and the scaled set-up times.
    """
    start = time.perf_counter()
    records, setups = [], []
    last = None  # the latest speed sample, while this process stays on its CPU
    while len(records) < len(ops) or time.perf_counter() < start + seconds:
        if time.perf_counter() >= start + len(setups) * seconds / SETUP_REPEATS:
            if len(setups) < SETUP_REPEATS:
                cpu.pick_now()  # the set-up process inherits this one's CPU
                before = speed_sample()
                elapsed = set_up()
                last = speed_sample()
                setups.append(scaled(elapsed, before, last))
        if cpu.pick() or last is None:
            last = speed_sample()
        before = last
        op, elapsed, status, detail = execute(ops[len(records) % len(ops)], api)
        last = speed_sample()
        records.append((op, scaled(elapsed, before, last), status, detail))
    while len(setups) < SETUP_REPEATS:
        before = speed_sample()
        elapsed = set_up()
        setups.append(scaled(elapsed, before, speed_sample()))
    return records, setups


def measure_traced(ops, plain, seconds: float, cpu: CpuPicker):
    """Alternate wrapped and plain executions of every operation.

    Runs at least one whole pass over ``ops``; counts are taken on that
    first pass only, so they do not depend on how fast the machine is.
    Returns the recorder, all records, the number of wrapped executions
    and the tracing overhead: the median, over the pairs of one wrapped
    and one plain execution run back to back, of the ratio of their times,
    minus 1.  A pair shares the machine's load of the moment, which a
    ratio of totals over the run would not.  Pairs of the first pass are
    left out when there are others: counting makes them slower.
    """
    import tracing

    rec = tracing.Recorder()
    records, ratios = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        cpu.pick()
        slot = i % len(ops)
        pair = {}
        # each operation runs first wrapped in one pass and plain in the next,
        # so that a second run's warmer caches favour neither side
        for traced in ((False, True) if (i + i // len(ops)) % 2 == 0 else (True, False)):
            if traced:
                with rec.installed(op_id=i, counting=i < len(ops)) as api:
                    record = execute(ops[slot], api)
            else:
                record = execute(ops[slot], plain)
            pair[traced] = record[1]
            records.append(record)
        ratios.append(pair[True] / pair[False])
        i += 1
    overhead = statistics.median(ratios[len(ops):] or ratios) - 1
    return rec, records, i, overhead


# -- metrics -------------------------------------------------------------------------


def summarize(records) -> tuple[bool, int, int]:
    """(correct, attempted, failed).  An operation fails when it raised or
    when an output differed from its reference; only the latter makes the
    run incorrect."""
    failed = sum(1 for r in records if r[2] is not None)
    return not any(r[2] == "mismatch" for r in records), len(records), failed


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(ops, records, seconds: float, setup_s: float) -> dict:
    """End-to-end metrics over the operations of one pass.

    Each operation's time is the median of its scaled repetitions in the
    run.  A failed operation, one that failed in any repetition, counts as
    slower than every completed one: its latency is the whole measuring
    window.
    """
    n = len(ops)
    times = [statistics.median(r[1] for r in records[slot::n]) for slot in range(n)]
    failed = [any(r[2] is not None for r in records[slot::n]) for slot in range(n)]
    latencies = [max(seconds, t) * 1000 if bad else t * 1000 for t, bad in zip(times, failed)]
    done = sum(op.stmts for op, bad in zip(ops, failed) if not bad)
    return {
        "setup_s": setup_s,
        "stmts_per_s": done / sum(times),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "completed_frac": 1 - sum(failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def group_times(spans) -> dict:
    """Seconds in each of ``tracing.TIME_GROUPS``, a span inside another
    span of its own group (an ``axiom_step`` inside ``applicable_steps``)
    not counted again."""
    import tracing

    group_of = {name: group for group, names in tracing.TIME_GROUPS.items() for name in names}
    times = dict.fromkeys(tracing.TIME_GROUPS, 0.0)
    for name, start, end, parent, _ in spans:
        group = group_of.get(name)
        if group is None:
            continue
        while parent is not None and group_of.get(spans[parent][0]) != group:
            parent = spans[parent][3]
        if parent is None:
            times[group] += end - start
    return times


def per_layer(rec, records, traced_ops: int, overhead: float) -> dict:
    import tracing

    covered = Counter()  # span index -> time its child spans cover
    for _, start, end, parent, _ in rec.spans:
        if parent is not None:
            covered[parent] += end - start
    self_by_layer = Counter()
    for index, (name, start, end, _, _) in enumerate(rec.spans):
        self_by_layer[name.split(".", 1)[0]] += end - start - covered[index]
    metrics = {group: t / traced_ops for group, t in group_times(rec.spans).items()}
    metrics.update({f"{layer}.self_s": self_by_layer[layer] / traced_ops
                    for layer in tracing.LAYERS})
    metrics.update({name: rec.counts[name] for name in tracing.COUNTS})
    seen = rec.counts["semantics.observe_in"]
    metrics["semantics.observe_keep_ratio"] = (rec.counts["semantics.observe_out"] / seen
                                               if seen else 1.0)
    for layer in tracing.ERROR_LAYERS:
        metrics[f"{layer}.errors"] = sum(n for (lay, _), n in rec.errors.items() if lay == layer)
        metrics[f"{layer}.errors.RecursionError"] = rec.errors[layer, "RecursionError"]
    metrics["trace_overhead_frac"] = overhead
    metrics["failed_frac"] = sum(1 for r in records if r[2] is not None) / len(records)
    return metrics


def write_spans(rec, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
        for span in rec.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def describe_ops(records) -> list[str]:
    """One row per kind of operation: count, failures, median latency."""
    groups: dict = {}
    for op, seconds, status, _ in records:
        groups.setdefault(op.label, []).append((seconds, status))
    lines = []
    for label, runs in sorted(groups.items(), key=lambda kv: statistics.median(t for t, _ in kv[1])):
        failed = sum(1 for _, status in runs if status is not None)
        lines.append(f"    {label:40s} n={len(runs):<6d} failed={failed:<4d} "
                     f"median {statistics.median(t for t, _ in runs) * 1000:10.3f} ms")
    return lines


def describe_failures(records) -> list[str]:
    by_status: dict = {}
    for op, _, status, detail in records:
        if status is not None:
            by_status.setdefault(status, Counter())[op.label] += 1
    lines = []
    for status, labels in sorted(by_status.items()):
        shown = ", ".join(f"{label} x{n}" for label, n in sorted(labels.items()))
        lines.append(f"  failed ({status}): {sum(labels.values())}: {shown}")
    return lines


# -- one workload ----------------------------------------------------------------


def build(name: str, seed: int, probes: bool = False) -> list:
    """The workload's operations, with its files written afresh, or with
    ``probes`` its probes (``workloads.PROBES``)."""
    import_arrowlang()
    import tracing
    import workloads

    workdir = OUT / f"{name}-{seed}" / ("probes" if probes else "")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    make = workloads.PROBES.get(name) if probes else workloads.WORKLOADS[name]
    return make(ROOT, workdir, random.Random(seed), tracing.plain_api()) if make else []


def run_probes(probes) -> Counter:
    """Run each probe once with wrappers in place; return the exceptions
    by the layer they escape.  Probes are not operations of the workload
    and are not counted in ``attempted`` or ``failed``."""
    import tracing

    rec = tracing.Recorder()
    for i, op in enumerate(probes):
        with rec.installed(op_id=i, counting=True) as api:
            status = execute(op, api)[2]
        print(f"  {op.label}: {status or 'completed'}")
    return rec.errors


def set_up_once(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its operations being ready.
    ``time.monotonic`` is one clock for every process on the machine."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    begin = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(proc.stderr.strip() or f"error: set-up exited with {proc.returncode}")
    return float(proc.stdout.split()[-1]) - begin


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing

    cpu = CpuPicker()
    ops = build(name, seed)
    plain = tracing.plain_api()
    print(f"workload {name}, seed {seed}, {len(ops)} operations per pass, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    if traced:
        rec, records, traced_ops, overhead = measure_traced(ops, plain, seconds, cpu)
        rec.errors.update(run_probes(build(name, seed, probes=True)))
        metrics = per_layer(rec, records, traced_ops, overhead)
        units = per_layer_units()
        errors = ", ".join(f"{layer}.{kind} x{n}" for (layer, kind), n in sorted(rec.errors.items()))
        print(f"  {traced_ops} traced operations, {len(rec.spans)} spans "
              f"written to {write_spans(rec, name, seed).relative_to(ROOT)}")
        print(f"  exceptions by owning layer: {errors or 'none'}")
    else:
        records, setups = measure(ops, plain, seconds, cpu, lambda: set_up_once(name, seed))
        metrics = end_to_end(ops, records, seconds, statistics.median(setups))
        units = END_TO_END
    correct, attempted, failed = summarize(records)
    print(f"  {attempted} operations attempted, {failed} failed")
    for line in describe_ops(records) + describe_failures(records):
        print(line)
    for key, value in metrics.items():
        note = ""
        if key.startswith("latency"):
            note = (f"  (over the {len(ops)} operations of a pass, each the median of "
                    f"at least {len(records) // len(ops)} repetitions)")
        elif key == "setup_s":
            note = f"  (median of {SETUP_REPEATS} fresh processes)"
        print(f"  {key:36s} {value:>14.6g} {units[key]}{note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    metrics = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':36s}" + "".join(f"{name:>16s}" for name in results) + "  unit")
    for key in metrics:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][key]["unit"]
        print(f"{key:36s}" + "".join(f"{r['metrics'][key]['value']:>16.6g}"
                                    for r in results.values()) + f"  {unit}")
    for label in ("attempted", "failed", "correct"):
        print(f"{label:36s}" + "".join(f"{str(r[label]):>16s}" for r in results.values()))
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload here; without it, run all in fresh processes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print the time.monotonic() it was ready, exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        if args.workload is None:
            ap.error("--setup-only needs --workload")
        build(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
