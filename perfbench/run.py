#!/usr/bin/env python3
"""wfcheck benchmark: time to verdict on one workload, outputs checked.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload choice|parallel|corpus \
        --seed N --seconds S --trace 0|1

The workload's inputs are built from the seed, then whole rounds of the
same calls into wfcheck run until S seconds of rounds have been measured;
the set-up runs again after every round, and setup_s is the median.
Every output is checked against the independent oracle in oracle.py and
the closed forms the workload knows.  Every time is scaled to a reference
speed of the machine, sampled between the calls (see speed.py), and each
call's figure is its median over the rounds.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics, the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The traced run also
writes its spans to perfbench/.out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "wfcheck").is_dir():
    sys.exit(f"no wfcheck sources under {ROOT / 'src'}: run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, Listing  # noqa: E402

SPAN = {"brute": "engine.check", "fast": "fastpath.check"}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tracer = tracing.Tracer(traced)
    out_dir = HERE / ".out"
    work = out_dir / f"work-{os.getpid()}"
    build = workloads.WORKLOADS[workload]
    machine = speed.Speed()
    setup_s: list[float] = []

    def set_up():
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        gc.collect()
        mark = machine.sample()
        start = perf_counter()
        inputs = build(random.Random(seed), work / "inputs", tracer)
        elapsed = perf_counter() - start
        machine.sample()
        setup_s.append(elapsed * machine.factor(mark))
        return inputs

    try:
        shutil.rmtree(work, ignore_errors=True)
        # The set-up runs again after each round, and writes the same bytes
        # over the same files.  Creating a file costs this filesystem more
        # than building and writing it, and varies more, so only the first
        # set-up pays for that; setup_s is the median.
        result = measure(set_up(), seconds, tracer, set_up, machine)
        result["setup"] = setup_s
        result["tracer"] = tracer
        if traced:
            tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(ops: list, seconds: float, tracer, between_rounds=None,
            machine=None) -> dict:
    """Run whole rounds of the workload's calls until `seconds` of rounds
    have passed; check every output; keep each call's time per round,
    scaled to the reference speed.  between_rounds (the workload's
    set-up, again) runs after each round, so set-up times are sampled
    across the run as the rounds are."""
    if machine is None:
        machine = speed.Speed()
    oracle = workloads.Expectations()
    expected = [oracle.expect(op) for op in ops]
    problems = list(oracle.problems)
    # The oracle's tables stay alive all run; keep the collector from
    # walking them while the program runs.
    gc.collect()
    gc.freeze()
    times = [[] for _ in ops]
    work = [0] * len(ops)  # runs examined or listed by one call
    attempted = failed = examined = 0
    closed_interleavings = 0
    walls: list[float] = []
    while not walls or sum(walls) < seconds:
        gc.collect()
        outputs = []
        round_start = perf_counter()
        for op in ops:
            name = "cli.enumerate" if isinstance(op, Listing) else \
                SPAN[op.engine]
            mark = machine.tick()
            span = tracer.begin(name) if tracer.enabled else None
            start = perf_counter()
            try:
                out = workloads.execute(op)
            except Exception as err:  # counted as a failed operation
                out = err
            elapsed = perf_counter() - start
            if span is not None:
                tracer.end(span)
            outputs.append((out, elapsed, mark))
        walls.append(perf_counter() - round_start)
        machine.sample()  # the last call's second sample
        outputs = [(out, elapsed * machine.factor(mark))
                   for out, elapsed, mark in outputs]
        for i, (op, (out, elapsed), want) in enumerate(
                zip(ops, outputs, expected)):
            attempted += 1
            try:
                ok, got = (False, None) if isinstance(out, Exception) else \
                    workloads.verify(op, out, want, tracer)
            except (ValueError, KeyError, TypeError):  # unreadable output
                ok, got = False, None
            if ok and tracer.enabled and isinstance(op, Listing):
                tracing.reenact_listing(tracer, op)
            elif ok and tracer.enabled:
                if op.engine == "brute":
                    ok = tracing.reenact(tracer, op, got)
                else:
                    tracer.counts["fastpath.and_interleavings"] += \
                        workloads.and_interleavings(op.case.model)
                    closed_interleavings += op.case.interleavings
            if not ok:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {describe(op)}: {out!r:.300}",
                          file=sys.stderr)
                continue
            times[i].append(elapsed)
            if isinstance(op, Listing):
                work[i] = len(want)
            elif op.engine == "brute":
                work[i] = got["traces_examined"]
                examined += work[i]
        if between_rounds is not None:
            between_rounds()
    if tracer.enabled:
        if tracer.counts["net.runs"] != examined:
            problems.append(f"net.runs {tracer.counts['net.runs']} != "
                            f"traces examined {examined}")
        if tracer.counts["fastpath.and_interleavings"] != \
                closed_interleavings:
            problems.append("and-block interleavings differ from the "
                            "closed forms")
    # One figure per call: its median scaled time over the rounds.
    calls = [(op, statistics.median(ts), n)
             for op, ts, n in zip(ops, times, work) if ts]
    return {"rounds": len(walls), "walls": walls, "calls": calls,
            "speed": machine, "attempted": attempted, "failed": failed,
            "problems": problems}


def describe(op) -> str:
    if isinstance(op, Listing):
        return f"enumerate {op.case.name}"
    return (f"{op.engine} {op.mode} {op.case.name} jobs={op.jobs}"
            f"{' strict' if op.strict else ''}{' cli' if op.cli else ''}")


def end_to_end(result: dict) -> dict:
    calls = result["calls"]
    brute = [(t, n) for op, t, n in calls
             if isinstance(op, Check) and op.engine == "brute"]
    fast = [t for op, t, _ in calls
            if isinstance(op, Check) and op.engine == "fast"]
    listings = [(t, n) for op, t, n in calls if isinstance(op, Listing)]
    brute_ms = [t * 1000 for t, _ in brute]
    return {
        "setup_s": statistics.median(result["setup"]),
        "wall_s": sum(t for _, t, _ in calls),
        "brute_runs_per_s": (sum(n for _, n in brute)
                             / sum(t for t, _ in brute)),
        "brute_check_ms.p50": statistics.median(brute_ms),
        "brute_check_ms.p99": statistics.quantiles(brute_ms, n=100)[98],
        "fast_check_ms.p50": statistics.median(fast) * 1000,
        "enumerate_runs_per_s": (sum(n for _, n in listings)
                                 / sum(t for t, _ in listings)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(result: dict) -> dict:
    """Per-layer figures from the spans and counters, per round (set-up
    layers per set-up).  Times are scaled by the run's median speed."""
    tracer, rounds = result["tracer"], result["rounds"]
    scale = result["speed"].run_factor()
    self_ms = {name: ms * scale for name, ms in tracer.self_ms().items()}
    out = {f"{name}_ms": self_ms.get(name, 0.0) / rounds for name in (
        "net.enumerate", "net.derive", "obligations.eval", "engine.check",
        "fastpath.check", "fileio.load", "fileio.format", "process.count",
        "net.compile", "cli.enumerate")}
    out["engine.self_ms"] = (tracer.total_ms("engine.check")
                             - tracer.reenacted_ms()) * scale / rounds
    for name in ("reduction.build", "generate.instance"):
        out[f"{name}_ms"] = self_ms.get(name, 0.0) / len(result["setup"])
    for name in ("net.runs", "net.states_folded", "obligations.intervals",
                 "fastpath.and_interleavings"):
        out[name] = tracer.counts[name] // rounds
    out["engine.traces_examined"] = sum(
        n for op, _, n in result["calls"]
        if isinstance(op, Check) and op.engine == "brute")
    return out


def summary(args, result: dict) -> str:
    """One line for people: rounds as measured, the machine's speed against
    the reference, a round's time from the per-call figures (with --trace
    1 too, so the two runs show the tracing overhead), set-up, failures
    and the brute time per --jobs value."""
    calls = result["calls"]
    by_check: dict[tuple, dict[int, float]] = {}
    for op, t, _ in calls:
        if isinstance(op, Check) and op.engine == "brute":
            by_check.setdefault((op.case.name, op.mode), {})[op.jobs] = t
    jobs: dict[int, float] = {}
    for times in by_check.values():
        if len(times) > 1:  # the same check at several --jobs values
            for j, t in times.items():
                jobs[j] = jobs.get(j, 0.0) + t
    split = ", ".join(f"jobs={j} brute {t:.3f} s"
                      for j, t in sorted(jobs.items())) or "one --jobs value"
    return (f"{args.workload} seed={args.seed} trace={args.trace}: "
            f"{result['rounds']} rounds of "
            f"{' '.join(f'{t:.2f}' for t in result['walls'])} s at "
            f"{1 / result['speed'].run_factor():.2f}x the reference loop "
            f"time, round from per-call medians "
            f"{sum(t for _, t, _ in calls):.3f} s"
            f" ({split}), set-up {statistics.median(result['setup']):.3f} s"
            f", {result['failed']}/{result['attempted']} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    traced = args.trace == 1
    result = run(args.workload, args.seed, args.seconds, traced)
    if traced:
        values = per_layer(result)
        metrics = spec["per_layer"]
    else:
        values = end_to_end(result)
        metrics = spec["end_to_end"]
    for problem in result["problems"]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(summary(args, result), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
