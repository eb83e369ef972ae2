"""Spans around the calls the benchmark makes into wfcheck, and the
re-enactment of brute checks layer by layer.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is its
spans' durations minus the part covered by their child spans.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from wfcheck.fileio import (format_report, load_model, load_rules,
                            report_from_dict)
from wfcheck.net import (DEFAULT_CAP, compile_to_net, derive_trace,
                        enumerate_executions)
from wfcheck.obligations import SatCache, eval_obligation, in_force_intervals
from wfcheck.process import count_executions

# The root span of one re-enacted brute check; engine.self_ms is what the
# engine spends outside the layers timed under it.  Counting intervals is
# the benchmark's own work and gets a span of its own, so no layer pays it.
REENACTED = "reenact"
TALLY = "tally"


class Tracer:
    """Collects spans; a disabled tracer records nothing.

    Spans live in flat arrays, not one object each, so a traced run does
    not hand the garbage collector a growing heap to walk."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")  # -1 for a root span
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str, parent: int | None = None) -> int:
        self.names.append(name)
        self.parents.append(-1 if parent is None else parent)
        self.ends.append(0)
        self.starts.append(perf_counter_ns())
        return len(self.names) - 1

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if not self.enabled:
            yield None
            return
        index = self.begin(name, parent)
        try:
            yield index
        finally:
            self.end(index)

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for s, e, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                own[parent] -= e - s
        out: dict[str, float] = defaultdict(float)
        for name, ns in zip(self.names, own):
            out[name] += ns / 1e6
        return out

    def total_ms(self, name: str) -> float:
        return sum(e - s for n, s, e in zip(self.names, self.starts,
                                             self.ends) if n == name) / 1e6

    def reenacted_ms(self) -> float:
        """Time spent in the layers timed under re-enacted checks."""
        return (self.total_ms(REENACTED) - self.self_ms()[REENACTED]
                - self.total_ms(TALLY))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends,
                            self.parents):
                fh.write(json.dumps(span) + "\n")


def reenact(tracer: Tracer, check, report_dict: dict) -> bool:
    """Replay one brute check through the layers the engine calls, timing
    each, and stop at the engine's own examined count.  True when the
    replay reproduces the engine's verdict and examined count."""
    root = tracer.begin(REENACTED)
    if check.paths is not None:
        with tracer.span("fileio.load", root):
            model = load_model(check.paths[0])
            rules = load_rules(check.paths[1])
    else:
        model, rules = check.case.model, check.case.rules
    with tracer.span("process.count", root):
        count_executions(model.root)
    with tracer.span("net.compile", root):
        compile_to_net(model)
    # enumerate_executions counts and compiles again before it returns the
    # lazy walk; only the walk itself is timed as net.enumerate.
    runs = enumerate_executions(model, DEFAULT_CAP)
    want = check.mode != "full"  # full looks for a violation
    limit = report_dict["traces_examined"]
    cache = SatCache()
    examined, found = 0, False
    walk = tracer.begin("net.enumerate", root)
    for execution in runs:
        examined += 1
        d = tracer.begin("net.derive", walk)
        trace = derive_trace(model, execution)
        tracer.end(d)
        tracer.counts["net.states_folded"] += len(trace.steps)
        ok = True
        for o in rules.obligations:
            e = tracer.begin("obligations.eval", walk)
            satisfied = eval_obligation(trace, o, check.strict,
                                        cache).satisfied
            tracer.end(e)
            t = tracer.begin(TALLY, walk)
            tracer.counts["obligations.intervals"] += len(
                in_force_intervals(trace, o, cache))
            tracer.end(t)
            if not satisfied:
                ok = False
                break
        if ok == want:
            found = True
            break
        if examined >= limit:
            break
    tracer.end(walk)
    tracer.counts["net.runs"] += examined
    if check.paths is not None:
        with tracer.span("fileio.format", root):
            format_report(report_from_dict(report_dict))
    tracer.end(root)
    verdict = found if check.mode == "partial" else not found
    return (verdict == report_dict["verdict"]
            and examined == report_dict["traces_examined"])


def reenact_listing(tracer: Tracer, listing) -> None:
    """The load that `wfcheck enumerate` starts with, timed on its own."""
    with tracer.span("fileio.load"):
        load_model(listing.case.paths[0])
