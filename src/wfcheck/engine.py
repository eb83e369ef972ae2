"""Compliance checks: one entry point, ``run_check``, over two engines.

Three questions are asked of a model and a rule set: do all traces comply
(full), does some trace comply (partial), does no trace comply (non).
``run_check`` asks each as one search, for a violating run (full) or a
complying one (partial, non), with either engine: ``fastpath`` for
``1L-`` rule sets, with no witness, or the brute scan below.  The
brute engine scans runs in the order of the shared run walk
(``net.walk_runs``: depth-first, next task ordered by id) and
short-circuits on the first witness, so verdict, witness and the examined
count are reproducible run to run.  The examined count is the position of
the witness in that order (or the whole space when there is none).

Rules are judged online.  The walk steps each rule's monitor
(``obligations.monitor``) along each edge together with the state: a local
rule's triggers are the tasks whose annotation satisfies its trigger, and
its requirement and deadline are judged on the state after the task.  Runs
that share a prefix share its monitors, and one ``SatCache`` serves the
whole scan.

Partial and non look for a complying run, and no run below a prefix with a
dead monitor complies: the walk skips that subtree and counts its runs
with ``count_executions``, so examined counts and witnesses stay exact.
Only the reported run is built, into a ``Witness``.  ``trace_complies`` over
``eval_obligation`` is the reference the monitors must agree with.

The scan runs in the calling thread.  ``run_check`` accepts ``jobs`` and
ignores it, for callers that pass it: threads gave no speedup on this
CPU-bound scan, since the interpreter lock serialises it, and prefetching
chunks for them slowed early exits.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fastpath import outcomes, require_single_local_literal
from .formula import EMPTY_STATE, State, update
from .net import DEFAULT_CAP, Trace, walk_runs
from .obligations import (MONITOR_DEAD, RuleSet, SatCache, eval_obligation,
                          monitor, monitor_complies)
from .process import Model, Task, count_executions

MODES = ("full", "partial", "non")
ENGINES = ("brute", "fast")


@dataclass(frozen=True)
class Witness:
    """A reported trace: task ids plus the state after each step."""

    execution: tuple[str, ...]
    states: tuple[State, ...]


@dataclass(frozen=True)
class ComplianceReport:
    mode: str
    verdict: bool
    witness: Witness | None
    traces_examined: int
    engine: str = "brute"


def trace_complies(tr: Trace, rs: RuleSet, strict_deadline: bool = False,
                   cache: SatCache | None = None) -> bool:
    """A trace complies when every obligation in the set is satisfied."""
    cache = cache or SatCache()
    return all(eval_obligation(tr, o, strict_deadline, cache).satisfied
               for o in rs.obligations)


def _scan(model: Model, rules: RuleSet, want: bool, cap: int,
          strict_deadline: bool) -> tuple[Witness | None, int]:
    """First run whose compliance equals want, as a witness, plus the
    examined count."""
    holds = SatCache().holds
    tasks = model.tasks()
    monitors = []
    for o in rules.obligations:
        triggers = frozenset(() if o.is_global else (
            t.id for t in tasks if holds(o.trigger, t.annotation)))
        monitors.append(monitor(o, triggers, strict_deadline, holds))
    steps = [step for _, step in monitors]
    kinds = tuple(o.kind for o in rules.obligations)
    skipped = 0

    def fold(carry, task: Task, residual):
        nonlocal skipped
        state = update(carry[0], task.annotation)
        marks = tuple([step(mark, task, state)
                       for step, mark in zip(steps, carry[1])])
        if want and MONITOR_DEAD in marks:
            skipped += count_executions(residual)
            return None
        return state, marks

    start = (EMPTY_STATE, tuple(mark for mark, _ in monitors))
    examined = 0
    for run in walk_runs(model.root, cap, start, fold):
        examined += 1
        if all(map(monitor_complies, run[-1][1][1], kinds)) == want:
            witness = Witness(tuple(task.id for task, _ in run),
                              tuple(carry[0] for _, carry in run))
            return witness, examined + skipped
    return None, examined + skipped


def run_check(model: Model, rules: RuleSet, mode: str, engine: str = "brute",
              jobs: int = 1, cap: int = DEFAULT_CAP,
              strict_deadline: bool = False) -> ComplianceReport:
    """Answer one mode: full holds when no run violates the rules, partial
    when some run complies, non when none does.  The fast engine needs a
    1L- rule set and reads deadlines the default way only."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    want = mode != "full"
    if engine == "brute":
        witness, examined = _scan(model, rules, want, cap, strict_deadline)
        exists = witness is not None
    else:
        if strict_deadline:
            raise ValueError("--strict-deadline needs the brute engine")
        obligation = require_single_local_literal(rules)
        exists = want in outcomes(model, obligation, and_cap=cap)
        witness, examined = None, 0
    return ComplianceReport(mode=mode, verdict=exists == (mode == "partial"),
                            witness=witness, traces_examined=examined,
                            engine=engine)
