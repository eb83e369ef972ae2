"""Brute-force compliance checking over the enumerated trace space.

Three questions are asked of a model and a rule set: do all traces comply
(full), does some trace comply (partial), does no trace comply (non).  The
brute engine scans traces in the order of the shared frontier enumerator
(``net.enumerate_executions``: depth-first, next task ordered by id) and
short-circuits on the first witness, so verdict, witness and the examined
count are reproducible run to run.  The examined count is the position of
the witness in that order (or the whole space when there is none).

The scan runs in the calling thread.  ``jobs`` is accepted and ignored:
threads gave no speedup on this CPU-bound scan, since the interpreter lock
serialises it, and prefetching chunks for them slowed early exits.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import State
from .net import DEFAULT_CAP, Trace, derive_trace, enumerate_executions
from .obligations import RuleSet, SatCache, eval_obligation
from .process import Model


@dataclass(frozen=True)
class Witness:
    """A reported trace: task ids plus the state after each step."""

    execution: tuple[str, ...]
    states: tuple[State, ...]

    @classmethod
    def from_trace(cls, trace: Trace) -> "Witness":
        return cls(trace.task_ids(), trace.states())


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
          strict_deadline: bool) -> tuple[Trace | None, int]:
    """First trace whose compliance equals want, plus the examined count."""
    cache = SatCache()
    examined = 0
    for execution in enumerate_executions(model, cap):
        trace = derive_trace(model, execution)
        examined += 1
        if trace_complies(trace, rules, strict_deadline, cache) == want:
            return trace, examined
    return None, examined


def check_full(model: Model, rules: RuleSet, jobs: int = 1,
               cap: int = DEFAULT_CAP,
               strict_deadline: bool = False) -> ComplianceReport:
    """Every trace complies; a violating trace is reported otherwise."""
    violator, examined = _scan(model, rules, False, cap, strict_deadline)
    return ComplianceReport(
        mode="full",
        verdict=violator is None,
        witness=None if violator is None else Witness.from_trace(violator),
        traces_examined=examined)


def check_partial(model: Model, rules: RuleSet, jobs: int = 1,
                  cap: int = DEFAULT_CAP,
                  strict_deadline: bool = False) -> ComplianceReport:
    """Some trace complies; the first such trace is the witness."""
    complier, examined = _scan(model, rules, True, cap, strict_deadline)
    return ComplianceReport(
        mode="partial",
        verdict=complier is not None,
        witness=None if complier is None else Witness.from_trace(complier),
        traces_examined=examined)


def check_non(model: Model, rules: RuleSet, jobs: int = 1,
              cap: int = DEFAULT_CAP,
              strict_deadline: bool = False) -> ComplianceReport:
    """No trace complies; a complying trace refutes this."""
    partial = check_partial(model, rules, jobs, cap, strict_deadline)
    return ComplianceReport(
        mode="non",
        verdict=not partial.verdict,
        witness=partial.witness,
        traces_examined=partial.traces_examined)


def run_check(model: Model, rules: RuleSet, mode: str, engine: str = "brute",
              jobs: int = 1, cap: int = DEFAULT_CAP,
              strict_deadline: bool = False) -> ComplianceReport:
    """Dispatch a mode/engine pair; the fast engine needs a 1L- rule set."""
    if mode not in ("full", "partial", "non"):
        raise ValueError(f"unknown mode {mode!r}")
    if engine == "brute":
        checker = {"full": check_full, "partial": check_partial,
                   "non": check_non}[mode]
        return checker(model, rules, jobs, cap, strict_deadline)
    if engine != "fast":
        raise ValueError(f"unknown engine {engine!r}")
    from .fastpath import (full_compliant_fast, partial_compliant_fast,
                           require_single_local_literal)
    obligation = require_single_local_literal(rules)
    if mode == "full":
        verdict = full_compliant_fast(model, obligation, and_cap=cap)
    else:
        verdict = partial_compliant_fast(model, obligation, and_cap=cap)
        if mode == "non":
            verdict = not verdict
    return ComplianceReport(mode=mode, verdict=verdict, witness=None,
                            traces_examined=0, engine="fast")
