"""Timing suites comparing the engines on families of growing instances.

Three suites cover the scaling stories: "reduction" runs the brute
engine over interpretation models whose trace count doubles per atom;
"fastpath" pits the brute scan against the reach-set engine on XOR-chain
instances where only the latter stays polynomial; and "parallel" runs
full checks of both on an and-block of n chains of n tasks, whose
(n·n)!/(n!)^n runs the brute engine lists (while they are within
``DEFAULT_CAP``) and the fast engine mostly skips, since it takes the
block's quiet tasks out before searching it.
"""
from __future__ import annotations

import csv
import string
import time
from dataclasses import dataclass
from pathlib import Path

from .engine import DEFAULT_CAP, run_check
from .formula import And, Atom, Formula, Not, Or, State
from .obligations import Kind, Obligation, RuleSet
from .process import (AndBlock, Model, Seq, Task, Xor, count_executions,
                      validate)
from .reduction import build_interpretation_model

CSV_HEADER = ("instance", "engine", "n", "wall_ms", "traces", "verdict")


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    engine: str
    n: int
    wall_ms: float
    traces: int
    verdict: bool

    def row(self) -> tuple:
        return (self.instance, self.engine, self.n,
                f"{self.wall_ms:.3f}", self.traces,
                "true" if self.verdict else "false")


def _excluded_middle(n: int) -> Formula:
    """(a | !a) & (b | !b) & ... over n atoms: a tautology, so the full
    check cannot short-circuit and must visit all 2^n interpretations."""
    clauses = [Or(Atom(name), Not(Atom(name)))
               for name in string.ascii_lowercase[:n]]
    f = clauses[0]
    for clause in clauses[1:]:
        f = And(f, clause)
    return f


def _record(instance: str, n: int, model: Model, rules: RuleSet, mode: str,
            engine: str = "brute", cap: int = DEFAULT_CAP) -> BenchRecord:
    """One row: run_check timed on one instance."""
    start = time.perf_counter()
    report = run_check(model, rules, mode, engine=engine, cap=cap)
    ms = (time.perf_counter() - start) * 1000.0
    return BenchRecord(instance, engine, n, ms, report.traces_examined,
                       report.verdict)


def _reduction_records(n_min: int, n_max: int) -> list[BenchRecord]:
    records = []
    for n in range(n_min, n_max + 1):
        instance = build_interpretation_model(_excluded_middle(n))
        records.append(_record(f"reduction-n{n}", n, instance.model,
                               instance.rules, "full",
                               cap=max(DEFAULT_CAP, 2 ** n + 1)))
    return records


def _xor_chain(n: int):
    """A trigger, n binary choices on an unrelated atom, then the
    deadline.  The requirement atom is never asserted, so the brute
    partial check must walk all 2^n runs before giving up."""
    blocks = [Task("x1", State.of("a"))]
    for k in range(1, n + 1):
        blocks.append(Xor((Task(f"p{k}", State.of("c")),
                           Task(f"q{k}", State.of("-c")))))
    blocks.append(Task("z", State.of("d")))
    model = validate(Seq(tuple(blocks)), name=f"xor-chain-{n}")
    rule = Obligation(Kind.ACHIEVEMENT, Atom("b"),
                      trigger=Atom("a"), deadline=Atom("d"))
    return model, rule


def _fastpath_records(n_min: int, n_max: int) -> list[BenchRecord]:
    records = []
    for n in range(n_min, n_max + 1):
        model, rule = _xor_chain(n)
        rules = RuleSet((rule,))
        records.append(_record(f"fastpath-n{n}", n, model, rules, "partial",
                               cap=max(DEFAULT_CAP, 2 ** n + 1)))
        records.append(_record(f"fastpath-n{n}", n, model, rules, "partial",
                               "fast"))
    return records


def _and_chains(n: int):
    """A trigger, then an and-block of n chains of n tasks, under the
    achievement rule <b, a, d>.  Task j of chain c sets or clears the
    requirement b or the deadline d, by (c + j) mod 4, when (c + j) mod 3
    is 0; every other task carries one noise literal of its chain."""
    roles = ("b", "-b", "d", "-d")
    lanes = [Seq(tuple(Task(f"c{c}_{j}", State.of(
                 roles[(c + j) % 4] if (c + j) % 3 == 0
                 else f"e{c}" if j % 2 == 0 else f"-e{c}"))
                 for j in range(n)))
             for c in range(n)]
    body = Seq((Task("x", State.of("a")), AndBlock(tuple(lanes))))
    model = validate(body, name=f"and-chains-{n}")
    rule = Obligation(Kind.ACHIEVEMENT, Atom("b"),
                      trigger=Atom("a"), deadline=Atom("d"))
    return model, rule


def _parallel_records(n_min: int, n_max: int) -> list[BenchRecord]:
    records = []
    for n in range(n_min, n_max + 1):
        model, rule = _and_chains(n)
        rules = RuleSet((rule,))
        if count_executions(model.root) <= DEFAULT_CAP:
            records.append(_record(f"parallel-n{n}", n, model, rules,
                                   "full"))
        records.append(_record(f"parallel-n{n}", n, model, rules, "full",
                               "fast"))
    return records


SUITES = {"reduction": _reduction_records, "fastpath": _fastpath_records,
          "parallel": _parallel_records}


def run_bench(suite: str, n_min: int, n_max: int,
              out: str | Path | None = None) -> list[BenchRecord]:
    """Run one suite over [n_min, n_max] and optionally write a CSV."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n-min <= n-max, got n-min {n_min} "
                         f"and n-max {n_max}")
    if suite == "reduction" and n_max > len(string.ascii_lowercase):
        raise ValueError(f"the reduction suite has 26 atoms, got n-max "
                         f"{n_max}")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    records = SUITES[suite](n_min, n_max)
    if out is not None:
        write_csv(records, out)
    return records


def write_csv(records: list[BenchRecord], out: str | Path) -> None:
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.row())
