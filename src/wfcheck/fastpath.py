"""Polynomial checking for a single local rule over literals.

When requirement, trigger and deadline are all literals, all a rule can
observe of a state is its projection onto the requirement and deadline
literals: two truth bits.  The engine steps the rule's monitor
(``obligations.monitor``, which the brute engine steps on whole states) on
those bits, and the carries it can reach compose structurally: fold
through sequence children, union over choice branches.  Parallel blocks
have no cheap composition, so they are explored task by task on the run
walk (``net.walk_runs``), which goes on from each (residual, carry) pair
once, and refused when they admit more runs than a cap; choice-heavy
models — where brute force blows up — stay polynomial.

Every query steps that monitor for a set of trigger tasks.  With every
trigger task in the set, the carries that runs end in decide partial and
full compliance exactly.  With the set {x}, the endings of the runs where
x fired tell whether x's interval can be satisfied or violated.  A query
walks the model's task list once, for the trigger tasks and for how each
task moves the two bits; ``label_triggers`` shares that walk among its
triggers.

The structural `erase` operation removes tasks from a model such that the
surviving runs are exactly the original runs avoiding them; together with
the per-trigger labelling it supports the screening procedure of marking
hopeless triggers as not executable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formula import EMPTY_STATE, eval_formula, formula_to_literal
from .net import Carry, walk_runs
from .obligations import (MONITOR_DEAD, Obligation, RuleSet,
                          classify_variant, monitor, monitor_complies)
from .process import (AndBlock, Model, ProcessBlock, Seq, Task, TaskBlock,
                      Xor, validate)

DEFAULT_AND_CAP = 4096


class NotLiteralVariant(ValueError):
    """The rule's requirement, trigger or deadline is not a literal."""


class WrongVariant(ValueError):
    """The rule set is not a single local literal obligation."""

    def __init__(self, variant: str):
        super().__init__(f"fast engine needs variant 1L-, got {variant}")
        self.variant = variant


@dataclass(frozen=True)
class Survives:
    model: Model


class RootRemoved:
    def __repr__(self):
        return "RootRemoved()"


ROOT_REMOVED = RootRemoved()


@dataclass(frozen=True)
class TriggerAnalysis:
    task: Task
    satisfiable: bool


def require_single_local_literal(rs: RuleSet) -> Obligation:
    tag = classify_variant(rs)
    if str(tag) != "1L-":
        raise WrongVariant(str(tag))
    return rs.obligations[0]


def trigger_transitions(m: Model, o: Obligation) -> list[Task]:
    """Tasks whose annotation satisfies the trigger, in declaration order."""
    return list(_scan_tasks(m, o)[0].values())


# ---------------------------------------------------------------------------
# the rule's monitor on two truth bits
#
# An annotation sets a bit when it asserts the literal, clears it when it
# asserts the negation, and otherwise leaves it, as ``update`` does to the
# whole state.  The carry is (bits, mark, whether a trigger in the set
# fired).  A carry that can no longer change the outcome collapses to one
# constant, which keeps reach sets small: _DEAD once an interval is
# violated, _DECIDED once the only trigger has fired and its interval
# closed (a task fires at most once per run).

_REQUIREMENT, _DEADLINE = 1, 2
_DEAD, _DECIDED = (0, MONITOR_DEAD, True), (0, 0, True)


def _reach(block: ProcessBlock, states: frozenset[Carry],
           step: Callable[[Carry, Task], Carry], cap: int) -> frozenset:
    """Carries reachable after some run of the block."""
    if isinstance(block, TaskBlock):
        return frozenset(step(s, block.task) for s in states)
    if isinstance(block, Seq):
        for child in block.children:
            states = _reach(child, states, step, cap)
        return states
    if isinstance(block, Xor):
        out: set[Carry] = set()
        for child in block.children:
            out |= _reach(child, states, step, cap)
        return frozenset(out)
    if isinstance(block, AndBlock):
        # interleavings that reach the same (residual, carry) pair share
        # everything after it, so the walk goes on from each pair once
        seen = set()

        def fold(s: Carry, task: Task, after: ProcessBlock) -> Carry | None:
            s = step(s, task)
            if (after, s) in seen:
                return None
            seen.add((after, s))
            return s

        return frozenset(run[-1][1] for s in states
                         for run in walk_runs(block, cap, s, fold))
    raise TypeError(f"not a process block: {block!r}")


def _scan_tasks(m: Model, o: Obligation
                ) -> tuple[dict[str, Task], dict[str, tuple[int, int]]]:
    """o's trigger tasks by id, in declaration order, and each task's masks
    on o's two truth bits, (bits kept, bits set), from one walk over m's
    tasks."""
    if o.is_global:
        raise NotLiteralVariant("rule has no trigger: nothing to anchor at")
    if not o.literal_fields():
        raise NotLiteralVariant(
            "requirement, trigger and deadline must all be literals")
    literals = [(lit, lit.negate(), bit) for lit, bit in (
        (formula_to_literal(o.requirement), _REQUIREMENT),
        (formula_to_literal(o.deadline), _DEADLINE))]
    triggers, masks = {}, {}
    for t in m.tasks():
        ann, keep, put = t.annotation, 3, 0
        for lit, negation, bit in literals:
            if lit in ann:
                put |= bit
            elif negation in ann:
                keep ^= bit
        masks[t.id] = keep, put
        if eval_formula(o.trigger, ann):
            triggers[t.id] = t
    return triggers, masks


def _endings(m: Model, o: Obligation, trigger_ids: frozenset[str],
             masks: dict[str, tuple[int, int]],
             and_cap: int) -> frozenset[Carry]:
    """Carries o's monitor ends some run of m in, stepped on the state
    projected onto o's literals by ``masks`` (from ``_scan_tasks``)."""
    def holds(f, bits: int) -> bool:
        return bool(bits & (_REQUIREMENT if f is o.requirement else _DEADLINE))

    mark, monitor_step = monitor(o, trigger_ids, False, holds)
    single = len(trigger_ids) == 1

    def step(carry, task: Task):
        if carry is _DEAD or carry is _DECIDED:
            return carry
        keep, put = masks[task.id]
        bits = carry[0] & keep | put
        mark = monitor_step(carry[1], task, bits)
        if mark == MONITOR_DEAD:
            return _DEAD
        fired = carry[2] or task.id in trigger_ids
        if single and fired and not mark:
            return _DECIDED
        return bits, mark, fired

    # runs start empty, where exactly the negative literals hold
    start = sum(bit for f, bit in ((o.requirement, _REQUIREMENT),
                                   (o.deadline, _DEADLINE))
                if eval_formula(f, EMPTY_STATE))
    return _reach(m.root, frozenset(((start, mark, False),)), step, and_cap)


def _interval_outcomes(m: Model, o: Obligation, x: Task,
                       triggers: dict[str, Task],
                       masks: dict[str, tuple[int, int]],
                       and_cap: int) -> set[bool]:
    """Whether x's interval is satisfied, over the runs containing x;
    ``triggers`` and ``masks`` are ``_scan_tasks``'s."""
    if x.id not in triggers:
        raise ValueError(f"{x.id!r} is not a trigger task of this rule")
    return {monitor_complies(mark, o.kind)
            for _, mark, fired in _endings(m, o, frozenset((x.id,)), masks,
                                           and_cap)
            if fired}


def _run_outcomes(m: Model, o: Obligation, and_cap: int) -> set[bool]:
    """Whether o is satisfied, over all runs of m."""
    triggers, masks = _scan_tasks(m, o)
    return {monitor_complies(mark, o.kind)
            for _, mark, _ in _endings(m, o, frozenset(triggers), masks,
                                       and_cap)}


def instance_satisfiable(m: Model, o: Obligation, x: Task,
                         and_cap: int = DEFAULT_AND_CAP) -> bool:
    """Can some run containing x satisfy the interval x opens?"""
    return True in _interval_outcomes(m, o, x, *_scan_tasks(m, o), and_cap)


def instance_violable(m: Model, o: Obligation, x: Task,
                      and_cap: int = DEFAULT_AND_CAP) -> bool:
    """Can some run containing x violate the interval x opens?"""
    return False in _interval_outcomes(m, o, x, *_scan_tasks(m, o), and_cap)


def label_triggers(m: Model, o: Obligation,
                   and_cap: int = DEFAULT_AND_CAP) -> list[TriggerAnalysis]:
    """Per-trigger satisfiability labelling, in declaration order."""
    triggers, masks = _scan_tasks(m, o)
    return [TriggerAnalysis(x, True in _interval_outcomes(
                m, o, x, triggers, masks, and_cap))
            for x in triggers.values()]


def partial_compliant_fast(m: Model, o: Obligation,
                           and_cap: int = DEFAULT_AND_CAP) -> bool:
    """True iff some run satisfies every interval it opens."""
    return True in _run_outcomes(m, o, and_cap)


def full_compliant_fast(m: Model, o: Obligation,
                        and_cap: int = DEFAULT_AND_CAP) -> bool:
    """True iff every run satisfies every interval it opens."""
    return False not in _run_outcomes(m, o, and_cap)


def _erase_block(block: ProcessBlock,
                 dead_ids: frozenset[str]) -> ProcessBlock | None:
    if isinstance(block, TaskBlock):
        return None if block.task.id in dead_ids else block
    children = [_erase_block(c, dead_ids) for c in block.children]
    if isinstance(block, (Seq, AndBlock)):
        if any(c is None for c in children):
            return None
        return type(block)(tuple(children))
    kept = tuple(c for c in children if c is not None)
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return Xor(kept)


def erase(m: Model, dead) -> Survives | RootRemoved:
    """Remove tasks; sequence and parallel parents go with them, choices
    lose just the branch.  The surviving model's runs are exactly the
    original runs that avoid every removed task."""
    dead_ids = frozenset(t.id if isinstance(t, Task) else t for t in dead)
    unknown = dead_ids - {t.id for t in m.tasks()}
    if unknown:
        raise ValueError(f"not tasks of the model: {sorted(unknown)}")
    if not dead_ids:
        return Survives(m)
    if "start" in dead_ids or "end" in dead_ids:
        return ROOT_REMOVED
    body = _erase_block(m.body, dead_ids)
    if body is None:
        return ROOT_REMOVED
    return Survives(validate(body, name=m.name))
