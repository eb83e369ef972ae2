"""Polynomial checking for a single local rule over literals.

When requirement, trigger and deadline are all literals, everything a rule
can observe about a run is the evolution of two truth values, plus which
tasks trigger.  That evolution is a small automaton driven by task
annotations, and the automaton's reachable states compose structurally:
fold through sequence children, union over choice branches.  Parallel
blocks have no cheap composition, so they are explored task by task on
the run walk (``net.walk_runs``), which goes on from each (residual,
automaton state) pair once, and refused when they admit more runs than a
cap; choice-heavy models — where brute force blows up — stay polynomial.

One automaton answers every query.  Given a set of trigger tasks, its
state holds the truth of the requirement and deadline literals, whether
some trigger has fired, whether intervals are open, or that one was
violated.  Open intervals of the same rule always agree on the two truth
values, so they resolve together and a single "pool open" bit suffices.
With every trigger task in the set, the states a run can end in decide
partial and full compliance exactly.  With the set {x}, the endings of the
runs where x fired tell whether x's interval can be satisfied or violated.

The structural `erase` operation removes tasks from a model such that the
surviving runs are exactly the original runs avoiding them; together with
the per-trigger labelling it supports the screening procedure of marking
hopeless triggers as not executable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formula import Literal, eval_formula, formula_to_literal
from .net import walk_runs
from .obligations import (POOL_DEAD, POOL_OPEN, Kind, Obligation, RuleSet,
                          classify_variant, pool_satisfied_at_end, pool_step)
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
    if o.is_global:
        raise NotLiteralVariant("rule has no trigger: nothing to anchor at")
    if not o.literal_fields():
        raise NotLiteralVariant(
            "requirement, trigger and deadline must all be literals")
    return [t for t in m.tasks() if eval_formula(o.trigger, t.annotation)]


def _trigger_ids(m: Model, o: Obligation) -> frozenset[str]:
    return frozenset(t.id for t in trigger_transitions(m, o))


# ---------------------------------------------------------------------------
# the automaton
#
# States 0..15 carry four bits.  Requirement and deadline hold the current
# truth of the two literals; an annotation sets a bit when it asserts the
# atom, otherwise the old value persists — exactly the state-update
# semantics projected onto one atom.  "Fired" records that some trigger in
# the set has fired.  "Pool open" records that intervals are open: open
# intervals of one rule always agree on the two truth values, so they
# resolve together and one bit covers them all.  ``obligations.pool_step``
# moves that bit, the same transition the brute engine's monitors take.
# _DEAD is absorbing: some interval was violated.  Only a fired trigger
# opens one, so _DEAD carries the fired bit too.

_POOL, _FIRED, _DEADLINE, _REQUIREMENT = POOL_OPEN, 2, 4, 8
_DEAD = 16 | _FIRED


_LiteralPair = tuple[Literal, Literal]  # a literal and its negation


def _truth_after(lit: _LiteralPair, ann: frozenset, current: bool) -> bool:
    if lit[0] in ann:
        return True
    if lit[1] in ann:
        return False
    return current


def _run_step(state: int, task: Task, trigger_ids: frozenset[str],
              kind: Kind, rho: _LiteralPair, delta: _LiteralPair) -> int:
    if state == _DEAD:
        return _DEAD
    ann = task.annotation.literals
    rt = _truth_after(rho, ann, bool(state & _REQUIREMENT))
    dt = _truth_after(delta, ann, bool(state & _DEADLINE))
    fires = task.id in trigger_ids
    pool = pool_step(kind, state & _POOL, fires, rt, dt)
    if pool == POOL_DEAD:
        return _DEAD
    fired = fires or bool(state & _FIRED)
    return rt * _REQUIREMENT + dt * _DEADLINE + fired * _FIRED + pool


def _reach(block: ProcessBlock, states: frozenset[int],
           step: Callable[[int, Task], int], cap: int) -> frozenset[int]:
    """Automaton states reachable after some run of the block."""
    if isinstance(block, TaskBlock):
        return frozenset(step(s, block.task) for s in states)
    if isinstance(block, Seq):
        for child in block.children:
            states = _reach(child, states, step, cap)
        return states
    if isinstance(block, Xor):
        out: set[int] = set()
        for child in block.children:
            out |= _reach(child, states, step, cap)
        return frozenset(out)
    if isinstance(block, AndBlock):
        # interleavings that reach the same (residual, automaton state)
        # pair share everything after it, so the walk goes on from each
        # pair once
        seen = set()

        def fold(s: int, task: Task, after: ProcessBlock) -> int | None:
            s = step(s, task)
            if (after, s) in seen:
                return None
            seen.add((after, s))
            return s

        return frozenset(run[-1][1] for s in states
                         for run in walk_runs(block, cap, s, fold))
    raise TypeError(f"not a process block: {block!r}")


def _endings(m: Model, o: Obligation, trigger_ids: frozenset[str],
             and_cap: int) -> frozenset[int]:
    """States the automaton ends some run of m in; o is already known to
    be a local literal rule."""
    rho = formula_to_literal(o.requirement)
    delta = formula_to_literal(o.deadline)
    # the empty starting state makes atoms false, so negative literals hold
    start = ((not rho.positive) * _REQUIREMENT
             + (not delta.positive) * _DEADLINE)
    rho, delta = (rho, rho.negate()), (delta, delta.negate())

    def step(s: int, task: Task) -> int:
        return _run_step(s, task, trigger_ids, o.kind, rho, delta)

    return _reach(m.root, frozenset((start,)), step, and_cap)


def _ending_complies(state: int, kind: Kind) -> bool:
    return pool_satisfied_at_end(
        kind, POOL_DEAD if state == _DEAD else state & _POOL)


def _interval_outcomes(m: Model, o: Obligation, x: Task,
                       and_cap: int) -> set[bool]:
    """Whether x's interval is satisfied, over the runs containing x."""
    if x.id not in _trigger_ids(m, o):
        raise ValueError(f"{x.id!r} is not a trigger task of this rule")
    return {_ending_complies(s, o.kind)
            for s in _endings(m, o, frozenset((x.id,)), and_cap)
            if s & _FIRED}


def instance_satisfiable(m: Model, o: Obligation, x: Task,
                         and_cap: int = DEFAULT_AND_CAP) -> bool:
    """Can some run containing x satisfy the interval x opens?"""
    return True in _interval_outcomes(m, o, x, and_cap)


def instance_violable(m: Model, o: Obligation, x: Task,
                      and_cap: int = DEFAULT_AND_CAP) -> bool:
    """Can some run containing x violate the interval x opens?"""
    return False in _interval_outcomes(m, o, x, and_cap)


def label_triggers(m: Model, o: Obligation,
                   and_cap: int = DEFAULT_AND_CAP) -> list[TriggerAnalysis]:
    """Per-trigger satisfiability labelling, in declaration order."""
    return [TriggerAnalysis(x, instance_satisfiable(m, o, x, and_cap))
            for x in trigger_transitions(m, o)]


def partial_compliant_fast(m: Model, o: Obligation,
                           and_cap: int = DEFAULT_AND_CAP) -> bool:
    """True iff some run satisfies every interval it opens."""
    return any(_ending_complies(s, o.kind)
               for s in _endings(m, o, _trigger_ids(m, o), and_cap))


def full_compliant_fast(m: Model, o: Obligation,
                        and_cap: int = DEFAULT_AND_CAP) -> bool:
    """True iff every run satisfies every interval it opens."""
    return all(_ending_complies(s, o.kind)
               for s in _endings(m, o, _trigger_ids(m, o), and_cap))


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
