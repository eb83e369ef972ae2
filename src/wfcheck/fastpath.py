"""Polynomial checking for a single local rule over literals.

When requirement, trigger and deadline are all literals, everything a rule
can observe about a run is the evolution of two truth values, plus which
tasks trigger.  That evolution is a small automaton driven by task
annotations, and the automaton's reachable states compose structurally:
fold through sequence children, union over choice branches.  Parallel
blocks have no cheap composition, so they are explored task by task with
the run enumerator's frontier step, memoising (residual, automaton state)
pairs, and refused when they admit more runs than a cap; choice-heavy
models — where brute force blows up — stay polynomial.

Two automata are used.  The per-instance one tracks the interval opened by
one designated trigger task and answers whether that interval can be
satisfied or violated in some run.  The whole-run one tracks the pool of
currently open intervals — open intervals of the same rule always agree on
the two truth values, so they resolve together and a single "pool open"
bit suffices — and answers partial and full compliance exactly.

The structural `erase` operation removes tasks from a model such that the
surviving runs are exactly the original runs avoiding them; together with
the per-trigger labelling it supports the screening procedure of marking
hopeless triggers as not executable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formula import Literal, eval_formula, formula_to_literal
from .net import ExecutionCapExceeded
from .obligations import Kind, Obligation, RuleSet, classify_variant
from .process import (AndBlock, Model, ProcessBlock, Seq, Task, TaskBlock,
                      Xor, and_numbers, count_executions, frontier, validate)

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


def _require_local_literals(o: Obligation) -> tuple[Literal, Literal, Literal]:
    if o.is_global:
        raise NotLiteralVariant("rule has no trigger: nothing to anchor at")
    if not o.literal_fields():
        raise NotLiteralVariant(
            "requirement, trigger and deadline must all be literals")
    return (formula_to_literal(o.requirement),
            formula_to_literal(o.trigger),
            formula_to_literal(o.deadline))


def trigger_transitions(m: Model, o: Obligation) -> list[Task]:
    """Tasks whose annotation satisfies the trigger, in declaration order."""
    _require_local_literals(o)
    return [t for t in m.tasks() if eval_formula(o.trigger, t.annotation)]


# ---------------------------------------------------------------------------
# automata
#
# Both automata carry the current truth of the requirement and deadline
# literals as two bits; annotations flip a bit when they assert the atom,
# otherwise the old value persists — exactly the state-update semantics
# projected onto one atom.

def _truth_after(lit: Literal, ann, current: bool) -> bool:
    if Literal(lit.atom, True) in ann:
        return lit.positive
    if Literal(lit.atom, False) in ann:
        return not lit.positive
    return current


# Per-instance automaton.  States 0..3: the designated trigger has not
# fired, bits = (requirement, deadline).  4..7: its interval is open.
# 8: satisfied, 9: violated.

_SAT = 8
_VIO = 9


def _instance_step(state: int, task: Task, x_id: str, kind: Kind,
                   rho: Literal, delta: Literal) -> int:
    if state >= _SAT:
        return state
    open_interval = state >= 4
    rt = _truth_after(rho, task.annotation, bool(state & 2))
    dt = _truth_after(delta, task.annotation, bool(state & 1))
    if open_interval or task.id == x_id:
        if kind is Kind.ACHIEVEMENT:
            if rt:
                return _SAT
            if dt:
                return _VIO
        else:
            if not rt:
                return _VIO
            if dt:
                return _SAT
        return 4 + rt * 2 + dt
    return rt * 2 + dt


# Whole-run automaton.  States 0..7: bits (requirement, deadline, pool
# open); 8: some interval already violated (absorbing, run not compliant).

_DEAD = 8


def _run_step(state: int, task: Task, trigger_ids: frozenset[str],
              kind: Kind, rho: Literal, delta: Literal) -> int:
    if state == _DEAD:
        return _DEAD
    rt = _truth_after(rho, task.annotation, bool(state & 4))
    dt = _truth_after(delta, task.annotation, bool(state & 2))
    pool = bool(state & 1) or task.id in trigger_ids
    if pool:
        if kind is Kind.ACHIEVEMENT:
            if rt:
                pool = False
            elif dt:
                return _DEAD
        else:
            if not rt:
                return _DEAD
            if dt:
                pool = False
    return rt * 4 + dt * 2 + pool


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
        total = count_executions(block)
        if total > cap:
            raise ExecutionCapExceeded(total, cap)
        # depth-first over (residual, automaton state) pairs: interleavings
        # that reach the same pair share everything after it
        numbers = and_numbers(block)
        out = set()
        stack = [(block, s) for s in states]
        seen = set(stack)
        while stack:
            residual, s = stack.pop()
            moves = frontier(residual, numbers)
            if not moves:
                out.add(s)
            for task, after, _ in moves:
                pair = (after, step(s, task))
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return frozenset(out)
    raise TypeError(f"not a process block: {block!r}")


def _initial_bits(rho: Literal, delta: Literal) -> tuple[bool, bool]:
    # empty starting state: atoms are false, so negative literals hold
    return (not rho.positive, not delta.positive)


def _instance_outcomes(m: Model, o: Obligation, x: Task,
                       and_cap: int) -> frozenset[int]:
    rho, _, delta = _require_local_literals(o)
    if not any(t.id == x.id for t in trigger_transitions(m, o)):
        raise ValueError(f"{x.id!r} is not a trigger task of this rule")
    rt, dt = _initial_bits(rho, delta)
    start = rt * 2 + dt

    def step(s: int, task: Task) -> int:
        return _instance_step(s, task, x.id, o.kind, rho, delta)

    return _reach(m.root, frozenset((start,)), step, and_cap)


def instance_satisfiable(m: Model, o: Obligation, x: Task,
                         and_cap: int = DEFAULT_AND_CAP) -> bool:
    """Can some run containing x satisfy the interval x opens?"""
    out = _instance_outcomes(m, o, x, and_cap)
    if _SAT in out:
        return True
    # interval still open when the run ends: the final state counts as
    # the deadline, which satisfies maintenance and fails achievement
    return o.kind is Kind.MAINTENANCE and any(4 <= s < _SAT for s in out)


def instance_violable(m: Model, o: Obligation, x: Task,
                      and_cap: int = DEFAULT_AND_CAP) -> bool:
    """Can some run containing x violate the interval x opens?"""
    out = _instance_outcomes(m, o, x, and_cap)
    if _VIO in out:
        return True
    return o.kind is Kind.ACHIEVEMENT and any(4 <= s < _SAT for s in out)


def label_triggers(m: Model, o: Obligation,
                   and_cap: int = DEFAULT_AND_CAP) -> list[TriggerAnalysis]:
    """Per-trigger satisfiability labelling, in declaration order."""
    return [TriggerAnalysis(x, instance_satisfiable(m, o, x, and_cap))
            for x in trigger_transitions(m, o)]


def _run_endings(m: Model, o: Obligation, and_cap: int) -> frozenset[int]:
    rho, _, delta = _require_local_literals(o)
    trigger_ids = frozenset(t.id for t in trigger_transitions(m, o))
    rt, dt = _initial_bits(rho, delta)
    start = rt * 4 + dt * 2

    def step(s: int, task: Task) -> int:
        return _run_step(s, task, trigger_ids, o.kind, rho, delta)

    return _reach(m.root, frozenset((start,)), step, and_cap)


def _ending_complies(state: int, kind: Kind) -> bool:
    if state == _DEAD:
        return False
    if state & 1:  # intervals still open at the final state
        return kind is Kind.MAINTENANCE
    return True


def partial_compliant_fast(m: Model, o: Obligation,
                           and_cap: int = DEFAULT_AND_CAP) -> bool:
    """True iff some run satisfies every interval it opens."""
    return any(_ending_complies(s, o.kind)
               for s in _run_endings(m, o, and_cap))


def full_compliant_fast(m: Model, o: Obligation,
                        and_cap: int = DEFAULT_AND_CAP) -> bool:
    """True iff every run satisfies every interval it opens."""
    return all(_ending_complies(s, o.kind)
               for s in _run_endings(m, o, and_cap))


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
