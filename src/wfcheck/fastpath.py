"""Polynomial checking for a single local rule over literals.

When requirement, trigger and deadline are all literals, all a rule can
observe of a state is which of the requirement and deadline atoms it
asserts: under the closed world an atom it does not assert is false.
The engine steps the rule's monitor (``obligations.monitor``, which the
brute engine steps on whole states) on the state's ``pos`` mask
projected onto those atoms, and the carries it can reach compose
structurally: fold through sequence children, union over choice
branches.  A quiet task, one that is no trigger and mentions neither
atom, leaves every carry as it is, so the fold passes over it.  Parallel
blocks have no cheap composition, so they are searched, without their
quiet tasks, over (residual, carry) pairs, each expanded once, with the
shared step ``process.frontier``, which builds each distinct residual of
one search once.  The search is refused when it explores more pairs than
a cap, so its budget follows its cost, not the block's run count;
choice-heavy models — where brute force blows up — stay polynomial.

The one query, ``outcomes``, steps that monitor for a set of trigger
tasks and returns the outcomes the runs can end in.  With every trigger
task in the set, they are whether the rule is satisfied, over all runs:
``True in`` them is partial compliance, ``False not in`` them full.  With
a trigger task x, the set is {x}, and the endings of the runs where x
fired are whether x's interval is satisfied, over the runs containing x.
A query walks the model's task list once to find the trigger tasks;
``label_triggers`` shares that walk among its triggers.

The structural `erase` operation removes tasks from a model such that the
surviving runs are exactly the original runs avoiding them (None if there
are none); together with the per-trigger labelling it supports the
screening procedure of marking hopeless triggers as not executable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formula import atom_bit, formula_to_literal
from .net import DEFAULT_CAP, Carry, ExecutionCapExceeded
from .obligations import (MONITOR_DEAD, Obligation, RuleSet,
                          classify_variant, monitor, monitor_complies)
from .process import (DONE, AndBlock, Model, ProcessBlock, Seq, Task, Xor,
                      frontier, iter_tasks, validate)


class WrongVariant(ValueError):
    """The rule set is not a single local literal obligation."""

    def __init__(self, variant: str):
        super().__init__(f"fast engine needs variant 1L-, got {variant}")
        self.variant = variant


@dataclass(frozen=True)
class TriggerAnalysis:
    task: Task
    satisfiable: bool


def require_single_local_literal(rs: RuleSet) -> Obligation:
    """The obligation of a 1L- rule set; WrongVariant names any other."""
    o = rs.obligations[0]
    if len(rs.obligations) == 1 and not o.is_global and o.literal_fields():
        return o
    raise WrongVariant(str(classify_variant(rs)))


def trigger_transitions(m: Model, o: Obligation) -> list[Task]:
    """Tasks whose annotation satisfies the trigger, in declaration order."""
    return list(_scan_tasks(m, o).values())


# ---------------------------------------------------------------------------
# the rule's monitor on the state projected onto its atoms
#
# The carry is (the asserted bits of the requirement and deadline atoms,
# mark, whether a trigger in the set fired); a task steps the bits as
# ``update`` steps a state's ``pos`` mask.  A carry that can no longer
# change the outcome collapses to one constant, which keeps reach sets
# small: _DEAD once an interval is violated, _DECIDED once the only
# trigger has fired and its interval closed (a task fires at most once
# per run).

_DEAD, _DECIDED = (0, MONITOR_DEAD, True), (0, 0, True)


def _loud(block: ProcessBlock, quiet: Callable[[Task], bool]
          ) -> ProcessBlock | None:
    """block without its quiet tasks, or None if it has no other ones.

    A quiet task leaves every carry as it is, so searching an and-block
    without them reaches the same carries.  A choice with an all-quiet
    branch keeps one task of it as a stand-in: skipping is a run too."""
    if isinstance(block, Task):
        return None if quiet(block) else block
    children = [_loud(child, quiet) for child in block.children]
    kept = tuple(child for child in children if child is not None)
    if isinstance(block, Xor) and kept and len(kept) < len(children):
        skip = block.children[children.index(None)]
        kept += (next(iter_tasks(skip)),)
    if len(kept) > 1:
        return type(block)(kept)
    return kept[0] if kept else None


def _reach(block: ProcessBlock, states: frozenset[Carry],
           step: Callable[[Carry, Task], Carry],
           quiet: Callable[[Task], bool], cap: int) -> frozenset:
    """Carries reachable after some run of the block."""
    if isinstance(block, Task):
        return states if quiet(block) else frozenset(
            step(s, block) for s in states)
    if isinstance(block, Seq):
        for child in block.children:
            states = _reach(child, states, step, quiet, cap)
        return states
    if isinstance(block, Xor):
        out: set[Carry] = set()
        for child in block.children:
            out |= _reach(child, states, step, quiet, cap)
        return frozenset(out)
    if isinstance(block, AndBlock):
        loud = _loud(block, quiet)
        if isinstance(loud, AndBlock):
            return _and_reach(loud, states, step, cap)
        return states if loud is None else _reach(loud, states, step,
                                                  quiet, cap)
    raise TypeError(f"not a process block: {block!r}")


def _and_reach(block: AndBlock, states: frozenset[Carry],
               step: Callable[[Carry, Task], Carry], cap: int) -> frozenset:
    """Carries reachable after some run of an and-block, by a search over
    (residual, carry) pairs from every incoming carry at once.

    Interleavings that reach the same pair share everything after it, so
    each pair is expanded once.  ``frontier`` looks each residual up in the
    search's table, so a distinct residual is one object, pairs hash and
    compare by identity, and each residual's moves are built once.  More
    than ``cap`` pairs is refused."""
    built: dict[tuple, ProcessBlock] = {}  # residuals, for ``frontier``
    moves: dict[int, list] = {}  # residual id -> [(task, residual after)]
    seen = {(id(block), s) for s in states}
    todo = [(block, s) for s in states]
    ends: set[Carry] = set()
    while todo:
        r, s = todo.pop()
        out = moves.get(id(r))
        if out is None:
            out = moves[id(r)] = frontier(r, built)
        for t, after in out:
            carry = step(s, t)
            if after is DONE:
                ends.add(carry)
            elif (id(after), carry) not in seen:
                seen.add((id(after), carry))
                if len(seen) > cap:
                    raise ExecutionCapExceeded(
                        len(seen), cap, "explored (residual, carry) pairs")
                todo.append((after, carry))
    return frozenset(ends)


def _scan_tasks(m: Model, o: Obligation) -> dict[str, Task]:
    """o's trigger tasks by id, in declaration order; WrongVariant unless
    o is 1L-."""
    require_single_local_literal(RuleSet((o,)))
    trigger = formula_to_literal(o.trigger)
    bit = atom_bit(trigger.atom)
    # closed world: !u holds on every task that does not assert u
    return {t.id: t for t in iter_tasks(m.root)
            if bool(t.annotation.pos & bit) is trigger.positive}


def _endings(m: Model, o: Obligation, trigger_ids: frozenset[str],
             and_cap: int) -> frozenset[Carry]:
    """Carries o's monitor ends some run of m in, stepped on the state
    projected onto o's requirement and deadline atoms."""
    requirement, deadline = map(formula_to_literal,
                                (o.requirement, o.deadline))
    req_bit, dl_bit = atom_bit(requirement.atom), atom_bit(deadline.atom)
    atoms = req_bit | dl_bit

    def holds(f, bits: int) -> bool:  # eval_formula on a literal
        if f is o.requirement:
            return bool(bits & req_bit) is requirement.positive
        return bool(bits & dl_bit) is deadline.positive

    mark, monitor_step = monitor(o, trigger_ids, False, holds)
    single = len(trigger_ids) == 1

    def step(carry, task: Task):
        if carry is _DEAD or carry is _DECIDED:
            return carry
        ann = task.annotation
        bits = (carry[0] & ~(ann.pos | ann.neg) | ann.pos) & atoms
        mark = monitor_step(carry[1], task, bits)
        if mark == MONITOR_DEAD:
            return _DEAD
        fired = carry[2] or task.id in trigger_ids
        if single and fired and not mark:
            return _DECIDED
        return bits, mark, fired

    def quiet(task: Task) -> bool:  # no trigger, mentions neither atom
        ann = task.annotation
        return not (ann.pos | ann.neg) & atoms and task.id not in trigger_ids

    # runs start empty, asserting nothing
    return _reach(m.root, frozenset(((0, mark, False),)), step, quiet,
                  and_cap)


def _outcomes(m: Model, o: Obligation, triggers: dict[str, Task],
              x: Task | None, and_cap: int) -> frozenset[bool]:
    """``outcomes`` over ``_scan_tasks``'s triggers."""
    if x is not None and x.id not in triggers:
        raise ValueError(f"{x.id!r} is not a trigger task of this rule")
    trigger_ids = frozenset(triggers if x is None else (x.id,))
    return frozenset(monitor_complies(mark, o.kind)
                     for _, mark, fired in _endings(m, o, trigger_ids,
                                                    and_cap)
                     if fired or x is None)


def outcomes(m: Model, o: Obligation, x: Task | None = None,
             and_cap: int = DEFAULT_CAP) -> frozenset[bool]:
    """Whether o is satisfied, over every run of m; given a trigger task x,
    whether x's interval is satisfied, over the runs that contain x."""
    return _outcomes(m, o, _scan_tasks(m, o), x, and_cap)


def label_triggers(m: Model, o: Obligation,
                   and_cap: int = DEFAULT_CAP) -> list[TriggerAnalysis]:
    """Per-trigger satisfiability labelling, in declaration order."""
    triggers = _scan_tasks(m, o)
    return [TriggerAnalysis(x, True in _outcomes(m, o, triggers, x, and_cap))
            for x in triggers.values()]


def _erase_block(block: ProcessBlock,
                 dead_ids: frozenset[str]) -> ProcessBlock | None:
    if isinstance(block, Task):
        return None if block.id in dead_ids else block
    children = [_erase_block(c, dead_ids) for c in block.children]
    if isinstance(block, (Seq, AndBlock)):
        if any(c is None for c in children):
            return None
        return type(block)(tuple(children))
    kept = tuple(c for c in children if c is not None)
    return Xor(kept) if kept else None


def erase(m: Model, dead) -> Model | None:
    """Remove tasks; sequence and parallel parents go with them, choices
    lose just the branch.  The surviving model's runs are exactly the
    original runs that avoid every removed task; None if no run avoids
    them, and m itself if nothing is removed."""
    dead_ids = frozenset(t.id if isinstance(t, Task) else t for t in dead)
    unknown = dead_ids - {t.id for t in m.tasks()}
    if unknown:
        raise ValueError(f"not tasks of the model: {sorted(unknown)}")
    if not dead_ids:
        return m
    # a dead start or end erases the root; validate collapses one-child xors
    root = _erase_block(m.root, dead_ids)
    return None if root is None else validate(root.children[1], name=m.name)
