"""Workflow-net semantics for validated models.

Compilation is structural: tasks become transitions between two places, seq
children share intermediate places, xor branches share their entry and exit
places, and each and-block gets a silent fork and join pair.  The net is
the reference semantics that tests explore; runs are not found by walking
it.

A run is the sequence of the model's tasks in firing order; silent
transitions are not part of it.  Enumeration is a depth-first search over
the block tree's frontier (``process.frontier``), the same step the fast
engine explores and-blocks with.  It branches on the tasks that can fire
next, ordered by id, so it yields every distinct run exactly once, in
lexicographic order of task ids.

``walk_runs`` is that search, and the only run listing: it folds a
caller's carry along each edge and pushes it with the step, so a prefix
that many runs share is folded once, not once per run, and a caller can
prune a subtree whose runs it no longer needs.  ``enumerate_traces``
carries the state after each task and yields each run as a trace; it
interns states by their masks within one listing, in a table of bounded
size, so runs that reach equal states share one object;
``enumerate_executions`` carries nothing; the brute engine carries the
state plus its rule monitors.  The fast engine needs no runs, only the
carries they end in, so it searches and-blocks over the same frontier
itself (``fastpath``).  ``derive_trace`` folds one run from the empty
state and is the reference the carried states must equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count as _count
from typing import Any, Callable, Iterator

from .formula import EMPTY_STATE, State, update
from .process import (AndBlock, Model, ProcessBlock, Seq, Task, Xor,
                      count_executions, frontier)

SOURCE_PLACE = "i"
SINK_PLACE = "o"

DEFAULT_CAP = 2 ** 20
_SHARED_STATES = 2048  # most states one listing keeps to share

Carry = Any  # what a walk folds along each edge


class NotEnabled(ValueError):
    """fire() was asked to fire a transition lacking an input token."""


class ExecutionCapExceeded(RuntimeError):
    """The model admits more runs than the caller's cap allows, or (the
    fast engine's and-block search) more explored pairs."""

    def __init__(self, count: int, cap: int, what: str = "executions"):
        super().__init__(f"{count} {what} exceed the cap of {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class Marking:
    """Token counts per place; zero entries are dropped so equality is sane."""

    counts: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, mapping: dict[str, int]) -> "Marking":
        return cls(tuple(sorted(
            (p, c) for p, c in mapping.items() if c != 0)))

    def count(self, place: str) -> int:
        for p, c in self.counts:
            if p == place:
                return c
        return 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)


@dataclass
class WFNet:
    places: tuple[str, ...]
    transitions: dict[str, Task]
    pre: dict[str, tuple[str, ...]]
    post: dict[str, tuple[str, ...]]
    silent_ids: frozenset[str]
    source: str = SOURCE_PLACE
    sink: str = SINK_PLACE

    def initial_marking(self) -> Marking:
        return Marking.of({self.source: 1})


@dataclass(frozen=True)
class Execution:
    """One complete run: the model's tasks in firing order."""

    steps: tuple[Task, ...]

    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.steps)


@dataclass(frozen=True)
class Trace:
    """An execution paired with the state reached after each step."""

    steps: tuple[tuple[Task, State], ...]

    @classmethod
    def from_tasks(cls, tasks) -> "Trace":
        state = EMPTY_STATE
        steps = []
        for task in tasks:
            state = update(state, task.annotation)
            steps.append((task, state))
        return cls(tuple(steps))

    def states(self) -> tuple[State, ...]:
        return tuple(s for _, s in self.steps)

    def tasks(self) -> tuple[Task, ...]:
        return tuple(t for t, _ in self.steps)

    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t, _ in self.steps)


def compile_to_net(model: Model) -> WFNet:
    places = [SOURCE_PLACE, SINK_PLACE]
    transitions: dict[str, Task] = {}
    pre: dict[str, tuple[str, ...]] = {}
    post: dict[str, tuple[str, ...]] = {}
    silent: set[str] = set()
    place_counter = _count(1)
    and_counter = _count(1)

    def new_place() -> str:
        p = f"p{next(place_counter)}"
        places.append(p)
        return p

    def emit(task: Task, pres: list[str], posts: list[str],
             is_silent: bool = False):
        transitions[task.id] = task
        pre[task.id] = tuple(pres)
        post[task.id] = tuple(posts)
        if is_silent:
            silent.add(task.id)

    def build(block: ProcessBlock, entry: str, exit: str):
        if isinstance(block, Task):
            emit(block, [entry], [exit])
        elif isinstance(block, Seq):
            current = entry
            for child in block.children[:-1]:
                nxt = new_place()
                build(child, current, nxt)
                current = nxt
            build(block.children[-1], current, exit)
        elif isinstance(block, Xor):
            for child in block.children:
                build(child, entry, exit)
        elif isinstance(block, AndBlock):
            n = next(and_counter)
            entries = [new_place() for _ in block.children]
            exits = [new_place() for _ in block.children]
            emit(Task(f"__fork{n}"), [entry], entries, is_silent=True)
            emit(Task(f"__join{n}"), exits, [exit], is_silent=True)
            for child, e_in, e_out in zip(block.children, entries, exits):
                build(child, e_in, e_out)
        else:
            raise TypeError(f"not a process block: {block!r}")

    build(model.root, SOURCE_PLACE, SINK_PLACE)
    return WFNet(tuple(places), transitions, pre, post, frozenset(silent))


def enabled(net: WFNet, marking: Marking) -> set[Task]:
    """All transitions, silent ones included, fireable in this marking."""
    counts = marking.as_dict()
    out = set()
    for tid, pres in net.pre.items():
        if all(counts.get(p, 0) >= 1 for p in pres):
            out.add(net.transitions[tid])
    return out


def fire(net: WFNet, marking: Marking, t: Task) -> Marking:
    """Consume one token per input place, produce one per output place."""
    if t.id not in net.transitions:
        raise NotEnabled(f"unknown transition {t.id!r}")
    counts = marking.as_dict()
    for p in net.pre[t.id]:
        if counts.get(p, 0) < 1:
            raise NotEnabled(f"{t.id!r} lacks a token on {p!r}")
        counts[p] -= 1
    for p in net.post[t.id]:
        counts[p] = counts.get(p, 0) + 1
    return Marking.of(counts)


def walk_runs(root: ProcessBlock, cap: int | None, start: Carry,
              fold: Callable[[Carry, Task, ProcessBlock], Carry | None]
              ) -> Iterator[list[tuple[Task, Carry]]]:
    """Depth-first over every run of a block, next task ordered by id,
    folding a carry along each edge.

    ``fold(carry, task, residual)`` gives the carry after ``task``, where
    ``residual`` is what is left to run; ``None`` prunes every run below
    that edge.  At the end of each run the walk yields its (task, carry)
    steps as one live list, which changes once the walk resumes.  The
    block's run count is checked against the cap before the walk starts;
    ``cap=None`` is no bound, and the runs are not counted.
    """
    if cap is not None:
        total = count_executions(root)
        if total > cap:
            raise ExecutionCapExceeded(total, cap)
    return _walk(root, start, fold)


def _walk(root: ProcessBlock, start: Carry, fold) -> Iterator[list]:
    steps: list[tuple[Task, Carry]] = []  # each task with the carry after it
    stack = [iter(frontier(root))]
    while stack:
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            if steps:  # take back the step whose moves are used up
                steps.pop()
            continue
        task, after = move
        carry = fold(steps[-1][1] if steps else start, task, after)
        if carry is None:
            continue
        steps.append((task, carry))
        moves = frontier(after)
        if moves:
            stack.append(iter(moves))
        else:
            yield steps
            steps.pop()


def _no_carry(carry: tuple, task: Task, residual) -> tuple:
    return carry


def enumerate_traces(model: Model,
                     cap: int | None = DEFAULT_CAP) -> Iterator[Trace]:
    """Yield every run exactly once as a trace, depth-first, next task
    ordered by id; ``cap=None`` lists runs without counting them first.
    Runs that reach equal states share one ``State`` and its text, looked
    up by its masks in a table cleared at ``_SHARED_STATES`` entries."""
    shared: dict[tuple[int, int], State] = {}

    def fold(state: State, task: Task, residual) -> State:
        after = update(state, task.annotation)
        if len(shared) >= _SHARED_STATES:
            shared.clear()
        return shared.setdefault((after.pos, after.neg), after)
    return (Trace(tuple(steps))
            for steps in walk_runs(model.root, cap, EMPTY_STATE, fold))


def enumerate_executions(model: Model,
                         cap: int = DEFAULT_CAP) -> Iterator[Execution]:
    """The runs of enumerate_traces, in its order, without their states."""
    return (Execution(tuple([task for task, _ in steps]))
            for steps in walk_runs(model.root, cap, (), _no_carry))


def derive_trace(model: Model, execution: Execution) -> Trace:
    """Fold the task annotations over the empty state, step by step."""
    return Trace.from_tasks(execution.steps)


def replay(net: WFNet, firing: tuple[str, ...]) -> list[Marking]:
    """Fire a full transition sequence, returning the markings visited."""
    marking = net.initial_marking()
    seen = [marking]
    for tid in firing:
        marking = fire(net, marking, net.transitions[tid])
        seen.append(marking)
    return seen
