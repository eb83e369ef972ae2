"""Workflow-net semantics for validated models.

Compilation is structural: tasks become transitions between two places, seq
children share intermediate places, xor branches share their entry and exit
places, and each and-block gets a silent fork and join pair.  Silent
transitions carry empty annotations and are dropped from reported runs, so
a reported execution lists exactly the model's tasks in firing order.

The net is the reference semantics; runs are not found by walking it.
Enumeration is a depth-first search over the block tree's frontier
(``process.frontier``), the same step the fast engine explores and-blocks
with.  It branches on the tasks that can fire next, ordered by id, so it
yields every distinct task-level run exactly once, in lexicographic order
of task ids.  Each run's firing sequence places every silent fork and join
right before the first task that needs it, and replays on the net.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count as _count
from typing import Iterator

from .formula import EMPTY_STATE, State, update
from .process import (AndBlock, Model, ProcessBlock, Seq, Task, TaskBlock,
                      Xor, and_numbers, count_executions, frontier)

SOURCE_PLACE = "i"
SINK_PLACE = "o"

DEFAULT_CAP = 2 ** 20


class NotEnabled(ValueError):
    """fire() was asked to fire a transition lacking an input token."""


class ExecutionCapExceeded(RuntimeError):
    """The model admits more runs than the caller's cap allows."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} executions exceed the cap of {cap}")
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
    """One complete run: the model's tasks in firing order.

    ``firing`` is the full transition sequence including the silent fork and
    join steps, kept for replay; ``steps`` is what the run looks like at the
    task level and is what states are derived from.
    """

    steps: tuple[Task, ...]
    firing: tuple[str, ...]

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
        if isinstance(block, TaskBlock):
            emit(block.task, [entry], [exit])
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


def enumerate_executions(model: Model,
                         cap: int = DEFAULT_CAP) -> Iterator[Execution]:
    """Yield every run exactly once, depth-first, next task ordered by id."""
    total = count_executions(model.root)
    if total > cap:
        raise ExecutionCapExceeded(total, cap)
    return _walk(model.root)


def _walk(root: ProcessBlock) -> Iterator[Execution]:
    numbers = and_numbers(root)
    steps: list[Task] = []
    firing: list[str] = []
    marks: list[int] = []  # len(firing) before each step
    stack = [iter(frontier(root, numbers))]
    while stack:
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
        else:
            task, after, silent = move
            marks.append(len(firing))
            steps.append(task)
            firing.extend(silent)
            firing.append(task.id)
            moves = frontier(after, numbers)
            if moves:
                stack.append(iter(moves))
                continue
            yield Execution(tuple(steps), tuple(firing))
        if steps:  # take back the step just finished with
            steps.pop()
            del firing[marks.pop():]


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
