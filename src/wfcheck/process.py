"""Block-structured acyclic process models.

A model is a tree of task leaves under seq / xor / and composites.  Every
task occurs at most once per run, composites have at least two children
after normalisation, and validation wraps the tree between the unannotated
boundary tasks ``start`` and ``end``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .formula import State

TASK_ID_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

START_ID = "start"
END_ID = "end"

RESERVED_PREFIX = "__"


class DuplicateTaskId(ValueError):
    """The same task id occurs in two leaves (or shadows start/end)."""


class EmptyBlock(ValueError):
    """A composite block has no children."""


class InconsistentAnnotation(ValueError):
    """A task annotation asserts a literal together with its negation."""


class InvalidTaskId(ValueError):
    """A task id is not an identifier, or uses the reserved __ prefix."""


@dataclass(frozen=True)
class Task:
    id: str
    annotation: State = State()

    def __str__(self):
        return self.id


@dataclass(frozen=True)
class TaskBlock:
    task: Task


@dataclass(frozen=True)
class Seq:
    children: tuple["ProcessBlock", ...]


@dataclass(frozen=True)
class Xor:
    children: tuple["ProcessBlock", ...]


@dataclass(frozen=True)
class AndBlock:
    children: tuple["ProcessBlock", ...]


ProcessBlock = Union[TaskBlock, Seq, Xor, AndBlock]
Composite = (Seq, Xor, AndBlock)


def task(id: str, *literals) -> TaskBlock:
    """Shorthand for a task leaf; literals given as "a" / "-a" strings."""
    return TaskBlock(Task(id, State.of(*literals)))


def seq(*children: ProcessBlock) -> Seq:
    return Seq(tuple(children))


def xor(*children: ProcessBlock) -> Xor:
    return Xor(tuple(children))


def and_(*children: ProcessBlock) -> AndBlock:
    return AndBlock(tuple(children))


@dataclass(frozen=True)
class Model:
    """A validated model; root is always Seq(start, body, end)."""

    name: str
    root: Seq

    @property
    def body(self) -> ProcessBlock:
        return self.root.children[1]

    def tasks(self) -> list[Task]:
        return list(iter_tasks(self.root))


def iter_tasks(block: ProcessBlock) -> Iterator[Task]:
    """All task leaves in declaration order."""
    if isinstance(block, TaskBlock):
        yield block.task
    else:
        for child in block.children:
            yield from iter_tasks(child)


def _normalise(block: ProcessBlock) -> ProcessBlock:
    """Collapse one-child composites; reject empty ones."""
    if isinstance(block, TaskBlock):
        return block
    if not isinstance(block, Composite):
        raise TypeError(f"not a process block: {block!r}")
    children = tuple(_normalise(c) for c in block.children)
    if len(children) == 0:
        raise EmptyBlock(f"{type(block).__name__} with no children")
    if len(children) == 1:
        return children[0]
    return type(block)(children)


def validate(root: ProcessBlock, name: str = "model") -> Model:
    """Check a block tree and wrap it between start and end."""
    body = _normalise(root)
    wrapped = Seq((TaskBlock(Task(START_ID)), body, TaskBlock(Task(END_ID))))
    seen: set[str] = set()
    for t in iter_tasks(wrapped):
        if not TASK_ID_PATTERN.fullmatch(t.id):
            raise InvalidTaskId(f"task id {t.id!r} is not an identifier")
        if t.id.startswith(RESERVED_PREFIX):
            raise InvalidTaskId(f"task id {t.id!r} uses the reserved prefix")
        if t.id in seen:
            raise DuplicateTaskId(t.id)
        seen.add(t.id)
        if not isinstance(t.annotation, State):
            raise InconsistentAnnotation(
                f"task {t.id!r} annotation must be a State")
    return Model(name, wrapped)


def _length_counts(block: ProcessBlock) -> dict[int, int]:
    """Map run length (task count) to the number of runs of that length."""
    if isinstance(block, TaskBlock):
        return {1: 1}
    if isinstance(block, Seq):
        acc = {0: 1}
        for child in block.children:
            nxt: dict[int, int] = {}
            for l1, c1 in acc.items():
                for l2, c2 in _length_counts(child).items():
                    nxt[l1 + l2] = nxt.get(l1 + l2, 0) + c1 * c2
            acc = nxt
        return acc
    if isinstance(block, Xor):
        acc = {}
        for child in block.children:
            for l, c in _length_counts(child).items():
                acc[l] = acc.get(l, 0) + c
        return acc
    if isinstance(block, AndBlock):
        acc = {0: 1}
        for child in block.children:
            nxt = {}
            for l1, c1 in acc.items():
                for l2, c2 in _length_counts(child).items():
                    # ways to shuffle two fixed runs preserving their orders
                    n = l1 + l2
                    nxt[n] = nxt.get(n, 0) + c1 * c2 * math.comb(n, l1)
            acc = nxt
        return acc
    raise TypeError(f"not a process block: {block!r}")


def count_executions(block: ProcessBlock) -> int:
    """Exact number of distinct runs, without enumerating them."""
    return sum(_length_counts(block).values())


# ---------------------------------------------------------------------------
# Residuals: what is left to run of a block once a run prefix has fired.
#
# A residual is an unstarted block, a Seq whose first child is a residual
# and whose other children are unstarted, a Par (an and-block whose fork
# has fired), or Joined (nothing left).  Every block runs at least one
# task, so the frontier of a Seq is the frontier of its first child.
#
# The silent steps are those of compile_to_net: and-block N (pre-order,
# from 1) forks as __forkN right before its first task, and joins as
# __joinN right before the first task after it.  A finished branch's joins
# wait in its Joined until that task fires.


@dataclass(frozen=True)
class Par:
    """An and-block whose fork has fired, with one residual per branch."""

    number: int
    children: tuple["Residual", ...]


@dataclass(frozen=True)
class Joined:
    """A finished residual; ``joins`` still fire, innermost first."""

    joins: tuple[str, ...] = ()


DONE = Joined()

Residual = Union[ProcessBlock, Par, Joined]
Move = tuple[Task, Residual, tuple[str, ...]]


def and_numbers(block: ProcessBlock) -> dict[int, int]:
    """Pre-order number of each and-block, keyed by the block's id().

    Keys are identities because hashing a block hashes its whole subtree.
    """
    numbers: dict[int, int] = {}
    stack = [block]
    while stack:
        b = stack.pop()
        if isinstance(b, AndBlock):
            numbers[id(b)] = len(numbers) + 1
        if not isinstance(b, TaskBlock):
            stack.extend(reversed(b.children))
    return numbers


def frontier(residual: Residual, numbers: dict[int, int]) -> list[Move]:
    """The tasks that can fire next, ordered by task id.

    Each move is (task, residual left after it, silent ids fired just
    before it).  ``numbers`` is ``and_numbers`` of the enclosing tree.
    """
    moves = _frontier(residual, numbers)
    moves.sort(key=lambda move: move[0].id)
    return moves


def _then(after: Residual, rest: tuple[ProcessBlock, ...]) -> Residual:
    """The residual of a Seq whose first child has become ``after``."""
    if not rest:
        return after
    if after is DONE:
        return rest[0] if len(rest) == 1 else Seq(rest)
    return Seq((after,) + rest)


def _frontier(r: Residual, numbers: dict[int, int]) -> list[Move]:
    if isinstance(r, TaskBlock):
        return [(r.task, DONE, ())]
    if isinstance(r, Seq):
        head, rest = r.children[0], r.children[1:]
        if isinstance(head, Joined):
            return [(t, after, head.joins + silent) for t, after, silent
                    in _frontier(_then(DONE, rest), numbers)]
        return [(t, _then(after, rest), silent)
                for t, after, silent in _frontier(head, numbers)]
    if isinstance(r, Xor):
        return [move for child in r.children
                for move in _frontier(child, numbers)]
    if isinstance(r, Par):
        moves = []
        for k, child in enumerate(r.children):
            for t, after, silent in _frontier(child, numbers):
                children = r.children[:k] + (after,) + r.children[k + 1:]
                if isinstance(after, Joined) and all(
                        isinstance(c, Joined) for c in children):
                    joins = sum((c.joins for c in children), ())
                    after = Joined(joins + (f"__join{r.number}",))
                else:
                    after = Par(r.number, children)
                moves.append((t, after, silent))
        return moves
    if isinstance(r, AndBlock):
        n = numbers[id(r)]
        fork = (f"__fork{n}",)
        return [(t, after, fork + silent) for t, after, silent
                in _frontier(Par(n, r.children), numbers)]
    if isinstance(r, Joined):
        return []
    raise TypeError(f"not a residual: {r!r}")
