"""Block-structured acyclic process models.

A model is a tree of ``Task`` leaves under seq / xor / and composites.  Every
task occurs at most once per run, composites have at least two children
after normalisation, and validation wraps the tree between the unannotated
boundary tasks ``start`` and ``end``.  Blocks may nest at most MAX_DEPTH
deep, so that loading, validation and both engines stay within Python's
default recursion limit.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

from .formula import State

TASK_ID_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

START_ID = "start"
END_ID = "end"

RESERVED_PREFIX = "__"

MAX_DEPTH = 400


class DuplicateTaskId(ValueError):
    """The same task id occurs in two leaves (or shadows start/end)."""


class EmptyBlock(ValueError):
    """A composite block has no children."""


class InconsistentAnnotation(ValueError):
    """A task annotation asserts a literal together with its negation."""


class InvalidTaskId(ValueError):
    """A task id is not an identifier, or uses the reserved __ prefix."""


class ModelTooDeep(ValueError):
    """Blocks nest more than MAX_DEPTH deep, or JSON too deep to decode."""


@dataclass(frozen=True)
class Task:
    id: str
    annotation: State = State()

    def __str__(self):
        return self.id


class Composite:
    """Structural ==, hash and repr for the composite blocks, written with
    an explicit stack, so that a tree MAX_DEPTH deep needs no recursion."""

    def _shape(self) -> list:
        """Each block's kind and child count, or its task, in pre-order,
        which equal trees and only they share."""
        shape, todo = [], [self]
        while todo:
            block = todo.pop()
            if isinstance(block, Task):
                shape.append(block)
            else:
                shape.append((type(block), len(block.children)))
                todo.extend(reversed(block.children))
        return shape

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._shape() == other._shape()

    def __hash__(self):
        return hash(tuple(self._shape()))

    def __repr__(self):  # as the dataclass repr prints it
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if not isinstance(item, Composite):
                out.append(item if isinstance(item, str) else repr(item))
                continue
            parts = [", "] * (2 * len(item.children) - 1)
            parts[::2] = item.children
            out.append(f"{type(item).__name__}(children=(")
            todo += [",))" if len(item.children) == 1 else "))",
                     *reversed(parts)]
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Composite):
    children: tuple["ProcessBlock", ...]


@dataclass(frozen=True, eq=False, repr=False)
class Xor(Composite):
    children: tuple["ProcessBlock", ...]


@dataclass(frozen=True, eq=False, repr=False)
class AndBlock(Composite):
    children: tuple["ProcessBlock", ...]


ProcessBlock = Union[Task, Seq, Xor, AndBlock]


def task(id: str, *literals) -> Task:
    """Shorthand for a task leaf; literals given as "a" / "-a" strings."""
    return Task(id, State.of(*literals))


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
    """All task leaves in declaration order, walked with an explicit stack,
    so that a task costs the same at any depth."""
    todo = [block]
    while todo:
        block = todo.pop()
        if isinstance(block, Task):
            yield block
        else:
            todo.extend(reversed(block.children))


def _checked(block: ProcessBlock, seen: set, depth: int) -> ProcessBlock:
    """``block`` with its one-child composites collapsed, once each block
    and task in it is checked in pre-order; ``seen`` holds the task ids
    met so far, and ``depth`` is the level ``block`` sits at."""
    if isinstance(block, Task):
        tid = block.id
        if not (isinstance(tid, str) and TASK_ID_PATTERN.fullmatch(tid)):
            raise InvalidTaskId(f"task id {tid!r} is not an identifier")
        if tid.startswith(RESERVED_PREFIX):
            raise InvalidTaskId(f"task id {tid!r} uses the reserved prefix")
        if tid in seen:
            raise DuplicateTaskId(
                f"task id {tid!r} is reserved for the boundary tasks"
                if tid in (START_ID, END_ID) else f"duplicate task id {tid!r}")
        seen.add(tid)
        if not isinstance(block.annotation, State):
            raise InconsistentAnnotation(
                f"task {tid!r} annotation must be a State")
        return block
    if not isinstance(block, Composite):
        raise TypeError(f"not a process block: {block!r}")
    if depth >= MAX_DEPTH and block.children:  # so at most MAX_DEPTH nest
        raise ModelTooDeep(f"block tree nests more than {MAX_DEPTH} deep")
    children = tuple(_checked(c, seen, depth + 1) for c in block.children)
    if not children:
        raise EmptyBlock(f"{type(block).__name__} with no children")
    return children[0] if len(children) == 1 else type(block)(children)


def validate(root: ProcessBlock, name: str = "model") -> Model:
    """Check a block tree in one walk and wrap it between start and end.
    A tree with several defects raises the error of the first one in
    pre-order."""
    body = _checked(root, {START_ID, END_ID}, 1)
    return Model(name, Seq((Task(START_ID), body, Task(END_ID))))


def _length_counts(block: ProcessBlock) -> dict[int, int]:
    """Map run length (task count) to the number of runs of that length.

    Each child's table is computed once, so counting a tree makes one
    call per block.  Seq and AndBlock convolve their children's tables;
    an and-block also counts the shuffles of each pair of runs."""
    if isinstance(block, Task):
        return {1: 1}
    if not isinstance(block, Composite):
        raise TypeError(f"not a process block: {block!r}")
    tables = [_length_counts(child) for child in block.children]
    if isinstance(block, Xor):
        acc: dict[int, int] = {}
        for table in tables:
            for l, c in table.items():
                acc[l] = acc.get(l, 0) + c
        return acc
    shuffle = isinstance(block, AndBlock)
    acc = {0: 1}
    for table in tables:
        nxt: dict[int, int] = {}
        for l1, c1 in acc.items():
            for l2, c2 in table.items():
                n = l1 + l2
                # ways to shuffle two fixed runs preserving their orders
                ways = c1 * c2 * math.comb(n, l1) if shuffle else c1 * c2
                nxt[n] = nxt.get(n, 0) + ways
        acc = nxt
    return acc


def count_executions(block: ProcessBlock) -> int:
    """Exact number of distinct runs, without enumerating them."""
    return sum(_length_counts(block).values())


# ---------------------------------------------------------------------------
# Residuals: what is left to run of a block once a run prefix has fired.
#
# A residual is itself a block tree: an unstarted block, a Seq whose first
# child is a residual and whose other children are unstarted, or an
# AndBlock of the residuals of two or more unfinished branches of a
# started and-block; with one branch left, the residual is that branch's.
# DONE, the and-block with no branch left, is a finished residual.  So
# residuals are purely structural, and count_executions counts their
# completions.  Every block of a model runs at least one task, so the
# frontier of a Seq is the frontier of its first child.  Given a search's
# table ``built``, a move looks each Seq or AndBlock residual it builds up
# by its kind and its children's ids, so each distinct residual is one
# object, which the search can key by its id.

DONE = AndBlock(())

Move = tuple[Task, ProcessBlock]


def frontier(residual: ProcessBlock, built: dict | None = None
             ) -> list[Move]:
    """The tasks that can fire next, ordered by task id, each with the
    residual left after it, looked up in ``built`` if given."""
    moves = _frontier(residual, built)
    moves.sort(key=lambda move: move[0].id)
    return moves


def _moved(kind: type, before: tuple, after: ProcessBlock, rest: tuple,
           built: dict | None) -> ProcessBlock:
    """What is left of a ``kind`` (Seq or AndBlock) residual once its child
    between ``before`` and ``rest`` has become ``after``: a finished child
    drops out, one child left is that child, and none left is DONE."""
    left = before + rest if after is DONE else before + (after,) + rest
    if len(left) < 2:
        return left[0] if left else DONE
    if built is None:
        return kind(left)
    key = (kind, *map(id, left))
    return built.get(key) or built.setdefault(key, kind(left))


def _frontier(r: ProcessBlock, built: dict | None) -> list[Move]:
    if isinstance(r, Task):
        return [(r, DONE)]
    if isinstance(r, Seq):
        rest = r.children[1:]
        return [(t, _moved(Seq, (), after, rest, built))
                for t, after in _frontier(r.children[0], built)]
    if isinstance(r, Xor):
        return [move for child in r.children
                for move in _frontier(child, built)]
    if isinstance(r, AndBlock):
        children = r.children
        return [(t, _moved(AndBlock, children[:k], after, children[k + 1:],
                           built))
                for k, child in enumerate(children)
                for t, after in _frontier(child, built)]
    raise TypeError(f"not a residual: {r!r}")
