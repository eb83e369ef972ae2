"""Achievement and maintenance rules evaluated over traces.

An obligation carries a requirement, and either applies globally (no
trigger, no deadline: the whole trace is one in-force interval) or locally:
every step whose task annotation satisfies the trigger opens an in-force
interval there.  Requirement and deadline are judged against the states the
trace accumulates; the last state of a trace counts as a deadline state no
matter what it contains, so no interval is left dangling.

Anchoring local intervals at the annotations that assert the trigger (and
not at every later state the trigger literal happens to persist into) is
what makes per-trigger analysis compose; the restricted evaluation below
relies on it.

The in-force intervals of one rule that are open at the same time always
agree on what they still wait for, so they resolve together, and one
"pool" stands for all of them.  ``pool_step`` moves the pool over one step
of a run and ``pool_satisfied_at_end`` reads it at the run's end.  A rule's
``monitor`` is that pool, a "deadline seen" bit for the strict reading, or
dead once an interval is violated; a global rule's pool is open from the
first step.  Both engines step the one monitor, the brute engine on whole
states, the fast engine on the state projected onto two literals.  The
trace-level evaluation here (``in_force_intervals``, ``eval_obligation``)
is the reference the monitor must agree with.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .formula import Formula, State, eval_formula, is_literal
from .net import Trace
from .process import Task


class NotLocal(ValueError):
    """A per-trigger operation was asked about a global obligation."""


class NotNested(ValueError):
    """overlap_reduction needs one interval properly inside the other."""


class SatCache:
    """Memo for formula-over-state checks; one engine run shares one.

    Formulas are keyed by identity: ``memo`` maps ``id(f)`` to ``f`` and
    its table of truth values per state, keyed by ``State.key``.  So a
    lookup hashes an int and a pair of ints, never walks the formula tree
    and calls no Python-level ``__hash__``.  The entry keeps ``f`` alive,
    so its id is not reused while the cache lives.  Equal formulas that are
    distinct objects just get tables of their own.
    """

    def __init__(self):
        self.memo: dict = {}

    def holds(self, f: Formula, s: State) -> bool:
        entry = self.memo.get(id(f))
        if entry is None:
            entry = self.memo[id(f)] = (f, {})
        table = entry[1]
        try:
            return table[s.key]
        except KeyError:
            value = table[s.key] = eval_formula(f, s)
            return value


class Kind(enum.Enum):
    ACHIEVEMENT = "achievement"
    MAINTENANCE = "maintenance"


# The pool of open intervals after a step: none open, some open, or one
# violated.  POOL_OPEN is 1, so it doubles as a monitor's "pool" bit.
POOL_CLOSED, POOL_OPEN, POOL_DEAD = 0, 1, 2


def pool_step(kind: Kind, pool_open: bool, fires: bool, requirement: bool,
              deadline: bool) -> int:
    """The pool after one step of a run.

    ``fires`` says the step opens an interval; ``requirement`` and
    ``deadline`` are their truth on the state after the step.  The
    requirement is judged first: an achievement interval is satisfied even
    at its deadline state, and a maintenance interval is violated there.
    """
    if not (pool_open or fires):
        return POOL_CLOSED
    if kind is Kind.ACHIEVEMENT:
        if requirement:
            return POOL_CLOSED
        return POOL_DEAD if deadline else POOL_OPEN
    if not requirement:
        return POOL_DEAD
    return POOL_CLOSED if deadline else POOL_OPEN


def pool_satisfied_at_end(kind: Kind, pool: int) -> bool:
    """Whether a run that ends with this pool satisfies the rule.  The last
    state is every open interval's deadline: an open achievement interval
    missed its requirement there, an open maintenance one held to it."""
    return pool == POOL_CLOSED or (
        pool == POOL_OPEN and kind is Kind.MAINTENANCE)


# Monitor marks: the pool bit, the strict reading's "deadline seen" bit,
# and the dead mark, which a violated interval leaves whatever the bits.
_POOL, MONITOR_DEAD, _SEEN = POOL_OPEN, 2, 4


def monitor(o: Obligation, trigger_ids: frozenset[str],
            strict_deadline: bool, holds):
    """The start mark of o's monitor, and its step over one edge of a run.

    ``trigger_ids`` are the tasks that open an interval; ``holds(f, state)``
    judges the requirement and deadline on the state after a task, in
    whatever form the caller's states take.
    """
    kind, requirement, deadline = o.kind, o.requirement, o.deadline
    strict = (strict_deadline and kind is Kind.ACHIEVEMENT
              and not o.is_global)

    def step(mark: int, task: Task, state) -> int:
        if mark == MONITOR_DEAD:
            return MONITOR_DEAD
        fires = task.id in trigger_ids
        if fires and mark & _SEEN:  # opened after the first deadline state
            return MONITOR_DEAD
        if mark & _POOL or fires:  # the state matters only to open ones
            pool = pool_step(kind, mark & _POOL, fires,
                             holds(requirement, state),
                             deadline is not None and holds(deadline, state))
            if pool == POOL_DEAD:
                return MONITOR_DEAD
            mark = mark & _SEEN | pool
        if strict and not mark & _SEEN and holds(deadline, state):
            mark |= _SEEN
        return mark

    # a global rule's one interval is open from the first step
    return (_POOL if o.is_global else 0), step


def monitor_complies(mark: int, kind: Kind) -> bool:
    """Whether a run that ends with this mark satisfies the rule."""
    return mark != MONITOR_DEAD and pool_satisfied_at_end(kind, mark & _POOL)


@dataclass(frozen=True)
class Obligation:
    kind: Kind
    requirement: Formula
    trigger: Formula | None = None
    deadline: Formula | None = None

    def __post_init__(self):
        if (self.trigger is None) != (self.deadline is None):
            raise ValueError(
                "trigger and deadline must be both given or both omitted")

    @property
    def is_global(self) -> bool:
        return self.trigger is None

    def literal_fields(self) -> bool:
        if not is_literal(self.requirement):
            return False
        if self.is_global:
            return True
        return is_literal(self.trigger) and is_literal(self.deadline)


@dataclass(frozen=True)
class RuleSet:
    obligations: tuple[Obligation, ...]

    def __post_init__(self):
        if not self.obligations:
            raise ValueError("a rule set needs at least one obligation")


@dataclass(frozen=True)
class InForceInterval:
    start_index: int
    end_index: int
    satisfied: bool


@dataclass(frozen=True)
class ObligationResult:
    satisfied: bool
    violating: InForceInterval | None = None


def _local_intervals(states: tuple[State, ...], o: Obligation,
                     triggers: list[int],
                     cache: SatCache) -> list[InForceInterval]:
    """The intervals opened at the given trigger steps, in one pass.

    Triggers come in increasing order, and so do their deadlines, so each
    search resumes where the last one stopped: ``delta`` at the next
    deadline, ``k`` at the next requirement (achievement) or requirement
    failure (maintenance).  A requirement search stops at its interval's
    deadline.  Searches only move forward, so a run of n steps costs O(n)
    ``holds`` calls, not one per trigger and later step.
    """
    last = len(states) - 1
    out = []
    delta = k = 0
    for i in triggers:
        delta = max(delta, i)
        while delta < last and not cache.holds(o.deadline, states[delta]):
            delta += 1
        k = max(k, i)
        if o.kind is Kind.MAINTENANCE:
            while k <= delta and cache.holds(o.requirement, states[k]):
                k += 1
            out.append(InForceInterval(i, delta, k > delta))
        else:
            while k <= delta and not cache.holds(o.requirement, states[k]):
                k += 1
            out.append(InForceInterval(i, k, True) if k <= delta
                       else InForceInterval(i, delta, False))
    return out


def _global_interval(states: tuple[State, ...], o: Obligation,
                     cache: SatCache) -> InForceInterval:
    if o.kind is Kind.MAINTENANCE:
        ok = all(cache.holds(o.requirement, s) for s in states)
    else:
        ok = any(cache.holds(o.requirement, s) for s in states)
    return InForceInterval(0, len(states) - 1, ok)


def trigger_indices(tr: Trace, o: Obligation,
                    cache: SatCache | None = None) -> list[int]:
    """Steps whose task annotation satisfies the trigger."""
    if o.is_global:
        raise NotLocal("a global obligation has no trigger")
    cache = cache or SatCache()
    return [i for i, (task, _) in enumerate(tr.steps)
            if cache.holds(o.trigger, task.annotation)]


def in_force_intervals(tr: Trace, o: Obligation,
                       cache: SatCache | None = None) -> list[InForceInterval]:
    """Every in-force interval of o on this trace, with its outcome."""
    cache = cache or SatCache()
    states = tr.states()
    if o.is_global:
        return [_global_interval(states, o, cache)]
    return _local_intervals(states, o, trigger_indices(tr, o, cache), cache)


def eval_obligation(tr: Trace, o: Obligation, strict_deadline: bool = False,
                    cache: SatCache | None = None) -> ObligationResult:
    """Check one obligation on one trace.

    With no trigger step the verdict is vacuously satisfied.  The default
    achievement reading only counts deadline states from the trigger on;
    strict_deadline also lets deadline states before the trigger spoil it.
    """
    cache = cache or SatCache()
    intervals = in_force_intervals(tr, o, cache)
    if (strict_deadline and o.kind is Kind.ACHIEVEMENT
            and not o.is_global):
        # a requirement counts only up to the first deadline of the trace;
        # an interval opened at or before it already ends there, and one
        # opened after it cannot be satisfied
        states = tr.states()
        bound = next((j for j, s in enumerate(states)
                      if cache.holds(o.deadline, s)), len(states) - 1)
        intervals = [iv if iv.start_index <= bound else
                     InForceInterval(iv.start_index, iv.end_index, False)
                     for iv in intervals]
    for iv in intervals:
        if not iv.satisfied:
            return ObligationResult(False, iv)
    return ObligationResult(True)


def eval_restricted(tr: Trace, o: Obligation, allowed) -> bool:
    """Check only the in-force intervals opened by the allowed tasks."""
    if o.is_global:
        raise NotLocal("restricted evaluation needs a local obligation")
    cache = SatCache()
    allowed_ids = {t.id if isinstance(t, Task) else t for t in allowed}
    for task, _ in tr.steps:
        if task.id in allowed_ids and not cache.holds(
                o.trigger, task.annotation):
            raise ValueError(
                f"task {task.id!r} does not satisfy the trigger")
    triggers = [i for i in trigger_indices(tr, o, cache)
                if tr.steps[i][0].id in allowed_ids]
    return all(iv.satisfied
               for iv in _local_intervals(tr.states(), o, triggers, cache))


def overlap_reduction(i1: InForceInterval, i2: InForceInterval,
                      kind: Kind) -> InForceInterval:
    """Pick the interval whose outcome decides a nested pair (i2 inside i1).

    For achievement the inner interval decides; for maintenance the outer
    one does.
    """
    nested = (i1.start_index <= i2.start_index
              and i2.end_index <= i1.end_index
              and (i1.start_index, i1.end_index)
              != (i2.start_index, i2.end_index))
    if not nested:
        raise NotNested(f"{i2} is not nested inside {i1}")
    return i2 if kind is Kind.ACHIEVEMENT else i1


@dataclass(frozen=True)
class VariantTag:
    single: bool
    global_scope: bool
    literal_only: bool

    def __str__(self):
        return (("1" if self.single else "n")
                + ("G" if self.global_scope else "L")
                + ("-" if self.literal_only else "+"))


def classify_variant(rs: RuleSet) -> VariantTag:
    """Obligation count 1/n, scope G/L, fields literal-only or not."""
    return VariantTag(
        single=len(rs.obligations) == 1,
        global_scope=all(o.is_global for o in rs.obligations),
        literal_only=all(o.literal_fields() for o in rs.obligations),
    )
