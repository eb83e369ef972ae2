"""Model validation, net compilation, run enumeration and trace derivation."""
import itertools
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given

from conftest import build_example_model, build_level
from strategies import models
from wfcheck import process
from wfcheck.formula import State
from wfcheck.net import (DEFAULT_CAP, ExecutionCapExceeded, Marking,
                         NotEnabled, Trace, compile_to_net, derive_trace,
                         enabled, enumerate_executions, enumerate_traces,
                         fire, replay)
from wfcheck.process import (DONE, AndBlock, DuplicateTaskId, EmptyBlock,
                             MAX_DEPTH, InconsistentAnnotation, InvalidTaskId,
                             ModelTooDeep, Seq, Task, and_, count_executions,
                             frontier, iter_tasks, seq, task, validate, xor)

# The running example: four runs, with the states each one accumulates.
EXPECTED_RUNS = [
    ("start", "t1", "t3", "t4", "end"),
    ("start", "t2", "t3", "t4", "end"),
    ("start", "t3", "t1", "t4", "end"),
    ("start", "t3", "t2", "t4", "end"),
]

EXPECTED_STATES = [
    [(), ("a",), ("a", "c", "d"), ("-a", "c", "d"), ("-a", "c", "d")],
    [(), ("b", "c"), ("b", "c", "d"), ("-a", "b", "c", "d"),
     ("-a", "b", "c", "d")],
    [(), ("c", "d"), ("a", "c", "d"), ("-a", "c", "d"), ("-a", "c", "d")],
    [(), ("c", "d"), ("b", "c", "d"), ("-a", "b", "c", "d"),
     ("-a", "b", "c", "d")],
]


class TestValidate:
    def test_wraps_into_start_end_sequence(self):
        m = validate(seq(task("t1"), task("t2")))
        ids = [t.id for t in m.tasks()]
        assert ids[0] == "start" and ids[-1] == "end"

    def test_single_child_composites_collapse(self):
        m = validate(seq(task("t1")))
        assert m.body == task("t1")
        assert [t.id for t in m.tasks()] == ["start", "t1", "end"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateTaskId):
            validate(seq(task("t1"), task("t1")))

    def test_start_shadowing_rejected(self):
        with pytest.raises(DuplicateTaskId):
            validate(seq(task("start"), task("t1")))

    def test_empty_composite_rejected(self):
        with pytest.raises(EmptyBlock):
            validate(seq(task("t1"), xor()))

    def test_bad_id_rejected(self):
        with pytest.raises(InvalidTaskId):
            validate(task("no spaces"))
        with pytest.raises(InvalidTaskId):
            validate(task("__fork1"))
        with pytest.raises(InvalidTaskId,
                           match="^task id 5 is not an identifier$"):
            validate(Task(5))

    def test_non_state_annotation_rejected(self):
        leaf = Task("t1", frozenset())
        with pytest.raises(InconsistentAnnotation):
            validate(leaf)

    @pytest.mark.parametrize("tree, error, message", [
        (lambda: seq(task("t1"), task("no spaces")), InvalidTaskId,
         "task id 'no spaces' is not an identifier"),
        (lambda: seq(task("t1"), task("__fork1")), InvalidTaskId,
         "task id '__fork1' uses the reserved prefix"),
        (lambda: seq(task("t1"), xor(task("t2"), task("t1"))),
         DuplicateTaskId, "duplicate task id 't1'"),
        (lambda: seq(task("start"), task("t1")), DuplicateTaskId,
         "task id 'start' is reserved for the boundary tasks"),
        (lambda: seq(task("t1"), task("end")), DuplicateTaskId,
         "task id 'end' is reserved for the boundary tasks"),
        (lambda: seq(task("t1"), Task("t2", frozenset())),
         InconsistentAnnotation, "task 't2' annotation must be a State"),
        (lambda: seq(task("t1"), "t2"), TypeError,
         "not a process block: 't2'"),
        (lambda: seq(task("t1"), and_(task("t2"), xor())), EmptyBlock,
         "Xor with no children"),
        (lambda: deep_nest(MAX_DEPTH + 1), ModelTooDeep,
         f"block tree nests more than {MAX_DEPTH} deep"),
    ], ids=["identifier", "reserved-prefix", "duplicate", "start", "end",
            "annotation", "non-block", "empty", "too-deep"])
    def test_each_defect_raises_its_class_and_text(self, tree, error,
                                                   message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            validate(tree())
        assert type(info.value) is error

    @pytest.mark.parametrize("tree, error", [
        (lambda: seq(task("t1"), task("t1"), xor()), DuplicateTaskId),
        (lambda: seq(task("t1"), xor(), task("t1")), EmptyBlock),
        (lambda: seq(task("no spaces"), deep_nest(MAX_DEPTH)),
         InvalidTaskId),
        (lambda: seq(deep_nest(MAX_DEPTH), task("no spaces")), ModelTooDeep),
    ], ids=["duplicate-then-empty", "empty-then-duplicate",
            "bad-id-then-deep", "deep-then-bad-id"])
    def test_the_first_defect_in_pre_order_is_reported(self, tree, error):
        with pytest.raises(error) as info:
            validate(tree())
        assert type(info.value) is error


def recursive_tasks(block):
    """The task leaves in declaration order, by plain recursion."""
    if isinstance(block, Task):
        return [block]
    return [t for child in block.children for t in recursive_tasks(child)]


def deep_nest(depth):
    """Blocks nesting ``depth`` deep: each level a seq, xor or and of a
    task and the level below it, the level below first on odd levels."""
    block = task("t0")
    for k in range(1, depth):
        kind, leaf = (seq, xor, and_)[k % 3], task(f"t{k}")
        block = kind(block, leaf) if k % 2 else kind(leaf, block)
    return block


class TestIterTasks:
    @given(models())
    @example(validate(seq(xor(task("a"), seq(task("b"), task("c"))),
                          and_(task("d"), task("e")))))
    def test_declaration_order(self, m):
        assert list(iter_tasks(m.root)) == recursive_tasks(m.root)

    def test_a_max_depth_nest(self):
        m = validate(deep_nest(MAX_DEPTH))
        tasks = list(iter_tasks(m.root))
        assert tasks == recursive_tasks(m.root)
        assert len(tasks) == MAX_DEPTH + 2
        # the outermost level puts the nest before its task, the level
        # below it puts its task first
        assert [t.id for t in tasks[:2] + tasks[-2:]] == [
            "start", f"t{MAX_DEPTH - 2}", f"t{MAX_DEPTH - 1}", "end"]


class TestCompile:
    def test_straight_line_shape(self):
        net = compile_to_net(validate(task("t1")))
        assert sorted(net.transitions) == ["end", "start", "t1"]
        assert net.silent_ids == frozenset()
        assert len(net.places) == 4
        assert net.pre["start"] == ("i",)
        assert net.post["end"] == ("o",)

    def test_xor_branches_share_places(self):
        net = compile_to_net(validate(xor(task("t1"), task("t2"))))
        assert net.pre["t1"] == net.pre["t2"]
        assert net.post["t1"] == net.post["t2"]

    def test_and_gets_silent_fork_and_join(self, example_model):
        net = compile_to_net(example_model)
        assert net.silent_ids == {"__fork1", "__join1"}
        assert len(net.post["__fork1"]) == 2
        assert len(net.pre["__join1"]) == 2

    def test_single_source_and_sink(self, example_model):
        net = compile_to_net(example_model)
        consumed = {p for pres in net.pre.values() for p in pres}
        produced = {p for posts in net.post.values() for p in posts}
        assert [p for p in net.places if p not in produced] == ["i"]
        assert [p for p in net.places if p not in consumed] == ["o"]


class TestFiring:
    def test_only_start_enabled_initially(self, example_model):
        net = compile_to_net(example_model)
        assert {t.id for t in enabled(net, net.initial_marking())} == {
            "start"}

    def test_fork_alone_follows_start(self, example_model):
        net = compile_to_net(example_model)
        m1 = fire(net, net.initial_marking(), net.transitions["start"])
        assert {t.id for t in enabled(net, m1)} == {"__fork1"}

    def test_fire_moves_one_token(self):
        net = compile_to_net(validate(task("t1")))
        m1 = fire(net, net.initial_marking(), net.transitions["start"])
        assert m1.count("i") == 0
        assert m1.total() == 1

    def test_fire_requires_token(self, example_model):
        net = compile_to_net(example_model)
        with pytest.raises(NotEnabled):
            fire(net, net.initial_marking(), net.transitions["t4"])

    def test_replay_example_run_to_sink(self, example_model):
        net = compile_to_net(example_model)
        firing = ("start", "__fork1", "t1", "t3", "__join1", "t4", "end")
        markings = replay(net, firing)
        assert markings[-1] == Marking.of({"o": 1})


class TestEnumeration:
    def test_example_runs_in_order(self, example_model):
        runs = [e.task_ids() for e in enumerate_executions(example_model)]
        assert runs == [tuple(r) for r in EXPECTED_RUNS]

    def test_example_traces(self, example_model):
        for execution, expected in zip(
                enumerate_executions(example_model), EXPECTED_STATES):
            trace = derive_trace(example_model, execution)
            got = [s for s in trace.states()]
            assert got == [State.of(*lits) for lits in expected]

    def test_silent_steps_not_reported(self, example_model):
        for e in enumerate_executions(example_model):
            assert not any(t.id.startswith("__") for t in e.steps)

    def test_cap_enforced_before_enumerating(self, example_model):
        with pytest.raises(ExecutionCapExceeded) as err:
            enumerate_executions(example_model, cap=3)
        assert err.value.count == 4

    def test_enumeration_is_repeatable(self, example_model):
        first = [e.task_ids() for e in enumerate_executions(example_model)]
        second = [e.task_ids() for e in enumerate_executions(example_model)]
        assert first == second

    def test_trace_cap_enforced_before_enumerating(self, example_model):
        with pytest.raises(ExecutionCapExceeded):
            enumerate_traces(example_model, cap=3)


class TestFoldedTraces:
    @given(models())
    def test_traces_equal_the_reference_fold(self, m):
        assume(count_executions(m.root) <= 2_000)
        traces = list(enumerate_traces(m))
        executions = list(enumerate_executions(m))
        assert [tr.tasks() for tr in traces] == [e.steps for e in executions]
        for execution, trace in zip(executions, traces):
            assert trace == derive_trace(m, execution)

    @pytest.mark.parametrize("bound", [1, 2])
    @given(models())
    def test_a_full_state_table_is_cleared_without_changing_a_trace(
            self, bound, m):
        assume(count_executions(m.root) <= 2_000)
        with mock.patch("wfcheck.net._SHARED_STATES", bound):
            traces = list(enumerate_traces(m))
        executions = list(enumerate_executions(m))
        assert len(traces) == len(executions)
        for execution, trace in zip(executions, traces):
            assert trace == derive_trace(m, execution)

    def test_runs_sharing_a_prefix_share_its_states(self, example_model):
        first, second = list(enumerate_traces(example_model))[2:]
        # start,t3 is folded once for both runs that begin with it
        assert first.steps[1][1] is second.steps[1][1]

    def test_interleavings_reaching_equal_states_share_one(self,
                                                           example_model):
        traces = list(enumerate_traces(example_model))
        # start,t1,t3 and start,t3,t1 both reach {a, c, d}, then {-a, c, d};
        # the two runs with t2 both reach {b, c, d}, then {-a, b, c, d}
        for step in (2, 3, 4):
            assert traces[0].steps[step][1] is traces[2].steps[step][1]
            assert traces[1].steps[step][1] is traces[3].steps[step][1]


def structural_runs(block):
    """Every run of a block as task ids, listed from the block tree."""
    if isinstance(block, Task):
        return {(block.id,)}
    child_runs = [structural_runs(c) for c in block.children]
    if isinstance(block, Seq):
        return {sum(parts, ()) for parts in itertools.product(*child_runs)}
    if isinstance(block, AndBlock):
        return {run for parts in itertools.product(*child_runs)
                for run in shuffles(list(parts))}
    return set().union(*child_runs)


def shuffles(runs):
    """Interleavings of runs that keep each run's own order."""
    live = [r for r in runs if r]
    if not live:
        return {()}
    return {(r[0],) + tail for k, r in enumerate(live)
            for tail in shuffles(live[:k] + [r[1:]] + live[k + 1:])}


class TestEnumerationOrder:
    @given(models())
    def test_runs_are_the_structural_runs_in_lexicographic_order(self, m):
        assume(count_executions(m.root) <= 2_000)
        runs = [e.task_ids() for e in enumerate_executions(m)]
        assert runs == sorted(structural_runs(m.root))

    def test_silent_steps_fire_right_before_the_task_needing_them(self):
        m = validate(seq(and_(and_(task("a"), task("b")), task("c")),
                         task("d")))
        net = compile_to_net(m)
        first = net_firing(net, next(enumerate_executions(m)).task_ids())
        assert first == ("start", "__fork1", "__fork2", "a", "b",
                         "c", "__join2", "__join1", "d", "end")
        assert replay(net, first)[-1] == Marking.of({"o": 1})


def net_firing(net, run):
    """The firing sequence of a task-level run on its net: before each
    task, the fewest silent transitions that enable it, found by a
    breadth-first search over the markings silent firings reach."""
    marking = net.initial_marking()
    firing = []
    for tid in run:
        queue, seen = [(marking, ())], {marking}
        while not any(t.id == tid for t in enabled(net, queue[0][0])):
            current, path = queue.pop(0)
            for t in sorted(enabled(net, current), key=lambda t: t.id):
                if t.id in net.silent_ids:
                    after = fire(net, current, t)
                    if after not in seen:
                        seen.add(after)
                        queue.append((after, path + (t.id,)))
            assert queue, f"{tid} never enabled after {firing}"
        marking, path = queue[0]
        firing += path + (tid,)
        marking = fire(net, marking, net.transitions[tid])
    return tuple(firing)


def net_runs(net):
    """Every run of a net from its source to a dead marking, silent
    transitions dropped, found by a search over its markings.

    Asserts on the way that every reachable marking holds at most one
    token per place and that the sink is the only dead one."""
    sink = Marking.of({net.sink: 1})
    memo = {}

    def runs_from(marking):
        if marking not in memo:
            assert all(c <= 1 for _, c in marking.counts), marking
            moves = enabled(net, marking)
            if not moves:
                assert marking == sink, marking
            out = set() if moves else {()}
            for t in moves:
                tails = runs_from(fire(net, marking, t))
                if t.id not in net.silent_ids:
                    tails = {(t.id,) + tail for tail in tails}
                out |= tails
            memo[marking] = out
        return memo[marking]

    return runs_from(net.initial_marking())


class TestNetReference:
    @given(models(max_tasks=6))
    @example(validate(seq(and_(and_(task("a"), task("b")), task("c")),
                          task("d"))))
    def test_runs_are_the_runs_of_the_safe_sound_net(self, m):
        assume(count_executions(m.root) <= 2_000)
        runs = {e.task_ids() for e in enumerate_executions(m)}
        assert net_runs(compile_to_net(m)) == runs


def count_blocks(block):
    return 1 + sum(map(count_blocks, getattr(block, "children", ())))


class TestCount:
    def test_example_has_four_runs(self, example_model):
        assert count_executions(example_model.root) == 4

    def test_choice_adds(self):
        assert count_executions(xor(task("t1"), task("t2"))) == 2

    def test_interleaving_of_pair_and_singleton(self):
        block = and_(seq(task("a1"), task("a2")), task("b1"))
        assert count_executions(block) == 3

    def test_nested_parallel(self):
        block = and_(and_(task("a1"), task("b1")), task("c1"))
        assert count_executions(block) == 6

    def test_counting_visits_each_block_once(self, monkeypatch):
        root = build_level(4)
        blocks = count_blocks(root)
        assert (blocks, len(list(iter_tasks(root)))) == (3886, 2073)
        calls = 0
        count_tables = process._length_counts

        def counted(block):
            nonlocal calls
            calls += 1
            return count_tables(block)

        monkeypatch.setattr(process, "_length_counts", counted)
        assert count_executions(root) == 2 ** 120
        assert calls == blocks

    @given(models(max_tasks=6))
    @example(validate(seq(task("x"),
                          and_(task("a"), seq(task("b"), task("c"))))))
    def test_residuals_count_their_completions(self, m):
        assume(count_executions(m.root) <= 500)

        def composites(block):
            if not isinstance(block, Task):
                yield block
                for child in block.children:
                    yield from composites(child)

        def completions(residual):
            # a finished child drops out and one child left stands alone,
            # so no residual holds a composite of fewer than two children
            assert all(len(block.children) >= 2
                       for block in composites(residual) if block is not DONE)
            moves = frontier(residual)
            if not moves:
                assert residual is DONE
                return 1
            total = sum(completions(after) for _, after in moves)
            assert count_executions(residual) == total
            return total

        assert completions(m.root) == count_executions(m.root)

    @given(models())
    def test_count_matches_enumeration(self, m):
        total = count_executions(m.root)
        assume(total <= 10_000)
        runs = list(enumerate_executions(m))
        assert len(runs) == total
        assert len({e.task_ids() for e in runs}) == total


class TestResidualTable:
    def test_both_orders_reach_one_object(self):
        block = and_(task("a"), task("b"), task("c"), task("d"))

        def after(r, tid, built):
            return next(rest for t, rest in frontier(r, built) if t.id == tid)

        built = {}
        ab = after(after(block, "a", built), "b", built)
        assert after(after(block, "b", built), "a", built) is ab
        assert ab == and_(task("c"), task("d"))
        # without a table the two orders build equal, distinct objects
        plain_ab = after(after(block, "a", None), "b", None)
        plain_ba = after(after(block, "b", None), "a", None)
        assert plain_ab == plain_ba == ab and plain_ab is not plain_ba

    @given(models(max_tasks=7))
    @example(validate(and_(seq(task("a"), task("b")), task("c"),
                           xor(task("d"), and_(task("e"), task("f"))))))
    def test_a_table_changes_no_move(self, m):
        built, todo, reached = {}, [m.root], {id(m.root): m.root}
        while todo:
            r = todo.pop()
            moves = frontier(r, built)
            assert [t for t, _ in moves] == [t for t, _ in frontier(r)]
            assert [a for _, a in moves] == [a for _, a in frontier(r)]
            for _, a in moves:
                if id(a) not in reached:
                    reached[id(a)] = a
                    todo.append(a)
        # equal residuals are one object
        assert len(set(reached.values())) == len(reached)


class TestReplaySoundness:
    @given(models(max_tasks=6))
    def test_every_run_replays_to_the_sink(self, m):
        assume(count_executions(m.root) <= 2_000)
        net = compile_to_net(m)
        for e in enumerate_executions(m):
            markings = replay(net, net_firing(net, e.task_ids()))
            assert markings[-1] == Marking.of({"o": 1})
            assert not enabled(net, markings[-1])

    @given(models(max_tasks=6))
    def test_safeness_one_token_per_place(self, m):
        assume(count_executions(m.root) <= 2_000)
        net = compile_to_net(m)
        for e in enumerate_executions(m):
            for marking in replay(net, net_firing(net, e.task_ids())):
                assert all(c <= 1 for _, c in marking.counts)

    @given(models(max_tasks=6))
    def test_acyclicity_no_task_repeats(self, m):
        assume(count_executions(m.root) <= 2_000)
        for e in enumerate_executions(m):
            ids = e.task_ids()
            assert len(set(ids)) == len(ids)

    @given(models(max_tasks=6))
    def test_runs_start_and_end_at_the_boundary_tasks(self, m):
        assume(count_executions(m.root) <= 2_000)
        for e in enumerate_executions(m):
            ids = e.task_ids()
            assert ids[0] == "start" and ids[-1] == "end"


class TestDeriveTrace:
    def test_states_fold_left_to_right(self):
        trace = Trace.from_tasks([
            Task("start"),
            Task("t1", State.of("a")),
            Task("t2", State.of("-a", "b")),
        ])
        assert trace.states() == (
            State(), State.of("a"), State.of("-a", "b"))

    def test_start_state_is_empty(self, example_model):
        for e in enumerate_executions(example_model):
            assert derive_trace(example_model, e).states()[0] == State()
