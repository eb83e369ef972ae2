"""Model validation, net compilation, run enumeration and trace derivation."""
import itertools

import pytest
from hypothesis import assume, given

from conftest import build_example_model
from strategies import models
from wfcheck.formula import State
from wfcheck.net import (DEFAULT_CAP, ExecutionCapExceeded, Marking,
                         NotEnabled, Trace, compile_to_net, derive_trace,
                         enabled, enumerate_executions, fire, replay)
from wfcheck.process import (AndBlock, DuplicateTaskId, EmptyBlock,
                             InconsistentAnnotation, InvalidTaskId, Seq, Task,
                             TaskBlock, and_, count_executions, seq, task,
                             validate, xor)

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

    def test_non_state_annotation_rejected(self):
        leaf = TaskBlock(Task("t1", frozenset()))
        with pytest.raises(InconsistentAnnotation):
            validate(leaf)


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
            assert any(t.startswith("__") for t in e.firing)

    def test_cap_enforced_before_enumerating(self, example_model):
        with pytest.raises(ExecutionCapExceeded) as err:
            enumerate_executions(example_model, cap=3)
        assert err.value.count == 4

    def test_enumeration_is_repeatable(self, example_model):
        first = [e.task_ids() for e in enumerate_executions(example_model)]
        second = [e.task_ids() for e in enumerate_executions(example_model)]
        assert first == second


def structural_runs(block):
    """Every run of a block as task ids, listed from the block tree."""
    if isinstance(block, TaskBlock):
        return {(block.task.id,)}
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
        first = next(enumerate_executions(m))
        assert first.firing == ("start", "__fork1", "__fork2", "a", "b",
                                "c", "__join2", "__join1", "d", "end")
        net = compile_to_net(m)
        assert replay(net, first.firing)[-1] == Marking.of({"o": 1})


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

    @given(models())
    def test_count_matches_enumeration(self, m):
        total = count_executions(m.root)
        assume(total <= 10_000)
        runs = list(enumerate_executions(m))
        assert len(runs) == total
        assert len({e.task_ids() for e in runs}) == total


class TestReplaySoundness:
    @given(models(max_tasks=6))
    def test_every_run_replays_to_the_sink(self, m):
        assume(count_executions(m.root) <= 2_000)
        net = compile_to_net(m)
        for e in enumerate_executions(m):
            markings = replay(net, e.firing)
            assert markings[-1] == Marking.of({"o": 1})
            assert not enabled(net, markings[-1])

    @given(models(max_tasks=6))
    def test_safeness_one_token_per_place(self, m):
        assume(count_executions(m.root) <= 2_000)
        net = compile_to_net(m)
        for e in enumerate_executions(m):
            for marking in replay(net, e.firing):
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
