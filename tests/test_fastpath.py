"""Structural fast-path analysis against the brute-force oracle."""
import time

import pytest
from conftest import build_example_model
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import literals, models

from wfcheck.engine import check_full, check_partial
from wfcheck.fastpath import (ROOT_REMOVED, NotLiteralVariant, RootRemoved,
                              Survives, TriggerAnalysis, WrongVariant, erase,
                              full_compliant_fast, instance_satisfiable,
                              instance_violable, label_triggers,
                              partial_compliant_fast,
                              require_single_local_literal,
                              trigger_transitions)
from wfcheck.formula import Or, parse_formula
from wfcheck.net import (ExecutionCapExceeded, derive_trace,
                         enumerate_executions)
from wfcheck.obligations import (Kind, Obligation, RuleSet, eval_restricted)
from wfcheck.process import and_, count_executions, seq, task, validate, xor


def lit_rule(kind, rho, tau, delta):
    return Obligation(Kind(kind), parse_formula(rho), parse_formula(tau),
                      parse_formula(delta))


def single_local_literal_rules():
    kinds = st.sampled_from((Kind.ACHIEVEMENT, Kind.MAINTENANCE))
    return st.builds(
        lambda k, r, t, d: Obligation(k, r.to_formula(), t.to_formula(),
                                      d.to_formula()),
        kinds, literals(), literals(), literals())


def task_id_runs(m):
    return {e.task_ids() for e in enumerate_executions(m)}


class TestTriggerTransitions:
    def test_positive_trigger_on_example(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        assert [t.id for t in trigger_transitions(example_model, o)] == ["t1"]

    def test_trigger_c_matches_two_tasks(self, example_model):
        o = lit_rule("achievement", "b", "c", "d")
        assert [t.id for t in trigger_transitions(example_model, o)] == [
            "t2", "t3"]

    def test_never_annotated_trigger(self, example_model):
        o = lit_rule("achievement", "b", "e", "d")
        assert trigger_transitions(example_model, o) == []

    def test_negative_trigger_matches_silent_annotations(self, example_model):
        o = lit_rule("achievement", "b", "!a", "d")
        assert [t.id for t in trigger_transitions(example_model, o)] == [
            "start", "t2", "t3", "t4", "end"]

    def test_compound_trigger_rejected(self, example_model):
        o = Obligation(Kind.ACHIEVEMENT, parse_formula("b"),
                       Or(parse_formula("a"), parse_formula("c")),
                       parse_formula("d"))
        with pytest.raises(NotLiteralVariant):
            trigger_transitions(example_model, o)

    def test_global_rule_rejected(self, example_model):
        o = Obligation(Kind.MAINTENANCE, parse_formula("b"))
        with pytest.raises(NotLiteralVariant):
            trigger_transitions(example_model, o)


class TestInstanceAnalysis:
    def test_unreachable_requirement_before_deadline(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        (x,) = trigger_transitions(example_model, o)
        assert not instance_satisfiable(example_model, o, x)
        assert instance_violable(example_model, o, x)

    def test_requirement_arriving_with_the_deadline(self, example_model):
        o = lit_rule("achievement", "d", "a", "b")
        (x,) = trigger_transitions(example_model, o)
        assert instance_satisfiable(example_model, o, x)
        assert not instance_violable(example_model, o, x)

    def test_immediate_achievement_on_a_line(self):
        m = validate(seq(task("x", "a"), task("y", "b")), name="line")
        o = lit_rule("achievement", "b", "a", "d")
        (x,) = trigger_transitions(m, o)
        assert instance_satisfiable(m, o, x)
        # the run never reaches d, so the final state closes the interval
        # with b already found; nothing can go wrong
        assert not instance_violable(m, o, x)

    def test_maintenance_trigger_equals_requirement(self, example_model):
        o = lit_rule("maintenance", "c", "c", "d")
        for x in trigger_transitions(example_model, o):
            assert instance_satisfiable(example_model, o, x)
            assert not instance_violable(example_model, o, x)

    def test_non_trigger_task_rejected(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        t4 = next(t for t in example_model.tasks() if t.id == "t4")
        with pytest.raises(ValueError):
            instance_satisfiable(example_model, o, t4)

    def test_labelling(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        labels = label_triggers(example_model, o)
        assert [(l.task.id, l.satisfiable) for l in labels] == [("t1", False)]

    @settings(max_examples=30)
    @given(models(max_tasks=5), single_local_literal_rules())
    def test_agrees_with_trace_enumeration(self, m, o):
        traces = [derive_trace(m, e) for e in enumerate_executions(m)]
        for x in trigger_transitions(m, o):
            containing = [tr for tr in traces if x.id in tr.task_ids()]
            sat = any(eval_restricted(tr, o, {x.id}) for tr in containing)
            vio = any(not eval_restricted(tr, o, {x.id})
                      for tr in containing)
            try:
                assert instance_satisfiable(m, o, x) == sat
                assert instance_violable(m, o, x) == vio
            except ExecutionCapExceeded:
                assume(False)


class TestErase:
    def test_choice_branch_normalises(self, example_model):
        out = erase(example_model, {"t1"})
        assert isinstance(out, Survives)
        assert [t.id for t in out.model.tasks()] == [
            "start", "t2", "t3", "t4", "end"]
        assert task_id_runs(out.model) == {
            ("start", "t2", "t3", "t4", "end"),
            ("start", "t3", "t2", "t4", "end")}

    def test_parallel_member_takes_the_root(self, example_model):
        assert erase(example_model, {"t3"}) is ROOT_REMOVED

    def test_empty_erase_is_identity(self, example_model):
        out = erase(example_model, set())
        assert isinstance(out, Survives)
        assert out.model is example_model

    def test_boundary_tasks_take_the_root(self, example_model):
        assert erase(example_model, {"start"}) is ROOT_REMOVED

    def test_exhausted_choice_propagates(self, example_model):
        assert erase(example_model, {"t1", "t2"}) is ROOT_REMOVED

    def test_unknown_task_rejected(self, example_model):
        with pytest.raises(ValueError):
            erase(example_model, {"zz"})

    @settings(max_examples=40)
    @given(models(max_tasks=6), st.data())
    def test_survivors_are_exactly_the_avoiding_runs(self, m, data):
        ids = [t.id for t in m.tasks() if t.id not in ("start", "end")]
        dead = data.draw(st.sets(st.sampled_from(ids)))
        survivors = {run for run in task_id_runs(m)
                     if not set(run) & dead}
        out = erase(m, dead)
        if isinstance(out, RootRemoved):
            assert not survivors
        else:
            assert task_id_runs(out.model) == survivors


class TestVariantGate:
    def test_accepts_single_local_literal(self):
        o = lit_rule("maintenance", "!b", "a", "d")
        assert require_single_local_literal(RuleSet((o,))) is o

    @pytest.mark.parametrize("rules,tag", [
        (RuleSet((Obligation(Kind.MAINTENANCE, parse_formula("a | !a")),)),
         "1G+"),
        (RuleSet((Obligation(Kind.MAINTENANCE, parse_formula("a")),)), "1G-"),
        (RuleSet((lit_rule("achievement", "a", "b", "c"),
                  lit_rule("maintenance", "a", "b", "c"))), "nL-"),
        (RuleSet((Obligation(Kind.ACHIEVEMENT, parse_formula("a & b"),
                             parse_formula("a"), parse_formula("d")),)),
         "1L+"),
    ])
    def test_refuses_other_variants(self, rules, tag):
        with pytest.raises(WrongVariant) as err:
            require_single_local_literal(rules)
        assert err.value.variant == tag


class TestWholeModelChecks:
    def test_example_partial_but_not_full(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        assert partial_compliant_fast(example_model, o)
        assert not full_compliant_fast(example_model, o)

    def test_vacuous_without_triggers(self, example_model):
        o = lit_rule("achievement", "b", "e", "d")
        assert partial_compliant_fast(example_model, o)
        assert full_compliant_fast(example_model, o)

    def test_trigger_satisfying_requirement_fully_complies(self,
                                                           example_model):
        o = lit_rule("achievement", "c", "c", "d")
        assert full_compliant_fast(example_model, o)

    def test_unavoidable_hopeless_trigger(self):
        m = validate(seq(task("x", "a"), task("y", "d")), name="doomed")
        o = lit_rule("achievement", "b", "a", "d")
        assert not partial_compliant_fast(m, o)
        assert not full_compliant_fast(m, o)

    def test_screening_alone_cannot_decide_chained_triggers(self):
        # x2's interval fails in every run containing it, and the only
        # branch satisfying x1 goes through x2: each labelling round
        # erases one trigger, and the verdict is still non-compliant
        body = seq(task("x1", "a"),
                   xor(seq(task("p", "b"), task("x2", "a", "-b"),
                           task("q", "d")),
                       task("u", "d")))
        m = validate(body, name="chained")
        o = lit_rule("achievement", "b", "a", "d")
        x1, x2 = trigger_transitions(m, o)
        assert instance_satisfiable(m, o, x1)
        assert not instance_satisfiable(m, o, x2)
        assert not partial_compliant_fast(m, o)
        assert not check_partial(m, RuleSet((o,))).verdict

    def test_individually_satisfiable_triggers_can_still_conflict(self):
        # both triggers can be satisfied, but never in the same run: x1
        # needs the branch whose tail poisons x2, and the other branch
        # kills x1 first — screening by per-trigger satisfiability would
        # erase nothing and wrongly accept
        body = seq(task("x1", "a"),
                   xor(seq(task("p", "b"), task("s", "-b", "d")),
                       seq(task("u", "d"), task("v", "-d"))),
                   task("x2", "a"), task("w", "b"))
        m = validate(body, name="conflict")
        o = lit_rule("achievement", "b", "a", "d")
        x1, x2 = trigger_transitions(m, o)
        assert instance_satisfiable(m, o, x1)
        assert instance_satisfiable(m, o, x2)
        assert not check_partial(m, RuleSet((o,))).verdict
        assert not partial_compliant_fast(m, o)

    @settings(max_examples=50)
    @given(models(max_tasks=5), single_local_literal_rules())
    def test_differential_against_brute_force(self, m, o):
        rs = RuleSet((o,))
        try:
            fast_partial = partial_compliant_fast(m, o)
            fast_full = full_compliant_fast(m, o)
        except ExecutionCapExceeded:
            assume(False)
        assert fast_partial == check_partial(m, rs).verdict
        assert fast_full == check_full(m, rs).verdict


class TestScaling:
    def test_choice_heavy_model_stays_fast(self):
        blocks = [xor(task(f"p{k}", "b"), task(f"n{k}", "-b"))
                  for k in range(1, 31)]
        m = validate(seq(task("x", "a"), *blocks), name="wide")
        o = lit_rule("achievement", "b", "a", "d")
        assert count_executions(m.root) == 2 ** 30
        started = time.perf_counter()
        assert partial_compliant_fast(m, o)
        assert not full_compliant_fast(m, o)
        assert time.perf_counter() - started < 1.0

    def test_parallel_blow_up_is_capped(self):
        m = validate(and_(*(task(f"t{k}") for k in range(1, 8))),
                     name="fanout")
        o = lit_rule("maintenance", "!b", "!a", "!d")
        assert count_executions(m.body) == 5040
        with pytest.raises(ExecutionCapExceeded):
            partial_compliant_fast(m, o)
        assert partial_compliant_fast(m, o, and_cap=6000)
        assert full_compliant_fast(m, o, and_cap=6000)

    def test_parallel_chains_explore_states_not_interleavings(self):
        # lane 0 ends on the deadline, lane 2 starts with the requirement
        marks = {(0, 4): ("d",), (2, 0): ("b",)}
        lanes = [seq(*(task(f"c{i}_{j}", *marks.get((i, j), ()))
                       for j in range(5)))
                 for i in range(3)]
        m = validate(seq(task("x", "a"), and_(*lanes)), name="chains")
        o = lit_rule("achievement", "b", "a", "d")
        assert count_executions(m.body) == 756_756
        started = time.perf_counter()
        assert partial_compliant_fast(m, o, and_cap=10 ** 6)
        assert not full_compliant_fast(m, o, and_cap=10 ** 6)
        assert time.perf_counter() - started < 2.0
