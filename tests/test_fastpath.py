"""Structural fast-path analysis against the brute-force oracle."""
import itertools
import random
import time

import pytest
from conftest import build_example_model, build_level
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from strategies import ATOM_POOL, literals, models, states
from test_engine import reference_report

from wfcheck import fastpath, formula
from wfcheck.bench import _and_chains
from wfcheck.engine import run_check, trace_complies
from wfcheck.fastpath import (TriggerAnalysis, WrongVariant, erase,
                              label_triggers, outcomes,
                              require_single_local_literal,
                              trigger_transitions)
from wfcheck.formula import (Or, atom_bit, eval_formula, parse_formula,
                             update)
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.net import (DEFAULT_CAP, ExecutionCapExceeded, derive_trace,
                         enumerate_executions)
from wfcheck.obligations import (Kind, Obligation, RuleSet, VariantTag,
                                 eval_restricted, monitor)
from wfcheck.process import and_, count_executions, seq, task, validate, xor

LOCAL_LITERAL = VariantTag(single=True, global_scope=False, literal_only=True)
ALL_TAGS = [VariantTag(single, global_scope, literal_only)
            for single in (True, False) for global_scope in (True, False)
            for literal_only in (True, False)]


def lit_rule(kind, rho, tau, delta):
    return Obligation(Kind(kind), parse_formula(rho), parse_formula(tau),
                      parse_formula(delta))


def single_local_literal_rules(pool=ATOM_POOL):
    kinds = st.sampled_from((Kind.ACHIEVEMENT, Kind.MAINTENANCE))
    return st.builds(
        lambda k, r, t, d: Obligation(k, r.to_formula(), t.to_formula(),
                                      d.to_formula()),
        kinds, literals(pool), literals(pool), literals(pool))


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
        with pytest.raises(WrongVariant, match="got 1L\\+$"):
            trigger_transitions(example_model, o)

    def test_global_rule_rejected(self, example_model):
        o = Obligation(Kind.MAINTENANCE, parse_formula("b"))
        with pytest.raises(WrongVariant, match="got 1G-$"):
            trigger_transitions(example_model, o)


UNMENTIONED = "never_asserted"  # an atom that no state in the tests holds


def trigger_reading(m, o):
    """The trigger task ids in declaration order, by ``eval_formula``."""
    return [t.id for t in m.tasks() if eval_formula(o.trigger, t.annotation)]


def projected_step(s, ann, o):
    """Run the fast engine on the one run <s, ann> with no trigger; return
    the bits its carry ends in and the ``holds`` it reads them with."""
    readers = []

    def spy(*args):
        readers.append(args[-1])
        return monitor(*args)

    m = validate(seq(task("s", *map(str, s)), task("ann", *map(str, ann))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath, "monitor", spy)
        (carry,) = fastpath._endings(m, o, frozenset(), DEFAULT_CAP)
    return carry[0], readers[0]


class TestMaskReading:
    """The fast engine reads a state as its ``pos`` mask projected onto the
    rule's atoms and steps that as ``update`` steps ``pos``: what it reads
    must be what ``eval_formula`` reads on the whole state."""

    @given(states(), states(),
           single_local_literal_rules(ATOM_POOL + (UNMENTIONED,)))
    def test_projected_step_equals_eval_formula(self, s, ann, o):
        bits, holds = projected_step(s, ann, o)
        after = update(s, ann)
        for f in (o.requirement, o.deadline):
            assert holds(f, bits) == eval_formula(f, after)

    @given(models(), single_local_literal_rules(ATOM_POOL + (UNMENTIONED,)))
    def test_trigger_reading_equals_eval_formula(self, m, o):
        assert [t.id for t in trigger_transitions(m, o)] \
            == trigger_reading(m, o)

    def test_negative_trigger_on_an_unmentioned_atom(self, example_model):
        o = lit_rule("achievement", "b", f"!{UNMENTIONED}", "d")
        assert atom_bit(UNMENTIONED) == 0
        # closed world: !u holds on every task, since none asserts u
        assert [t.id for t in trigger_transitions(example_model, o)] \
            == trigger_reading(example_model, o) \
            == [t.id for t in example_model.tasks()]

    def test_requirement_and_deadline_on_one_atom(self):
        # level(2)'s tasks assert a or -a: each sets or clears the one bit
        # that requirement, trigger and deadline all read
        m = validate(build_level(2), name="level2")
        for kind in ("achievement", "maintenance"):
            for rho, tau, delta in itertools.product(("a", "!a"), repeat=3):
                o = lit_rule(kind, rho, tau, delta)
                rs = RuleSet((o,))
                got = outcomes(m, o)
                assert (True in got) == run_check(m, rs, "partial").verdict, o
                assert (False not in got) \
                    == run_check(m, rs, "full").verdict, o

    def test_queries_number_no_atom(self, example_model):
        before = dict(formula._BITS)
        for o in (lit_rule("achievement", UNMENTIONED, "a", "d"),
                  lit_rule("maintenance", "b", f"!{UNMENTIONED}",
                           UNMENTIONED)):
            outcomes(example_model, o)
            for x in label_triggers(example_model, o):
                outcomes(example_model, o, x.task)
        assert formula._BITS == before
        assert atom_bit(UNMENTIONED) == 0


class TestInstanceAnalysis:
    def test_unreachable_requirement_before_deadline(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        (x,) = trigger_transitions(example_model, o)
        assert outcomes(example_model, o, x) == {False}

    def test_requirement_arriving_with_the_deadline(self, example_model):
        o = lit_rule("achievement", "d", "a", "b")
        (x,) = trigger_transitions(example_model, o)
        assert outcomes(example_model, o, x) == {True}

    def test_immediate_achievement_on_a_line(self):
        m = validate(seq(task("x", "a"), task("y", "b")), name="line")
        o = lit_rule("achievement", "b", "a", "d")
        (x,) = trigger_transitions(m, o)
        # the run never reaches d, so the final state closes the interval
        # with b already found; nothing can go wrong
        assert outcomes(m, o, x) == {True}

    def test_maintenance_trigger_equals_requirement(self, example_model):
        o = lit_rule("maintenance", "c", "c", "d")
        for x in trigger_transitions(example_model, o):
            assert outcomes(example_model, o, x) == {True}

    def test_non_trigger_task_rejected(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        t4 = next(t for t in example_model.tasks() if t.id == "t4")
        with pytest.raises(ValueError):
            outcomes(example_model, o, t4)

    def test_labelling(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        labels = label_triggers(example_model, o)
        assert [(l.task.id, l.satisfiable) for l in labels] == [("t1", False)]

    @staticmethod
    def assert_agrees_with_trace_enumeration(m, o):
        traces = [derive_trace(m, e) for e in enumerate_executions(m)]
        assert outcomes(m, o) == {trace_complies(tr, RuleSet((o,)))
                                  for tr in traces}
        labels = []
        for x in trigger_transitions(m, o):
            containing = [tr for tr in traces if x.id in tr.task_ids()]
            interval = {eval_restricted(tr, o, {x.id}) for tr in containing}
            assert outcomes(m, o, x) == interval
            labels.append((x.id, True in interval))
        assert [(l.task.id, l.satisfiable)
                for l in label_triggers(m, o)] == labels

    @settings(max_examples=30)
    @given(models(max_tasks=5), single_local_literal_rules())
    def test_agrees_with_trace_enumeration(self, m, o):
        try:
            self.assert_agrees_with_trace_enumeration(m, o)
        except ExecutionCapExceeded:
            assume(False)

    @pytest.mark.parametrize("first_seed", range(0, 200, 50))
    def test_generated_models_agree_with_trace_enumeration(self, first_seed):
        for seed in range(first_seed, first_seed + 50):
            cfg = GeneratorConfig(seed=seed, max_tasks=10, atom_pool=6,
                                  variant=LOCAL_LITERAL)
            m, rs = generate_instance(cfg)
            self.assert_agrees_with_trace_enumeration(m, rs.obligations[0])


class TestErase:
    def test_choice_branch_normalises(self, example_model):
        out = erase(example_model, {"t1"})
        assert [t.id for t in out.tasks()] == [
            "start", "t2", "t3", "t4", "end"]
        assert task_id_runs(out) == {
            ("start", "t2", "t3", "t4", "end"),
            ("start", "t3", "t2", "t4", "end")}

    def test_parallel_member_takes_the_root(self, example_model):
        assert erase(example_model, {"t3"}) is None

    def test_empty_erase_is_identity(self, example_model):
        assert erase(example_model, set()) is example_model

    def test_boundary_tasks_take_the_root(self, example_model):
        assert erase(example_model, {"start"}) is None
        assert erase(example_model, {"end"}) is None

    def test_exhausted_choice_propagates(self, example_model):
        assert erase(example_model, {"t1", "t2"}) is None

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
        if out is None:
            assert not survivors
        else:
            assert task_id_runs(out) == survivors


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

    @pytest.mark.parametrize("mode", ("full", "partial", "non"))
    @pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
    def test_run_check_gate_on_generated_instances(self, tag, mode):
        for seed in range(10):
            m, rs = generate_instance(GeneratorConfig(seed=seed, variant=tag))
            if tag == LOCAL_LITERAL:
                fast = run_check(m, rs, mode, engine="fast")
                assert fast.verdict == run_check(m, rs, mode).verdict
            else:
                with pytest.raises(WrongVariant) as err:
                    run_check(m, rs, mode, engine="fast")
                assert err.value.variant == str(tag)


class TestWholeModelChecks:
    def test_example_partial_but_not_full(self, example_model):
        o = lit_rule("achievement", "b", "a", "d")
        assert outcomes(example_model, o) == {True, False}

    def test_vacuous_without_triggers(self, example_model):
        o = lit_rule("achievement", "b", "e", "d")
        assert outcomes(example_model, o) == {True}

    def test_trigger_satisfying_requirement_fully_complies(self,
                                                           example_model):
        o = lit_rule("achievement", "c", "c", "d")
        assert False not in outcomes(example_model, o)

    def test_unavoidable_hopeless_trigger(self):
        m = validate(seq(task("x", "a"), task("y", "d")), name="doomed")
        o = lit_rule("achievement", "b", "a", "d")
        assert outcomes(m, o) == {False}

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
        assert True in outcomes(m, o, x1)
        assert True not in outcomes(m, o, x2)
        assert True not in outcomes(m, o)
        assert not run_check(m, RuleSet((o,)), "partial").verdict

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
        assert True in outcomes(m, o, x1)
        assert True in outcomes(m, o, x2)
        assert not run_check(m, RuleSet((o,)), "partial").verdict
        assert True not in outcomes(m, o)

    # a choice with a quiet branch keeps skipping as an option: q sets
    # nothing the rule reads, k breaks it
    @settings(max_examples=50)
    @given(models(max_tasks=5), single_local_literal_rules())
    @example(validate(seq(task("x", "a"),
                          and_(xor(task("q", "c"), task("k", "d")),
                               task("y", "c")))),
             lit_rule("maintenance", "!d", "a", "e"))
    @example(validate(seq(task("x", "a"),
                          xor(task("q", "c"), task("k", "d")))),
             lit_rule("maintenance", "!d", "a", "e"))
    def test_differential_against_brute_force(self, m, o):
        rs = RuleSet((o,))
        try:
            got = outcomes(m, o)
        except ExecutionCapExceeded:
            assume(False)
        assert (True in got) == run_check(m, rs, "partial").verdict
        assert (False not in got) == run_check(m, rs, "full").verdict


def chains_model(length):
    """A trigger x:{a}, then an and-block of three chains of ``length``
    tasks, under <b, a, d>: chain 0 ends on the deadline, chain 2 starts
    with the requirement."""
    marks = {(0, length - 1): ("d",), (2, 0): ("b",)}
    lanes = [seq(*(task(f"c{i}_{j}", *marks.get((i, j), ()))
                   for j in range(length)))
             for i in range(3)]
    m = validate(seq(task("x", "a"), and_(*lanes)), name="chains")
    return m, lit_rule("achievement", "b", "a", "d")


def toggles_model():
    """A trigger, then an and-block of seven tasks that each set or clear
    the requirement, so none is quiet and the search meets each subset of
    finished branches with each carry."""
    m = validate(seq(task("x", "a"),
                     and_(*(task(f"t{k}", "b" if k % 2 else "-b")
                            for k in range(1, 8)))), name="toggles")
    return m, lit_rule("achievement", "b", "a", "d")


class TestScaling:
    def test_choice_heavy_model_stays_fast(self):
        blocks = [xor(task(f"p{k}", "b"), task(f"n{k}", "-b"))
                  for k in range(1, 31)]
        m = validate(seq(task("x", "a"), *blocks), name="wide")
        o = lit_rule("achievement", "b", "a", "d")
        assert count_executions(m.root) == 2 ** 30
        started = time.perf_counter()
        assert outcomes(m, o) == {True, False}
        assert time.perf_counter() - started < 1.0

    def test_and_blocks_are_refused_by_explored_pairs(self):
        m, o = toggles_model()
        with pytest.raises(ExecutionCapExceeded,
                           match=r"^101 explored \(residual, carry\) pairs "
                                 r"exceed the cap of 100$") as err:
            outcomes(m, o, and_cap=100)
        assert (err.value.count, err.value.cap) == (101, 100)
        rs = RuleSet((o,))
        got = outcomes(m, o)
        assert (True in got) == run_check(m, rs, "partial").verdict
        assert (False not in got) == run_check(m, rs, "full").verdict

    def test_equal_residuals_are_one_pair(self):
        # 127 pairs when each residual the search builds is one object;
        # equal residuals built by two interleavings would count twice
        m, o = toggles_model()
        assert outcomes(m, o, and_cap=127) == {True}
        with pytest.raises(ExecutionCapExceeded) as err:
            outcomes(m, o, and_cap=126)
        assert err.value.count == 127

    def test_quiet_tasks_need_no_budget(self):
        # every task leaves the rule's bits alone, so the quiet tasks are
        # taken out before any search, also under choices
        o = lit_rule("achievement", "b", "a", "d")
        for body, runs in [
                (and_(*(task(f"t{k}", "c") for k in range(1, 8))), 5040),
                (and_(*(xor(task(f"q{k}", "c"), task(f"r{k}", "-c"))
                        for k in range(1, 8))), 5040 * 2 ** 7)]:
            m = validate(body, name="fanout")
            assert count_executions(m.body) == runs
            assert outcomes(m, o, and_cap=1) == {True}

    def test_fast_queries_default_to_the_check_cap(self):
        # 34,650 runs: within the cap that run_check and the CLI pass
        m, o = chains_model(4)
        assert count_executions(m.body) == 34_650
        rs = RuleSet((o,))
        got = outcomes(m, o)
        assert (True in got) == run_check(
            m, rs, "partial", engine="fast").verdict
        assert (False not in got) == run_check(
            m, rs, "full", engine="fast").verdict

    def test_noisy_chains_are_answered_within_the_default_budget(self):
        # 6.2e14 runs, most of whose tasks carry one noise literal
        m, o = _and_chains(5)
        assert count_executions(m.body) == 623_360_743_125_120
        started = time.perf_counter()
        assert outcomes(m, o) == {True, False}
        assert time.perf_counter() - started < 2.0

    def test_parallel_chains_explore_states_not_interleavings(self):
        m, o = chains_model(5)
        assert count_executions(m.body) == 756_756
        started = time.perf_counter()
        assert outcomes(m, o, and_cap=10 ** 6) == {True, False}
        assert time.perf_counter() - started < 2.0


def and_heavy_instance(rng):
    """An and-block of two or three branches, each a task, an xor or and
    of two tasks, or a seq of two such parts, sometimes after a task; and
    one literal rule over a, b and d.  Tasks carry a rule literal, a noise
    literal or nothing, so branches hold quiet tasks, visible ones and
    triggers."""
    ids = itertools.count()
    annotations = ("a", "-a", "b", "-b", "d", "-d", "c", "-c", "e", None)

    def leaf():
        ann = rng.choice(annotations)
        return task(f"t{next(ids)}", *([ann] if ann else []))

    def part():
        kind = rng.choice((leaf, leaf, xor, and_))
        return leaf() if kind is leaf else kind(leaf(), leaf())

    def branch():
        return part() if rng.random() < 0.5 else seq(part(), part())

    body = and_(*(branch() for _ in range(rng.randint(2, 3))))
    if rng.random() < 0.5:
        body = seq(leaf(), body)
    fields = [rng.choice(("", "!")) + atom for atom in rng.sample("abd", 3)]
    kind = rng.choice(("achievement", "maintenance"))
    return validate(body, name="and-heavy"), lit_rule(kind, *fields)


class TestPartialOrderReduction:
    """The reduction keeps the end carries every query reads: compare it
    with the run-by-run reference on models where it fires often."""

    @pytest.mark.parametrize("first_seed", range(0, 300, 75))
    def test_and_heavy_models_agree_with_the_reference(self, first_seed):
        for seed in range(first_seed, first_seed + 75):
            rng = random.Random(seed)
            m, o = and_heavy_instance(rng)
            while count_executions(m.root) > 400:
                m, o = and_heavy_instance(rng)
            rs = RuleSet((o,))
            got = outcomes(m, o)
            assert (True in got) \
                == reference_report(m, rs, "partial", False)[0]
            assert (False not in got) \
                == reference_report(m, rs, "full", False)[0]
            TestInstanceAnalysis.assert_agrees_with_trace_enumeration(m, o)


def quiet_branch_instance(rng):
    """A trigger, then one to three parts, each a choice or an and-block,
    under one literal rule over a, b and d with a positive trigger.  A
    choice puts an all-quiet branch (one or two tasks with a noise literal
    or none) beside a task that carries a rule literal; an and-block has
    two branches, each such a choice, an all-quiet branch, a loud task or
    a loud task before a choice.  So all-quiet branches stand under
    choices both outside and inside and-blocks, and some and-blocks keep
    one loud branch or none."""
    ids = itertools.count()
    loud = ("a", "-a", "b", "-b", "d", "-d")

    def leaf(annotations):
        ann = rng.choice(annotations)
        return task(f"t{next(ids)}", *([ann] if ann else []))

    def quiet():
        parts = [leaf(("c", "-c", "e", None))
                 for _ in range(rng.randint(1, 2))]
        return parts[0] if len(parts) == 1 else seq(*parts)

    def choice():
        branches = [quiet(), leaf(loud)]
        rng.shuffle(branches)
        return xor(*branches)

    def branch():
        kind = rng.choice(("choice", "quiet", "loud", "loud choice"))
        if kind == "loud choice":
            return seq(leaf(loud), choice())
        return {"choice": choice, "quiet": quiet,
                "loud": lambda: leaf(loud)}[kind]()

    parts = [choice() if rng.random() < 0.5 else and_(branch(), branch())
             for _ in range(rng.randint(1, 3))]
    atoms = rng.sample("abd", 3)
    kind = rng.choice(("achievement", "maintenance"))
    o = lit_rule(kind, rng.choice(("", "!")) + atoms[0], atoms[1],
                 rng.choice(("", "!")) + atoms[2])
    return validate(seq(leaf(("a", "b")), *parts), name="quiet"), o


class TestQuietSkip:
    """The fold passes over quiet tasks, and only an and-block is rebuilt
    without them before its search."""

    def test_models_without_and_blocks_are_not_rebuilt(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no and-block to search")

        monkeypatch.setattr(fastpath, "_loud", refuse)
        monkeypatch.setattr(fastpath, "_and_reach", refuse)
        o = lit_rule("achievement", "b", "a", "d")
        m = validate(seq(task("x", "a"), xor(task("q", "c"), task("k", "b")),
                         xor(seq(task("r"), task("s", "-c")),
                             task("y", "d"))), name="choices")
        rs = RuleSet((o,))
        got = outcomes(m, o)
        assert (True in got) == run_check(m, rs, "partial").verdict
        assert (False not in got) == run_check(m, rs, "full").verdict
        TestInstanceAnalysis.assert_agrees_with_trace_enumeration(m, o)
        with pytest.raises(AssertionError, match="no and-block"):
            outcomes(validate(seq(
                task("x", "a"), and_(task("y", "b"), task("z", "d")))), o)

    @pytest.mark.parametrize("first_seed", range(0, 300, 75))
    def test_quiet_branches_agree_with_the_reference(self, first_seed):
        for seed in range(first_seed, first_seed + 75):
            rng = random.Random(seed)
            m, o = quiet_branch_instance(rng)
            while count_executions(m.root) > 400:
                m, o = quiet_branch_instance(rng)
            rs = RuleSet((o,))
            got = outcomes(m, o)
            assert (True in got) \
                == reference_report(m, rs, "partial", False)[0]
            assert (False not in got) \
                == reference_report(m, rs, "full", False)[0]
            assert [t.id for t in trigger_transitions(m, o)] \
                == trigger_reading(m, o)
            TestInstanceAnalysis.assert_agrees_with_trace_enumeration(m, o)
