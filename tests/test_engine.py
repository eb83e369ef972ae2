"""Full/partial/non classification against the enumerated trace space."""
import itertools

import pytest
from conftest import build_example_model
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import any_obligations, linear_traces, literals, \
    make_trace, models, rule_sets
from test_obligations import CountingCache

from wfcheck import engine, fastpath
from wfcheck.engine import run_check, trace_complies
from wfcheck.fastpath import WrongVariant
from wfcheck.formula import Literal, State, eval_formula, parse_formula
from wfcheck.net import DEFAULT_CAP, ExecutionCapExceeded, derive_trace, \
    enumerate_executions, enumerate_traces
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.obligations import (Kind, Obligation, RuleSet, SatCache,
                                 VariantTag, eval_obligation, monitor,
                                 monitor_complies)
from wfcheck.process import seq, task, validate, xor
from wfcheck.reduction import build_interpretation_model

ROW1 = make_trace(("t1", "a"), ("t3", "c", "d"), ("t4", "-a"))


def rules(*specs):
    obs = []
    for kind, rho, *rest in specs:
        tau, delta = rest if rest else (None, None)
        obs.append(Obligation(
            Kind(kind), parse_formula(rho),
            None if tau is None else parse_formula(tau),
            None if delta is None else parse_formula(delta)))
    return RuleSet(tuple(obs))


class TestTraceComplies:
    def test_true_requirement_always_complies(self):
        assert trace_complies(ROW1, rules(("maintenance", "true")))

    def test_global_maintenance_fails_on_empty_start(self):
        assert not trace_complies(ROW1, rules(("maintenance", "c")))

    def test_conjunction_over_rules(self):
        rs = rules(("achievement", "d"), ("maintenance", "c"))
        assert not trace_complies(ROW1, rs)


class TestCheckFull:
    def test_excluded_middle_reduction_fully_complies(self):
        inst = build_interpretation_model(parse_formula("a | !a"))
        report = run_check(inst.model, inst.rules, "full")
        assert report.verdict
        assert report.witness is None
        assert report.traces_examined == 2

    def test_contingent_reduction_fails_with_witness(self):
        inst = build_interpretation_model(parse_formula("a"))
        report = run_check(inst.model, inst.rules, "full")
        assert not report.verdict
        assert Literal("a", False) in report.witness.states[-1]

    def test_unannotated_model_meets_true_requirement(self):
        m = validate(seq(task("t1"), task("t2")), name="plain")
        assert run_check(m, rules(("maintenance", "true")), "full").verdict

    def test_violation_short_circuits(self, example_model):
        report = run_check(example_model,
                           rules(("achievement", "b", "a", "d")), "full")
        assert not report.verdict
        assert report.traces_examined == 1
        assert report.witness.execution == ("start", "t1", "t3", "t4", "end")

    def test_cap_is_enforced(self, example_model):
        with pytest.raises(ExecutionCapExceeded):
            run_check(example_model, rules(("maintenance", "true")), "full",
                      cap=3)


class TestCheckPartial:
    def test_example_model_avoids_the_trigger(self, example_model):
        report = run_check(example_model,
                           rules(("achievement", "b", "a", "d")), "partial")
        assert report.verdict
        assert report.witness.execution == ("start", "t2", "t3", "t4", "end")
        assert report.witness.states[-1] == State.of("-a", "b", "c", "d")
        assert report.traces_examined == 2

    def test_single_atom_reduction_blocked_by_start_state(self):
        # the empty state right after start already falsifies a global
        # maintenance requirement, so not even the all-true branch complies
        inst = build_interpretation_model(parse_formula("a"))
        assert not run_check(inst.model, inst.rules, "partial").verdict

    def test_false_requirement_never_complies(self, example_model):
        report = run_check(example_model, rules(("maintenance", "false")),
                           "partial")
        assert not report.verdict
        assert report.witness is None
        assert report.traces_examined == 4


class TestCheckNon:
    def test_negates_partial(self, example_model):
        rs = rules(("achievement", "b"))
        partial = run_check(example_model, rs, "partial")
        non = run_check(example_model, rs, "non")
        assert non.verdict == (not partial.verdict)
        assert non.witness == partial.witness

    def test_false_requirement_is_non_compliant(self, example_model):
        assert run_check(example_model, rules(("maintenance", "false")),
                         "non").verdict

    def test_example_model_contains_b_traces(self, example_model):
        assert not run_check(example_model, rules(("achievement", "b")),
                             "non").verdict


@settings(max_examples=30)
@given(models(max_tasks=6), rule_sets())
def test_compliance_relations(m, rs):
    full = run_check(m, rs, "full")
    partial = run_check(m, rs, "partial")
    non = run_check(m, rs, "non")
    if full.verdict:
        assert partial.verdict
    assert non.verdict == (not partial.verdict)


@settings(max_examples=30)
@given(models(max_tasks=6), rule_sets())
def test_witnesses_replay_and_exhibit_the_property(m, rs):
    traces = {}
    for ex in enumerate_executions(m):
        tr = derive_trace(m, ex)
        traces[tr.task_ids()] = tr
    for report, expected in ((run_check(m, rs, "full"), False),
                             (run_check(m, rs, "partial"), True)):
        if report.witness is None:
            continue
        tr = traces[report.witness.execution]
        assert tr.states() == report.witness.states
        assert trace_complies(tr, rs) == expected


def reference_report(m, rs, mode, strict):
    """The scan from scratch: list runs, fold each one, one fresh cache."""
    want = mode != "full"
    cache = SatCache()
    examined, found = 0, None
    for execution in enumerate_executions(m):
        examined += 1
        tr = derive_trace(m, execution)
        if trace_complies(tr, rs, strict, cache) == want:
            found = tr
            break
    verdict = (found is None) if mode != "partial" else (found is not None)
    witness = None if found is None else (found.task_ids(), found.states())
    return verdict, witness, examined


VARIANT_TAGS = [VariantTag(*bits)
                for bits in itertools.product((True, False), repeat=3)]


def assert_matches_reference(m, rs, mode, strict):
    report = run_check(m, rs, mode, strict_deadline=strict)
    witness = None if report.witness is None else (
        report.witness.execution, report.witness.states)
    assert (report.verdict, witness, report.traces_examined) \
        == reference_report(m, rs, mode, strict)


@pytest.mark.parametrize("tag", VARIANT_TAGS, ids=str)
def test_brute_reports_equal_the_reference_scan(tag):
    for seed in range(20):
        m, rs = generate_instance(GeneratorConfig(seed=seed, max_tasks=12,
                                                  variant=tag))
        for mode, strict in itertools.product(("full", "partial", "non"),
                                              (False, True)):
            assert_matches_reference(m, rs, mode, strict)


@settings(max_examples=30)
@given(models(max_tasks=7), rule_sets(), st.sampled_from(("full", "partial",
                                                         "non")),
       st.booleans())
def test_brute_reports_equal_the_reference_scan_on_random_models(
        m, rs, mode, strict):
    assert_matches_reference(m, rs, mode, strict)


def test_fast_verdicts_equal_the_reference_scan():
    # criterion 6's instances; the fast engine and the brute engine step
    # one monitor, so this compares the fast engine with the run-by-run
    # trace evaluation instead
    for seed in range(300):
        m, rs = generate_instance(GeneratorConfig(
            seed=seed, max_tasks=10, atom_pool=6,
            variant=VariantTag(True, False, True)))
        for mode in ("full", "partial", "non"):
            assert run_check(m, rs, mode, engine="fast").verdict \
                == reference_report(m, rs, mode, False)[0]


def trace_trigger_ids(tr, o, holds):
    return frozenset(() if o.is_global else (
        t.id for t in tr.tasks() if holds(o.trigger, t.annotation)))


def monitor_verdict(tr, o, strict):
    """Step o's monitor along a trace, on the states as the brute engine
    does, and read it at the end."""
    holds = SatCache().holds
    mark, step = monitor(o, trace_trigger_ids(tr, o, holds), strict, holds)
    for task_, state in tr.steps:
        mark = step(mark, task_, state)
    return monitor_complies(mark, o.kind)


def fast_monitor_verdict(tr, o):
    """Step o's monitor along a trace on the fast engine's carry, the
    state's asserted bits projected onto o's atoms, and read it at the end."""
    m = validate(seq(*tr.tasks()[1:-1]))
    (carry,) = fastpath._endings(m, o, trace_trigger_ids(tr, o, eval_formula),
                                 DEFAULT_CAP)
    return monitor_complies(carry[1], o.kind)


LITERAL_FIELDS = literals().map(lambda lit: lit.to_formula())


def prefix_edges(m):
    """Edges of the prefix tree of m's runs: what a walk without skipping
    steps along."""
    return len({tr.task_ids()[:k] for tr in enumerate_traces(m)
                for k in range(1, len(tr.steps) + 1)})


def counting_caches(monkeypatch):
    """Make the engine count its holds calls; returns its caches."""
    caches = []

    def make():
        caches.append(CountingCache())
        return caches[-1]

    monkeypatch.setattr(engine, "SatCache", make)
    return caches


def xor_chain(n):
    """x opens an interval of <b, a, d>, n choices never assert b, and z's
    deadline violates it: every run is violated at its second last step."""
    noise = ("c", "-c", "e", "-e")
    choices = [xor(task(f"p{k}", noise[k % 4]), task(f"q{k}", noise[k % 3]))
               for k in range(n)]
    return validate(seq(task("x", "a"), *choices, task("z", "d")))


STRICT_LATE = rules(("achievement", "b", "a", "d")).obligations[0]


class TestMonitors:
    @settings(max_examples=150)
    @given(linear_traces(max_len=12), any_obligations(), st.booleans(),
           st.builds(Obligation, st.sampled_from(Kind), LITERAL_FIELDS,
                     LITERAL_FIELDS, LITERAL_FIELDS))
    # d holds before the trigger a: b arrives in time by default, but the
    # strict reading has seen the deadline already
    @example(make_trace(("t1", "d"), ("t2", "-d", "a"), ("t3", "b")),
             STRICT_LATE, True, STRICT_LATE)
    def test_monitor_verdict_equals_the_reference(self, tr, o, strict,
                                                  literal_rule):
        # global and local rules of both kinds; strict only changes local
        # achievement rules
        assert monitor_verdict(tr, o, strict) == eval_obligation(
            tr, o, strict).satisfied
        # a local literal rule of either kind, on the state projected onto
        # its two literals
        assert fast_monitor_verdict(tr, literal_rule) == eval_obligation(
            tr, literal_rule).satisfied

    def test_holds_calls_grow_with_edges_not_with_run_length(
            self, monkeypatch):
        m = xor_chain(12)
        caches = counting_caches(monkeypatch)
        report = run_check(m, rules(("achievement", "b", "a", "d")), "partial")
        assert not report.verdict and report.traces_examined == 2 ** 12
        (cache,) = caches
        # a requirement and a deadline per edge, triggers once per task;
        # judging every run from scratch makes about 11 calls per edge
        assert cache.calls <= 3 * prefix_edges(m)

    def test_a_prefix_that_cannot_comply_is_skipped_and_counted(
            self, monkeypatch):
        n = 10
        names = "abcfghjkmn"
        text = f"({' | '.join(names)}) & !(a & !a)"
        inst = build_interpretation_model(parse_formula(text))
        caches = counting_caches(monkeypatch)
        report = run_check(inst.model, inst.rules, "non")
        # the empty state after start already fails the requirement, so
        # no run complies and none is listed
        assert (report.verdict, report.witness, report.traces_examined) \
            == (True, None, 2 ** n)
        assert reference_report(inst.model, inst.rules, "non", False) \
            == (True, None, 2 ** n)
        (cache,) = caches
        assert cache.calls <= n


class TestRunCheck:
    def test_brute_dispatch(self, example_model):
        rs = rules(("achievement", "b", "a", "d"))
        assert run_check(example_model, rs, "partial").verdict
        assert not run_check(example_model, rs, "full").verdict

    def test_fast_dispatch_matches_brute(self, example_model):
        rs = rules(("achievement", "b", "a", "d"))
        for mode in ("full", "partial", "non"):
            fast = run_check(example_model, rs, mode, engine="fast")
            brute = run_check(example_model, rs, mode, engine="brute")
            assert fast.verdict == brute.verdict
            assert fast.engine == "fast"
            assert fast.witness is None and fast.traces_examined == 0

    def test_fast_refuses_other_variants(self, example_model):
        with pytest.raises(WrongVariant) as err:
            run_check(example_model, rules(("maintenance", "a | !a")),
                      "full", engine="fast")
        assert err.value.variant == "1G+"

    def test_fast_refuses_the_strict_deadline_reading(self):
        # the strict reading makes this run violate, the default one not
        m = validate(seq(task("d1", "d"), task("d2", "-d"), task("x", "a"),
                         task("w", "b"), task("z", "d")))
        rs = rules(("achievement", "b", "a", "d"))
        assert not run_check(m, rs, "full", strict_deadline=True).verdict
        assert run_check(m, rs, "full", engine="fast").verdict
        with pytest.raises(ValueError, match="needs the brute engine"):
            run_check(m, rs, "full", engine="fast", strict_deadline=True)

    def test_unknown_mode_and_engine(self, example_model):
        rs = rules(("maintenance", "a"))
        with pytest.raises(ValueError):
            run_check(example_model, rs, "some")
        with pytest.raises(ValueError):
            run_check(example_model, rs, "full", engine="magic")
