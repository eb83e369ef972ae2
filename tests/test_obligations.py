"""Interval extraction and rule evaluation on traces."""
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wfcheck.formula import (Atom, Not, Or, State, eval_formula,
                             parse_formula)
from wfcheck.net import enumerate_traces
from wfcheck.obligations import (InForceInterval, Kind, NotLocal, NotNested,
                                 Obligation, RuleSet, SatCache,
                                 classify_variant, eval_obligation,
                                 eval_restricted, in_force_intervals,
                                 overlap_reduction, trigger_indices)
from wfcheck.process import seq, task, validate

from strategies import (linear_traces, literals, make_trace, rule_fields,
                        states)

ROW1 = make_trace(("t1", "a"), ("t3", "c", "d"), ("t4", "-a"))
ROW2 = make_trace(("t2", "b", "c"), ("t3", "c", "d"), ("t4", "-a"))


def ach(rho, trigger=None, deadline=None):
    return Obligation(Kind.ACHIEVEMENT, parse_formula(rho),
                      None if trigger is None else parse_formula(trigger),
                      None if deadline is None else parse_formula(deadline))


def mnt(rho, trigger=None, deadline=None):
    return Obligation(Kind.MAINTENANCE, parse_formula(rho),
                      None if trigger is None else parse_formula(trigger),
                      None if deadline is None else parse_formula(deadline))


def local_obligations(kinds=(Kind.ACHIEVEMENT, Kind.MAINTENANCE)):
    def build(kind, rho, tau, delta):
        return Obligation(kind, rho.to_formula(), tau.to_formula(),
                          delta.to_formula())
    return st.builds(build, st.sampled_from(kinds), literals(), literals(),
                     literals())


class TestObligationShape:
    def test_trigger_needs_deadline(self):
        with pytest.raises(ValueError):
            Obligation(Kind.ACHIEVEMENT, Atom("a"), trigger=Atom("b"))

    def test_global_has_neither(self):
        assert ach("a").is_global
        assert not ach("a", "b", "c").is_global

    def test_rule_set_non_empty(self):
        with pytest.raises(ValueError):
            RuleSet(())


class TestIntervals:
    def test_global_covers_whole_trace(self):
        (iv,) = in_force_intervals(ROW1, mnt("c"))
        assert (iv.start_index, iv.end_index) == (0, 4)

    def test_triggers_anchor_at_annotations(self):
        # the trigger atom persists in later states, but only the step
        # that annotates it opens an interval
        assert trigger_indices(ROW1, ach("b", "a", "d")) == [1]

    def test_row1_achievement_interval(self):
        assert in_force_intervals(ROW1, ach("b", "a", "d")) == [
            InForceInterval(1, 2, False)]

    def test_row2_has_no_interval(self):
        assert in_force_intervals(ROW2, ach("b", "a", "d")) == []

    def test_global_trigger_indices_rejected(self):
        with pytest.raises(NotLocal):
            trigger_indices(ROW1, mnt("c"))

    @given(linear_traces(), local_obligations(kinds=(Kind.MAINTENANCE,)))
    def test_maintenance_terminates_within_trace(self, tr, o):
        last = len(tr.steps) - 1
        for iv in in_force_intervals(tr, o):
            assert iv.start_index <= iv.end_index <= last

    @given(linear_traces(), local_obligations())
    def test_intervals_start_at_trigger_indices(self, tr, o):
        starts = [iv.start_index for iv in in_force_intervals(tr, o)]
        assert starts == trigger_indices(tr, o)


def reference_intervals(tr, o):
    """Intervals straight from the definition: each trigger scans to the end."""
    states = tr.states()
    last = len(states) - 1
    out = []
    for i in trigger_indices(tr, o):
        delta = next((j for j in range(i, last + 1)
                      if eval_formula(o.deadline, states[j])), last)
        if o.kind is Kind.MAINTENANCE:
            ok = all(eval_formula(o.requirement, states[k])
                     for k in range(i, delta + 1))
            out.append(InForceInterval(i, delta, ok))
            continue
        rho = next((j for j in range(i, last + 1)
                    if eval_formula(o.requirement, states[j])), None)
        out.append(InForceInterval(i, rho, True)
                   if rho is not None and rho <= delta
                   else InForceInterval(i, delta, False))
    return out


def reference_strict(tr, o):
    """Strict achievement: some requirement state by the first deadline."""
    states = tr.states()
    first = next((j for j, s in enumerate(states)
                  if eval_formula(o.deadline, s)), None)
    for i in trigger_indices(tr, o):
        rho = next((j for j in range(i, len(states))
                    if eval_formula(o.requirement, states[j])), None)
        if rho is None or (first is not None and rho > first):
            return False
    return True


class CountingCache(SatCache):
    def __init__(self):
        super().__init__()
        object.__setattr__(self, "calls", 0)

    def holds(self, f, s):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().holds(f, s)


compound_local_obligations = st.builds(
    Obligation, st.sampled_from(tuple(Kind)), rule_fields(), rule_fields(),
    rule_fields())


class TestLinearIntervals:
    @given(linear_traces(max_len=14),
           st.one_of(local_obligations(), compound_local_obligations))
    def test_intervals_match_the_quadratic_reference(self, tr, o):
        assert in_force_intervals(tr, o) == reference_intervals(tr, o)

    @given(linear_traces(max_len=14),
           st.one_of(local_obligations((Kind.ACHIEVEMENT,)),
                     compound_local_obligations))
    def test_strict_deadline_matches_the_quadratic_reference(self, tr, o):
        expected = (reference_strict(tr, o) if o.kind is Kind.ACHIEVEMENT
                    else all(iv.satisfied
                             for iv in reference_intervals(tr, o)))
        assert eval_obligation(tr, o, strict_deadline=True).satisfied \
            == expected

    @pytest.mark.parametrize("rule, strict", [
        (ach("b", "a", "d"), False),
        (mnt("b", "a", "d"), False),
        (mnt("!b", "a", "d"), False),
        (ach("b", "a", "d"), True),
    ])
    def test_holds_calls_grow_linearly_with_run_length(self, rule, strict):
        n = 2000
        m = validate(seq(*(task(f"t{k}", "a" if k % 2 else "-a")
                           for k in range(n))))
        (tr,) = enumerate_traces(m)
        cache = CountingCache()
        eval_obligation(tr, rule, strict, cache)
        assert cache.calls <= 6 * len(tr.steps)


class TestSatCache:
    @given(st.lists(states(), min_size=1, max_size=6))
    def test_equal_formulas_that_are_distinct_objects_agree(self, ss):
        f1, f2 = parse_formula("a & !b | c"), parse_formula("a & !b | c")
        assert f1 == f2 and f1 is not f2
        cache = SatCache()
        for s in ss:
            assert cache.holds(f1, s) == cache.holds(f2, s) \
                == eval_formula(f1, s)

    @given(states())
    def test_states_that_differ_only_in_negations_share_an_entry(self, s):
        asserted = State(lit for lit in s if lit.positive)
        assume(asserted != s)
        f = parse_formula("a & !b | c -> d | !e")
        cache = SatCache()
        for state in (s, asserted):
            assert cache.holds(f, state) == eval_formula(f, state)
        assert len(cache.memo[id(f)][1]) == 1

    def test_short_lived_formulas_never_get_a_stale_answer(self):
        cache = SatCache()
        s = State.of("a")
        for k in range(5000):
            # each formula is dropped right after its lookup, so without the
            # cache holding it, the next one could be built at its address
            expected = k % 2 == 0
            f = Atom("a" if expected else "b")
            assert cache.holds(f, s) is expected
            del f


class TestEvalObligation:
    def test_global_maintenance_violated_on_row1(self):
        res = eval_obligation(ROW1, mnt("c"))
        assert not res.satisfied
        assert res.violating == InForceInterval(0, 4, False)

    def test_global_achievement_satisfied_on_row2(self):
        assert eval_obligation(ROW2, ach("b")).satisfied

    def test_vacuous_when_trigger_never_annotated(self):
        assert eval_obligation(ROW1, ach("b", "e", "d")).satisfied
        assert eval_obligation(ROW1, mnt("b", "e", "d")).satisfied

    def test_achievement_violated_with_interval(self):
        res = eval_obligation(ROW1, ach("b", "a", "d"))
        assert not res.satisfied
        assert res.violating == InForceInterval(1, 2, False)

    def test_achievement_satisfied_before_deadline(self):
        assert eval_obligation(ROW1, ach("d", "a", "b")).satisfied

    def test_maintenance_requires_rho_up_to_deadline(self):
        assert not eval_obligation(ROW1, mnt("c", "a", "d")).satisfied
        assert eval_obligation(ROW1, mnt("a", "a", "d")).satisfied

    def test_strict_mode_counts_deadlines_before_trigger(self):
        tr = make_trace(("t1", "d"), ("t2", "-d", "a"), ("t3", "b"))
        o = ach("b", "a", "d")
        assert eval_obligation(tr, o).satisfied
        assert not eval_obligation(tr, o, strict_deadline=True).satisfied

    def test_strict_mode_still_satisfied_without_early_deadline(self):
        o = ach("d", "a", "b")
        assert eval_obligation(ROW1, o, strict_deadline=True).satisfied

    @given(linear_traces(), local_obligations())
    def test_violating_interval_is_reported(self, tr, o):
        res = eval_obligation(tr, o)
        if res.satisfied:
            assert res.violating is None
            assert all(iv.satisfied for iv in in_force_intervals(tr, o))
        else:
            assert res.violating in in_force_intervals(tr, o)
            assert not res.violating.satisfied

    @given(linear_traces(), local_obligations())
    def test_double_negation_changes_nothing(self, tr, o):
        doubled = Obligation(o.kind, Not(Not(o.requirement)),
                             Not(Not(o.trigger)), Not(Not(o.deadline)))
        assert (eval_obligation(tr, o).satisfied
                == eval_obligation(tr, doubled).satisfied)


class TestRestricted:
    # x1's interval finds b before d; x2 retracts b and never sees it again
    TRACE = make_trace(("x1", "a"), ("p", "b"), ("q", "d"), ("x2", "a", "-b"))
    RULE = ach("b", "a", "d")

    def test_empty_set_is_trivially_compliant(self):
        assert eval_restricted(self.TRACE, self.RULE, set())

    def test_only_satisfied_trigger_allowed(self):
        assert eval_restricted(self.TRACE, self.RULE, {"x1"})

    def test_violated_trigger_allowed(self):
        assert not eval_restricted(self.TRACE, self.RULE, {"x2"})

    def test_non_trigger_task_rejected(self):
        with pytest.raises(ValueError):
            eval_restricted(self.TRACE, self.RULE, {"p"})

    def test_global_rejected(self):
        with pytest.raises(NotLocal):
            eval_restricted(self.TRACE, mnt("c"), set())

    @given(linear_traces(), local_obligations())
    def test_full_trigger_set_equals_plain_evaluation(self, tr, o):
        allowed = {tr.steps[i][0].id for i in trigger_indices(tr, o)}
        assert (eval_restricted(tr, o, allowed)
                == eval_obligation(tr, o).satisfied)


class TestOverlap:
    def test_achievement_inner_decides(self):
        outer = InForceInterval(1, 6, True)
        inner = InForceInterval(2, 5, True)
        assert overlap_reduction(outer, inner, Kind.ACHIEVEMENT) is inner

    def test_maintenance_outer_decides(self):
        outer = InForceInterval(1, 6, True)
        inner = InForceInterval(2, 5, True)
        assert overlap_reduction(outer, inner, Kind.MAINTENANCE) is outer

    def test_disjoint_pair_rejected(self):
        with pytest.raises(NotNested):
            overlap_reduction(InForceInterval(1, 3, True),
                              InForceInterval(2, 5, True), Kind.ACHIEVEMENT)

    def test_identical_pair_rejected(self):
        iv = InForceInterval(1, 3, True)
        with pytest.raises(NotNested):
            overlap_reduction(iv, iv, Kind.MAINTENANCE)

    @given(linear_traces(max_len=8), local_obligations())
    def test_deciding_interval_implies_the_other(self, tr, o):
        intervals = in_force_intervals(tr, o)
        for i1 in intervals:
            for i2 in intervals:
                if i1 == i2 or not (i1.start_index <= i2.start_index
                                    and i2.end_index <= i1.end_index):
                    continue
                decider = overlap_reduction(i1, i2, o.kind)
                other = i1 if decider is i2 else i2
                if decider.satisfied:
                    assert other.satisfied


class TestClassify:
    def test_formula_global_single(self):
        rs = RuleSet((mnt("a | !a"),))
        assert str(classify_variant(rs)) == "1G+"

    def test_two_local_literal_rules(self):
        rs = RuleSet((ach("a", "b", "c"), mnt("!d", "b", "c")))
        assert str(classify_variant(rs)) == "nL-"

    def test_single_local_literal(self):
        rs = RuleSet((ach("a", "b", "c"),))
        assert str(classify_variant(rs)) == "1L-"

    def test_negative_literal_fields_still_minus(self):
        rs = RuleSet((ach("!a", "!b", "!c"),))
        assert str(classify_variant(rs)) == "1L-"

    def test_compound_trigger_is_plus(self):
        o = Obligation(Kind.ACHIEVEMENT, Atom("a"),
                       Or(Atom("b"), Atom("c")), Atom("d"))
        assert str(classify_variant(RuleSet((o,)))) == "1L+"
