"""The assignment-enumerating construction and its agreement checks."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import formulas

from wfcheck.engine import run_check
from wfcheck.formula import State, atoms, parse_formula, tautology_truth_table
from wfcheck.obligations import classify_variant
from wfcheck.process import count_executions
from wfcheck.reduction import (NoAtoms, build_interpretation_model,
                               verify_reduction_steps)


def small_formulas(pool=("a", "b", "c")):
    return formulas(pool, max_leaves=6, allow_constants=False)


class TestConstruction:
    def test_single_atom_shape(self):
        inst = build_interpretation_model(parse_formula("a | !a"))
        assert [t.id for t in inst.model.tasks()] == [
            "start", "init", "a_pos", "a_neg", "end"]
        assert count_executions(inst.model.root) == 2

    def test_two_atom_final_states(self):
        inst = build_interpretation_model(parse_formula("a & b"))
        assert count_executions(inst.model.root) == 4
        from wfcheck.net import derive_trace, enumerate_executions
        finals = {derive_trace(inst.model, e).states()[-1]
                  for e in enumerate_executions(inst.model)}
        assert finals == {State.of("a", "b"), State.of("a", "-b"),
                          State.of("-a", "b"), State.of("-a", "-b")}

    def test_rule_set_is_single_global_maintenance(self):
        inst = build_interpretation_model(parse_formula("a -> b"))
        tag = classify_variant(inst.rules)
        assert str(tag) == "1G+"

    def test_literal_formula_tag_stays_global(self):
        # a bare literal keeps the construction sound; only the
        # expressivity letter of the tag differs
        tag = classify_variant(build_interpretation_model(
            parse_formula("a")).rules)
        assert (tag.single, tag.global_scope) == (True, True)
        assert str(tag) == "1G-"

    def test_constants_have_no_atoms(self):
        with pytest.raises(NoAtoms):
            build_interpretation_model(parse_formula("true"))
        with pytest.raises(NoAtoms):
            build_interpretation_model(parse_formula("true & false"))

    def test_atom_order_must_be_a_permutation(self):
        f = parse_formula("a & b")
        with pytest.raises(ValueError):
            build_interpretation_model(f, atom_order=("a", "c"))

    def test_atom_order_changes_layout_not_verdict(self):
        f = parse_formula("(a -> b) & c")
        default = build_interpretation_model(f)
        flipped = build_interpretation_model(f, atom_order=("c", "b", "a"))
        assert [t.id for t in flipped.model.tasks()][2:4] == ["c_pos", "c_neg"]
        assert (run_check(default.model, default.rules, "full").verdict
                == run_check(flipped.model, flipped.rules, "full").verdict)


class TestVerifySteps:
    def test_tautology_passes_everything(self):
        check = verify_reduction_steps(parse_formula("a | !a"))
        assert check.passed
        assert check.tautology and check.full_compliance
        assert check.trace_count == 2

    def test_contingent_formula_still_agrees(self):
        check = verify_reduction_steps(parse_formula("a & b"))
        assert check.passed
        assert not check.tautology and not check.full_compliance
        assert check.trace_count == 4

    def test_implication_tautology(self):
        check = verify_reduction_steps(parse_formula("a -> a"))
        assert check.passed and check.tautology
        assert check.trace_count == 2

    @settings(max_examples=40)
    @given(small_formulas())
    def test_steps_hold_for_random_formulas(self, f):
        check = verify_reduction_steps(f)
        assert check.passed
        assert check.trace_count == 2 ** len(atoms(f))
        assert check.full_compliance == tautology_truth_table(f)

    @settings(max_examples=20)
    @given(small_formulas(), st.randoms(use_true_random=False))
    def test_order_irrelevance(self, f, rng):
        names = sorted(atoms(f))
        rng.shuffle(names)
        shuffled = build_interpretation_model(f, atom_order=tuple(names))
        assert (run_check(shuffled.model, shuffled.rules, "full").verdict
                == tautology_truth_table(f))
