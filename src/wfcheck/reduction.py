"""Turn tautology checking into a full-compliance question.

For a formula over atoms a1..an, build a model that runs an init task
asserting every atom positively, then one choice block per atom that either
confirms the atom or retracts it.  Each run pins every atom both ways
exactly once, so the final states are precisely the 2^n total assignments.
A single global maintenance rule with the formula as requirement is then
fully complied with iff the formula holds under every assignment.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .engine import run_check
from .formula import (Formula, Interpretation, State, atoms, format_formula,
                      tautology_truth_table)
from .net import enumerate_traces
from .obligations import Kind, Obligation, RuleSet
from .process import Model, seq, task, validate, xor


class NoAtoms(ValueError):
    """The formula mentions no atom, so there is nothing to enumerate."""


@dataclass(frozen=True)
class ReductionInstance:
    formula: Formula
    model: Model
    rules: RuleSet


@dataclass(frozen=True)
class ReductionCheck:
    """Diagnostics for the four construction and agreement checks."""

    formula: str
    atom_count: int
    trace_count: int
    final_states_total: bool
    final_states_bijective: bool
    intermediate_states_total: bool
    verdict_agreement: bool
    tautology: bool
    full_compliance: bool

    @property
    def passed(self) -> bool:
        return (self.final_states_total and self.final_states_bijective
                and self.intermediate_states_total and self.verdict_agreement)


def build_interpretation_model(f: Formula,
                               atom_order: tuple[str, ...] | None = None
                               ) -> ReductionInstance:
    """The assignment-enumerating model and its one global rule."""
    names = sorted(atoms(f))
    if not names:
        raise NoAtoms(f"no atoms in {format_formula(f)}")
    if atom_order is not None:
        if sorted(atom_order) != names:
            raise ValueError("atom_order must permute the formula's atoms")
        names = list(atom_order)
    init = task("init", *names)
    choices = [xor(task(f"{a}_pos", a), task(f"{a}_neg", f"-{a}"))
               for a in names]
    model = validate(seq(init, *choices), name="interpretations")
    rules = RuleSet((Obligation(Kind.MAINTENANCE, f),))
    return ReductionInstance(f, model, rules)


def _is_total(state: State, names: list[str]) -> bool:
    return len(state) == len(names) and state.atoms() == frozenset(names)


def _as_interpretation(state: State) -> Interpretation:
    return Interpretation.of(
        {lit.atom: lit.positive for lit in state})


def verify_reduction_steps(f: Formula) -> ReductionCheck:
    """Run the construction checks and compare both tautology routes."""
    inst = build_interpretation_model(f)
    names = sorted(atoms(f))
    traces = list(enumerate_traces(inst.model))

    finals = [tr.states()[-1] for tr in traces]
    step_final_total = all(_is_total(s, names) for s in finals)

    reached = {_as_interpretation(s) for s in finals}
    wanted = {Interpretation.of(dict(zip(names, values)))
              for values in product((False, True), repeat=len(names))}
    step_bijective = (len(finals) == len(reached)
                      and reached == wanted)

    # index 0 is start with an empty state; init onwards must be total
    step_intermediate = all(
        _is_total(s, names)
        for tr in traces for s in tr.states()[1:])

    taut = tautology_truth_table(f)
    full = run_check(inst.model, inst.rules, "full").verdict
    return ReductionCheck(
        formula=format_formula(f),
        atom_count=len(names),
        trace_count=len(traces),
        final_states_total=step_final_total,
        final_states_bijective=step_bijective,
        intermediate_states_total=step_intermediate,
        verdict_agreement=(full == taut),
        tautology=taut,
        full_compliance=full)
