#!/usr/bin/env python3
"""Probe whether per-trigger screening predicts partial compliance.

A tempting shortcut for the single-local-literal variant: call a model
partially compliant as soon as every trigger task, taken on its own,
can be satisfied in some run.  This script shows the shortcut is not
sound.  The first hand-built model interlocks its choices so that both
triggers are individually satisfiable while no single run satisfies
them both; the exact reach-set check (and the brute scan) correctly
return false where screening says true.  The second model shows the
natural repair — prune the runs through hopeless triggers, then screen
the survivor — is not stable either: pruning turns a previously
satisfiable trigger hopeless, so one round of screen-and-prune still
decides nothing.

Finally a sweep over seeded random instances measures how often the
screening gap shows up in the wild, printing any instance where
screening and the exact verdict disagree.

Usage: python scripts/trigger_screening_probe.py [--samples 2000] [--seed 0]
"""
import argparse

from wfcheck.fastpath import (erase, label_triggers, outcomes,
                              require_single_local_literal)
from wfcheck.formula import parse_formula
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.obligations import Kind, Obligation, RuleSet, VariantTag
from wfcheck.process import seq, task, validate, xor

RULE = Obligation(Kind.ACHIEVEMENT, parse_formula("b"),
                  trigger=parse_formula("a"), deadline=parse_formula("d"))


def interlocking_choice():
    """Two triggers whose only satisfying branches exclude each other."""
    body = seq(
        task("x1", "a"),
        xor(seq(task("p", "b"), task("s", "-b", "d")),
            seq(task("u", "d"), task("v", "-d"))),
        task("x2", "a"),
        task("w", "b"),
    )
    return validate(body, name="interlocking_choice")


def chained_triggers():
    """A second trigger hiding inside the branch the first one needs."""
    body = seq(
        task("x1", "a"),
        xor(seq(task("p", "b"), task("x2", "a", "-b"), task("q", "d")),
            task("u", "d")),
    )
    return validate(body, name="chained_triggers")


def screening_says_compliant(model, rule) -> bool:
    return all(t.satisfiable for t in label_triggers(model, rule))


def show(model, rule) -> None:
    labels = label_triggers(model, rule)
    verdict = True in outcomes(model, rule)
    print(f"\n{model.name}:")
    for t in labels:
        print(f"  trigger {t.task.id}: "
              f"{'satisfiable' if t.satisfiable else 'hopeless'}")
    print(f"  screening verdict: {screening_says_compliant(model, rule)}")
    print(f"  exact partial compliance: {verdict}")


def show_pruning_instability(model, rule) -> None:
    show(model, rule)
    hopeless = [t.task for t in label_triggers(model, rule)
                if not t.satisfiable]
    survivor = erase(model, hopeless)
    if survivor is None:
        print("  pruning hopeless triggers removes every run")
        return
    print(f"  after pruning {', '.join(t.id for t in hopeless)} the "
          f"survivor keeps {len(survivor.tasks()) - 2} tasks:")
    for t in label_triggers(survivor, rule):
        print(f"    trigger {t.task.id}: "
              f"{'satisfiable' if t.satisfiable else 'hopeless'}")


def sweep(samples: int, first_seed: int) -> None:
    variant = VariantTag(single=True, global_scope=False, literal_only=True)
    gaps = 0
    for seed in range(first_seed, first_seed + samples):
        cfg = GeneratorConfig(seed=seed, max_tasks=10, atom_pool=4,
                              variant=variant)
        model, rules = generate_instance(cfg)
        rule = require_single_local_literal(rules)
        screened = screening_says_compliant(model, rule)
        exact = True in outcomes(model, rule, and_cap=10 ** 6)
        if screened and not exact:
            gaps += 1
            print(f"  seed {seed}: screening true, exact verdict false "
                  f"({len(model.tasks()) - 2} tasks)")
    print(f"\nsweep: {samples} seeded instances, "
          f"{gaps} screening/exact gaps found")
    if gaps == 0:
        print("(random instances rarely interlock; "
              "the hand-built models above show the gap is real)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("hand-built counterexample "
          "(every trigger satisfiable, yet no compliant run):")
    show(interlocking_choice(), RULE)
    print("\nhand-built pruning instability "
          "(hopelessness moves onto the other trigger):")
    show_pruning_instability(chained_triggers(), RULE)
    print()
    sweep(args.samples, args.seed)


if __name__ == "__main__":
    main()
