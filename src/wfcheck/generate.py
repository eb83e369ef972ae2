"""Seeded random model/rule-set instances for benchmarks and testing.

The same config always yields the same instance, and the rule set is
built so that its variant tag matches the requested one exactly.
"""
from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field

from .formula import And, Formula, Literal, Or, State
from .obligations import Kind, Obligation, RuleSet, VariantTag, classify_variant
from .process import AndBlock, Model, ProcessBlock, Seq, Task, Xor, validate

# Parallel blocks stay small so interleaving counts cannot explode past
# the engines' enumeration caps on instances of the advertised sizes.
_MAX_AND_TASKS = 5


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_tasks: int = 8
    max_depth: int = 3
    atom_pool: int = 4
    variant: VariantTag = field(
        default_factory=lambda: VariantTag(True, False, True))

    def __post_init__(self) -> None:
        if self.max_tasks < 1:
            raise ValueError("max_tasks must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 1 <= self.atom_pool <= 26:
            raise ValueError("atom_pool must be between 1 and 26")


def _task(rng: random.Random, atoms: list[str], ids) -> Task:
    k = rng.randint(0, min(2, len(atoms)))
    literals = [Literal(a, rng.random() < 0.5)
                for a in rng.sample(atoms, k)]
    return Task(f"t{next(ids)}", State.of(*literals))


def _split(rng: random.Random, budget: int, parts: int) -> list[int]:
    shares = [1] * parts
    for _ in range(budget - parts):
        shares[rng.randrange(parts)] += 1
    return shares


def _build(rng: random.Random, atoms: list[str], budget: int, depth: int,
           ids) -> ProcessBlock:
    if budget == 1 or depth == 1 or rng.random() < 0.35:
        return _task(rng, atoms, ids)
    kinds = ["seq", "seq", "xor", "xor"]
    if budget <= _MAX_AND_TASKS:
        kinds.append("and")
    ctor = {"seq": Seq, "xor": Xor, "and": AndBlock}[rng.choice(kinds)]
    shares = _split(rng, budget, rng.randint(2, min(3, budget)))
    return ctor(tuple(_build(rng, atoms, share, depth - 1, ids)
                      for share in shares))


def _literal_formula(rng: random.Random, atoms: list[str]) -> Formula:
    return Literal(rng.choice(atoms), rng.random() < 0.5).to_formula()


def _compound_formula(rng: random.Random, atoms: list[str]) -> Formula:
    ctor = rng.choice((And, Or))
    return ctor(_literal_formula(rng, atoms), _literal_formula(rng, atoms))


def _rule(rng: random.Random, atoms: list[str], variant: VariantTag,
          force_compound: bool) -> Obligation:
    def pick(compound: bool) -> Formula:
        if compound:
            return _compound_formula(rng, atoms)
        return _literal_formula(rng, atoms)

    slots = 1 if variant.global_scope else 3
    compound_slots = [False] * slots
    if not variant.literal_only:
        compound_slots = [rng.random() < 0.5 for _ in range(slots)]
        if force_compound and not any(compound_slots):
            compound_slots[rng.randrange(slots)] = True
    fields = [pick(c) for c in compound_slots]
    kind = rng.choice((Kind.ACHIEVEMENT, Kind.MAINTENANCE))
    if variant.global_scope:
        return Obligation(kind, fields[0])
    return Obligation(kind, fields[0], trigger=fields[1], deadline=fields[2])


def generate_instance(cfg: GeneratorConfig) -> tuple[Model, RuleSet]:
    """A deterministic model/rule-set pair matching cfg's variant tag."""
    rng = random.Random(cfg.seed)
    atoms = list(string.ascii_lowercase[:cfg.atom_pool])
    ids = itertools.count(1)
    budget = rng.randint(1, cfg.max_tasks)
    body = _build(rng, atoms, budget, cfg.max_depth, ids)
    model = validate(body, name=f"generated-{cfg.seed}")

    count = 1 if cfg.variant.single else rng.randint(2, 3)
    obligations = tuple(_rule(rng, atoms, cfg.variant, force_compound=(i == 0))
                        for i in range(count))
    rules = RuleSet(obligations)
    produced = classify_variant(rules)
    if produced != cfg.variant:
        raise AssertionError(
            f"generator produced variant {produced}, wanted {cfg.variant}")
    return model, rules
