"""The acceptance gate: nine binding criteria, one test per criterion.

Every test finishes by printing a single "criterion N (...): PASS/FAIL"
line (visible with -s, or in the captured output on failure) and then
asserting, so the suite reads as a checklist.
"""
import random
from time import perf_counter

from conftest import build_example_model
from wfcheck.engine import run_check
from wfcheck.fastpath import (outcomes, require_single_local_literal,
                              trigger_transitions)
from wfcheck.fileio import format_report
from wfcheck.formula import (And, Atom, Formula, Implies, Literal, Not, Or,
                             State, parse_formula, tautology_truth_table)
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.net import derive_trace, enumerate_executions, Trace
from wfcheck.obligations import (Kind, Obligation, RuleSet, VariantTag,
                                 eval_restricted, in_force_intervals,
                                 overlap_reduction)
from wfcheck.process import Task
from wfcheck.bench import run_bench
from wfcheck.reduction import build_interpretation_model, verify_reduction_steps

SEED = 20260815
LOCAL_LITERAL = VariantTag(single=True, global_scope=False,
                           literal_only=True)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label})"


def _excluded_middle(n: int) -> Formula:
    atoms = [chr(ord("a") + i) for i in range(n)]
    f: Formula = Or(Atom(atoms[0]), Not(Atom(atoms[0])))
    for a in atoms[1:]:
        f = And(f, Or(Atom(a), Not(Atom(a))))
    return f


def _implication_chain(n: int) -> Formula:
    atoms = [chr(ord("a") + i) for i in range(n)]
    f: Formula = Atom(atoms[-1])
    for a in reversed(atoms[:-1]):
        f = Implies(Atom(a), f)
    return f


def test_criterion_1_golden_enumeration():
    start = perf_counter()
    model = build_example_model()
    rows = {(e.task_ids(), derive_trace(model, e).states())
            for e in enumerate_executions(model)}
    elapsed = perf_counter() - start

    s = State.of
    expected = {
        (("start", "t1", "t3", "t4", "end"),
         (s(), s("a"), s("a", "c", "d"), s("-a", "c", "d"),
          s("-a", "c", "d"))),
        (("start", "t2", "t3", "t4", "end"),
         (s(), s("b", "c"), s("b", "c", "d"), s("-a", "b", "c", "d"),
          s("-a", "b", "c", "d"))),
        (("start", "t3", "t1", "t4", "end"),
         (s(), s("c", "d"), s("a", "c", "d"), s("-a", "c", "d"),
          s("-a", "c", "d"))),
        (("start", "t3", "t2", "t4", "end"),
         (s(), s("c", "d"), s("b", "c", "d"), s("-a", "b", "c", "d"),
          s("-a", "b", "c", "d"))),
    }
    _report(1, "golden enumeration", rows == expected and elapsed < 0.1)


def _formulas_to_depth_three() -> list[Formula]:
    """Every formula over atoms a, b whose parse tree is at most three
    levels deep (root at level one)."""
    def grow(pool: list[Formula]) -> list[Formula]:
        grown = [Atom("a"), Atom("b")]
        grown += [Not(f) for f in pool]
        grown += [ctor(f, g) for ctor in (And, Or, Implies)
                  for f in pool for g in pool]
        return grown

    leaves: list[Formula] = [Atom("a"), Atom("b")]
    return grow(grow(leaves))


def _random_formula(rng: random.Random, atoms: tuple[str, ...],
                    depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    ctor = rng.choice((Not, And, Or, Implies))
    if ctor is Not:
        return Not(_random_formula(rng, atoms, depth - 1))
    return ctor(_random_formula(rng, atoms, depth - 1),
                _random_formula(rng, atoms, depth - 1))


def test_criterion_2_reduction_equivalence():
    start = perf_counter()
    corpus = _formulas_to_depth_three()
    rng = random.Random(SEED)
    corpus += [_random_formula(rng, ("a", "b", "c", "d"), 4)
               for _ in range(500)]

    agreement = True
    for f in corpus:
        instance = build_interpretation_model(f)
        verdict = run_check(instance.model, instance.rules, "full").verdict
        agreement &= verdict == tautology_truth_table(f)
    elapsed = perf_counter() - start
    _report(2, "reduction equivalence",
            agreement and len(corpus) >= 500 + 786 and elapsed < 10)


def test_criterion_3_reduction_steps():
    start = perf_counter()
    ok = True
    for n in range(1, 9):
        for f in (_excluded_middle(n), _implication_chain(n)):
            chk = verify_reduction_steps(f)
            ok &= chk.passed and chk.trace_count == 2 ** n
    elapsed = perf_counter() - start
    _report(3, "reduction step checks", ok and elapsed < 5)


def test_criterion_4_scaling_witness():
    records = run_bench("reduction", 4, 12)
    traces_ok = [r.traces for r in records] == [2 ** n
                                                for n in range(4, 13)]
    verdicts_ok = all(r.verdict for r in records)
    time_ok = records[-1].wall_ms < 5000
    _report(4, "scaling witness", traces_ok and verdicts_ok and time_ok)


def _random_trace(rng: random.Random, atoms: tuple[str, ...]) -> Trace:
    tasks = []
    for i in range(rng.randint(4, 10)):
        chosen = rng.sample(atoms, rng.randint(0, 2))
        ann = State.of(*(Literal(a, rng.random() < 0.5) for a in chosen))
        tasks.append(Task(f"t{i + 1}", ann))
    return Trace.from_tasks(tasks)


def _random_local_obligation(rng: random.Random,
                             atoms: tuple[str, ...]) -> Obligation:
    def lit() -> Formula:
        return Literal(rng.choice(atoms), rng.random() < 0.5).to_formula()

    kind = rng.choice((Kind.ACHIEVEMENT, Kind.MAINTENANCE))
    return Obligation(kind, lit(), trigger=lit(), deadline=lit())


def test_criterion_5_nested_interval_deciders():
    rng = random.Random(SEED)
    atoms = ("a", "b", "c", "d")
    pairs_checked = 0
    counterexamples = 0
    attempts = 0
    while pairs_checked < 1000 and attempts < 200_000:
        attempts += 1
        trace = _random_trace(rng, atoms)
        o = _random_local_obligation(rng, atoms)
        intervals = in_force_intervals(trace, o)
        for a in range(len(intervals)):
            for b in range(a + 1, len(intervals)):
                outer, inner = intervals[a], intervals[b]
                nested = (outer.start_index <= inner.start_index
                          and inner.end_index <= outer.end_index
                          and (outer.start_index, outer.end_index)
                          != (inner.start_index, inner.end_index))
                if not nested:
                    continue
                decider = overlap_reduction(outer, inner, o.kind)
                both = outer.satisfied and inner.satisfied
                if both != decider.satisfied:
                    counterexamples += 1
                pairs_checked += 1
    _report(5, "nested-interval deciders",
            pairs_checked >= 1000 and counterexamples == 0)


def test_criterion_6_fastpath_differential():
    start = perf_counter()
    agreement = True
    for seed in range(300):
        cfg = GeneratorConfig(seed=seed, max_tasks=10, atom_pool=6,
                              variant=LOCAL_LITERAL)
        model, rules = generate_instance(cfg)
        o = require_single_local_literal(rules)
        agreement &= ((True in outcomes(model, o, and_cap=10 ** 6))
                      == run_check(model, rules, "partial").verdict)
        agreement &= ((False not in outcomes(model, o, and_cap=10 ** 6))
                      == run_check(model, rules, "full").verdict)
    elapsed = perf_counter() - start
    _report(6, "fast-path differential", agreement and elapsed < 30)


def _every_trigger_brute_satisfiable(model, o) -> bool:
    traces = [derive_trace(model, e) for e in enumerate_executions(model)]
    for x in trigger_transitions(model, o):
        if not any(x.id in tr.task_ids() and eval_restricted(tr, o, {x.id})
                   for tr in traces):
            return False
    return True


def test_criterion_7_trigger_screening_property():
    collected = 0
    seed = 0
    violations = 0
    while collected < 300 and seed < 5000:
        cfg = GeneratorConfig(seed=seed, max_tasks=10, atom_pool=6,
                              variant=LOCAL_LITERAL)
        model, rules = generate_instance(cfg)
        seed += 1
        if not _every_trigger_brute_satisfiable(model, rules.obligations[0]):
            continue
        collected += 1
        if not run_check(model, rules, "partial").verdict:
            violations += 1
    _report(7, "screened triggers imply a compliant run",
            collected == 300 and violations == 0)


ALL_VARIANTS = [VariantTag(single, global_scope, literal_only)
                for single in (True, False)
                for global_scope in (True, False)
                for literal_only in (True, False)]


def test_criterion_8_compliance_relations():
    ok = True
    for seed in range(500):
        cfg = GeneratorConfig(seed=seed, max_tasks=8, atom_pool=4,
                              variant=ALL_VARIANTS[seed % 8])
        model, rules = generate_instance(cfg)
        full = run_check(model, rules, "full").verdict
        partial = run_check(model, rules, "partial").verdict
        non = run_check(model, rules, "non").verdict
        ok &= (not full or partial) and (non == (not partial))
    _report(8, "compliance relations", ok)


def _render_everything(jobs: int) -> bytes:
    chunks = []
    model = build_example_model()
    rules = RuleSet((Obligation(Kind.ACHIEVEMENT, parse_formula("b"),
                                trigger=parse_formula("a"),
                                deadline=parse_formula("d")),))
    for e in enumerate_executions(model):
        trace = derive_trace(model, e)
        chunks.append(",".join(e.task_ids()) + " | "
                      + ", ".join(str(s) for s in trace.states()))
    for mode in ("full", "partial", "non"):
        chunks.append(format_report(
            run_check(model, rules, mode, jobs=jobs)))
        chunks.append(format_report(
            run_check(model, rules, mode, engine="fast")))
    for n in (1, 2, 3):
        instance = build_interpretation_model(_excluded_middle(n))
        chunks.append(format_report(
            run_check(instance.model, instance.rules, "full")))
        chunks.append(repr(verify_reduction_steps(_excluded_middle(n))))
    for seed in range(20):
        cfg = GeneratorConfig(seed=seed, max_tasks=8, atom_pool=4,
                              variant=LOCAL_LITERAL)
        m, rs = generate_instance(cfg)
        chunks.append(format_report(
            run_check(m, rs, "partial", jobs=jobs)))
    return "\n".join(chunks).encode("utf-8")


def test_criterion_9_determinism():
    single = _render_everything(jobs=1)
    again = _render_everything(jobs=1)
    parallel = _render_everything(jobs=4)
    _report(9, "determinism", single == again == parallel)
