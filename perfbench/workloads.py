"""The benchmark's workloads: inputs built from a seed, the calls into
wfcheck that one round makes, and the check of every output.

Every model is built first as a plain JSON dict (the model file format),
which is what the oracle reads; wfcheck gets the same tree through its own
loader or constructors.  Rule atoms, task roles and the atoms of the
"noise" literals sit at fixed places, and the seed varies the formulas and
the noise literals' polarity, so each seed gives the same amount of work
while the inputs differ.
"""
from __future__ import annotations

import io
import json
import random
import string
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path

import oracle
from wfcheck import cli
from wfcheck.engine import run_check
from wfcheck.fileio import (dump_model, dump_rules, format_report,
                            model_from_dict, model_to_dict, rules_from_dict,
                            rules_to_dict)
from wfcheck.formula import parse_formula
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.obligations import VariantTag
from wfcheck.process import AndBlock, count_executions
from wfcheck.reduction import build_interpretation_model

MODES = ("full", "partial", "non")
# Above this many runs the oracle decides fast checks without listing runs.
ENUMERATION_LIMIT = 1 << 16
NOISE = "cefgh"  # atoms no rule mentions
TAGS = [VariantTag(single, glob, lit) for single in (True, False)
        for glob in (True, False) for lit in (True, False)]
LOCAL_LITERAL = VariantTag(True, False, True)  # 1L-, the fast engine's


# ---------------------------------------------------------------------------
# what a round does

@dataclass
class Case:
    """One model and rule set, as dicts for the oracle and as wfcheck
    objects, with what the benchmark knows about it in closed form."""

    name: str
    model_dict: dict
    rules_dict: dict
    runs: int | None = None        # closed-form run count
    tautology: bool | None = None  # truth table, for reduction models
    interleavings: int = 0         # closed form, summed over and-blocks
    paths: tuple[str, str] | None = None  # written files, for the CLI
    model: object = None
    rules: object = None


@dataclass
class Check:
    case: Case
    engine: str
    mode: str
    jobs: int = 1
    strict: bool = False
    cli: bool = False

    @property
    def paths(self):
        """The files to check, when the check goes through the CLI."""
        return self.case.paths if self.cli else None


@dataclass
class Listing:
    case: Case


def execute(op):
    """The call into wfcheck that the benchmark times."""
    if isinstance(op, Listing):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["enumerate", "--model", op.case.paths[0]])
        return code, out.getvalue()
    if op.cli:
        argv = ["check", "--model", op.case.paths[0], "--rules",
                op.case.paths[1], "--mode", op.mode, "--engine", op.engine]
        if op.strict:
            argv.append("--strict-deadline")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return run_check(op.case.model, op.case.rules, op.mode, engine=op.engine,
                     jobs=op.jobs, strict_deadline=op.strict)


def report_dict(op, output, tracer) -> dict:
    """The report as the user sees it: JSON text, parsed back."""
    if op.cli:
        return json.loads(output[1])
    with tracer.span("fileio.format"):
        text = format_report(output)
    return json.loads(text)


class Expectations:
    """Oracle answers, computed once per run for every case and mode."""

    def __init__(self):
        self._oracles: dict = {}
        self.problems: list[str] = []

    def oracle_for(self, case: Case, strict: bool) -> oracle.Oracle:
        key = (id(case), strict)
        if key not in self._oracles:
            o = oracle.Oracle(case.model_dict, case.rules_dict, strict)
            if case.runs is not None and len(o.runs) != case.runs:
                self.problems.append(
                    f"{case.name}: oracle lists {len(o.runs)} runs, "
                    f"closed form says {case.runs}")
            if (case.tautology is not None
                    and o.expect("full").verdict != case.tautology):
                self.problems.append(
                    f"{case.name}: full compliance differs from the "
                    f"truth table")
            self._oracles[key] = o
        return self._oracles[key]

    def expect(self, op):
        case = op.case
        if isinstance(op, Listing):
            return self.oracle_for(case, False).listing()
        if op.engine == "fast" and (case.runs or 0) > ENUMERATION_LIMIT:
            return oracle.choice_fast_verdict(case.model_dict,
                                              case.rules_dict, op.mode)
        expected = self.oracle_for(case, op.strict).expect(op.mode)
        return expected.verdict if op.engine == "fast" else expected


def verify(op, output, expected, tracer) -> tuple[bool, dict | None]:
    """Does one output match the oracle?  Also returns the parsed report."""
    if isinstance(op, Listing):
        code, text = output
        lines = text.splitlines()
        ids = [line.split(" | ")[0].split(",") for line in lines]
        runs = len(expected) if op.case.runs is None else op.case.runs
        return (code == 0 and lines == expected
                and len(lines) == runs == len(set(lines))
                and ids == sorted(ids)), None
    got = report_dict(op, output, tracer)
    if got["mode"] != op.mode or got["engine"] != op.engine:
        return False, got
    if op.cli and output[0] != (0 if got["verdict"] else 1):
        return False, got
    if op.engine == "fast":
        return (got["verdict"] is expected and got["witness"] is None
                and got["traces_examined"] == 0), got
    return (got["verdict"] is expected.verdict
            and got["traces_examined"] == expected.traces_examined
            and got["witness"] == expected.witness), got


def and_interleavings(model) -> int:
    """Σ count_executions over the outermost and-blocks of a wfcheck model:
    the interleavings the fast engine walks."""
    def walk(block):
        if isinstance(block, AndBlock):
            return count_executions(block)
        return sum(walk(c) for c in getattr(block, "children", ()))
    return walk(model.root)


# ---------------------------------------------------------------------------
# building blocks

def T(tid: str, *ann: str) -> dict:
    return {"type": "task", "id": tid, "ann": list(ann)}


def S(*children) -> dict:
    return {"type": "seq", "children": list(children)}


def X(*children) -> dict:
    return {"type": "xor", "children": list(children)}


def A(*children) -> dict:
    return {"type": "and", "children": list(children)}


def rule(kind: str, requirement: str, trigger=None, deadline=None) -> dict:
    return {"obligations": [{"kind": kind, "requirement": requirement,
                             "trigger": trigger, "deadline": deadline}]}


def noise(rng: random.Random, k: int) -> list[str]:
    """The noise literals of the k-th task: none, one or two atoms fixed by
    k, with seeded polarity.  So every seed folds states of the same sizes
    and prints listings of the same length."""
    atoms = [NOISE[(k + i) % len(NOISE)] for i in range(k % 3)]
    return [a if rng.random() < 0.5 else "-" + a for a in atoms]


def tree_case(name: str, tree: dict, rules_dict: dict, **known) -> Case:
    """A benchmark-built tree, loaded into wfcheck through its own reader."""
    model_dict = {"name": name, "root": tree}
    return Case(name, model_dict, rules_dict, model=model_from_dict(
        model_dict), rules=rules_from_dict(rules_dict), **known)


def write(case: Case, workdir: Path) -> Case:
    paths = (str(workdir / f"{case.name}.model.json"),
             str(workdir / f"{case.name}.rules.json"))
    dump_model(case.model, paths[0])
    dump_rules(case.rules, paths[1])
    case.paths = paths
    return case


def balanced(rng: random.Random, names: list[str], ops: str) -> str:
    """A balanced formula using each atom once, with seeded order and
    polarity; level k of the tree joins with ops[k % len(ops)].  Over all
    assignments a polarity flip or a renaming is a bijection, so a full
    scan evaluates the same number of nodes whatever the seed."""
    parts = [a if rng.random() < 0.5 else "!" + a
             for a in rng.sample(names, len(names))]
    level = 0
    while len(parts) > 1:
        op = ops[level % len(ops)]
        parts = [f"({parts[i]} {op} {parts[i + 1]})"
                 if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
        level += 1
    return parts[0]


def reduction_formula(rng: random.Random, n: int, tautology: bool) -> str:
    """A compound formula over n atoms.  The tautology makes a full check
    scan all 2^n runs; the non-tautology fails on the empty start state,
    so a full check stops at the first run and a partial or non check
    scans them all."""
    names = sorted(rng.sample(
        [a for a in string.ascii_lowercase if a not in NOISE + "abdu"], n))
    g, h = balanced(rng, names, "&|"), balanced(rng, names, "|&")
    f = f"({g} -> {h}) | ({h} -> {g})"
    return f if tautology else f"({f}) & ({' | '.join(names)})"


def reduction_case(tracer, name: str, text: str, **known) -> Case:
    with tracer.span("reduction.build"):
        inst = build_interpretation_model(parse_formula(text))
    return Case(name, model_to_dict(inst.model), rules_to_dict(inst.rules),
                tautology=oracle.is_tautology(text), model=inst.model,
                rules=inst.rules, **known)


def generated_cases(tracer, seed: int, count: int,
                    want_and: bool | None = None, tags=TAGS,
                    draws: int = 0) -> list[Case]:
    """Seeded generator instances, all variant tags in turn; with want_and
    set, only those whose model does (or does not) hold an and-block.
    At least `draws` instances are generated whatever they hold, so the
    set-up's work does not depend on how soon the seed finds a match."""
    out, k = [], 0
    while len(out) < count or k < draws:
        cfg = GeneratorConfig(seed=seed + k, variant=tags[k % len(tags)])
        k += 1
        with tracer.span("generate.instance"):
            model, rules = generate_instance(cfg)
        md = model_to_dict(model)
        ands = oracle.and_blocks(md["root"])
        if len(out) == count or (want_and is not None
                                 and bool(ands) != want_and):
            continue
        out.append(Case(f"gen{cfg.seed}", md, rules_to_dict(rules),
                        interleavings=sum(len(oracle.block_runs(b))
                                          for b in ands),
                        model=model, rules=rules))
    return out


# ---------------------------------------------------------------------------
# choice: sequences and choices only

def xor_chain(rng: random.Random, n: int, roles: bool) -> dict:
    """A trigger, n two-way choices over noise atoms, then the deadline.
    With roles, every fifth choice can also assert or retract the
    requirement b, and every seventh can assert the deadline d."""
    blocks = []
    for k in range(n):
        p, q = noise(rng, 2 * k), noise(rng, 2 * k + 1)
        if roles and k % 5 == 4:
            p, q = p + ["b"], q + ["-b"]
        if roles and k % 7 == 6:
            p.append("d")
        blocks.append(X(T(f"p{k}", *p), T(f"q{k}", *q)))
    return S(T("x", "a"), *blocks, T("z", "d"))


def choice(rng: random.Random, workdir: Path, tracer) -> list:
    ops = []
    for n, taut in ((10, True), (10, False)):
        case = reduction_case(tracer, f"red{n}{'t' if taut else 'f'}",
                              reduction_formula(rng, n, taut), runs=2 ** n)
        ops += [Check(case, "brute", mode, jobs) for jobs in (1, 2)
                for mode in ("full", "non")]
        if taut:
            ops.append(Listing(write(case, workdir)))
    case = tree_case("chain12", xor_chain(rng, 12, False),
                     rule("achievement", "b", "a", "d"), runs=2 ** 12)
    ops.append(Check(case, "brute", "partial"))
    for n in (200, 400):
        tree = xor_chain(rng, n, True)
        for kind, requirement in (("achievement", "b"),
                                  ("maintenance", "!b")):
            case = tree_case(f"chain{n}{kind[0]}", tree,
                             rule(kind, requirement, "a", "d"), runs=2 ** n)
            ops += [Check(case, "fast", mode) for mode in MODES]
    for case in generated_cases(tracer, rng.randrange(1 << 30), 2,
                                want_and=False, tags=[LOCAL_LITERAL],
                                draws=8):
        ops.append(Check(case, "fast", "partial"))
    return ops


# ---------------------------------------------------------------------------
# parallel: and-blocks of sequential chains

def chains(rng: random.Random, k: int, m: int, prefix: str = "c",
           roles: bool = True) -> list[dict]:
    """k chains of m tasks over noise atoms.  With roles, chain 0 ends by
    asserting the deadline d and the last chain starts by asserting the
    requirement b, so the rule <b, a, d> holds exactly on the runs that
    fire the last chain's first task before chain 0's last one."""
    out = []
    for i in range(k):
        tasks = [[f"{prefix}{i}_{j}", *noise(rng, i * m + j)]
                 for j in range(m)]
        if roles and i == 0:
            tasks[-1].append("d")
        if roles and i == k - 1:
            tasks[0].append("b")
        out.append(S(*[T(*t) for t in tasks]) if m > 1 else T(*tasks[0]))
    return out


# Three rules per model: one decided by the interleaving order (early
# exits at fixed places), one never satisfiable (partial and non scan every
# run) and one never violable (full scans every run).  "u" is never set.
PARALLEL_RULES = (("order", rule("achievement", "b", "a", "d")),
                  ("unsat", rule("achievement", "u", "a", "d")),
                  ("valid", rule("maintenance", "!u", "a", "d")))


def parallel(rng: random.Random, workdir: Path, tracer) -> list:
    ops = []
    models = []
    for k, m in ((2, 3), (2, 4), (2, 5), (3, 3)):
        models.append((f"and{k}x{m}", S(T("x", "a"), A(*chains(rng, k, m))),
                       oracle.interleavings(k, m)))
    nested = S(T("x", "a"), X(A(*chains(rng, 2, 4, "l")),
                              A(*chains(rng, 2, 5, "r"))))
    models.append(("nested", nested,
                   oracle.interleavings(2, 4) + oracle.interleavings(2, 5)))
    for name, tree, runs in models:
        for tag, rules_dict in PARALLEL_RULES:
            case = tree_case(f"{name}_{tag}", tree, rules_dict, runs=runs,
                             interleavings=runs)
            ops += [Check(case, "brute", mode) for mode in MODES]
            if tag == "order":  # the fast engine walks the same paths
                ops += [Check(case, "fast", mode) for mode in MODES]
            if name == "and3x3" and tag == "order":
                ops.append(Listing(write(case, workdir)))
    # the tautology reduction interleaved with an unrelated chain
    n, length = 4, 3
    for taut in (True, False):
        red = reduction_case(tracer, "sub", reduction_formula(rng, n, taut))
        tree = A(red.model_dict["root"], *chains(rng, 1, length, "k", False))
        case = tree_case(f"redpar{'t' if taut else 'f'}", tree,
                         red.rules_dict,
                         runs=2 ** n * comb(n + 1 + length, length),
                         tautology=red.tautology)
        ops += [Check(case, "brute", mode) for mode in ("full", "non")]
    # About one generated model in ten holds an and-block.
    for case in generated_cases(tracer, rng.randrange(1 << 30), 2,
                                want_and=True, draws=64):
        ops.append(Check(case, "brute", "partial"))
    return ops


# ---------------------------------------------------------------------------
# corpus: many small generated models, checked through the CLI

CORPUS_SIZE = 500
REDUCTION_EVERY = 10


def corpus(rng: random.Random, workdir: Path, tracer) -> list:
    ops = []
    base = rng.randrange(1 << 30)
    for i in range(CORPUS_SIZE):
        tag = TAGS[i % len(TAGS)]
        if i % REDUCTION_EVERY == REDUCTION_EVERY - 1:
            k = i // REDUCTION_EVERY
            n = 3 + k % 3
            case = reduction_case(tracer, f"red{i}", reduction_formula(
                rng, n, k % 2 == 0), runs=2 ** n)
            tag = None
        else:
            (case,) = generated_cases(tracer, base + i, 1, tags=[tag])
            case.name = f"gen{i}"
        write(case, workdir)
        ops += [Check(case, "brute", mode, cli=True) for mode in MODES]
        if any(o["kind"] == "achievement" and o["trigger"] is not None
               for o in case.rules_dict["obligations"]):
            ops.append(Check(case, "brute", "full", strict=True, cli=True))
        if tag == LOCAL_LITERAL:
            ops += [Check(case, "fast", mode, cli=True) for mode in MODES]
        if tag is None:  # list the reduction models: 2^n lines each
            ops.append(Listing(case))
    return ops


WORKLOADS = {"choice": choice, "parallel": parallel, "corpus": corpus}
