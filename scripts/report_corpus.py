#!/usr/bin/env python3
"""Print the report corpus: report bytes that must not change by accident.

Through the CLI's ``main``, in process, it prints the stdout, stderr and
exit code of ``check`` (modes full / partial / non, each with the brute
engine, brute with --strict-deadline, and the fast engine) and of
``enumerate`` (every run, and --limit 2) on each corpus model:

- the sample model under data/;
- 160 generated instances: seeds 0-19 for each of the eight variant tags,
  max_tasks=10;
- the interpretation models of four reduction formulas.

Then, on 250 generated 1L- instances (seeds 0-249, max_tasks=10,
atom_pool=6), it prints the fast engine's answers: label_triggers and,
for every trigger, whether its interval can be satisfied and violated
(``outcomes`` given the trigger), and fast partial and full compliance
(``outcomes`` over the whole rule).  ``instance_satisfiable`` prints
whether ``True`` is among a trigger's outcomes, ``instance_violable``
whether ``False`` is.

Cases are printed by name, never by file path, so the output depends on
the code alone.  tests/report_corpus.sha256 holds the sha256 of this
output.  A change that alters report bytes on purpose updates that digest
and says why.

Usage: PYTHONPATH=src python3 scripts/report_corpus.py > corpus.txt
"""
import contextlib
import io
import tempfile
from pathlib import Path

from wfcheck.cli import main as cli_main
from wfcheck.fastpath import label_triggers, outcomes
from wfcheck.fileio import dump_model, dump_rules
from wfcheck.formula import parse_formula
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.obligations import VariantTag
from wfcheck.reduction import build_interpretation_model

DATA = Path(__file__).resolve().parents[1] / "data"
ALL_TAGS = [VariantTag(single, global_scope, literal_only)
            for single in (True, False) for global_scope in (True, False)
            for literal_only in (True, False)]
LOCAL_LITERAL = VariantTag(single=True, global_scope=False, literal_only=True)
REDUCTION_FORMULAS = ("a | !a", "a & b", "(a -> b) | (b -> a)",
                      "(a | b) & (!a | c)")
CHECK_FLAGS = ((), ("--strict-deadline",), ("--engine", "fast"))


def run_cli(argv: list[str], out: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    out.append(stdout.getvalue())
    if stderr.getvalue():
        out.append("stderr: " + stderr.getvalue())
    out.append(f"exit {code}\n")


def cli_cases(name: str, model: Path, rules: Path, out: list[str]) -> None:
    for mode in ("full", "partial", "non"):
        for flags in CHECK_FLAGS:
            out.append(" ".join(("$ check", name, "--mode", mode, *flags))
                       + "\n")
            run_cli(["check", "--model", str(model), "--rules", str(rules),
                     "--mode", mode, *flags], out)
    for flags in ((), ("--limit", "2")):
        out.append(" ".join(("$ enumerate", name, *flags)) + "\n")
        run_cli(["enumerate", "--model", str(model), *flags], out)


def fast_cases(seed: int, out: list[str]) -> None:
    model, rules = generate_instance(GeneratorConfig(
        seed=seed, max_tasks=10, atom_pool=6, variant=LOCAL_LITERAL))
    o = rules.obligations[0]
    out.append(f"$ fast 1L- seed {seed}\n")
    for label in label_triggers(model, o):
        interval = outcomes(model, o, label.task)
        out.append(f"trigger {label.task.id}: satisfiable "
                   f"{label.satisfiable}, instance_satisfiable "
                   f"{True in interval}, instance_violable "
                   f"{False in interval}\n")
    whole = outcomes(model, o)
    out.append(f"partial {True in whole}, full {False not in whole}\n")


def generated_models():
    """The corpus models that are not in data/, each with its rules."""
    for tag in ALL_TAGS:
        for seed in range(20):
            yield (f"generated {tag} seed {seed}", *generate_instance(
                GeneratorConfig(seed=seed, max_tasks=10, variant=tag)))
    for text in REDUCTION_FORMULAS:
        instance = build_interpretation_model(parse_formula(text))
        yield f"reduction {text}", instance.model, instance.rules


def report() -> str:
    out: list[str] = []
    cli_cases("data/parallel_choice", DATA / "parallel_choice.model.json",
              DATA / "parallel_choice.rules.json", out)
    with tempfile.TemporaryDirectory() as tmp:
        model, rules = Path(tmp) / "model.json", Path(tmp) / "rules.json"
        for name, m, rs in generated_models():
            dump_model(m, model)
            dump_rules(rs, rules)
            cli_cases(name, model, rules, out)
    for seed in range(250):
        fast_cases(seed, out)
    return "".join(out)


if __name__ == "__main__":
    print(report(), end="")
