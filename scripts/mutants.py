#!/usr/bin/env python3
"""Run the committed mutants: each one must fail the tests that pin it.

A mutant is one edit of the source: a file, an exact text in it and the
text that replaces it, plus the pytest selection that is to kill it.  The
script copies ``src/``, ``tests/``, ``scripts/``, ``data/`` and
``README.md`` to a temporary directory, runs every selection there
unmutated (a mutant only counts as killed when its tests pass without
it), then applies each mutant in turn and runs ``pytest -x -q`` on its
selection; it is killed when a test fails.  It fails when a mutant
survives, or when a mutant's old text does not occur exactly once, so a
change that moves pinned code must move the mutant with it.  A mutant
whose code is deleted goes with that code.

Usage: python3 scripts/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "data", "README.md")
FAST = "tests/test_fastpath.py"
ENGINE = "tests/test_engine.py"
FORMULA = "tests/test_formula.py"
PROCESS = "tests/test_process.py"
IO = "tests/test_io_cli.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the check's mode rule
    Mutant("run_check asks the fast engine for the other outcome",
           "src/wfcheck/engine.py",
           "exists = want in outcomes(",
           "exists = (not want) in outcomes(",
           (f"{ENGINE}::TestRunCheck",)),
    Mutant("dead prefixes are skipped without being counted",
           "src/wfcheck/engine.py",
           "skipped += count_executions(residual)",
           "skipped += 0",
           (f"{ENGINE}::TestMonitors"
            "::test_a_prefix_that_cannot_comply_is_skipped_and_counted",)),
    # the fast engine's fold and its queries
    Mutant("an interval query reads runs where its trigger did not fire",
           "src/wfcheck/fastpath.py",
           "if fired or x is None)",
           ")",
           (f"{FAST}::TestInstanceAnalysis",)),
    Mutant("a task that is no trigger is accepted as one",
           "src/wfcheck/fastpath.py",
           "if x is not None and x.id not in triggers:",
           "if False:",
           (f"{FAST}::TestInstanceAnalysis::test_non_trigger_task_rejected",)),
    Mutant("a trigger is treated as quiet",
           "src/wfcheck/fastpath.py",
           "& atoms and task.id not in trigger_ids",
           "& atoms",
           (f"{FAST}::TestWholeModelChecks",)),
    Mutant("a choice's all-quiet branch gets no stand-in",
           "src/wfcheck/fastpath.py",
           "kept += (next(iter_tasks(skip)),)",
           "pass",
           (f"{FAST}::TestWholeModelChecks"
            "::test_differential_against_brute_force",)),
    Mutant("a choice folds its first branch only",
           "src/wfcheck/fastpath.py",
           "for child in block.children:\n"
           "            out |= _reach(",
           "for child in block.children[:1]:\n"
           "            out |= _reach(",
           (f"{FAST}::TestWholeModelChecks",)),
    Mutant("a negative trigger reads as a positive one",
           "src/wfcheck/fastpath.py",
           "if bool(t.annotation.pos & bit) is trigger.positive}",
           "if bool(t.annotation.pos & bit)}",
           (f"{FAST}::TestTriggerTransitions",)),
    Mutant("a carry is decided under several triggers",
           "src/wfcheck/fastpath.py",
           "if single and fired and not mark:",
           "if fired and not mark:",
           (f"{FAST}::TestWholeModelChecks",)),
    Mutant("a fast step clears no bit on a negated literal",
           "src/wfcheck/fastpath.py",
           "bits = (carry[0] & ~(ann.pos | ann.neg) | ann.pos) & atoms",
           "bits = (carry[0] | ann.pos) & atoms",
           (f"{FAST}::TestMaskReading"
            "::test_requirement_and_deadline_on_one_atom",)),
    # the and-block search
    Mutant("the and-block search keys pairs by residual alone",
           "src/wfcheck/fastpath.py",
           "elif (id(after), carry) not in seen:\n"
           "                seen.add((id(after), carry))",
           "elif (id(after), 0) not in seen:\n"
           "                seen.add((id(after), 0))",
           (f"{FAST}::TestPartialOrderReduction"
            "::test_and_heavy_models_agree_with_the_reference[0]",)),
    # the monitor
    Mutant("an achievement interval never closes",
           "src/wfcheck/obligations.py",
           "if holds(requirement, state):\n"
           "                    mark &= _SEEN",
           "if holds(requirement, state):\n"
           "                    mark |= _OPEN",
           (f"{ENGINE}::TestCheckFull", f"{ENGINE}::TestCheckPartial",
            f"{ENGINE}::TestCheckNon")),
    Mutant("the strict reading opens intervals after the deadline",
           "src/wfcheck/obligations.py",
           "if fires and mark & _SEEN:",
           "if False:",
           (f"{ENGINE}::TestMonitors"
            "::test_monitor_verdict_equals_the_reference",)),
    Mutant("an open maintenance interval fails at the last state",
           "src/wfcheck/obligations.py",
           "not mark & _OPEN or kind is Kind.MAINTENANCE)",
           "not mark & _OPEN)",
           (f"{ENGINE}::TestCheckFull", f"{ENGINE}::TestCheckPartial",
            f"{ENGINE}::TestCheckNon")),
    # states
    Mutant("a negated literal clears no bit in update",
           "src/wfcheck/formula.py",
           "return _from_masks(s1.pos & ~mentioned | s2.pos,",
           "return _from_masks(s1.pos & ~s2.pos | s2.pos,",
           (f"{FORMULA}::TestState",)),
    Mutant("sorted_literals leaves the literals in mask order",
           "src/wfcheck/formula.py",
           "return sorted(self, key=lambda l: l.atom)",
           "return list(self)",
           (f"{FORMULA}::TestState",)),
    # the parser and printer
    Mutant("Or binds tighter than And",
           "src/wfcheck/formula.py",
           "_PREC = {Implies: 0, Or: 1, And: 2, Not: 3}",
           "_PREC = {Implies: 0, Or: 2, And: 1, Not: 3}",
           (f"{FORMULA}::TestParser",)),
    Mutant("implication groups to the left",
           "src/wfcheck/formula.py",
           "g, g_height = self.nested(self.binary, _PREC[op])",
           "g, g_height = self.nested(self.binary, _PREC[op] + 1)",
           (f"{FORMULA}::TestParser",)),
    # runs and residuals
    Mutant("_moved keeps one-child composites",
           "src/wfcheck/process.py",
           "if len(left) < 2:",
           "if len(left) < 1:",
           (f"{PROCESS}::TestResidualTable", f"{PROCESS}::TestCount")),
    Mutant("an and-block moves its first branch only",
           "src/wfcheck/process.py",
           "for k, child in enumerate(children)",
           "for k, child in enumerate(children[:1])",
           (f"{PROCESS}::TestEnumeration",)),
    Mutant("an and-block's runs are counted without their shuffles",
           "src/wfcheck/process.py",
           "ways = c1 * c2 * math.comb(n, l1) if shuffle else c1 * c2",
           "ways = c1 * c2",
           (f"{PROCESS}::TestCount",)),
    # validate
    Mutant("validate keeps one-child composites",
           "src/wfcheck/process.py",
           "return children[0] if len(children) == 1 else "
           "type(block)(children)",
           "return type(block)(children)",
           (f"{PROCESS}::TestValidate",)),
    Mutant("validate accepts a task id twice",
           "src/wfcheck/process.py",
           "if tid in seen:",
           "if False:",
           (f"{PROCESS}::TestValidate",)),
    # the loader
    Mutant("the loader accepts unknown keys",
           "src/wfcheck/fileio.py",
           "if key not in known:",
           "if False:",
           (f"{IO}::TestCli::test_mistyped_fields_exit_two",)),
    Mutant("the loader accepts a key given twice",
           "src/wfcheck/fileio.py",
           "if len(obj) < len(pairs):",
           "if False:",
           (f"{IO}::TestCli::test_duplicate_keys_exit_two_by_name",)),
    # erase
    Mutant("erase keeps a sequence that lost a child",
           "src/wfcheck/fastpath.py",
           "if any(c is None for c in children):",
           "if all(c is None for c in children):",
           (f"{FAST}::TestErase",)),
)


def pytest(where: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=where, env=env, capture_output=True, text=True)


def main() -> int:
    texts = {}
    for m in MUTANTS:
        text = texts.setdefault(m.path, (ROOT / m.path).read_text("utf-8"))
        if text.count(m.old) != 1:
            print(f"{m.name}: the old text occurs {text.count(m.old)} times "
                  f"in {m.path}, not once", file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, where / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, where / name)
        every = sorted({t for m in MUTANTS for t in m.tests})
        baseline = pytest(where, every)
        if baseline.returncode != 0:
            print("the selections fail without a mutant:\n" + baseline.stdout,
                  file=sys.stderr)
            return 1
        survivors = 0
        for m in MUTANTS:
            target = where / m.path
            target.write_text(texts[m.path].replace(m.old, m.new), "utf-8")
            start = time.perf_counter()
            result = pytest(where, m.tests)
            seconds = time.perf_counter() - start
            target.write_text(texts[m.path], "utf-8")
            # pytest exits 1 when a test fails; other codes (a collection
            # error, say) are no kill
            killed = result.returncode == 1
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {seconds:5.1f} s"
                  f"  {m.name}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
