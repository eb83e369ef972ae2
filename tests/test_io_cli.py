"""File formats, the instance generator, the CLI and the bench harness."""
import csv
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_example_model
from strategies import models, rule_sets
from wfcheck.cli import main
from wfcheck.bench import CSV_HEADER, run_bench
from wfcheck.engine import run_check
from wfcheck.fileio import (FileFormatError, dump_model, dump_rules,
                            load_model, load_rules, model_from_dict,
                            model_to_dict, report_from_dict, report_to_dict,
                            rules_from_dict, rules_to_dict)
from wfcheck.formula import parse_formula
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.obligations import (Kind, Obligation, RuleSet, VariantTag,
                                 classify_variant)
from wfcheck.process import (DuplicateTaskId, InconsistentAnnotation,
                             InvalidTaskId)

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN_MODEL = DATA / "parallel_choice.model.json"
GOLDEN_RULES = DATA / "parallel_choice.rules.json"

GOLDEN_ROWS = {
    "start,t1,t3,t4,end | {}, {a}, {a, c, d}, {-a, c, d}, {-a, c, d}",
    "start,t2,t3,t4,end | {}, {b, c}, {b, c, d}, {-a, b, c, d},"
    " {-a, b, c, d}",
    "start,t3,t1,t4,end | {}, {c, d}, {a, c, d}, {-a, c, d}, {-a, c, d}",
    "start,t3,t2,t4,end | {}, {c, d}, {b, c, d}, {-a, b, c, d},"
    " {-a, b, c, d}",
}


def task_dict(tid, *ann):
    return {"type": "task", "id": tid, "ann": list(ann)}


class TestModelFiles:
    def test_golden_file_loads_the_example_model(self):
        assert load_model(GOLDEN_MODEL) == build_example_model()

    def test_dump_then_load_is_identity(self, tmp_path):
        m = build_example_model()
        dump_model(m, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json") == m

    @given(models())
    def test_dict_round_trip(self, m):
        assert model_from_dict(model_to_dict(m)) == m

    def test_inconsistent_annotation_rejected(self):
        root = {"type": "seq",
                "children": [task_dict("t1", "a", "-a"), task_dict("t2")]}
        with pytest.raises(InconsistentAnnotation, match="t1"):
            model_from_dict({"name": "bad", "root": root})

    def test_unknown_block_type_rejected(self):
        with pytest.raises(FileFormatError, match="loop"):
            model_from_dict({"root": {"type": "loop", "children": []}})

    def test_task_without_id_rejected(self):
        with pytest.raises(FileFormatError, match="id"):
            model_from_dict({"root": {"type": "task", "ann": []}})

    def test_missing_root_rejected(self):
        with pytest.raises(FileFormatError, match="root"):
            model_from_dict({"name": "nothing"})

    def test_non_list_children_rejected(self):
        with pytest.raises(FileFormatError, match="children"):
            model_from_dict({"root": {"type": "seq", "children": "t1"}})

    def test_reserved_and_duplicate_ids_rejected(self):
        reserved = {"type": "seq",
                    "children": [task_dict("__fork1"), task_dict("t2")]}
        with pytest.raises(InvalidTaskId):
            model_from_dict({"root": reserved})
        doubled = {"type": "seq",
                   "children": [task_dict("t1"), task_dict("t1")]}
        with pytest.raises(DuplicateTaskId):
            model_from_dict({"root": doubled})


class TestRuleFiles:
    def test_golden_rules_load(self):
        rs = load_rules(GOLDEN_RULES)
        assert classify_variant(rs) == VariantTag(True, False, True)
        o = rs.obligations[0]
        assert o.kind is Kind.ACHIEVEMENT and not o.is_global

    def test_dump_then_load_is_identity(self, tmp_path):
        rs = load_rules(GOLDEN_RULES)
        dump_rules(rs, tmp_path / "r.json")
        assert load_rules(tmp_path / "r.json") == rs

    @given(rule_sets())
    def test_dict_round_trip(self, rs):
        assert rules_from_dict(rules_to_dict(rs)) == rs

    def test_global_obligation_serialises_null_fields(self):
        rs = RuleSet((Obligation(Kind.MAINTENANCE, parse_formula("a & b")),))
        obj = rules_to_dict(rs)["obligations"][0]
        assert obj["trigger"] is None and obj["deadline"] is None
        assert rules_from_dict(rules_to_dict(rs)) == rs

    def test_empty_obligations_rejected(self):
        with pytest.raises(ValueError):
            rules_from_dict({"obligations": []})

    def test_trigger_without_deadline_rejected(self):
        with pytest.raises(ValueError):
            rules_from_dict({"obligations": [
                {"kind": "achievement", "requirement": "b", "trigger": "a",
                 "deadline": None}]})

    def test_bad_formula_syntax_rejected(self):
        with pytest.raises(FileFormatError):
            rules_from_dict({"obligations": [
                {"kind": "achievement", "requirement": "b &",
                 "trigger": None, "deadline": None}]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(FileFormatError):
            rules_from_dict({"obligations": [
                {"kind": "eventually", "requirement": "b",
                 "trigger": None, "deadline": None}]})


class TestReportFiles:
    @pytest.mark.parametrize("mode", ["full", "partial", "non"])
    def test_round_trip_across_modes(self, mode):
        report = run_check(load_model(GOLDEN_MODEL),
                           load_rules(GOLDEN_RULES), mode)
        assert report_from_dict(report_to_dict(report)) == report

    def test_json_shape(self):
        report = run_check(load_model(GOLDEN_MODEL),
                           load_rules(GOLDEN_RULES), "partial")
        obj = report_to_dict(report)
        assert set(obj) == {"mode", "verdict", "witness", "traces_examined",
                            "engine"}
        assert set(obj["witness"]) == {"execution", "states"}
        assert all(isinstance(s, list) for s in obj["witness"]["states"])


ALL_VARIANTS = [VariantTag(*bits)
                for bits in itertools.product((True, False), repeat=3)]


class TestGenerator:
    def test_same_seed_same_instance(self):
        cfg = GeneratorConfig(seed=1)
        assert generate_instance(cfg) == generate_instance(cfg)

    @pytest.mark.parametrize("variant", ALL_VARIANTS,
                             ids=[str(v) for v in ALL_VARIANTS])
    def test_rules_match_requested_variant(self, variant):
        for seed in range(5):
            _, rs = generate_instance(GeneratorConfig(seed=seed,
                                                      variant=variant))
            assert classify_variant(rs) == variant

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_task_budget_respected(self, seed):
        m, _ = generate_instance(GeneratorConfig(seed=seed, max_tasks=10))
        assert len(m.tasks()) - 2 <= 10  # start/end are not budgeted

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_annotations_stay_inside_the_atom_pool(self, seed):
        m, rs = generate_instance(GeneratorConfig(seed=seed, atom_pool=3))
        allowed = {"a", "b", "c"}
        for t in m.tasks():
            assert t.annotation.atoms() <= allowed

    def test_seeds_vary_the_instance(self):
        instances = {generate_instance(GeneratorConfig(seed=s))
                     for s in range(20)}
        assert len(instances) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, max_tasks=0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, atom_pool=0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, max_depth=0)


class TestCli:
    def test_enumerate_golden_rows(self, capsys):
        assert main(["enumerate", "--model", str(GOLDEN_MODEL)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert set(lines) == GOLDEN_ROWS and len(lines) == 4

    def test_enumerate_limit(self, capsys):
        assert main(["enumerate", "--model", str(GOLDEN_MODEL),
                     "--limit", "2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_classify_prints_tag(self, capsys):
        assert main(["classify", "--rules", str(GOLDEN_RULES)]) == 0
        assert capsys.readouterr().out.strip() == "1L-"

    def test_check_partial_true_exits_zero(self, capsys):
        code = main(["check", "--model", str(GOLDEN_MODEL),
                     "--rules", str(GOLDEN_RULES), "--mode", "partial"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["verdict"] is True
        assert report["witness"]["execution"] == ["start", "t2", "t3", "t4",
                                                  "end"]

    def test_check_full_false_exits_one(self, capsys):
        code = main(["check", "--model", str(GOLDEN_MODEL),
                     "--rules", str(GOLDEN_RULES), "--mode", "full"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["verdict"] is False

    def test_fast_engine_agrees_with_brute(self, capsys):
        for mode in ("full", "partial", "non"):
            brute = main(["check", "--model", str(GOLDEN_MODEL),
                          "--rules", str(GOLDEN_RULES), "--mode", mode])
            brute_report = json.loads(capsys.readouterr().out)
            fast = main(["check", "--model", str(GOLDEN_MODEL),
                         "--rules", str(GOLDEN_RULES), "--mode", mode,
                         "--engine", "fast"])
            fast_report = json.loads(capsys.readouterr().out)
            assert fast == brute
            assert fast_report["verdict"] == brute_report["verdict"]
            assert fast_report["engine"] == "fast"

    def test_fast_engine_refuses_other_variants(self, tmp_path, capsys):
        rules = tmp_path / "global.rules.json"
        dump_rules(RuleSet((Obligation(Kind.MAINTENANCE,
                                       parse_formula("a & b")),)), rules)
        code = main(["check", "--model", str(GOLDEN_MODEL),
                     "--rules", str(rules), "--mode", "partial",
                     "--engine", "fast"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "wrong-variant" and err["variant"] == "1G+"

    def test_strict_deadline_needs_brute(self, capsys):
        code = main(["check", "--model", str(GOLDEN_MODEL),
                     "--rules", str(GOLDEN_RULES), "--mode", "partial",
                     "--engine", "fast", "--strict-deadline"])
        assert code == 2
        assert "brute" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        code = main(["check", "--model", "/nonexistent.json",
                     "--rules", str(GOLDEN_RULES), "--mode", "full"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", str(GOLDEN_MODEL),
                  "--rules", str(GOLDEN_RULES), "--mode", "sometimes"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["check", "--model", str(GOLDEN_MODEL), "--rules", str(GOLDEN_RULES),
         "--mode", "full", "--jobs", "-5"],
        ["check", "--model", str(GOLDEN_MODEL), "--rules", str(GOLDEN_RULES),
         "--mode", "full", "--cap", "0"],
        ["enumerate", "--model", str(GOLDEN_MODEL), "--limit", "-1"],
    ])
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_long_sequence_needs_no_deep_recursion(self, tmp_path, capsys):
        model = tmp_path / "long.model.json"
        model.write_text(json.dumps({"name": "long", "root": {
            "type": "seq",
            "children": [task_dict(f"t{k}") for k in range(5000)]}}))
        code = main(["check", "--model", str(model),
                     "--rules", str(GOLDEN_RULES), "--mode", "full"])
        assert code in (0, 1)
        assert json.loads(capsys.readouterr().out)["traces_examined"] == 1
        assert main(["enumerate", "--model", str(model),
                     "--limit", "1"]) == 0
        row = capsys.readouterr().out.strip().split(" | ")[0]
        assert row.split(",") == ["start"] + [
            f"t{k}" for k in range(5000)] + ["end"]

    def test_reduce_verify_tautology(self, capsys):
        assert main(["reduce", "--formula", "a | !a", "--verify"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "tautology: true, full compliance: true"

    def test_reduce_verify_contingent_formula(self, capsys):
        assert main(["reduce", "--formula", "a -> b", "--verify"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "tautology: false, full compliance: false"

    def test_reduce_writes_checkable_files(self, tmp_path, capsys):
        model_file = tmp_path / "m.json"
        rules_file = tmp_path / "r.json"
        assert main(["reduce", "--formula", "a", "--out-model",
                     str(model_file), "--out-rules", str(rules_file)]) == 0
        capsys.readouterr()
        code = main(["check", "--model", str(model_file),
                     "--rules", str(rules_file), "--mode", "full"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["verdict"] is False
        assert report["witness"] is not None
        assert "-a" in report["witness"]["states"][-1]

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wfcheck.cli", "classify",
             "--rules", str(GOLDEN_RULES)],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "1L-"


class TestBench:
    def test_reduction_suite_doubles_traces(self, tmp_path):
        out = tmp_path / "red.csv"
        records = run_bench("reduction", 4, 6, out)
        assert [r.traces for r in records] == [16, 32, 64]
        assert all(r.verdict for r in records)
        assert [r.instance for r in records] == [
            "reduction-n4", "reduction-n5", "reduction-n6"]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 4 and all(len(r) == 6 for r in rows)

    def test_fastpath_suite_pairs_engines(self):
        records = run_bench("fastpath", 2, 4)
        assert len(records) == 6  # one brute + one fast row per n
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, {})[r.engine] = r
        for n, pair in by_n.items():
            assert pair["brute"].traces == 2 ** n
            assert pair["fast"].traces == 0
            assert pair["brute"].verdict == pair["fast"].verdict

    def test_empty_range_writes_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert main(["bench", "--suite", "reduction", "--n-min", "5",
                     "--n-max", "4", "--out", str(out)]) == 0
        assert out.read_text() == "instance,engine,n,wall_ms,traces,verdict\n"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_bench("quantum", 1, 2)
