"""File formats, the instance generator, the CLI and the bench harness."""
import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_example_model, build_level
from strategies import models, rule_sets
from test_acceptance import _render_everything
from wfcheck import fileio
from wfcheck.cli import main
from wfcheck.bench import CSV_HEADER, run_bench
from wfcheck.engine import run_check
from wfcheck.fileio import (MAX_DEPTH, FileFormatError, ModelTooDeep,
                            dump_model, dump_rules, load_model, load_rules,
                            model_from_dict, model_to_dict, report_from_dict,
                            report_to_dict, rules_from_dict, rules_to_dict)
from wfcheck.formula import MAX_FORMULA_DEPTH, parse_formula
from wfcheck.generate import GeneratorConfig, generate_instance
from wfcheck.obligations import (Kind, Obligation, RuleSet, VariantTag,
                                 classify_variant)
from wfcheck.process import (DuplicateTaskId, InconsistentAnnotation,
                             InvalidTaskId, seq, task, validate)

DATA = Path(__file__).resolve().parents[1] / "data"
SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
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


def nested_seq(depth):
    """A model dict whose blocks nest ``depth`` deep: seqs around a task."""
    root = task_dict("leaf", "a")
    for k in range(depth - 1):
        root = {"type": "seq", "children": [task_dict(f"t{k}", "b"), root]}
    return {"name": "deep", "root": root}


def nested_and(depth):
    """seq(x:{a}, and(chain, seq(y:{d}, w:{-d}))) nesting ``depth`` deep.
    The chain's seqs nest at their heads and its tasks toggle b, so each
    of its moves rebuilds the chain's residual all the way down."""
    chain = task_dict("zleaf", "b")
    for k in range(depth - 3):
        chain = {"type": "seq", "children": [
            chain, task_dict(f"z{k}", "-b" if k % 2 else "b")]}
    tail = {"type": "seq", "children": [task_dict("y", "d"),
                                        task_dict("w", "-d")]}
    return {"name": "deep-and", "root": {"type": "seq", "children": [
        task_dict("x", "a"), {"type": "and", "children": [chain, tail]}]}}


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

    @pytest.mark.parametrize("root", [
        {"type": "task", "id": "t1", "ann": "ab"},
        {"type": "task", "id": "t1", "ann": [5]},
        {"type": "task", "id": 5},
        {"type": ["seq"], "children": []},
    ])
    def test_mistyped_task_fields_rejected(self, root):
        with pytest.raises(FileFormatError):
            model_from_dict({"root": root})

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

    @pytest.mark.parametrize("shape", [nested_seq, nested_and],
                             ids=["seq", "and"])
    def test_model_at_the_depth_limit_loads_and_checks(self, tmp_path,
                                                        capsys, shape):
        path = tmp_path / "deep.model.json"
        path.write_text(json.dumps(shape(MAX_DEPTH)))
        m = load_model(path)
        rules = RuleSet((Obligation(Kind.ACHIEVEMENT, parse_formula("b"),
                                    parse_formula("a"),
                                    parse_formula("d")),))
        # nested_seq: b holds from t0 on, so the one interval, opened by
        # leaf, is met.  nested_and: y can reach d before the chain sets b.
        full = shape is nested_seq
        assert run_check(m, rules, "full").verdict is full
        assert run_check(m, rules, "full", engine="fast").verdict is full
        assert run_check(m, rules, "partial", engine="fast").verdict
        dump_model(m, path)
        assert load_model(path) == m
        assert repr(m).count("Task(") == len(m.tasks())
        limit = [] if full else ["--limit", "1"]
        assert main(["enumerate", "--model", str(path), *limit]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1
        assert rows[0].startswith(f"start,t{MAX_DEPTH - 2}," if full
                                  else "start,x,y,w,zleaf,")

    @pytest.mark.parametrize("reader,depth", [
        ("loader", MAX_DEPTH + 1), ("loader", 700),
        ("validate", MAX_DEPTH + 1), ("validate", 2000)],
        ids=["401", "700", "validate-401", "validate-2000"])
    def test_deeper_models_are_refused_by_name(self, reader, depth):
        with pytest.raises(ModelTooDeep, match=f"more than {MAX_DEPTH}"):
            if reader == "loader":
                model_from_dict(nested_seq(depth))
            else:  # a tree built in Python, which no reader has measured
                root = task("leaf", "a")
                for k in range(depth - 1):
                    root = seq(task(f"t{k}", "b"), root)
                validate(root)

    def test_json_too_deep_to_decode_is_refused_by_name(self, tmp_path):
        # deep enough for the decoder of every supported Python to give up
        depth = 100_000
        path = tmp_path / "deep.rules.json"
        path.write_text('{"obligations": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(ModelTooDeep, match=f"more than {MAX_DEPTH}"):
            load_rules(path)


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
        with pytest.raises(FileFormatError, match=re.escape(
                "obligations[0]: trigger and deadline must be both given")):
            rules_from_dict({"obligations": [
                {"kind": "achievement", "requirement": "b", "trigger": "a",
                 "deadline": None}]})

    def test_bad_formula_syntax_rejected(self):
        with pytest.raises(FileFormatError, match=re.escape(
                "obligations[0].requirement: unexpected end of input")):
            rules_from_dict({"obligations": [
                {"kind": "achievement", "requirement": "b &",
                 "trigger": None, "deadline": None}]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(FileFormatError, match=re.escape(
                "obligations[0].kind: 'eventually' is not a valid Kind")):
            rules_from_dict({"obligations": [
                {"kind": "eventually", "requirement": "b",
                 "trigger": None, "deadline": None}]})


DEEP_FORMULAS = ("(" * 300 + "a" + ")" * 300, "!" * 1000 + "a")

# Keys and words of the two file formats, so that fuzzed values reach past
# the top-level shape checks.
FORMAT_KEYS = ("type", "id", "ann", "children", "root", "name",
               "obligations", "kind", "requirement", "trigger", "deadline")
FORMAT_WORDS = ("task", "seq", "xor", "and", "achievement", "maintenance",
                "a", "-a", "b", "-", "t1", "start", "__t", "a & !b", "a ->",
                "true", "")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(FORMAT_WORDS) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(FORMAT_KEYS) | st.text(max_size=3), kids,
        max_size=6),
    max_leaves=40)


class TestLoaderFuzz:
    @settings(max_examples=200)
    @given(json_values)
    @example({"obligations": [{"kind": "maintenance",
                               "requirement": DEEP_FORMULAS[0]}]})
    @example({"obligations": [{"kind": "achievement", "requirement": "b",
                               "trigger": DEEP_FORMULAS[1],
                               "deadline": "d"}]})
    @example({"root": {"type": "task", "id": "t", "ann": [[[[["a"]]]]]}})
    def test_any_json_value_loads_or_raises_value_error(self, value):
        # any other exception fails the test: the CLI would not map it to
        # exit 2
        for loader in (model_from_dict, rules_from_dict):
            try:
                loader(value)
            except ValueError:
                pass


class TestReportFiles:
    @pytest.mark.parametrize("mode", ["full", "partial", "non"])
    def test_round_trip_across_modes(self, mode):
        report = run_check(load_model(GOLDEN_MODEL),
                           load_rules(GOLDEN_RULES), mode)
        assert report_from_dict(report_to_dict(report)) == report

    @pytest.mark.parametrize("engine", ["brute", "fast"])
    @pytest.mark.parametrize("mode", ["full", "partial", "non"])
    def test_round_trip_of_both_engines(self, mode, engine):
        report = run_check(load_model(GOLDEN_MODEL),
                           load_rules(GOLDEN_RULES), mode, engine=engine)
        obj = report_to_dict(report)
        assert report_from_dict(obj) == report
        assert report_to_dict(report_from_dict(obj)) == obj

    @pytest.mark.parametrize("change, message", [
        (lambda r: r.update(verdct=True), "report: unknown key 'verdct'"),
        (lambda r: r.pop("mode"), "report: 'mode' must be of type str"),
        (lambda r: r.pop("verdict"), "report: 'verdict' must be of type bool"),
        (lambda r: r.pop("traces_examined"),
         "report: 'traces_examined' must be of type int"),
        (lambda r: r.update(mode=5), "report: 'mode' must be of type str"),
        (lambda r: r.update(verdict="yes"),
         "report: 'verdict' must be of type bool"),
        (lambda r: r.update(traces_examined="3"),
         "report: 'traces_examined' must be of type int"),
        (lambda r: r.update(traces_examined=True),
         "report: 'traces_examined' must be of type int"),
        (lambda r: r.update(traces_examined=-1),
         "report: 'traces_examined' must not be negative"),
        (lambda r: r.update(engine=None), "report: 'engine' must be of type"),
        (lambda r: r.update(witness=5), "witness: expected an object"),
        (lambda r: r["witness"].update(trace=[]),
         "witness: unknown key 'trace'"),
        (lambda r: r["witness"].pop("states"), "witness: execution must be"),
        (lambda r: r["witness"].update(execution=5),
         "witness: execution must be"),
        (lambda r: r["witness"].update(execution=[5]),
         "witness: execution must be"),
        (lambda r: r["witness"].update(states=["a"]),
         "witness: execution must be"),
        (lambda r: r["witness"].update(states=[[5]]),
         "witness: execution must be"),
        (lambda r: r["witness"].update(states=[["a", "-a"]]),
         "witness: state holds both a and -a"),
        (lambda r: r["witness"].update(states=[["-"]]),
         "witness: bad atom name"),
        (lambda r: r.update(mode="sometimes"),
         "report: unknown mode 'sometimes'"),
        (lambda r: r.update(engine="turbo"),
         "report: unknown engine 'turbo'"),
        (lambda r: r["witness"].update(states=[]),
         "witness: states must hold one state per task"),
    ], ids=["key-unknown", "mode-missing", "verdict-missing",
            "examined-missing", "mode-number", "verdict-string",
            "examined-string", "examined-bool", "examined-negative",
            "engine-null", "witness-number",
            "witness-unknown", "states-missing", "execution-number",
            "execution-numbers", "states-strings", "states-numbers",
            "states-inconsistent", "states-bad-atom", "mode-unknown",
            "engine-unknown", "states-short"])
    def test_malformed_reports_are_refused(self, change, message):
        obj = report_to_dict(run_check(load_model(GOLDEN_MODEL),
                                       load_rules(GOLDEN_RULES), "partial"))
        assert obj["witness"] is not None
        change(obj)
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}"):
            report_from_dict(obj)
        with pytest.raises(FileFormatError, match="^report: expected an "
                                                  "object"):
            report_from_dict([obj])

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

    @pytest.mark.parametrize("model, rules, field", [
        ({"root": {"type": "task", "id": "t1", "ann": "ab"}}, None, "ann"),
        ({"root": {"type": "task", "id": "t1", "ann": [5]}}, None, "ann"),
        ({"root": {"type": "task", "id": 5}}, None,
         "root: task id must be a string"),
        ({"name": 5, "root": task_dict("t1")}, None, "model name"),
        (None, {"obligations": [{"kind": "achievement", "requirement": 5,
                                 "trigger": None, "deadline": None}]},
         "requirement"),
        (None, {"obligations": [{"kind": "achievement", "requirement": "a",
                                 "trigger": ["a"], "deadline": "b"}]},
         "trigger"),
        (None, {"obligations": 5}, "obligations"),
        (None, {"obligations": [{"requirement": "a", "trigger": None,
                                 "deadline": None}]},
         "obligations[0]: obligation without 'kind'"),
        # a key the format does not define, one per field, names itself
        ({"nme": "m", "root": task_dict("t1")}, None,
         "model: unknown key 'nme'"),
        ({"rot": task_dict("t1")}, None, "model: unknown key 'rot'"),
        ({"root": {"typ": "task", "id": "t1"}}, None,
         "root: expected a block object, got {'typ': 'task', 'id': 't1'}"),
        ({"root": {"type": "task", "idd": "t1"}}, None,
         "root: unknown key 'idd'"),
        ({"root": {"type": "seq", "children": [
            task_dict("t1"), {"type": "task", "id": "t2",
                              "annotation": ["a"]}]}}, None,
         "root.children[1]: unknown key 'annotation'"),
        ({"root": {"type": "xor", "childs": [task_dict("t1")]}}, None,
         "root: unknown key 'childs'"),
        ({"root": {"type": "seq", "children": [
            task_dict("t1"), {"type": "and", "children": [
                {"type": "loop", "children": [task_dict("t2")]}]}]}}, None,
         "root.children[1].children[0]: unknown block type 'loop'"),
        (None, {"obligation": []}, "rules: unknown key 'obligation'"),
        (None, {"obligations": [{"knd": "maintenance", "requirement": "b"}]},
         "obligations[0]: unknown key 'knd'"),
        (None, {"obligations": [{"kind": "maintenance", "requirment": "b"}]},
         "obligations[0]: unknown key 'requirment'"),
        (None, {"obligations": [{"kind": "maintenance", "requirement": "b"},
                                {"kind": "achievement", "requirement": "b",
                                 "triger": "a", "deadline": "d"}]},
         "obligations[1]: unknown key 'triger'"),
        (None, {"obligations": [{"kind": "achievement", "requirement": "b",
                                 "trigger": "a", "dedline": "d"}]},
         "obligations[0]: unknown key 'dedline'"),
        # an unreadable value names its place, as the keys above do
        (None, {"obligations": [{"kind": "achievement", "requirement": "b &",
                                 "trigger": None, "deadline": None}]},
         "obligations[0].requirement: unexpected end of input (offset 3)"),
        (None, {"obligations": [{"kind": "maintenance", "requirement": "b"},
                                {"kind": "achievement", "requirement": "b",
                                 "trigger": "a", "deadline": "d |"}]},
         "obligations[1].deadline: unexpected end of input (offset 3)"),
        (None, {"obligations": [{"kind": "bogus", "requirement": "b"}]},
         "obligations[0].kind: 'bogus' is not a valid Kind"),
        (None, {"obligations": [{"kind": "achievement", "requirement": "b",
                                 "trigger": "a"}]},
         "obligations[0]: trigger and deadline must be both given or both "
         "omitted"),
        ({"root": {"type": "seq", "children": [
            task_dict("t1"), {"type": "task", "id": "t2", "ann": ["-"]}]}},
         None, "root.children[1].ann: task 't2': bad atom name: ''"),
        ({"root": {"type": "task", "id": "t1", "ann": ["a", "true"]}}, None,
         "root.ann: task 't1': bad atom name: 'true'"),
    ], ids=["ann-string", "ann-number", "id-number", "name-number",
            "requirement-number", "trigger-list", "obligations-number",
            "kind-missing", "name-unknown", "root-unknown", "type-unknown",
            "id-unknown", "ann-unknown", "children-unknown", "type-loop",
            "obligations-unknown", "kind-unknown", "requirement-unknown",
            "trigger-unknown", "deadline-unknown", "requirement-syntax",
            "deadline-syntax", "kind-bogus", "deadline-missing",
            "ann-dash", "ann-keyword"])
    def test_mistyped_fields_exit_two(self, tmp_path, capsys, model, rules,
                                      field):
        model_path, rules_path = GOLDEN_MODEL, GOLDEN_RULES
        if model is not None:
            model_path = tmp_path / "bad.model.json"
            model_path.write_text(json.dumps(model))
        if rules is not None:
            rules_path = tmp_path / "bad.rules.json"
            rules_path.write_text(json.dumps(rules))
        code = main(["check", "--model", str(model_path),
                     "--rules", str(rules_path), "--mode", "full"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("option, text, place, key", [
        ("--model", '{"root": {"type": "task", "id": "b", "id": "c"}}',
         "root", "id"),
        ("--rules", '{"obligations": [{"kind": "maintenance", '
                    '"requirement": "a", "requirement": "b"}]}',
         "obligations[0]", "requirement"),
        ("--model", '{"root": {"type": "seq", "children": ['
                    '{"type": "task", "id": "a"}, '
                    '{"type": "task", "id": "b", "id": "c"}]}}',
         "root.children[1]", "id"),
        ("--model", '{"root": {"type": "and", "children": [], '
                    '"children": []}}', "root", "children"),
        ("--rules", '{"obligations": [], "obligations": []}', "rules",
         "obligations"),
    ], ids=["model", "rules", "nested-block", "composite", "rules-top"])
    def test_duplicate_keys_exit_two_by_name(self, tmp_path, capsys, option,
                                             text, place, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        files = {"--model": str(GOLDEN_MODEL), "--rules": str(GOLDEN_RULES),
                 option: str(path)}
        code = main(["check", *itertools.chain(*files.items()),
                     "--mode", "full"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {place}: duplicate key {key!r}\n")

    def test_duplicate_key_in_a_report_witness_names_its_place(self,
                                                               tmp_path):
        path = tmp_path / "twice.report.json"
        path.write_text('{"mode": "partial", "verdict": true, '
                        '"traces_examined": 1, "engine": "brute", '
                        '"witness": {"execution": ["t"], "states": [["a"]], '
                        '"states": [["a"]]}}')
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}: witness: duplicate key 'states'")):
            fileio._load(path, report_from_dict)

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

    @pytest.mark.parametrize("ids, message", [
        (("x", "x"), "duplicate task id 'x'"),
        (("start", "x"), "task id 'start' is reserved for the boundary tasks"),
        (("x", "end"), "task id 'end' is reserved for the boundary tasks"),
    ])
    def test_duplicate_and_reserved_ids_exit_two_by_name(self, tmp_path,
                                                          capsys, ids,
                                                          message):
        path = tmp_path / "ids.model.json"
        path.write_text(json.dumps({"root": {
            "type": "seq", "children": [task_dict(i) for i in ids]}}))
        assert main(["check", "--model", str(path), "--rules",
                     str(GOLDEN_RULES), "--mode", "full"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("option, content, message", [
        ("--model", b'{"root": ',
         "Expecting value: line 1 column 10 (char 9)"),
        ("--model", b'{"root": "\xff"}', "'utf-8' codec can't decode byte "
                                         "0xff in position 10: invalid start "
                                         "byte"),
        ("--model", {"root": {"type": "loop", "children": []}},
         "root: unknown block type 'loop'"),
        ("--model", {"root": task_dict("t1", "a", "-a")},
         "task 't1': state holds both a and -a"),
        ("--model", {"root": {"type": "xor", "children": [
            task_dict("x"), task_dict("x")]}}, "duplicate task id 'x'"),
        ("--model", nested_seq(MAX_DEPTH + 1),
         f"block tree nests more than {MAX_DEPTH} deep"),
        ("--rules", {"obligations": [{"kind": "achievement",
                                      "requirement": "b &"}]},
         "obligations[0].requirement: unexpected end of input (offset 3)"),
        ("--rules", {"obligations": [{"kind": "eventually",
                                      "requirement": "b"}]},
         "obligations[0].kind: 'eventually' is not a valid Kind"),
        ("--rules", {"obligations": [{"kind": "achievement",
                                      "requirement": "b", "triger": "a",
                                      "deadline": "d"}]},
         "obligations[0]: unknown key 'triger'"),
    ], ids=["truncated", "not-utf8", "block-type", "clash", "duplicate-id",
            "too-deep", "formula", "kind", "key"])
    def test_every_load_error_names_its_file(self, tmp_path, capsys, option,
                                             content, message):
        path = tmp_path / f"bad.{option[2:]}.json"
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps(content).encode())
        files = {"--model": str(GOLDEN_MODEL), "--rules": str(GOLDEN_RULES),
                 option: str(path)}
        code = main(["check", *itertools.chain(*files.items()),
                     "--mode", "full"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_wide_choice_model_meets_the_exit_contract_in_time(self,
                                                               tmp_path):
        # 2**120 runs: the brute engine must refuse them by the cap without
        # a slow count, the fast engine needs no run at all, and a listing
        # with a limit counts nothing
        model = tmp_path / "level4.model.json"
        rules = tmp_path / "level4.rules.json"
        dump_model(validate(build_level(4), name="level4"), model)
        rules.write_text(json.dumps({"obligations": [
            {"kind": "achievement", "requirement": "a", "trigger": "a",
             "deadline": "!a"}]}))

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "wfcheck.cli", *args, "--model",
                 str(model)], capture_output=True, text=True, timeout=10,
                env={**os.environ, "PYTHONPATH": str(SRC)})

        def check(*flags):
            return cli("check", "--rules", str(rules), "--mode", "full",
                       *flags)

        brute = check()
        assert brute.returncode == 2 and brute.stdout == ""
        assert "exceed the cap of 1048576" in brute.stderr
        fast = check("--engine", "fast")
        assert fast.returncode == 0
        assert json.loads(fast.stdout)["verdict"] is True
        listing = cli("enumerate", "--limit", "2")
        assert listing.returncode == 0 and listing.stderr == ""
        assert len(listing.stdout.splitlines()) == 2

    def test_deep_model_exits_two_with_the_named_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "deep.model.json"
        level = '{"type": "seq", "children": [{"type": "task", "id": "t"}, '
        path.write_text('{"root": ' + level * 1199
                        + '{"type": "task", "id": "u"}' + "]}" * 1199 + "}")
        assert main(["check", "--model", str(path), "--rules",
                     str(GOLDEN_RULES), "--mode", "full"]) == 2
        # the decoder or the loader refuses it, depending on the Python
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"nests more than {MAX_DEPTH} deep" in err

    @pytest.mark.parametrize("depth", [MAX_FORMULA_DEPTH,
                                       MAX_FORMULA_DEPTH + 1])
    def test_deep_formulas_check_or_exit_two_by_name(self, tmp_path, capsys,
                                                     depth):
        path = tmp_path / "deep.rules.json"
        # depth - 2 negations, then a bracket and a negation inside it
        deep = "!" * (depth - 2) + "(b | !b)"
        path.write_text(json.dumps({"obligations": [
            {"kind": "maintenance", "requirement": deep, "trigger": "a",
             "deadline": "d"}]}))
        code = main(["check", "--model", str(GOLDEN_MODEL), "--rules",
                     str(path), "--mode", "full"])
        out, err = capsys.readouterr()
        if depth == MAX_FORMULA_DEPTH:
            # an even number of negations over a tautology never fails
            assert depth % 2 == 0 and code == 0
            assert json.loads(out)["traces_examined"] == 4
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ")
            assert f"formula nests more than {MAX_FORMULA_DEPTH} deep" \
                in err

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


def run_python(args, hash_seed: int, **kwargs):
    """Run a fresh interpreter on src/ and tests/ under a fixed hash seed."""
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, **kwargs)


class TestReportCorpus:
    def test_report_bytes_match_the_recorded_digest(self):
        # a change that alters report bytes on purpose updates the digest
        # and says why
        script = TESTS.parent / "scripts" / "report_corpus.py"
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        recorded = (TESTS / "report_corpus.sha256").read_text().strip()
        assert hashlib.sha256(proc.stdout).hexdigest() == recorded


class TestAtomNumbering:
    """States number atoms first come, first numbered, so the numbering
    differs between processes; nothing printed may depend on it, nor on
    the hash seed."""

    @pytest.mark.parametrize("ann", [["a", "-a", "b", "-b"],
                                     ["b", "-b", "a", "-a"]])
    def test_clash_message_names_the_first_atom_under_every_hash_seed(
            self, tmp_path, ann):
        model = tmp_path / "clash.json"
        model.write_text(json.dumps({"root": task_dict("t1", *ann)}))
        errors = set()
        for seed in (1, 2, 3, 6):
            proc = run_python(["-m", "wfcheck.cli", "check", "--model",
                               str(model), "--rules", str(GOLDEN_RULES),
                               "--mode", "full"], seed, text=True)
            assert proc.returncode == 2 and proc.stdout == ""
            errors.add(proc.stderr)
        assert errors == {
            f"error: {model}: task 't1': state holds both a and -a\n"}

    def test_criterion_9_rendering_ignores_the_atom_numbering(self):
        # the fresh interpreter numbers the atoms in reverse alphabetical
        # order before it renders anything
        script = ("import string, sys\n"
                  "from wfcheck.formula import State\n"
                  "for a in sorted(string.ascii_lowercase, reverse=True):\n"
                  "    State.of(a)\n"
                  "from test_acceptance import _render_everything\n"
                  "sys.stdout.buffer.write(_render_everything(jobs=1))\n")
        proc = run_python(["-c", script], hash_seed=7)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _render_everything(jobs=1)


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

    def test_cli_writes_the_suite_to_csv(self, tmp_path, capsys):
        out = tmp_path / "fast.csv"
        assert main(["bench", "--suite", "fastpath", "--n-min", "2",
                     "--n-max", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 4 records to {out}\n"
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_HEADER)
        assert [row[:2] for row in rows[1:]] == [
            ["fastpath-n2", "brute"], ["fastpath-n2", "fast"],
            ["fastpath-n3", "brute"], ["fastpath-n3", "fast"]]

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

    def test_parallel_suite_engines_agree(self):
        records = run_bench("parallel", 1, 4)
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, {})[r.engine] = r
        # 63,063,000 runs at n = 4: past the cap, so fast only
        assert sorted(by_n[4]) == ["fast"] and not by_n[4]["fast"].verdict
        for n in (1, 2, 3):
            assert by_n[n]["brute"].verdict == by_n[n]["fast"].verdict
        assert by_n[3]["brute"].traces == 1680

    @pytest.mark.parametrize("suite,n_min,n_max", [
        pytest.param("reduction", "0", "2", id="zero"),
        pytest.param("reduction", "-3", "2", id="negative"),
        pytest.param("reduction", "25", "27", id="past-26-atoms"),
        pytest.param("fastpath", "3", "1", id="reversed"),
    ])
    def test_bad_n_range_exits_two(self, tmp_path, capsys, suite, n_min,
                                   n_max):
        out = tmp_path / "bad.csv"
        assert main(["bench", "--suite", suite, "--n-min", n_min,
                     "--n-max", n_max, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_bench("quantum", 1, 2)
