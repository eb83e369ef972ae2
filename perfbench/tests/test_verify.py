"""A wrong output must count as a failed operation."""
import dataclasses
import json
import random

import pytest

import run
import tracing
import workloads
from test_oracle import shipped
from wfcheck.formula import State
from workloads import Check, Listing


@pytest.fixture
def case(tmp_path):
    m, r = shipped()
    return workloads.write(workloads.tree_case("shipped", m["root"], r),
                           tmp_path)


def outcome(op, output):
    expected = workloads.Expectations().expect(op)
    return workloads.verify(op, output, expected, tracing.Tracer(False))[0]


def corruptions(report):
    """The report with a flipped verdict, a shifted examined count, or one
    witness state altered."""
    witness = report.witness
    states = list(witness.states)
    states[1] = State.of("z")
    yield dataclasses.replace(report, verdict=not report.verdict)
    yield dataclasses.replace(report, traces_examined=report.traces_examined
                              + 1)
    yield dataclasses.replace(report, traces_examined=report.traces_examined
                              - 1)
    yield dataclasses.replace(report, witness=dataclasses.replace(
        witness, states=tuple(states)))


@pytest.mark.parametrize("mode", ["full", "partial", "non"])
def test_corrupted_reports_fail(case, mode):
    op = Check(case, "brute", mode)
    report = workloads.execute(op)
    assert outcome(op, report)
    for bad in corruptions(report):
        assert not outcome(op, bad)


def test_corrupted_cli_output_fails(case):
    op = Check(case, "brute", "partial", cli=True)
    code, text = workloads.execute(op)
    assert outcome(op, (code, text))
    got = json.loads(text)
    for key, value in (("verdict", not got["verdict"]),
                       ("traces_examined", got["traces_examined"] + 1)):
        assert not outcome(op, (code, json.dumps({**got, key: value})))
    got["witness"]["states"][2] = ["a"]
    assert not outcome(op, (code, json.dumps(got)))
    assert not outcome(op, (1 - code, text))  # exit code disagrees


def test_wrong_fast_verdict_fails(case):
    op = Check(case, "fast", "full")
    report = workloads.execute(op)
    assert outcome(op, report)
    assert not outcome(op, dataclasses.replace(report,
                                               verdict=not report.verdict))


def test_altered_listing_fails(case):
    op = Listing(case)
    code, text = workloads.execute(op)
    assert outcome(op, (code, text))
    lines = text.splitlines()
    swapped = [lines[1], lines[0]] + lines[2:]
    for bad in (lines[:-1], swapped, lines + lines[-1:],
                [lines[0].replace("{a}", "{b}")] + lines[1:]):
        assert not outcome(op, (code, "\n".join(bad) + "\n"))


@pytest.mark.parametrize("kind", ["verdict", "examined+1", "examined-1",
                                  "witness state"])
def test_round_counts_every_corrupted_check(case, monkeypatch, kind):
    ops = [Check(case, "brute", mode) for mode in ("full", "partial", "non")]
    real = workloads.execute
    which = ["verdict", "examined+1", "examined-1", "witness state"]

    def corrupted(op):
        return list(corruptions(real(op)))[which.index(kind)]

    monkeypatch.setattr(workloads, "execute", corrupted)
    result = run.measure(ops, 0, tracing.Tracer(False))
    assert result["attempted"] == result["failed"] == 3


def test_reenactment_reproduces_the_engine(case):
    tracer = tracing.Tracer(True)
    for mode in ("full", "partial", "non"):
        op = Check(case, "brute", mode)
        got = json.loads(workloads.format_report(workloads.execute(op)))
        assert tracing.reenact(tracer, op, got)
        shifted = {**got, "traces_examined": got["traces_examined"] + 1}
        assert not tracing.reenact(tracer, op, shifted)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def build(sub):
        (tmp_path / sub).mkdir()
        ops = workloads.WORKLOADS[name](random.Random(3), tmp_path / sub,
                                        tracing.Tracer(False))
        return [(op.case.model_dict, op.case.rules_dict,
                 getattr(op, "mode", None)) for op in ops]
    assert build("a") == build("b")


def test_unreadable_cli_output_counts_as_failed(case, monkeypatch):
    ops = [Check(case, "brute", "full", cli=True)]
    monkeypatch.setattr(workloads, "execute", lambda op: (2, ""))
    result = run.measure(ops, 0, tracing.Tracer(False))
    assert result["attempted"] == result["failed"] == 1
