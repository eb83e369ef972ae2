"""The oracle against hand-worked semantics, closed forms, and wfcheck."""
import json
import random
from pathlib import Path

import pytest

import oracle
from wfcheck.engine import run_check
from wfcheck.fileio import (model_from_dict, model_to_dict, rules_from_dict,
                            rules_to_dict)
from wfcheck.generate import GeneratorConfig, generate_instance
from workloads import TAGS, A, S, T, X, rule

DATA = Path(__file__).resolve().parents[2] / "data"


def shipped():
    return (json.loads((DATA / "parallel_choice.model.json").read_text()),
            json.loads((DATA / "parallel_choice.rules.json").read_text()))


def model(tree):
    return {"name": "m", "root": tree}


def complies(tree, rules_dict, strict=False):
    """Compliance of each run, in the engine's order."""
    return oracle.Oracle(model(tree), rules_dict, strict).complies


def test_golden_runs_of_the_shipped_example():
    m, r = shipped()
    o = oracle.Oracle(m, r)
    assert o.runs == [("start", "t1", "t3", "t4", "end"),
                      ("start", "t2", "t3", "t4", "end"),
                      ("start", "t3", "t1", "t4", "end"),
                      ("start", "t3", "t2", "t4", "end")]
    assert o.listing() == [
        "start,t1,t3,t4,end | {}, {a}, {a, c, d}, {-a, c, d}, {-a, c, d}",
        "start,t2,t3,t4,end | {}, {b, c}, {b, c, d}, {-a, b, c, d}, "
        "{-a, b, c, d}",
        "start,t3,t1,t4,end | {}, {c, d}, {a, c, d}, {-a, c, d}, "
        "{-a, c, d}",
        "start,t3,t2,t4,end | {}, {c, d}, {b, c, d}, {-a, b, c, d}, "
        "{-a, b, c, d}"]
    # <b, a, d>: t1 opens an interval that b never closes; t2 runs trigger
    # nothing; after t3 the deadline already holds when t1 fires
    assert o.complies == [False, True, False, True]
    assert o.expect("full") == oracle.Expected(False, 1, {
        "execution": ["start", "t1", "t3", "t4", "end"],
        "states": [[], ["a"], ["a", "c", "d"], ["-a", "c", "d"],
                   ["-a", "c", "d"]]})
    assert o.expect("partial").traces_examined == 2
    assert o.expect("partial").verdict is True
    assert o.expect("non").verdict is False


def test_last_state_counts_as_a_deadline():
    tree = S(T("x", "a", "c"), T("y", "b"))
    # no deadline state: the interval runs to the last state
    assert complies(tree, rule("achievement", "b", "a", "d")) == [True]
    assert complies(tree, rule("maintenance", "c", "a", "d")) == [True]
    assert complies(tree, rule("achievement", "e", "a", "d")) == [False]
    retract = S(T("x", "a", "c"), T("y", "-c"))
    assert complies(retract, rule("maintenance", "c", "a", "d")) == [False]


def test_intervals_are_anchored_at_trigger_annotations():
    # a persists into q's state, but q's annotation does not assert a, so
    # q opens no interval (one opened there would fail at z)
    tree = S(T("x", "a"), T("p", "b"), T("q", "-b"), T("z", "d"))
    assert complies(tree, rule("achievement", "b", "a", "d")) == [True]
    # a trigger on a negative literal holds on every annotation without a
    neg = S(T("x", "a"), T("z", "d"))
    o = oracle.Oracle(model(neg), rule("achievement", "b", "!a", "d"))
    assert o.complies == [False]  # start opens an interval at once


def test_strict_deadline_counts_deadlines_before_the_trigger():
    tree = S(T("w", "d"), T("v", "-d"), T("x", "a"), T("p", "b"))
    r = rule("achievement", "b", "a", "d")
    assert complies(tree, r) == [True]
    assert complies(tree, r, strict=True) == [False]
    # maintenance ignores the flag
    m = rule("maintenance", "!e", "a", "d")
    assert complies(tree, m, strict=True) == complies(tree, m) == [True]


def test_global_rules_cover_the_whole_trace():
    tree = S(T("x", "a"), T("y", "-a"))
    assert complies(tree, rule("achievement", "a")) == [True]
    assert complies(tree, rule("maintenance", "a")) == [False]
    assert complies(tree, rule("maintenance", "!b")) == [True]


def test_formula_syntax():
    assert oracle.parse("!a & (b | c) -> d") == (
        "imp", ("and", ("not", ("atom", "a")),
                ("or", ("atom", "b"), ("atom", "c"))), ("atom", "d"))
    assert oracle.parse("a -> b -> c") == (
        "imp", ("atom", "a"), ("imp", ("atom", "b"), ("atom", "c")))
    assert oracle.is_tautology("(a -> b) | (b -> a)")
    assert not oracle.is_tautology("a | b")
    assert oracle.is_tautology("true") and not oracle.is_tautology("false")


@pytest.mark.parametrize("k,m", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_chain_interleavings_closed_form(k, m):
    block = A(*[S(*[T(f"c{i}_{j}") for j in range(m)]) for i in range(k)])
    runs = oracle.block_runs(block)
    assert len(runs) == len(set(runs)) == oracle.interleavings(k, m)


def random_tree(rng, ids, depth):
    if depth == 0 or rng.random() < 0.3:
        ann = [a if rng.random() < 0.5 else "-" + a
               for a in rng.sample("abd", rng.randint(0, 2))]
        return T(f"t{next(ids)}", *ann)
    kind = rng.choice((S, X))
    return kind(*[random_tree(rng, ids, depth - 1)
                  for _ in range(rng.randint(2, 3))])


def test_choice_summaries_agree_with_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        tree = random_tree(rng, iter(range(100)), 4)
        kind = rng.choice(("achievement", "maintenance"))
        lits = [rng.choice((a, "!" + a)) for a in "bad"]
        r = rule(kind, *lits)
        full = oracle.Oracle(model(tree), r)
        for mode in ("full", "partial", "non"):
            assert oracle.choice_fast_verdict(model(tree), r, mode) == \
                full.expect(mode).verdict


@pytest.mark.parametrize("tag", TAGS, ids=str)
def test_oracle_matches_the_brute_engine(tag):
    """The oracle reproduces wfcheck's reports on generated models."""
    for seed in range(40):
        m, r = generate_instance(GeneratorConfig(seed=seed, variant=tag))
        md, rd = model_to_dict(m), rules_to_dict(r)
        for strict in (False, True):
            o = oracle.Oracle(md, rd, strict)
            for mode in ("full", "partial", "non"):
                report = run_check(model_from_dict(md), rules_from_dict(rd),
                                   mode, strict_deadline=strict)
                want = o.expect(mode)
                assert report.verdict == want.verdict
                assert report.traces_examined == want.traces_examined
                got = None if report.witness is None else {
                    "execution": list(report.witness.execution),
                    "states": [[str(l) for l in s.sorted_literals()]
                               for s in report.witness.states]}
                assert got == want.witness
