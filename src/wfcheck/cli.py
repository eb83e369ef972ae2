"""Command-line front end.

Subcommands: check (run a compliance mode and print the report as
JSON), reduce (build the interpretation model for a formula), enumerate
(print every run with its trace, two columns), classify (print a rule
set's variant tag) and bench (time an engine suite into a CSV).

Exit codes: 0 for a true verdict (or plain success), 1 for a false
verdict, 2 for any error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .bench import SUITES, run_bench
from .engine import DEFAULT_CAP, ENGINES, MODES, run_check
from .fastpath import WrongVariant
from .fileio import (dump_model, dump_rules, format_report, load_model,
                     load_rules)
from .formula import parse_formula
from .net import enumerate_traces
from .obligations import classify_variant
from .reduction import build_interpretation_model, verify_reduction_steps


def _cmd_check(args) -> int:
    model = load_model(args.model)
    rules = load_rules(args.rules)
    report = run_check(model, rules, args.mode, engine=args.engine,
                       jobs=args.jobs, cap=args.cap,
                       strict_deadline=args.strict_deadline)
    print(format_report(report))
    return 0 if report.verdict else 1


def _cmd_reduce(args) -> int:
    formula = parse_formula(args.formula)
    instance = build_interpretation_model(formula)
    if args.out_model:
        dump_model(instance.model, args.out_model)
    if args.out_rules:
        dump_rules(instance.rules, args.out_rules)
    if args.verify:
        check = verify_reduction_steps(formula)
        print("tautology: {}, full compliance: {}".format(
            json.dumps(check.tautology), json.dumps(check.full_compliance)))
        return 0 if check.passed else 1
    return 0


def _format_row(trace) -> str:
    ids = ",".join(trace.task_ids())
    states = ", ".join(str(s) for s in trace.states())
    return f"{ids} | {states}"


def _cmd_enumerate(args) -> int:
    model = load_model(args.model)
    if args.limit is None:
        runs = enumerate_traces(model)
    else:
        runs = itertools.islice(
            enumerate_traces(model, cap=None), args.limit)
    for trace in runs:
        print(_format_row(trace))
    return 0


def _cmd_classify(args) -> int:
    print(classify_variant(load_rules(args.rules)))
    return 0


def _cmd_bench(args) -> int:
    records = run_bench(args.suite, args.n_min, args.n_max, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfcheck",
        description="compliance checking for annotated block-structured "
                    "process models")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one compliance check")
    check.add_argument("--model", required=True)
    check.add_argument("--rules", required=True)
    check.add_argument("--mode", required=True, choices=MODES)
    check.add_argument("--engine", default="brute", choices=ENGINES)
    check.add_argument("--jobs", type=positive_int, default=1,
                       help="accepted and ignored: checks run in one thread")
    check.add_argument(
        "--cap", type=positive_int, default=DEFAULT_CAP,
        help="brute: most runs the model may have; fast: most (residual, "
             "carry) pairs one and-block search may explore "
             "(default: %(default)s)")
    check.add_argument("--strict-deadline", action="store_true")
    check.set_defaults(handler=_cmd_check)

    reduce_ = sub.add_parser(
        "reduce", help="build the interpretation model of a formula")
    reduce_.add_argument("--formula", required=True)
    reduce_.add_argument("--out-model")
    reduce_.add_argument("--out-rules")
    reduce_.add_argument("--verify", action="store_true")
    reduce_.set_defaults(handler=_cmd_reduce)

    enum = sub.add_parser(
        "enumerate", help="print every run and its trace")
    enum.add_argument("--model", required=True)
    enum.add_argument("--limit", type=positive_int)
    enum.set_defaults(handler=_cmd_enumerate)

    classify = sub.add_parser(
        "classify", help="print a rule set's variant tag")
    classify.add_argument("--rules", required=True)
    classify.set_defaults(handler=_cmd_classify)

    bench = sub.add_parser("bench", help="time an engine suite")
    bench.add_argument("--suite", required=True, choices=SUITES.keys())
    bench.add_argument("--n-min", type=int, required=True)
    bench.add_argument("--n-max", type=int, required=True)
    bench.add_argument("--out", required=True)
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except WrongVariant as err:
        print(json.dumps({"error": "wrong-variant", "variant": err.variant,
                          "message": str(err)}), file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
