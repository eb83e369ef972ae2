"""Compliance checking for block-structured workflow models."""

from .engine import ComplianceReport, Witness, run_check, trace_complies
from .fastpath import (TriggerAnalysis, WrongVariant, erase, label_triggers,
                       outcomes)
from .fileio import (dump_model, dump_rules, format_report, load_model,
                     load_rules)
from .formula import (EMPTY_STATE, Literal, State, eval_formula,
                      format_formula, parse_formula, tautology_truth_table,
                      update)
from .generate import GeneratorConfig, generate_instance
from .net import (ExecutionCapExceeded, Execution, Trace, compile_to_net,
                  derive_trace, enumerate_executions, enumerate_traces)
from .obligations import (Kind, Obligation, RuleSet, VariantTag,
                          classify_variant, eval_obligation,
                          in_force_intervals)
from .process import (AndBlock, Model, Seq, Task, Xor, and_,
                      count_executions, seq, task, validate, xor)
from .reduction import (ReductionCheck, ReductionInstance,
                        build_interpretation_model, verify_reduction_steps)

__all__ = [name for name in dir() if not name.startswith("_")]
