"""JSON file formats for models, rule sets and compliance reports.

A model file stores the block tree the user authored; the reserved
start/end wrapper is re-created on load, so load(dump(m)) rebuilds an
equal model.  Rule files hold formula strings in the parser's syntax, a
null trigger/deadline pair meaning the rule is in force globally.  Field
types and keys are checked on load (a key the format does not define, or
one given twice, is refused), so a malformed file raises FileFormatError
rather than an error from deep inside the constructors, and every error
raised while loading a file starts with that file's path.  Block trees
may nest at most ``process.MAX_DEPTH`` blocks deep; the reader stops at
that depth with ``process.ModelTooDeep``, as ``validate`` does.

For small inputs the file handling costs more than the check, so both
ends are kept cheap.  A file is read as bytes and decoded in one call,
which costs less than half of what text mode's reader does; its line
ends are then translated as text mode translates them, so a decode error
names the same line, column and char.  A path that does not open is
opened once more through ``pathlib``, so the error names the file as it
did when files were read with ``Path.read_text``.  ``format_report``
writes the report's fixed layout itself and encodes only the leaves,
because ``json.dumps`` given an indent runs its pure-Python encoder; its
bytes equal ``json.dumps(report_to_dict(report), indent=2)``.
"""
from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _quoted
from pathlib import Path

from .engine import ENGINES, MODES, ComplianceReport, Witness
from .formula import (InconsistentInput, State, format_formula,
                      parse_formula)
from .obligations import Kind, Obligation, RuleSet
from .process import (MAX_DEPTH, AndBlock, InconsistentAnnotation, Model,
                      ModelTooDeep, ProcessBlock, Seq, Task, Xor, validate)


class FileFormatError(ValueError):
    """The JSON is well-formed but does not describe a valid object."""


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise FileFormatError(f"{what} must be a string, got {value!r}")
    return value


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _object(obj, known: tuple[str, ...], where: str) -> dict:
    """obj, if it is an object of ``known`` keys, each given once."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object, got {obj!r}")
    if isinstance(obj, _KeyTwice):
        raise FileFormatError(f"{where}: duplicate key {obj.key!r}")
    for key in obj:
        if key not in known:
            raise FileFormatError(f"{where}: unknown key {key!r}")
    return obj


def _block_to_dict(block: ProcessBlock) -> dict:
    if isinstance(block, Task):
        return {"type": "task", "id": block.id,
                "ann": [str(l) for l in block.annotation.sorted_literals()]}
    tag = {Seq: "seq", Xor: "xor", AndBlock: "and"}[type(block)]
    return {"type": tag,
            "children": [_block_to_dict(c) for c in block.children]}


def _block_from_dict(obj, where: str = "root", depth: int = 1) -> ProcessBlock:
    if depth > MAX_DEPTH:
        raise ModelTooDeep(f"block tree nests more than {MAX_DEPTH} deep")
    if not isinstance(obj, dict) or "type" not in obj:
        raise FileFormatError(f"{where}: expected a block object, got {obj!r}")
    kind = obj["type"]
    if kind == "task":
        _object(obj, ("type", "id", "ann"), where)
        if "id" not in obj:
            raise FileFormatError(f"{where}: task block without an id")
        tid, ann = _string(obj["id"], f"{where}: task id"), obj.get("ann", [])
        if not _strings(ann):
            raise FileFormatError(f"task {tid!r}: ann must be a list of "
                                  f"strings, got {ann!r}")
        try:
            state = State.of(*ann)
        except InconsistentInput as err:
            raise InconsistentAnnotation(f"task {tid!r}: {err}") from err
        except ValueError as err:  # a bad atom name
            raise FileFormatError(f"{where}.ann: task {tid!r}: {err}") from err
        return Task(tid, state)
    try:
        ctor = {"seq": Seq, "xor": Xor, "and": AndBlock}[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable type value
        raise FileFormatError(
            f"{where}: unknown block type {kind!r}") from None
    _object(obj, ("type", "children"), where)
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise FileFormatError(f"{where}: children must be a list")
    return ctor(tuple(_block_from_dict(c, f"{where}.children[{k}]", depth + 1)
                      for k, c in enumerate(children)))


def model_to_dict(m: Model) -> dict:
    return {"name": m.name, "root": _block_to_dict(m.body)}


def model_from_dict(obj) -> Model:
    if "root" not in _object(obj, ("name", "root"), "model"):
        raise FileFormatError("model file needs a top-level 'root' block")
    return validate(_block_from_dict(obj["root"]),
                    name=_string(obj.get("name", "model"), "model name"))


class _KeyTwice(dict):
    """A decoded object given ``key`` twice; ``_object`` refuses it."""


def _keep_pairs(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj, seen = _KeyTwice(obj), set()
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_keep_pairs)


def _text(path) -> str:
    """The text of the file at ``path``, its lines ended as text mode ends
    them, so that decode errors name the same places."""
    try:
        f = open(os.fspath(path), "rb")
    except OSError:  # raised again naming the file as ``Path`` spells it
        f = open(Path(path), "rb")
    with f:
        text = f.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load(path, read):
    """``read`` of the JSON in the file at ``path``.  A ValueError raised
    while loading keeps its class and gets the path in front of its text."""
    try:
        return read(_DECODER.decode(_text(path)))
    except RecursionError:  # JSON too deep for the decoder
        raise ModelTooDeep(
            f"{path}: JSON nests more than {MAX_DEPTH} deep") from None
    except UnicodeDecodeError as err:  # its text ignores its args
        raise FileFormatError(f"{path}: {err}") from None
    except ValueError as err:
        err.args = (f"{path}: {err}",)
        raise


def _dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", "utf-8")


def load_model(path) -> Model:
    return _load(path, model_from_dict)


def dump_model(m: Model, path) -> None:
    _dump(model_to_dict(m), path)


def _obligation_to_dict(o: Obligation) -> dict:
    return {
        "kind": o.kind.value,
        "requirement": format_formula(o.requirement),
        "trigger": None if o.trigger is None else format_formula(o.trigger),
        "deadline": None if o.deadline is None else format_formula(o.deadline),
    }


def _obligation_from_dict(obj, where: str) -> Obligation:
    _object(obj, ("kind", "requirement", "trigger", "deadline"), where)
    fields, at = {"trigger": None, "deadline": None}, where  # or null
    try:
        for key, read in (("kind", Kind), ("requirement", parse_formula),
                          ("trigger", parse_formula),
                          ("deadline", parse_formula)):
            if key not in fields or obj.get(key) is not None:
                at = f"{where}.{key}"
                fields[key] = read(_string(obj[key], key))
        at = where
        return Obligation(**fields)
    except KeyError as err:
        raise FileFormatError(f"{where}: obligation without {err}") from None
    except ValueError as err:  # errors of reading the field at ``at``
        raise FileFormatError(f"{at}: {err}") from err


def rules_to_dict(rs: RuleSet) -> dict:
    return {"obligations": [_obligation_to_dict(o) for o in rs.obligations]}


def rules_from_dict(obj) -> RuleSet:
    if "obligations" not in _object(obj, ("obligations",), "rules"):
        raise FileFormatError("rules file needs an 'obligations' array")
    obligations = obj["obligations"]
    if not isinstance(obligations, list):
        raise FileFormatError("obligations must be a list")
    return RuleSet(tuple(_obligation_from_dict(o, f"obligations[{k}]")
                         for k, o in enumerate(obligations)))


def load_rules(path) -> RuleSet:
    return _load(path, rules_from_dict)


def dump_rules(rs: RuleSet, path) -> None:
    _dump(rules_to_dict(rs), path)


def _witness_to_dict(w: Witness | None):
    if w is None:
        return None
    return {"execution": list(w.execution),
            "states": [[str(l) for l in s.sorted_literals()]
                       for s in w.states]}


def _witness_from_dict(obj) -> Witness | None:
    if obj is None:
        return None
    _object(obj, ("execution", "states"), "witness")
    execution, states = obj.get("execution"), obj.get("states")
    if not (_strings(execution) and isinstance(states, list)
            and all(map(_strings, states))):
        raise FileFormatError("witness: execution must be a list of strings "
                              "and states a list of literal lists")
    try:
        states = tuple(State.of(*lits) for lits in states)
    except ValueError as err:  # a bad atom, or an atom and its negation
        raise FileFormatError(f"witness: {err}") from err
    if len(states) != len(execution):
        raise FileFormatError("witness: states must hold one state per task")
    return Witness(tuple(execution), states)


def report_to_dict(report: ComplianceReport) -> dict:
    return {"mode": report.mode, "verdict": report.verdict,
            "witness": _witness_to_dict(report.witness),
            "traces_examined": report.traces_examined,
            "engine": report.engine}


def report_from_dict(obj) -> ComplianceReport:
    obj = {"witness": None, "engine": "brute", **_object(
        obj, ("mode", "verdict", "witness", "traces_examined", "engine"),
        "report")}
    for key, kind in (("mode", str), ("verdict", bool),
                      ("traces_examined", int), ("engine", str)):
        if type(obj.get(key)) is not kind:  # a bool is no int here
            raise FileFormatError(
                f"report: {key!r} must be of type {kind.__name__}")
    if obj["traces_examined"] < 0:
        raise FileFormatError("report: 'traces_examined' must not be negative")
    for key, known in (("mode", MODES), ("engine", ENGINES)):
        if obj[key] not in known:
            raise FileFormatError(f"report: unknown {key} {obj[key]!r}")
    obj["witness"] = _witness_from_dict(obj["witness"])
    return ComplianceReport(**obj)


def _array(items: list[str], indent: str) -> str:
    """The JSON array of ``items``, each already JSON text, laid out as
    ``json.dumps(..., indent=2)`` lays out an array whose line starts at
    ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def format_report(report: ComplianceReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2)``, written field by
    field: given an indent, ``json.dumps`` runs its pure-Python encoder.
    Strings are encoded as ``json.dumps`` encodes them."""
    w = report.witness
    if w is None:
        witness = "null"
    else:
        execution = _array([_quoted(t) for t in w.execution], "    ")
        states = _array([_array([_quoted(str(l))
                                 for l in s.sorted_literals()], "      ")
                         for s in w.states], "    ")
        witness = ('{\n    "execution": ' + execution
                   + ',\n    "states": ' + states + "\n  }")
    return ('{\n  "mode": ' + _quoted(report.mode)
            + ',\n  "verdict": ' + json.dumps(report.verdict)
            + ',\n  "witness": ' + witness
            + ',\n  "traces_examined": ' + json.dumps(report.traces_examined)
            + ',\n  "engine": ' + _quoted(report.engine) + "\n}")
