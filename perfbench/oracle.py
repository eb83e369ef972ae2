"""Reference semantics for checking wfcheck's outputs, written apart from it.

The oracle reads models and rule sets in their JSON file form (the dicts
that ``model_to_dict`` / ``rules_to_dict`` produce, or that the benchmark
builds itself) and never calls into ``wfcheck``.  It follows the semantics
stated in PAPER.md and in the ``obligations`` docstrings:

* a run is the model's tasks in firing order, wrapped between the
  unannotated ``start`` and ``end`` tasks; ``seq`` concatenates, ``xor``
  picks one branch, ``and`` shuffles its children's runs;
* the brute engine's order is the lexicographic order of the task-id
  sequences (its depth-first search branches on the next task by id);
* a state maps atoms to truth values; a task's literals overwrite it, and
  an atom the state does not mention reads as false (closed world);
* a global rule is in force over the whole trace (maintenance: every
  state, achievement: some state); a local rule opens an interval at every
  step whose task *annotation* satisfies the trigger, which ends at the
  first deadline state from there on, or at the last state;
* under ``strict_deadline`` a local achievement interval also fails when
  any deadline state before the requirement, from the start of the trace,
  comes first.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from math import factorial

START, END = "start", "end"


# ---------------------------------------------------------------------------
# formulas: ("atom", name) | ("not", f) | ("and"|"or"|"imp", l, r) |
# ("const", bool)

_TOKEN = re.compile(r"\s*(->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")


def parse(text: str):
    """Parse the rule-file syntax: ! binds tightest, then &, |, and a
    right-associative ->."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    at = 0

    def peek():
        return tokens[at]

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def imp():
        left = disj()
        if peek() == "->":
            take()
            return ("imp", left, imp())
        return left

    def disj():
        f = conj()
        while peek() == "|":
            take()
            f = ("or", f, conj())
        return f

    def conj():
        f = unary()
        while peek() == "&":
            take()
            f = ("and", f, unary())
        return f

    def unary():
        tok = take()
        if tok == "!":
            return ("not", unary())
        if tok == "(":
            f = imp()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return f
        if tok in ("true", "false"):
            return ("const", tok == "true")
        if tok is None or not re.fullmatch(r"[A-Za-z_]\w*", tok):
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        return ("atom", tok)

    f = imp()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return f


def holds(f, state) -> bool:
    """Closed-world truth of f in a state (a mapping atom -> bool)."""
    op = f[0]
    if op == "atom":
        return state.get(f[1], False)
    if op == "not":
        return not holds(f[1], state)
    if op == "and":
        return holds(f[1], state) and holds(f[2], state)
    if op == "or":
        return holds(f[1], state) or holds(f[2], state)
    if op == "imp":
        return (not holds(f[1], state)) or holds(f[2], state)
    return f[1]


def atoms_of(f) -> set[str]:
    if f[0] == "atom":
        return {f[1]}
    if f[0] == "const":
        return set()
    return set().union(*(atoms_of(g) for g in f[1:]))


def is_tautology(text: str) -> bool:
    """Truth table over the formula's atoms."""
    f = parse(text)
    names = sorted(atoms_of(f))
    return all(holds(f, dict(zip(names, values)))
               for values in product((False, True), repeat=len(names)))


# ---------------------------------------------------------------------------
# block trees

def _literal(text: str) -> tuple[str, bool]:
    return (text[1:], False) if text.startswith("-") else (text, True)


def annotations(model: dict) -> dict[str, tuple[tuple[str, bool], ...]]:
    """Task id -> its literals, start and end included."""
    out = {START: (), END: ()}

    def walk(block):
        if block["type"] == "task":
            out[block["id"]] = tuple(_literal(l) for l in block.get("ann", []))
        else:
            for child in block["children"]:
                walk(child)

    walk(model["root"])
    return out


def _shuffles(x: tuple, y: tuple) -> list[tuple]:
    if not x:
        return [y]
    if not y:
        return [x]
    return ([(x[0],) + s for s in _shuffles(x[1:], y)]
            + [(y[0],) + s for s in _shuffles(x, y[1:])])


def block_runs(block: dict) -> list[tuple[str, ...]]:
    """Every task-id sequence of a block (unordered)."""
    kind = block["type"]
    if kind == "task":
        return [(block["id"],)]
    parts = [block_runs(c) for c in block["children"]]
    if kind == "xor":
        return [r for runs in parts for r in runs]
    acc = [()]
    for runs in parts:
        if kind == "seq":
            acc = [a + r for a in acc for r in runs]
        else:
            acc = [s for a in acc for r in runs for s in _shuffles(a, r)]
    return acc


def runs(model: dict) -> list[tuple[str, ...]]:
    """All runs of a model, wrapped in start/end, in the engine's order."""
    return sorted((START,) + r + (END,) for r in block_runs(model["root"]))


def fold(run, ann) -> list[dict]:
    """The state after each step of a run."""
    state: dict[str, bool] = {}
    out = []
    for tid in run:
        state = dict(state)
        state.update(ann[tid])
        out.append(state)
    return out


def render_state(state: dict) -> list[str]:
    """A state as the report prints it: literals sorted by atom."""
    return [a if v else "-" + a for a, v in sorted(state.items())]


def and_blocks(block: dict) -> list[dict]:
    """The outermost and-blocks of a tree."""
    if block["type"] == "and":
        return [block]
    if block["type"] == "task":
        return []
    return [b for c in block["children"] for b in and_blocks(c)]


def interleavings(k: int, m: int) -> int:
    """Runs of an and-block of k sequential chains of m tasks each."""
    return factorial(k * m) // factorial(m) ** k


# ---------------------------------------------------------------------------
# rules

@dataclass(frozen=True)
class Rule:
    kind: str  # "achievement" | "maintenance"
    requirement: tuple
    trigger: tuple | None
    deadline: tuple | None


def rules(rules_dict: dict) -> list[Rule]:
    out = []
    for o in rules_dict["obligations"]:
        trig, dl = o.get("trigger"), o.get("deadline")
        out.append(Rule(o["kind"], parse(o["requirement"]),
                        None if trig is None else parse(trig),
                        None if dl is None else parse(dl)))
    return out


def _first(pred, states, lo: int) -> int | None:
    return next((j for j in range(lo, len(states)) if pred(states[j])), None)


def rule_holds(rule: Rule, run, ann, states, strict: bool = False) -> bool:
    """Is every interval of the rule on this trace satisfied?"""
    req = lambda s: holds(rule.requirement, s)  # noqa: E731
    if rule.trigger is None:
        agg = all if rule.kind == "maintenance" else any
        return agg(req(s) for s in states)
    dl = lambda s: holds(rule.deadline, s)  # noqa: E731
    last = len(states) - 1
    first_dl = _first(dl, states, 0)
    for i, tid in enumerate(run):
        if not holds(rule.trigger, dict(ann[tid])):
            continue
        end = _first(dl, states, i)
        end = last if end is None else end
        if rule.kind == "maintenance":
            ok = all(req(states[k]) for k in range(i, end + 1))
        else:
            got = _first(req, states, i)
            if strict:
                ok = got is not None and (first_dl is None or got <= first_dl)
            else:
                ok = got is not None and got <= end
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# expected reports

@dataclass(frozen=True)
class Expected:
    verdict: bool
    traces_examined: int
    witness: dict | None  # {"execution": [...], "states": [[...]]}


class Oracle:
    """Every run of one model under one rule set, with its compliance."""

    def __init__(self, model: dict, rules_dict: dict, strict: bool = False):
        self.ann = annotations(model)
        self.runs = runs(model)
        rs = rules(rules_dict)
        self.complies = []
        for run in self.runs:
            states = fold(run, self.ann)
            self.complies.append(
                all(rule_holds(r, run, self.ann, states, strict) for r in rs))

    def _witness(self, k: int) -> dict:
        run = self.runs[k]
        return {"execution": list(run),
                "states": [render_state(s) for s in fold(run, self.ann)]}

    def expect(self, mode: str) -> Expected:
        want = mode != "full"
        k = next((i for i, c in enumerate(self.complies) if c == want), None)
        if k is None:
            found, examined, witness = False, len(self.runs), None
        else:
            found, examined, witness = True, k + 1, self._witness(k)
        verdict = (not found) if mode in ("full", "non") else found
        return Expected(verdict, examined, witness)

    def listing(self) -> list[str]:
        """The `enumerate` listing: ids, then the state after each step."""
        return [",".join(run) + " | " + ", ".join(
                    "{" + ", ".join(render_state(s)) + "}"
                    for s in fold(run, self.ann))
                for run in self.runs]


# ---------------------------------------------------------------------------
# one local literal rule over a seq/xor tree, without enumerating runs

def _lit(f) -> tuple[str, bool]:
    return (f[1][1], False) if f[0] == "not" else (f[1], True)


def choice_fast_verdict(model: dict, rules_dict: dict, mode: str) -> bool:
    """Full/partial/non verdict of a single local literal rule on a model
    with no and-blocks, by propagating per-run summaries through the tree.

    A summary is (requirement holds, deadline holds, an interval is open,
    some interval failed).  Open intervals of one rule see the same future
    states, so they all close at the same step with the same outcome: one
    "open" flag per run is exact.  Used where runs are too many to list.
    """
    (rule,) = rules(rules_dict)
    req, dl, trig = _lit(rule.requirement), _lit(rule.deadline), rule.trigger
    ann = annotations(model)
    achieve = rule.kind == "achievement"

    def value(lit, literals, current):
        for atom, v in literals:
            if atom == lit[0]:
                return v == lit[1]
        return current

    def step(summary, tid):
        r, d, is_open, failed = summary
        if failed:
            return summary
        literals = ann[tid]
        r, d = value(req, literals, r), value(dl, literals, d)
        is_open = is_open or holds(trig, dict(literals))
        if is_open:
            if achieve:
                if r:
                    is_open = False
                elif d:
                    failed = True
            elif not r:
                failed = True
            elif d:
                is_open = False
        return (r, d, is_open, failed)

    def reach(block, summaries):
        if block["type"] == "task":
            return {step(s, block["id"]) for s in summaries}
        if block["type"] == "seq":
            for child in block["children"]:
                summaries = reach(child, summaries)
            return summaries
        if block["type"] == "xor":
            return set().union(*(reach(c, summaries)
                                 for c in block["children"]))
        raise ValueError("and-blocks need the enumerating oracle")

    start = (not req[1], not dl[1], False, False)
    ends = reach({"type": "seq", "children": [
        {"type": "task", "id": START}, model["root"],
        {"type": "task", "id": END}]}, {start})
    ok = [not failed and not (is_open and achieve)
          for _, _, is_open, failed in ends]
    if mode == "full":
        return all(ok)
    return any(ok) if mode == "partial" else not any(ok)
