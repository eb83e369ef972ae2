"""Propositional formulas, literal states and their closed-world semantics.

States are consistent sets of literals built up by annotated tasks.  A state
does not mention every atom, so formula evaluation over a state reads an
absent atom as false (closed-world).  Total interpretations are kept as a
separate type for the truth-table side of things.

A state is stored as two bit masks, the atoms it asserts and the atoms it
negates, over one atom table per process: each atom name gets the next bit
the first time any state mentions it.  Consistency (no atom in both masks)
is still checked on every construction, ``update`` included, as one
``&``.  The table is private to this module; what a state prints, iterates
and compares does not depend on the order atoms were numbered in.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Mapping, Union

ATOM_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
MAX_TABLE_ATOMS = 24  # the most atoms tautology_truth_table enumerates


class FormulaSyntaxError(ValueError):
    """Raised by parse_formula; carries the byte offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class MissingAtom(LookupError):
    """An interpretation was asked about an atom outside its universe."""


class TooManyAtoms(ValueError):
    """Truth-table check refused: more than MAX_TABLE_ATOMS atoms."""


class InconsistentInput(ValueError):
    """A literal set contains some literal together with its negation."""


class _Printed:
    """A formula prints as ``format_formula`` writes it."""

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Atom(_Printed):
    name: str

    def __post_init__(self):
        _check_name(self.name)


@dataclass(frozen=True)
class Not(_Printed):
    operand: "Formula"


@dataclass(frozen=True)
class And(_Printed):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Printed):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_Printed):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class TrueConst(_Printed):
    pass


@dataclass(frozen=True)
class FalseConst(_Printed):
    pass


TRUE = TrueConst()
FALSE = FalseConst()
_KEYWORDS = {"true": TRUE, "false": FALSE}  # no atom is named by these


def _check_name(name: str) -> None:
    if not ATOM_PATTERN.fullmatch(name) or name in _KEYWORDS:
        raise ValueError(f"bad atom name: {name!r}")


Formula = Union[Atom, Not, And, Or, Implies, TrueConst, FalseConst]


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its negation, the unit tasks assert and states hold."""

    atom: str
    positive: bool = True

    def __post_init__(self):
        _check_name(self.atom)

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def to_formula(self) -> Formula:
        f: Formula = Atom(self.atom)
        return f if self.positive else Not(f)

    def __str__(self):
        return self.atom if self.positive else "-" + self.atom


def parse_literal(text: str) -> Literal:
    """Read the file form of a literal: "a" positive, "-a" negative."""
    if text.startswith("-"):
        return Literal(text[1:], False)
    return Literal(text, True)


# ---------------------------------------------------------------------------
# states
#
# A state is two bit masks over one process-wide atom numbering: bit i of
# ``pos`` holds when atom i is asserted, bit i of ``neg`` when its negation
# is.  Atoms are numbered first come, first numbered, so the numbering
# depends on what a process met first; nothing outside this section reads
# it but through ``atom_bit``, against a state's masks, and nothing a state
# shows (its literals as a set, sorted or as text) depends on it.

_BITS: dict[str, int] = {}  # atom name -> its bit
_PAIRS: list[tuple[Literal, Literal]] = []  # bit index -> (a, -a)
_REGISTER = threading.Lock()
_new_state = object.__new__


def _bit(atom: str) -> int:
    """The atom's bit; a new atom gets the next one, under the lock."""
    bit = _BITS.get(atom)
    if bit is None:
        with _REGISTER:
            bit = _BITS.get(atom)
            if bit is None:
                _PAIRS.append((Literal(atom, True), Literal(atom, False)))
                bit = _BITS[atom] = 1 << (len(_PAIRS) - 1)
    return bit


def atom_bit(atom: str) -> int:
    """The atom's bit in a state's masks, or 0 for an atom no state has
    mentioned, which no state holds; unlike ``_bit``, it numbers no atom."""
    return _BITS.get(atom, 0)


def _indices(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _from_masks(pos: int, neg: int) -> "State":
    """The state with these masks; an atom in both is an error."""
    if pos & neg:
        atom = min(_PAIRS[i][0].atom for i in _indices(pos & neg))
        raise InconsistentInput(f"state holds both {atom} and -{atom}")
    s = _new_state(State)
    s.pos = pos
    s.neg = neg
    return s


class State:
    """A consistent set of literals; the knowledge carried along a trace.

    Every construction checks consistency.  Equality reads both masks,
    closed-world truth only ``pos``.  States are not to be mutated; each
    caches its text on first use.
    """

    __slots__ = ("pos", "neg", "_text")

    def __new__(cls, literals: Iterable[Literal] = ()) -> "State":
        pos = neg = 0
        for lit in literals:
            if lit.positive:
                pos |= _bit(lit.atom)
            else:
                neg |= _bit(lit.atom)
        return _from_masks(pos, neg)

    @classmethod
    def of(cls, *literals: str | Literal) -> "State":
        return cls(parse_literal(l) if isinstance(l, str) else l
                   for l in literals)

    def atoms(self) -> frozenset[str]:
        return frozenset(_PAIRS[i][0].atom
                         for i in _indices(self.pos | self.neg))

    def sorted_literals(self) -> list[Literal]:
        # atoms are distinct in a consistent state
        return sorted(self, key=lambda l: l.atom)

    def __contains__(self, lit: object) -> bool:
        if not isinstance(lit, Literal):
            return False
        mask = self.pos if lit.positive else self.neg
        return bool(mask & _BITS.get(lit.atom, 0))

    def __iter__(self) -> Iterator[Literal]:
        for i in _indices(self.pos):
            yield _PAIRS[i][0]
        for i in _indices(self.neg):
            yield _PAIRS[i][1]

    def __len__(self) -> int:
        return self.pos.bit_count() + self.neg.bit_count()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, State):
            return self.pos == other.pos and self.neg == other.neg
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __reduce__(self):
        # the masks mean nothing in another process: pickle the literals
        return State, (tuple(self.sorted_literals()),)

    def __repr__(self):
        return "State.of({})".format(
            ", ".join(repr(str(l)) for l in self.sorted_literals()))

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            self._text = "{" + ", ".join(
                str(l) for l in self.sorted_literals()) + "}"
            return self._text


EMPTY_STATE = State()


def update(s1: State, s2: State) -> State:
    """Overwrite s1 with the literals of s2, retracting clashing ones.

    The result keeps every literal of s1 whose negation is not asserted by
    s2, plus everything in s2.  Since s2 holds one polarity per atom,
    clearing both of s1's bits on every atom s2 mentions and then setting
    s2's bits gives that set without building the negations.
    """
    if not isinstance(s1, State) or not isinstance(s2, State):
        raise InconsistentInput("update expects two State values")
    mentioned = s2.pos | s2.neg
    if not mentioned:
        return s1
    return _from_masks(s1.pos & ~mentioned | s2.pos,
                       s1.neg & ~mentioned | s2.neg)


@dataclass(frozen=True)
class Interpretation:
    """A total truth assignment over a finite universe of atoms."""

    assignment: tuple[tuple[str, bool], ...] = field(default=())

    @classmethod
    def of(cls, mapping: Mapping[str, bool]) -> "Interpretation":
        return cls(tuple(sorted(mapping.items())))

    def value(self, atom: str) -> bool:
        for name, val in self.assignment:
            if name == atom:
                return val
        raise MissingAtom(atom)


# ---------------------------------------------------------------------------
# parsing

# After any whitespace, group 1 is a token: "->", a one-character operator
# or bracket, or a word, which is an atom name by ``ATOM_PATTERN``.  Group 2
# is a character no token starts with.  Whitespace at the end is skipped.
_TOKEN_RE = re.compile(r"\s*(?:(->|[!&|()]|" + ATOM_PATTERN.pattern
                       + r")|(\S))")


# Formulas nest at most this deep: no more brackets, negations and
# implications around any token, and no more operators on any path of the
# parsed tree.  Parsing, evaluation, formatting and both engines recurse
# once or a few times per level, so this keeps them far inside Python's
# default recursion limit.
MAX_FORMULA_DEPTH = 100

# How tightly each operator binds; the parser and the printer both read it.
_PREC = {Implies: 0, Or: 1, And: 2, Not: 3}
_BINARY = {"->": Implies, "|": Or, "&": And}
_TEXT = {op: f" {tok} " for tok, op in _BINARY.items()}


class _Parser:
    """Precedence climbing: ``binary`` reads the binary operators by
    ``_PREC``, the table the printer reads too, and ``unary`` the rest.
    Each returns a formula and its height, the operators on its longest
    path."""

    def __init__(self, text: str):
        self.text = text
        # (token, index) pairs, ended by (None, len(text)) for the end
        self.tokens: list[tuple[str | None, int]] = []
        for m in _TOKEN_RE.finditer(text):  # tile all but end whitespace
            if m.lastindex == 2:
                raise FormulaSyntaxError("unexpected character",
                                         _byte_offset(text, m.start(2)))
            self.tokens.append((m[1], m.start(1)))
        self.tokens.append((None, len(text)))
        self.index = 0
        self.nesting = 0  # brackets, negations, implications around here

    def peek(self) -> str | None:
        return self.tokens[self.index][0]

    def offset(self) -> int:
        return _byte_offset(self.text, self.tokens[self.index][1])

    def take(self):
        """Pass the token ``peek`` read, which is not the end."""
        self.index += 1

    def expect(self, tok: str):
        if self.peek() != tok:
            raise FormulaSyntaxError(f"expected {tok!r}", self.offset())
        self.index += 1

    def checked(self, f: Formula, height: int, at: int
                ) -> tuple[Formula, int]:
        """f with its height, unless it nests too deep; ``at`` is the
        index of the token that built it."""
        if height > MAX_FORMULA_DEPTH:
            raise self.too_deep(at)
        return f, height

    def too_deep(self, at: int) -> FormulaSyntaxError:
        return FormulaSyntaxError(
            f"formula nests more than {MAX_FORMULA_DEPTH} deep",
            _byte_offset(self.text, self.tokens[at][1]))

    def nested(self, rule, *args) -> tuple[Formula, int]:
        """Take an operator or bracket, then parse by ``rule(*args)`` one
        level further in; the nesting is checked before the recursion."""
        self.take()
        self.nesting += 1
        if self.nesting > MAX_FORMULA_DEPTH:
            raise self.too_deep(self.index - 1)
        out = rule(*args)
        self.nesting -= 1
        return out

    def binary(self, least: int = 0) -> tuple[Formula, int]:
        """A formula whose binary operators bind at least as tight as
        ``least``, by ``_PREC``: ``&`` and ``|`` group to the left, ``->``
        to the right, one nesting level further in."""
        f, height = self.unary()
        while True:
            op = _BINARY.get(self.peek())
            if op is None or _PREC[op] < least:
                return f, height
            at = self.index
            if op is Implies:
                g, g_height = self.nested(self.binary, _PREC[op])
            else:
                self.take()
                g, g_height = self.binary(_PREC[op] + 1)
            f, height = self.checked(op(f, g), 1 + max(height, g_height), at)

    def unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.offset())
        if tok == "!":
            at = self.index
            f, height = self.nested(self.unary)
            return self.checked(Not(f), height + 1, at)
        if tok == "(":
            out = self.nested(self.binary)
            self.expect(")")
            return out
        if tok in _BINARY or tok == ")":
            raise FormulaSyntaxError(f"unexpected token {tok!r}",
                                     self.offset())
        self.take()  # a word
        return (_KEYWORDS[tok] if tok in _KEYWORDS else Atom(tok)), 0


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def parse_formula(text: str) -> Formula:
    """Parse "!a & (b | c) -> d"; ! binds tightest, -> is right-associative."""
    parser = _Parser(text)
    f, _ = parser.binary()
    if parser.peek() is not None:
        raise FormulaSyntaxError(f"trailing input {parser.peek()!r}",
                                 parser.offset())
    return f


def format_formula(f: Formula) -> str:
    """Render a formula so that parse_formula reads back the same tree."""
    return _format(f, 0)


def _format(f: Formula, parent: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    prec = _PREC[type(f)]
    if isinstance(f, Not):
        text = "!" + _format(f.operand, prec)
    else:  # -> groups to the right, & and | to the left
        up = prec + 1
        left, right = (up, prec) if isinstance(f, Implies) else (prec, up)
        text = _format(f.left, left) + _TEXT[type(f)] + _format(f.right, right)
    if prec < parent:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# evaluation

def truth(f: Formula, pos: int) -> bool:
    """Closed-world truth of f where ``pos`` is the mask of the atoms a
    state asserts: all the truth reads, since absent atoms read as false."""
    if isinstance(f, Atom):
        return bool(pos & _BITS.get(f.name, 0))
    if isinstance(f, Not):
        return not truth(f.operand, pos)
    if isinstance(f, And):
        return truth(f.left, pos) and truth(f.right, pos)
    if isinstance(f, Or):
        return truth(f.left, pos) or truth(f.right, pos)
    if isinstance(f, Implies):
        return not truth(f.left, pos) or truth(f.right, pos)
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    raise TypeError(f"not a formula: {f!r}")


def eval_formula(f: Formula, s: State) -> bool:
    """Closed-world truth of f over a state: absent atoms read as false."""
    return truth(f, s.pos)


def eval_under_interpretation(f: Formula, interp: Interpretation) -> bool:
    """Classical truth under a total assignment; unknown atoms are an error."""
    if isinstance(f, Atom):
        return interp.value(f.name)
    if isinstance(f, Not):
        return not eval_under_interpretation(f.operand, interp)
    if isinstance(f, And):
        return (eval_under_interpretation(f.left, interp)
                and eval_under_interpretation(f.right, interp))
    if isinstance(f, Or):
        return (eval_under_interpretation(f.left, interp)
                or eval_under_interpretation(f.right, interp))
    if isinstance(f, Implies):
        return (not eval_under_interpretation(f.left, interp)
                or eval_under_interpretation(f.right, interp))
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, Not):
        return atoms(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return atoms(f.left) | atoms(f.right)
    return frozenset()


def closed_world(s: State, universe: Iterable[str]) -> Interpretation:
    """The total assignment a state induces: atom true iff asserted positive."""
    return Interpretation.of(
        {a: Literal(a, True) in s for a in universe})


def is_literal(f: Formula) -> bool:
    return isinstance(f, Atom) or (
        isinstance(f, Not) and isinstance(f.operand, Atom))


def tautology_truth_table(f: Formula) -> bool:
    """Exhaustive truth-table check that f holds under every assignment."""
    names = sorted(atoms(f))
    if len(names) > MAX_TABLE_ATOMS:
        raise TooManyAtoms(
            f"{len(names)} atoms exceeds the bound of {MAX_TABLE_ATOMS}")
    for values in product((False, True), repeat=len(names)):
        interp = Interpretation.of(dict(zip(names, values)))
        if not eval_under_interpretation(f, interp):
            return False
    return True
