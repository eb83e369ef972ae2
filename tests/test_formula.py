"""Formula parsing, closed-world evaluation, state update, truth tables."""
import pickle
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strategies import ATOM_POOL, formulas, literals, states
from wfcheck.formula import (FALSE, MAX_FORMULA_DEPTH, TRUE, And, Atom,
                             FormulaSyntaxError, Implies, InconsistentInput,
                             Interpretation, Literal, MissingAtom, Not, Or,
                             State,
                             TooManyAtoms, atoms, closed_world, eval_formula,
                             eval_under_interpretation, format_formula,
                             formula_to_literal, is_literal, parse_formula,
                             parse_literal, tautology_truth_table,
                             update)

# ---------------------------------------------------------------------------
# an independent hand-rolled parser used only as an oracle


def oracle_parse(text):
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def read_word():
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def implication():
        left = disjunction()
        skip_ws()
        nonlocal pos
        if text[pos:pos + 2] == "->":
            pos += 2
            return Implies(left, implication())
        return left

    def disjunction():
        f = conjunction()
        while True:
            skip_ws()
            nonlocal pos
            if pos < len(text) and text[pos] == "|":
                pos += 1
                f = Or(f, conjunction())
            else:
                return f

    def conjunction():
        f = unary()
        while True:
            skip_ws()
            nonlocal pos
            if pos < len(text) and text[pos] == "&":
                pos += 1
                f = And(f, unary())
            else:
                return f

    def unary():
        nonlocal pos
        skip_ws()
        if text[pos] == "!":
            pos += 1
            return Not(unary())
        if text[pos] == "(":
            pos += 1
            f = implication()
            skip_ws()
            assert text[pos] == ")"
            pos += 1
            return f
        word = read_word()
        if word == "true":
            return TRUE
        if word == "false":
            return FALSE
        return Atom(word)

    f = implication()
    skip_ws()
    assert pos == len(text), f"oracle left input at {pos}"
    return f


PARSE_CASES = [
    "a",
    "!a",
    "a&b",
    "a|b",
    "a->b",
    "a->b->c",
    "a|b&c",
    "a&b|c",
    "!a|b",
    "a & b & c",
    "(a|b)&c",
    "!(a&b)",
    "true",
    "false",
    "!true",
    "a&!b",
    "!!a",
    "((a))",
    "a | b | c -> d",
    "x1 -> !x2 & _y",
    "a -> b | c",
    "a | b -> c & d -> e",
    "(a -> b) -> c",
    "a & (b -> c) | d",
]


class TestParser:
    @pytest.mark.parametrize("text", PARSE_CASES)
    def test_matches_oracle(self, text):
        assert parse_formula(text) == oracle_parse(text)

    def test_implication_is_right_associative(self):
        assert parse_formula("a->b->c") == Implies(
            Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_negation_binds_tightest(self):
        assert parse_formula("!a & b") == And(Not(Atom("a")), Atom("b"))

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("a|b&c") == Or(
            Atom("a"), And(Atom("b"), Atom("c")))

    @pytest.mark.parametrize("text,offset", [
        ("", 0),
        ("a &", 3),
        ("(a", 2),
        ("a b", 2),
        ("a -> -> b", 5),
        ("#", 0),
    ])
    def test_syntax_error_offsets(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.offset == offset

    @given(formulas())
    def test_format_round_trips(self, f):
        assert parse_formula(format_formula(f)) == f


def nested_formulas(depth):
    """Formulas that nest ``depth`` deep, one per way of nesting."""
    mixed = "".join("(!"[k % 2] for k in range(depth))
    return {
        "negations": "!" * depth + "a",
        "brackets": "(" * depth + "a" + ")" * depth,
        "bracketed negations": mixed + "a" + ")" * mixed.count("("),
        "or chain": " | ".join(["a"] * (depth + 1)),
        "and chain": " & ".join(["a"] * (depth + 1)),
        "implications": " -> ".join(["a"] * (depth + 1)),
    }


class TestNestingLimit:
    @pytest.mark.parametrize("way", sorted(nested_formulas(2)))
    def test_formulas_at_the_limit_parse_and_evaluate(self, way):
        text = nested_formulas(MAX_FORMULA_DEPTH)[way]
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f
        assert atoms(f) == {"a"}
        assert eval_formula(f, State.of("a")) == eval_under_interpretation(
            f, Interpretation.of({"a": True}))

    @pytest.mark.parametrize("way", sorted(nested_formulas(2)))
    def test_one_level_more_is_a_syntax_error(self, way):
        text = nested_formulas(MAX_FORMULA_DEPTH + 1)[way]
        with pytest.raises(FormulaSyntaxError,
                           match=f"nests more than {MAX_FORMULA_DEPTH} deep"):
            parse_formula(text)

    @pytest.mark.parametrize("text, offset", [
        ("(" * 300 + "a" + ")" * 300, MAX_FORMULA_DEPTH),
        ("!" * 1000 + "a", MAX_FORMULA_DEPTH),
        # the operator that makes the tree too high
        (" & ".join(["a"] * (MAX_FORMULA_DEPTH + 2)),
         4 * MAX_FORMULA_DEPTH + 2),
        # a negation over a chain: the outermost negation is too high
        ("!" * 60 + "(" + " | ".join(["a"] * 42) + ")", 0),
    ])
    def test_too_deep_formulas_name_the_offset(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.offset == offset
        assert "nests more than" in str(err.value)


# More atom names than a machine word has bits.  Numbering them all up
# front gives at least 16 of them bits past 64, so states drawn from them
# span wide masks.
WIDE_POOL = tuple(f"w{i}" for i in range(80))
WIDE_LITERALS = [Literal(a, v) for a in WIDE_POOL for v in (True, False)]
State(Literal(a) for a in WIDE_POOL)


class TestState:
    @given(st.frozensets(literals(WIDE_POOL), max_size=40),
           st.frozensets(literals(WIDE_POOL), max_size=40))
    @example(frozenset(Literal(a) for a in WIDE_POOL),
             frozenset(Literal(a, False) for a in WIDE_POOL))
    @example(frozenset(Literal(a, v) for a in ("w9", "w10", "w79")
                       for v in (True, False)), frozenset())
    def test_matches_a_frozenset_of_literals(self, lits, other):
        clashes = sorted({lit.atom for lit in lits if lit.negate() in lits})
        if clashes:
            first = clashes[0]
            with pytest.raises(InconsistentInput,
                               match=f"both {first} and -{first}$"):
                State(lits)
            return
        s = State(lits)
        assert frozenset(s) == lits
        assert len(s) == len(list(s)) == len(lits)
        assert all((lit in s) == (lit in lits)
                   for lit in WIDE_LITERALS)
        assert s.atoms() == {lit.atom for lit in lits}
        ordered = sorted(lits, key=lambda lit: (lit.atom, not lit.positive))
        assert s.sorted_literals() == ordered
        assert str(s) == "{" + ", ".join(map(str, ordered)) + "}"
        again = State.of(*reversed(ordered))
        assert again == s and hash(again) == hash(s)
        assert pickle.loads(pickle.dumps(s)) == s
        if not any(lit.negate() in other for lit in other):
            assert (State(other) == s) == (other == lits)

    def test_threads_numbering_new_atoms_give_each_atom_one_bit(self):
        names = [f"thread_atom{i}" for i in range(1000)]
        built = [{} for _ in range(8)]
        start = threading.Barrier(len(built))

        def build(k):
            start.wait()  # all threads meet each new atom at once
            for name in names:
                built[k][name] = State.of(name, "-" + name + "_neg")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(len(built))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # an atom numbered twice would make one thread's state differ from
        # another's; two atoms sharing a bit would make states collide
        for name in names:
            expected = State.of(name, "-" + name + "_neg")
            assert all(b[name] == expected for b in built)
            assert str(expected) == f"{{{name}, -{name}_neg}}"
        assert len({b[name] for b in built for name in names}) == len(names)

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentInput):
            State.of("a", "-a")

    def test_parse_literal(self):
        assert parse_literal("a") == Literal("a", True)
        assert parse_literal("-a") == Literal("a", False)

    def test_negate_is_involutive(self):
        lit = Literal("a", False)
        assert lit.negate().negate() == lit

    def test_update_overwrites_clashing_literal(self):
        # the retracting step of the running example
        before = State.of("a", "c", "d")
        after = update(before, State.of("-a"))
        assert after == State.of("-a", "c", "d")

    def test_update_from_empty(self):
        assert update(State(), State.of("b", "c")) == State.of("b", "c")

    @given(states(), states())
    def test_update_result_is_consistent(self, s1, s2):
        result = update(s1, s2)
        seen = {}
        for lit in result:
            assert seen.setdefault(lit.atom, lit.positive) == lit.positive

    @given(states(), states())
    def test_update_is_idempotent_in_second_argument(self, s1, s2):
        once = update(s1, s2)
        assert update(once, s2) == once

    @given(states(), states())
    def test_update_asserts_every_new_literal(self, s1, s2):
        result = update(s1, s2)
        assert frozenset(s2) <= frozenset(result)

    @given(states(WIDE_POOL), states(WIDE_POOL))
    def test_update_retracts_the_negations_of_the_new_literals(self, s1, s2):
        retracted = {lit.negate() for lit in s2}
        expected = frozenset(
            l for l in s1 if l not in retracted) | frozenset(s2)
        assert frozenset(update(s1, s2)) == expected
        assert update(s1, s2) == State(expected)

    def test_update_with_empty_keeps_the_state(self):
        s = State.of("a", "-b")
        assert update(s, State()) is s

    @given(states(), states())
    def test_update_keeps_untouched_atoms(self, s1, s2):
        result = update(s1, s2)
        for lit in s1:
            if lit.atom not in s2.atoms():
                assert lit in result


class TestEvaluation:
    def test_closed_world_reads_absent_atom_as_false(self):
        s = State.of("-a", "c", "d")
        assert eval_formula(parse_formula("c & d"), s)
        assert not eval_formula(parse_formula("a"), s)
        assert eval_formula(parse_formula("!a"), s)
        assert not eval_formula(parse_formula("b"), s)
        assert eval_formula(parse_formula("!b"), s)
        assert eval_formula(parse_formula("b -> a"), s)

    def test_constants(self):
        assert eval_formula(TRUE, State())
        assert not eval_formula(FALSE, State())

    def test_interpretation_requires_known_atoms(self):
        interp = Interpretation.of({"a": True})
        assert eval_under_interpretation(parse_formula("a"), interp)
        with pytest.raises(MissingAtom):
            eval_under_interpretation(parse_formula("b"), interp)

    @given(formulas(), states())
    def test_closed_world_matches_induced_interpretation(self, f, s):
        interp = closed_world(s, atoms(f))
        assert eval_formula(f, s) == eval_under_interpretation(f, interp)


class TestTautology:
    @pytest.mark.parametrize("text,expected", [
        ("a | !a", True),
        ("a", False),
        ("a -> a", True),
        ("(a -> b) -> ((b -> c) -> (a -> c))", True),
        ("a -> b", False),
        ("true", True),
        ("false", False),
        ("(a & b) -> a", True),
    ])
    def test_examples(self, text, expected):
        assert tautology_truth_table(parse_formula(text)) is expected

    def test_atom_bound(self):
        wide = parse_formula(" | ".join(f"x{k}" for k in range(25)))
        with pytest.raises(TooManyAtoms):
            tautology_truth_table(wide)


class TestLiterals:
    def test_is_literal(self):
        assert is_literal(Atom("a"))
        assert is_literal(Not(Atom("a")))
        assert not is_literal(Not(Not(Atom("a"))))
        assert not is_literal(And(Atom("a"), Atom("b")))
        assert not is_literal(TRUE)

    def test_formula_to_literal(self):
        assert formula_to_literal(Atom("a")) == Literal("a", True)
        assert formula_to_literal(Not(Atom("a"))) == Literal("a", False)
        with pytest.raises(ValueError):
            formula_to_literal(Or(Atom("a"), Atom("b")))

    @given(st.sampled_from(ATOM_POOL), st.booleans())
    def test_literal_formula_round_trip(self, name, positive):
        lit = Literal(name, positive)
        assert formula_to_literal(lit.to_formula()) == lit
