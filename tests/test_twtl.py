import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twtlshield.automaton import accepts, compile_formula
from twtlshield.twtl import (And, Concat, Formula, Hold, Not, Or, TwtlError, TwtlSyntaxError,
                             UnknownPropositionError, Within, format_formula,
                             parse_formula, propositions, segment_ends, time_bound)
from twtlshield.oracle import FORMULA_CORPUS, enumerate_words, random_formula, word_satisfies_brute

B = frozenset({"B"})
C = frozenset({"C"})
E = frozenset()

TASK_TEXT = ("[H^1 P]^[0,8] . [H^1 D1]^[0,6] . "
             "([H^1 D2]^[0,6] | [H^1 D3]^[0,6]) . [H^1 Base]^[0,12]")
TASK_PROPS = {"P", "D1", "D2", "D3", "Base"}


class TestParser:
    def test_window_hold(self):
        f = parse_formula("[H^1 B]^[0,2]", {"B"})
        assert f == Within(Hold(1, "B"), 0, 2)

    def test_true_constant(self):
        assert parse_formula("H^0 TRUE") == Hold(0, None)

    def test_task_concatenation(self):
        f = parse_formula("[H^1 P]^[0,8] . [H^1 D1]^[0,6]", TASK_PROPS)
        assert f == Concat(Within(Hold(1, "P"), 0, 8), Within(Hold(1, "D1"), 0, 6))

    def test_negated_hold(self):
        assert parse_formula("H^2 !B", {"B"}) == Hold(2, "B", negated=True)

    def test_precedence(self):
        # not > hold > and > or > concat
        f = parse_formula("H^0 B & H^0 C | H^0 B . H^0 C", {"B", "C"})
        assert isinstance(f, Concat)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)

    def test_prefix_negation(self):
        f = parse_formula("!(H^0 B & H^0 C)", {"B", "C"})
        assert isinstance(f, Not)
        assert isinstance(f.child, And)

    def test_whitespace_insensitive(self):
        a = parse_formula("[H^1 B]^[0,2]", {"B"})
        b = parse_formula("  [ H^1   B ]^[ 0 , 2 ]  ", {"B"})
        assert a == b

    def test_syntax_error_position(self):
        with pytest.raises(TwtlSyntaxError) as err:
            parse_formula("[H^1 B]^[0,", {"B"})
        assert err.value.line == 1
        assert err.value.column > 1

    def test_unknown_proposition(self):
        with pytest.raises(UnknownPropositionError) as err:
            parse_formula("H^0 D", {"B"})
        assert err.value.name == "D"

    def test_trailing_garbage(self):
        with pytest.raises(TwtlSyntaxError):
            parse_formula("H^0 B )", {"B"})

    def test_bad_window(self):
        with pytest.raises(TwtlSyntaxError):
            parse_formula("[H^0 B]^[3,1]", {"B"})

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_least_bad_alphabet_name_is_reported(self, seed):
        # the alphabet is a frozenset of strings, whose order once picked the name reported
        code = ("from twtlshield.twtl import parse_formula\n"
                "try:\n    parse_formula('H^0 B', ['1x', '2y', '3z', 'TRUE'])\n"
                "except Exception as exc:\n    print(exc)")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.stdout == "invalid proposition name in alphabet: '1x'\n", run.stderr


class TestPrinting:
    ROUND_TRIP = [
        "[H^1 B]^[0,2]",
        "H^0 TRUE",
        "H^2 !B",
        TASK_TEXT,
        "!(H^0 B)",
        "(H^0 B . H^0 C) & [H^1 C]^[0,3]",
        "[[H^0 B]^[0,1]]^[0,3]",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip_from_text(self, text):
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f

    def test_round_trip_left_nested(self):
        # the parser is right-associative; a left-nested tree needs parentheses
        f = Concat(Concat(Hold(0, "B"), Hold(0, "C")), Hold(0, "B"))
        assert parse_formula(format_formula(f), {"B", "C"}) == f
        g = And(And(Hold(0, "B"), Hold(0, "C")), Hold(1, "B"))
        assert parse_formula(format_formula(g), {"B", "C"}) == g

    def test_round_trip_random_trees(self):
        rng = random.Random(0)
        for _ in range(2000):
            f = random_tree(rng, 4)
            text = format_formula(f)
            assert parse_formula(text) == f, text
            assert format_formula(parse_formula(text)) == text

    def test_propositions(self):
        assert propositions(parse_formula(TASK_TEXT, TASK_PROPS)) == frozenset(TASK_PROPS)


def random_tree(rng, depth):
    """A random AST over every node type: holds on TRUE, on propositions and on
    negated ones, Not, nested Within, and chains of And, Or and Concat that nest
    to the left, under operands drawn the same way."""
    if depth == 0 or rng.random() < 0.2:
        duration = rng.randint(0, 3)
        kind = rng.randrange(3)
        if kind == 0:
            return Hold(duration, None)
        return Hold(duration, rng.choice(("B", "C", "D1", "Base_2")), negated=kind == 2)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_tree(rng, depth - 1))
    if kind == 1:
        low = rng.randint(0, 4)
        return Within(random_tree(rng, depth - 1), low, low + rng.randint(0, 4))
    cls = (And, Or, Concat)[kind - 2]
    node = random_tree(rng, depth - 1)
    for _ in range(rng.randint(1, 3)):
        node = cls(node, random_tree(rng, depth - 1))
    return node


class TestTimeBound:
    def test_hold(self):
        assert time_bound(Hold(1, "B")) == 1

    def test_window(self):
        assert time_bound(parse_formula("[H^1 B]^[0,2]", {"B"})) == 2

    def test_task_formula_is_35(self):
        assert time_bound(parse_formula(TASK_TEXT, TASK_PROPS)) == 35

    def test_concat_adds_one(self):
        f = parse_formula("H^0 B . H^0 C", {"B", "C"})
        assert time_bound(f) == 1

    def test_boolean_takes_max(self):
        f = parse_formula("H^3 B | H^1 C", {"B", "C"})
        assert time_bound(f) == 3
        assert time_bound(Not(f)) == 3

    def test_monotone_under_window_widening(self):
        inner = parse_formula("H^1 B", {"B"})
        bounds = [time_bound(Within(inner, 0, b)) for b in range(1, 8)]
        assert bounds == sorted(bounds)



class TestSegmentEnds:
    @pytest.mark.parametrize("text, ends", [
        (TASK_TEXT, (0, 8, 15, 22, 35)),
        ("H^0 B . H^0 C", (0, 1)),
        ("[H^0 B]^[0,2] . [H^0 C]^[0,2]", (0, 2, 5)),
        ("(H^0 B . H^1 C) . H^0 B", (0, 2, 3)),
        ("(H^0 B . H^0 C) & [H^1 C]^[0,3]", (0, 3)),
    ], ids=["case_study", "end_0_skipped", "two_windows", "left_concat_not_split", "no_top_concat"])
    def test_hand_cases(self, text, ends):
        assert segment_ends(parse_formula(text)) == ends

    def test_corpus_and_random_formulas(self):
        rng = random.Random(0)
        formulas = [parse_formula(text) for text in FORMULA_CORPUS]
        formulas += [random_formula(rng, 12) for _ in range(300)]
        for formula in formulas:
            ends, tb = segment_ends(formula), time_bound(formula)
            assert ends[0] == 0 and ends[-1] == tb, formula
            assert len(ends) >= 2 or tb == 0, formula
            assert all(a < b for a, b in zip(ends, ends[1:])), formula

def nested_parens(n):
    return "(" * n + "H^0 B" + ")" * n


def chain(n):
    return " . ".join(["H^0 B"] * n)


def nested_windows(n):
    return "[" * n + "H^0 B" + "]^[0,1]" * n


class TestDeepNesting:
    """The parser and every pass over a tree recurse once per level, so a formula
    nested past the recursion limit is refused as a TwtlError, not a RecursionError.
    Equality and hashing walk a tree without recursion."""

    @pytest.mark.parametrize("text", [nested_parens(250), chain(1000), nested_windows(300)],
                             ids=["250-parens", "1000-chain", "300-windows"])
    def test_too_deep_refused(self, text):
        with pytest.raises(TwtlError, match="formula is nested too deeply"):
            parse_formula(text, {"B"})

    @pytest.mark.parametrize("text, bound", [(nested_parens(200), 0), (chain(600), 599),
                                             (nested_windows(100), 1)],
                             ids=["200-parens", "600-chain", "100-windows"])
    def test_deep_but_walkable_compiles(self, text, bound):
        formula = parse_formula(text, {"B"})
        assert time_bound(formula) == bound
        assert parse_formula(format_formula(formula), {"B"}) == formula
        assert compile_formula(formula, {"B"}).n_states >= 2

    @pytest.mark.parametrize("text", [nested_parens(200), chain(600), nested_windows(100)],
                             ids=["200-parens", "600-chain", "100-windows"])
    def test_deep_trees_compare_and_hash(self, text):
        a, b = parse_formula(text, {"B"}), parse_formula(text, {"B"})
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = parse_formula(text.replace("H^0 B", "H^1 B", 1)[::-1].replace(
            "B 0^H", "B 1^H", 1)[::-1], {"B"})           # the last leaf holds one step longer
        assert other != a and not other == a


def small_tree(rng, depth):
    """A random AST over every node type, from two durations and two windows."""
    if depth == 0 or rng.random() < 0.4:
        return Hold(rng.randint(0, 1), rng.choice((None, "B")))
    cls = rng.choice((And, Or, Concat, Not, Within))
    if cls is Not:
        return Not(small_tree(rng, depth - 1))
    if cls is Within:
        return Within(small_tree(rng, depth - 1), 0, rng.randint(0, 1))
    return cls(small_tree(rng, depth - 1), small_tree(rng, depth - 1))


def redrawn(rng, node, p):
    """A fresh copy of ``node`` in which each subtree is redrawn with probability p."""
    if rng.random() < p:
        return small_tree(rng, 2)
    values = [getattr(node, field.name) for field in dataclasses.fields(node)]
    return type(node)(*(redrawn(rng, x, p) if isinstance(x, Formula) else x for x in values))


def structure(node):
    """The tree as nested tuples of class names and field values."""
    if isinstance(node, Formula):
        return (type(node).__name__,
                *(structure(getattr(node, field.name)) for field in dataclasses.fields(node)))
    return node


class TestStructuralEquality:
    def test_agrees_with_structure_on_random_trees(self):
        rng = random.Random(0)
        equal = 0
        for _ in range(3000):
            a = small_tree(rng, 4)
            b = redrawn(rng, a, 0.1)
            same = structure(a) == structure(b)
            equal += same and not isinstance(a, Hold)
            assert (a == b, a != b, len({a, b})) == (same, not same, 2 - same), (a, b)
            if same:
                assert hash(a) == hash(b)
        assert 300 <= equal <= 2700, equal

    def test_not_equal_to_other_types(self):
        assert Hold(0, "B") != (0, "B", False)
        assert Hold(0, "B") != None     # noqa: E711
        assert And(Hold(0, "B"), Hold(0, "C")) != Or(Hold(0, "B"), Hold(0, "C"))


def satisfied(formula, word, compiled=True):
    """The oracle's verdict on ``word``; unless the formula is one the compiler
    rejects (``compiled=False``), its automaton must give the same verdict."""
    verdict = word_satisfies_brute(formula, word)
    if compiled:
        assert accepts(compile_formula(formula, {"B", "C"}), word) == verdict, word
    return verdict


class TestSatisfies:
    def test_window_hold_words(self):
        f = parse_formula("[H^1 B]^[0,2]", {"B"})
        assert satisfied(f, (B, B, B)) is True
        assert satisfied(f, (B, E, B)) is False
        assert satisfied(f, (E, B, B)) is True

    def test_trailing_symbols_irrelevant(self):
        f = parse_formula("[H^1 B]^[0,2]", {"B"})
        assert satisfied(f, (B, B, E)) is True
        assert satisfied(f, (B, B, E, E, E)) is True

    def test_short_word(self):
        f = parse_formula("[H^1 B]^[0,2]", {"B"})
        assert satisfied(f, (B, B)) is True
        assert satisfied(f, (B,)) is False
        assert satisfied(f, ()) is False

    def test_hold_needs_consecutive(self):
        f = parse_formula("H^2 B", {"B"})
        assert satisfied(f, (B, B, B)) is True
        assert satisfied(f, (B, B, E)) is False

    def test_negated_hold(self):
        f = parse_formula("H^1 !B", {"B"})
        assert satisfied(f, (E, E)) is True
        assert satisfied(f, (E, B)) is False

    def test_concat_earliest_split(self):
        # left operand completes at the first opportunity; the remainder must
        # satisfy the right operand from the next step
        f = parse_formula("[H^0 B]^[0,2] . H^0 C", {"B", "C"})
        assert satisfied(f, (B, C, E, E)) is True
        # B at 0 commits the split at 0, so C must appear at step 1
        assert satisfied(f, (B, E, C, E)) is False
        assert satisfied(f, (E, B, C, E)) is True

    def test_compound_negation(self):
        f = parse_formula("!(H^1 B)", {"B"})
        assert satisfied(f, (B, E), compiled=False) is True
        assert satisfied(f, (B, B), compiled=False) is False

    def test_within_offset_window(self):
        f = parse_formula("[H^0 B]^[1,2]", {"B"})
        assert satisfied(f, (B, E, E)) is False
        assert satisfied(f, (E, B, E)) is True
        assert satisfied(f, (E, E, B)) is True

    def test_agrees_with_enumeration_oracle(self):
        corpus = [
            "[H^1 B]^[0,2]",
            "H^0 B . H^0 C",
            "[H^0 B | H^0 C]^[0,3]",
            "(H^0 B . H^0 C) & [H^1 C]^[0,3]",
            "[H^1 !B]^[1,4]",
            "[[H^0 B]^[0,1]]^[0,3]",
        ]
        for text in corpus:
            f = parse_formula(text, {"B", "C"})
            for word in enumerate_words({"B", "C"}, time_bound(f) + 1):
                satisfied(f, word)

    def test_exhaustive_two_props_all_lengths(self):
        f = parse_formula("[H^0 B & H^0 C]^[0,2] . H^0 B", {"B", "C"})
        for length in range(time_bound(f) + 2):
            for word in enumerate_words({"B", "C"}, length):
                satisfied(f, word)
