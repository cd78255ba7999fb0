import json
import random
import re
import sys

import pytest

from twtlshield import automaton
from twtlshield.gridworld import CASE_STUDY_FORMULA, CASE_STUDY_PROPS
from twtlshield.twtl import (Concat, Hold, Not, format_formula, parse_formula, propositions,
                             time_bound)
from twtlshield.automaton import (AutomatonError, StateExplosionError, UnknownSymbolError,
                                  UnsupportedConstructError, accepts, compile_formula)
from twtlshield.cli import automaton_dot, automaton_json
from twtlshield.oracle import FORMULA_CORPUS, enumerate_words, random_formula, word_satisfies_brute
from test_twtl import random_tree

B = frozenset({"B"})
E = frozenset()
FOUR_PROPS = ("B", "C", "D1", "Base_2")      # the propositions random_tree draws from


def four_proposition_trees():
    """30 random_tree draws (depth 3, seed 22) that use at least two propositions and
    have time bound at most 2, so every word up to the bound + 1 can be checked; a
    tree with a compound Not, which the compiler rejects, is redrawn."""
    rng = random.Random(22)
    trees = []
    while len(trees) < 30:
        tree = random_tree(rng, 3)
        if ("!(" not in format_formula(tree) and len(propositions(tree)) >= 2
                and time_bound(tree) <= 2):
            trees.append(tree)
    return trees


class TestReferenceAutomaton:
    """The six-state automaton for 'hold B one step within [0,2]'."""

    def test_state_count(self, window_automaton):
        assert window_automaton.n_states == 6
        assert len(window_automaton.reachable) == 6
        assert len(window_automaton.accepting) == 1
        assert window_automaton.trash not in window_automaton.accepting

    def test_hand_derived_transitions(self, window_automaton):
        aut = window_automaton
        q0 = aut.initial
        q_on_b = aut.step(q0, B)       # hold already running, one B to go
        q_on_e = aut.step(q0, E)       # window shrunk by one, hold not started
        assert q_on_b != q_on_e
        acc = next(iter(aut.accepting))
        assert aut.step(q_on_b, B) == acc
        assert aut.step(q_on_b, E) == aut.trash
        q3 = aut.step(q_on_e, B)       # last chance: hold started at offset one
        assert aut.step(q_on_e, E) == aut.trash
        assert aut.step(q3, B) == acc
        assert aut.step(q3, E) == aut.trash

    def test_accepted_words(self, window_automaton):
        assert accepts(window_automaton, (B, B)) is True
        assert accepts(window_automaton, (E, E, B)) is False
        assert accepts(window_automaton, ()) is (window_automaton.initial
                                                 in window_automaton.accepting)

    def test_length_three_language(self, window_automaton):
        accepted = {word for word in enumerate_words({"B"}, 3)
                    if accepts(window_automaton, word)}
        assert accepted == {(B, B, B), (B, B, E), (E, B, B)}


class TestCompile:
    def test_true_hold_two_reachable_states(self):
        aut = compile_formula(parse_formula("H^0 TRUE"), {"B"})
        assert len(aut.reachable) == 2
        for word in enumerate_words({"B"}, 1):
            assert accepts(aut, word)

    def test_trash_always_materialized(self):
        aut = compile_formula(parse_formula("H^0 TRUE"), {"B"})
        assert aut.trash in range(aut.n_states)
        for sym in aut.alphabet():
            assert aut.step(aut.trash, sym) == aut.trash

    def test_compound_negation_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            compile_formula(Not(Hold(1, "B")), {"B"})

    def test_negated_hold_accepted(self):
        aut = compile_formula(parse_formula("H^1 !B", {"B"}), {"B"})
        assert accepts(aut, (E, E)) is True
        assert accepts(aut, (E, B)) is False

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(automaton, "MAX_STATES", 3)
        f = parse_formula("[H^1 B]^[0,8]", {"B"})
        with pytest.raises(StateExplosionError):
            compile_formula(f, {"B"})

    def test_unsatisfiable_window_goes_to_trash(self):
        f = parse_formula("[H^3 B]^[0,1]", {"B"})
        aut = compile_formula(f, {"B"})
        assert aut.initial == aut.trash
        for word in enumerate_words({"B"}, 4):
            assert not accepts(aut, word)

    def test_tree_past_the_recursion_limit_is_an_automaton_error(self):
        # built by hand, so no parser refused it first
        node = Hold(0, "B")
        for _ in range(sys.getrecursionlimit()):
            node = Concat(Hold(0, "B"), node)
        with pytest.raises(AutomatonError, match="formula is nested too deeply to compile"):
            compile_formula(node, {"B"})

    def test_unknown_symbol_rejected(self, window_automaton):
        with pytest.raises(UnknownSymbolError):
            accepts(window_automaton, (frozenset({"Z"}),))


class TestResidualTexts:
    """A new residual's text is assembled from its children's stored texts; it must
    equal the text of the whole node formatted from scratch.  The four-proposition
    trees nest And, Or and Concat in each other more than random_formula's pool does."""

    def test_stored_texts_equal_full_format(self, monkeypatch):
        made = []
        init = automaton._Residuals.__init__

        def recording(residuals, *args):
            init(residuals, *args)
            made.append(residuals)
        monkeypatch.setattr(automaton._Residuals, "__init__", recording)
        rng = random.Random(0)
        cases = [(parse_formula(text, {"B", "C"}), {"B", "C"}) for text in FORMULA_CORPUS]
        cases.append((parse_formula(CASE_STUDY_FORMULA, CASE_STUDY_PROPS), CASE_STUDY_PROPS))
        cases += [(random_formula(rng, rng.randint(1, 10)), {"B", "C"}) for _ in range(2000)]
        cases += [(tree, FOUR_PROPS) for tree in four_proposition_trees()]
        checked = 0
        for formula, props in cases:
            compile_formula(formula, props)
            residuals = made.pop()
            for node in residuals._nodes.values():
                assert residuals.text[id(node)] == format_formula(node)
            checked += len(residuals._nodes)
        assert not made and checked > 10000


class TestProperties:
    @pytest.mark.parametrize("text", FORMULA_CORPUS)
    def test_totality_and_determinism(self, text):
        f = parse_formula(text, {"B", "C"})
        aut = compile_formula(f, {"B", "C"})
        for q in range(aut.n_states):
            for sym in aut.alphabet():
                nxt = aut.step(q, sym)
                assert 0 <= nxt < aut.n_states
        # one full-width row per state, trash's included once whether the walk found it or not
        assert len(aut.table) == aut.n_states == len(aut.annotations)
        assert {len(row) for row in aut.table} == {1 << len(propositions(f))}

    @staticmethod
    def assert_decided(aut):
        """``decided`` is 1.0 on exactly the accepting state (the residual TRUE), 0.0 on
        trash (FALSE), and holds nothing else; each decided state absorbs every symbol."""
        assert aut.trash in aut.decided and len(aut.accepting) <= 1
        for q, value in aut.decided.items():
            assert type(value) is float
            assert value == (1.0 if q in aut.accepting else 0.0)
            assert (q == aut.trash) == (value == 0.0)
            assert aut.annotations[q] == ("TRUE" if value else "FALSE")
            for sym in aut.alphabet():
                assert aut.step(q, sym) == q
        assert aut.accepting <= aut.decided.keys()

    @pytest.mark.parametrize("text", FORMULA_CORPUS)
    def test_absorption(self, text):
        self.assert_decided(compile_formula(parse_formula(text, {"B", "C"}), {"B", "C"}))

    def test_absorption_random_formulas(self):
        rng = random.Random(30)
        for _ in range(200):
            self.assert_decided(compile_formula(random_formula(rng, 6), {"B", "C"}))

    @pytest.mark.parametrize("text", FORMULA_CORPUS)
    def test_oracle_equivalence_full_length(self, text):
        """Language equality against the placement-enumeration oracle."""
        f = parse_formula(text, {"B", "C"})
        aut = compile_formula(f, {"B", "C"})
        length = time_bound(f) + 1
        for word in enumerate_words({"B", "C"}, length):
            assert accepts(aut, word) == word_satisfies_brute(f, word), word

    def test_oracle_equivalence_over_four_propositions(self):
        """Residuals here use a strict subset of the alphabet's propositions, so
        progression sees label bits that no hold of the residual reads."""
        for tree in four_proposition_trees():
            aut = compile_formula(tree, FOUR_PROPS)
            for length in range(1, time_bound(tree) + 2):
                for word in enumerate_words(FOUR_PROPS, length):
                    assert accepts(aut, word) == word_satisfies_brute(tree, word), (
                        format_formula(tree), word)


class TestExport:
    def test_dot_structure(self, window_automaton):
        dot = automaton_dot(window_automaton)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")
        assert "doublecircle" in dot
        assert len(re.findall(r"^  q\d+ \[shape", dot, re.M)) == window_automaton.n_states
        # edges with the same endpoints are merged, so each pair appears once
        edges = re.findall(r"q(\d+) -> q(\d+)", dot)
        assert len(edges) == len(set(edges))

    def test_dot_two_state(self):
        aut = compile_formula(parse_formula("H^0 TRUE"), {"B"})
        dot = automaton_dot(aut)
        assert len(re.findall(r"^  q\d+ \[shape", dot, re.M)) == aut.n_states

    def test_json_round_structure(self, window_automaton):
        doc = json.loads(automaton_json(window_automaton))
        assert doc["initial"] == window_automaton.initial
        assert doc["trash"] == window_automaton.trash
        assert set(doc["accepting"]) == set(window_automaton.accepting)
        assert doc["n_reachable"] == 6
        # full transition table: one row per (state, symbol)
        assert len(doc["delta"]) == window_automaton.n_states * 2
        for q, sym, q2 in doc["delta"]:
            assert window_automaton.step(q, frozenset(sym)) == q2
