import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twtlshield import oracle
from twtlshield.mdp import LabeledIntervalMdp
from twtlshield.oracle import (OracleError, RandomInstanceSpec, enumerate_words,
                               lp_exact_min, random_formula, random_interval_mdp,
                               random_lp_instance, sample_true_dynamics,
                               word_satisfies_brute)
from twtlshield.twtl import parse_formula, time_bound

B = frozenset({"B"})
E = frozenset()


class TestEnumerateWords:
    def test_single_prop_length_three(self):
        words = list(enumerate_words({"B"}, 3))
        assert len(words) == 8
        assert len(set(words)) == 8

    def test_two_props_length_two(self):
        words = list(enumerate_words({"B", "C"}, 2))
        assert len(words) == 16

    def test_counts(self):
        for n_props, length in itertools.product((1, 2), (0, 1, 4)):
            props = {"B", "C"}.union() if n_props == 2 else {"B"}
            props = {"B", "C"} if n_props == 2 else {"B"}
            count = sum(1 for _ in enumerate_words(props, length))
            assert count == (2 ** n_props) ** length

    def test_cap(self):
        with pytest.raises(OracleError):
            enumerate_words({"a", "b", "c", "d", "e"}, 10)


def vertex_enumeration_min(values, los, his):
    """Minimum over the vertices of {sum(x) = 1, los <= x <= his}, exactly: at a vertex
    every coordinate but one sits at a bound and that one takes the rest.  Floats are
    dyadic, so all sums run in integers over their largest denominator."""
    v, lo, hi = ([Fraction(x) for x in xs] for xs in (values, los, his))
    scale = max(x.denominator for x in v + lo + hi)
    v, lo, hi = ([int(x * scale) for x in xs] for xs in (v, lo, hi))
    best = None
    for free in range(len(v)):
        others = [j for j in range(len(v)) if j != free]
        for ends in itertools.product(*[(lo[j], hi[j]) for j in others]):
            rest = scale - sum(ends)
            if lo[free] <= rest <= hi[free]:
                value = v[free] * rest + sum(v[j] * x for j, x in zip(others, ends))
                best = value if best is None else min(best, value)
    return Fraction(best, scale * scale)


class TestExactMin:
    def test_point_intervals_exact(self):
        assert lp_exact_min([0.2, 0.8], [0.5, 0.5], [0.5, 0.5]) == \
            Fraction(0.2) * Fraction(0.5) + Fraction(0.8) * Fraction(0.5)

    def test_documented_example(self):
        assert lp_exact_min([0.0, 1.0], [0.0, 0.9], [0.1, 1.0]) == Fraction(0.9)

    def test_single_coordinate(self):
        assert lp_exact_min([0.7], [1.0], [1.0]) == Fraction(0.7)

    def test_infeasible(self):
        with pytest.raises(OracleError):
            lp_exact_min([0.1, 0.2], [0.7, 0.7], [1.0, 1.0])

    def test_equals_vertex_enumeration_on_wide_instances(self, monkeypatch):
        monkeypatch.setattr(oracle, "LP_MAX_N", 8)
        rng = random.Random(21)
        for _ in range(1000):
            values, los, his = random_lp_instance(rng)
            assert lp_exact_min(values, los, his) == vertex_enumeration_min(values, los, his)


class TestSampledDynamics:
    def test_point_intervals_returned_exactly(self):
        bounds = {("s", "a", "x"): (0.25, 0.25), ("s", "a", "y"): (0.75, 0.75)}
        dyn = sample_true_dynamics(bounds, random.Random(0))
        assert dyn[("s", "a", "x")] == 0.25
        assert dyn[("s", "a", "y")] == 0.75

    def test_unconstrained_row_is_stochastic(self):
        bounds = {("s", "a", i): (0.0, 1.0) for i in range(4)}
        dyn = sample_true_dynamics(bounds, random.Random(1))
        assert math.fsum(dyn.values()) == pytest.approx(1.0, abs=1e-12)

    def test_validation_sweep(self):
        rng = random.Random(2)
        for _ in range(200):
            model = random_interval_mdp(rng, RandomInstanceSpec())
            dyn = sample_true_dynamics(model.bounds, rng)
            sim = LabeledIntervalMdp.from_edges(model.states, model.actions, model.labels,
                                                model.bounds, dyn)
            assert sim.validate() == []

    def test_deterministic_given_seed(self):
        bounds = {("s", "a", i): (0.05, 0.8) for i in range(3)}
        assert (sample_true_dynamics(bounds, random.Random(42))
                == sample_true_dynamics(bounds, random.Random(42)))


class TestBruteEvaluator:
    def test_direct_hold_scan(self):
        f = parse_formula("H^1 B", {"B"})
        assert word_satisfies_brute(f, (B, B)) is True
        assert word_satisfies_brute(f, (B, E)) is False

    def test_within_placements(self):
        f = parse_formula("[H^1 B]^[0,2]", {"B"})
        accepted = {w for w in enumerate_words({"B"}, 3) if word_satisfies_brute(f, w)}
        assert accepted == {(B, B, B), (B, B, E), (E, B, B)}


class TestGenerators:
    def test_random_formula_bounds(self):
        rng = random.Random(3)
        for _ in range(100):
            f = random_formula(rng, 6)
            assert 1 <= time_bound(f) <= 6

    def test_random_mdp_feasible(self):
        rng = random.Random(4)
        for _ in range(100):
            model = random_interval_mdp(rng, RandomInstanceSpec())
            assert model.validate() == []

    def test_random_lp_feasible(self):
        rng = random.Random(5)
        for _ in range(200):
            values, los, his = random_lp_instance(rng)
            assert math.fsum(los) <= 1.0 + 1e-9
            assert math.fsum(his) >= 1.0 - 1e-9
            assert all(0 <= lo <= hi <= 1 for lo, hi in zip(los, his))


class TestIndependence:
    def test_imports_nothing_it_checks(self):
        # the oracle shares no code with what it checks; the battery that runs it is in cli
        imported = set()
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        checked = {"automaton", "product", "reachability", "learner", "cli"}
        assert not [name for name in imported if checked & set(name.split("."))]
        assert "twtl.parse_formula" in imported     # the walk does see relative imports
