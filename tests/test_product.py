import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twtlshield import oracle
from twtlshield.automaton import compile_formula
from twtlshield.gridworld import build_grid_mdp, canonical_case_study
from twtlshield.learner import _Numbered
from twtlshield.mdp import LabeledIntervalMdp
from twtlshield.product import ProductError, build_product
from twtlshield.reachability import check_initial, one_shot_prune
from twtlshield.twtl import parse_formula, time_bound
from conftest import is_accepting, is_trash, law, successors

B = frozenset({"B"})
E = frozenset()


@pytest.fixture(scope="module")
def bc_automaton(window_formula):
    """The reference automaton over the product alphabet {B, C}."""
    return compile_formula(window_formula, {"B", "C"})


def by_annotation(automaton):
    return {ann: q for q, ann in automaton.annotations.items()}


def reference_enumerate(mdp, automaton, horizon):
    """Reachable layers over (s, q) keys with sets and dicts, as the product enumerated them
    before it numbered its pairs: (layers, initial, coerced, successor keys per (s, q))."""
    neighbours = {s: tuple(dict.fromkeys(s2 for a in mdp.enabled[s] for s2, *_ in mdp.support(s, a)))
                  for s in mdp.states}
    start = {(s, automaton.step(automaton.initial, mdp.labels[s])) for s in mdp.states}
    layers = [tuple(sorted(start, key=repr))]
    current = start
    next_keys = {}
    for _ in range(horizon):
        for s, q in current - next_keys.keys():
            next_keys[s, q] = tuple((s2, automaton.step(q, mdp.labels[s2])) for s2 in neighbours[s])
        current = set().union(*map(next_keys.__getitem__, current))
        layers.append(tuple(sorted(current, key=repr)))
    initial = tuple(sorted(((s, q, 0) for s, q in start), key=repr))
    coerced = frozenset((s, q) for s, q in layers[horizon]
                        if q not in automaton.accepting and q != automaton.trash)
    return layers, initial, coerced, next_keys


def assert_matches_reference(prod):
    layers, initial, coerced, next_keys = reference_enumerate(prod.mdp, prod.automaton, prod.horizon)
    assert [tuple(sorted(layer, key=repr)) for layer in prod.layers] == layers
    assert [tuple(prod.keys[i] for i in ids) for ids in prod.layer_ids] == prod.layers
    assert tuple(sorted(prod.initial, key=repr)) == initial
    assert prod.coerced == coerced
    keys = prod.keys
    assert {keys[i]: tuple(keys[j] for j in nxt)
            for i, nxt in enumerate(prod.next_ids) if nxt is not None} == next_keys


class TestBuild:
    def test_initial_states_pair_start_labels(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        states = by_annotation(bc_automaton)
        q_b = states["H^0 B | [H^1 B]^[0,1]"]     # after observing B at the start
        q_e = states["[H^1 B]^[0,1]"]             # after observing anything else
        assert set(prod.initial) == {("s0", q_e, 0), ("s1", q_b, 0), ("s2", q_e, 0)}

    def test_hand_derived_adjacency(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        states = by_annotation(bc_automaton)
        q_b, q_e = states["H^0 B | [H^1 B]^[0,1]"], states["[H^1 B]^[0,1]"]
        q_hold, trash = states["H^0 B"], bc_automaton.trash
        acc = states["TRUE"]

        assert successors(prod, ("s0", q_e, 0), "a1") == (
            (("s1", q_hold, 1), 0.8, 0.8),
            (("s2", trash, 1), 0.2, 0.2),
        )
        assert successors(prod, ("s0", q_e, 0), "a2") == (
            (("s0", trash, 1), 0.5, 0.5),
            (("s2", trash, 1), 0.5, 0.5),
        )
        assert successors(prod, ("s1", q_b, 0), "a1") == ((("s1", acc, 1), 1.0, 1.0),)
        assert successors(prod, ("s1", q_b, 0), "a2") == (
            (("s0", trash, 1), 0.6, 0.6),
            (("s2", trash, 1), 0.4, 0.4),
        )
        assert successors(prod, ("s2", q_e, 0), "a1") == ((("s2", trash, 1), 1.0, 1.0),)

    def test_all_paths_trash_without_label(self, bc_automaton):
        # single state labeled {} looping on itself: B is never observed
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
                                          {("s", "a", "s"): 1.0})
        prod = build_product(m, bc_automaton, 2)
        assert all(q == bc_automaton.trash for s, q in prod.layers[2])

    def test_deterministic_builds(self, labeled_mdp, bc_automaton):
        a = build_product(labeled_mdp, bc_automaton, 2)
        b = build_product(labeled_mdp, bc_automaton, 2)
        assert a.layers == b.layers
        assert a.initial == b.initial
        assert a.n_states() == b.n_states()

    def test_alphabet_mismatch(self, bc_automaton):
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": frozenset({"Z"})},
                                          {("s", "a", "s"): (1.0, 1.0)})
        with pytest.raises(ProductError):
            build_product(m, bc_automaton, 2)

    @pytest.mark.parametrize("order, first, props", [(["s0", "s1", "s2"], "s1", "['D']"),
                                                     (["s2", "s1", "s0"], "s2", "['C']")])
    def test_alphabet_mismatch_names_first_state(self, labeled_mdp, order, first, props):
        m = labeled_mdp
        bad = LabeledIntervalMdp.from_edges(order, m.actions, {**m.labels, "s1": frozenset({"B", "D"})},
                                            m.bounds, law(m))
        automaton = compile_formula(parse_formula("[H^0 B]^[0,1]", {"B"}), {"B"})
        with pytest.raises(ProductError) as err:
            build_product(bad, automaton, 1)
        assert str(err.value) == (f"label of state {first!r} is not in the automaton alphabet: "
                                  f"symbol uses propositions outside the automaton alphabet: {props}")


class TestAgainstReference:
    def test_case_study(self):
        spec, formula = canonical_case_study()
        props = sorted(spec.alphabet())
        assert_matches_reference(build_product(build_grid_mdp(spec), compile_formula(formula, props),
                                               time_bound(formula)))

    def test_ten_by_ten_grid(self):
        spec, formula = canonical_case_study()
        spec = dataclasses.replace(spec, width=10, height=10)
        props = sorted(spec.alphabet())
        prod = build_product(build_grid_mdp(spec), compile_formula(formula, props), time_bound(formula))
        assert prod.n_states() == 26258
        assert_matches_reference(prod)

    def test_random_instances(self):
        rng = random.Random(12)
        spec = oracle.RandomInstanceSpec()
        for horizon_offset in [0, -1, 1] * 100:
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            horizon = max(0, time_bound(formula) + horizon_offset)
            assert_matches_reference(build_product(model, compile_formula(formula, {"B", "C"}), horizon))


class TestNumberingOrder:
    """Pairs are numbered in the order the enumeration finds them, from layer 0 in model order."""

    @staticmethod
    def assert_found_order(prod):
        mdp, aut = prod.mdp, prod.automaton
        assert prod.layers[0] == tuple((s, aut.step(aut.initial, mdp.labels[s])) for s in mdp.states)
        for ids in prod.layer_ids:
            assert list(ids) == sorted(ids)
        assert [p[0] for p in prod.initial] == list(mdp.states)
        one_shot_prune(prod, 0.5)
        assert _Numbered(prod).starts == {s: k for k, s in enumerate(mdp.states)}
        violators = check_initial(prod, 1.0)
        index = {s: k for k, s in enumerate(mdp.states)}
        order = [index[p[0]] for p, _ in violators]
        assert order == sorted(order)
        return len(violators)

    def test_case_study(self):
        spec, formula = canonical_case_study()
        prod = build_product(build_grid_mdp(spec), compile_formula(formula, sorted(spec.alphabet())),
                             time_bound(formula))
        assert self.assert_found_order(prod) == 36

    def test_random_instances(self):
        rng = random.Random(24)
        spec = oracle.RandomInstanceSpec()
        several = 0
        for _ in range(20):
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            prod = build_product(model, compile_formula(formula, {"B", "C"}), time_bound(formula))
            several += self.assert_found_order(prod) > 1
        assert several >= 10

    def test_pair_ids_do_not_depend_on_hash_seed(self):
        # worst_case_toy names its states with strings, whose hashes vary with the seed
        code = ("from conftest import worst_case_toy; prod = worst_case_toy(); "
                "print(repr((prod.keys, prod.layer_ids, prod.next_ids)))")
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here), str(here.parent / "src")])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestInvariants:
    def test_time_layering(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        for t, layer in enumerate(prod.layers[:-1]):
            for s, q in layer:
                for a in labeled_mdp.enabled[s]:
                    for (s2, q2, t2), lo, hi in successors(prod, (s, q, t), a):
                        assert t2 == t + 1
                        assert (s2, q2) in set(prod.layers[t + 1])

    def test_bound_inheritance(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        for t, layer in enumerate(prod.layers[:-1]):
            for s, q in layer:
                for a in labeled_mdp.enabled[s]:
                    mdp_bounds = {s2: (lo, hi) for s2, lo, hi, _ in labeled_mdp.support(s, a)}
                    for (s2, q2, _), lo, hi in successors(prod, (s, q, t), a):
                        assert (lo, hi) == mdp_bounds[s2]

    def test_absorption_lift(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        accepting = bc_automaton.accepting
        trash = bc_automaton.trash
        for t, layer in enumerate(prod.layers[:-1]):
            for s, q in layer:
                if q not in accepting and q != trash:
                    continue
                for a in labeled_mdp.enabled[s]:
                    for (s2, q2, _), _, _ in successors(prod, (s, q, t), a):
                        if q in accepting:
                            assert q2 in accepting
                        else:
                            assert q2 == trash

    def test_terminal_states_classified(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        for s, q in prod.layers[2]:
            p = (s, q, 2)
            assert is_accepting(prod, p) or is_trash(prod, p)

    def test_terminal_coercion_reported(self, labeled_mdp, bc_automaton):
        # horizon shorter than the time bound leaves undecided states at the end
        prod = build_product(labeled_mdp, bc_automaton, 1)
        assert prod.coerced
        for s, q in prod.coerced:
            assert is_trash(prod, (s, q, 1))
        # at the proper horizon nothing needs coercion
        assert build_product(labeled_mdp, bc_automaton, 2).coerced == frozenset()


class TestSummary:
    def test_summary_counts(self, labeled_mdp, bc_automaton):
        prod = build_product(labeled_mdp, bc_automaton, 2)
        doc = prod.summary()
        assert doc["horizon"] == 2
        assert doc["total_states"] == prod.n_states()
        assert len(doc["layers"]) == 3
        assert doc["layers"][0]["states"] == 3

    def test_case_study_build_determinism(self):
        from twtlshield.gridworld import canonical_case_study, build_grid_mdp, CASE_STUDY_PROPS
        from twtlshield.twtl import time_bound
        spec, formula = canonical_case_study()
        aut = compile_formula(formula, CASE_STUDY_PROPS)
        m = build_grid_mdp(spec)
        T = time_bound(formula)
        assert build_product(m, aut, T).n_states() == build_product(m, aut, T).n_states()
