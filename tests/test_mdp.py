import math
import pickle
import random
from collections import Counter

import pytest

from twtlshield import cli
from twtlshield.automaton import compile_formula
from twtlshield.gridworld import build_grid_mdp, canonical_case_study
from twtlshield.mdp import LabeledIntervalMdp, MdpError, MissingDynamicsError
from twtlshield.product import build_product
from twtlshield.reachability import InfeasibleIntervalError, one_shot_prune
from twtlshield.twtl import parse_formula, time_bound
from conftest import law, model, sample_next, three_state_mdp


class TestValidate:
    def test_well_formed(self, labeled_mdp):
        assert labeled_mdp.validate() == []

    def test_no_information_bounds(self):
        m = three_state_mdp()
        bounds = {key: (0.0, 1.0) for key in m.bounds}
        loose = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, bounds, law(m))
        assert loose.validate() == []

    def test_exact_knowledge_bounds(self, labeled_mdp):
        # lo = hi = true probability everywhere
        assert labeled_mdp.validate() == []

    def test_upper_bounds_below_one(self):
        m = three_state_mdp()
        bounds = dict(m.bounds)
        bounds[("s2", "a1", "s2")] = (0.0, 0.8)
        bad = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, bounds)
        problems = bad.validate()
        assert len(problems) == 1
        assert "upper bounds" in problems[0] and "s2" in problems[0]

    def test_dynamics_outside_bounds(self):
        m = three_state_mdp()
        dynamics = dict(law(m))
        dynamics[("s0", "a1", "s1")] = 0.7
        dynamics[("s0", "a1", "s2")] = 0.3
        bad = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, m.bounds, dynamics)
        problems = [p for p in bad.validate() if "outside bounds" in p]
        assert len(problems) == 2

    def test_out_of_order_bounds_reported_in_repr_order(self, monkeypatch):
        spec, _ = canonical_case_study()
        m = build_grid_mdp(spec)
        # north from the bottom row, inserted right to left: reverse repr order
        keys = [((x, 0), "N", (x, 1)) for x in range(5, -1, -1)]
        bounds = {key: b for key, b in m.bounds.items() if key not in keys}
        bounds.update((key, (0.5, 0.25)) for key in keys)
        bad = model(m.states, m.actions, m.labels, bounds, law(m), m.rewards, m.enabled)
        problems = bad.validate()
        expected = [f"bounds out of order for (({x}, 0),'N',({x}, 1)): [0.5,0.25]"
                    for x in range(6)]
        assert problems[:6] == expected
        assert not any("out of order" in p for p in problems[6:])
        # the pipeline reports the first five
        monkeypatch.setattr(cli, "build_grid_mdp", lambda grid: bad)
        with pytest.raises(cli.PipelineError) as err:
            cli.run_experiment(cli.load_config(None, {"episodes": 1, "eval_episodes": 1}))
        assert str(err.value) == "[validate] " + "; ".join(expected[:5])

    def test_infeasible_row_worded_once(self, monkeypatch):
        # validate (the pipeline's [validate] stage) and the pruning sweep word a row alike
        m = three_state_mdp()
        bounds = dict(m.bounds)
        bounds[("s2", "a1", "s2")] = (0.0, 0.8)
        bad = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, bounds)
        why = "sum of upper bounds 0.800000000 is below 1"
        assert bad.validate() == [f"infeasible bounds at ('s2','a1'): {why}"]
        formula = parse_formula("[H^0 B]^[0,2]", {"B", "C"})
        product = build_product(bad, compile_formula(formula, {"B", "C"}), time_bound(formula))
        with pytest.raises(InfeasibleIntervalError) as err:
            one_shot_prune(product, 0.5)
        assert str(err.value).startswith(f"{why} at state ('s2', ")
        monkeypatch.setattr(cli, "build_grid_mdp", lambda grid: bad)
        with pytest.raises(cli.PipelineError) as err:
            cli.run_experiment(cli.load_config(None, {"episodes": 1, "eval_episodes": 1}))
        assert str(err.value) == f"[validate] infeasible bounds at ('s2','a1'): {why}"

    def test_nan_lower_bound_listed_as_infeasible(self):
        bad = LabeledIntervalMdp(["z", "g"], ["a"], {"g": {"B"}},
                                 {("z", "a"): (("g", math.nan, 1.0, None),),
                                  ("g", "a"): (("g", 1.0, 1.0, None),)})
        assert bad.validate() == ["bounds out of order for ('z','a','g'): [nan,1.0]",
                                  "infeasible bounds at ('z','a'): a lower bound is nan"]

    def test_all_zero_dynamics_row_flagged(self):
        m = three_state_mdp()
        bounds = {**m.bounds, ("s2", "a1", "s2"): (0.0, 1.0)}
        dynamics = {**law(m), ("s2", "a1", "s2"): 0.0}
        bad = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, bounds, dynamics)
        assert bad.validate() == ["true dynamics missing for ('s2','a1')"]

    def test_nonstochastic_dynamics(self):
        m = three_state_mdp(exact=False)
        dynamics = dict(law(m))
        dynamics[("s0", "a1", "s1")] = 0.85
        bad = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, m.bounds, dynamics)
        assert any("sum to" in p for p in bad.validate())


def defective_edges():
    """States, actions, bounds, true law and enabled sets of a model with one of each defect
    ``validate`` reports, and the report, word for word and in order."""
    states = ["s0", "s1", "s2", "s3", "s4", "s5"]
    bounds = {
        ("s0", "a", "s1"): (0.5, 0.25), ("s0", "a", "s2"): (0.5, 1.0),   # out of order
        ("s1", "a", "s0"): (0.2, 0.0), ("s1", "a", "s1"): (1.0, 1.0),    # hi <= 0 < lo
        ("s2", "a", "s2"): (0.0, 0.8),                                    # infeasible
        ("s4", "a", "s4"): (1.0, 1.0),                                    # no true law
        ("s5", "a", "s5"): (0.5, 1.0), ("s5", "a", "s0"): (0.0, 0.5),    # sums to 0.75
    }
    dynamics = {
        ("s0", "a", "s1"): 0.3, ("s0", "a", "s2"): 0.7,
        ("s1", "a", "s1"): 1.0,
        ("s2", "a", "s2"): 0.8, ("s2", "a", "s3"): 0.2,   # an edge without bounds
        ("s5", "a", "s0"): 0.25, ("s5", "a", "s5"): 0.5,
    }
    enabled = {"s3": ()}
    report = [
        "bounds out of order for ('s0','a','s1'): [0.5,0.25]",
        "bounds out of order for ('s1','a','s0'): [0.2,0.0]",
        "infeasible bounds at ('s2','a'): sum of upper bounds 0.800000000 is below 1",
        "state 's3' has no enabled actions",
        "true probability 0.300000 outside bounds [0.5,0.25] for ('s0','a','s1')",
        "true probability 0.200000 outside bounds [0.0,0.0] for ('s2','a','s3')",
        "true dynamics missing for ('s4','a')",
        "true dynamics at ('s5','a') sum to 0.75, not 1",
    ]
    return states, ["a"], bounds, dynamics, enabled, report


class TestValidateReport:
    def test_every_defect_word_for_word_in_order(self):
        states, actions, bounds, dynamics, enabled, report = defective_edges()
        m = model(states, actions, {}, bounds, dynamics, enabled=enabled)
        assert m.validate() == report
        assert m.rows[("s1", "a")] == (("s0", 0.2, 0.0, None), ("s1", 1.0, 1.0, 1.0))
        assert m.support("s1", "a") == [("s1", 1.0, 1.0, 1.0)]
        assert m.rows[("s2", "a")] == (("s2", 0.0, 0.8, 0.8), ("s3", 0.0, 0.0, 0.2))

    def test_without_a_law_only_the_interval_defects(self):
        states, actions, bounds, _, enabled, report = defective_edges()
        m = model(states, actions, {}, bounds, None, enabled=enabled)
        assert law(m) == {}
        assert m.validate() == report[:4]


class TestStep:
    def test_deterministic_successor(self, labeled_mdp):
        rng = random.Random(0)
        for _ in range(20):
            assert sample_next(labeled_mdp, "s2", "a1", rng) == "s2"

    def test_empirical_frequencies(self, labeled_mdp):
        rng = random.Random(123)
        counts = Counter(sample_next(labeled_mdp, "s0", "a1", rng) for _ in range(100000))
        assert abs(counts["s1"] / 100000 - 0.8) < 0.01
        assert abs(counts["s2"] / 100000 - 0.2) < 0.01

    def test_support_containment(self, labeled_mdp):
        rng = random.Random(7)
        for s in labeled_mdp.states:
            for a in labeled_mdp.actions:
                reachable = {s2 for s2, _, hi, _ in labeled_mdp.support(s, a)}
                for _ in range(50):
                    assert sample_next(labeled_mdp, s, a, rng) in reachable

    def test_missing_dynamics(self):
        m = three_state_mdp()
        blind = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, m.bounds)
        with pytest.raises(MissingDynamicsError):
            sample_next(blind, "s0", "a1", random.Random(0))

    def test_reward_passthrough(self):
        m = three_state_mdp()
        pays = {("s0", a): 2.5 for a in m.actions}
        rewarding = model(m.states, m.actions, m.labels, m.bounds, law(m), pays)
        assert rewarding.rewards is pays
        # a model without a reward table pays nothing, and still pickles
        assert all(m.rewards.get((s, a), 0.0) == 0.0 for s in m.states for a in m.actions)
        assert pickle.loads(pickle.dumps(m)).rewards.get(("s0", "a1"), 0.0) == 0.0


def eager_samplers(mdp):
    """Every (s, a) sampler table built up front: the positive true-dynamics entries of
    the row in dict order, stably sorted by successor state order, with running sums."""
    order = {s: i for i, s in enumerate(mdp.states)}
    rows = {}
    for (s, a, s2), p in law(mdp).items():
        if p > 0.0:
            rows.setdefault((s, a), []).append((s2, p))
    tables = {}
    for key, entries in rows.items():
        entries.sort(key=lambda item: order[item[0]])
        cum, total = [], 0.0
        for _, p in entries:
            total += p
            cum.append(total)
        cum[-1] = max(cum[-1], 1.0)
        tables[key] = ([s2 for s2, _ in entries], cum)
    return tables


class TestSamplers:
    def test_tables_on_first_use_match_eager_tables(self):
        spec, _ = canonical_case_study()
        mdp = build_grid_mdp(spec)
        expected = eager_samplers(mdp)
        assert set(expected) == {(s, a) for s in mdp.states for a in mdp.enabled[s]}
        for (s, a), table in expected.items():
            assert mdp.sampler(s, a) == table
            assert mdp.sampler(s, a) is mdp.sampler(s, a)

    def test_missing_row(self):
        m = three_state_mdp()
        dynamics = {key: p for key, p in law(m).items() if key[:2] != ("s2", "a2")}
        gap = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, m.bounds, dynamics)
        assert gap.sampler("s2", "a1") == (["s2"], [1.0])
        with pytest.raises(MdpError, match="no transitions defined for state 's2' action 'a2'"):
            gap.sampler("s2", "a2")
        blind = LabeledIntervalMdp.from_edges(m.states, m.actions, m.labels, m.bounds)
        with pytest.raises(MissingDynamicsError):
            blind.sampler("s2", "a1")
