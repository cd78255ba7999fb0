import csv

import pytest

from twtlshield.automaton import compile_formula
from twtlshield.mdp import LabeledIntervalMdp, MissingDynamicsError
from twtlshield.product import build_product
from twtlshield.reachability import (MultiShotPlan, check_initial, exact_reach_probability,
                                     multi_shot_prune, one_shot_prune)
from twtlshield.learner import (CSV_COLUMNS, LearnerConfig, evaluate, learn, wilson_halfwidth,
                                write_episode_csv)
from twtlshield.twtl import parse_formula
from conftest import worst_case_toy

E = frozenset()
G = frozenset({"G"})


def corridor_product(pr_des=1.0):
    """Two-cell world where the goal is reachable deterministically."""
    states = ["r", "g"]
    actions = ["go", "stay"]
    labels = {"r": E, "g": G}
    bounds = {
        ("r", "go", "g"): (1.0, 1.0), ("r", "stay", "r"): (1.0, 1.0),
        ("g", "go", "g"): (1.0, 1.0), ("g", "stay", "g"): (1.0, 1.0),
    }
    dynamics = {key: 1.0 for key in bounds}
    enabled = {"r": ("go", "stay"), "g": ("go", "stay")}
    mdp = LabeledIntervalMdp(states, actions, labels, bounds, dynamics, None, enabled)
    aut = compile_formula(parse_formula("[H^0 G]^[0,2]", {"G"}), {"G"})
    return one_shot_prune(build_product(mdp, aut, 2), pr_des)


def record_steps(product):
    """Record every (s, a, s') the product's model samples from now on (test-side fake)."""
    steps = []
    sample = product.mdp.sample_next

    def recorded(s, a, rng):
        s2 = sample(s, a, rng)
        steps.append((s, a, s2))
        return s2
    product.mdp.sample_next = recorded
    return steps


def episodes(product, steps):
    """Each episode's (p, a) sequence and final state, rebuilt from recorded steps.

    An episode is ``horizon`` consecutive steps; it starts at (s0, delta(q_init, l(s0)), 0)
    and the automaton follows the label of each sampled successor.
    """
    rebuilt = []
    for i in range(0, len(steps), product.horizon):
        s0 = steps[i][0]
        p = (s0, product._after(product.automaton.initial, s0), 0)
        taken = []
        for s, a, s2 in steps[i:i + product.horizon]:
            assert s == p[0]
            taken.append((p, a))
            p = (s2, product._after(p[1], s2), p[2] + 1)
        rebuilt.append((taken, p))
    return rebuilt


def replay_q(product, steps, cfg):
    """Re-run the update rule over the recorded steps (test-side oracle)."""
    q = {}
    visits = {}
    for taken, final in episodes(product, steps):
        for i, (p, a) in enumerate(taken):
            p2 = taken[i + 1][0] if i + 1 < len(taken) else final
            if cfg.alpha_mode == "inverse_visit":
                visits[(p, a)] = visits.get((p, a), 0) + 1
                alpha = 1.0 / visits[(p, a)]
            else:
                alpha = cfg.alpha
            row = q.get(p)
            if row is None:
                row = {}
                q[p] = row
            nxt = q.get(p2)
            if not nxt:
                bootstrap = 0.0
            else:
                best = max(nxt.values())
                bootstrap = 0.0 if (len(nxt) < len(product.mdp.enabled[p2[0]])
                                    and best < 0.0) else best
            r = product.mdp.reward_fn(p[0], a)
            row[a] = (1.0 - alpha) * row.get(a, 0.0) + alpha * (r + cfg.gamma * bootstrap)
    return q


def audit_shield_protocol(product, steps, logs):
    """Re-derive the flag over the recorded steps and count protocol violations.

    A step taken while the derived flag is up must be the fallback action, any
    other step an action of the pruned set; the shield entry time, the count of
    shielded steps and the final state must match what the log reports.
    """
    violations = 0
    flag = False
    rebuilt = episodes(product, steps)
    assert len(rebuilt) == len(logs)
    for (taken, final), log in zip(rebuilt, logs):
        shielded_at = []
        for i, (p, a) in enumerate(taken):
            flag = flag or not product.act_sets[p]
            if flag:
                shielded_at.append(p[2])
                if a != product.pi_c[p]:
                    violations += 1
            elif a not in product.act_sets[p]:
                violations += 1
            landing = taken[i + 1][0] if i + 1 < len(taken) else final
            if product.resets_flag(landing):
                flag = False
        entry = shielded_at[0] if shielded_at else None
        if (entry, len(shielded_at), final) != (log.shield_entry_time, log.steps_shielded,
                                                log.final_state):
            violations += 1
    return violations


class TestGuarantees:
    def test_certain_threshold_means_every_episode_satisfies(self):
        prod = corridor_product(1.0)
        cfg = LearnerConfig(episodes=500, seed=1, epsilon=0.5)
        result = learn(prod, cfg)
        assert result.satisfaction_rate == 1.0
        assert all(log.satisfied for log in result.logs)

    def test_satisfied_matches_final_automaton_state(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        result = learn(prod, LearnerConfig(episodes=300, seed=2))
        for log in result.logs:
            assert log.satisfied == prod.is_accepting(log.final_state)

    def test_trajectory_length_is_horizon(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=20, seed=3))
        assert len(steps) == 20 * prod.horizon
        rebuilt = episodes(prod, steps)
        assert [final for _, final in rebuilt] == [log.final_state for log in result.logs]


    def test_model_without_dynamics_cannot_be_stepped(self):
        prod = corridor_product(1.0)
        prod.mdp.true_dynamics = None
        with pytest.raises(MissingDynamicsError):
            learn(prod, LearnerConfig(episodes=1, seed=19))
        with pytest.raises(MissingDynamicsError):
            evaluate(prod, prod.pi_c, 1, seed=19)


class TestShieldProtocol:
    def test_flag_holds_until_terminal(self):
        prod = one_shot_prune(worst_case_toy(), 0.6)   # everything pruned at the root
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=200, seed=4))
        assert prod.reset_times == frozenset()
        assert audit_shield_protocol(prod, steps, result.logs) == 0
        assert result.legality_violations == 0
        # once shielded, the fallback action is taken through to a terminal state
        for (taken, final), log in zip(episodes(prod, steps), result.logs):
            entry = log.shield_entry_time
            if entry is None:
                continue
            for i, (p, a) in enumerate(taken[entry:], entry):
                assert a == prod.pi_c[p]
                if prod.resets_flag(taken[i + 1][0] if i + 1 < len(taken) else final):
                    break

    def test_reset_states(self):
        # the flag resets on accepting and trash states (the final layer counts as
        # trash where not accepting) and, after multi-shot pruning, on interior boundaries
        one = one_shot_prune(worst_case_toy(), 0.5)
        multi, _ = multi_shot_prune(worst_case_toy(), MultiShotPlan((0, 1, 2), (0.9, 0.6)))
        short = build_product(one.mdp, one.automaton, 1)    # horizon below the time bound
        assert short.coerced
        one_shot_prune(short, 0.5)
        for prod, boundary in ((one, None), (multi, 1), (short, None)):
            for t, layer in enumerate(prod.layers):
                for s, q in layer:
                    p = (s, q, t)
                    expected = prod.is_accepting(p) or prod.is_trash(p) or t == boundary
                    assert prod.resets_flag(p) == expected, p

    def test_multi_shot_flag_releases_at_boundary(self):
        prod, _ = multi_shot_prune(worst_case_toy(), MultiShotPlan((0, 1, 2), (0.9, 0.6)))
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=300, seed=5))
        assert audit_shield_protocol(prod, steps, result.logs) == 0
        # episodes that reach the success cell at the boundary explore again
        toggles = [log for log in result.logs
                   if log.shield_entry_time == 0 and log.steps_shielded < prod.horizon]
        assert toggles, "expected the flag to drop at the segment boundary"

    def test_exploration_stays_in_pruned_set(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)    # the root keeps only "b"
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=200, seed=18, epsilon=1.0, epsilon_decay=1.0,
                                           reset_mode="fixed_start", start_state="r"))
        assert audit_shield_protocol(prod, steps, result.logs) == 0
        assert {a for s, a, _ in steps if s == "r"} == {"b"}

    def test_single_segment_plan_equals_one_shot_run(self):
        prod_a = one_shot_prune(worst_case_toy(), 0.5)
        cfg = LearnerConfig(episodes=400, seed=6)
        one = learn(prod_a, cfg)

        prod_b, _ = multi_shot_prune(worst_case_toy(), MultiShotPlan((0, 2), (0.5,)))
        multi = learn(prod_b, cfg)
        assert one.logs == multi.logs
        assert one.q == multi.q
        assert one.policy == multi.policy


class TestQLearning:
    @pytest.mark.parametrize("alpha_mode", ["constant", "inverse_visit"])
    def test_replay_reproduces_q_table(self, alpha_mode):
        prod = one_shot_prune(worst_case_toy(), 0.4)
        cfg = LearnerConfig(episodes=250, seed=7, alpha_mode=alpha_mode)
        steps = record_steps(prod)
        result = learn(prod, cfg)
        assert replay_q(prod, steps, cfg) == result.q
        assert audit_shield_protocol(prod, steps, result.logs) == 0

    def test_same_seed_same_logs(self):
        prod_a = one_shot_prune(worst_case_toy(), 0.5)
        prod_b = one_shot_prune(worst_case_toy(), 0.5)
        cfg = LearnerConfig(episodes=300, seed=8)
        a = learn(prod_a, cfg)
        b = learn(prod_b, cfg)
        assert a.logs == b.logs
        assert a.q == b.q

    def test_policy_respects_pruned_sets(self):
        prod = one_shot_prune(worst_case_toy(), 0.4)
        result = learn(prod, LearnerConfig(episodes=200, seed=9))
        for p, a in result.policy.items():
            acts = prod.act_sets[p]
            assert a in acts or (not acts and a == prod.pi_c[p])

    def test_rewards_accumulate(self):
        prod = corridor_product(1.0)
        prod.mdp.reward_fn = lambda s, a: 1.0 if s == "g" else 0.0
        result = learn(prod, LearnerConfig(episodes=50, seed=10))
        assert all(0.0 <= log.cumulative_reward <= prod.horizon for log in result.logs)
        assert result.average_reward > 0.0

    def test_env_reward_passes_through_unchanged(self):
        # the product never alters rewards: each step pays exactly R(s, a)
        prod = corridor_product(1.0)
        prod.mdp.reward_fn = lambda s, a: {"r": 0.25, "g": 2.0}[s] + (0.5 if a == "go" else 0.0)
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=50, seed=10, epsilon=0.5))
        for log, i in zip(result.logs, range(0, len(steps), prod.horizon)):
            paid = 0.0
            for s, a, _ in steps[i:i + prod.horizon]:
                paid += prod.mdp.reward_fn(s, a)
            assert log.cumulative_reward == paid
        assert {(s, a) for s, a, _ in steps} >= {("r", "go"), ("g", "go"), ("g", "stay")}


class TestResets:
    def test_carry_state_start(self):
        prod = one_shot_prune(worst_case_toy(), 1e-9)
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=100, seed=11, reset_mode="carry_state"))
        starts = [taken[0][0] for taken, _ in episodes(prod, steps)]
        assert all(p in prod.initial and p in result.q for p in starts)
        for prev, start in zip(result.logs, starts[1:]):
            assert start[0] == prev.final_state[0]

    def test_fixed_start(self):
        prod = one_shot_prune(worst_case_toy(), 1e-9)
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=100, seed=12, reset_mode="fixed_start",
                                           start_state="r"))
        starts = {taken[0][0] for taken, _ in episodes(prod, steps)}
        assert len(starts) == 1
        assert all(p[0] == "r" and p in prod.initial and p in result.q for p in starts)

    def test_failed_initial_check_does_not_stop_learning(self):
        # the pipeline's initial check is the only gate; --allow-unsafe relies on learn running
        prod = one_shot_prune(worst_case_toy(), 0.9)
        assert any(p[0] == "m1" for p, _ in check_initial(prod, prod.initial_threshold))
        steps = record_steps(prod)
        result = learn(prod, LearnerConfig(episodes=10, seed=13, start_state="m1"))
        assert len(result.logs) == 10
        assert audit_shield_protocol(prod, steps, result.logs) == 0


class TestEvaluate:
    def test_deterministic_always_satisfying(self):
        prod = corridor_product(1.0)
        result = evaluate(prod, prod.pi_c, 500, seed=14)
        assert result.satisfaction_rate == 1.0
        assert result.ci_halfwidth == 0.0

    def test_rate_is_success_fraction(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        result = evaluate(prod, prod.pi_c, 1000, seed=15, start_state="r",
                          reset_mode="fixed_start")
        assert result.satisfaction_rate * 1000 == int(result.satisfaction_rate * 1000)

    def test_matches_exact_reachability(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        exact = exact_reach_probability(prod, prod.pi_c)
        root = next(p for p in prod.initial if p[0] == "r")
        result = evaluate(prod, prod.pi_c, 5000, seed=16, start_state="r",
                          reset_mode="fixed_start")
        assert abs(result.satisfaction_rate - exact[root]) <= result.ci_halfwidth + 0.005

    def test_wilson_halfwidth_values(self):
        assert wilson_halfwidth(0, 100) == 0.0
        assert wilson_halfwidth(100, 100) == 0.0
        mid = wilson_halfwidth(50, 100)
        assert 0.09 < mid < 0.11


class TestCsv:
    def test_columns_and_rows(self, tmp_path):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        result = learn(prod, LearnerConfig(episodes=25, seed=17))
        path = tmp_path / "episodes.csv"
        write_episode_csv(result.logs, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 26
        for row in rows[1:]:
            assert row[1] in ("0", "1")
            float(row[2])
