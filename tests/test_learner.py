import csv
import io
import pickle
import random
import weakref

import pytest

from twtlshield import oracle
from twtlshield.automaton import compile_formula
from twtlshield.gridworld import build_grid_mdp, canonical_case_study
from twtlshield.mdp import MdpError, MissingDynamicsError
from twtlshield.product import build_product
from twtlshield.reachability import (MultiShotInfeasibleError, MultiShotPlan, check_initial,
                                     exact_reach_probability, multi_shot_prune, one_shot_prune)
from twtlshield.learner import (CSV_COLUMNS, EpisodeLog, EvalResult, LearnerConfig, LearnerError,
                                RunResult, _Numbered, episode_csv, evaluate, learn,
                                wilson_halfwidth)
from twtlshield.twtl import parse_formula, segment_ends, time_bound
from conftest import (is_accepting, is_trash, law, model, resets_flag, sample_next, signed_grid,
                      worst_case_toy)

E = frozenset()
G = frozenset({"G"})


# Slow, independent oracle for the numbered loops of ``learner``: the same episode
# loops written over (s, q, t) product keys, drawing each successor with
# ``conftest.sample_next``, stepping the automaton with ``automaton.step`` on its
# label, and reading the flag rule from ``conftest.resets_flag`` and the reward
# table on every step.  It shares no stepping code with ``learner``.

def reference_greedy(row, actions):
    """First maximizer over ``actions`` with unseen pairs worth 0."""
    best_a = actions[0]
    best = row.get(best_a, 0.0) if row else 0.0
    for a in actions[1:]:
        v = row.get(a, 0.0) if row else 0.0
        if v > best:
            best = v
            best_a = a
    return best_a


def reference_next_value(q, p2, enabled):
    row = q.get(p2)
    if not row:
        return 0.0
    best = max(row.values())
    if len(row) < len(enabled) and best < 0.0:
        return 0.0
    return best


def reference_learn(product, cfg: LearnerConfig, steps=None) -> RunResult:
    """Shielded Q-learning stepping the product by (s, q, t) keys; appends every
    (s, a, s') it samples to ``steps`` if given.  Its policy is a dict keyed by state."""
    mdp = product.mdp
    rewards = mdp.rewards
    step, labels = product.automaton.step, mdp.labels
    q_init = product.automaton.initial
    horizon = product.horizon
    act_sets = product.act_sets
    pi_c = product.pi_c
    if not product.f_values:
        raise LearnerError("product has no pruned action sets; run a pruning pass first")
    act_fsets = {p: frozenset(acts) for p, acts in act_sets.items()}

    rng = random.Random(cfg.seed)
    q = {}
    visits = {} if cfg.alpha_mode == "inverse_visit" else None
    logs = []
    violations = 0
    gamma = cfg.gamma
    alpha_const = cfg.alpha

    start = cfg.start_state if cfg.start_state is not None else mdp.states[0]
    s0 = start
    flag = False
    epsilon = cfg.epsilon

    for episode in range(cfg.episodes):
        p = (s0, step(q_init, labels[s0]), 0)
        cumulative = 0.0
        shield_entry = None
        steps_shielded = 0

        for t in range(horizon):
            acts = act_sets[p]
            shielded = flag or not acts
            if shielded:
                a = pi_c[p]
                flag = True
            elif rng.random() < epsilon:
                a = acts[rng.randrange(len(acts))]
            else:
                a = reference_greedy(q.get(p), acts)

            if shielded:
                steps_shielded += 1
                if shield_entry is None:
                    shield_entry = t
                if a != pi_c[p]:
                    violations += 1
            elif a not in act_fsets[p]:
                violations += 1

            s, q_aut, _ = p
            s2 = sample_next(mdp, s, a, rng)
            if steps is not None:
                steps.append((s, a, s2))
            p2 = (s2, step(q_aut, labels[s2]), t + 1)
            r = rewards.get((s, a), 0.0)
            cumulative += r

            if visits is not None:
                count = visits.get((p, a), 0) + 1
                visits[(p, a)] = count
                alpha = 1.0 / count
            else:
                alpha = alpha_const
            row = q.get(p)
            if row is None:
                row = {}
                q[p] = row
            target = r + gamma * reference_next_value(q, p2, mdp.enabled[p2[0]])
            row[a] = (1.0 - alpha) * row.get(a, 0.0) + alpha * target

            p = p2
            if resets_flag(product, p):
                flag = False

        logs.append(EpisodeLog(
            index=episode,
            satisfied=is_accepting(product, p),
            cumulative_reward=cumulative,
            shield_entry_time=shield_entry,
            steps_shielded=steps_shielded,
        ))
        s0 = p[0] if cfg.reset_mode == "carry_state" else start
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)

    policy = reference_policy(product, q)
    return RunResult(policy=policy, logs=logs, q=q, legality_violations=violations)


def reference_policy(product, q):
    """Greedy policy: argmax Q over the pruned set, fallback where it is empty."""
    policy = {}
    for t, layer in enumerate(product.layers[:-1]):
        for s, qa in layer:
            p = (s, qa, t)
            acts = product.act_sets[p]
            policy[p] = reference_greedy(q.get(p), acts) if acts else product.pi_c[p]
    return policy


def reference_evaluate(product, policy, n_episodes, seed, start_state=None,
                       reset_mode="carry_state") -> EvalResult:
    """Greedy rollout with the shield active, stepping the product by (s, q, t) keys;
    ``policy`` is a dict keyed by state."""
    mdp = product.mdp
    rewards = mdp.rewards
    step, labels = product.automaton.step, mdp.labels
    q_init = product.automaton.initial
    act_sets = product.act_sets
    pi_c = product.pi_c
    rng = random.Random(seed)
    start = start_state if start_state is not None else product.mdp.states[0]
    s0 = start
    flag = False
    successes = 0
    total_reward = 0.0

    for _ in range(n_episodes):
        p = (s0, step(q_init, labels[s0]), 0)
        for t in range(product.horizon):
            shielded = flag or not act_sets[p]
            if shielded:
                a = pi_c[p]
                flag = True
            else:
                a = policy[p]
            s, q_aut, _ = p
            s2 = sample_next(mdp, s, a, rng)
            p = (s2, step(q_aut, labels[s2]), t + 1)
            total_reward += rewards.get((s, a), 0.0)
            if resets_flag(product, p):
                flag = False
        if is_accepting(product, p):
            successes += 1
        s0 = p[0] if reset_mode == "carry_state" else start

    rate = successes / n_episodes if n_episodes else 0.0
    return EvalResult(rate, total_reward / n_episodes if n_episodes else 0.0,
                      wilson_halfwidth(successes, n_episodes), n_episodes)


def by_state(product, policy):
    """A policy list by state number as a dict keyed by state."""
    return dict(zip(product.states, policy))


def corridor_product(pr_des=1.0, missing=(), law=True):
    """Two-cell world where the goal is reachable deterministically.

    ``missing`` lists (s, a, s') entries left out of the true dynamics; the model is
    never validated, so those (s, a) rows are absent.  Without ``law`` the model has
    no true dynamics at all.
    """
    states = ["r", "g"]
    actions = ["go", "stay"]
    labels = {"r": E, "g": G}
    bounds = {
        ("r", "go", "g"): (1.0, 1.0), ("r", "stay", "r"): (1.0, 1.0),
        ("g", "go", "g"): (1.0, 1.0), ("g", "stay", "g"): (1.0, 1.0),
    }
    dynamics = {key: 1.0 for key in bounds if key not in missing} if law else None
    enabled = {"r": ("go", "stay"), "g": ("go", "stay")}
    mdp = model(states, actions, labels, bounds, dynamics, None, enabled)
    aut = compile_formula(parse_formula("[H^0 G]^[0,2]", {"G"}), {"G"})
    return one_shot_prune(build_product(mdp, aut, 2), pr_des)


def assert_same_run(product, result, expected):
    assert dict(result.q) == expected.q
    assert result.logs == expected.logs
    assert len(result.policy) == len(product.kept)
    assert by_state(product, result.policy) == expected.policy
    assert result.legality_violations == expected.legality_violations


def learned_and_recorded(product, cfg):
    """``reference_learn``'s run and every step it sampled; ``learn`` must give the same run."""
    steps = []
    expected = reference_learn(product, cfg, steps)
    assert_same_run(product, learn(product, cfg), expected)
    return steps, expected


def bootstrap_toy(reward_b, x_actions=("a", "b")):
    """Root r moves to x, and x moves to the goal g; only the step (x, "b") pays.

    The shield is written by hand: the root's pruned set is empty, so the flag
    rises at t=0 and stays up at x (t=1, not a reset state), where the agent
    takes the fallback "b", which x's pruned set leaves out.  The learners
    read no bound, only that the bounds are written, so every f is 0.
    Returns the product and the root and x states.
    """
    states = ["r", "x", "g"]
    bounds = {("r", "go", "x"): (1.0, 1.0), ("x", "a", "g"): (1.0, 1.0),
              ("x", "b", "g"): (1.0, 1.0), ("g", "a", "g"): (1.0, 1.0)}
    enabled = {"r": ("go",), "x": x_actions, "g": ("a",)}
    pays = {("x", "b"): reward_b}
    mdp = model(states, ["go", "a", "b"], {"g": G}, bounds, {key: 1.0 for key in bounds}, pays,
                enabled)
    aut = compile_formula(parse_formula("[H^0 G]^[0,2]", {"G"}), {"G"})
    prod = build_product(mdp, aut, 2)
    inner = prod.states[:prod.offsets[prod.horizon]]
    prod.f = [0.0] * prod.n_states()
    prod.kept = [mdp.enabled[s] for s, _, _ in inner]
    prod.fallback = [acts[0] for acts in prod.kept]
    root = next(p for p in prod.initial if p[0] == "r")
    x = ("x", aut.step(root[1], mdp.labels["x"]), 1)
    assert not resets_flag(prod, x)
    prod.kept[inner.index(root)] = ()
    prod.kept[inner.index(x)] = tuple(a for a in x_actions if a != "b")
    prod.fallback[inner.index(x)] = "b"
    return prod, root, x


def episodes(product, steps):
    """Each episode's (p, a) sequence and final state, rebuilt from recorded steps.

    An episode is ``horizon`` consecutive steps; it starts at (s0, delta(q_init, l(s0)), 0)
    and the automaton follows the label of each sampled successor.
    """
    step, labels = product.automaton.step, product.mdp.labels
    rebuilt = []
    for i in range(0, len(steps), product.horizon):
        s0 = steps[i][0]
        p = (s0, step(product.automaton.initial, labels[s0]), 0)
        taken = []
        for s, a, s2 in steps[i:i + product.horizon]:
            assert s == p[0]
            taken.append((p, a))
            p = (s2, step(p[1], labels[s2]), p[2] + 1)
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
            r = product.mdp.rewards.get((p[0], a), 0.0)
            row[a] = (1.0 - alpha) * row.get(a, 0.0) + alpha * (r + cfg.gamma * bootstrap)
    return q


def audit_shield_protocol(product, steps, logs):
    """Re-derive the flag over the recorded steps and count protocol violations.

    A step taken while the derived flag is up must be the fallback action, any
    other step an action of the pruned set; the shield entry time, the count of
    shielded steps and whether the final state accepts must match what the log reports.
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
            if resets_flag(product, landing):
                flag = False
        entry = shielded_at[0] if shielded_at else None
        if (entry, len(shielded_at), is_accepting(product, final)) != \
                (log.shield_entry_time, log.steps_shielded, log.satisfied):
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
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=300, seed=2))
        finals = [final for _, final in episodes(prod, steps)]
        assert len(finals) == len(result.logs)
        for final, log in zip(finals, result.logs):
            assert log.satisfied == is_accepting(prod, final)

    def test_trajectory_length_is_horizon(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=20, seed=3))
        assert len(steps) == 20 * prod.horizon
        rebuilt = episodes(prod, steps)
        assert len(rebuilt) == len(result.logs)
        assert all(final[2] == prod.horizon for _, final in rebuilt)


    def test_model_without_dynamics_cannot_be_stepped(self):
        prod = corridor_product(1.0, law=False)
        assert law(prod.mdp) == {}
        with pytest.raises(MissingDynamicsError):
            learn(prod, LearnerConfig(episodes=1, seed=19))
        with pytest.raises(MissingDynamicsError):
            evaluate(prod, prod.fallback, 1, seed=19)


class TestShieldProtocol:
    def test_flag_holds_until_terminal(self):
        prod = one_shot_prune(worst_case_toy(), 0.6)   # everything pruned at the root
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=200, seed=4))
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
                if resets_flag(prod, taken[i + 1][0] if i + 1 < len(taken) else final):
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
            view = _Numbered(prod)
            for n, p in enumerate(prod.states):
                expected = is_accepting(prod, p) or is_trash(prod, p) or p[2] == boundary
                assert view.resets[n] == resets_flag(prod, p) == expected, p

    def test_multi_shot_flag_releases_at_boundary(self):
        prod, _ = multi_shot_prune(worst_case_toy(), MultiShotPlan((0, 1, 2), (0.9, 0.6)))
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=300, seed=5))
        assert audit_shield_protocol(prod, steps, result.logs) == 0
        # episodes that reach the success cell at the boundary explore again
        toggles = [log for log in result.logs
                   if log.shield_entry_time == 0 and log.steps_shielded < prod.horizon]
        assert toggles, "expected the flag to drop at the segment boundary"

    def test_exploration_stays_in_pruned_set(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)    # the root keeps only "b"
        steps, result = learned_and_recorded(prod, LearnerConfig(
            episodes=200, seed=18, epsilon=1.0, epsilon_decay=1.0, reset_mode="fixed_start",
            start_state="r"))
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
        steps, result = learned_and_recorded(prod, cfg)
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
        assert len(result.policy) == len(prod.kept)
        for p, a in zip(prod.states, result.policy):
            acts = prod.act_sets[p]
            assert a in acts or (not acts and a == prod.pi_c[p])

    def test_rewards_accumulate(self):
        prod = corridor_product(1.0)
        prod.mdp.rewards = {("g", "go"): 1.0, ("g", "stay"): 1.0}
        result = learn(prod, LearnerConfig(episodes=50, seed=10))
        assert all(0.0 <= log.cumulative_reward <= prod.horizon for log in result.logs)
        assert result.average_reward > 0.0

    def test_env_reward_passes_through_unchanged(self):
        # the product never alters rewards: each step pays exactly R(s, a)
        prod = corridor_product(1.0)
        prod.mdp.rewards = {("r", "go"): 0.75, ("r", "stay"): 0.25, ("g", "go"): 2.5,
                            ("g", "stay"): 2.0}
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=50, seed=10,
                                                                 epsilon=0.5))
        for log, i in zip(result.logs, range(0, len(steps), prod.horizon)):
            paid = 0.0
            for s, a, _ in steps[i:i + prod.horizon]:
                paid += prod.mdp.rewards.get((s, a), 0.0)
            assert log.cumulative_reward == paid
        assert {(s, a) for s, a, _ in steps} >= {("r", "go"), ("g", "go"), ("g", "stay")}


class TestResets:
    def test_carry_state_start(self):
        prod = one_shot_prune(worst_case_toy(), 1e-9)
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=100, seed=11,
                                                                 reset_mode="carry_state"))
        rebuilt = episodes(prod, steps)
        starts = [taken[0][0] for taken, _ in rebuilt]
        assert all(p in prod.initial and p in result.q for p in starts)
        for (_, final), start in zip(rebuilt, starts[1:]):
            assert start[0] == final[0]

    def test_fixed_start(self):
        prod = one_shot_prune(worst_case_toy(), 1e-9)
        steps, result = learned_and_recorded(prod, LearnerConfig(
            episodes=100, seed=12, reset_mode="fixed_start", start_state="r"))
        starts = {taken[0][0] for taken, _ in episodes(prod, steps)}
        assert len(starts) == 1
        assert all(p[0] == "r" and p in prod.initial and p in result.q for p in starts)

    def test_failed_initial_check_does_not_stop_learning(self):
        # the pipeline's initial check is the only gate; --allow-unsafe relies on learn running
        prod = one_shot_prune(worst_case_toy(), 0.9)
        assert any(p[0] == "m1" for p, _ in check_initial(prod, prod.initial_threshold))
        steps, result = learned_and_recorded(prod, LearnerConfig(episodes=10, seed=13,
                                                                 start_state="m1"))
        assert len(result.logs) == 10
        assert audit_shield_protocol(prod, steps, result.logs) == 0


class TestBootstrapRule:
    """The bootstrap target maxes over the whole next Q row; unseen actions count 0 only
    when they could raise a negative maximum."""

    CFG = LearnerConfig(episodes=2, seed=0, alpha=0.1, gamma=0.95, reset_mode="fixed_start",
                        start_state="r")

    @staticmethod
    def updated(value, target, alpha=0.1):
        return (1.0 - alpha) * value + alpha * target

    @pytest.mark.parametrize("run", [learn, reference_learn])
    def test_fallback_action_outside_pruned_set_is_bootstrapped(self, run):
        prod, root, x = bootstrap_toy(10.0)
        result = run(prod, self.CFG)
        q_x = self.updated(0.0, 10.0 + 0.95 * 0.0)
        assert result.q[x] == {"b": self.updated(q_x, 10.0 + 0.95 * 0.0)}
        # episode 2 bootstraps the root from x's row, whose only entry is the fallback
        assert result.q[root] == {"go": self.updated(0.0, 0.0 + 0.95 * q_x)}
        assert result.q[root]["go"] > 0.0

    @pytest.mark.parametrize("run", [learn, reference_learn])
    def test_negative_row_with_unseen_actions_bootstraps_zero(self, run):
        prod, root, x = bootstrap_toy(-10.0)
        result = run(prod, self.CFG)
        assert list(result.q[x]) == ["b"] and result.q[x]["b"] < 0.0
        assert result.q[root] == {"go": 0.0}
        # with every enabled action seen, the negative maximum is the target
        prod, root, x = bootstrap_toy(-10.0, x_actions=("b",))
        result = run(prod, self.CFG)
        q_x = self.updated(0.0, -10.0 + 0.95 * 0.0)
        assert result.q[root] == {"go": self.updated(0.0, 0.0 + 0.95 * q_x)}
        assert result.q[root]["go"] < 0.0


class TestAgainstReference:
    @pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
    @pytest.mark.parametrize("alpha_mode", ["constant", "inverse_visit"])
    @pytest.mark.parametrize("reset_mode", ["carry_state", "fixed_start"])
    def test_case_study(self, case_products, mode, alpha_mode, reset_mode):
        prod = case_products[mode]
        start = prod.mdp.states[7] if reset_mode == "fixed_start" else None
        cfg = LearnerConfig(episodes=300, seed=23, epsilon=0.5, epsilon_decay=0.99,
                            alpha_mode=alpha_mode, reset_mode=reset_mode, start_state=start)
        result, expected = learn(prod, cfg), reference_learn(prod, cfg)
        assert_same_run(prod, result, expected)
        assert expected.legality_violations == 0 and 0.0 < expected.satisfaction_rate
        for listed, keyed in ((result.policy, expected.policy), (prod.fallback, prod.pi_c)):
            assert (evaluate(prod, listed, 300, 24, start, reset_mode)
                    == reference_evaluate(prod, keyed, 300, 24, start, reset_mode))

    def test_missing_dynamics_row_names_state_and_action(self):
        prod = corridor_product(1.0, missing=[("r", "stay", "r")])
        assert prod.mdp.validate()     # the missing row is a validation problem
        root = next(p for p in prod.initial if p[0] == "r")
        assert "stay" in prod.act_sets[root]
        cfg = LearnerConfig(episodes=50, seed=20, epsilon=1.0, epsilon_decay=1.0,
                            reset_mode="fixed_start", start_state="r")
        for run in (learn, reference_learn):
            with pytest.raises(MdpError, match="state 'r' action 'stay'") as err:
                run(prod, cfg)
            assert not isinstance(err.value, MissingDynamicsError)
        listed = list(prod.fallback)
        listed[prod.states.index(root)] = "stay"
        for run, policy in ((evaluate, listed), (reference_evaluate, by_state(prod, listed))):
            with pytest.raises(MdpError, match="state 'r' action 'stay'") as err:
                run(prod, policy, 1, seed=20, start_state="r", reset_mode="fixed_start")
            assert not isinstance(err.value, MissingDynamicsError)


@pytest.fixture(scope="module")
def signed_products():
    """``conftest.signed_grid`` pruned in each mode."""
    spec = signed_grid()
    formula = parse_formula("[H^1 P]^[0,6] . [H^0 B]^[0,5]", {"P", "B"})
    aut = compile_formula(formula, {"P", "B"})
    horizon = time_bound(formula)
    one = one_shot_prune(build_product(build_grid_mdp(spec), aut, horizon), 0.6)
    multi, _ = multi_shot_prune(build_product(build_grid_mdp(spec), aut, horizon),
                                MultiShotPlan.even(0.6, (0, 7, horizon)))
    return {"one_shot": one, "multi_shot": multi}


class TestSignedRewards:
    """Falling, tied and zero Q-values: the cases where ``learn``'s greedy action and
    bootstrap value are recomputed rather than carried over."""

    @pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
    @pytest.mark.parametrize("alpha_mode", ["constant", "inverse_visit"])
    @pytest.mark.parametrize("reset_mode", ["carry_state", "fixed_start"])
    def test_matches_reference(self, signed_products, mode, alpha_mode, reset_mode):
        prod = signed_products[mode]
        start = (0, 0) if reset_mode == "fixed_start" else None
        cfg = LearnerConfig(episodes=300, seed=41, epsilon=0.5, epsilon_decay=0.99,
                            alpha_mode=alpha_mode, reset_mode=reset_mode, start_state=start)
        result, expected = learn(prod, cfg), reference_learn(prod, cfg)
        assert_same_run(prod, result, expected)
        # == takes -0.0 for 0.0; the texts tell them apart
        assert ({p: repr(row) for p, row in result.q.items()}
                == {p: repr(row) for p, row in expected.q.items()})
        assert min(v for row in expected.q.values() for v in row.values()) < 0.0
        for listed, keyed in ((result.policy, expected.policy), (prod.fallback, prod.pi_c)):
            assert (repr(evaluate(prod, listed, 300, 42, start, reset_mode))
                    == repr(reference_evaluate(prod, keyed, 300, 42, start, reset_mode)))


class TestRandomStream:
    """``learn`` draws an exploring action with ``rng.choice(acts)``, the reference with
    ``acts[rng.randrange(len(acts))]``: the same draw and the same generator state."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_choice_draws_as_randrange(self, n):
        seq = tuple(f"a{k}" for k in range(n))
        for seed in range(300):
            one, two = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert one.choice(seq) == seq[two.randrange(len(seq))]
                assert one.getstate() == two.getstate()


class TestSharedView:
    """``learn`` and ``evaluate`` run on one numbered view per product, made by the first call."""

    def test_two_learn_calls_on_one_product_agree(self):
        prod = one_shot_prune(worst_case_toy(), 0.4)
        cfg = LearnerConfig(episodes=200, seed=31, epsilon=0.5, alpha_mode="inverse_visit")
        first = learn(prod, cfg)
        view = prod.numbered
        assert view is not None
        second = learn(prod, cfg)
        assert prod.numbered is view
        assert second == first
        assert_same_run(prod, first, reference_learn(prod, cfg))

    def test_view_does_not_keep_its_product_alive(self):
        prod = one_shot_prune(worst_case_toy(), 0.4)
        learn(prod, LearnerConfig(episodes=20, seed=34))
        alive = weakref.ref(prod)
        del prod
        assert alive() is None          # freed by reference counting, with no cycle to collect

    @pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
    def test_evaluate_after_learn_matches_reference(self, mode):
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        prod = build_product(build_grid_mdp(spec), aut, time_bound(formula))
        if mode == "one_shot":
            one_shot_prune(prod, 0.9)
        else:
            multi_shot_prune(prod, MultiShotPlan.even(0.9, segment_ends(formula)))
        result = learn(prod, LearnerConfig(episodes=200, seed=32, epsilon=0.5))
        view = prod.numbered
        for listed, keyed in ((result.policy, by_state(prod, result.policy)),
                              (prod.fallback, prod.pi_c)):
            assert (evaluate(prod, listed, 300, 33)
                    == reference_evaluate(prod, keyed, 300, 33))
        assert prod.numbered is view

    def test_pickled_model_and_shield_learn_the_same(self):
        # the case-study model and its shield are data: they round-trip through pickle,
        # before learning and after it, when the product holds the learner's view
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        mdp = build_grid_mdp(spec)
        copy = pickle.loads(pickle.dumps(mdp))
        assert (copy.states, copy.labels, copy.rows, copy.rewards, copy.enabled) == \
            (mdp.states, mdp.labels, mdp.rows, mdp.rewards, mdp.enabled)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        prod = one_shot_prune(build_product(mdp, aut, time_bound(formula)), 0.9)
        unpickled = pickle.loads(pickle.dumps(prod))
        cfg = LearnerConfig(episodes=300, seed=35, epsilon=0.5)
        result, again = learn(prod, cfg), learn(unpickled, cfg)
        assert (again.policy, again.logs, again.q) == (result.policy, result.logs, result.q)
        view = prod.numbered
        learned = pickle.loads(pickle.dumps(prod))
        assert prod.numbered is view and learned.numbered is None
        after = learn(learned, cfg)
        assert (after.policy, after.logs, after.q) == (result.policy, result.logs, result.q)


def assert_view_follows_rules(prod):
    """The numbered view's start ids and flag resets against the conftest rules and
    against the start lookup the view made before it numbered layer 0."""
    view = _Numbered(prod)
    index = {p: n for n, p in enumerate(prod.states)}
    assert view.starts == {s: index[(s, prod._after(prod.automaton.initial, s), 0)]
                           for s in prod.mdp.states}
    assert view.resets == [resets_flag(prod, p) for p in prod.states]
    return view


class TestNumberedView:
    @pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
    def test_case_study(self, case_products, mode):
        prod = case_products[mode]
        view = assert_view_follows_rules(prod)
        assert len(view.starts) == len(prod.initial) == len(prod.mdp.states)
        assert any(is_accepting(prod, p) for p in prod.states) and not all(view.resets)
        assert (mode == "multi_shot") == bool(prod.reset_times)

    def test_random_instances(self):
        rng = random.Random(1913)
        spec = oracle.RandomInstanceSpec()
        segmented = 0
        for _ in range(200):
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            horizon = time_bound(formula)
            prod = build_product(model, aut, horizon)
            if horizon >= 2:    # a reset layer in the middle, where that plan is feasible
                try:
                    multi_shot_prune(prod, MultiShotPlan.even(0.3, (0, horizon // 2, horizon)))
                    segmented += 1
                except MultiShotInfeasibleError:
                    assert prod.f is None       # nothing written: prune it in one shot
            if prod.f is None:
                one_shot_prune(prod, 0.3)
            assert_view_follows_rules(prod)
        assert segmented >= 100, segmented


class TestEvaluate:
    def test_deterministic_always_satisfying(self):
        prod = corridor_product(1.0)
        result = evaluate(prod, prod.fallback, 500, seed=14)
        assert result.satisfaction_rate == 1.0
        assert result.ci_halfwidth == 0.0

    def test_rate_is_success_fraction(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        result = evaluate(prod, prod.fallback, 1000, seed=15, start_state="r",
                          reset_mode="fixed_start")
        assert result.satisfaction_rate * 1000 == int(result.satisfaction_rate * 1000)

    def test_matches_exact_reachability(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        exact = exact_reach_probability(prod, prod.pi_c, law(prod.mdp))
        root = next(p for p in prod.initial if p[0] == "r")
        result = evaluate(prod, prod.fallback, 5000, seed=16, start_state="r",
                          reset_mode="fixed_start")
        assert abs(result.satisfaction_rate - exact[root]) <= result.ci_halfwidth + 0.005

    def test_wilson_halfwidth_values(self):
        assert wilson_halfwidth(0, 100) == 0.0
        assert wilson_halfwidth(100, 100) == 0.0
        mid = wilson_halfwidth(50, 100)
        assert 0.09 < mid < 0.11


class TestCsv:
    def test_columns_and_rows(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        result = learn(prod, LearnerConfig(episodes=25, seed=17))
        rows = list(csv.reader(io.StringIO(episode_csv(result.logs))))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 26
        for row in rows[1:]:
            assert row[1] in ("0", "1")
            float(row[2])
