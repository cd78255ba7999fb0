"""Shielded tabular Q-learning over a pruned time-total product.

Every episode runs for exactly the horizon length.  While the fallback flag
is down, actions come epsilon-greedily from the pruned action set; the moment
the set is empty (or the flag is up) the agent takes the worst-case-optimal
fallback action and keeps doing so until the flag resets.  The flag resets on
accepting and trash states, and additionally on every interior segment
boundary when multi-shot pruning was used, which is what re-enables
exploration between sub-tasks.  The whole shield (pruned sets, fallback
policy, initial threshold and reset layers) lives on the pruned product, so
``learn`` and ``evaluate`` take only the product.

Both loops step the product themselves (true dynamics, automaton move,
``reward_fn``).  Every episode starts at (s0, delta(q_init, l(s0)), 0), a state
of ``product.initial``, all of which the pipeline checks once before learning.
Episodes reset by carrying the final environment state into the next start
(the automaton restarts, the world does not); a fixed start state is
available as an option.  Q-values default to zero for unseen pairs.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass


class LearnerError(Exception):
    pass


@dataclass
class LearnerConfig:
    episodes: int = 50000
    alpha: float = 0.1
    alpha_mode: str = "constant"        # "constant" | "inverse_visit"
    gamma: float = 0.95
    epsilon: float = 0.3
    epsilon_decay: float = 0.9999
    epsilon_floor: float = 0.02
    seed: int = 0
    reset_mode: str = "carry_state"     # "carry_state" | "fixed_start"
    start_state: tuple[int, int] = None  # a grid cell in configs; None: the first MDP state

    def __post_init__(self):
        if self.episodes < 0:
            raise ValueError("episodes must be nonnegative")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.alpha_mode not in ("constant", "inverse_visit"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.reset_mode not in ("carry_state", "fixed_start"):
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}")
        if min(self.alpha, self.epsilon, self.epsilon_decay, self.epsilon_floor) < 0:
            raise ValueError("schedules must be nonnegative")


@dataclass
class EpisodeLog:
    index: int
    satisfied: bool
    cumulative_reward: float
    shield_entry_time: int | None
    steps_shielded: int
    legality_violations: int
    final_state: tuple


@dataclass
class RunResult:
    policy: dict
    logs: list
    q: dict                              # state -> {action: value}; missing pairs are 0
    legality_violations: int

    @property
    def satisfaction_rate(self):
        if not self.logs:
            return 0.0
        return sum(1 for log in self.logs if log.satisfied) / len(self.logs)

    @property
    def average_reward(self):
        if not self.logs:
            return 0.0
        return sum(log.cumulative_reward for log in self.logs) / len(self.logs)


@dataclass(frozen=True)
class EvalResult:
    satisfaction_rate: float
    avg_reward: float
    ci_halfwidth: float
    episodes: int


def _greedy(row, actions):
    """First maximizer over ``actions`` with unseen pairs worth 0."""
    best_a = actions[0]
    best = row.get(best_a, 0.0) if row else 0.0
    for a in actions[1:]:
        v = row.get(a, 0.0) if row else 0.0
        if v > best:
            best = v
            best_a = a
    return best_a


def _next_value(q, p2, enabled):
    row = q.get(p2)
    if not row:
        return 0.0
    best = max(row.values())
    if len(row) < len(enabled) and best < 0.0:
        return 0.0
    return best


def learn(product, cfg: LearnerConfig) -> RunResult:
    """Shielded Q-learning on a pruned product; the flag resets where ``product.resets_flag``."""
    mdp = product.mdp
    sample_next = mdp.sample_next
    reward = mdp.reward_fn
    after = product._after
    q_init = product.automaton.initial
    horizon = product.horizon
    act_sets = product.act_sets
    pi_c = product.pi_c
    resets_flag = product.resets_flag
    if not act_sets:
        raise LearnerError("product has no pruned action sets; run a pruning pass first")
    act_fsets = {p: frozenset(acts) for p, acts in act_sets.items()}

    rng = random.Random(cfg.seed)
    q = {}
    visits = {} if cfg.alpha_mode == "inverse_visit" else None
    logs = []
    total_violations = 0
    gamma = cfg.gamma
    alpha_const = cfg.alpha

    start = cfg.start_state if cfg.start_state is not None else mdp.states[0]
    s0 = start
    flag = False
    epsilon = cfg.epsilon

    for episode in range(cfg.episodes):
        p = (s0, after(q_init, s0), 0)
        cumulative = 0.0
        shield_entry = None
        steps_shielded = 0
        violations = 0

        for t in range(horizon):
            acts = act_sets[p]
            shielded = flag or not acts
            if shielded:
                a = pi_c[p]
                flag = True
            elif rng.random() < epsilon:
                a = acts[rng.randrange(len(acts))]
            else:
                a = _greedy(q.get(p), acts)

            if shielded:
                steps_shielded += 1
                if shield_entry is None:
                    shield_entry = t
                if a != pi_c[p]:
                    violations += 1
            elif a not in act_fsets[p]:
                violations += 1

            s, q_aut, _ = p
            s2 = sample_next(s, a, rng)
            p2 = (s2, after(q_aut, s2), t + 1)
            r = reward(s, a)
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
            target = r + gamma * _next_value(q, p2, mdp.enabled[p2[0]])
            row[a] = (1.0 - alpha) * row.get(a, 0.0) + alpha * target

            p = p2
            if resets_flag(p):
                flag = False

        logs.append(EpisodeLog(
            index=episode,
            satisfied=product.is_accepting(p),
            cumulative_reward=cumulative,
            shield_entry_time=shield_entry,
            steps_shielded=steps_shielded,
            legality_violations=violations,
            final_state=p,
        ))
        total_violations += violations
        s0 = p[0] if cfg.reset_mode == "carry_state" else start
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)

    policy = extract_policy(product, q)
    return RunResult(policy=policy, logs=logs, q=q, legality_violations=total_violations)


def extract_policy(product, q):
    """Greedy policy: argmax Q over the pruned set, fallback where it is empty."""
    policy = {}
    for t, layer in enumerate(product.layers[:-1]):
        for s, qa in layer:
            p = (s, qa, t)
            acts = product.act_sets[p]
            policy[p] = _greedy(q.get(p), acts) if acts else product.pi_c[p]
    return policy


def evaluate(product, policy, n_episodes, seed, start_state=None,
             reset_mode="carry_state") -> EvalResult:
    """Greedy rollout with the shield active but no exploration or updates.

    Reports the satisfaction rate with a Wilson 95% interval half-width.
    """
    sample_next = product.mdp.sample_next
    reward = product.mdp.reward_fn
    after = product._after
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
        p = (s0, after(q_init, s0), 0)
        for t in range(product.horizon):
            shielded = flag or not act_sets[p]
            if shielded:
                a = pi_c[p]
                flag = True
            else:
                a = policy[p]
            s, q_aut, _ = p
            s2 = sample_next(s, a, rng)
            p = (s2, after(q_aut, s2), t + 1)
            total_reward += reward(s, a)
            if product.resets_flag(p):
                flag = False
        if product.is_accepting(p):
            successes += 1
        s0 = p[0] if reset_mode == "carry_state" else start

    rate = successes / n_episodes if n_episodes else 0.0
    return EvalResult(rate, total_reward / n_episodes if n_episodes else 0.0,
                      wilson_halfwidth(successes, n_episodes), n_episodes)


def wilson_halfwidth(successes, n, z=1.96):
    """Wilson 95% half-width; degenerate samples (all or none) report zero."""
    if n == 0 or successes in (0, n):
        return 0.0
    phat = successes / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom


CSV_COLUMNS = ("episode", "satisfied", "cum_reward", "shield_entry_t", "steps_shielded")


def write_episode_csv(logs, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for log in logs:
            writer.writerow([
                log.index,
                int(log.satisfied),
                repr(log.cumulative_reward),
                "" if log.shield_entry_time is None else log.shield_entry_time,
                log.steps_shielded,
            ])
