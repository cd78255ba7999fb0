"""Shielded tabular Q-learning over a pruned time-total product.

Every episode runs for exactly the horizon length.  While the fallback flag
is down, actions come epsilon-greedily from the pruned action set; the moment
the set is empty (or the flag is up) the agent takes the worst-case-optimal
fallback action and keeps doing so until the flag resets.  This module states
and applies the flag rule: the flag resets on reaching (s, q, t) with q
decided (``automaton.decided``: accepting or trash), at the horizon (where the
rest counts as trash), and at a multi-shot shield's interior segment layers
``product.reset_times``, which re-enables exploration between sub-tasks.
The product holds only the shield (pruned sets, fallback policy, initial
threshold and reset layers), so ``learn`` and ``evaluate`` take only the product.

Both loops step the product themselves, on a numbered view of it built
once per product: ids are the product's state numbers, the pruned sets and
fallback actions its lists, and the view adds each id's flag reset in a
list and each start state's id.
``RunResult.policy`` is a list by state number too, which ``evaluate`` reads;
only the report pairs it with ``product.states``.  The first time action a is
taken at id i, its row is made: the ids of (s', delta(q, l(s')), t+1) for the
successors s' of the model's sampler at (s, a), that sampler's cumulative
table (shared, not copied) and ``rewards.get((s, a), 0.0)``; a row with one
successor keeps its id and no table.  This is exact: a successor's automaton
state and time depend only on (q, s', t), a validated model's true successors
lie in the product's layers, the reward is keyed by (s, a), and the loops make
the same random draws as sampling by state (``rng.random()`` only where a row
has several successors).  Later calls reuse the view (``product.numbered``;
the product is read-only, a row depends only on (id, action)), which holds
the product weakly, so no cycle outlives it.  ``legality_violations`` is 0
by construction (exploring actions come from the pruned set);
``tests/test_learner.py::audit_shield_protocol`` audits the shield protocol
over recorded steps.

Q rows stay dicts by action (``RunResult.q`` is keyed by product state);
``learn`` updates per-id tables as it writes Q, each equal at every read to
the scan it replaces.  ``greedy[i]`` is the first maximizer over the pruned
set, unseen pairs worth 0 (the final policy): it stays when its value rises,
yields to another pruned action that beats it or ties it from earlier in the
set, and is found by a scan of the set when its value falls.  ``top[i]`` is
``max(row.values())`` to the bit, recomputed by a scan of the row when an
entry at the maximum changes or another reaches it, since the first of tied
entries gives the sign of a zero maximum (on the case study, about one step
in five scans the set and one in four the row).  ``boot[j]`` is the bootstrap
value read at j: its maximum, or 0 for an empty row or a negative maximum
while the row misses an enabled action.  Exploring draws use ``rng.choice(acts)``, one ``_randbelow``
call as in ``acts[rng.randrange(len(acts))]``, so actions, floats and files
are unchanged.

Every episode starts at (s0, delta(q_init, l(s0)), 0), a state of
``product.initial``, all of which the pipeline checks once before learning.
Episodes reset by carrying the final environment state into the next start
(the automaton restarts, the world does not); a fixed start state is
available as an option.  Q-values default to zero for unseen pairs.
"""

from __future__ import annotations

import math
import random
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType


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
        for name in ("alpha", "epsilon", "epsilon_decay", "epsilon_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(slots=True)
class EpisodeLog:
    index: int
    satisfied: bool
    cumulative_reward: float
    shield_entry_time: int | None
    steps_shielded: int


@dataclass
class RunResult:
    policy: list                         # state number below the horizon -> action
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


class _Numbered:
    """The pruned product with its states numbered layer by layer (module docstring)."""

    UNSEEN = MappingProxyType({})       # the rows of every state not yet acted at

    def __init__(self, product):
        self.product = weakref.proxy(product)
        self.index = {p: i for i, p in enumerate(product.states)}
        # layer 0 is numbered in ``initial``'s order, one state per MDP state in model order
        self.starts = {s: n for n, (s, _, _) in enumerate(product.initial)}
        aut, horizon, reset_times = product.automaton, product.horizon, product.reset_times
        self.resets = [q in aut.decided or t == horizon or t in reset_times
                       for _, q, t in product.states]
        self.rows = [self.UNSEEN] * len(product.kept)

    def row(self, i, a):
        """(successor ids, cumulative probabilities, reward) of action a at state i,
        or (successor id, None, reward) where there is one successor."""
        s, q, t = self.product.states[i]
        mdp = self.product.mdp
        after = self.product._after
        succs, cum = mdp.sampler(s, a)
        ids = [self.index[(s2, after(q, s2), t + 1)] for s2 in succs]
        reward = mdp.rewards.get((s, a), 0.0)
        if self.rows[i] is self.UNSEEN:
            self.rows[i] = {}
        row = self.rows[i][a] = (ids, cum, reward) if len(ids) > 1 else (ids[0], None, reward)
        return row


def learn(product, cfg: LearnerConfig) -> RunResult:
    """Shielded Q-learning on a pruned product; the flag resets where ``_Numbered.resets``."""
    if product.f is None:
        raise LearnerError("product has no pruned action sets; run a pruning pass first")
    view = product.numbered = product.numbered or _Numbered(product)
    states, act_sets, pi_c, rows = product.states, product.kept, product.fallback, view.rows
    resets, starts, new_row = view.resets, view.starts, view.row
    horizon, accepting, enabled = product.horizon, product.automaton.accepting, product.mdp.enabled

    rng = random.Random(cfg.seed)
    rand, choice = rng.random, rng.choice
    qs = [None] * len(states)
    greedy = [acts[0] if acts else None for acts in act_sets]   # argmax per inner id
    top = [None] * len(act_sets)        # the maximum of each inner id's row
    boot = [0.0] * len(states)          # the bootstrap value of each id's row
    visits = {} if cfg.alpha_mode == "inverse_visit" else None
    logs = []
    violations = 0
    gamma = cfg.gamma
    alpha = cfg.alpha

    start = cfg.start_state if cfg.start_state is not None else product.mdp.states[0]
    s0 = start
    flag = False
    epsilon = cfg.epsilon

    for episode in range(cfg.episodes):
        i = starts[s0]
        cumulative = 0.0
        shield_entry = None
        steps_shielded = 0

        for t in range(horizon):
            acts = act_sets[i]
            if flag or not acts:
                a = pi_c[i]
                flag = True
                steps_shielded += 1
                if shield_entry is None:
                    shield_entry = t
                kept = a in acts
            else:
                a = choice(acts) if rand() < epsilon else greedy[i]
                kept = a in acts
                if not kept:
                    violations += 1

            succ, cum, r = rows[i].get(a) or new_row(i, a)
            j = succ[bisect_right(cum, rand())] if cum else succ
            cumulative += r

            if visits is not None:
                count = visits[i, a] = visits.get((i, a), 0) + 1
                alpha = 1.0 / count
            row = qs[i]
            if row is None:
                row = qs[i] = {}
            old = row.get(a, 0.0)
            new = row[a] = (1.0 - alpha) * old + alpha * (r + gamma * boot[j])

            if kept and new != old:     # keep greedy[i] the first maximizer over acts
                g = greedy[i]
                if a == g:
                    if new < old:
                        g = acts[0]
                        best = row.get(g, 0.0)
                        for b in acts:
                            v = row.get(b, 0.0)
                            if v > best:
                                best = v
                                g = b
                        greedy[i] = g
                else:
                    v = row.get(g, 0.0)
                    if new > v or new == v and acts.index(a) < acts.index(g):
                        greedy[i] = a
            best = top[i]               # max(row.values()), to the bit
            if best is None or new > best:
                best = top[i] = new
            elif old == best or new == best:    # a maximum fell, or a value met it
                best = top[i] = max(row.values())
            boot[i] = 0.0 if best < 0.0 and len(row) < len(enabled[states[i][0]]) else best

            i = j
            if resets[i]:
                flag = False

        final = states[i]
        logs.append(EpisodeLog(episode, final[1] in accepting, cumulative, shield_entry,
                               steps_shielded))
        s0 = final[0] if cfg.reset_mode == "carry_state" else start
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)

    # the greedy policy by state number: argmax Q over the pruned set, fallback where it is empty
    policy = [g if acts else a for g, acts, a in zip(greedy, act_sets, pi_c)]
    q = {states[i]: row for i, row in enumerate(qs) if row is not None}
    return RunResult(policy=policy, logs=logs, q=q, legality_violations=violations)


def evaluate(product, policy, n_episodes, seed, start_state=None,
             reset_mode="carry_state") -> EvalResult:
    """Greedy rollout with the shield active but no exploration or updates.

    ``policy`` is a list by state number, as ``RunResult.policy``.  Reports the
    satisfaction rate with a Wilson 95% interval half-width.
    """
    view = product.numbered = product.numbered or _Numbered(product)
    states, act_sets, pi_c, rows = product.states, product.kept, product.fallback, view.rows
    resets, starts, new_row = view.resets, view.starts, view.row
    accepting = product.automaton.accepting
    rand = random.Random(seed).random
    start = start_state if start_state is not None else product.mdp.states[0]
    s0 = start
    flag = False
    successes = 0
    total_reward = 0.0

    for _ in range(n_episodes):
        i = starts[s0]
        for _ in range(product.horizon):
            if flag or not act_sets[i]:
                a = pi_c[i]
                flag = True
            else:
                a = policy[i]
            succ, cum, r = rows[i].get(a) or new_row(i, a)
            i = succ[bisect_right(cum, rand())] if cum else succ
            total_reward += r
            if resets[i]:
                flag = False
        if states[i][1] in accepting:
            successes += 1
        s0 = states[i][0] if reset_mode == "carry_state" else start

    rate = successes / n_episodes if n_episodes else 0.0
    return EvalResult(rate, total_reward / n_episodes if n_episodes else 0.0,
                      wilson_halfwidth(successes, n_episodes), n_episodes)


def wilson_halfwidth(successes, n):
    """Wilson 95% half-width; degenerate samples (all or none) report zero."""
    if n == 0 or successes in (0, n):
        return 0.0
    z = 1.96
    phat = successes / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom


CSV_COLUMNS = ("episode", "satisfied", "cum_reward", "shield_entry_t", "steps_shielded")


def episode_csv(logs):
    """The per-episode CSV text, one row per log under a ``CSV_COLUMNS`` header, as
    ``csv.writer`` writes it: rows end in ``\\r\\n`` and no field needs quotes."""
    rows = [",".join(CSV_COLUMNS)]
    for log in logs:
        entry = log.shield_entry_time
        rows.append(f"{log.index},{int(log.satisfied)},{log.cumulative_reward!r},"
                    f"{'' if entry is None else entry},{log.steps_shielded}")
    rows.append("")
    return "\r\n".join(rows)
