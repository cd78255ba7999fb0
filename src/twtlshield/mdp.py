"""Labeled MDPs with interval-bounded transition probabilities.

The model separates what the shield may use (states, actions, labels, and
per-transition probability intervals) from what only the episode loops in
:mod:`learner` read: the true transition law, as cumulative tables from
:meth:`LabeledIntervalMdp.sampler`, and the reward ``reward_fn``.  Absent
interval entries mean the transition is impossible ([0, 0]).
"""

from __future__ import annotations

import itertools
import math

FEASIBILITY_TOL = 1e-9


class MdpError(Exception):
    pass


class MissingDynamicsError(MdpError):
    pass


def row_infeasibility(lo_sum, hi_sum):
    """None if a row whose bounds sum to ``lo_sum``/``hi_sum`` admits a distribution, else why not."""
    if lo_sum > 1.0 + FEASIBILITY_TOL:
        return f"sum of lower bounds {lo_sum:.9f} exceeds 1"
    if hi_sum < 1.0 - FEASIBILITY_TOL:
        return f"sum of upper bounds {hi_sum:.9f} is below 1"
    return None


def interval_row(los, his):
    """An (s, a) row's LP constants: rooms hi - lo, mass 1 - fsum(los), None or why infeasible."""
    lo_sum = math.fsum(los)
    return ([hi - lo for lo, hi in zip(los, his)], 1.0 - lo_sum,
            row_infeasibility(lo_sum, math.fsum(his)))


def dynamics_rows(dynamics):
    """True-dynamics entries with positive probability, grouped by (s, a) in dict order:
    (s, a) -> [(s', p), ...]."""
    rows = {}
    for (s, a, s2), p in dynamics.items():
        if p > 0.0:
            rows.setdefault((s, a), []).append((s2, p))
    return rows


def _no_reward(s, a):
    return 0.0      # a module function, not a lambda, so that models pickle


class LabeledIntervalMdp:
    """States, actions, labels, interval bounds, and optional true dynamics.

    ``bounds`` maps (s, a, s') to (lo, hi).  ``enabled`` restricts the action
    set per state (walls and one-way doors remove actions outright); states
    not listed keep the full action set.  ``reward_fn(s, a)`` is read only by
    the episode loops; a model without one pays 0.0.
    """

    def __init__(self, states, actions, labels, bounds, true_dynamics=None,
                 reward_fn=None, enabled=None):
        self.states = tuple(states)
        self.actions = tuple(actions)
        self.labels = {s: frozenset(labels.get(s, ())) for s in self.states}
        self.bounds = dict(bounds)
        self.true_dynamics = dict(true_dynamics) if true_dynamics is not None else None
        self.reward_fn = reward_fn or _no_reward
        state_set = set(self.states)
        full = tuple(self.actions)
        self.enabled = {s: full for s in self.states}
        if enabled is not None:
            for s, acts in enabled.items():
                if s not in state_set:
                    raise MdpError(f"enabled-action entry for unknown state {s!r}")
                self.enabled[s] = tuple(acts)
        self._index_support()
        # grouped once: the samplers and validate read the same rows
        self._dynamics_rows = {} if self.true_dynamics is None else dynamics_rows(self.true_dynamics)
        self._samplers = {}     # (s, a) -> (succs, cum), built by the first sampler() call

    def _index_support(self):
        # state -> position: the support's order here and the samplers' successor order
        order = self._order = {s: i for i, s in enumerate(self.states)}
        support = {}
        for (s, a, s2), (lo, hi) in self.bounds.items():
            if hi > 0.0:
                support.setdefault((s, a), []).append((order.get(s2, -1), s2, lo, hi))
        self._support = {}
        for key, entries in support.items():
            entries.sort()
            self._support[key] = tuple((s2, lo, hi) for _, s2, lo, hi in entries)

    def support(self, s, a):
        """Successors with positive upper bound, as (s', lo, hi) tuples."""
        return self._support.get((s, a), ())

    def sampler(self, s, a):
        """The true law at (s, a): successors and their cumulative probabilities."""
        if self.true_dynamics is None:
            raise MissingDynamicsError("this model has no true dynamics to simulate")
        table = self._samplers.get((s, a))
        if table is None:
            entries = self._dynamics_rows.get((s, a))
            if entries is None:
                raise MdpError(f"no transitions defined for state {s!r} action {a!r}")
            entries = sorted(entries, key=lambda item: self._order.get(item[0], -1))
            cum = list(itertools.accumulate(p for _, p in entries))
            cum[-1] = max(cum[-1], 1.0)
            table = self._samplers[(s, a)] = ([s2 for s2, _ in entries], cum)
        return table

    def validate(self):
        """Check interval and dynamics invariants; returns a list of violations."""
        problems = []
        bad = [item for item in self.bounds.items() if not 0.0 <= item[1][0] <= item[1][1] <= 1.0]
        for (s, a, s2), (lo, hi) in sorted(bad, key=repr):     # only the offenders, by repr
            problems.append(f"bounds out of order for ({s!r},{a!r},{s2!r}): [{lo},{hi}]")
        for s in self.states:
            if not self.enabled[s]:
                problems.append(f"state {s!r} has no enabled actions")
            for a in self.enabled[s]:
                entries = self.support(s, a)
                infeasible = row_infeasibility(math.fsum(lo for _, lo, _ in entries),
                                               math.fsum(hi for _, _, hi in entries))
                if infeasible is not None:
                    problems.append(f"infeasible bounds at ({s!r},{a!r}): {infeasible}")
        if self.true_dynamics is not None:
            for (s, a, s2), p in self.true_dynamics.items():
                lo, hi = self.bounds.get((s, a, s2), (0.0, 0.0))
                if not (lo - 1e-12 <= p <= hi + 1e-12):
                    problems.append(
                        f"true probability {p:.6f} outside bounds [{lo},{hi}] for ({s!r},{a!r},{s2!r})")
            for s in self.states:
                for a in self.enabled[s]:
                    entries = self._dynamics_rows.get((s, a))
                    if entries is None:
                        problems.append(f"true dynamics missing for ({s!r},{a!r})")
                        continue
                    total = math.fsum(p for _, p in entries)
                    if abs(total - 1.0) > FEASIBILITY_TOL:
                        problems.append(f"true dynamics at ({s!r},{a!r}) sum to {total!r}, not 1")
        return problems
