"""Labeled MDPs with interval-bounded transition probabilities, stored by row.

``rows[(s, a)]`` lists the successors of action a at state s in state order, as
(s', lo, hi, p) tuples, p None where the model has no true law; a successor not
listed is impossible ([0, 0]).  The shield reads the intervals; only the episode
loops in :mod:`learner` read the law (:meth:`LabeledIntervalMdp.sampler`) and ``rewards``.
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
    if not lo_sum <= 1.0 + FEASIBILITY_TOL:     # written so that a NaN sum fails
        return f"sum of lower bounds {lo_sum:.9f} exceeds 1" if lo_sum > 1.0 else "a lower bound is nan"
    if not hi_sum >= 1.0 - FEASIBILITY_TOL:
        return f"sum of upper bounds {hi_sum:.9f} is below 1" if hi_sum < 1.0 else "an upper bound is nan"
    return None


def interval_row(los, his):
    """An (s, a) row's LP constants: rooms hi - lo, mass 1 - fsum(los), None or why infeasible,
    and (t, los[t], los[t] + mass) if only los[t] is nonzero, (-1, 0.0, mass) if none, else None."""
    lo_sum = math.fsum(los)
    remaining = 1.0 - lo_sum
    lone = None
    if los.count(0.0) + 1 >= len(los):             # at most one nonzero lower bound
        lo_t = next(filter(None, los), 0.0)
        lone = (los.index(lo_t) if lo_t else -1, lo_t, lo_t + remaining)
    return ([hi - lo for lo, hi in zip(los, his)], remaining,
            row_infeasibility(lo_sum, math.fsum(his)), lone)


_LABEL_SETS = {}     # one frozenset per distinct label set, shared by every model: they are immutable


class LabeledIntervalMdp:
    """States, actions, labels and ``rows``; ``bounds`` is their (s, a, s') -> (lo, hi) view.

    ``labels`` maps a state to its set of proposition names; a state not in it has none.
    Equal label sets are one shared frozenset, within a model and across models.
    ``enabled`` restricts the action set per state (walls and one-way doors
    remove actions outright); states not listed keep the full action set.
    ``rewards[(s, a)]`` is read only by the episode loops; a move not in it pays 0.0.
    """

    __slots__ = ("states", "actions", "labels", "rows", "_lawful", "rewards", "enabled", "_samplers")

    def __init__(self, states, actions, labels, rows, rewards=None, enabled=None):
        self.states = tuple(states)
        self.actions = tuple(actions)
        self.labels = dict.fromkeys(self.states, frozenset())
        unknown = labels.keys() - self.labels.keys()
        if unknown:
            raise MdpError(f"label for unknown state {min(unknown, key=repr)!r}")
        for s, names in labels.items():
            if isinstance(names, str):
                raise MdpError(f"the label of state {s!r} is the string {names!r}, not a set of names")
            names = frozenset(names)
            self.labels[s] = _LABEL_SETS.setdefault(names, names)
        self.rows = rows
        self._lawful = any(p is not None for row in rows.values() for _, _, _, p in row)
        self.rewards = rewards or {}
        self.enabled = dict.fromkeys(self.states, self.actions)
        for s, acts in (enabled or {}).items():
            if s not in self.enabled:
                raise MdpError(f"enabled-action entry for unknown state {s!r}")
            self.enabled[s] = tuple(acts)
        self._samplers = {}     # (s, a) -> (succs, cum), built by the first sampler() call

    @classmethod
    def from_edges(cls, states, actions, labels, bounds, true_dynamics=None):
        """The model of (s, a, s')-keyed ``bounds`` (lo, hi) and ``true_dynamics`` (p), grouped
        by row once; a probability on an edge without bounds gets [0, 0] (``validate`` says so)."""
        states = tuple(states)
        order = {s: i for i, s in enumerate(states)}
        law = true_dynamics or {}
        grouped = {}
        for (s, a, s2), (lo, hi) in bounds.items():
            grouped.setdefault((s, a), {})[s2] = (s2, lo, hi, law.get((s, a, s2)))
        for (s, a, s2), p in law.items():
            grouped.setdefault((s, a), {}).setdefault(s2, (s2, 0.0, 0.0, p))
        rows = {key: tuple(sorted(row.values(), key=lambda entry: order.get(entry[0], -1)))
                for key, row in grouped.items()}
        return cls(states, actions, labels, rows)

    @property
    def bounds(self):
        """(s, a, s') -> (lo, hi) for every row entry, a new dict per read."""
        return {(s, a, s2): (lo, hi) for (s, a), row in self.rows.items() for s2, lo, hi, _ in row}

    def support(self, s, a):
        """The entries of row (s, a) with positive upper bound."""
        return [entry for entry in self.rows.get((s, a), ()) if entry[2] > 0.0]

    def sampler(self, s, a):
        """The true law at (s, a): successors and their cumulative probabilities."""
        table = self._samplers.get((s, a))
        if table is None:
            if not self._lawful:
                raise MissingDynamicsError("this model has no true dynamics to simulate")
            entries = [(s2, p) for s2, _, _, p in self.rows.get((s, a), ())
                       if p is not None and p > 0.0]
            if not entries:
                raise MdpError(f"no transitions defined for state {s!r} action {a!r}")
            cum = list(itertools.accumulate(p for _, p in entries))
            cum[-1] = max(cum[-1], 1.0)
            table = self._samplers[(s, a)] = ([s2 for s2, _ in entries], cum)
        return table

    def validate(self):
        """Violations in order: bounds out of order (by repr); per state, no actions or infeasible
        rows; with a true law, probabilities outside bounds (by row), then bad law rows."""
        rows, lawful = self.rows, self._lawful
        bad, outside = [], []
        for (s, a), row in rows.items():
            for s2, lo, hi, p in row:
                if not 0.0 <= lo <= hi <= 1.0:
                    bad.append(((s, a, s2), (lo, hi)))
                if p is not None and not lo - 1e-12 <= p <= hi + 1e-12:
                    outside.append(f"true probability {p:.6f} outside bounds [{lo},{hi}] "
                                   f"for ({s!r},{a!r},{s2!r})")
        problems = [f"bounds out of order for ({s!r},{a!r},{s2!r}): [{lo},{hi}]"
                    for (s, a, s2), (lo, hi) in sorted(bad, key=repr)]    # only the offenders
        law = []
        for s in self.states:
            if not self.enabled[s]:
                problems.append(f"state {s!r} has no enabled actions")
            for a in self.enabled[s]:
                los, his, probs = [], [], []
                for _, lo, hi, p in rows.get((s, a), ()):
                    if hi > 0.0:
                        los.append(lo)
                        his.append(hi)
                    if p is not None and p > 0.0:
                        probs.append(p)
                infeasible = row_infeasibility(math.fsum(los), math.fsum(his))
                if infeasible is not None:
                    problems.append(f"infeasible bounds at ({s!r},{a!r}): {infeasible}")
                if not lawful:
                    continue
                if not probs:
                    law.append(f"true dynamics missing for ({s!r},{a!r})")
                elif abs(math.fsum(probs) - 1.0) > FEASIBILITY_TOL:
                    law.append(f"true dynamics at ({s!r},{a!r}) sum to {math.fsum(probs)!r}, not 1")
        return problems + outside + law
