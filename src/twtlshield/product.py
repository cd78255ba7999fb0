"""Time-indexed product of a labeled interval MDP and a total automaton.

Product states are (s, q, t) triples.  The automaton component tracks task
progress: the start state's label counts as the first observation, so the
initial set is {(s, delta(q_init, l(s)), 0)} over all MDP states, and a move
to s' advances q by delta(q, l(s')).  Only states reachable from the initial
set are enumerated.

A product edge carries the interval of its MDP edge unchanged, and its
automaton move is the one the successor's label selects.  Every reachable
state at the final layer must be accepting or trash; non-accepting leftovers
(possible only when the horizon undershoots the formula's time bound) are
coerced to trash and reported in ``coerced``.

Where a move can lead depends only on (s, q), never on t.  ``neighbours[s]``
lists the distinct successors of s over all enabled actions in first-seen
order, ``support_rows[s]`` gives per enabled action (a, the positions of its
support in that tuple, lower bounds, upper bounds), and ``next_keys((s, q))``
gives the successors' (s', q') keys, computed once per (s, q) and shared by
every layer.  This is exact because the time index only counts steps: it
changes neither the successors of a state nor the automaton move a label
selects.
"""

from __future__ import annotations

import json

from .automaton import TotalAutomaton, UnknownSymbolError
from .mdp import LabeledIntervalMdp


class ProductError(Exception):
    pass


class TimeTotalProductMdp:
    """Reachable layered product with room for the shield.

    The pruning pass writes the shield exactly once: ``f_values``,
    ``act_sets``, ``pi_c``, ``initial_threshold`` and ``reset_times`` (the
    interior segment layers where the fallback flag resets; empty for
    one-shot).  Afterwards the object is treated as read-only.
    """

    def __init__(self, mdp: LabeledIntervalMdp, automaton: TotalAutomaton, horizon: int):
        if horizon < 0:
            raise ProductError("horizon must be nonnegative")
        self.mdp = mdp
        self.automaton = automaton
        self.horizon = horizon
        self._q_step = {}
        self._next_keys = {}
        self.neighbours = {}
        self.support_rows = {}
        for s in mdp.states:
            seen = {}
            rows = self.support_rows[s] = []
            for a in mdp.enabled[s]:
                entries = mdp.support(s, a)
                rows.append((a, [seen.setdefault(s2, len(seen)) for s2, _, _ in entries],
                             [lo for _, lo, _ in entries], [hi for _, _, hi in entries]))
            self.neighbours[s] = tuple(seen)
        self._enumerate_layers()
        self.f_values = {}
        self.act_sets = {}
        self.pi_c = {}
        self.initial_threshold = None
        self.reset_times = frozenset()

    def _after(self, q, s):
        """delta(q, l(s)), cached per (q, s)."""
        key = (q, s)
        nxt = self._q_step.get(key)
        if nxt is None:
            nxt = self.automaton.step(q, self.mdp.labels[s])
            self._q_step[key] = nxt
        return nxt

    def next_keys(self, key):
        """(s', delta(q, l(s'))) for each s' in neighbours[s], cached per key = (s, q)."""
        nxt = self._next_keys.get(key)
        if nxt is None:
            s, q = key
            after = self._after
            nxt = self._next_keys[key] = tuple([(s2, after(q, s2)) for s2 in self.neighbours[s]])
        return nxt

    def _enumerate_layers(self):
        aut = self.automaton
        start = set()
        for s in self.mdp.states:
            try:
                start.add((s, self._after(aut.initial, s)))
            except UnknownSymbolError as exc:
                raise ProductError(f"label of state {s!r} is not in the automaton alphabet: {exc}")
        reprs = {}

        def by_repr(keys):
            new = keys - reprs.keys()
            reprs.update(zip(new, map(repr, new)))
            return tuple(sorted(keys, key=reprs.__getitem__))

        self.initial = tuple(sorted(((s, q, 0) for s, q in start), key=repr))
        layers = [by_repr(start)]
        current = start
        for t in range(self.horizon):
            nxt = set()
            for k in current:
                nxt.update(self.next_keys(k))
            layers.append(by_repr(nxt))
            current = nxt
        self.layers = layers
        accepting = self.automaton.accepting
        self.coerced = frozenset((s, q) for s, q in layers[self.horizon]
                                 if q not in accepting and q != self.automaton.trash)

    def is_accepting(self, p) -> bool:
        return p[1] in self.automaton.accepting

    def is_trash(self, p) -> bool:
        s, q, t = p
        if q == self.automaton.trash:
            return True
        return t == self.horizon and q not in self.automaton.accepting

    def resets_flag(self, p) -> bool:
        """Whether the fallback flag resets on reaching p: accepting, trash, or a reset layer."""
        _, q, t = p
        return (q in self.automaton.accepting or q == self.automaton.trash
                or t == self.horizon or t in self.reset_times)

    def successors(self, p, a):
        """Eligible successors of p under a, as ((s', q', t+1), lo, hi)."""
        s, q, t = p
        if t >= self.horizon:
            return ()
        return tuple(((s2, self._after(q, s2), t + 1), lo, hi)
                     for s2, lo, hi in self.mdp.support(s, a))

    def n_states(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def summary(self) -> dict:
        accepting = self.automaton.accepting
        trash = self.automaton.trash
        per_layer = []
        for t, layer in enumerate(self.layers):
            n_acc = sum(1 for _, q in layer if q in accepting)
            n_trash = sum(1 for s, q in layer
                          if q == trash or (t == self.horizon and q not in accepting))
            per_layer.append({"t": t, "states": len(layer),
                              "accepting": n_acc, "trash": n_trash})
        return {
            "horizon": self.horizon,
            "total_states": self.n_states(),
            "initial_states": len(self.initial),
            "coerced_terminal": len(self.coerced),
            "layers": per_layer,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True)

    def results_json(self) -> str:
        """f and pi_c keyed by (s, q, t) for offline inspection."""
        doc = {
            "f": {repr(p): v for p, v in sorted(self.f_values.items(), key=repr)},
            "pi_c": {repr(p): repr(a) for p, a in sorted(self.pi_c.items(), key=repr)},
            "act_sets": {repr(p): [repr(a) for a in acts]
                         for p, acts in sorted(self.act_sets.items(), key=repr)},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def build_product(mdp: LabeledIntervalMdp, automaton: TotalAutomaton, horizon: int) -> TimeTotalProductMdp:
    return TimeTotalProductMdp(mdp, automaton, horizon)

