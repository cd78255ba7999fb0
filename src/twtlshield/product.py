"""Time-indexed product of a labeled interval MDP and a total automaton.

Product states are (s, q, t) triples.  The automaton component tracks task
progress: the start state's label counts as the first observation, so the
initial set is {(s, delta(q_init, l(s)), 0)} over all MDP states, and a move
to s' advances q by delta(q, l(s')).  Only states reachable from the initial
set are enumerated.  delta(q, l(s)) is one read of ``automaton.table[q][mask]``
at s's label mask (``symbol_mask``), computed once per MDP state in state
order, so a label outside the alphabet fails at the first state that has one.

A product edge carries the interval of its MDP edge unchanged, and its
automaton move is the one the successor's label selects.  Every reachable
state at the final layer should be decided (``automaton.decided``); undecided
leftovers (possible only when the horizon undershoots the formula's time
bound) count as trash and are reported in ``coerced``.

Where a move can lead depends only on (s, q), never on t, because the time
index only counts steps.  So the enumeration gives each reachable (s, q) pair
an integer id the first time it sees it: ``keys[i]`` is the pair and
``next_ids[i]`` the ids of its successors, computed once per pair below the
horizon and shared by every layer (None for pairs seen only at the horizon).
Ids go in the order the enumeration finds pairs, from layer 0's one pair per
MDP state in model order (``initial[k]`` starts at ``mdp.states[k]``); each
layer expands the pairs numbered since the one before it.  ``layer_ids[t]``
lists layer t's ids in ascending order, ``layers[t]`` the same as (s, q)
tuples, and ``initial`` layer 0 as (s, q, 0) states.  Each enabled model row
is read once, as stored: ``neighbours[s]`` lists the distinct successors with
hi > 0 over s's rows in first-seen order, and ``support_rows[s]`` per enabled
action (a, an ``itemgetter`` that picks the row's entries, as a tuple, out of
one laid out as ``neighbours[s]``, lower bounds, and the LP constants of
:func:`mdp.interval_row`), only at states the pruning sweep solves: those
paired with an undecided automaton state below the horizon.  A run of rows
that read the same positions (a grid cell's moves) shares one reader, which
the sweep reads once.  A pair's successor values are laid out so, since
``next_ids[i]`` follows ``neighbours[s]``.

States are numbered layer by layer from ``offsets[t]``; ``states[n]`` (built on
first read) is state n, and ``state_keys()[n]`` its ``repr``, the key that the
output files (``policy.json``, ``reachability.json``) and ``eval`` use.  Pruning
writes the shield into lists by state number: ``f`` over all states, ``kept``
and ``fallback`` below the horizon; ``f_values``, ``act_sets`` and ``pi_c`` are
the same as dicts keyed by state, built on the first read after pruning (empty
before).  The episode loops in :mod:`learner` state and apply the fallback
flag's reset rule on their numbered view.

The build and the pruning sweep run with the cyclic garbage collector paused
(:func:`_collector_paused`): they allocate tens of thousands of tuples, lists
and dicts but no reference cycles, so a collection there would only rescan them.
"""

from __future__ import annotations

import gc
from functools import wraps
from itertools import accumulate
from operator import itemgetter

from .automaton import TotalAutomaton, UnknownSymbolError
from .mdp import LabeledIntervalMdp, interval_row


class ProductError(Exception):
    pass


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector disabled; the caller's setting
    is restored however ``fn`` exits, and a caller's disabled collector stays so."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def _reader(pos):
    """``itemgetter`` of the tuple of the entries at ``pos``; one or no position reads as a slice."""
    if len(pos) > 1:
        return itemgetter(*pos)
    return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


class TimeTotalProductMdp:
    """Reachable layered product with room for the shield.

    The pruning pass writes the shield exactly once: ``f``, ``kept``,
    ``fallback``, ``initial_threshold`` and ``reset_times`` (the interior
    segment layers where the fallback flag resets; empty for one-shot).
    Afterwards the object is treated as read-only; ``numbered`` keeps the
    learner's view of it until a caller done with rollouts drops it, and a
    pickled copy leaves it out.
    """

    def __init__(self, mdp: LabeledIntervalMdp, automaton: TotalAutomaton, horizon: int):
        if horizon < 0:
            raise ProductError("horizon must be nonnegative")
        self.mdp = mdp
        self.automaton = automaton
        self.horizon = horizon
        self.neighbours = {}
        rows = {}
        for s in mdp.states:
            seen = {}
            rows[s] = acts = []
            for a in mdp.enabled[s]:
                pos, los, his = [], [], []
                for s2, lo, hi, _ in mdp.rows.get((s, a), ()):
                    if hi > 0.0:
                        pos.append(seen.setdefault(s2, len(seen)))
                        los.append(lo)
                        his.append(hi)
                acts.append((a, pos, los, his))
            self.neighbours[s] = tuple(seen)
        solved = self._enumerate_layers()
        self.support_rows = {s: [] for s in mdp.states if s in solved}
        for s, lps in self.support_rows.items():
            read = None                             # a run of rows with one pos shares a reader
            for a, pos, los, his in rows[s]:
                if pos != read:
                    read, get = pos, _reader(pos)
                lps.append((a, get, los, *interval_row(los, his)))
        self.f = self.kept = self.fallback = self._states = None
        self._tables = {}
        self.initial_threshold = None
        self.reset_times = frozenset()
        self.numbered = None

    def _after(self, q, s):
        """delta(q, l(s)): a read of the automaton's table at s's label mask."""
        return self._delta[q][self._mask[s]]

    def _enumerate_layers(self):
        """Number the reachable (s, q) pairs layer by layer; returns the MDP states the sweep solves."""
        aut = self.automaton
        states = self.mdp.states
        masks = []
        for s in states:
            try:
                masks.append(aut.symbol_mask(self.mdp.labels[s]))
            except UnknownSymbolError as exc:
                raise ProductError(f"label of state {s!r} is not in the automaton alphabet: {exc}")
        self._mask = dict(zip(states, masks))
        table = self._delta = aut.table
        index = {s: k for k, s in enumerate(states)}
        near = [tuple(map(index.__getitem__, self.neighbours[s])) for s in states]
        decided = aut.decided
        width = len(states)
        ids = {}                                    # q * width + MDP state index -> id
        keys = self.keys = []
        where = []
        next_ids = self.next_ids = []
        solved = set()

        def number(k, q):
            i = ids[q * width + k] = len(keys)
            keys.append((states[k], q))
            where.append(k)
            next_ids.append(None)
            return i

        current = [number(k, table[aut.initial][m]) for k, m in enumerate(masks)]
        layer_ids = self.layer_ids = [current]
        fresh = 0                                   # ids below it have their successors
        for t in range(self.horizon):
            numbered = len(keys)                    # ids from fresh on are layer t's new pairs
            for i in range(fresh, numbered):
                s, q = keys[i]
                if q not in decided:
                    solved.add(s)
                row = table[q]
                succ = []
                for k in near[where[i]]:
                    q2 = row[masks[k]]
                    j = ids.get(q2 * width + k)
                    succ.append(number(k, q2) if j is None else j)
                next_ids[i] = tuple(succ)
            fresh = numbered
            current = set().union(*map(next_ids.__getitem__, current))
            layer_ids.append(sorted(current))
        self.layers = [tuple(map(keys.__getitem__, layer)) for layer in layer_ids]
        self.initial = tuple((s, q, 0) for s, q in self.layers[0])
        self.offsets = [0, *accumulate(map(len, layer_ids))]
        self.coerced = frozenset(pair for pair in self.layers[self.horizon] if pair[1] not in decided)
        return solved

    def __getstate__(self):
        """The product without ``numbered``, which holds a weak proxy; the learner rebuilds it."""
        return {**self.__dict__, "numbered": None}

    @property
    def states(self):
        if self._states is None:
            self._states = [(s, q, t) for t, layer in enumerate(self.layers) for s, q in layer]
        return self._states

    def state_keys(self):
        """``repr(p)`` of each state p in state order, from one ``repr`` per MDP state:
        a tuple's ``repr`` is its items' joined by ", " in parentheses."""
        text = {s: repr(s) for s in self.mdp.states}
        return [f"({text[s]}, {q!r}, {t!r})" for t, layer in enumerate(self.layers) for s, q in layer]

    def _table(self, name, values):
        """``values`` keyed by state: built on the first read after pruning, empty before."""
        if values is not None and name not in self._tables:
            self._tables[name] = dict(zip(self.states, values))
        return self._tables.get(name, {})

    f_values = property(lambda self: self._table("f", self.f))
    act_sets = property(lambda self: self._table("kept", self.kept))
    pi_c = property(lambda self: self._table("fallback", self.fallback))

    def n_states(self) -> int:
        return self.offsets[-1]

    def summary(self) -> dict:
        accepting, trash = self.automaton.accepting, self.automaton.trash
        per_layer = []
        for t, layer in enumerate(self.layers):    # at the horizon the rest count as trash
            n_acc = sum(q in accepting for _, q in layer)
            n_trash = len(layer) - n_acc if t == self.horizon else sum(q == trash for _, q in layer)
            per_layer.append({"t": t, "states": len(layer), "accepting": n_acc, "trash": n_trash})
        return {
            "horizon": self.horizon,
            "total_states": self.n_states(),
            "initial_states": len(self.initial),
            "coerced_terminal": len(self.coerced),
            "layers": per_layer,
        }


@_collector_paused
def build_product(mdp: LabeledIntervalMdp, automaton: TotalAutomaton, horizon: int) -> TimeTotalProductMdp:
    return TimeTotalProductMdp(mdp, automaton, horizon)

