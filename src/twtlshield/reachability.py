"""Worst-case satisfaction bounds and action pruning on the time-total product.

For each product state the backward recursion computes f(p), the largest
lower bound on the probability of reaching an accepting state in the
remaining steps, assuming transition probabilities may sit anywhere inside
their intervals.  Per action the bound is the optimum of a small linear
program (minimize sum f_j * x_j over the box-constrained simplex slice),
solved in closed form by greedy mass assignment: everything starts at its
lower bound and the remaining mass goes to the successors with the smallest
f first.  When the first of them (lowest index among ties) has room for all
of the remaining mass, as on almost every grid row, the fill puts it there
without sorting the row: that is the sorted fill's first and last step, so
the bits are the same.

Multi-shot pruning splits the horizon into segments with per-segment
thresholds whose product is the desired probability, and prunes each segment
against a 0/1 boundary derived from the next segment; an action is removed
wherever some possible successor falls below its segment's threshold.
One-shot pruning is the one-segment plan at the desired probability, so both
modes run one segment loop.

A row's LP constants (rooms, remaining mass, feasibility, a lone nonzero lower
bound) depend only on the model row, so ``mdp.interval_row`` computes them once
per (s, a) into ``product.support_rows``; the sweep and :func:`solve_kappa` run
one kernel, :func:`greedy_kappa`, on them: the same arithmetic, the same bits.

A non-terminal state's bound, kept actions and fallback action depend only on
its MDP state s, the f-values of its successors (``product.next_ids``) and
the pruning threshold, so a sweep solves the LPs once per distinct (s,
successor f-values) and copies that result to every state with the same key.
The copy is what the same scalar arithmetic would recompute, so results are
bit-identical; a result is stored only once all its LPs solved, so an
infeasible row still raises at its first state in layer order.  No layer or
segment enters a result, so segments with one threshold share one memo.

A sweep whose end layer holds only decided pairs (``automaton.decided``:
accepting or trash) is *closed*: it computes each pair once and reuses the
result at the pair's other layers.  Every path from a pair then meets a
decided pair by the end layer, whichever layer of the sweep it starts from,
and decided pairs keep their 0/1 values at every layer; so a pair's result is
the same at each of its layers, with no induction down the layers to decide
it.  With the horizon at the formula's time bound, the one-shot sweep and the
last multi-shot segment are closed.  An open sweep reuses only decided pairs;
every other state goes through the memo, which returns the same result tuple.

The pruning pass runs with the cyclic garbage collector paused, as the product
build does: its memo keys, value lists and result tuples form no reference
cycles, so a collection during the pass would free nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .mdp import interval_row
from .product import TimeTotalProductMdp, _collector_paused


class ReachabilityError(Exception):
    pass


class InfeasibleIntervalError(ReachabilityError):
    """The interval constraints admit no probability distribution."""

    def __init__(self, message, state=None, action=None):
        if state is not None:
            message = f"{message} at state {state!r}, action {action!r}"
        super().__init__(message)
        self.state = state
        self.action = action


class MultiShotInfeasibleError(ReachabilityError):
    def __init__(self, segment):
        super().__init__(f"segment boundary {segment} has no accepting states; "
                         f"no multi-shot guarantee is possible with this plan")
        self.segment = segment


def greedy_fill(values, j, los, rooms, remaining):
    """The minimizing distribution; ``j`` = values.index(min(values)) is the fill's first visit."""
    dist = list(los)
    if 0.0 < remaining <= rooms[j]:
        dist[j] += remaining
    elif remaining > 0.0:
        for _, j in sorted(zip(values, range(len(values)))):
            room = rooms[j]
            if room <= 0.0:
                continue
            add = room if room < remaining else remaining
            dist[j] += add
            remaining -= add
            if remaining <= 0.0:
                break
    return dist


def greedy_kappa(values, least, j, los, rooms, remaining, lone):
    """fsum(values * :func:`greedy_fill`) in [0, 1].  Given ``lone`` = (t, lo_t, lo_t + remaining)
    and a fill of one step or none, only lo_t at t and the mass at j are nonzero.  Zero products
    add nothing to fsum and fsum of two products is one float addition, so for finite values,
    as the sweep's f-values are, the forms below give fsum's bits."""
    if lone is None or remaining > 0.0 and not remaining <= rooms[j]:
        kappa = math.fsum(map(mul, values, greedy_fill(values, j, los, rooms, remaining)))
    elif not remaining > 0.0:           # so t >= 0: with every lower bound 0 the mass is 1
        kappa = values[lone[0]] * lone[1]
    elif lone[0] == j:
        kappa = least * lone[2]
    else:                               # with no nonzero bound, t = -1 and lo_t = 0.0 add 0.0
        kappa = values[lone[0]] * lone[1] + least * remaining
    # min(max(kappa, 0.0), 1.0) to the bit, -0.0 and NaN included, without the calls
    return 0.0 if kappa < 0.0 else 1.0 if kappa > 1.0 else kappa


def solve_kappa(values, los, his):
    """Exact minimum of sum(values * x) s.t. sum(x) = 1, los <= x <= his.

    Returns (kappa, minimizing distribution).  Ties in ``values`` are broken
    by index order; the optimum value does not depend on tie order.
    """
    rooms, remaining, infeasible, lone = interval_row(los, his)
    if infeasible is not None:
        raise InfeasibleIntervalError(infeasible)
    j = values.index(min(values))
    return (greedy_kappa(values, values[j], j, los, rooms, remaining, lone),
            greedy_fill(values, j, los, rooms, remaining))


def _sweep(product, t_hi, t_lo, fnext, prune_below, memo, f, kept, fallback):
    """Backward recursion over the layers t_hi - 1 down to ``t_lo``, pruning as it goes.

    ``fnext`` holds layer ``t_hi``'s values indexed by pair id (``product.keys``);
    the bounds, kept actions and fallback actions of the layers below it go
    into ``f``, ``kept`` and ``fallback`` by state number, and layer ``t_lo``'s
    values are returned by pair id.  An action is kept where every possible
    successor has f >= ``prune_below``.  Decided states (``automaton.decided``)
    keep their 0/1 values and full action sets at every layer.  The maximization
    for f and the fallback runs over all enabled actions, pruned or not.  ``memo``
    maps (s, successor f-values) to (f, kept, fallback) for ``prune_below``.
    """
    enabled = product.mdp.enabled
    decided = product.automaton.decided
    keys = product.keys
    next_ids = product.next_ids
    support_rows = product.support_rows
    closed = all(keys[i][1] in decided for i in product.layer_ids[t_hi])
    cache = [None] * len(keys)          # (f, kept, fallback) of each pair whose result repeats
    for t in range(t_hi - 1, t_lo - 1, -1):
        fcur = [0.0] * len(keys)
        f_of = fnext.__getitem__
        for n, i in enumerate(product.layer_ids[t], product.offsets[t]):
            hit = cache[i]
            if hit is None:
                s, q = keys[i]
                acts = enabled[s]
                if not acts:
                    raise ReachabilityError(f"state {s!r} has no enabled actions")
                value = decided.get(q)
                if value is not None:
                    hit = (value, acts, acts[0])
                else:
                    fvals = tuple(map(f_of, next_ids[i]))
                    hit = memo.get((s, fvals))
                    if hit is None:
                        keep = []
                        best = -1.0
                        best_a = acts[0]
                        get = None
                        for a, row_get, los, rooms, remaining, infeasible, lone in support_rows[s]:
                            if infeasible is not None:
                                raise InfeasibleIntervalError(infeasible, state=(s, q, t), action=a)
                            if row_get is not get:  # a run of rows with one reader reads once
                                get, values = row_get, row_get(fvals)
                                least = min(values)
                                j = values.index(least)
                            k = greedy_kappa(values, least, j, los, rooms, remaining, lone)
                            if least >= prune_below:
                                keep.append(a)
                            if k > best:
                                best = k
                                best_a = a
                        hit = memo[(s, fvals)] = (best, tuple(keep), best_a)
                if closed or value is not None:
                    cache[i] = hit
            fcur[i] = f[n] = hit[0]
            kept[n], fallback[n] = hit[1], hit[2]
        fnext = fcur
    return fnext


@dataclass(frozen=True)
class MultiShotPlan:
    """Segment timestamps 0 = t_0 < ... < t_N = T with per-segment thresholds."""

    timestamps: tuple
    thresholds: tuple

    def __post_init__(self):
        ts = tuple(int(t) for t in self.timestamps)
        if ts != tuple(self.timestamps):
            raise ValueError(f"timestamps must be integers, not {self.timestamps!r}")
        th = tuple(float(x) for x in self.thresholds)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "thresholds", th)
        if len(ts) < 2 or ts[0] != 0:
            raise ValueError("timestamps must start at 0 and contain at least one segment")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps must be strictly increasing")
        if len(th) != len(ts) - 1:
            raise ValueError("need exactly one threshold per segment")
        if any(not (0.0 < x <= 1.0) for x in th):
            raise ValueError("thresholds must lie in (0, 1]")

    def check_product(self, pr_des):
        product = math.prod(self.thresholds)
        if abs(product - pr_des) > 1e-12:
            raise ValueError(f"thresholds multiply to {product!r}, not {pr_des!r}")

    @classmethod
    def even(cls, pr_des, timestamps):
        """Equal per-segment thresholds: the N-th root of the target probability."""
        n = len(timestamps) - 1
        return cls(tuple(timestamps), (pr_des ** (1.0 / max(n, 1)),) * n)


@_collector_paused
def _prune_segments(product, timestamps, thresholds):
    """Prune segment by segment, last to first, and write the shield into ``product`` once.

    The final layer is worth ``automaton.decided.get(q, 0.0)``.  Before each
    earlier segment, its end layer is turned into 0/1 by the later segment's
    threshold: accepting (1) where the later segment's bound meets it, trash
    (0) elsewhere.  Each layer's f is the bound of the segment it starts, so
    the boundary layers keep the later segment's values.  Segments with the
    same threshold share one sweep memo.  Nothing is written if a segment
    raises.
    """
    if product.f is not None:
        raise ReachabilityError("product already holds pruning results; rebuild it first")
    decided = product.automaton.decided
    keys = product.keys
    fnext = [0.0] * len(keys)
    inner = product.offsets[-2]         # states below timestamps[-1], the horizon
    f, kept, fallback = [None] * product.n_states(), [None] * inner, [None] * inner
    for n, i in enumerate(product.layer_ids[-1], inner):
        fnext[i] = f[n] = decided.get(keys[i][1], 0.0)
    memos = {}
    for i in range(len(thresholds), 0, -1):
        if i < len(thresholds):
            boundary = product.layer_ids[timestamps[i]]
            for j in boundary:
                fnext[j] = 1.0 if fnext[j] >= thresholds[i] else 0.0
            if not any(fnext[j] for j in boundary):
                raise MultiShotInfeasibleError(i)
        th = thresholds[i - 1]
        fnext = _sweep(product, timestamps[i], timestamps[i - 1], fnext, th,
                       memos.setdefault(th, {}), f, kept, fallback)
    product.f, product.kept, product.fallback = f, kept, fallback
    product.initial_threshold = thresholds[0]
    product.reset_times = frozenset(timestamps[1:-1])


def one_shot_prune(product: TimeTotalProductMdp, pr_des):
    """Single pruning sweep over the whole horizon: the one-segment plan at pr_des."""
    if not (0.0 < pr_des <= 1.0):
        raise ValueError("pr_des must lie in (0, 1]")
    _prune_segments(product, (0, product.horizon), (pr_des,))
    return product


def multi_shot_prune(product: TimeTotalProductMdp, plan: MultiShotPlan):
    """Segment-wise pruning (:func:`_prune_segments`); returns (product, product.reset_times).

    Action sets and the fallback policy concatenate across segments; the
    interior timestamps become the product's ``reset_times``.
    """
    if plan.timestamps[-1] != product.horizon:
        raise ValueError(f"plan must end at the product horizon {product.horizon}, "
                         f"got {plan.timestamps[-1]}")
    _prune_segments(product, plan.timestamps, plan.thresholds)
    return product, product.reset_times


def check_initial(product: TimeTotalProductMdp, pr_des):
    """Initial states (layer 0) whose bound misses pr_des, as (state, f) pairs; empty means ok."""
    if product.f is None:
        raise ReachabilityError("run a pruning pass before checking initial states")
    return [(p, v) for p, v in zip(product.initial, product.f) if v < pr_des]


def exact_reach_probability(product: TimeTotalProductMdp, policy, true_dynamics):
    """Exact accepting-reach probability under a fixed policy and known dynamics.

    Backward dynamic program over the true law ``true_dynamics``, (s, a, s') -> p, summed
    in its order; serves as the validation oracle for the worst-case bound (it must
    dominate f pointwise).
    """
    rows = {}
    for (s, a, s2), p in true_dynamics.items():
        if p > 0.0:
            rows.setdefault((s, a), []).append((s2, p))
    after, decided = product._after, product.automaton.decided
    states, offsets = product.states, product.offsets
    values = {p: decided.get(p[1], 0.0) for p in states[offsets[-2]:]}
    for t in range(product.horizon - 1, -1, -1):
        for p in states[offsets[t]:offsets[t + 1]]:
            s, q, _ = p
            value = decided.get(q)
            if value is None:
                value = 0.0
                for s2, pr in rows[(s, policy[p])]:
                    value += pr * values[(s2, after(q, s2), t + 1)]
            values[p] = value
    return values
