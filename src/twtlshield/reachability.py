"""Worst-case satisfaction bounds and action pruning on the time-total product.

For each product state the backward recursion computes f(p), the largest
lower bound on the probability of reaching an accepting state in the
remaining steps, assuming transition probabilities may sit anywhere inside
their intervals.  Per action the bound is the optimum of a small linear
program (minimize sum f_j * x_j over the box-constrained simplex slice),
solved in closed form by greedy mass assignment: everything starts at its
lower bound and the remaining mass goes to the successors with the smallest
f first.

One-shot pruning removes an action wherever some possible successor falls
below the desired probability; multi-shot splits the horizon into segments
with per-segment thresholds whose product is the desired probability, and
prunes each segment against a 0/1 boundary derived from the next segment.

A non-terminal state's bound, kept actions and fallback action depend only on
its MDP state s, the f-values of its successors (``product.next_keys``) and
the pruning threshold, so a sweep solves the LPs once per distinct (s,
successor f-values) and copies that result to every state with the same key.
The copy is what the same scalar arithmetic would recompute, so results are
bit-identical; a result is stored only once all its LPs solved, so an
infeasible row still raises at its first state in layer order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mdp import FEASIBILITY_TOL, MissingDynamicsError
from .product import TimeTotalProductMdp


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


def solve_kappa(values, los, his):
    """Exact minimum of sum(values * x) s.t. sum(x) = 1, los <= x <= his.

    Returns (kappa, minimizing distribution).  Ties in ``values`` are broken
    by index order; the optimum value does not depend on tie order.
    """
    n = len(values)
    lo_sum = math.fsum(los)
    hi_sum = math.fsum(his)
    if lo_sum > 1.0 + FEASIBILITY_TOL:
        raise InfeasibleIntervalError(f"sum of lower bounds {lo_sum:.9f} exceeds 1")
    if hi_sum < 1.0 - FEASIBILITY_TOL:
        raise InfeasibleIntervalError(f"sum of upper bounds {hi_sum:.9f} is below 1")
    dist = list(los)
    remaining = 1.0 - lo_sum
    if remaining > 0.0:
        for j in sorted(range(n), key=lambda j: (values[j], j)):
            room = his[j] - los[j]
            if room <= 0.0:
                continue
            add = room if room < remaining else remaining
            dist[j] += add
            remaining -= add
            if remaining <= 0.0:
                break
    kappa = math.fsum(v * d for v, d in zip(values, dist))
    return min(max(kappa, 0.0), 1.0), dist


def eq6_boundary(product: TimeTotalProductMdp) -> dict:
    """Terminal values: 1 on accepting states, 0 on trash (incl. coerced)."""
    t = product.horizon
    return {(s, q, t): (1.0 if q in product.automaton.accepting else 0.0)
            for s, q in product.layers[t]}


def _sweep(product, t_hi, t_lo, boundary_f, prune_below):
    """Backward recursion from layer ``t_hi`` down to ``t_lo``, pruning as it goes.

    Returns (f, act, pi_c).  An action is kept where every possible successor
    has f >= ``prune_below``.  Accepting and trash states keep their 0/1 values
    and full action sets at every layer.  The maximization for f and pi_c runs
    over all enabled actions, pruned or not.
    """
    mdp = product.mdp
    accepting = product.automaton.accepting
    trash = product.automaton.trash
    next_keys = product.next_keys
    support_rows = product.support_rows
    f = {}
    act = {}
    pi_c = {}
    memo = {}

    fnext = {}
    for s, q in product.layers[t_hi]:
        p = (s, q, t_hi)
        v = boundary_f[p]
        f[p] = v
        fnext[(s, q)] = v

    for t in range(t_hi - 1, t_lo - 1, -1):
        fcur = {}
        for key in product.layers[t]:
            s, q = key
            p = (s, q, t)
            acts = mdp.enabled[s]
            if not acts:
                raise ReachabilityError(f"state {s!r} has no enabled actions")
            if q in accepting or q == trash:
                value = 1.0 if q in accepting else 0.0
                act[p] = tuple(acts)
                pi_c[p] = acts[0]
            else:
                fvals = tuple([fnext[k] for k in next_keys(key)])
                hit = memo.get((s, fvals))
                if hit is None:
                    keep = []
                    best = -1.0
                    best_a = acts[0]
                    for a, pos, los, his in support_rows[s]:
                        values = [fvals[i] for i in pos]
                        try:
                            k, _ = solve_kappa(values, los, his)
                        except InfeasibleIntervalError as exc:
                            raise InfeasibleIntervalError(str(exc), state=p, action=a)
                        if not any(fv < prune_below for fv in values):
                            keep.append(a)
                        if k > best:
                            best = k
                            best_a = a
                    hit = memo[(s, fvals)] = (best, tuple(keep), best_a)
                value, act[p], pi_c[p] = hit
            f[p] = value
            fcur[key] = value
        fnext = fcur
    return f, act, pi_c


@dataclass(frozen=True)
class MultiShotPlan:
    """Segment timestamps 0 = t_0 < ... < t_N = T with per-segment thresholds."""

    timestamps: tuple
    thresholds: tuple

    def __post_init__(self):
        ts = tuple(int(t) for t in self.timestamps)
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

    @property
    def n_segments(self):
        return len(self.thresholds)

    @property
    def pr_des(self):
        return math.prod(self.thresholds)

    def check_product(self, pr_des, tol=1e-12):
        if abs(self.pr_des - pr_des) > tol:
            raise ValueError(f"thresholds multiply to {self.pr_des!r}, not {pr_des!r}")

    @classmethod
    def even(cls, pr_des, timestamps):
        """Equal per-segment thresholds: the N-th root of the target probability."""
        n = len(timestamps) - 1
        return cls(tuple(timestamps), (pr_des ** (1.0 / n),) * n)


def _store(product, f, act, pi_c, threshold, reset_times=frozenset()):
    if product.f_values:
        raise ReachabilityError("product already holds pruning results; rebuild it first")
    product.f_values.update(f)
    product.act_sets.update(act)
    product.pi_c.update(pi_c)
    product.initial_threshold = threshold
    product.reset_times = reset_times


def one_shot_prune(product: TimeTotalProductMdp, pr_des):
    """Single pruning sweep over the whole horizon (threshold pr_des everywhere)."""
    if not (0.0 < pr_des <= 1.0):
        raise ValueError("pr_des must lie in (0, 1]")
    f, act, pi_c = _sweep(product, product.horizon, 0, eq6_boundary(product), pr_des)
    _store(product, f, act, pi_c, pr_des)
    return product


def multi_shot_prune(product: TimeTotalProductMdp, plan: MultiShotPlan):
    """Segment-wise pruning; returns (product, product.reset_times).

    Segments are processed last to first.  The last segment uses the terminal
    0/1 boundary; each earlier segment treats the next segment's boundary
    states as accepting (1) where the next segment's bound meets its
    threshold and trash (0) elsewhere.  Action sets and the fallback policy
    concatenate across segments; the interior timestamps become the product's
    ``reset_times``.
    """
    if plan.timestamps[-1] != product.horizon:
        raise ValueError(f"plan must end at the product horizon {product.horizon}, "
                         f"got {plan.timestamps[-1]}")
    n = plan.n_segments
    f_all = {}
    act_all = {}
    pi_all = {}

    boundary = eq6_boundary(product)
    f_seg = None
    for i in range(n, 0, -1):
        t_hi = plan.timestamps[i]
        t_lo = plan.timestamps[i - 1]
        if i < n:
            # Classify layer t_hi by the next segment's bound against its threshold.
            accept = frozenset(p for p in boundary_states if f_seg[p] >= plan.thresholds[i])
            if not accept:
                raise MultiShotInfeasibleError(i)
            boundary = {p: (1.0 if p in accept else 0.0) for p in boundary_states}
        f_seg, act, pi_c = _sweep(product, t_hi, t_lo, boundary, plan.thresholds[i - 1])
        boundary_states = [(s, q, t_lo) for s, q in product.layers[t_lo]]
        # Keep the segment's own values for t in [t_lo, t_hi); the boundary
        # layer t_hi retains the next segment's (or terminal) values.
        for p, v in f_seg.items():
            if p[2] < t_hi or i == n:
                f_all.setdefault(p, v)
        act_all.update(act)
        pi_all.update(pi_c)

    _store(product, f_all, act_all, pi_all, plan.thresholds[0], frozenset(plan.timestamps[1:-1]))
    return product, product.reset_times


def check_initial(product: TimeTotalProductMdp, pr_des):
    """Initial states whose bound misses pr_des, as (state, f) pairs; empty means ok."""
    if not product.f_values:
        raise ReachabilityError("run a pruning pass before checking initial states")
    violators = []
    for p in product.initial:
        v = product.f_values[p]
        if v < pr_des:
            violators.append((p, v))
    return violators


def exact_reach_probability(product: TimeTotalProductMdp, policy, true_dynamics=None):
    """Exact accepting-reach probability under a fixed policy and known dynamics.

    Backward dynamic program over the true transition law; serves as the
    validation oracle for the worst-case bound (it must dominate f pointwise).
    """
    dyn = true_dynamics if true_dynamics is not None else product.mdp.true_dynamics
    if dyn is None:
        raise MissingDynamicsError("exact reachability needs true dynamics")
    rows = {}
    for (s, a, s2), pr in dyn.items():
        if pr > 0.0:
            rows.setdefault((s, a), []).append((s2, pr))
    after = product._after
    accepting = product.automaton.accepting
    trash = product.automaton.trash

    values = {}
    t = product.horizon
    for s, q in product.layers[t]:
        values[(s, q, t)] = 1.0 if q in accepting else 0.0
    for t in range(product.horizon - 1, -1, -1):
        for s, q in product.layers[t]:
            p = (s, q, t)
            if q in accepting:
                values[p] = 1.0
            elif q == trash:
                values[p] = 0.0
            else:
                total = 0.0
                for s2, pr in rows[(s, policy[p])]:
                    total += pr * values[(s2, after(q, s2), t + 1)]
                values[p] = total
    return values
