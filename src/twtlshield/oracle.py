"""Independent brute-force verifiers backing the test suite and `verify` command.

Nothing here shares code with the implementations it checks: the word
evaluator re-derives satisfaction by trying hold placements explicitly, the
interval-LP optimum comes from the dual in exact rational arithmetic instead
of the greedy fill, and the exact reachability check in :mod:`reachability`
runs against dynamics sampled here.  These are deliberately slow and simple.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .twtl import And, Concat, Formula, Hold, Not, Or, Within, parse_formula, time_bound
from .mdp import LabeledIntervalMdp


class OracleError(Exception):
    pass


def word_satisfies_brute(formula: Formula, word) -> bool:
    """Placement-enumeration semantics: does some prefix complete the formula?"""
    word = tuple(frozenset(sym) for sym in word)
    return any(_ends_at(formula, word, 0, end) for end in range(len(word)))


def _ends_at(node, word, lo, hi):
    """Does the formula, started at lo, complete exactly at hi?"""
    if hi >= len(word) or hi < lo:
        return False
    if isinstance(node, Hold):
        if hi - lo != node.duration:
            return False
        if node.prop is None:
            return True
        for t in range(lo, hi + 1):
            if (node.prop in word[t]) == node.negated:
                return False
        return True
    if isinstance(node, And):
        for e1 in range(lo, hi + 1):
            for e2 in range(lo, hi + 1):
                if max(e1, e2) != hi:
                    continue
                if _ends_at(node.left, word, lo, e1) and _ends_at(node.right, word, lo, e2):
                    return True
        return False
    if isinstance(node, Or):
        return _ends_at(node.left, word, lo, hi) or _ends_at(node.right, word, lo, hi)
    if isinstance(node, Not):
        if hi != lo + time_bound(node.child):
            return False
        return not any(_ends_at(node.child, word, lo, e) for e in range(lo, hi + 1))
    if isinstance(node, Concat):
        split = None
        for e1 in range(lo, min(len(word), lo + time_bound(node.left) + 1)):
            if _ends_at(node.left, word, lo, e1):
                split = e1
                break
        if split is None:
            return False
        return _ends_at(node.right, word, split + 1, hi)
    if isinstance(node, Within):
        bound = time_bound(node.child)
        k = 0
        while node.low + k + bound <= node.high:
            if _ends_at(node.child, word, lo + node.low + k, hi):
                return True
            k += 1
        return False
    raise TypeError(f"not a formula node: {node!r}")


def enumerate_words(alphabet, length):
    """All words of the given length over subsets of the alphabet."""
    props = tuple(sorted(alphabet))
    cap = 10 ** 6
    n_syms = 1 << len(props)
    if n_syms ** length > cap:
        raise OracleError(f"{n_syms ** length} words exceed the cap of {cap}")
    symbols = [frozenset(combo)
               for r in range(len(props) + 1)
               for combo in itertools.combinations(props, r)]
    return itertools.product(symbols, repeat=length)


def lp_exact_min(values, los, his):
    """Exact minimum of sum(values * x) s.t. sum(x) = 1, los <= x <= his, by LP duality.

    The dual, max over lam of lam + sum_j min((v_j - lam) lo_j, (v_j - lam) hi_j),
    is concave and piecewise linear with its kinks at the v_j, so its maximum
    is at one of them.  Evaluated in Fractions, the value is exact for the
    float inputs.
    """
    v, lo, hi = ([Fraction(x) for x in xs] for xs in (values, los, his))
    if sum(lo) > 1 or sum(hi) < 1:
        raise OracleError("infeasible interval constraints")
    return max(lam + sum((vj - lam) * (l if vj >= lam else h) for vj, l, h in zip(v, lo, hi))
               for lam in v)


def sample_true_dynamics(bounds, rng: random.Random):
    """A stochastic matrix inside the given interval bounds.

    Per (state, action) row present in ``bounds``: start from the lower
    bounds, then spread the remaining mass over the successors with random
    proportions, iteratively clipping at the upper bounds.  Feasible bounds
    always admit a solution; point intervals are returned verbatim.
    """
    rows = {}
    for (s, a, s2), (lo, hi) in bounds.items():
        if hi > 0.0:
            rows.setdefault((s, a), []).append((s2, lo, hi))
    dynamics = {}
    for (s, a) in sorted(rows, key=repr):
        entries = sorted(rows[(s, a)], key=repr)
        caps = [hi - lo for _, lo, hi in entries]
        extra = _spread(1.0 - math.fsum(lo for _, lo, _ in entries), caps, rng)
        for (s2, lo, _), x in zip(entries, extra):
            p = lo + x
            if p > 0.0:
                dynamics[(s, a, s2)] = p
    return dynamics


def _spread(mass, caps, rng):
    """Split ``mass`` over coordinates with the given caps, randomly."""
    if mass <= 0.0:
        return [0.0] * len(caps)
    if math.fsum(caps) < mass - 1e-9:
        raise OracleError("interval bounds leave too little room for probability mass")
    out = [0.0] * len(caps)
    remaining = mass
    open_idx = [i for i, c in enumerate(caps) if c > 0.0]
    while remaining > 1e-15 and open_idx:
        weights = [rng.random() for _ in open_idx]
        total = sum(weights)
        clipped = []
        used = 0.0
        for i, w in zip(open_idx, weights):
            share = remaining * w / total
            room = caps[i] - out[i]
            if share >= room:
                used += room
                out[i] += room
            else:
                used += share
                out[i] += share
                clipped.append(i)
        remaining -= used
        open_idx = clipped
    if remaining > 1e-9:
        raise OracleError("failed to place probability mass inside the bounds")
    # absorb float crumbs into any coordinate with room
    if remaining > 0.0:
        for i in range(len(caps)):
            if out[i] + remaining <= caps[i]:
                out[i] += remaining
                break
    return out


class RandomInstanceSpec:
    """The size of a random instance: small enough to verify exhaustively."""

    max_states = 6
    max_actions = 3
    max_horizon = 6
    interval_width = 0.4


# Compilable formulas over at most two propositions with small time bounds,
# covering every construct the automaton compiler accepts.  Used for the
# exhaustive automaton-versus-semantics equivalence checks.
FORMULA_CORPUS = (
    "[H^1 B]^[0,2]",
    "H^0 TRUE",
    "H^2 B",
    "H^1 !B",
    "H^0 B . H^0 C",
    "[H^0 B]^[0,3]",
    "[H^1 B]^[1,3]",
    "H^1 B & H^1 C",
    "H^0 B | H^1 C",
    "[H^0 B]^[0,2] . [H^0 C]^[0,2]",
    "([H^0 B]^[0,1] | [H^0 C]^[0,1]) . H^0 B",
    "H^0 B . H^0 TRUE . H^0 B",
    "[H^0 B & H^0 C]^[0,2]",
    "[H^1 !B]^[0,3]",
    "(H^0 B . H^0 C) & [H^1 C]^[0,3]",
    "[[H^0 B]^[0,1]]^[0,3]",
)

_FORMULA_POOL = (
    "[H^1 B]^[0,{b}]",
    "[H^0 B]^[0,{b}]",
    "[H^0 B]^[1,{b}]",
    "H^0 B . [H^0 C]^[0,{c}]",
    "[H^0 B]^[0,{c}] . [H^0 C]^[0,{c}]",
    "[H^0 B | H^0 C]^[0,{b}]",
    "[H^1 !B]^[0,{b}]",
    "[H^0 B & H^0 C]^[0,{b}]",
)


def random_formula(rng: random.Random, max_horizon: int):
    """A compilable formula over {B, C} with time bound at most max_horizon."""
    while True:
        template = rng.choice(_FORMULA_POOL)
        b = rng.randint(1, max(1, max_horizon))
        c = rng.randint(1, max(1, (max_horizon - 1) // 2))
        formula = parse_formula(template.format(b=b, c=c), {"B", "C"})
        if 1 <= time_bound(formula) <= max_horizon:
            return formula


LP_MAX_N = 5    # random_lp_instance draws 1 to LP_MAX_N successors


def random_lp_instance(rng: random.Random):
    """Random feasible interval-distribution problem: each interval reaches up
    to 0.5 either side of a random distribution."""
    n = rng.randint(1, LP_MAX_N)
    raw = [rng.random() + 1e-3 for _ in range(n)]
    total = sum(raw)
    values = [rng.random() for _ in range(n)]
    los, his = [], []
    for w in raw:
        p = w / total
        los.append(max(0.0, p - 0.5 * rng.random()))
        his.append(min(1.0, p + 0.5 * rng.random()))
    return values, los, his


def random_interval_mdp(rng: random.Random, spec: RandomInstanceSpec) -> LabeledIntervalMdp:
    """Random labeled MDP with intervals around a hidden base distribution."""
    n_states = rng.randint(2, spec.max_states)
    n_actions = rng.randint(1, spec.max_actions)
    states = list(range(n_states))
    actions = [f"a{i}" for i in range(n_actions)]
    labels = {}
    for s in states:
        roll = rng.random()
        if roll < 0.35:
            labels[s] = frozenset({"B"})
        elif roll < 0.5:
            labels[s] = frozenset({"C"})
        elif roll < 0.6:
            labels[s] = frozenset({"B", "C"})
        else:
            labels[s] = frozenset()
    bounds = {}
    for s in states:
        for a in actions:
            k = rng.randint(1, min(3, n_states))
            succs = rng.sample(states, k)
            raw = [rng.random() + 1e-3 for _ in succs]
            total = sum(raw)
            for s2, w in zip(succs, raw):
                p = w / total
                width = rng.random() * spec.interval_width
                lo = max(0.0, p - width * rng.random())
                hi = min(1.0, p + width * rng.random())
                bounds[(s, a, s2)] = (lo, hi)
    return LabeledIntervalMdp.from_edges(states, actions, labels, bounds)
