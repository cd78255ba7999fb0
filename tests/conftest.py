import bisect

import pytest

from twtlshield.twtl import parse_formula, segment_ends, time_bound
from twtlshield.automaton import compile_formula
from twtlshield.gridworld import GridSpec, build_grid_mdp, canonical_case_study
from twtlshield.mdp import LabeledIntervalMdp
from twtlshield.product import build_product
from twtlshield.reachability import MultiShotPlan, multi_shot_prune, one_shot_prune

B = frozenset({"B"})
C = frozenset({"C"})
BC = frozenset({"B", "C"})
E = frozenset()


@pytest.fixture(scope="session")
def window_formula():
    """Stay at B for one step within [0, 2] (the six-state reference automaton)."""
    return parse_formula("[H^1 B]^[0,2]", {"B"})


@pytest.fixture(scope="session")
def window_automaton(window_formula):
    return compile_formula(window_formula, {"B"})


@pytest.fixture(scope="session")
def case_products():
    """The 6x6 case study at eps 0.08 and pr_des 0.9, pruned in each mode."""
    spec, formula = canonical_case_study(assumed_uncertainty=0.08)
    aut = compile_formula(formula, sorted(spec.alphabet()))
    horizon = time_bound(formula)
    one = one_shot_prune(build_product(build_grid_mdp(spec), aut, horizon), 0.9)
    multi, _ = multi_shot_prune(build_product(build_grid_mdp(spec), aut, horizon),
                                MultiShotPlan.even(0.9, segment_ends(formula)))
    return {"one_shot": one, "multi_shot": multi}


def signed_grid():
    """A 4x4 grid whose reward cells pay negative, tied and -0.0 rewards, and the least
    subnormal (-5e-324, whose updates underflow to zero)."""
    return GridSpec(4, 4, 0.05, 0.1, labels={(1, 2): frozenset({"P"}), (3, 3): frozenset({"B"})},
                    reward_cells={(0, 0): -1.0, (1, 0): -1.0, (2, 0): 2.0, (3, 0): 2.0,
                                  (0, 1): -0.0, (1, 1): -0.5, (2, 1): -5e-324, (3, 1): -2.0,
                                  (2, 2): 0.5, (0, 3): -0.0, (1, 3): -5e-324, (3, 3): 1.0})


def model(states, actions, labels, bounds, true_dynamics=None, rewards=None, enabled=None):
    """The model of (s, a, s')-keyed ``bounds`` and ``true_dynamics`` (``from_edges``'s
    rows) with an (s, a) reward table and per-state enabled actions."""
    rows = LabeledIntervalMdp.from_edges(states, actions, labels, bounds, true_dynamics).rows
    return LabeledIntervalMdp(states, actions, labels, rows, rewards, enabled)


def law(mdp):
    """The true law of ``mdp`` as (s, a, s') -> p over its rows; {} without one."""
    return {(s, a, s2): p for (s, a), row in mdp.rows.items()
            for s2, _, _, p in row if p is not None}


def three_state_mdp(exact=True, slack=0.1):
    """Three states s0/s1/s2 with labels {}, {B}, {C} and two actions.

    The transition numbers are fixture constants.  With ``exact`` the bounds
    pin the true dynamics; otherwise they widen by ``slack`` on each side.
    """
    dynamics = {
        ("s0", "a1", "s1"): 0.8, ("s0", "a1", "s2"): 0.2,
        ("s0", "a2", "s0"): 0.5, ("s0", "a2", "s2"): 0.5,
        ("s1", "a1", "s1"): 1.0,
        ("s1", "a2", "s0"): 0.6, ("s1", "a2", "s2"): 0.4,
        ("s2", "a1", "s2"): 1.0,
        ("s2", "a2", "s0"): 1.0,
    }
    if exact:
        bounds = {key: (p, p) for key, p in dynamics.items()}
    else:
        bounds = {key: (max(0.0, p - slack), min(1.0, p + slack)) for key, p in dynamics.items()}
    labels = {"s0": E, "s1": B, "s2": C}
    return LabeledIntervalMdp.from_edges(["s0", "s1", "s2"], ["a1", "a2"], labels, bounds, dynamics)


@pytest.fixture()
def labeled_mdp():
    return three_state_mdp()


def successors(prod, p, a):
    """Successors of product state p under a, as ((s', q', t+1), lo, hi); none at the horizon.

    The tests' independent reference for the product's numbered layers: it
    steps the automaton on each successor's label directly.
    """
    s, q, t = p
    if t >= prod.horizon:
        return ()
    return tuple(((s2, prod.automaton.step(q, prod.mdp.labels[s2]), t + 1), lo, hi)
                 for s2, lo, hi, _ in prod.mdp.support(s, a))


def is_trash(prod, p):
    """Whether product state p counts as trash: the automaton's trash state, or a
    non-accepting state at the horizon, which the product coerces to trash."""
    _, q, t = p
    return q == prod.automaton.trash or (t == prod.horizon and q not in prod.automaton.accepting)


def is_accepting(prod, p):
    """Whether product state p is accepting: its automaton state is."""
    return p[1] in prod.automaton.accepting


def resets_flag(prod, p):
    """Whether the fallback flag resets on reaching product state p: p is accepting or
    trash, or lies at a multi-shot shield's interior segment boundary."""
    return is_accepting(prod, p) or is_trash(prod, p) or p[2] in prod.reset_times


def sample_next(mdp, s, a, rng):
    """One draw of the successor of (s, a) from ``mdp.sampler``'s cumulative table;
    a row with one successor draws no number."""
    succs, cum = mdp.sampler(s, a)
    return succs[bisect.bisect_right(cum, rng.random())] if len(succs) > 1 else succs[0]


def worst_case_toy():
    """Product whose root has two actions with successor bounds (1,0) / (0.5,0.5).

    States: r (start), g (labeled G, success), l (dead end), m1/m2 (coin-flip
    cells).  Constraint: observe G within two steps.  Hand computation gives
    f(root) = max(0.9*1 + 0.1*0, 0.5) = 0.9 with the first action optimal.
    """
    states = ["r", "g", "l", "m1", "m2"]
    actions = ["a", "b"]
    labels = {"r": E, "g": frozenset({"G"}), "l": E, "m1": E, "m2": E}
    bounds = {
        ("r", "a", "g"): (0.9, 1.0), ("r", "a", "l"): (0.0, 0.1),
        ("r", "b", "m1"): (0.9, 1.0), ("r", "b", "m2"): (0.0, 0.1),
        ("g", "a", "g"): (1.0, 1.0),
        ("l", "a", "l"): (1.0, 1.0),
        ("m1", "a", "g"): (0.5, 0.5), ("m1", "a", "l"): (0.5, 0.5),
        ("m2", "a", "g"): (0.5, 0.5), ("m2", "a", "l"): (0.5, 0.5),
    }
    dynamics = {
        ("r", "a", "g"): 0.95, ("r", "a", "l"): 0.05,
        ("r", "b", "m1"): 0.95, ("r", "b", "m2"): 0.05,
        ("g", "a", "g"): 1.0,
        ("l", "a", "l"): 1.0,
        ("m1", "a", "g"): 0.5, ("m1", "a", "l"): 0.5,
        ("m2", "a", "g"): 0.5, ("m2", "a", "l"): 0.5,
    }
    enabled = {"g": ("a",), "l": ("a",), "m1": ("a",), "m2": ("a",)}
    mdp = model(states, actions, labels, bounds, dynamics, None, enabled)
    formula = parse_formula("[H^0 G]^[0,2]", {"G"})
    automaton = compile_formula(formula, {"G"})
    return build_product(mdp, automaton, 2)


@pytest.fixture()
def toy_product():
    return worst_case_toy()
