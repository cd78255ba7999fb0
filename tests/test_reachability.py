import dataclasses
import gc
import math
import operator
import random

import pytest

from twtlshield.automaton import compile_formula
from twtlshield.gridworld import build_grid_mdp, canonical_case_study
from twtlshield.mdp import FEASIBILITY_TOL, LabeledIntervalMdp, interval_row
from twtlshield.product import ProductError, build_product
from twtlshield.reachability import (InfeasibleIntervalError, MultiShotInfeasibleError,
                                     MultiShotPlan, ReachabilityError, check_initial,
                                     exact_reach_probability, greedy_kappa, multi_shot_prune,
                                     one_shot_prune, solve_kappa)
from twtlshield.twtl import parse_formula, segment_ends, time_bound
from twtlshield import oracle
from conftest import is_accepting, is_trash, law, successors, worst_case_toy

E = frozenset()


def action_kappa(prod, p, a):
    """Worst-case bound of action a at p, from the stored successor bounds."""
    succ = successors(prod, p, a)
    kappa, _ = solve_kappa([prod.f_values[p2] for p2, _, _ in succ],
                           [lo for _, lo, _ in succ], [hi for _, _, hi in succ])
    return kappa


def reference_solve_kappa(values, los, his):
    """The scalar interval LP written out on its own: the arithmetic oracle for ``solve_kappa``."""
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


def reference_layers(prod):
    """Reachable (s, q) layers rebuilt through ``successors``, sorted by repr."""
    aut = prod.automaton
    layer = {(s, aut.step(aut.initial, prod.mdp.labels[s])) for s in prod.mdp.states}
    layers = [layer]
    for t in range(prod.horizon):
        layer = {p2[:2] for s, q in layer for a in prod.mdp.enabled[s]
                 for p2, _, _ in successors(prod, (s, q, t), a)}
        layers.append(layer)
    return [tuple(sorted(layer, key=repr)) for layer in layers]


def reference_prune(prod, plan):
    """Cache-free pruning: one ``reference_solve_kappa`` per (state, action), segment by segment.

    Returns (layers, f, act_sets, pi_c, boundary times) in the layout of
    ``multi_shot_prune``; a single-segment plan is one-shot pruning.
    """
    layers = reference_layers(prod)
    accepting = prod.automaton.accepting
    trash = prod.automaton.trash
    n = len(plan.thresholds)
    t_end = plan.timestamps[-1]
    f = {(s, q, t_end): (1.0 if q in accepting else 0.0) for s, q in layers[t_end]}
    f_all, act, pi_c = {}, {}, {}
    for i in range(n, 0, -1):
        t_hi, t_lo = plan.timestamps[i], plan.timestamps[i - 1]
        if i == n:
            f_all.update(f)
        else:
            threshold = plan.thresholds[i]
            f = {(s, q, t_hi): (1.0 if f[(s, q, t_hi)] >= threshold else 0.0)
                 for s, q in layers[t_hi]}
            if not any(f.values()):
                raise MultiShotInfeasibleError(i)
        for t in range(t_hi - 1, t_lo - 1, -1):
            for s, q in layers[t]:
                p = (s, q, t)
                acts = prod.mdp.enabled[s]
                if q in accepting or q == trash:
                    f[p] = 1.0 if q in accepting else 0.0
                    act[p], pi_c[p] = tuple(acts), acts[0]
                    continue
                best, best_a, keep = -1.0, acts[0], []
                for a in acts:
                    succ = successors(prod, p, a)
                    values = [f[p2] for p2, _, _ in succ]
                    kappa, _ = reference_solve_kappa(values, [lo for _, lo, _ in succ],
                                                     [hi for _, _, hi in succ])
                    if all(v >= plan.thresholds[i - 1] for v in values):
                        keep.append(a)
                    if kappa > best:
                        best, best_a = kappa, a
                f[p], act[p], pi_c[p] = best, tuple(keep), best_a
            f_all.update(((s, q, t), f[(s, q, t)]) for s, q in layers[t])
    return layers, f_all, act, pi_c, frozenset(plan.timestamps[1:-1])


class TestSolveKappa:
    def test_constant_objective(self):
        kappa, _ = solve_kappa([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert kappa == 1.0

    def test_documented_two_successor_case(self):
        kappa, dist = solve_kappa([0.0, 1.0], [0.0, 0.9], [0.1, 1.0])
        assert kappa == pytest.approx(0.9, abs=1e-12)
        assert dist == pytest.approx([0.1, 0.9])

    def test_point_intervals(self):
        values = [0.3, 0.7]
        kappa, dist = solve_kappa(values, [0.4, 0.6], [0.4, 0.6])
        assert kappa == pytest.approx(0.3 * 0.4 + 0.7 * 0.6, abs=1e-12)
        assert dist == [0.4, 0.6]

    def test_distribution_is_feasible(self):
        rng = random.Random(5)
        for _ in range(200):
            values, los, his = oracle.random_lp_instance(rng)
            kappa, dist = solve_kappa(values, los, his)
            assert math.fsum(dist) == pytest.approx(1.0, abs=1e-9)
            for x, lo, hi in zip(dist, los, his):
                assert lo - 1e-12 <= x <= hi + 1e-12
            assert kappa == pytest.approx(math.fsum(v * d for v, d in zip(values, dist)),
                                          abs=1e-12)

    def test_tie_invariance(self):
        kappa_a, _ = solve_kappa([0.5, 0.5, 1.0], [0.0, 0.2, 0.1], [0.6, 0.7, 1.0])
        kappa_b, _ = solve_kappa([0.5, 0.5, 1.0], [0.2, 0.0, 0.1], [0.7, 0.6, 1.0])
        assert kappa_a == pytest.approx(kappa_b, abs=1e-12)

    def test_infeasible_lower(self):
        with pytest.raises(InfeasibleIntervalError):
            solve_kappa([0.0, 1.0], [0.6, 0.6], [1.0, 1.0])

    def test_infeasible_upper(self):
        with pytest.raises(InfeasibleIntervalError):
            solve_kappa([0.0, 1.0], [0.0, 0.0], [0.3, 0.4])

    def test_matches_exact_min(self):
        rng = random.Random(11)
        for _ in range(100):
            values, los, his = oracle.random_lp_instance(rng)
            kappa, _ = solve_kappa(values, los, his)
            assert abs(kappa - oracle.lp_exact_min(values, los, his)) <= 1e-12

    def test_monotone_under_widening(self):
        rng = random.Random(13)
        for _ in range(200):
            values, los, his = oracle.random_lp_instance(rng)
            base, _ = solve_kappa(values, los, his)
            j = rng.randrange(len(values))
            wid_lo = list(los)
            wid_lo[j] = max(0.0, wid_lo[j] - rng.random() * wid_lo[j])
            wider, _ = solve_kappa(values, wid_lo, his)
            assert wider <= base + 1e-12
            wid_hi = list(his)
            wid_hi[j] = min(1.0, wid_hi[j] + rng.random() * (1 - wid_hi[j]))
            wider, _ = solve_kappa(values, los, wid_hi)
            assert wider <= base + 1e-12


def kernel_rows(rng):
    """Seeded LP rows: general ones, and rows with tied values that have zero-room
    entries (lo == hi), no mass above the lower bounds, or infeasible bounds; then
    rows with at most one nonzero lower bound, as every grid row has."""
    for _ in range(300):
        yield oracle.random_lp_instance(rng)
        n = rng.randint(1, 7)
        ties = [rng.choice((0.0, 0.25, 0.5, 0.9, 1.0)) for _ in range(n)]
        his = [rng.uniform(0.2, 1.0) for _ in range(n)]
        los = [rng.uniform(0.0, hi / n) for hi in his]
        yield ties, los, his
        yield ties, los, [lo if rng.random() < 0.5 else hi for lo, hi in zip(los, his)]
        eighths = [0] * n
        for _ in range(8):
            eighths[rng.randrange(n)] += 1
        exact = [k / 8 for k in eighths]             # sums to 1 exactly: remaining is 0.0
        yield ties, exact, [min(1.0, lo + rng.choice((0.0, 0.3))) for lo in exact]
        yield ties + [0.5], [rng.uniform(0.3, 0.9) for _ in range(n + 1)], [1.0] * (n + 1)
        yield ties, [0.0] * n, [rng.uniform(0.0, 0.9 / n) for _ in range(n)]
    for _ in range(600):
        n = rng.randint(1, 7)
        values = [rng.choice((0.0, 0.25, 0.5, 0.9, 1.0, rng.random())) for _ in range(n)]
        los = [0.0] * n
        if rng.random() < 0.75:     # 1.0 and just above it leave no mass to fill
            lo = rng.uniform(0.05, 0.95)
            los[rng.randrange(n)] = rng.choice((lo, lo, 1.0, 1.0 + 5e-10))
        mass = max(0.0, 1.0 - sum(los))
        big = mass + rng.uniform(0.0, 0.2)
        rooms = [rng.choice((0.0, rng.uniform(0.0, mass), big, big)) for _ in range(n)]
        yield values, los, [lo + room for lo, room in zip(los, rooms)]


def bits(result):
    """(kappa, dist) as text that tells every float apart, -0.0 from 0.0 included."""
    kappa, dist = result
    return kappa.hex(), [x.hex() for x in dist]


BELOW_HALF = math.nextafter(0.5, 0.0)
ABOVE_HALF = math.nextafter(0.5, 1.0)
# (values, los, his): the fill's one-step case and the edges around it.  In the
# four remaining_* rows lo_0 == 0, so the room at the minimum is his[0] exactly,
# and the remaining mass is 0.5 exactly.  sum_above_one and nan_value reach the
# clamp's upper branch and its NaN case.  The lone_* rows have at most one
# nonzero lower bound, as grid rows do; each is named after the kernel branch
# it takes (``kernel_case``), with ties or negative mass where the name says.
KERNEL_EDGE_ROWS = {
    "tie_first_takes_all": ([0.2, 0.2, 0.7], [0.1, 0.1, 0.1], [0.9, 0.9, 0.9]),
    "tie_first_too_small": ([0.2, 0.2, 0.7], [0.1, 0.1, 0.1], [0.5, 0.5, 0.9]),
    "tie_behind_a_larger": ([0.3, 0.1, 0.1], [0.0, 0.0, 0.0], [1.0, 1.0, 0.9]),
    "tie_first_zero_room": ([0.2, 0.2, 0.7], [0.3, 0.1, 0.1], [0.3, 0.9, 0.9]),
    "zero_room_at_min": ([0.1, 0.5, 0.9], [0.4, 0.2, 0.1], [0.4, 0.9, 0.9]),
    "no_remaining": ([0.1, 0.6, 0.9], [0.5, 0.25, 0.25], [1.0, 1.0, 1.0]),
    "negative_remaining": ([0.1, 0.6, 0.9], [0.5, 0.5, 1e-12], [1.0, 1.0, 1.0]),
    "sum_above_one": ([1.0, 1.0, 1.0], [0.5, 0.5, 1e-12], [1.0, 1.0, 1.0]),
    "remaining_equals_room": ([0.1, 0.6, 0.9], [0.0, 0.3, 0.2], [0.5, 1.0, 1.0]),
    "remaining_just_below_room": ([0.1, 0.6, 0.9], [0.0, 0.3, 0.2], [ABOVE_HALF, 1.0, 1.0]),
    "remaining_just_above_room": ([0.1, 0.6, 0.9], [0.0, 0.3, 0.2], [BELOW_HALF, 1.0, 1.0]),
    "remaining_above_room_by_ties": ([0.1, 0.1, 0.1], [0.0, 0.3, 0.2], [BELOW_HALF, 1.0, 1.0]),
    "single_successor": ([0.4], [0.0], [1.0]),
    "nan_value": ([math.nan, 0.5], [0.0, 0.0], [1.0, 1.0]),
    "lone_at_argmin": ([0.1, 0.6, 0.9], [0.3, 0.0, 0.0], [1.0, 0.5, 0.5]),
    "lone_elsewhere": ([0.1, 0.6, 0.9], [0.0, 0.7, 0.0], [0.5, 1.0, 0.5]),
    "lone_none": ([0.4, 0.2, 0.9], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    "lone_no_remaining": ([0.3, 0.8], [0.0, 1.0], [0.2, 1.0]),
    "lone_no_remaining_negative": ([0.3, 0.8], [0.0, 1.0 + 5e-10], [0.2, 1.0 + 5e-10]),
    "lone_sort_path": ([0.1, 0.6, 0.9], [0.0, 0.5, 0.0], [0.2, 1.0, 1.0]),
    "lone_elsewhere_tied_minima": ([0.2, 0.7, 0.2], [0.0, 0.6, 0.0], [0.5, 1.0, 0.5]),
    "lone_elsewhere_tied_with_bound": ([0.2, 0.2, 0.7], [0.0, 0.6, 0.0], [0.5, 1.0, 0.5]),
    "lone_at_argmin_tied_minima": ([0.2, 0.7, 0.2], [0.6, 0.0, 0.0], [1.0, 0.5, 0.5]),
}


def kernel_case(values, los, his):
    """The branch of ``greedy_kappa`` a feasible row takes, read off its bounds: the fill's
    sort path, several nonzero lower bounds without it, or one of the lone bound's forms."""
    nonzero = [t for t, lo in enumerate(los) if lo != 0.0]
    remaining = 1.0 - math.fsum(los)
    j = values.index(min(values))
    if remaining > 0.0 and not remaining <= his[j] - los[j]:
        return "lone_sort_path" if len(nonzero) < 2 else "sorted"
    if len(nonzero) > 1:
        return "several"
    if not remaining > 0.0:
        return "lone_no_remaining"
    if not nonzero:
        return "lone_none"
    return "lone_at_argmin" if nonzero[0] == j else "lone_elsewhere"


def fsum_kappa(values, los, his):
    """``greedy_kappa`` without the row's lone lower bound: kappa from the fill's fsum."""
    rooms, remaining, _, _ = interval_row(los, his)
    least = min(values)
    return greedy_kappa(values, least, values.index(least), los, rooms, remaining, None)


class TestKernelArithmetic:
    """``solve_kappa`` (``greedy_kappa`` and ``greedy_fill`` on ``interval_row`` constants)
    against ``reference_solve_kappa``, bit for bit."""

    @pytest.mark.parametrize("row", list(KERNEL_EDGE_ROWS.values()), ids=list(KERNEL_EDGE_ROWS))
    def test_edge_rows(self, row):
        values, los, his = row
        assert interval_row(los, his)[2] is None
        expected = bits(reference_solve_kappa(values, los, his))
        assert bits(solve_kappa(values, los, his)) == expected
        assert fsum_kappa(values, los, his).hex() == expected[0]

    def test_edge_rows_reach_their_case(self):
        def case(name):
            values, los, his = KERNEL_EDGE_ROWS[name]
            rooms, remaining, _, _ = interval_row(los, his)
            return remaining, rooms[values.index(min(values))]
        assert case("remaining_equals_room") == (0.5, 0.5)
        assert case("remaining_just_below_room") == (0.5, ABOVE_HALF)
        assert case("remaining_just_above_room") == (0.5, BELOW_HALF)
        assert case("no_remaining")[0] == 0.0
        assert case("negative_remaining")[0] < 0.0
        values, los, _ = KERNEL_EDGE_ROWS["sum_above_one"]
        assert case("sum_above_one")[0] < 0.0
        assert math.fsum(map(operator.mul, values, los)) == 1.0 + 1e-12     # the clamp's upper branch
        assert case("zero_room_at_min")[1] == 0.0
        lone = {name: row for name, row in KERNEL_EDGE_ROWS.items() if name.startswith("lone_")}
        for name, row in lone.items():
            assert name.startswith(kernel_case(*row)), name
        assert case("lone_no_remaining")[0] == 0.0
        assert case("lone_no_remaining_negative")[0] < 0.0
        for name in ("lone_elsewhere_tied_minima", "lone_at_argmin_tied_minima",
                     "lone_elsewhere_tied_with_bound"):
            values = lone[name][0]
            assert values.count(min(values)) == 2

    def test_matches_reference(self):
        cases = {"tied": 0, "zero_room": 0, "no_remaining": 0, "infeasible": 0,
                 "one_step": 0, "sorted": 0, "lone_at_argmin": 0, "lone_elsewhere": 0,
                 "lone_none": 0, "lone_no_remaining": 0, "lone_sort_path": 0, "lone_tied_minima": 0}
        for values, los, his in kernel_rows(random.Random(41)):
            rooms, remaining, infeasible, _ = interval_row(los, his)
            try:
                expected = reference_solve_kappa(values, los, his)
            except InfeasibleIntervalError as exc:
                cases["infeasible"] += 1
                assert infeasible == str(exc)
                with pytest.raises(InfeasibleIntervalError) as err:
                    solve_kappa(values, los, his)
                assert str(err.value) == str(exc)
                continue
            assert infeasible is None
            assert bits(solve_kappa(values, los, his)) == bits(expected)
            assert fsum_kappa(values, los, his).hex() == bits(expected)[0]
            cases["tied"] += len(set(values)) < len(values)
            cases["zero_room"] += 0.0 in rooms
            cases["no_remaining"] += remaining == 0.0
            one_step = 0.0 < remaining <= rooms[values.index(min(values))]
            cases["one_step"] += one_step
            cases["sorted"] += remaining > 0.0 and not one_step
            case = kernel_case(values, los, his)
            if case.startswith("lone_"):
                cases[case] += 1
                cases["lone_tied_minima"] += values.count(min(values)) > 1
        assert min(cases.values()) >= 50, cases

    def test_product_rows_hold_interval_row_constants(self):
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        model = build_grid_mdp(spec)
        props = sorted(spec.alphabet())
        aut = compile_formula(formula, props)
        prod = build_product(model, aut, time_bound(formula))
        # the sweep solves rows at states with an undecided automaton state below the horizon
        solved = {s for layer in prod.layers[:-1] for s, q in layer
                  if q not in aut.accepting and q != aut.trash}
        assert solved and set(prod.support_rows) == solved
        at_zero = build_product(model, compile_formula(parse_formula("H^0 P", props), props), 0)
        assert at_zero.support_rows == {}
        self.assert_rows(prod)

    def test_random_product_rows_read_scattered_successors(self):
        # a grid row's successors sit in order in neighbours[s]; a random model's often do not
        rng = random.Random(8)
        scattered = 0
        for _ in range(20):
            formula = oracle.random_formula(rng, 3)
            prod = build_product(oracle.random_interval_mdp(rng, oracle.RandomInstanceSpec()),
                                 compile_formula(formula, {"B", "C"}), time_bound(formula))
            scattered += self.assert_rows(prod)
        assert scattered > 0

    @pytest.mark.parametrize("size, rows, readers", [(6, 251, 72), (16, 2111, 512)])
    def test_grid_rows_take_the_lone_bound_forms(self, size, rows, readers):
        # every solved grid row has one nonzero lower bound, and a cell's moves share one
        # reader and Stay has its own: a grid change that loses either fails here
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        spec = dataclasses.replace(spec, width=size, height=size)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        prod = build_product(build_grid_mdp(spec), aut, time_bound(formula))
        lps = [row for state_rows in prod.support_rows.values() for row in state_rows]
        assert len(lps) == rows
        assert all(lone is not None and lone[0] >= 0 for *_, lone in lps)
        per_cell = [len({id(get) for _, get, *_ in state_rows})
                    for state_rows in prod.support_rows.values()]
        assert max(per_cell) == 2 and sum(per_cell) == readers

    @staticmethod
    def assert_rows(prod):
        """Each solved row reads its successors' entries in row order and holds ``interval_row``'s
        constants; returns how many rows' successors are not consecutive in ``neighbours[s]``."""
        model = prod.mdp
        scattered = 0
        for s, rows in prod.support_rows.items():
            assert [row[0] for row in rows] == list(model.enabled[s])
            for a, get, los, *constants in rows:
                entries = model.support(s, a)
                succ = [s2 for s2, _, _, _ in entries]
                assert list(get(prod.neighbours[s])) == succ
                assert los == [lo for _, lo, _, _ in entries]
                assert tuple(constants) == interval_row(los, [hi for _, _, hi, _ in entries])
                pos = [prod.neighbours[s].index(s2) for s2 in succ]
                scattered += pos != list(range(pos[0], pos[0] + len(pos)))
        return scattered


class TestBackwardPass:
    # f and pi_c do not depend on the pruning threshold, so a pruning pass
    # exposes the plain backward recursion.

    def test_eq6_boundary(self, toy_product):
        prod = one_shot_prune(toy_product, 0.5)
        final = [(s, q, 2) for s, q in prod.layers[2]]
        assert final
        for p in final:
            assert prod.f_values[p] == (1.0 if is_accepting(prod, p) else 0.0)

    def test_toy_values(self, toy_product):
        prod = one_shot_prune(toy_product, 0.5)
        root = next(p for p in prod.initial if p[0] == "r")
        assert action_kappa(prod, root, "a") == pytest.approx(0.9, abs=1e-12)
        assert action_kappa(prod, root, "b") == pytest.approx(0.5, abs=1e-12)
        assert prod.f_values[root] == pytest.approx(0.9, abs=1e-12)
        assert prod.pi_c[root] == "a"

    def test_single_sure_successor(self, toy_product):
        # from the success cell the bound stays one at every layer
        f = one_shot_prune(toy_product, 0.5).f_values
        for p, value in f.items():
            if p[0] == "g":
                assert value == 1.0
            assert 0.0 <= value <= 1.0

    def test_absorption_values(self, toy_product):
        f = one_shot_prune(toy_product, 0.5).f_values
        for p, value in f.items():
            if is_accepting(toy_product, p):
                assert value == 1.0
            if is_trash(toy_product, p):
                assert value == 0.0

    def test_matches_exact_min_per_action(self, toy_product):
        prod = one_shot_prune(toy_product, 0.5)
        root = next(p for p in prod.initial if p[0] == "r")
        for a in ("a", "b"):
            succ = successors(prod, root, a)
            values = [prod.f_values[p2] for p2, _, _ in succ]
            los = [lo for _, lo, _ in succ]
            his = [hi for _, _, hi in succ]
            exact = oracle.lp_exact_min(values, los, his)
            assert abs(action_kappa(prod, root, a) - exact) <= 1e-12


class TestOneShot:
    def test_toy_pruning_at_060(self):
        prod = one_shot_prune(worst_case_toy(), 0.6)
        root = next(p for p in prod.initial if p[0] == "r")
        # both actions can reach a successor below 0.6 (0 and 0.5), so both go
        assert prod.act_sets[root] == ()
        assert prod.pi_c[root] == "a"
        assert prod.f_values[root] == pytest.approx(0.9, abs=1e-12)

    def test_toy_pruning_at_040(self):
        prod = one_shot_prune(worst_case_toy(), 0.4)
        root = next(p for p in prod.initial if p[0] == "r")
        # the first action still reaches a zero-value state; the coin-flip
        # action keeps every successor at 0.5 >= 0.4
        assert prod.act_sets[root] == ("b",)
        # the fallback maximizes the bound over all actions, pruned included
        assert prod.pi_c[root] == "a"

    def test_successor_at_threshold_is_kept(self):
        # m1 and m2 have f exactly 0.5: an action is pruned only strictly below pr_des
        prod = one_shot_prune(worst_case_toy(), 0.5)
        root = next(p for p in prod.initial if p[0] == "r")
        assert {prod.f_values[(s, q, 1)] for s, q in prod.layers[1] if s in ("m1", "m2")} == {0.5}
        assert prod.act_sets[root] == ("b",)

    def test_pr_one_keeps_only_surely_accepting(self, labeled_mdp):
        aut = compile_formula(parse_formula("[H^1 B]^[0,2]", {"B"}), {"B", "C"})
        prod = one_shot_prune(build_product(labeled_mdp, aut, 2), 1.0)
        for s, q in prod.layers[1]:
            p = (s, q, 1)
            if is_accepting(prod, p) or is_trash(prod, p):
                continue
            for a in prod.act_sets[p]:
                for p2, _, _ in successors(prod, p, a):
                    assert is_accepting(prod, p2)

    def test_tiny_threshold_prunes_nothing_positive(self):
        prod = one_shot_prune(worst_case_toy(), 1e-9)
        for p, acts in prod.act_sets.items():
            if is_accepting(prod, p) or is_trash(prod, p) or p[2] == prod.horizon:
                continue
            expected = [a for a in prod.mdp.enabled[p[0]]
                        if all(prod.f_values[p2] > 0 for p2, _, _ in successors(prod, p, a))]
            assert list(acts) == expected

    def test_pruning_safety(self):
        rng = random.Random(3)
        for _ in range(30):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            pr = rng.uniform(0.2, 0.95)
            prod = one_shot_prune(build_product(model, aut, time_bound(formula)), pr)
            for t, layer in enumerate(prod.layers[:-1]):
                for s, q in layer:
                    p = (s, q, t)
                    if is_accepting(prod, p) or is_trash(prod, p):
                        continue
                    for a in prod.act_sets[p]:
                        assert all(prod.f_values[p2] >= pr
                                   for p2, _, _ in successors(prod, p, a))

    def test_f_in_unit_interval(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        assert all(0.0 <= v <= 1.0 for v in prod.f_values.values())


class TestAgainstReference:
    """The neighbourhood-cached product and memoized sweep against ``reference_prune``."""

    @staticmethod
    def assert_same(model, aut, horizon, plan):
        """Compare with ``reference_prune``; returns whether the plan was feasible."""
        prod = build_product(model, aut, horizon)
        try:
            expected = reference_prune(prod, plan)
        except MultiShotInfeasibleError as exc:
            with pytest.raises(MultiShotInfeasibleError) as err:
                multi_shot_prune(prod, plan)
            assert err.value.segment == exc.segment
            return False
        if len(plan.thresholds) == 1:
            one_shot_prune(prod, plan.thresholds[0])
        else:
            assert multi_shot_prune(prod, plan)[1] is prod.reset_times
        layers, f, act, pi_c, ref_times = expected
        assert [tuple(sorted(layer, key=repr)) for layer in prod.layers] == layers
        assert sorted(prod.initial, key=repr) == [(s, q, 0) for s, q in layers[0]]
        assert {p: repr(v) for p, v in prod.f_values.items()} == {p: repr(v) for p, v in f.items()}
        assert prod.act_sets == act
        assert prod.pi_c == pi_c
        assert prod.reset_times == ref_times
        return True

    def test_case_study_both_modes(self):
        for eps in (0.03, 0.08, 0.13):
            spec, formula = canonical_case_study(assumed_uncertainty=eps)
            model = build_grid_mdp(spec)
            aut = compile_formula(formula, sorted(spec.alphabet()))
            horizon = time_bound(formula)
            self.assert_same(model, aut, horizon, MultiShotPlan((0, horizon), (0.9,)))
            self.assert_same(model, aut, horizon, MultiShotPlan.even(0.9, (0, 8, 15, 22, 35)))

    @pytest.mark.parametrize("thresholds", [
        (0.97, 0.99, 0.97, 0.98),       # segments 1 and 3 share a threshold, hence a memo
        (0.96, 0.97, 0.98, 0.99),       # one memo per segment
    ])
    def test_case_study_multi_shot_memo_sharing(self, thresholds):
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        model = build_grid_mdp(spec)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        plan = MultiShotPlan((0, 8, 15, 22, 35), thresholds)
        assert self.assert_same(model, aut, time_bound(formula), plan)

    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(30):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            horizon = time_bound(formula)
            pr = rng.uniform(0.2, 0.95)
            self.assert_same(model, aut, horizon, MultiShotPlan((0, horizon), (pr,)))
            if horizon >= 2:
                cut = rng.randint(1, horizon - 1)
                self.assert_same(model, aut, horizon,
                                 MultiShotPlan.even(pr, (0, cut, horizon)))

    def test_random_instances_below_time_bound(self):
        # the last layer holds coerced pairs, whose bound there is 0 but not
        # at their earlier layers, so neither they nor their ancestors have
        # one result across layers
        rng = random.Random(37)
        coerced = 0
        for _ in range(60):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            horizon = time_bound(formula) - 1
            if horizon < 1:
                continue
            pr = rng.uniform(0.2, 0.95)
            self.assert_same(model, aut, horizon, MultiShotPlan((0, horizon), (pr,)))
            coerced += bool(build_product(model, aut, horizon).coerced)
            if horizon >= 2:
                cut = rng.randint(1, horizon - 1)
                self.assert_same(model, aut, horizon, MultiShotPlan.even(pr, (0, cut, horizon)))
        assert coerced >= 20

    def test_random_multi_shot_plans(self):
        # one to three random cuts with an independent threshold per segment
        rng = random.Random(41)
        feasible = 0
        for _ in range(60):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            horizon = time_bound(formula)
            if horizon < 2:
                continue
            cuts = rng.sample(range(1, horizon), min(horizon - 1, rng.randint(1, 3)))
            timestamps = (0, *sorted(cuts), horizon)
            thresholds = tuple(rng.uniform(0.3, 1.0) for _ in timestamps[1:])
            feasible += self.assert_same(model, aut, horizon, MultiShotPlan(timestamps, thresholds))
        assert feasible >= 20

    @staticmethod
    def infeasible_u_product():
        """u's action b has lower bounds summing to 2.4; layer 1 holds three
        non-terminal states over u, and a sweep of it meets ('u', 5, 1) first."""
        formula = parse_formula("[H^0 B]^[0,2] & [H^0 C]^[0,2]")
        aut = compile_formula(formula, {"B", "C"})
        states = ["x", "b", "c", "u"]
        bounds = {(s, a, s2): ((0.6, 1.0) if (s, a) == ("u", "b") else (0.1, 0.5))
                  for s in states for a in ("a", "b") for s2 in states}
        model = LabeledIntervalMdp.from_edges(states, ["a", "b"], {"b": {"B"}, "c": {"C"}}, bounds)
        prod = build_product(model, aut, time_bound(formula))
        terminal = aut.accepting | {aut.trash}
        at_u = [(s, q, 1) for s, q in prod.layers[1] if s == "u" and q not in terminal]
        assert len(at_u) >= 2 and at_u[0] == ("u", 5, 1)
        assert not any(s == "u" and q not in terminal for s, q in prod.layers[2])
        return prod

    def test_infeasible_row_named_at_first_state(self):
        with pytest.raises(InfeasibleIntervalError) as err:
            one_shot_prune(self.infeasible_u_product(), 0.5)
        assert err.value.state == ("u", 5, 1)
        assert err.value.action == "b"
        assert str(err.value).startswith("sum of lower bounds 2.400000000 exceeds 1 at state")

    def test_row_without_successors_named_at_first_state(self):
        # x's action b has no row, so its reader takes no successor values and the sweep,
        # not the product build, reports it
        model = LabeledIntervalMdp(["x", "y"], ["a", "b"], {"y": {"B"}},
                                   {("x", "a"): (("y", 0.0, 1.0, None),),
                                    ("y", "a"): (("y", 1.0, 1.0, None),),
                                    ("y", "b"): (("y", 1.0, 1.0, None),)})
        prod = build_product(model, compile_formula(parse_formula("[H^0 B]^[0,2]"), {"B"}), 2)
        get = prod.support_rows["x"][1][1]
        assert get(prod.neighbours["x"]) == ()
        with pytest.raises(InfeasibleIntervalError) as err:
            one_shot_prune(prod, 0.5)
        assert (err.value.state[0], err.value.state[2], err.value.action) == ("x", 0, "b")
        assert str(err.value).startswith("sum of upper bounds 0.000000000 is below 1 at state")

    def test_nan_lower_bound_named_at_its_state(self):
        # not validated, so the sweep is the first to meet the NaN; a feasibility test
        # that NaN passed would leave z's bound at the sweep's initial best, -1.0
        model = LabeledIntervalMdp(["z", "g"], ["a"], {"g": {"B"}},
                                   {("z", "a"): (("g", math.nan, 1.0, None),),
                                    ("g", "a"): (("g", 1.0, 1.0, None),)})
        prod = build_product(model, compile_formula(parse_formula("[H^0 B]^[0,2]"), {"B"}), 3)
        with pytest.raises(InfeasibleIntervalError) as err:
            one_shot_prune(prod, 0.5)
        assert (err.value.state, err.value.action) == (("z", 1, 0), "a")
        assert str(err.value).startswith("a lower bound is nan at state")

    @staticmethod
    def stuck_z_model():
        """x stays or moves to y, which is labelled B; z has no enabled action.  Not
        validated, so the sweep is the first to meet z."""
        return LabeledIntervalMdp(["x", "y", "z"], ["a"], {"y": {"B"}},
                                  {("x", "a"): (("x", 0.0, 1.0, None), ("y", 0.0, 1.0, None)),
                                   ("y", "a"): (("y", 1.0, 1.0, None),)},
                                  enabled={"z": ()})

    def test_state_without_enabled_actions_named(self):
        aut = compile_formula(parse_formula("[H^0 B]^[0,2]"), {"B"})
        with pytest.raises(ReachabilityError, match="state 'z' has no enabled actions"):
            one_shot_prune(build_product(self.stuck_z_model(), aut, 2), 0.5)
        # the first segment's end layer holds x undecided, so its sweep is open
        prod = build_product(self.stuck_z_model(), aut, 2)
        assert any(s == "x" and q not in aut.accepting | {aut.trash} for s, q in prod.layers[1])
        with pytest.raises(ReachabilityError, match="state 'z' has no enabled actions"):
            multi_shot_prune(prod, MultiShotPlan((0, 1, 2), (0.5, 0.5)))
        # horizon 0 sweeps no layer, so z is never asked for an action
        aut = compile_formula(parse_formula("H^0 B"), {"B"})
        prod = one_shot_prune(build_product(self.stuck_z_model(), aut, 0), 0.5)
        assert prod.f == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("thresholds", [(0.5, 0.5), (0.6, 0.5)])
    def test_infeasible_row_named_at_first_state_multi_shot(self, thresholds):
        # the last segment sweeps layer 1 alone; the first sweeps layer 0 with
        # the same or another threshold's memo
        with pytest.raises(InfeasibleIntervalError) as err:
            multi_shot_prune(self.infeasible_u_product(), MultiShotPlan((0, 1, 2), thresholds))
        assert err.value.state == ("u", 5, 1)
        assert err.value.action == "b"


def pair_results(prod, t_lo=0, t_hi=None):
    """Each (s, q) pair's distinct (f as repr, kept set, fallback) over layers t_lo to
    t_hi - 1 (default: every layer below the horizon)."""
    seen = {}
    for t in range(t_lo, prod.horizon if t_hi is None else t_hi):
        for s, q in prod.layers[t]:
            p = (s, q, t)
            seen.setdefault((s, q), set()).add((repr(prod.f_values[p]), prod.act_sets[p],
                                                prod.pi_c[p]))
    return seen


def n_differing(prod, t_lo=0, t_hi=None):
    return sum(len(results) > 1 for results in pair_results(prod, t_lo, t_hi).values())


class TestPairInvariant:
    """At the formula's time bound, one-shot pruning and the last multi-shot
    segment give each (s, q) pair one result at every layer it appears in:
    time lives in the automaton state.  The controls show the rule is not
    vacuous: segment boundaries and coerced pairs make a pair's result depend
    on its layer."""

    def test_one_shot_case_study(self, case_products):
        prod = case_products["one_shot"]
        assert len(pair_results(prod)) == 964 and n_differing(prod) == 0

    def test_one_shot_random_instances(self):
        rng = random.Random(43)
        shared = 0
        for _ in range(200):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            prod = one_shot_prune(build_product(model, aut, time_bound(formula)),
                                  rng.uniform(0.2, 0.95))
            assert n_differing(prod) == 0
            shared += prod.n_states() - len(prod.layers[-1]) > len(pair_results(prod))
        assert shared >= 100

    def test_multi_shot_case_study_differs(self, case_products):
        assert n_differing(case_products["multi_shot"]) == 475

    def test_last_multi_shot_segment_case_study(self, case_products):
        # the last segment ends at the time bound, where every pair is decided, so its
        # sweep is closed; the earlier segments end at 0/1 boundaries of open pairs
        prod = case_products["multi_shot"]
        ts = segment_ends(canonical_case_study()[1])
        assert len(pair_results(prod, ts[-2], ts[-1])) == 432
        assert n_differing(prod, ts[-2], ts[-1]) == 0
        assert [n_differing(prod, a, b) for a, b in zip(ts[:-2], ts[1:-1])] == [143, 375, 304]

    def test_last_multi_shot_segment_random_instances(self):
        # one cut, even thresholds, horizon at the time bound
        rng = random.Random(5)
        feasible = first_differs = 0
        for _ in range(200):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            horizon = time_bound(formula)
            if horizon < 2:
                continue
            cut = rng.randint(1, horizon - 1)
            plan = MultiShotPlan.even(rng.uniform(0.2, 0.95), (0, cut, horizon))
            try:
                prod, _ = multi_shot_prune(build_product(model, aut, horizon), plan)
            except MultiShotInfeasibleError:
                continue
            feasible += 1
            assert n_differing(prod, cut, horizon) == 0
            first_differs += n_differing(prod, 0, cut) > 0
        assert feasible >= 100 and first_differs >= 1

    def test_below_time_bound_differs(self):
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        prod = build_product(build_grid_mdp(spec), aut, time_bound(formula) - 1)
        assert prod.coerced
        assert n_differing(one_shot_prune(prod, 0.9)) == 340


class TestCheckInitial:
    def test_all_accepting_ok(self):
        aut = compile_formula(parse_formula("H^0 TRUE"), {"G"})
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": frozenset({"G"})},
                                          {("s", "a", "s"): (1.0, 1.0)}, {("s", "a", "s"): 1.0})
        prod = one_shot_prune(build_product(m, aut, 0), 0.9)
        assert check_initial(prod, 0.9) == []

    def test_unsatisfiable_start_listed(self, window_formula):
        aut = compile_formula(window_formula, {"B"})
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
                                          {("s", "a", "s"): 1.0})
        prod = one_shot_prune(build_product(m, aut, 2), 0.5)
        violators = check_initial(prod, 0.5)
        assert len(violators) == 1
        assert violators[0][1] == 0.0

    def test_toy_threshold_sensitivity(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        bad = {p[0] for p, _ in check_initial(prod, 0.9)}
        # the coin-flip cells (bound one half) and the dead end fall short;
        # the root sits exactly at 0.9 and passes
        assert bad == {"l", "m1", "m2"}
        assert check_initial(prod, 0.95) != check_initial(prod, 0.9)


class TestMultiShot:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MultiShotPlan((0, 5, 3), (0.9, 0.9))
        with pytest.raises(ValueError):
            MultiShotPlan((1, 5), (0.9,))
        with pytest.raises(ValueError):
            MultiShotPlan((0, 5), (0.9, 0.9))
        plan = MultiShotPlan.even(0.9, (0, 8, 15, 22, 35))
        assert len(plan.thresholds) == 4
        assert math.prod(plan.thresholds) == pytest.approx(0.9, abs=1e-12)
        plan.check_product(0.9)
        with pytest.raises(ValueError):
            plan.check_product(0.8)

    def test_non_integral_timestamp_rejected(self):
        # int() would silently move the boundary from 8.5 to 8
        with pytest.raises(ValueError, match="timestamps must be integers"):
            MultiShotPlan((0, 8.5, 35), (0.9, 1.0))
        assert MultiShotPlan((0, 8.0, 35), (0.9, 1.0)).timestamps == (0, 8, 35)
        with pytest.raises(ValueError, match="at least one segment"):
            MultiShotPlan.even(0.9, (35,))

    def test_single_segment_equals_one_shot(self):
        rng = random.Random(21)
        for _ in range(20):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            pr = rng.uniform(0.2, 0.95)
            horizon = time_bound(formula)
            one = one_shot_prune(build_product(model, aut, horizon), pr)
            multi, reset_times = multi_shot_prune(
                build_product(model, aut, horizon), MultiShotPlan((0, horizon), (pr,)))
            assert one.f_values == multi.f_values
            assert one.act_sets == multi.act_sets
            assert one.pi_c == multi.pi_c
            assert reset_times == frozenset() == multi.reset_times

    def test_toy_two_segments(self):
        prod, reset_times = multi_shot_prune(worst_case_toy(),
                                             MultiShotPlan((0, 1, 2), (0.9, 0.6)))
        # the only layer-1 state whose second-segment bound clears 0.6 is the
        # success cell; everything else becomes segment trash
        layer1 = [(s, q, 1) for s, q in prod.layers[1]]
        assert {p[0] for p in layer1 if prod.f_values[p] >= 0.6} == {"g"}
        assert {p[0] for p in layer1 if prod.f_values[p] < 0.6} == {"l", "m1", "m2"}
        root = next(p for p in prod.initial if p[0] == "r")
        assert prod.f_values[root] == pytest.approx(0.9, abs=1e-12)
        assert prod.act_sets[root] == ()
        assert reset_times == frozenset({1}) == prod.reset_times

    def test_boundary_state_at_threshold_accepts(self):
        # m1 and m2 meet the second segment's 0.5 exactly, so they count as
        # accepting for the first segment and the coin-flip action survives
        prod, _ = multi_shot_prune(worst_case_toy(), MultiShotPlan((0, 1, 2), (0.9, 0.5)))
        root = next(p for p in prod.initial if p[0] == "r")
        assert prod.act_sets[root] == ("b",)

    def test_empty_segment_boundary_raises(self, window_formula):
        aut = compile_formula(window_formula, {"B"})
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
                                          {("s", "a", "s"): 1.0})
        with pytest.raises(MultiShotInfeasibleError) as err:
            multi_shot_prune(build_product(m, aut, 2), MultiShotPlan((0, 1, 2), (0.9, 0.9)))
        assert err.value.segment == 1

    def test_case_study_plan_shape(self):
        plan = MultiShotPlan.even(0.9, (0, 8, 15, 22, 35))
        assert plan.timestamps == (0, 8, 15, 22, 35)
        assert all(th == pytest.approx(0.9 ** 0.25, abs=1e-15) for th in plan.thresholds)


class TestWriteOnce:
    """A pruning pass writes the product's shield once, and only when it succeeds."""

    PASSES = {"one_shot": lambda prod: one_shot_prune(prod, 0.5),
              "multi_shot": lambda prod: multi_shot_prune(prod, MultiShotPlan((0, 1, 2), (0.9, 0.5)))}

    @pytest.mark.parametrize("first", sorted(PASSES))
    @pytest.mark.parametrize("second", sorted(PASSES))
    def test_second_pass_raises(self, first, second):
        prod = worst_case_toy()
        self.PASSES[first](prod)
        f, act = dict(prod.f_values), dict(prod.act_sets)
        with pytest.raises(ReachabilityError, match="already holds pruning results"):
            self.PASSES[second](prod)
        assert prod.f_values == f and prod.act_sets == act

    @staticmethod
    def assert_unwritten(prod):
        assert prod.f is None and prod.kept is None and prod.fallback is None
        assert prod.f_values == {} and prod.act_sets == {} and prod.pi_c == {}
        assert prod.initial_threshold is None and prod.reset_times == frozenset()

    @pytest.mark.parametrize("mode", sorted(PASSES))
    def test_read_before_pass_then_full_dicts(self, mode):
        prod, fresh = worst_case_toy(), worst_case_toy()
        self.assert_unwritten(prod)
        self.PASSES[mode](prod)
        self.PASSES[mode](fresh)
        assert len(prod.f_values) == prod.n_states()
        assert len(prod.act_sets) == len(prod.pi_c) == prod.n_states() - len(prod.layers[-1])
        assert prod.f_values == fresh.f_values
        assert prod.act_sets == fresh.act_sets and prod.pi_c == fresh.pi_c

    @pytest.mark.parametrize("mode", sorted(PASSES))
    def test_infeasible_row_writes_nothing(self, mode):
        prod = TestAgainstReference.infeasible_u_product()
        with pytest.raises(InfeasibleIntervalError):
            self.PASSES[mode](prod)
        self.assert_unwritten(prod)

    def test_infeasible_plan_writes_nothing(self, window_formula):
        aut = compile_formula(window_formula, {"B"})
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
                                          {("s", "a", "s"): 1.0})
        prod = build_product(m, aut, 2)
        with pytest.raises(MultiShotInfeasibleError):
            multi_shot_prune(prod, MultiShotPlan((0, 1, 2), (0.9, 0.9)))
        self.assert_unwritten(prod)


class TestCollectorPaused:
    """The product build and the pruning pass run with the cyclic collector off and
    hand the caller's setting back on every exit."""

    @pytest.fixture()
    def collections(self):
        """Generations of the collections started since the last clear, with a low
        threshold so that an unpaused build or pass would collect many times."""
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])
        threshold = gc.get_threshold()
        gc.set_threshold(50)
        gc.callbacks.append(record)
        try:
            yield started
        finally:
            gc.callbacks.remove(record)
            gc.set_threshold(*threshold)
            gc.enable()

    @staticmethod
    def case_study():
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        return build_grid_mdp(spec), aut, time_bound(formula)

    @pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
    def test_no_collection_inside_build_or_prune(self, collections, mode):
        model, aut, horizon = self.case_study()
        plan = MultiShotPlan.even(0.9, segment_ends(canonical_case_study()[1]))
        gc.collect()
        collections.clear()
        prod = build_product(model, aut, horizon)
        assert collections == [] and gc.isenabled()
        gc.collect()
        collections.clear()
        if mode == "one_shot":
            one_shot_prune(prod, 0.9)
        else:
            multi_shot_prune(prod, plan)
        assert collections == [] and gc.isenabled()
        gc.collect()
        assert collections != []        # the callback does see collections outside

    def test_restored_after_product_error(self, collections):
        model, aut, horizon = self.case_study()
        model.labels[model.states[0]] = frozenset({"Z"})
        with pytest.raises(ProductError):
            build_product(model, aut, horizon)
        assert gc.isenabled()

    @pytest.mark.parametrize("mode", sorted(TestWriteOnce.PASSES))
    def test_restored_after_infeasible_row(self, collections, mode):
        with pytest.raises(InfeasibleIntervalError):
            TestWriteOnce.PASSES[mode](TestAgainstReference.infeasible_u_product())
        assert gc.isenabled()

    def test_restored_after_infeasible_plan(self, collections, window_formula):
        aut = compile_formula(window_formula, {"B"})
        m = LabeledIntervalMdp.from_edges(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
                                          {("s", "a", "s"): 1.0})
        with pytest.raises(MultiShotInfeasibleError):
            multi_shot_prune(build_product(m, aut, 2), MultiShotPlan((0, 1, 2), (0.9, 0.9)))
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, collections):
        model, aut, horizon = self.case_study()
        gc.disable()
        one_shot_prune(build_product(model, aut, horizon), 0.9)
        assert not gc.isenabled()
        with pytest.raises(InfeasibleIntervalError):
            one_shot_prune(TestAgainstReference.infeasible_u_product(), 0.5)
        assert not gc.isenabled()


class TestExactReachability:
    def test_toy_exact_values(self, toy_product):
        prod = one_shot_prune(toy_product, 0.5)
        exact = exact_reach_probability(prod, prod.pi_c, law(prod.mdp))
        root = next(p for p in prod.initial if p[0] == "r")
        assert exact[root] == pytest.approx(0.95, abs=1e-12)
        for p, v in exact.items():
            if is_accepting(prod, p):
                assert v == 1.0
            if is_trash(prod, p):
                assert v == 0.0

    def test_dominates_worst_case_bound(self):
        rng = random.Random(9)
        for _ in range(100):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            aut = compile_formula(formula, {"B", "C"})
            prod = one_shot_prune(build_product(model, aut, time_bound(formula)),
                                  rng.uniform(0.1, 1.0))
            dynamics = oracle.sample_true_dynamics(model.bounds, rng)
            sim = LabeledIntervalMdp.from_edges(model.states, model.actions, model.labels,
                                                model.bounds, dynamics)
            assert sim.validate() == []
            prod_sim = build_product(sim, aut, prod.horizon)
            exact = exact_reach_probability(prod_sim, prod.pi_c, law(sim))
            for p, v in exact.items():
                assert v >= prod.f_values[p] - 1e-12
