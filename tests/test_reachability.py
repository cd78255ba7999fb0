import math
import random

import pytest

from twtlshield.automaton import compile_formula
from twtlshield.gridworld import build_grid_mdp, canonical_case_study
from twtlshield.mdp import LabeledIntervalMdp
from twtlshield.product import build_product
from twtlshield.reachability import (InfeasibleIntervalError, MultiShotInfeasibleError,
                                     MultiShotPlan, check_initial, eq6_boundary, exact_reach_probability,
                                     multi_shot_prune, one_shot_prune, solve_kappa)
from twtlshield.twtl import parse_formula, time_bound
from twtlshield import oracle
from conftest import worst_case_toy

E = frozenset()


def action_kappa(prod, p, a):
    """Worst-case bound of action a at p, from the stored successor bounds."""
    succ = prod.successors(p, a)
    kappa, _ = solve_kappa([prod.f_values[p2] for p2, _, _ in succ],
                           [lo for _, lo, _ in succ], [hi for _, _, hi in succ])
    return kappa


def reference_layers(prod):
    """Reachable (s, q) layers rebuilt through ``prod.successors``, sorted by repr."""
    aut = prod.automaton
    layer = {(s, aut.step(aut.initial, prod.mdp.labels[s])) for s in prod.mdp.states}
    layers = [layer]
    for t in range(prod.horizon):
        layer = {p2[:2] for s, q in layer for a in prod.mdp.enabled[s]
                 for p2, _, _ in prod.successors((s, q, t), a)}
        layers.append(layer)
    return [tuple(sorted(layer, key=repr)) for layer in layers]


def reference_prune(prod, plan):
    """Cache-free pruning: one ``solve_kappa`` per (state, action), segment by segment.

    Returns (layers, f, act_sets, pi_c, boundary times) in the layout of
    ``multi_shot_prune``; a single-segment plan is one-shot pruning.
    """
    layers = reference_layers(prod)
    accepting = prod.automaton.accepting
    trash = prod.automaton.trash
    n = plan.n_segments
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
                    succ = prod.successors(p, a)
                    values = [f[p2] for p2, _, _ in succ]
                    kappa, _ = solve_kappa(values, [lo for _, lo, _ in succ],
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

    def test_matches_grid_search(self):
        rng = random.Random(11)
        for _ in range(100):
            values, los, his = oracle.random_lp_instance(rng)
            exact, _ = solve_kappa(values, los, his)
            approx = oracle.lp_grid_search(values, los, his, 1e-3)
            assert abs(exact - approx) <= len(values) * 1e-3

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


class TestBackwardPass:
    # f and pi_c do not depend on the pruning threshold, so a pruning pass
    # exposes the plain backward recursion.

    def test_eq6_boundary(self, toy_product):
        boundary = eq6_boundary(toy_product)
        for (s, q, t), value in boundary.items():
            assert t == 2
            assert value == (1.0 if toy_product.is_accepting((s, q, t)) else 0.0)

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
            if toy_product.is_accepting(p):
                assert value == 1.0
            if toy_product.is_trash(p):
                assert value == 0.0

    def test_matches_grid_search_per_action(self, toy_product):
        prod = one_shot_prune(toy_product, 0.5)
        root = next(p for p in prod.initial if p[0] == "r")
        for a in ("a", "b"):
            succ = prod.successors(root, a)
            values = [prod.f_values[p2] for p2, _, _ in succ]
            los = [lo for _, lo, _ in succ]
            his = [hi for _, _, hi in succ]
            approx = oracle.lp_grid_search(values, los, his, 1e-3)
            assert abs(action_kappa(prod, root, a) - approx) <= len(values) * 1e-3


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
            if prod.is_accepting(p) or prod.is_trash(p):
                continue
            for a in prod.act_sets[p]:
                for p2, _, _ in prod.successors(p, a):
                    assert prod.is_accepting(p2)

    def test_tiny_threshold_prunes_nothing_positive(self):
        prod = one_shot_prune(worst_case_toy(), 1e-9)
        for p, acts in prod.act_sets.items():
            if prod.is_accepting(p) or prod.is_trash(p) or p[2] == prod.horizon:
                continue
            expected = [a for a in prod.mdp.enabled[p[0]]
                        if all(prod.f_values[p2] > 0 for p2, _, _ in prod.successors(p, a))]
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
                    if prod.is_accepting(p) or prod.is_trash(p):
                        continue
                    for a in prod.act_sets[p]:
                        assert all(prod.f_values[p2] >= pr
                                   for p2, _, _ in prod.successors(p, a))

    def test_f_in_unit_interval(self):
        prod = one_shot_prune(worst_case_toy(), 0.5)
        assert all(0.0 <= v <= 1.0 for v in prod.f_values.values())


class TestAgainstReference:
    """The neighbourhood-cached product and memoized sweep against ``reference_prune``."""

    @staticmethod
    def assert_same(model, aut, horizon, plan):
        prod = build_product(model, aut, horizon)
        try:
            expected = reference_prune(prod, plan)
        except MultiShotInfeasibleError as exc:
            with pytest.raises(MultiShotInfeasibleError) as err:
                multi_shot_prune(prod, plan)
            assert err.value.segment == exc.segment
            return
        if plan.n_segments == 1:
            one_shot_prune(prod, plan.thresholds[0])
        else:
            assert multi_shot_prune(prod, plan)[1] is prod.reset_times
        layers, f, act, pi_c, ref_times = expected
        assert list(prod.layers) == layers
        assert prod.initial == tuple(sorted(((s, q, 0) for s, q in layers[0]), key=repr))
        assert prod.f_values == f
        assert prod.act_sets == act
        assert prod.pi_c == pi_c
        assert prod.reset_times == ref_times

    def test_case_study_both_modes(self):
        spec, formula = canonical_case_study(assumed_uncertainty=0.08)
        model = build_grid_mdp(spec)
        aut = compile_formula(formula, sorted(spec.alphabet()))
        horizon = time_bound(formula)
        self.assert_same(model, aut, horizon, MultiShotPlan((0, horizon), (0.9,)))
        self.assert_same(model, aut, horizon, MultiShotPlan.even(0.9, (0, 8, 15, 22, 35)))

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

    def test_infeasible_row_named_at_first_state(self):
        # u's action b has lower bounds summing to 2.4; layer 1 holds three
        # non-terminal states over u, and the sweep meets ('u', 5, 1) first
        formula = parse_formula("[H^0 B]^[0,2] & [H^0 C]^[0,2]")
        aut = compile_formula(formula, {"B", "C"})
        states = ["x", "b", "c", "u"]
        bounds = {(s, a, s2): ((0.6, 1.0) if (s, a) == ("u", "b") else (0.1, 0.5))
                  for s in states for a in ("a", "b") for s2 in states}
        model = LabeledIntervalMdp(states, ["a", "b"], {"b": {"B"}, "c": {"C"}}, bounds)
        prod = build_product(model, aut, time_bound(formula))
        terminal = aut.accepting | {aut.trash}
        at_u = [(s, q, 1) for s, q in prod.layers[1] if s == "u" and q not in terminal]
        assert len(at_u) >= 2
        assert not any(s == "u" and q not in terminal for s, q in prod.layers[2])
        with pytest.raises(InfeasibleIntervalError) as err:
            one_shot_prune(prod, 0.5)
        assert err.value.state == at_u[0] == ("u", 5, 1)
        assert err.value.action == "b"


class TestCheckInitial:
    def test_all_accepting_ok(self):
        aut = compile_formula(parse_formula("H^0 TRUE"), {"G"})
        m = LabeledIntervalMdp(["s"], ["a"], {"s": frozenset({"G"})},
                               {("s", "a", "s"): (1.0, 1.0)}, {("s", "a", "s"): 1.0})
        prod = one_shot_prune(build_product(m, aut, 0), 0.9)
        assert check_initial(prod, 0.9) == []

    def test_unsatisfiable_start_listed(self, window_formula):
        aut = compile_formula(window_formula, {"B"})
        m = LabeledIntervalMdp(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
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
        assert plan.n_segments == 4
        assert plan.pr_des == pytest.approx(0.9, abs=1e-12)
        plan.check_product(0.9)
        with pytest.raises(ValueError):
            plan.check_product(0.8)

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
        m = LabeledIntervalMdp(["s"], ["a"], {"s": E}, {("s", "a", "s"): (1.0, 1.0)},
                               {("s", "a", "s"): 1.0})
        with pytest.raises(MultiShotInfeasibleError) as err:
            multi_shot_prune(build_product(m, aut, 2), MultiShotPlan((0, 1, 2), (0.9, 0.9)))
        assert err.value.segment == 1

    def test_case_study_plan_shape(self):
        plan = MultiShotPlan.even(0.9, (0, 8, 15, 22, 35))
        assert plan.timestamps == (0, 8, 15, 22, 35)
        assert all(th == pytest.approx(0.9 ** 0.25, abs=1e-15) for th in plan.thresholds)


class TestExactReachability:
    def test_toy_exact_values(self, toy_product):
        prod = one_shot_prune(toy_product, 0.5)
        exact = exact_reach_probability(prod, prod.pi_c)
        root = next(p for p in prod.initial if p[0] == "r")
        assert exact[root] == pytest.approx(0.95, abs=1e-12)
        for p, v in exact.items():
            if prod.is_accepting(p):
                assert v == 1.0
            if prod.is_trash(p):
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
            sim = LabeledIntervalMdp(model.states, model.actions, model.labels,
                                     model.bounds, dynamics)
            assert sim.validate() == []
            prod_sim = build_product(sim, aut, prod.horizon)
            exact = exact_reach_probability(prod_sim, prod.pi_c)
            for p, v in exact.items():
                assert v >= prod.f_values[p] - 1e-12
