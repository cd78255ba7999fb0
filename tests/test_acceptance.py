"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The expensive part is a 2 x 3 x 3 sweep (both pruning modes over assumed
uncertainty {0.03, 0.08, 0.13} and target probability {0.5, 0.7, 0.9}) at
50000 learning episodes per configuration; it runs once in a session fixture,
parallelized across processes, and feeds criteria 1, 2, 3, and 9.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import math
import multiprocessing
import os
import random

import pytest

from twtlshield.automaton import accepts, compile_formula
from twtlshield.cli import (check_automata, check_dominance, check_kappa, load_config,
                            run_experiment)
from twtlshield.product import build_product
from twtlshield.reachability import MultiShotPlan, multi_shot_prune, one_shot_prune, solve_kappa
from twtlshield.gridworld import CASE_STUDY_FORMULA
from twtlshield.twtl import parse_formula, segment_ends, time_bound
from twtlshield import oracle

LEARNING_EPISODES = 50000
EVAL_EPISODES = 10000
EPS_GRID = (0.03, 0.08, 0.13)
PR_GRID = (0.5, 0.7, 0.9)
REAL_UNCERTAINTY = 0.03
TIMESTAMPS = segment_ends(parse_formula(CASE_STUDY_FORMULA))

B = frozenset({"B"})
E = frozenset()


def binomial_floor(pr, n):
    return pr - 3.0 * math.sqrt(pr * (1.0 - pr) / n)


def verdict(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run_sweep_config(job):
    mode, eps, pr, seed = job
    cfg = load_config(None, {
        "mode": mode,
        "pr_des": pr,
        "assumed_uncertainty": eps,
        "episodes": LEARNING_EPISODES,
        "eval_episodes": EVAL_EPISODES,
        "seed": seed,
        "allow_unsafe": True,
    })
    bundle = run_experiment(cfg)
    summary = bundle.summary
    return {
        "mode": mode, "eps": eps, "pr": pr,
        "check_ok": summary["check_initial"]["ok"],
        "learning_sat": summary["learning"]["satisfaction_rate"],
        "legality_violations": summary["learning"]["legality_violations"],
        "testing_sat": summary["testing"]["satisfaction_rate"],
        "testing_reward": summary["testing"]["average_reward"],
    }


@pytest.fixture(scope="session")
def sweep_results():
    jobs = []
    for i_mode, mode in enumerate(("one_shot", "multi_shot")):
        for i_eps, eps in enumerate(EPS_GRID):
            for i_pr, pr in enumerate(PR_GRID):
                jobs.append((mode, eps, pr, 1000 * i_mode + 100 * i_eps + 10 * i_pr + 7))
    workers = max(1, min(len(jobs), (os.cpu_count() or 2)))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        rows = pool.map(_run_sweep_config, jobs)
    return {(r["mode"], r["eps"], r["pr"]): r for r in rows}


class TestCriterion1OneShotGuarantee:
    def test_one_shot_satisfaction_floor(self, sweep_results):
        failures = []
        for eps in EPS_GRID:
            for pr in PR_GRID:
                row = sweep_results[("one_shot", eps, pr)]
                floor = binomial_floor(pr, LEARNING_EPISODES)
                if row["learning_sat"] < floor:
                    failures.append((eps, pr, row["learning_sat"], floor))
                if not row["check_ok"]:
                    failures.append((eps, pr, "check_initial failed"))
        ok = verdict(1, not failures,
                     "one-shot learning satisfaction >= Pr_des - 3*sigma on all nine "
                     f"configurations over {LEARNING_EPISODES} episodes"
                     + (f"; failures: {failures}" if failures else ""))
        assert ok, failures


class TestCriterion2MultiShotGuarantee:
    def test_multi_shot_satisfaction_floor(self, sweep_results):
        failures = []
        for eps in EPS_GRID:
            for pr in PR_GRID:
                row = sweep_results[("multi_shot", eps, pr)]
                floor = binomial_floor(pr, LEARNING_EPISODES)
                if row["learning_sat"] < floor:
                    failures.append((eps, pr, row["learning_sat"], floor))
        ok = verdict(2, not failures,
                     "multi-shot learning satisfaction >= Pr_des - 3*sigma on all nine "
                     "configurations (segment thresholds Pr_des^(1/4), stamps "
                     f"{list(TIMESTAMPS)})" + (f"; failures: {failures}" if failures else ""))
        assert ok, failures


class TestCriterion3Trends:
    def test_multi_shot_trends_and_reward_gap(self, sweep_results):
        rates = {(eps, pr): sweep_results[("multi_shot", eps, pr)]["learning_sat"]
                 for eps in EPS_GRID for pr in PR_GRID}
        pairs = []
        for pr in PR_GRID:
            for e1, e2 in zip(EPS_GRID, EPS_GRID[1:]):
                pairs.append((rates[(e2, pr)] >= rates[(e1, pr)],
                              f"eps {e1}->{e2} at pr={pr}"))
        for eps in EPS_GRID:
            for p1, p2 in zip(PR_GRID, PR_GRID[1:]):
                pairs.append((rates[(eps, p2)] >= rates[(eps, p1)],
                              f"pr {p1}->{p2} at eps={eps}"))
        violated = [label for good, label in pairs if not good]
        # twelve adjacent ordered pairs; the stated 8-of-9 tolerance scales to
        # allowing a single violation
        trend_ok = len(violated) <= 1

        one = sweep_results[("one_shot", 0.03, 0.5)]["testing_reward"]
        multi = sweep_results[("multi_shot", 0.03, 0.5)]["testing_reward"]
        reward_ok = multi > one

        ok = verdict(3, trend_ok and reward_ok,
                     f"multi-shot satisfaction nondecreasing in eps and Pr_des "
                     f"({len(pairs) - len(violated)}/{len(pairs)} ordered pairs"
                     + (f", violated: {violated}" if violated else "") + "); "
                     f"multi-shot testing reward {multi:.2f} > one-shot {one:.2f} at (0.03, 0.5)")
        assert ok, (violated, one, multi)


class TestCriterion4LemmaSoundness:
    def test_exact_reachability_dominates_bound(self):
        failures, checked, kept, _, worst_gap = check_dominance(random.Random(2024), 500)
        ok = verdict(4, not failures,
                     f"exact reach probability under the fallback policy dominates the "
                     f"worst-case bound at {checked} states across 500 random interval "
                     f"MDPs (max bound-minus-exact = {worst_gap:.2e}), and each of the "
                     f"{kept} kept actions meets its instance's pr_des")
        assert ok, failures


class TestCriterion5ClosedFormOptimum:
    def test_matches_exact_dual_and_hand_values(self):
        # hand-derived examples, exact equality
        exact_cases = [
            (([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 1.0),
            (([0.0, 1.0], [0.0, 0.9], [0.1, 1.0]), 0.9),
            (([0.3, 0.7], [0.4, 0.6], [0.4, 0.6]), math.fsum([0.3 * 0.4, 0.7 * 0.6])),
        ]
        hand_ok = all(solve_kappa(*args)[0] == expected for args, expected in exact_cases)
        mismatches = check_kappa(random.Random(99), 1000)
        ok = verdict(5, hand_ok and not mismatches,
                     "closed-form interval optimum equals the three hand-derived values "
                     f"exactly and stays within 1e-12 of the exact dual optimum on 1000 instances "
                     f"({len(mismatches)} mismatches)")
        assert ok, mismatches


class TestCriterion6AutomatonCorrectness:
    def test_corpus_language_equivalence(self):
        assert len(oracle.FORMULA_CORPUS) >= 12
        assert all(time_bound(parse_formula(text, {"B", "C"})) <= 5
                   for text in oracle.FORMULA_CORPUS)
        mismatches, words_checked = check_automata()

        reference = parse_formula("[H^1 B]^[0,2]", {"B"})
        ref_aut = compile_formula(reference, {"B"})
        accepted = {w for w in oracle.enumerate_words({"B"}, 3) if accepts(ref_aut, w)}
        language_ok = accepted == {(B, B, B), (B, B, E), (E, B, B)}

        ok = verdict(6, not mismatches and language_ok,
                     f"compiled automata agree with the enumeration oracle on "
                     f"{words_checked} words over {len(oracle.FORMULA_CORPUS)} formulas; "
                     "the reference window formula accepts exactly {BBB, BB-, -BB}")
        assert ok, mismatches


class TestCriterion7MultiShotConsistency:
    def test_single_segment_plan_reduces_to_one_shot(self):
        # the packaged case study at one configuration
        cfg = load_config(None, {"assumed_uncertainty": 0.08})
        from twtlshield.gridworld import build_grid_mdp
        model = build_grid_mdp(cfg.grid)
        formula = parse_formula(cfg.formula, sorted(cfg.grid.alphabet()))
        automaton = compile_formula(formula, sorted(cfg.grid.alphabet()))
        horizon = time_bound(formula)
        one = one_shot_prune(build_product(model, automaton, horizon), 0.9)
        multi, _ = multi_shot_prune(build_product(model, automaton, horizon),
                                    MultiShotPlan((0, horizon), (0.9,)))
        case_ok = (one.f_values == multi.f_values and one.act_sets == multi.act_sets
                   and one.pi_c == multi.pi_c)

        rng = random.Random(7)
        random_ok = 0
        for _ in range(50):
            spec = oracle.RandomInstanceSpec()
            formula = oracle.random_formula(rng, spec.max_horizon)
            model = oracle.random_interval_mdp(rng, spec)
            automaton = compile_formula(formula, {"B", "C"})
            horizon = time_bound(formula)
            pr = rng.uniform(0.2, 0.95)
            one = one_shot_prune(build_product(model, automaton, horizon), pr)
            multi, _ = multi_shot_prune(build_product(model, automaton, horizon),
                                        MultiShotPlan((0, horizon), (pr,)))
            if (one.f_values == multi.f_values and one.act_sets == multi.act_sets
                    and one.pi_c == multi.pi_c):
                random_ok += 1
        ok = verdict(7, case_ok and random_ok == 50,
                     "single-segment multi-shot pruning reproduces one-shot results "
                     f"exactly on the case study and {random_ok}/50 random instances")
        assert ok


class TestCriterion8TimeBound:
    def test_task_formula_bound(self):
        from twtlshield.gridworld import canonical_case_study
        _, formula = canonical_case_study()
        bound = time_bound(formula)
        ok = verdict(8, bound == 35, f"the pickup-and-delivery formula has time bound {bound}")
        assert ok


class TestCriterion9ShieldLegality:
    def test_no_legality_violations_across_sweep(self, sweep_results):
        total = sum(row["legality_violations"] for row in sweep_results.values())
        episodes = LEARNING_EPISODES * len(sweep_results)
        ok = verdict(9, total == 0,
                     f"every action across {episodes} logged learning episodes was legal "
                     f"(in the pruned set when unshielded, the fallback action when "
                     f"shielded); {total} violations")
        assert ok
