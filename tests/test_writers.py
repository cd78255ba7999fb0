"""The output writers against the encoders they replace, byte for byte.

``policy.json``, ``reachability.json``, ``automaton.json`` and ``episodes.csv``
are written as text by the package.  The references here are the library
encoders that wrote them before: ``json.dumps(..., indent=2, sort_keys=True)``
(plus the trailing newline of ``policy.json``) over ``repr`` keys, and
``csv.writer``.
"""

import csv
import io
import json
import random

import pytest

from twtlshield import cli, oracle
from twtlshield.automaton import compile_formula
from twtlshield.cli import automaton_json
from twtlshield.learner import CSV_COLUMNS, EpisodeLog, LearnerConfig, episode_csv, learn
from twtlshield.product import build_product
from twtlshield.reachability import one_shot_prune
from twtlshield.twtl import parse_formula, time_bound
from conftest import model


def reference_policy(product, policy):
    return json.dumps({repr(p): repr(a) for p, a in zip(product.states, policy)},
                      indent=2, sort_keys=True) + "\n"


def reference_results(product):
    return json.dumps({
        "f": {repr(p): v for p, v in zip(product.states, product.f)},
        "pi_c": {repr(p): repr(a) for p, a in zip(product.states, product.fallback)},
        "act_sets": {repr(p): [repr(a) for a in acts] for p, acts in zip(product.states, product.kept)},
    }, indent=2, sort_keys=True)


def reference_automaton(automaton):
    delta = [[q, sorted(sym), automaton.step(q, sym)]
             for q in range(automaton.n_states) for sym in automaton.alphabet()]
    return json.dumps({
        "props": list(automaton.props),
        "states": list(range(automaton.n_states)),
        "n_reachable": len(automaton.reachable),
        "initial": automaton.initial,
        "accepting": sorted(automaton.accepting),
        "trash": automaton.trash,
        "annotations": {str(q): a for q, a in automaton.annotations.items()},
        "delta": delta,
    }, indent=2, sort_keys=True)


def reference_csv(logs):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    for log in logs:
        writer.writerow([log.index, int(log.satisfied), repr(log.cumulative_reward),
                         "" if log.shield_entry_time is None else log.shield_entry_time,
                         log.steps_shielded])
    return text.getvalue()


def assert_writers_match(product, episodes, seed):
    """Every writer of ``product``'s files agrees with its reference after a short run."""
    result = learn(product, LearnerConfig(episodes=episodes, seed=seed, epsilon=0.5))
    assert cli._policy_text(product, result.policy) == reference_policy(product, result.policy)
    assert cli._results_text(product) == reference_results(product)
    assert automaton_json(product.automaton) == reference_automaton(product.automaton)
    assert episode_csv(result.logs) == reference_csv(result.logs)
    assert product.state_keys() == list(map(repr, product.states))
    return result


def test_random_instances():
    rng = random.Random(4093)
    spec = oracle.RandomInstanceSpec()
    for _ in range(60):
        formula = oracle.random_formula(rng, spec.max_horizon)
        drawn = oracle.random_interval_mdp(rng, spec)
        mdp = model(drawn.states, drawn.actions, drawn.labels, drawn.bounds,
                    oracle.sample_true_dynamics(drawn.bounds, rng))
        product = build_product(mdp, compile_formula(formula, {"B", "C"}), time_bound(formula))
        one_shot_prune(product, rng.uniform(0.2, 0.95))
        assert_writers_match(product, rng.randint(0, 30), rng.randrange(1000))


# states and actions whose repr needs JSON escaping: a quote, a backslash and non-ASCII text
ODD_STATES = ['say "hi"', "back\\slash", "naïve", ("tuple", "☃"), "it's"]
ODD_ACTIONS = ['go"', "\\", "ü"]


def odd_model():
    labels = {s: frozenset({"B"}) if k % 2 else frozenset() for k, s in enumerate(ODD_STATES)}
    bounds, law = {}, {}
    for k, s in enumerate(ODD_STATES):
        for j, a in enumerate(ODD_ACTIONS):
            near, far = ODD_STATES[(k + j) % 5], ODD_STATES[(k + j + 1) % 5]
            bounds[(s, a, near)], bounds[(s, a, far)] = (0.5, 0.9), (0.1, 0.5)
            law[(s, a, near)], law[(s, a, far)] = 0.7, 0.3
    rewards = {(s, a): float(k - j) for k, s in enumerate(ODD_STATES) for j, a in enumerate(ODD_ACTIONS)}
    return model(ODD_STATES, ODD_ACTIONS, labels, bounds, law, rewards)


def test_keys_that_need_escaping():
    formula = parse_formula("[H^1 B]^[0,4]", {"B"})
    product = build_product(odd_model(), compile_formula(formula, {"B"}), time_bound(formula))
    one_shot_prune(product, 0.5)
    result = assert_writers_match(product, 40, 3)
    text = cli._policy_text(product, result.policy)
    # an escaped quote, an escaped backslash and two \\u escapes, and nothing else non-ASCII
    assert all(escape in text for escape in ('\\"', "\\\\", "\\u00ef", "\\u2603"))
    assert text.isascii()


def test_empty_policy():
    formula = parse_formula("H^0 B", {"B"})
    product = build_product(odd_model(), compile_formula(formula, {"B"}), 0)
    one_shot_prune(product, 0.5)
    result = assert_writers_match(product, 3, 5)
    assert result.policy == [] and cli._policy_text(product, result.policy) == "{}\n"


@pytest.mark.parametrize("alphabet", [set(), {"B", "C"}])
def test_zero_proposition_automaton(alphabet):
    automaton = compile_formula(parse_formula("H^1 TRUE", alphabet), alphabet)
    text = automaton_json(automaton)
    assert text == reference_automaton(automaton)
    assert json.loads(text)["delta"][0][1] == []


def test_corpus_automata():
    for formula in oracle.FORMULA_CORPUS:
        automaton = compile_formula(parse_formula(formula, {"B", "C"}), {"B", "C"})
        assert automaton_json(automaton) == reference_automaton(automaton), formula


def test_csv_edge_values():
    rewards = [-0.0, 0.0, -1.5, 1e300, -1e300, 5e-324, 1 / 3, float("inf")]
    logs = [EpisodeLog(k, k % 2 == 0, reward, (None, 0, 7)[k % 3], k % 4)
            for k, reward in enumerate(rewards)]
    text = episode_csv(logs)
    assert text == reference_csv(logs)
    assert episode_csv([]) == reference_csv([])
    rows = text.split("\r\n")
    assert rows[1] == "0,1,-0.0,,0" and rows[2] == "1,0,0.0,0,1" and rows[4].startswith("3,0,1e+300,,")
