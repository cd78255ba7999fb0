"""Shield, automaton and formula front-end results pinned across commits.

The benchmark compares result digests only between passes of one run, so a
change that moves a bound, a pruned set or an automaton state in every pass
alike would pass it.  These digests were recorded before integer-numbered
product pairs and hash-consed residuals replaced the tuple-keyed enumeration
and text-keyed compiler; a change that means to move them must say why.
The front-end digest was recorded when one operator table, one scanner regex
and one error path replaced the per-level parser methods, and the parser
before them gives the same digest.  The learner digests were recorded with
the learner that rescanned a Q row on every greedy pick and bootstrap, before
per-state caches of the greedy action and the row maximum replaced the scans,
and re-recorded over the log fields the program reads (index, satisfaction,
reward, shield entry and shielded steps) before the logs lost their final
state and per-episode legality count; both learners give the same digests.
The random-instance inputs were recorded before the law sampler lost its
integer-seed form and ``RandomInstanceSpec`` its constructor fields.
The 6x6 shield digests were recorded with the sweep that computed every
product state and stored the shield in dicts keyed by (s, q, t), before the
sweep computed a pair's result once for all of its layers where that result
cannot depend on the layer.
The CLI output files were recorded before exact reachability lost its default
law and ``results_json`` read the shield lists instead of the dict views, and
before ``policy.json``, ``automaton.json``, ``episodes.csv`` and then
``reachability.json`` were written as text instead of through ``json.dumps`` and
``csv.writer``; they are checked under two hash seeds.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twtlshield import automaton as automaton_module, cli, oracle
from twtlshield.automaton import compile_formula
from twtlshield.cli import automaton_dot, automaton_json
from twtlshield.gridworld import CASE_STUDY_FORMULA, build_grid_mdp, canonical_case_study
from twtlshield.learner import LearnerConfig, evaluate, learn
from twtlshield.product import build_product
from twtlshield.reachability import one_shot_prune
from twtlshield.twtl import TwtlError, format_formula, parse_formula, segment_ends, time_bound
from test_automaton import FOUR_PROPS, four_proposition_trees

SHIELD_16X16 = {
    "one_shot": "ed7a50e4361aef416a6e59ccef635fb76245721da9be09591951081bd4828d4d",
    "multi_shot": "54e800c4de2ecc437010dea6b2ebeeae1d21d53e8a8bb4e8f1af58eba9bc8ac7",
}

# the 6x6 case study at eps 0.08 and pr_des 0.9 (``case_products``), and its
# one-shot shield one step below the time bound, where one pair is coerced
SHIELD_6X6 = {
    "one_shot": "b01af7b2a1d3bda4de4272403f2efa61b504f822b5e1f5f6bc9804183a3b6a4a",
    "multi_shot": "1aa2fc83cb2e4b54283aed880faa8ecc3b5a2b3b26d4eca6a2ad0bd7dce14306",
}
SHIELD_6X6_BELOW_BOUND = "8e1739ccce166e323372c071d4cbb9f995c3e229a80985e412b591d8c1a1a946"
# sha256 over the result digests of the one-shot shields of 200 random_interval_mdp
# instances (seed 2718), whose wide rows reach both branches of the interval-LP fill
RANDOM_SHIELDS = "10677e89fc0f68525f96fe13301e33f7abf0154125bcbcbb5837d77efdeff996"
# sha256 over the formula text, model and sampled law of 300 instances drawn as
# ``perfbench/worker.py::random_instances`` draws them (seed 1618): the inputs of the
# ``random-small`` benchmark workload
RANDOM_INPUTS = "909640881b7efbe8206c8e965542850b26a015aba87a7238b5e7d813f8f8803e"

# (mode, alpha_mode) -> sha256 of learner_outcome on the case study
LEARNER = {
    ("one_shot", "constant"): "084a04e70de5b7de47b4a2bbd8b4c7fecf669ff7b757fddf084ce98718525395",
    ("one_shot", "inverse_visit"): "5a2e6ddbf0cf737c54c3330a7bcaf4c58b9d4426b0867ccbe519792c21e880bd",
    ("multi_shot", "constant"): "4baa67ace5b657f2cf16f1d2d66447c437b6c57f89b4cf3dd6a17975da261506",
    ("multi_shot", "inverse_visit"): "d91cfe8e9b2805b74c986a5df21ee080d9f0677e1b811f1aefe81399c418cea0",
}

# (command, mode) -> file name -> sha256 of each file the CLI writes on the case study
# (``cli_runs``); the sweep runs both modes in two cells
CLI_OUTPUTS = {
    ("build", "one_shot"): {
        "grid.json": "4027a09f5ce1a47f5f64268fbecd646615dc9d33011016079646d27b9642af94",
        "product_summary.json": "5b529933f92b2330ec735eae49a662c5b5f529282840460272f83a3d41b89b1f"},
    ("build", "multi_shot"): {
        "grid.json": "4027a09f5ce1a47f5f64268fbecd646615dc9d33011016079646d27b9642af94",
        "product_summary.json": "5b529933f92b2330ec735eae49a662c5b5f529282840460272f83a3d41b89b1f"},
    ("prune", "one_shot"): {
        "reachability.json": "2696c770cebfa406ab885053681f36bc4838bda17a2ae743a26a4739d3c8b619"},
    ("prune", "multi_shot"): {
        "reachability.json": "4ca6f8bd4c82a0963c3ac4cc1dda1dd052810b516af0102f3e8e44477bbd3055"},
    ("learn", "one_shot"): {
        "automaton.dot": "adaccd4555ef9389e514d1831efa077ee28358f85dc846085c18996abed6124e",
        "automaton.json": "6945d62d30242522732873fa0b2d30a64e8fe802dcac8c1e720893069f25f17d",
        "episodes.csv": "d371392a6c86cf904b5a2a5b6a7ac5c059c2a96a3511457e57e31734943bc06e",
        "policy.json": "1c5aa25ee50328315821d6d1f954568ef2864d4609f2fa95f3a114c885748661",
        "product_summary.json": "5b529933f92b2330ec735eae49a662c5b5f529282840460272f83a3d41b89b1f",
        "summary.json": "1ab42ecdd78c75a75cf3fa3c77dee618f44d3861b20a3bcd9ebcba07d314c550"},
    ("learn", "multi_shot"): {
        "automaton.dot": "adaccd4555ef9389e514d1831efa077ee28358f85dc846085c18996abed6124e",
        "automaton.json": "6945d62d30242522732873fa0b2d30a64e8fe802dcac8c1e720893069f25f17d",
        "episodes.csv": "c8f7fa8744556cbd37c70031061c19caed27befd001c57f4f11cf979bb36cc5d",
        "policy.json": "99f3cced3a532e162b2f059ebcfbfb8edf7e2a2b84e3da50e28cac4ef910fd97",
        "product_summary.json": "5b529933f92b2330ec735eae49a662c5b5f529282840460272f83a3d41b89b1f",
        "summary.json": "affa6cb84e032df56936f322f9c2bd64b82db69e0dbd124a9c00c20985d0acdc"},
    ("sweep", "both"): {
        "sweep.csv": "691315de37121f546a3fce1d01772eaa151f6646916830bda272e47424446e94",
        "sweep.json": "992058ef5f0532f0140f42656bbafff2d2fbbbf43ef378fbf561dc3cbd692155"},
}

# FORMULA_CORPUS text -> sha256 of (automaton_json, automaton_dot) of its automaton over {B, C}
CORPUS = {
    '[H^1 B]^[0,2]': (
        "52420257539e44d2a19e0cf90664dbfe9466b295780645b266d5a35c3495361f",
        "0be3bbd38ab18def897255d9fed42550ddd8cb56a21583260ae1ff7b08018bb7"),
    'H^0 TRUE': (
        "aeafbb511e6c3eedd9281c9c588919a756c2432d74f4d7ef713c4199f4ae817a",
        "0c8e04ab3580dfcf78a0e0d9a8aa5e540ae6b992787fa876815b3297e0e2288e"),
    'H^2 B': (
        "418ca0ea8e4b9b598a4aebe86066c38ebfba89b34dcae3f31c1d0198133980c1",
        "5246c2224999c35815661141f604aba1be3285a2fc841c3173e3c9fbd3e220df"),
    'H^1 !B': (
        "2a22ab3fbbd40f989a1bcbbcbec71420c513a32375ff28aa65d2e6055676bbd3",
        "4d6f621aba8a5568d14b849b5dfa383c68fa66960dc5bd9df3481709885a604a"),
    'H^0 B . H^0 C': (
        "20bb7b07317698632b14d59b6eb2d528518ef72d30f0699578a0702052b9f281",
        "51fb31b91fd980941b318acc1cfd6c9b8d13c5849929e2682b7d28da495f3ab1"),
    '[H^0 B]^[0,3]': (
        "1a9d215e5008dc30c3672dfb32ab030385d422ee90c9d2069f82060e9c8e63b4",
        "8f6225bc0c2751a5533c5f486d4a6640a10692d7e5f36b1e191f07af4201f7c4"),
    '[H^1 B]^[1,3]': (
        "e764913c48fd1a27cb3311e7fe2c81f624ebd14384267dd6dbc26faf8bf88837",
        "dcf421eac7b9753956052a4c3c2bb00d586a9a0fad258de2bd3636d1aef1b8b0"),
    'H^1 B & H^1 C': (
        "78e01293bd8ff0f1637b31fe5655a59151d6d893de5007566c7a9287438bce39",
        "b5863fc326d6382a89469e6219b3477fab4dd9ba3bb73bc94527252d381b5d2b"),
    'H^0 B | H^1 C': (
        "06020a8636ceb3cb27f076ce408b653e4315dec4af1a5f2cd57950537120822b",
        "a7e40c10dc10a1f96c7573378e8b90712fc9ebc72acc8f941643fc0414512963"),
    '[H^0 B]^[0,2] . [H^0 C]^[0,2]': (
        "e91710f729a506bade1a166e3635e724823bb6531c68df9f1947a51bfb86513f",
        "4d636934f1a685b4f23b371bc09bb5e6e35325a64c934d2bdcf359a7ad6b0328"),
    '([H^0 B]^[0,1] | [H^0 C]^[0,1]) . H^0 B': (
        "4fe10457faaa1ea0de5e162011a7e107bb3e05440919ff73c520a433d9182fda",
        "205acb1312513fda450908c1c9097c718a1c7d05f3d419d3057f5f009d94c209"),
    'H^0 B . H^0 TRUE . H^0 B': (
        "51d2a757a7eda5a9f3f0d6504f0e25f1574eb45f9321253de1b53cd86e89aa4a",
        "b0c5c5b67804bd697e2384d6cfac3cd2fa2bc99b3fc3bb449475d3fc407d5726"),
    '[H^0 B & H^0 C]^[0,2]': (
        "2560700626dcc686c32244dbbdcbe58d8a33c591d5fe84b637d761e409a0e450",
        "e1d9b69928ce7831fc0b71acfeabe77bdf3aef030cb416267a0eeeb99881ed22"),
    '[H^1 !B]^[0,3]': (
        "ca001a6c5f6e0a0144052fcd6eb9eab9868386add76127ba8bc1fabb174be511",
        "19c5010a40fa86163752f255e4c9a4b35d7d832fe32d15b294f419d993e8934c"),
    '(H^0 B . H^0 C) & [H^1 C]^[0,3]': (
        "356eaee07e0daba584644a3434dc47fcacce32b905b98e409931c67864e5eda1",
        "7c95b7193892013b85cd2670b4bc13c85e3cdc4a7eeca29197a24eeafcdfb21e"),
    '[[H^0 B]^[0,1]]^[0,3]': (
        "8196a7c14d16b030787b2fdedb04ba675c414938e70305d09706a5ad69ce8931",
        "35d78d0b2764565f63d242052b278700b426b9a2a38a9c16288f6363517cc5be"),
}
CASE_STUDY = (
    "6945d62d30242522732873fa0b2d30a64e8fe802dcac8c1e720893069f25f17d",
    "adaccd4555ef9389e514d1831efa077ee28358f85dc846085c18996abed6124e")
# sha256 over automaton_json then automaton_dot of 200 random_formula draws (seed 0, horizon 8)
RANDOM_200 = "0c692bc61476690844a615e1a738b8808c8c1df81afd54593454bdd0165bc9b9"
# sha256 over automaton_json then automaton_dot of 1,000 random_formula draws over
# {B, C} (seed 1, horizons drawn from 1 to 10), recorded before progression ran on
# label masks and the transition table was filled in state order
RANDOM_1000 = "1b1a261bb609a928e72f2a5c4337e2312697a73a86fe6f1235685af5543ba25a"
# sha256 over automaton_json then automaton_dot of test_automaton.four_proposition_trees()
# compiled over their four propositions, recorded before progression was memoized on
# each residual's own label bits instead of the whole label mask
FOUR_PROPOSITIONS = "a90b7ffa6e708c779dc89789b6c12a7f0c850524f55f51dbd2b06e968c02f158"
# progression-memo entries the case-study compile leaves: 4,640 keyed on the whole label
# mask, 1,118 on the bits of each residual's propositions, 378 on the bits it reads
CASE_STUDY_PROGRESSIONS = 378
# sha256 over the front-end outcomes of front_end_corpus() under both alphabets
FRONT_END = "59878c58c08679b304fd65af342447d81ab8bf03045cd8542c8295b91deb9b07"
# sha256 over the front-end outcomes of wide_front_end_corpus() under both alphabets,
# recorded with the tokenizer that scanned token objects with their line and column
FRONT_END_WIDE = "e93dcd4b6b8e2493e13753e638979cbd0df2061e7bac258a2bd1ceae9d02f271"
# (text, alphabet, error class, exact message): each error site, and line and column
MESSAGES = [
    ("[H^1 B", None, "TwtlSyntaxError", "expected ']', found end of input (line 1, column 7)"),
    ("H^0 B &", None, "TwtlSyntaxError", "expected a formula, found end of input (line 1, column 8)"),
    ("H^", None, "TwtlSyntaxError", "expected hold duration, found end of input (line 1, column 3)"),
    ("H^1", None, "TwtlSyntaxError", "expected a proposition, found end of input (line 1, column 4)"),
    ("H^1 !", None, "TwtlSyntaxError",
     "expected a proposition, found end of input (line 1, column 6)"),
    ("H^0 B .\n\t", None, "TwtlSyntaxError",
     "expected a formula, found end of input (line 2, column 2)"),
    ("H^0 B\n\t@", None, "TwtlSyntaxError", "unexpected character '@' (line 2, column 2)"),
    ("H^0 B )", None, "TwtlSyntaxError", "unexpected trailing input ')' (line 1, column 7)"),
    ("[H^0 B]^[3,1]", None, "TwtlSyntaxError",
     "window start 3 exceeds window end 1 (line 1, column 13)"),
    ("H^1 !TRUE", None, "TwtlSyntaxError", "TRUE cannot be negated inside a hold (line 1, column 6)"),
    ("H^0 B .\n  H^0 D", {"B"}, "UnknownPropositionError",
     "unknown proposition 'D' (line 2, column 7)"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def listings(automaton):
    return sha256(automaton_json(automaton)), sha256(automaton_dot(automaton))


@pytest.fixture()
def worker(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the worker puts src/ on the path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
def test_16x16_shield_digest(worker, mode):
    grid = worker.grid16_spec()
    _, product, _ = worker.shield(worker.Tracer("test", enabled=False), CASE_STUDY_FORMULA,
                                  sorted(grid.alphabet()), grid, mode, worker.PR_DES,
                                  segment_ends(parse_formula(CASE_STUDY_FORMULA)))
    assert worker.result_digest(product) == SHIELD_16X16[mode]


@pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
def test_6x6_shield_digest(worker, case_products, mode):
    assert worker.result_digest(case_products[mode]) == SHIELD_6X6[mode]


def test_6x6_shield_below_time_bound_digest(worker):
    grid, formula = canonical_case_study(assumed_uncertainty=0.08)
    props = sorted(grid.alphabet())
    automaton = compile_formula(parse_formula(CASE_STUDY_FORMULA, props), props)
    product = build_product(build_grid_mdp(grid), automaton, time_bound(formula) - 1)
    assert len(product.coerced) == 1
    one_shot_prune(product, 0.9)
    assert worker.result_digest(product) == SHIELD_6X6_BELOW_BOUND


def test_random_interval_shields_digest(worker):
    rng = random.Random(2718)
    spec = oracle.RandomInstanceSpec()
    h = hashlib.sha256()
    for _ in range(200):
        formula = oracle.random_formula(rng, spec.max_horizon)
        model = oracle.random_interval_mdp(rng, spec)
        product = build_product(model, compile_formula(formula, {"B", "C"}), time_bound(formula))
        one_shot_prune(product, rng.uniform(0.2, 0.95))
        h.update(worker.result_digest(product).encode())
    assert h.hexdigest() == RANDOM_SHIELDS


def test_random_instance_inputs():
    rng = random.Random(1618)
    spec = oracle.RandomInstanceSpec()
    h = hashlib.sha256()
    for _ in range(300):
        formula = oracle.random_formula(rng, spec.max_horizon)
        model = oracle.random_interval_mdp(rng, spec)
        dynamics = oracle.sample_true_dynamics(model.bounds, rng)
        labels = [sorted(model.labels[s]) for s in model.states]
        h.update(repr((format_formula(formula), model.states, labels,
                       sorted(model.rows.items()), sorted(dynamics.items()))).encode())
    assert h.hexdigest() == RANDOM_INPUTS


def test_corpus_listings():
    assert set(CORPUS) == set(oracle.FORMULA_CORPUS)
    for text in oracle.FORMULA_CORPUS:
        automaton = compile_formula(parse_formula(text, {"B", "C"}), {"B", "C"})
        assert listings(automaton) == CORPUS[text], text


def test_case_study_listings():
    grid, _ = canonical_case_study()
    props = sorted(grid.alphabet())
    assert listings(compile_formula(parse_formula(CASE_STUDY_FORMULA, props), props)) == CASE_STUDY


def test_random_formula_listings():
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(200):
        automaton = compile_formula(oracle.random_formula(rng, 8), {"B", "C"})
        h.update(automaton_json(automaton).encode())
        h.update(automaton_dot(automaton).encode())
    assert h.hexdigest() == RANDOM_200


def test_random_automata_digest():
    rng = random.Random(1)
    h = hashlib.sha256()
    for _ in range(1000):
        automaton = compile_formula(oracle.random_formula(rng, rng.randint(1, 10)), {"B", "C"})
        h.update(automaton_json(automaton).encode())
        h.update(automaton_dot(automaton).encode())
    assert h.hexdigest() == RANDOM_1000


def test_four_proposition_automata_digest():
    h = hashlib.sha256()
    for tree in four_proposition_trees():
        automaton = compile_formula(tree, FOUR_PROPS)
        h.update(automaton_json(automaton).encode())
        h.update(automaton_dot(automaton).encode())
    assert h.hexdigest() == FOUR_PROPOSITIONS


def test_case_study_progression_count(monkeypatch):
    made = []
    init = automaton_module._Residuals.__init__

    def recording(residuals, *args):
        init(residuals, *args)
        made.append(residuals)
    monkeypatch.setattr(automaton_module._Residuals, "__init__", recording)
    grid, _ = canonical_case_study()
    props = sorted(grid.alphabet())
    compile_formula(parse_formula(CASE_STUDY_FORMULA, props), props)
    assert [len(residuals._progressed) for residuals in made] == [CASE_STUDY_PROGRESSIONS]


FRONT_END_CHARS = "HBC^[](),.&|!0123456789_TRUE \t\n"


def front_end_corpus():
    """20,000 random strings over the grammar's characters, then one-character
    insertions and deletions of 2,000 random_formula texts (seed 0)."""
    rng = random.Random(0)
    texts = ["".join(rng.choice(FRONT_END_CHARS) for _ in range(rng.randint(0, 30)))
             for _ in range(20000)]
    for _ in range(2000):
        text = format_formula(oracle.random_formula(rng, rng.randint(1, 10)))
        i = rng.randint(0, len(text))
        texts.append(text[:i] + rng.choice(FRONT_END_CHARS) + text[i:])
        i = rng.randrange(len(text))
        texts.append(text[:i] + text[i + 1:])
    return texts


# characters the grammar does not name: other whitespace, which separates tokens and is
# one column wide; Unicode digits, which are numbers; and non-ASCII letters, which are not
FRONT_END_EXTRA = "\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\u0663\uff15\u00e9\u03a3"


def wide_front_end_corpus():
    """5,000 random strings over FRONT_END_CHARS and FRONT_END_EXTRA, then one character
    of FRONT_END_EXTRA inserted into each of 3,000 random_formula texts (seed 1)."""
    rng = random.Random(1)
    chars = FRONT_END_CHARS + FRONT_END_EXTRA
    texts = ["".join(rng.choice(chars) for _ in range(rng.randint(0, 30))) for _ in range(5000)]
    for _ in range(3000):
        text = format_formula(oracle.random_formula(rng, rng.randint(1, 10)))
        i = rng.randint(0, len(text))
        texts.append(text[:i] + rng.choice(FRONT_END_EXTRA) + text[i:])
    return texts


def front_end_outcome(text, alphabet):
    """The printed formula, or the error's class, message, line and column."""
    try:
        return format_formula(parse_formula(text, alphabet))
    except TwtlError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def test_front_end_corpus():
    h = hashlib.sha256()
    for text in front_end_corpus():
        for alphabet in (None, {"B", "C"}):
            h.update(repr(front_end_outcome(text, alphabet)).encode())
    assert h.hexdigest() == FRONT_END


def test_wide_front_end_corpus():
    h = hashlib.sha256()
    for text in wide_front_end_corpus():
        for alphabet in (None, {"B", "C"}):
            h.update(repr(front_end_outcome(text, alphabet)).encode())
    assert h.hexdigest() == FRONT_END_WIDE


@pytest.mark.parametrize("text, alphabet, cls, message", MESSAGES)
def test_error_messages(text, alphabet, cls, message):
    with pytest.raises(TwtlError) as err:
        parse_formula(text, alphabet)
    assert (type(err.value).__name__, str(err.value)) == (cls, message)


def learner_outcome(product, alpha_mode):
    """The policy, Q table, episode logs and evaluation of a 2,000-episode run, as text."""
    result = learn(product, LearnerConfig(episodes=2000, seed=7, alpha_mode=alpha_mode))
    policy = sorted(zip(product.states, result.policy))
    q = sorted((p, sorted(row.items())) for p, row in result.q.items())
    logs = [(log.index, log.satisfied, log.cumulative_reward, log.shield_entry_time,
             log.steps_shielded) for log in result.logs]
    return repr((policy, q, logs, result.legality_violations,
                 evaluate(product, result.policy, 1000, seed=8)))


@pytest.mark.parametrize("mode, alpha_mode", list(LEARNER))
def test_learner_digest(case_products, mode, alpha_mode):
    assert sha256(learner_outcome(case_products[mode], alpha_mode)) == LEARNER[mode, alpha_mode]


def cli_runs():
    """(command, mode) -> the arguments of each pinned CLI run on the case study."""
    cell = ["--eps", "0.08", "--pr-des", "0.9", "--seed", "3"]
    episodes = ["--episodes", "300", "--eval-episodes", "100"]
    runs = {(command, mode): [command, *cell, "--mode", mode]
            for command in ("build", "prune", "learn") for mode in ("one_shot", "multi_shot")}
    for mode in ("one_shot", "multi_shot"):
        runs["learn", mode] += episodes
    runs["sweep", "both"] = ["sweep", "--eps-list", "0.08", "--pr-list", "0.9", "--seed", "3", *episodes]
    return runs


def test_cli_output_files(tmp_path):
    # every run in one fresh interpreter per hash seed, which orders sets of strings
    runs = cli_runs()
    assert set(runs) == set(CLI_OUTPUTS)
    code = ("import json, sys; from twtlshield.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("0", "1"):
        argvs = [[*argv, "--output-dir", str(tmp_path / seed / f"{command}-{mode}")]
                 for (command, mode), argv in runs.items()]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                             text=True, env=env, timeout=600)
        assert run.returncode == 0, run.stderr
        for command, mode in runs:
            out = tmp_path / seed / f"{command}-{mode}"
            written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
            assert written == CLI_OUTPUTS[command, mode], (seed, command, mode)
