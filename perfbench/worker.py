"""One measured pass of a perfbench workload, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --pass K

Generates the workload's inputs from the seed, runs every operation once,
checks each result outside the timed region, and prints one JSON object on
stdout.  ``run.py`` starts one worker per pass, so every pass gets its own
heap and its own peak resident memory.

With ``--trace 0`` the only clock reads are at operation and phase
boundaries.  With ``--trace 1`` a span is recorded around every call into a
layer of the package; the spans stay in memory and are written to
``.perfbench_out/`` when the pass ends.

A timer interrupts the pass every ``PROBE_INTERVAL_S`` seconds to run a short
speed probe (``Meter``); the pass's times are also given at reference speed,
scaled by how much slower than its nominal time the probe ran in the pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import pickle
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

from twtlshield import cli, oracle  # noqa: E402
from twtlshield.automaton import compile_formula  # noqa: E402
from twtlshield.gridworld import CASE_STUDY_FORMULA, build_grid_mdp, canonical_case_study  # noqa: E402
from twtlshield.mdp import LabeledIntervalMdp  # noqa: E402
from twtlshield.product import build_product  # noqa: E402
from twtlshield.reachability import (MultiShotPlan, check_initial,  # noqa: E402
                                     exact_reach_probability, multi_shot_prune, one_shot_prune)
from twtlshield.twtl import format_formula, parse_formula, time_bound  # noqa: E402

WORKLOADS = ("case-learn", "grid16-shield", "random-small")
MODES = ("one_shot", "multi_shot")
EPS = 0.08
PR_DES = 0.9
CASE_EPISODES = 10000
CASE_EVAL_EPISODES = 2000
GRID16_SIZE = 16
RANDOM_INSTANCES = 4000
RANDOM_PR_DES = 0.5
DOMINANCE_TOL = 1e-12
# Speed probe: integer arithmetic, Python function calls and lookups in a small
# dict of tuple keys, gc off; everything it touches stays in the core's caches.
# PROBE_NOMINAL_S is about its time on a quiet core of the machine the baseline was
# measured on (2-core x86-64 container, Python 3.11); it only sets the scale of
# reference-speed times.
PROBE_KEYS = 1 << 10
PROBE_DICT_ROUNDS = 128
PROBE_ARITH_STEPS = 100_000
PROBE_CALLS = 150_000
PROBE_NOMINAL_S = 0.03
# A timer starts a probe this often, in wall-clock seconds.
PROBE_INTERVAL_S = 0.4
PROBE_SPAN = "bench.probe"

# Counts that must repeat exactly, per operation (ROADMAP baseline).
BASELINE = {
    "case-learn": {"automaton.states": 78, "product.states": 11610, "reachability.lps": 68753},
    "grid16-shield": {"automaton.states": 78, "product.states": 43599},
}
COUNT_KEYS = ("automaton.states", "mdp.edges", "product.states", "product.edges",
              "reachability.lps", "reachability.pruned", "reachability.violators",
              "learner.episodes", "learner.steps", "learner.shielded_steps", "learner.q_rows",
              "learner.eval_steps")

_UNTRACED = nullcontext()


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


class Tracer:
    """Spans (name, start, end, parent) around calls into the package's layers."""

    def __init__(self, run_id, enabled):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name):
        return self._span(name) if self.enabled else _UNTRACED

    @contextmanager
    def _span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)
        return traced

    def add(self, name, start, end):
        """Record a span measured by the caller, under the innermost open span."""
        if self.enabled:
            self.spans.append([name, start, end, self._open[-1] if self._open else None])

    def add_probes(self, intervals):
        """Record probe intervals as spans under the innermost span that holds each."""
        for start, end in intervals:
            parent = None
            for index, (_, s_start, s_end, _) in enumerate(self.spans):
                if s_start <= start and end <= s_end:
                    parent = index  # spans are in start order, so the last hit is innermost
            self.spans.append([PROBE_SPAN, start, end, parent])

    def self_times(self):
        """Per span name: total duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


class Meter:
    """Speed probes during a pass, for times at reference speed.

    The host this runs on is shared, and how fast it runs Python drifts by up
    to a factor of two over minutes, as other tenants load the cores.  The
    probe times the same small, cache-resident pure-Python work every time; its
    time moves nearly in proportion with the package's (on this host, against
    shield builds on the 6x6 and 16x16 grids over five minutes: log-log slope
    0.9-1.1, correlation 0.9; at other times the package slowed by up to 1.4
    times as much as the probe, which is most of the spread that remains).  While ``sampling``, a timer signal runs a probe every
    ``PROBE_INTERVAL_S`` seconds, wherever the pass is, so the probes sample the
    pass evenly in time.  The pass's speed factor is ``PROBE_NOMINAL_S`` over
    the mean of its probes, and a time measured in the pass, times that factor,
    is the time at reference speed.  ``clock`` leaves the probes' time out.
    """

    def __init__(self):
        rng = random.Random(0)
        self._keys = [(rng.randrange(4096), rng.randrange(128), rng.randrange(64))
                      for _ in range(PROBE_KEYS)]
        self._table = {key: rng.random() for key in self._keys}
        self._order = list(range(PROBE_KEYS))
        rng.shuffle(self._order)
        self._timed_loop()  # warm-up, not recorded
        self.probes = []
        self.intervals = []
        self.probe_s = 0.0

    def _timed_loop(self):
        keys, table, order = self._keys, self._table, self._order

        def step(x, y):
            return x * 0.5 + y

        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            acc = 0.0
            for _ in range(PROBE_DICT_ROUNDS):
                for i in order:
                    acc = acc * 0.5 + table[keys[i]]
            total = 0
            for i in range(PROBE_ARITH_STEPS):
                total = (total + i * i) % 1000003
            for _ in range(PROBE_CALLS):
                acc = step(acc, 0.25)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def clock(self):
        """``perf_counter`` without the time spent in probes."""
        while True:
            before = self.probe_s
            now = time.perf_counter()
            if self.probe_s == before:  # no probe ran in between
                return now - before

    def probe(self, *_signal_args):
        start = time.perf_counter()
        self.probes.append(self._timed_loop())
        end = time.perf_counter()
        self.intervals.append((start, end))
        self.probe_s += end - start

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()  # a pass shorter than the interval still gets one

    def factor(self):
        return PROBE_NOMINAL_S * len(self.probes) / math.fsum(self.probes)


def result_digest(product, extra=b""):
    """sha256 over the sorted bounds, action sets and fallback policy."""
    h = hashlib.sha256()
    for table in (product.f_values, product.act_sets, product.pi_c):
        h.update(repr(sorted(table.items())).encode())
    h.update(extra)
    return h.hexdigest()


def product_counts(product):
    """Sizes of the model and product, and the interval LPs the pruning pass solved."""
    mdp = product.mdp
    accepting = product.automaton.accepting
    trash = product.automaton.trash
    out_edges = {s: sum(len(mdp.support(s, a)) for a in mdp.enabled[s]) for s in mdp.states}
    edges = lps = pruned = 0
    for t, layer in enumerate(product.layers[:-1]):
        for s, q in layer:
            edges += out_edges[s]
            if q in accepting or q == trash:
                continue
            n = len(mdp.enabled[s])
            lps += n
            pruned += n - len(product.act_sets[(s, q, t)])
    return {
        "automaton.states": product.automaton.n_states,
        "mdp.edges": sum(out_edges.values()),
        "product.states": product.n_states(),
        "product.max_layer_states": max(len(layer) for layer in product.layers),
        "product.edges": edges,
        "reachability.lps": lps,
        "reachability.pruned": pruned,
    }


def check_baseline(workload, counts):
    for key, expected in BASELINE.get(workload, {}).items():
        if counts[key] != expected:
            raise CheckFailed(f"{key} = {counts[key]}, baseline {expected}")


def shield(tracer, text, props, model_input, mode, pr_des, timestamps=None):
    """parse -> compile -> [grid] -> validate -> product -> prune -> check-initial."""
    with tracer.span("twtl.parse"):
        formula = parse_formula(text, props)
    with tracer.span("automaton.compile"):
        automaton = compile_formula(formula, props)
    if isinstance(model_input, LabeledIntervalMdp):
        model = model_input
    else:
        with tracer.span("gridworld.build"):
            model = build_grid_mdp(model_input)
    with tracer.span("mdp.validate"):
        problems = model.validate()
    if problems:
        raise CheckFailed("; ".join(problems[:3]))
    with tracer.span("product.build"):
        product = build_product(model, automaton, time_bound(formula))
    with tracer.span("reachability.prune"):
        if mode == "one_shot":
            one_shot_prune(product, pr_des)
            threshold = pr_des
        else:
            plan = MultiShotPlan.even(pr_des, timestamps)
            product, _ = multi_shot_prune(product, plan)
            threshold = plan.thresholds[0]
    with tracer.span("reachability.check"):
        violators = check_initial(product, threshold)
    return formula, product, violators


class Capture:
    """What the instrumented learn pipeline handed to its layers, read back per operation."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.product = None
        self.violators = None
        self.setup_end = None
        self.learned = None
        self.learn_end = None
        self.eval_end = None


def instrument_cli(tracer, cap, meter):
    """Replace the layer entry points ``cli.run_experiment`` calls with timed wrappers.

    Only the names in the ``cli`` module (and ``LabeledIntervalMdp.validate``)
    of this worker process are replaced; the wrappers call the originals.
    """
    for attr, span in (("parse_formula", "twtl.parse"), ("compile_formula", "automaton.compile"),
                       ("build_grid_mdp", "gridworld.build"), ("build_product", "product.build"),
                       ("one_shot_prune", "reachability.prune"),
                       ("multi_shot_prune", "reachability.prune")):
        setattr(cli, attr, tracer.wrap(span, getattr(cli, attr)))
    LabeledIntervalMdp.validate = tracer.wrap("mdp.validate", LabeledIntervalMdp.validate)

    traced_check = tracer.wrap("reachability.check", cli.check_initial)

    def checked(product, threshold):
        cap.violators = traced_check(product, threshold)
        cap.setup_end = meter.clock()
        cap.product = product
        return cap.violators
    cli.check_initial = checked

    def learned(fn):
        traced = tracer.wrap("learner.learn", fn)

        def run(*args, **kwargs):
            cap.learned = traced(*args, **kwargs)
            cap.learn_end = meter.clock()
            return cap.learned
        return run
    cli.run_one_shot = learned(cli.run_one_shot)
    cli.run_multi_shot = learned(cli.run_multi_shot)

    traced_eval = tracer.wrap("learner.eval", cli.evaluate)

    def evaluated(*args, **kwargs):
        result = traced_eval(*args, **kwargs)
        cap.eval_end = time.perf_counter()
        return result
    cli.evaluate = evaluated


def case_learn(seed, tracer, record, scratch, meter):
    """The packaged 6x6 case study, full ``learn`` pipeline, one config per mode."""
    cap = Capture()
    instrument_cli(tracer, cap, meter)
    for i, mode in enumerate(MODES):
        out = scratch / mode
        cfg = cli.load_config(None, {"mode": mode, "pr_des": PR_DES, "assumed_uncertainty": EPS,
                                     "episodes": CASE_EPISODES, "eval_episodes": CASE_EVAL_EPISODES,
                                     "seed": seed + 1000 * i, "output_dir": str(out)})
        cap.reset()
        start = meter.clock()
        try:
            with tracer.span("bench.op"):
                with tracer.span("cli.run_experiment"):
                    bundle = cli.run_experiment(cfg)
                    tracer.add("cli.write", cap.eval_end, time.perf_counter())
            end = meter.clock()
            summary_bytes = (out / "summary.json").read_bytes()
        except Exception:
            record.failure(mode)
            continue
        finally:
            shutil.rmtree(out, ignore_errors=True)

        def verify():
            summary = bundle.summary
            counts = product_counts(cap.product)
            check_baseline("case-learn", counts)
            if counts["reachability.lps"] != summary["pruning"]["candidate_state_actions"]:
                raise CheckFailed("LP count disagrees with the summary's candidate state-actions")
            learning = summary["learning"]
            if learning["legality_violations"]:
                raise CheckFailed(f"{learning['legality_violations']} shield-legality violations")
            floor = PR_DES - 3.0 * math.sqrt(PR_DES * (1.0 - PR_DES) / CASE_EPISODES)
            if learning["satisfaction_rate"] < floor:
                raise CheckFailed(f"learning satisfaction {learning['satisfaction_rate']} < {floor}")
            logs = cap.learned.logs
            horizon = cap.product.horizon
            counts.update({
                "reachability.violators": len(cap.violators),
                "learner.episodes": len(logs),
                "learner.steps": len(logs) * horizon,
                "learner.shielded_steps": sum(log.steps_shielded for log in logs),
                "learner.q_rows": len(cap.learned.q),
                "learner.eval_steps": summary["testing"]["episodes"] * horizon,
            })
            return counts, result_digest(cap.product, summary_bytes)

        record.success(mode, start, cap.setup_end, end, verify, cap.learn_end - cap.setup_end)


def grid16_spec():
    spec, _ = canonical_case_study(assumed_uncertainty=EPS)
    return dataclasses.replace(spec, width=GRID16_SIZE, height=GRID16_SIZE)


def grid16_shield(seed, tracer, record, scratch, meter):
    """Case-study task on a 16x16 grid, shield only; the inputs do not depend on the seed."""
    spec = grid16_spec()
    props = sorted(spec.alphabet())
    for mode in MODES:
        start = meter.clock()
        try:
            with tracer.span("bench.op"):
                _, product, violators = shield(tracer, CASE_STUDY_FORMULA, props, spec, mode,
                                               PR_DES, cli.CASE_STUDY_TIMESTAMPS)
                setup_end = meter.clock()
            end = meter.clock()
        except Exception:
            record.failure(mode)
            continue

        def verify():
            counts = product_counts(product)
            check_baseline("grid16-shield", counts)
            counts["reachability.violators"] = len(violators)
            return counts, result_digest(product)

        record.success(mode, start, setup_end, end, verify)


def random_instances(seed, cache):
    """The seed's instances; the first pass of a run generates them, later passes load them."""
    if cache.exists():
        with open(cache, "rb") as handle:
            return pickle.load(handle)
    rng = random.Random(seed)
    spec = oracle.RandomInstanceSpec()
    instances = []
    for _ in range(RANDOM_INSTANCES):
        formula = oracle.random_formula(rng, spec.max_horizon)
        model = oracle.random_interval_mdp(rng, spec)
        dynamics = oracle.sample_true_dynamics(model.bounds, rng)
        instances.append((format_formula(formula), formula, model, dynamics))
    partial = cache.with_suffix(".partial")
    with open(partial, "wb") as handle:
        pickle.dump(instances, handle, protocol=pickle.HIGHEST_PROTOCOL)
    partial.replace(cache)
    return instances


def random_small(seed, tracer, record, scratch, meter):
    """Thousands of tiny random formulas and interval MDPs, verified by exact reachability."""
    props = ["B", "C"]
    instances = random_instances(seed, scratch / "inputs.pickle")
    for index, (text, expected, model, dynamics) in enumerate(instances):
        start = meter.clock()
        try:
            with tracer.span("bench.op"):
                formula, product, violators = shield(tracer, text, props, model, "one_shot",
                                                     RANDOM_PR_DES)
                setup_end = meter.clock()
                with tracer.span("reachability.exact"):
                    exact = exact_reach_probability(product, product.pi_c, true_dynamics=dynamics)
            end = meter.clock()
        except Exception:
            record.failure(index)
            continue

        def verify():
            if formula != expected:
                raise CheckFailed(f"{text!r} does not parse back to the generated formula")
            for p, value in exact.items():
                if value < product.f_values[p] - DOMINANCE_TOL:
                    raise CheckFailed(f"exact reach {value!r} below the bound "
                                      f"{product.f_values[p]!r} at {p!r}")
            counts = product_counts(product)
            counts["reachability.violators"] = len(violators)
            return counts, result_digest(product)

        record.success(index, start, setup_end, end, verify)


class Record:
    """Per-pass totals: operation times, counts and digests, and failures."""

    def __init__(self):
        self.op_s = []
        self.setup_s = []
        self.learn_s = []
        self.attempted = 0
        self.failed = 0
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.counts["product.max_layer_states"] = 0
        self.digest = hashlib.sha256()
        self.op_digests = {}

    def failure(self, label):
        """The operation raised; call from inside the ``except`` block."""
        self.attempted += 1
        self._failed(label)

    def _failed(self, label):
        self.failed += 1
        if self.failed <= 5:
            print(f"operation {label!r} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def success(self, label, start, setup_end, end, verify, learn_s=0.0):
        """The operation returned; time it, then check its output outside the timed region."""
        self.attempted += 1
        self.op_s.append(end - start)
        self.setup_s.append(setup_end - start)
        self.learn_s.append(learn_s)
        try:
            counts, digest = verify()
        except Exception:
            self._failed(label)
            return
        for key, value in counts.items():
            if key == "product.max_layer_states":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.digest.update(digest.encode())
        self.op_digests[str(label)] = digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory shared by the passes of one run")
    args = parser.parse_args(argv)

    run_id = f"{args.workload}-seed{args.seed}-pass{args.pass_index}-trace{args.trace}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    body = {"case-learn": case_learn, "grid16-shield": grid16_shield,
            "random-small": random_small}[args.workload]
    args.scratch.mkdir(parents=True, exist_ok=True)
    meter = Meter()
    record = Record()
    with meter.sampling():
        body(args.seed, tracer, record, args.scratch, meter)
    factor = meter.factor()

    result = {
        "ops": record.attempted,
        "failed": record.failed,
        "wall_s": math.fsum(record.op_s),
        "setup_s": math.fsum(record.setup_s),
        "learn_s": math.fsum(record.learn_s),
        "op_s": record.op_s,
        "speed": factor,
        "ref_wall_s": factor * math.fsum(record.op_s),
        "ref_setup_s": factor * math.fsum(record.setup_s),
        "ref_learn_s": factor * math.fsum(record.learn_s),
        "ref_op_s": [factor * t for t in record.op_s],
        "probes": len(meter.probes),
        "digest": record.digest.hexdigest(),
        "op_digests": record.op_digests,
        "counts": record.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer.enabled:
        tracer.add_probes(meter.intervals)
        result["self_s"] = tracer.self_times()
        result["ref_self_s"] = {name: factor * t for name, t in result["self_s"].items()}
        result["spans"] = len(tracer.spans)
        spans_file = OUT_DIR / f"spans-{run_id}.jsonl"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
