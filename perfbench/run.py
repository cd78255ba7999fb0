"""Stage-timed benchmark of the twtlshield pipeline.

    python3 perfbench/run.py --workload case-learn --seed 1 --seconds 40 --trace 0

Runs passes of one workload, each in a fresh interpreter (``worker.py``),
closed loop and one at a time, for about ``--seconds`` seconds, then prints a
readable report followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
untraced passes; ``--trace 1`` runs pairs of untraced and traced passes and
reports the per-layer metrics.  Times are given at reference speed, which
takes out the drift in speed of the shared host (see ``worker.Meter``); the
report also prints the measured wall clock.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("case-learn", "grid16-shield", "random-small")
WORKER_TIMEOUT_S = 150

# Per-layer time metric -> span name recorded by the worker.
LAYER_SPANS = {
    "twtl.parse_s": "twtl.parse",
    "automaton.compile_s": "automaton.compile",
    "gridworld.build_s": "gridworld.build",
    "mdp.validate_s": "mdp.validate",
    "product.build_s": "product.build",
    "reachability.prune_s": "reachability.prune",
    "reachability.check_s": "reachability.check",
    "reachability.exact_s": "reachability.exact",
    "learner.learn_s": "learner.learn",
    "learner.eval_s": "learner.eval",
    "cli.write_s": "cli.write",
}
# The benchmark's own per-operation span, and run_experiment outside its layer calls.
GLUE_SPANS = ("bench.op", "cli.run_experiment")
# The speed probes; they run outside every timed region.
PROBE_SPAN = "bench.probe"


class BenchmarkError(Exception):
    pass


def run_worker(workload, seed, trace, pass_index, scratch):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--pass", str(pass_index), "--scratch", str(scratch)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"pass {pass_index} took longer than {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchmarkError(f"pass {pass_index} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_groups(workload, seed, seconds, traces, scratch):
    """Run groups of passes, one pass per entry of ``traces``, while another group fits."""
    groups = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        group_start = time.perf_counter()
        k = len(groups)
        # Alternate which side of an untraced/traced pair runs first.
        order = traces if k % 2 == 0 else traces[::-1]
        group = {trace: run_worker(workload, seed, trace, k * len(traces) + i, scratch)
                 for i, trace in enumerate(order)}
        groups.append(tuple(group[trace] for trace in traces))
        now = time.perf_counter()
        longest = max(longest, now - group_start)
        if now - start + longest > seconds:
            return groups


def digest_mismatches(passes):
    """Operations whose result digest differs from the first pass's."""
    first = passes[0]["op_digests"]
    bad = set()
    for other in passes[1:]:
        for label, digest in other["op_digests"].items():
            if label in first and first[label] != digest:
                bad.add(label)
    return len(bad)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def src_lines():
    return sum(len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def end_to_end(passes):
    """Medians over untraced passes, of times at reference speed (see ``worker.Meter``)."""
    med = statistics.median
    return {
        "wall_s": (med(p["ref_wall_s"] for p in passes), "s"),
        "setup_s": (med(p["ref_setup_s"] for p in passes), "s"),
        "instances_per_s": (med(ratio(p["ops"] - p["failed"], p["ref_wall_s"]) for p in passes),
                            "1/s"),
        "instance_ms_p50": (med(1e3 * statistics.median(p["ref_op_s"]) for p in passes), "ms"),
        "instance_ms_p99": (med(1e3 * nearest_rank(p["ref_op_s"], 0.99) for p in passes), "ms"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(pairs, error_rate):
    """Medians over traced passes, times at reference speed; counts repeat exactly, so the
    first traced pass gives them."""
    med = statistics.median
    traced = [t for _, t in pairs]
    counts = traced[0]["counts"]

    def self_s(span):
        return med(p["ref_self_s"].get(span, 0.0) for p in traced)

    def per_second(count, span):
        return med(ratio(count, p["ref_self_s"].get(span, 0.0)) for p in traced)

    metrics = {metric: (self_s(span), "s") for metric, span in LAYER_SPANS.items()}
    lps = counts["reachability.lps"]
    steps = counts["learner.steps"]
    metrics.update({
        "automaton.states": (counts["automaton.states"], "count"),
        "mdp.edges": (counts["mdp.edges"], "count"),
        "product.states": (counts["product.states"], "count"),
        "product.max_layer_states": (counts["product.max_layer_states"], "count"),
        "product.edges": (counts["product.edges"], "count"),
        "reachability.lps": (lps, "count"),
        "reachability.lps_per_s": (per_second(lps, "reachability.prune"), "1/s"),
        "reachability.pruned_fraction": (ratio(counts["reachability.pruned"], lps), "fraction"),
        "reachability.violators": (counts["reachability.violators"], "count"),
        "learner.steps": (steps, "count"),
        "learner.episodes_per_s": (per_second(counts["learner.episodes"], "learner.learn"), "1/s"),
        "learner.us_per_step": (1e6 * ratio(self_s("learner.learn"), steps), "us"),
        "learner.shielded_fraction": (ratio(counts["learner.shielded_steps"], steps), "fraction"),
        "learner.q_rows": (counts["learner.q_rows"], "count"),
        "learner.eval_us_per_step": (1e6 * ratio(self_s("learner.eval"),
                                                 counts["learner.eval_steps"]), "us"),
        "trace.overhead_s": (med(t["ref_wall_s"] - u["ref_wall_s"] for u, t in pairs), "s"),
        "trace.glue_s": (med(sum(p["ref_self_s"].get(s, 0.0) for s in GLUE_SPANS) for p in traced),
                         "s"),
        "trace.spans": (traced[0]["spans"], "count"),
        "error_rate": (error_rate, "fraction"),
        "src_lines": (src_lines(), "count"),
    })
    return metrics


def report(args, groups, metrics, attempted, failed):
    passes = [p for group in groups for p in group]
    ops = passes[0]["ops"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes in fresh interpreters, {ops} operations per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:>16.6g} {unit}")
    print(f"  error_rate {ratio(failed, attempted):.6g} ({failed} failed of {attempted} operations)")
    print(f"  latency samples: {ops} operations per pass; metrics are medians over "
          f"{len(groups)} {'traced ' if args.trace else ''}passes")
    if not args.trace:
        untraced = [group[0] for group in groups]
        med = statistics.median
        print(f"  measured wall clock: wall_s {med(p['wall_s'] for p in untraced):.6g} s, "
              f"setup_s {med(p['setup_s'] for p in untraced):.6g} s; host speed factor "
              f"{med(p['speed'] for p in untraced):.4g} (median over passes, "
              f"{med(p['probes'] for p in untraced)} probes per pass)")
        learn_s = med(p["ref_learn_s"] for p in untraced)
        if learn_s:
            episodes = passes[0]["counts"]["learner.episodes"]
            print(f"  learn_episodes_per_s {episodes / learn_s:.6g} 1/s at reference speed "
                  f"({episodes} episodes per pass)")
    else:
        traced = [t for _, t in groups]
        layers = statistics.median(sum(v for k, v in p["ref_self_s"].items()
                                       if k not in GLUE_SPANS and k != PROBE_SPAN)
                                   for p in traced)
        glue = metrics["trace.glue_s"][0]
        traced_wall = statistics.median(p["ref_wall_s"] for p in traced)
        untraced_wall = statistics.median(u["ref_wall_s"] for u, _ in groups)
        print(f"  self times at reference speed: layers {layers:.4f} s + glue {glue:.4f} s; "
              f"traced wall_s {traced_wall:.4f} s; untraced wall_s {untraced_wall:.4f} s")
        print(f"  spans written to {', '.join(p['spans_file'] for p in traced)}")
    first = passes[0]
    print(f"  digest {first['digest']}")
    if len(first["op_digests"]) <= len(("one_shot", "multi_shot")):
        for label, digest in first["op_digests"].items():
            print(f"  digest {label} {digest}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "twtlshield").is_dir():
        print(f"error: no twtlshield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    traces = (0, 1) if args.trace else (0,)
    scratch = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    try:
        groups = run_groups(args.workload, args.seed, args.seconds, traces, scratch)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    passes = [p for group in groups for p in group]
    if not all(p["op_s"] for p in passes):
        print("error: every operation of a pass failed", file=sys.stderr)
        return 1
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatched = digest_mismatches(passes)
    if mismatched:
        print(f"error: {mismatched} operations gave different results across passes",
              file=sys.stderr)
        failed += mismatched
    elif any(p["counts"] != passes[0]["counts"] for p in passes):
        print("error: counts differ across passes", file=sys.stderr)
        failed += 1

    if args.trace:
        metrics = per_layer(groups, ratio(failed, attempted))
    else:
        metrics = end_to_end([group[0] for group in groups])
    report(args, groups, metrics, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
