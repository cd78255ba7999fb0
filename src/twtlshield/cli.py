"""Experiment runner: compile, build, prune, learn, evaluate, sweep, verify.

Configuration comes from a JSON file, with command-line flags taking
precedence over file fields.  Outputs land in --output-dir (or the
TWTLSHIELD_OUTPUT_DIR environment variable): a per-episode CSV, a summary
JSON that is bit-identical across reruns with the same config and seed, and
automaton/product dumps.

Exit codes: 0 ok, 2 configuration error, 3 infeasibility or failed initial
check, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field, asdict, replace

from . import __version__
from .twtl import TwtlError, parse_formula, propositions, time_bound, format_formula
from .automaton import AutomatonError, accepts, compile_formula, to_dot, to_json as automaton_json
from .mdp import LabeledIntervalMdp, MdpError
from .product import ProductError, build_product
from .reachability import (InfeasibleIntervalError, MultiShotInfeasibleError, MultiShotPlan,
                           ReachabilityError, check_initial, multi_shot_prune,
                           one_shot_prune, exact_reach_probability, solve_kappa)
from .learner import LearnerConfig, evaluate, learn, write_episode_csv
from .gridworld import (CASE_STUDY_FORMULA, GridError, GridSpec, build_grid_mdp,
                        canonical_case_study, render_ascii)
from . import oracle

OUTPUT_ENV_VAR = "TWTLSHIELD_OUTPUT_DIR"
CASE_STUDY_TIMESTAMPS = (0, 8, 15, 22, 35)

# One learner serves both modes.  run_experiment still calls it under a
# per-mode name because perfbench/worker.py times learning by replacing
# exactly these two names (tests/test_cli.py::TestBenchmarkHooks checks both).
run_one_shot = run_multi_shot = learn


class ConfigError(Exception):
    pass


class PipelineError(Exception):
    """Wraps a failure with the pipeline stage that produced it."""

    def __init__(self, stage, cause, exit_code=3):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.exit_code = exit_code


@dataclass
class ExperimentConfig:
    grid: GridSpec = None
    formula: str = CASE_STUDY_FORMULA
    pr_des: float = 0.9
    mode: str = "one_shot"                      # "one_shot" | "multi_shot"
    multishot_timestamps: tuple = None
    multishot_thresholds: tuple = None          # default: even N-th roots of pr_des
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    eval_episodes: int = 10000
    output_dir: str = None
    allow_unsafe: bool = False

    def __post_init__(self):
        if self.grid is None:
            self.grid, _ = canonical_case_study()
        if self.formula == CASE_STUDY_FORMULA and self.multishot_timestamps is None:
            self.multishot_timestamps = CASE_STUDY_TIMESTAMPS
        if not isinstance(self.formula, str):
            raise ConfigError(f"formula must be a string, not {self.formula!r}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, not {self.output_dir!r}")
        if not isinstance(self.allow_unsafe, bool):
            raise ConfigError(f"allow_unsafe must be true or false, not {self.allow_unsafe!r}")
        if self.eval_episodes < 0:
            raise ConfigError("eval_episodes must be nonnegative")
        if not (0.0 < self.pr_des <= 1.0):
            raise ConfigError("pr_des must lie in (0, 1]")
        if self.mode not in ("one_shot", "multi_shot"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "multi_shot" and self.multishot_timestamps is None:
            raise ConfigError("multi_shot mode needs multishot_timestamps")

    def plan(self, horizon):
        if self.multishot_timestamps[-1] != horizon:
            raise ConfigError(f"multishot timestamps must end at the time bound {horizon}")
        try:
            if self.multishot_thresholds is not None:
                plan = MultiShotPlan(tuple(self.multishot_timestamps),
                                     tuple(self.multishot_thresholds))
                plan.check_product(self.pr_des)
                return plan
            return MultiShotPlan.even(self.pr_des, tuple(self.multishot_timestamps))
        except ValueError as exc:
            raise ConfigError(str(exc))

    def echo(self):
        doc = {
            "formula": self.formula,
            "pr_des": self.pr_des,
            "mode": self.mode,
            "multishot_timestamps": list(self.multishot_timestamps) if self.multishot_timestamps else None,
            "multishot_thresholds": list(self.multishot_thresholds) if self.multishot_thresholds else None,
            "eval_episodes": self.eval_episodes,
            "allow_unsafe": self.allow_unsafe,
            "learner": {k: v for k, v in asdict(self.learner).items()},
            "grid": json.loads(self.grid.to_json()),
        }
        doc["learner"]["start_state"] = (list(self.learner.start_state)
                                         if self.learner.start_state is not None else None)
        return doc


def load_config(path=None, overrides=None) -> ExperimentConfig:
    doc = {}
    if path is not None:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})

    # A grid is a spec file path or an inline spec; replace() re-runs GridSpec's checks.
    grid = doc.get("grid")
    try:
        if isinstance(grid, str):
            with open(grid) as handle:
                grid = GridSpec.from_json(handle.read())
        elif grid is not None:
            grid = GridSpec.from_json(json.dumps(grid))
        if "assumed_uncertainty" in doc:
            grid = replace(grid or canonical_case_study()[0],
                           assumed_uncertainty=float(doc["assumed_uncertainty"]))
    except (OSError, ValueError, TypeError, KeyError, AttributeError, GridError) as exc:
        raise ConfigError(f"bad grid spec or assumed_uncertainty: {exc}")

    learner_doc = doc.get("learner", {})
    if not isinstance(learner_doc, dict):
        raise ConfigError(f"learner config must be a JSON object, not {learner_doc!r}")
    learner_doc = dict(learner_doc)
    for key in ("episodes", "seed"):
        if key in doc:
            learner_doc[key] = doc[key]
    try:
        if learner_doc.get("start_state") is not None:
            learner_doc["start_state"] = tuple(learner_doc["start_state"])
        learner = LearnerConfig(**learner_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad learner config: {exc}")

    try:
        return ExperimentConfig(
            grid=grid,
            formula=doc.get("formula", CASE_STUDY_FORMULA),
            pr_des=float(doc.get("pr_des", 0.9)),
            mode=doc.get("mode", "one_shot"),
            multishot_timestamps=tuple(doc["multishot_timestamps"]) if doc.get("multishot_timestamps") else None,
            multishot_thresholds=tuple(doc["multishot_thresholds"]) if doc.get("multishot_thresholds") else None,
            learner=learner,
            eval_episodes=int(doc.get("eval_episodes", 10000)),
            output_dir=doc.get("output_dir"),
            allow_unsafe=doc.get("allow_unsafe", False),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


@dataclass
class ReportBundle:
    summary: dict
    paths: dict


def _pipeline_assets(cfg: ExperimentConfig):
    """Shared head of the pipeline: formula, automaton, model, product."""
    props = sorted(cfg.grid.alphabet())
    try:
        formula = parse_formula(cfg.formula, props)
    except TwtlError as exc:
        raise PipelineError("parse", exc, exit_code=2)
    horizon = time_bound(formula)
    try:
        automaton = compile_formula(formula, props)
    except AutomatonError as exc:
        raise PipelineError("compile", exc, exit_code=2)
    try:
        model = build_grid_mdp(cfg.grid)
    except (GridError, MdpError) as exc:
        raise PipelineError("build-grid", exc, exit_code=2)
    problems = model.validate()
    if problems:
        raise PipelineError("validate", "; ".join(problems[:5]))
    try:
        product = build_product(model, automaton, horizon)
    except ProductError as exc:
        raise PipelineError("build-product", exc, exit_code=2)
    return formula, automaton, model, product


def _prune(cfg: ExperimentConfig, product):
    """Write the shield onto ``product``; returns the initial states that fail its check."""
    try:
        if cfg.mode == "one_shot":
            one_shot_prune(product, cfg.pr_des)
        else:
            multi_shot_prune(product, cfg.plan(product.horizon))
    except (InfeasibleIntervalError, MultiShotInfeasibleError, ReachabilityError, ValueError) as exc:
        raise PipelineError("prune", exc)
    return check_initial(product, product.initial_threshold)


def _prune_stats(product):
    total = pruned = 0
    for t, layer in enumerate(product.layers[:-1]):
        for s, q in layer:
            p = (s, q, t)
            if product.is_accepting(p) or product.is_trash(p):
                continue
            enabled = len(product.mdp.enabled[s])
            total += enabled
            pruned += enabled - len(product.act_sets[p])
    return {"candidate_state_actions": total, "pruned_actions": pruned,
            "pruned_fraction": (pruned / total) if total else 0.0}


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    """parse -> compile -> grid -> product -> prune -> check -> learn -> evaluate."""
    formula, automaton, model, product = _pipeline_assets(cfg)
    violators = _prune(cfg, product)
    threshold = product.initial_threshold

    check_ok = not violators
    if violators and not cfg.allow_unsafe:
        worst = min(violators, key=lambda pv: pv[1])
        raise PipelineError(
            "check-initial",
            f"{len(violators)} initial states fall below the required {threshold:.6f} "
            f"(worst {worst[0]!r} at {worst[1]:.6f}); rerun with --allow-unsafe to proceed")

    learner_cfg = cfg.learner
    if cfg.allow_unsafe and not check_ok:
        learner_cfg = LearnerConfig(**{**asdict(learner_cfg), "enforce_initial": False})
    run = run_one_shot if cfg.mode == "one_shot" else run_multi_shot
    try:
        result = run(product, learner_cfg)
    except Exception as exc:
        raise PipelineError("learn", exc)

    eval_result = evaluate(product, result.policy, cfg.eval_episodes, seed=learner_cfg.seed + 1,
                           start_state=learner_cfg.start_state,
                           reset_mode=learner_cfg.reset_mode)

    f0 = [product.f_values[p] for p in product.initial]
    summary = {
        "version": __version__,
        "config": cfg.echo(),
        "formula_time_bound": product.horizon,
        "automaton": {"states": automaton.n_states, "reachable": len(automaton.reachable)},
        "product": product.summary(),
        "initial_bound": {"threshold": threshold, "min": min(f0), "max": max(f0),
                          "mean": math.fsum(f0) / len(f0)},
        "check_initial": {"ok": check_ok, "violators": len(violators)},
        "pruning": _prune_stats(product),
        "learning": {
            "episodes": learner_cfg.episodes,
            "satisfaction_rate": result.satisfaction_rate,
            "average_reward": result.average_reward,
            "legality_violations": result.legality_violations,
        },
        "testing": {
            "episodes": eval_result.episodes,
            "satisfaction_rate": eval_result.satisfaction_rate,
            "average_reward": eval_result.avg_reward,
            "wilson_ci_halfwidth": eval_result.ci_halfwidth,
        },
    }

    paths = {}
    out = cfg.output_dir
    if out:
        policy = {repr(p): repr(a) for p, a in sorted(result.policy.items(), key=repr)}
        paths["summary"] = _write(out, "summary.json", _json_text(summary))
        paths["automaton_json"] = _write(out, "automaton.json", automaton_json(automaton))
        paths["automaton_dot"] = _write(out, "automaton.dot", to_dot(automaton))
        paths["product_summary"] = _write(out, "product_summary.json", product.summary_json())
        paths["policy"] = _write(out, "policy.json", _json_text(policy))
        paths["episodes"] = os.path.join(out, "episodes.csv")
        write_episode_csv(result.logs, paths["episodes"])
    return ReportBundle(summary=summary, paths=paths)


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(out, name, text):
    """Write ``text`` to ``out/name``, creating ``out`` if needed; returns the path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _out_dir(args):
    return args.output_dir or os.environ.get(OUTPUT_ENV_VAR)


def _parse_list(flag, text, parse):
    """Comma-separated values given to ``flag``; a bad item is a config error."""
    try:
        return [parse(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}")


def _config_from_args(args):
    overrides = {
        "pr_des": getattr(args, "pr_des", None),
        "mode": getattr(args, "mode", None),
        "formula": getattr(args, "formula", None),
        "episodes": getattr(args, "episodes", None),
        "eval_episodes": getattr(args, "eval_episodes", None),
        "seed": getattr(args, "seed", None),
        "assumed_uncertainty": getattr(args, "eps", None),
        "grid": getattr(args, "grid", None),
        "output_dir": _out_dir(args),
        "allow_unsafe": True if getattr(args, "allow_unsafe", False) else None,
    }
    for name, key, parse in (("timestamps", "multishot_timestamps", int),
                             ("thresholds", "multishot_thresholds", float)):
        text = getattr(args, name, None)
        if text:
            overrides[key] = _parse_list(f"--{name}", text, parse)
    return load_config(getattr(args, "config", None), overrides)


def cmd_compile(args):
    props = [p for p in args.props.split(",") if p] if args.props else None
    try:
        formula = parse_formula(args.formula, props)
        automaton = compile_formula(formula, props if props is not None
                                    else sorted(propositions(formula)))
    except (TwtlError, AutomatonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    print(f"formula: {format_formula(formula)}")
    print(f"time bound: {time_bound(formula)}")
    print(f"automaton: {automaton.n_states} states ({len(automaton.reachable)} reachable), "
          f"{len(automaton.accepting)} accepting, trash={automaton.trash}")
    if out:
        _write(out, "automaton.json", automaton_json(automaton))
        _write(out, "automaton.dot", to_dot(automaton))
        print(f"wrote {out}/automaton.json and {out}/automaton.dot")
    return 0


def cmd_build(args):
    cfg = _config_from_args(args)
    _, automaton, model, product = _pipeline_assets(cfg)
    print(render_ascii(cfg.grid))
    print(f"automaton states: {automaton.n_states}")
    print(f"product: {product.n_states()} reachable states over horizon {product.horizon}, "
          f"{len(product.initial)} initial, {len(product.coerced)} coerced at the boundary")
    out = cfg.output_dir
    if out:
        _write(out, "product_summary.json", product.summary_json())
        _write(out, "grid.json", cfg.grid.to_json())
        print(f"wrote {out}/product_summary.json and {out}/grid.json")
    return 0


def cmd_prune(args):
    cfg = _config_from_args(args)
    _, _, _, product = _pipeline_assets(cfg)
    violators = _prune(cfg, product)
    stats = _prune_stats(product)
    f0 = [product.f_values[p] for p in product.initial]
    print(f"mode: {cfg.mode}, threshold at t=0: {product.initial_threshold:.6f}")
    print(f"initial bound: min {min(f0):.6f}, mean {math.fsum(f0)/len(f0):.6f}")
    print(f"pruned {stats['pruned_actions']} of {stats['candidate_state_actions']} "
          f"state-actions ({100 * stats['pruned_fraction']:.2f}%)")
    out = cfg.output_dir
    if out:
        _write(out, "reachability.json", product.results_json())
        print(f"wrote {out}/reachability.json")
    if violators:
        print(f"check-initial FAILED for {len(violators)} initial states "
              f"(worst f = {min(v for _, v in violators):.6f})", file=sys.stderr)
        if not cfg.allow_unsafe:
            return 3
    else:
        print("check-initial ok")
    return 0


def cmd_learn(args):
    cfg = _config_from_args(args)
    bundle = run_experiment(cfg)
    summary = bundle.summary
    print(f"learning satisfaction: {summary['learning']['satisfaction_rate']:.4f} "
          f"over {summary['learning']['episodes']} episodes")
    print(f"testing satisfaction: {summary['testing']['satisfaction_rate']:.4f} "
          f"+/- {summary['testing']['wilson_ci_halfwidth']:.4f}, "
          f"avg reward {summary['testing']['average_reward']:.3f}")
    if bundle.paths:
        print("outputs: " + ", ".join(sorted(bundle.paths.values())))
    return 0


def cmd_eval(args):
    cfg = _config_from_args(args)
    _, _, _, product = _pipeline_assets(cfg)
    violators = _prune(cfg, product)
    if violators and not cfg.allow_unsafe:
        print(f"check-initial FAILED for {len(violators)} initial states", file=sys.stderr)
        return 3
    try:
        with open(args.policy) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read policy {args.policy}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        raise ConfigError(f"policy {args.policy} is not a JSON object")
    actions = {repr(a): a for a in product.mdp.actions}
    states = {repr((s, q, t)): (s, q, t)
              for t, layer in enumerate(product.layers[:-1]) for s, q in layer}
    stray = sorted(raw.keys() - states.keys())
    if stray:
        raise ConfigError(f"policy key {stray[0]!r} is not a state of this product "
                          f"before its horizon {product.horizon}")
    policy = dict(product.pi_c)
    for key, p in states.items():
        name = raw.get(key)
        if name is None:
            continue
        if not isinstance(name, str) or name not in actions:
            raise ConfigError(f"policy action {name!r} at {p!r} is not an action of the model")
        a = policy[p] = actions[name]
        if product.act_sets[p] and a not in product.act_sets[p]:
            raise PipelineError("eval", f"policy action {name} at {p!r} is pruned by the "
                                f"shield at pr_des {cfg.pr_des}; refusing to bypass it")
    result = evaluate(product, policy, cfg.eval_episodes, seed=cfg.learner.seed + 1,
                      start_state=cfg.learner.start_state, reset_mode=cfg.learner.reset_mode)
    print(f"satisfaction: {result.satisfaction_rate:.4f} +/- {result.ci_halfwidth:.4f} "
          f"over {result.episodes} episodes, avg reward {result.avg_reward:.3f}")
    return 0


def cmd_sweep(args):
    eps_values = _parse_list("--eps-list", args.eps_list, float)
    pr_values = _parse_list("--pr-list", args.pr_list, float)
    modes = args.modes.split(",")
    rows = []
    for i_mode, mode in enumerate(modes):
        for i_eps, eps in enumerate(eps_values):
            for i_pr, pr in enumerate(pr_values):
                overrides = {
                    "mode": mode,
                    "pr_des": pr,
                    "assumed_uncertainty": eps,
                    "episodes": args.episodes,
                    "eval_episodes": args.eval_episodes,
                    "seed": (args.seed or 0) + 1000 * i_mode + 100 * i_eps + 10 * i_pr,
                    "allow_unsafe": True if args.allow_unsafe else None,
                }
                cfg = load_config(getattr(args, "config", None), overrides)
                cfg.output_dir = None
                bundle = run_experiment(cfg)
                rows.append({
                    "mode": mode, "eps": eps, "pr_des": pr,
                    "check_initial_ok": bundle.summary["check_initial"]["ok"],
                    "learning_sat": bundle.summary["learning"]["satisfaction_rate"],
                    "testing_sat": bundle.summary["testing"]["satisfaction_rate"],
                    "avg_reward": bundle.summary["testing"]["average_reward"],
                })
                r = rows[-1]
                print(f"{mode:10s} eps={eps:<5} pr={pr:<4}: learn {r['learning_sat']:.4f} "
                      f"test {r['testing_sat']:.4f} reward {r['avg_reward']:.2f}"
                      + ("" if r["check_initial_ok"] else "  [check-initial failed]"))
    out = _out_dir(args)
    if out:
        path = _write(out, "sweep.json", _json_text(rows))
        header = "mode,eps,pr_des,check_initial_ok,learning_sat,testing_sat,avg_reward\n"
        csv_path = _write(out, "sweep.csv", header + "".join(
            f"{r['mode']},{r['eps']},{r['pr_des']},{int(r['check_initial_ok'])},"
            f"{r['learning_sat']!r},{r['testing_sat']!r},{r['avg_reward']!r}\n" for r in rows))
        print(f"wrote {path} and {csv_path}")
    return 0


def cmd_verify(args):
    rng = random.Random(args.seed)
    failures = []

    def report(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    # automaton versus enumeration semantics on the corpus
    mismatches = 0
    checked = 0
    for text in oracle.FORMULA_CORPUS:
        formula = parse_formula(text, {"B", "C"})
        automaton = compile_formula(formula, {"B", "C"})
        n = time_bound(formula) + 1
        for word in oracle.enumerate_words({"B", "C"}, n):
            checked += 1
            if accepts(automaton, word) != oracle.word_satisfies_brute(formula, word):
                mismatches += 1
    report("automaton-semantics equivalence", mismatches == 0,
           f"{checked} words over {len(oracle.FORMULA_CORPUS)} formulas")

    # closed-form optimum versus grid search
    bad_lp = 0
    for _ in range(args.lp_instances):
        values, los, his = oracle.random_lp_instance(rng)
        exact, _ = solve_kappa(values, los, his)
        approx = oracle.lp_grid_search(values, los, his, 1e-3)
        if abs(exact - approx) > len(values) * 1e-3:
            bad_lp += 1
    report("closed-form optimum vs grid search", bad_lp == 0, f"{args.lp_instances} instances")

    # worst-case bound dominated by exact reachability under the fallback policy
    spec = oracle.RandomInstanceSpec()
    bad_dom = 0
    for _ in range(args.instances):
        formula = oracle.random_formula(rng, spec.max_horizon)
        model = oracle.random_interval_mdp(rng, spec)
        automaton = compile_formula(formula, {"B", "C"})
        product = build_product(model, automaton, time_bound(formula))
        one_shot_prune(product, 0.5)
        dynamics = oracle.sample_true_dynamics(model.bounds, rng)
        sim = LabeledIntervalMdp(model.states, model.actions, model.labels,
                                 model.bounds, dynamics)
        if sim.validate():
            bad_dom += 1
            continue
        exact = exact_reach_probability(product, product.pi_c, true_dynamics=dynamics)
        f_values = product.f_values
        if args.corrupt_f:
            f_values = {p: min(1.0, v + 0.05) if 0.0 < v < 1.0 else v
                        for p, v in f_values.items()}
        for p, v in exact.items():
            if v < f_values[p] - 1e-12:
                bad_dom += 1
                break
    report("exact reachability dominates the bound", bad_dom == 0, f"{args.instances} instances")

    # sampled dynamics validate against their bounds
    bad_sampling = 0
    for _ in range(50):
        model = oracle.random_interval_mdp(rng, spec)
        dynamics = oracle.sample_true_dynamics(model.bounds, rng)
        sim = LabeledIntervalMdp(model.states, model.actions, model.labels, model.bounds, dynamics)
        if sim.validate():
            bad_sampling += 1
    report("sampled dynamics stay inside bounds", bad_sampling == 0, "50 instances")

    return 4 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="twtlshield", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_modeflags=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output-dir", help=f"output directory (or ${OUTPUT_ENV_VAR})")
        p.add_argument("--grid", help="grid spec JSON file")
        p.add_argument("--eps", type=float, help="assumed action uncertainty")
        p.add_argument("--seed", type=int)
        if with_modeflags:
            p.add_argument("--pr-des", dest="pr_des", type=float)
            p.add_argument("--mode", choices=["one_shot", "multi_shot"])
            p.add_argument("--formula")
            p.add_argument("--timestamps", help="comma-separated multi-shot timestamps")
            p.add_argument("--thresholds", help="comma-separated multi-shot thresholds")
            p.add_argument("--allow-unsafe", action="store_true",
                           help="continue despite a failed initial check (guarantee void)")

    p = sub.add_parser("compile", help="compile a formula into its automaton")
    p.add_argument("--formula", required=True)
    p.add_argument("--props", help="comma-separated proposition names")
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("build", help="build the grid model and product")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("prune", help="run the pruning pass and report bounds")
    add_common(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("learn", help="full pipeline: prune, learn, evaluate, report")
    add_common(p)
    p.add_argument("--episodes", type=int)
    p.add_argument("--eval-episodes", dest="eval_episodes", type=int)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="evaluate a stored policy with the shield")
    add_common(p)
    p.add_argument("--policy", required=True, help="policy.json from a learn run")
    p.add_argument("--eval-episodes", dest="eval_episodes", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a grid of (eps, pr_des) configurations")
    add_common(p)
    p.add_argument("--eps-list", default="0.03,0.08,0.13")
    p.add_argument("--pr-list", default="0.5,0.7,0.9")
    p.add_argument("--modes", default="one_shot,multi_shot")
    p.add_argument("--episodes", type=int)
    p.add_argument("--eval-episodes", dest="eval_episodes", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the independent oracle battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100, help="reachability instances")
    p.add_argument("--lp-instances", dest="lp_instances", type=int, default=300)
    p.add_argument("--corrupt-f", dest="corrupt_f", action="store_true",
                   help="negative control: perturb the bound and expect a failure")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (TwtlError, AutomatonError, GridError, MdpError, ProductError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleIntervalError, MultiShotInfeasibleError, ReachabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
