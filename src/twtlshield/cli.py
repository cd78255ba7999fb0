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
import typing
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass
from json.encoder import encode_basestring_ascii as quoted

from . import __version__
from .twtl import TwtlError, parse_formula, propositions, segment_ends, time_bound, format_formula
from .automaton import AutomatonError, accepts, compile_formula
from .mdp import LabeledIntervalMdp, MdpError
from .product import ProductError, build_product
from .reachability import (MultiShotPlan, ReachabilityError, check_initial, multi_shot_prune,
                           one_shot_prune, exact_reach_probability, solve_kappa)
from .learner import LearnerConfig, episode_csv, evaluate, learn
from .gridworld import (CASE_STUDY_FORMULA, GridError, GridSpec, build_grid_mdp,
                        canonical_case_study, render_ascii)
from . import oracle

OUTPUT_ENV_VAR = "TWTLSHIELD_OUTPUT_DIR"
# Read only by perfbench/worker.py; a config takes its formula's own segment_ends.
CASE_STUDY_TIMESTAMPS = segment_ends(parse_formula(CASE_STUDY_FORMULA))

# One learner serves both modes.  run_experiment still calls it under a
# per-mode name because perfbench/worker.py times learning by replacing
# exactly these two names (tests/test_cli.py::TestBenchmarkHooks checks both).
run_one_shot = run_multi_shot = learn


class ConfigError(Exception):
    pass


class PipelineError(Exception):
    """A failure of a stage only the command line owns: validate, check-initial, report, eval."""

    def __init__(self, stage, cause, exit_code=3):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.exit_code = exit_code


@dataclass
class ExperimentConfig:
    """One run's inputs.

    Each field's annotation is also its JSON type in a config file, and so is
    each annotation of :class:`LearnerConfig` in the ``learner`` block and of
    :class:`GridSpec` in the ``grid``: an int field takes an integer, a float
    field any finite number, a bool field only true/false, a tuple or frozenset
    field an array of its element type, a dict keyed by cells an object keyed
    by ``"x,y"``, and null is allowed only where the default is None.
    """

    grid: GridSpec = None
    formula: str = CASE_STUDY_FORMULA
    pr_des: float = 0.9
    mode: str = "one_shot"                      # "one_shot" | "multi_shot"
    multishot_timestamps: tuple[int, ...] = None    # default: the formula's segment_ends
    multishot_thresholds: tuple[float, ...] = None  # default: even N-th roots of pr_des
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    eval_episodes: int = 10000
    output_dir: str = None
    allow_unsafe: bool = False

    def __post_init__(self):
        if self.grid is None:
            self.grid, _ = canonical_case_study()
        if self.eval_episodes < 0:
            raise ConfigError("eval_episodes must be nonnegative")
        if not (0.0 < self.pr_des <= 1.0):
            raise ConfigError("pr_des must lie in (0, 1]")
        if self.mode not in ("one_shot", "multi_shot"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        ends = segment_ends(parse_formula(self.formula))
        self._horizon = ends[-1]
        if self.multishot_timestamps is None:
            self.multishot_timestamps = ends

    def plan(self):
        if self._horizon == 0:
            raise ConfigError("the formula's time bound is 0, so multi-shot has no segment to split;"
                              " use one_shot")
        if not self.multishot_timestamps or self.multishot_timestamps[-1] != self._horizon:
            raise ConfigError(f"multishot timestamps must end at the time bound {self._horizon}")
        try:
            if self.multishot_thresholds is not None:
                plan = MultiShotPlan(self.multishot_timestamps, self.multishot_thresholds)
                plan.check_product(self.pr_des)
                return plan
            return MultiShotPlan.even(self.pr_des, self.multishot_timestamps)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def echo(self):
        return {k: v for k, v in _as_json(self).items() if k != "output_dir"}


_JSON_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), bool: ("true or false", "booleans")}


def _schema(cls):
    """Field name -> (annotation, whether null is allowed) of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is None) for f in fields(cls)}


def _checked(doc, schema):
    """The JSON object ``doc`` with every value checked against its key's declared type."""
    unknown = doc.keys() - schema.keys()
    if unknown:
        raise ConfigError(f"unknown key {min(unknown)!r}")
    return {key: _as_declared(key, value, *schema[key]) for key, value in doc.items()}


def _as_declared(name, value, hint, nullable):
    """``value`` as the annotation ``hint`` declares it; a ConfigError names ``name`` if it is not."""
    if value is None and nullable:
        return None
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} config must be a JSON object, not {value!r}")
        try:
            for f in fields(hint):
                if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                    raise ConfigError(f"missing key {f.name!r}")
            return _checked(value, _schema(hint))
        except ConfigError as exc:
            raise ConfigError(f"bad {name} config: {exc}")
    origin = typing.get_origin(hint)
    if origin is dict:
        if isinstance(value, dict):
            kind = typing.get_args(hint)[1]
            return {_cell(name, key): _as_declared(f"{name}[{key!r}]", item, kind, False)
                    for key, item in value.items()}
        expected = 'an object keyed by "x,y" cells'
    elif origin in (tuple, frozenset):
        kind, *rest = typing.get_args(hint)
        size = "" if rest in ([], [Ellipsis]) else f"{len(rest) + 1} "
        if (isinstance(value, (list, tuple)) and (not size or len(value) == len(rest) + 1)
                and all(_is_json(v, kind) for v in value)):
            return origin(map(kind, value))
        expected = f"an array of {size}{_JSON_NAMES[kind][1]}"
    elif _is_json(value, hint):
        return hint(value)
    else:
        expected = _JSON_NAMES[hint][0]
    raise ConfigError(f"{name} must be {expected}{' or null' if nullable else ''}, not {value!r}")


def _is_json(value, kind):
    """Whether ``value`` is a JSON ``kind``: a bool is no int, and a float is any finite number."""
    return (type(value) is kind if kind is not float
            else type(value) in (int, float) and abs(value) <= sys.float_info.max)


def _cell(name, key):
    """The cell that the object key ``"x,y"`` names; a ConfigError names ``name`` if it is none."""
    cell = tuple(int(part) for part in key.split(",") if part.removeprefix("-").isdecimal())
    if len(cell) != 2 or ",".join(map(str, cell)) != key:
        raise ConfigError(f'{name} key {key!r} is not an "x,y" cell')
    return cell


def _as_json(value):
    """The JSON form of ``value`` that ``_as_declared`` reads back: cell keys become "x,y"."""
    if is_dataclass(value):
        return {f.name: _as_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {",".join(map(str, key)): _as_json(item) for key, item in value.items()}
    return sorted(value) if isinstance(value, frozenset) else value


def _read_json(path, what):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


# Top-level keys that set a nested field: the learner's episodes and seed and
# the grid's assumed_uncertainty.
_SHORTCUTS = ("episodes", "seed", "assumed_uncertainty")


def _config_schema():
    """Key -> (annotation, nullable) of every key a config file's top level takes."""
    nested = {**_schema(LearnerConfig), **_schema(GridSpec)}
    return {**_schema(ExperimentConfig), **{key: nested[key] for key in _SHORTCUTS}}


def load_config(path=None, overrides=None) -> ExperimentConfig:
    doc = {} if path is None else _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object, not {doc!r}")
    doc = {**doc, **{k: v for k, v in (overrides or {}).items() if v is not None}}

    # A grid is a spec file path or an inline spec.
    grid = doc.get("grid")
    if isinstance(grid, str):
        grid = _read_json(grid, "grid")
    doc["grid"] = grid

    values = _checked(doc, _config_schema())
    learner = values.pop("learner", {})
    learner.update((key, values.pop(key)) for key in ("episodes", "seed") if key in values)
    grid = values.pop("grid") or asdict(canonical_case_study()[0])
    if "assumed_uncertainty" in values:
        grid["assumed_uncertainty"] = values.pop("assumed_uncertainty")
    try:
        grid = GridSpec(**grid)
    except GridError as exc:
        raise ConfigError(f"bad grid config: {exc}")
    try:
        values["learner"] = LearnerConfig(**learner)
    except ValueError as exc:
        raise ConfigError(f"bad learner config: {exc}")
    cfg = ExperimentConfig(grid=grid, **values)
    start = cfg.learner.start_state
    if start is not None and not cfg.grid.in_bounds(start):
        raise ConfigError(f"bad learner config: start_state {list(start)} is not a grid cell")
    return cfg


@dataclass
class ReportBundle:
    summary: dict
    paths: dict


def _pipeline_assets(cfg: ExperimentConfig):
    """Shared head of the pipeline: the automaton and the product of formula and model."""
    props = sorted(cfg.grid.alphabet())
    formula = parse_formula(cfg.formula, props)
    automaton = compile_formula(formula, props)
    model = build_grid_mdp(cfg.grid)
    problems = model.validate()
    if problems:
        raise PipelineError("validate", "; ".join(problems[:5]))
    return automaton, build_product(model, automaton, time_bound(formula))


def _prune(cfg: ExperimentConfig, product):
    """Write the shield onto ``product``; returns the initial states that fail its check."""
    if cfg.mode == "one_shot":
        one_shot_prune(product, cfg.pr_des)
    else:
        multi_shot_prune(product, cfg.plan())
    return check_initial(product, product.initial_threshold)


def _gate_initial(cfg: ExperimentConfig, product, violators):
    """Refuse a shield whose initial check failed (exit 3); ``allow_unsafe`` makes it a warning."""
    if not violators:
        return
    worst = min(violators, key=lambda pv: (pv[1], repr(pv[0])))  # ties by repr, not state order
    failure = (f"{len(violators)} initial states fall below the required "
               f"{product.initial_threshold:.6f} (worst {worst[0]!r} at {worst[1]:.6f})")
    if not cfg.allow_unsafe:
        raise PipelineError("check-initial", f"{failure}; rerun with --allow-unsafe to proceed")
    print(f"warning: [check-initial] {failure}; the per-episode guarantee is void", file=sys.stderr)


def _initial_bound(product):
    """The min, max and mean of f over the initial states."""
    f0 = product.f[:len(product.initial)]
    return {"min": min(f0), "max": max(f0), "mean": math.fsum(f0) / len(f0)}


def _prune_stats(product):
    total = pruned = 0
    decided = product.automaton.decided
    for (s, q, _), kept in zip(product.states, product.kept):
        if q not in decided:
            enabled = len(product.mdp.enabled[s])
            total += enabled
            pruned += enabled - len(kept)
    return {"candidate_state_actions": total, "pruned_actions": pruned,
            "pruned_fraction": (pruned / total) if total else 0.0}


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    """parse -> compile -> grid -> product -> prune -> check -> learn -> evaluate."""
    automaton, product = _pipeline_assets(cfg)
    violators = _prune(cfg, product)
    threshold = product.initial_threshold
    _gate_initial(cfg, product, violators)

    run = run_one_shot if cfg.mode == "one_shot" else run_multi_shot
    result = run(product, cfg.learner)
    learning = {"episodes": cfg.learner.episodes, "satisfaction_rate": result.satisfaction_rate,
                "average_reward": result.average_reward,
                "legality_violations": result.legality_violations}
    _check_finite("learning", learning)
    testing = _evaluate(cfg, product, result.policy)
    product.numbered = None     # no rollouts follow: free the learner's view before writing

    summary = {
        "version": __version__,
        "config": cfg.echo(),
        "formula_time_bound": product.horizon,
        "automaton": {"states": automaton.n_states, "reachable": len(automaton.reachable)},
        "product": product.summary(),
        "initial_bound": {"threshold": threshold, **_initial_bound(product)},
        "check_initial": {"ok": not violators, "violators": len(violators)},
        "pruning": _prune_stats(product),
        "learning": learning,
        "testing": testing,
    }

    paths = {}
    out = cfg.output_dir
    if out:
        paths["summary"] = _write(out, "summary.json", _json_text(summary))
        paths["automaton_json"] = _write(out, "automaton.json", automaton_json(automaton))
        paths["automaton_dot"] = _write(out, "automaton.dot", automaton_dot(automaton))
        paths["product_summary"] = _write(out, "product_summary.json",
                                          json.dumps(summary["product"], indent=2, sort_keys=True))
        paths["policy"] = _write(out, "policy.json", _policy_text(product, result.policy))
        paths["episodes"] = _write(out, "episodes.csv", episode_csv(result.logs))
    return ReportBundle(summary=summary, paths=paths)


def _evaluate(cfg: ExperimentConfig, product, policy):
    """``policy``'s testing figures under ``cfg``'s start and reset, seeded one past the learner."""
    result = evaluate(product, policy, cfg.eval_episodes, seed=cfg.learner.seed + 1,
                      start_state=cfg.learner.start_state, reset_mode=cfg.learner.reset_mode)
    testing = {"episodes": result.episodes, "satisfaction_rate": result.satisfaction_rate,
               "average_reward": result.avg_reward, "wilson_ci_halfwidth": result.ci_halfwidth}
    _check_finite("testing", testing)
    return testing


def _check_finite(part, figures):
    """Refuse to report a figure that is not a finite number (strict JSON has none)."""
    for key, value in figures.items():
        if not math.isfinite(value):
            raise PipelineError("report", f"{part} {key} is {value}, not a finite number; "
                                "check the grid's reward_cells", exit_code=2)


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _object_text(keys, values, depth=1):
    """``json.dumps(dict(zip(keys, values)), indent=2, sort_keys=True)`` ``depth`` levels deep for
    string ``keys`` and ``values`` rendered as JSON, each sorted line written as text."""
    table = dict(zip(keys, values))
    if not table:
        return "{}"
    pad = "\n" + "  " * depth
    body = ("," + pad).join([f"{quoted(key)}: {table[key]}" for key in sorted(table)])
    return f"{{{pad}{body}{pad[:-2]}}}"     # copies body once; a + chain copies it at each step


def _policy_text(product, policy):
    """``_json_text`` of {state key: ``repr`` of its action} over ``policy``, a list by state
    number; keys are ``product.state_keys()``."""
    names = {a: quoted(repr(a)) for a in set(policy)}
    return _object_text(product.state_keys(), map(names.__getitem__, policy)) + "\n"


def _results_text(product):
    """``reachability.json``: ``json.dumps(..., indent=2, sort_keys=True)`` of f, the fallback
    and the kept actions keyed by state, each distinct kept list encoded once."""
    keys = product.state_keys()
    names = {a: quoted(repr(a)) for a in set(product.fallback)}
    lists = {acts: json.dumps(list(map(repr, acts)), indent=2).replace("\n", "\n    ")
             for acts in set(product.kept)}
    members = (map(repr, product.f), map(names.__getitem__, product.fallback),
               map(lists.__getitem__, product.kept))
    return _object_text(("f", "pi_c", "act_sets"), [_object_text(keys, m, 2) for m in members])


def automaton_dot(automaton):
    """``automaton.dot``: the graph, with merged edge labels between identical endpoints."""
    lines = ["digraph twtl {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    for q in range(automaton.n_states):
        if q in automaton.accepting:
            shape = "doublecircle"
        elif q == automaton.trash:
            shape = "box"
        else:
            shape = "circle"
        label = automaton.annotations[q].replace('"', '\\"')
        lines.append(f'  q{q} [shape={shape}, label="q{q}: {label}"];')
    lines.append(f"  __init -> q{automaton.initial};")
    merged = {}
    for sym in automaton.alphabet():
        text = "{" + ",".join(sorted(sym)) + "}"
        for q in range(automaton.n_states):
            dst = automaton.step(q, sym)
            merged.setdefault((q, dst), []).append(text)
    for (src, dst), labels in sorted(merged.items()):
        joined = ", ".join(labels).replace('"', '\\"')
        lines.append(f'  q{src} -> q{dst} [label="{joined}"];')
    lines.append("}")
    return "\n".join(lines)


def automaton_json(automaton):
    """``automaton.json``: ``json.dumps(..., indent=2, sort_keys=True)`` of the automaton, its ``delta``
    rows [q, sorted symbol, successor] joined as text, each symbol's block rendered once."""
    blocks = []
    for sym in automaton.alphabet():
        names = ",\n        ".join(map(quoted, sorted(sym)))
        blocks.append((f"[\n        {names}\n      ]" if names else "[]", automaton.symbol_mask(sym)))
    delta = ",\n".join(f"    [\n      {q},\n      {block},\n      {automaton.table[q][mask]}\n    ]"
                        for q in range(automaton.n_states) for block, mask in blocks)
    doc = {
        "props": list(automaton.props),
        "states": list(range(automaton.n_states)),
        "n_reachable": len(automaton.reachable),
        "initial": automaton.initial,
        "accepting": sorted(automaton.accepting),
        "trash": automaton.trash,
        "annotations": {str(q): a for q, a in automaton.annotations.items()},
    }
    members = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
               for key, value in doc.items()}
    members["delta"] = f"[\n{delta}\n  ]" if delta else "[]"
    return _object_text(members.keys(), members.values())


def _write(out, name, text):
    """Write ``text`` to ``out/name`` as it is, creating ``out`` if needed; returns the path."""
    path = os.path.join(out, name)
    try:
        os.makedirs(out, exist_ok=True)
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    return path


def _out_dir(args):
    return args.output_dir or os.environ.get(OUTPUT_ENV_VAR)


def _parse_list(flag, text, parse):
    """Comma-separated values given to ``flag``; a bad item is a config error."""
    try:
        return [parse(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}")


# The flags that take a comma-separated list: config key -> (flag, item type).
_LIST_FLAGS = {"multishot_timestamps": ("--timestamps", int),
               "multishot_thresholds": ("--thresholds", float)}


def _config_from_args(args, **cell):
    """The ``--config`` file with every flag named by a config key laid over it, then ``cell``.

    This is the only place flags become config: a flag's dest is its key.
    """
    schema = _config_schema()
    overrides = {key: value for key, value in vars(args).items() if key in schema}
    for key, (flag, parse) in _LIST_FLAGS.items():
        if overrides.get(key):
            overrides[key] = _parse_list(flag, overrides[key], parse)
    return load_config(args.config, {**overrides, "output_dir": _out_dir(args), **cell})


def cmd_compile(args):
    props = [p for p in args.props.split(",") if p] if args.props else None
    formula = parse_formula(args.formula, props)
    automaton = compile_formula(formula, props if props is not None
                                else sorted(propositions(formula)))
    out = _out_dir(args)
    print(f"formula: {format_formula(formula)}")
    print(f"time bound: {time_bound(formula)}")
    print(f"automaton: {automaton.n_states} states ({len(automaton.reachable)} reachable), "
          f"{len(automaton.accepting)} accepting, trash={automaton.trash}")
    if out:
        _write(out, "automaton.json", automaton_json(automaton))
        _write(out, "automaton.dot", automaton_dot(automaton))
        print(f"wrote {out}/automaton.json and {out}/automaton.dot")
    return 0


def cmd_build(args):
    cfg = _config_from_args(args)
    automaton, product = _pipeline_assets(cfg)
    print(render_ascii(cfg.grid))
    print(f"automaton states: {automaton.n_states}")
    print(f"product: {product.n_states()} reachable states over horizon {product.horizon}, "
          f"{len(product.initial)} initial, {len(product.coerced)} coerced at the boundary")
    out = cfg.output_dir
    if out:
        _write(out, "product_summary.json", json.dumps(product.summary(), indent=2, sort_keys=True))
        _write(out, "grid.json", json.dumps(_as_json(cfg.grid), indent=2, sort_keys=True))
        print(f"wrote {out}/product_summary.json and {out}/grid.json")
    return 0


def cmd_prune(args):
    cfg = _config_from_args(args)
    _, product = _pipeline_assets(cfg)
    violators = _prune(cfg, product)
    stats = _prune_stats(product)
    bound = _initial_bound(product)
    print(f"mode: {cfg.mode}, threshold at t=0: {product.initial_threshold:.6f}")
    print(f"initial bound: min {bound['min']:.6f}, mean {bound['mean']:.6f}")
    print(f"pruned {stats['pruned_actions']} of {stats['candidate_state_actions']} "
          f"state-actions ({100 * stats['pruned_fraction']:.2f}%)")
    out = cfg.output_dir
    if out:
        _write(out, "reachability.json", _results_text(product))
        print(f"wrote {out}/reachability.json")
    _gate_initial(cfg, product, violators)
    if not violators:
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
    _, product = _pipeline_assets(cfg)
    _gate_initial(cfg, product, _prune(cfg, product))
    raw = _read_json(args.policy, "policy")
    if not isinstance(raw, dict):
        raise ConfigError(f"policy {args.policy} is not a JSON object")
    actions = {repr(a): a for a in product.mdp.actions}
    states = product.states
    numbers = dict(zip(product.state_keys(), range(len(product.fallback))))
    stray = sorted(raw.keys() - numbers.keys())
    if stray:
        raise ConfigError(f"policy key {stray[0]!r} is not a state of this product "
                          f"before its horizon {product.horizon}")
    policy = list(product.fallback)
    for key, n in numbers.items():
        name = raw.get(key)
        if name is None:
            continue
        if not isinstance(name, str) or name not in actions:
            raise ConfigError(f"policy action {name!r} at {states[n]!r} is not an action of the model")
        a = policy[n] = actions[name]
        if product.kept[n] and a not in product.kept[n]:
            raise PipelineError("eval", f"policy action {name} at {states[n]!r} is pruned by the "
                                f"shield at pr_des {cfg.pr_des}; refusing to bypass it")
    testing = _evaluate(cfg, product, policy)
    print(f"satisfaction: {testing['satisfaction_rate']:.4f} +/- "
          f"{testing['wilson_ci_halfwidth']:.4f} over {testing['episodes']} episodes, "
          f"avg reward {testing['average_reward']:.3f}")
    return 0


def cmd_sweep(args):
    eps_values = _parse_list("--eps-list", args.eps_list, float)
    pr_values = _parse_list("--pr-list", args.pr_list, float)
    cells = []      # every cell's config is loaded before the first one runs
    for i_mode, mode in enumerate(args.modes.split(",")):
        for i_eps, eps in enumerate(eps_values):
            for i_pr, pr in enumerate(pr_values):
                cfg = _config_from_args(args, mode=mode, pr_des=pr, assumed_uncertainty=eps)
                cfg.learner.seed += 1000 * i_mode + 100 * i_eps + 10 * i_pr
                # the sweep writes its tables to the loaded output_dir, no cell its own files
                out, cfg.output_dir = cfg.output_dir, None
                if mode == "multi_shot":    # a bad plan exits 2 before any cell is learned
                    cfg.plan()
                cells.append(({"mode": mode, "eps": eps, "pr_des": pr}, cfg))
    rows = [row for row, _ in cells]
    for row, cfg in cells:
        label = f"{row['mode']:10s} eps={row['eps']:<5} pr={row['pr_des']:<4}:"
        try:
            summary = run_experiment(cfg).summary
        except PipelineError as exc:
            if exc.stage != "check-initial":
                raise
            # the cell stays as an unlearned row; the sweep goes on and exits 3 at the end
            row.update(check_initial_ok=False, learning_sat=None, testing_sat=None, avg_reward=None)
            print(f"{label} not learned: {exc}", file=sys.stderr)
            continue
        row.update(check_initial_ok=summary["check_initial"]["ok"],
                   learning_sat=summary["learning"]["satisfaction_rate"],
                   testing_sat=summary["testing"]["satisfaction_rate"],
                   avg_reward=summary["testing"]["average_reward"])
        print(f"{label} learn {row['learning_sat']:.4f} test {row['testing_sat']:.4f} "
              f"reward {row['avg_reward']:.2f}"
              + ("" if row["check_initial_ok"] else "  [check-initial failed]"))
    if out:
        path = _write(out, "sweep.json", _json_text(rows))
        header = "mode,eps,pr_des,check_initial_ok,learning_sat,testing_sat,avg_reward\n"
        csv_path = _write(out, "sweep.csv", header + "".join(
            f"{r['mode']},{r['eps']},{r['pr_des']},{int(r['check_initial_ok'])},"
            + ",".join("" if r[k] is None else repr(r[k])
                       for k in ("learning_sat", "testing_sat", "avg_reward")) + "\n"
            for r in rows))
        print(f"wrote {path} and {csv_path}")
    return 3 if any(r["learning_sat"] is None for r in rows) else 0


# The oracle battery: `verify` runs each check once on one rng, and acceptance
# criteria 4-6 call the same functions with their own seeds and counts.  It
# lives here because oracle.py must share no code with what it checks.

def check_automata():
    """Compiled automata vs ``oracle.word_satisfies_brute`` on every word up to each
    ``FORMULA_CORPUS`` formula's time bound; returns (mismatching (text, word) pairs, words)."""
    mismatches = []
    words = 0
    for text in oracle.FORMULA_CORPUS:
        formula = parse_formula(text, {"B", "C"})
        automaton = compile_formula(formula, {"B", "C"})
        for word in oracle.enumerate_words({"B", "C"}, time_bound(formula) + 1):
            words += 1
            if accepts(automaton, word) != oracle.word_satisfies_brute(formula, word):
                mismatches.append((text, word))
    return mismatches, words


def check_kappa(rng, count):
    """``solve_kappa`` vs the exact dual optimum ``oracle.lp_exact_min`` on ``count``
    random interval LPs; returns the instances further apart than 1e-12."""
    mismatches = []
    for _ in range(count):
        values, los, his = oracle.random_lp_instance(rng)
        kappa, _ = solve_kappa(values, los, his)
        if abs(kappa - oracle.lp_exact_min(values, los, his)) > 1e-12:
            mismatches.append((values, los, his))
    return mismatches


def check_dominance(rng, count, corrupt_f=False):
    """Exact reachability under the fallback policy dominates the one-shot bound,
    and every action the shield keeps meets the instance's ``pr_des``.

    Each of ``count`` instances draws a formula, a model, its ``pr_des`` and its
    true dynamics from ``rng``.  Returns (failures, states checked, kept actions
    checked, catchable states, largest bound-minus-exact): a failure is the
    ``validate`` problems of an instance whose sampled law leaves its bounds, a
    (state, gap) where the bound exceeds the exact value by more than 1e-12, or
    a (state, action, shortfall) where a kept action at an undecided state below
    the horizon reaches the accepting states with exact probability below
    ``pr_des`` - 1e-12 (taking the action, then the fallback policy).
    ``corrupt_f`` is the negative control for the bound: every bound strictly
    inside (0, 1) claims 1 before comparing, which fails wherever the true law
    can miss, that is at the catchable states, whose exact value is below 1 - 1e-12.
    """
    failures = []
    checked = kept_checked = catchable = 0
    worst_gap = 0.0
    for _ in range(count):
        formula = oracle.random_formula(rng, oracle.RandomInstanceSpec.max_horizon)
        model = oracle.random_interval_mdp(rng, oracle.RandomInstanceSpec)
        automaton = compile_formula(formula, {"B", "C"})
        product = build_product(model, automaton, time_bound(formula))
        pr_des = rng.uniform(0.1, 1.0)
        one_shot_prune(product, pr_des)
        dynamics = oracle.sample_true_dynamics(model.bounds, rng)
        sampled = LabeledIntervalMdp.from_edges(model.states, model.actions, model.labels,
                                                model.bounds, dynamics)
        problems = sampled.validate()
        if problems:
            failures.append(problems)
            continue
        exact = exact_reach_probability(product, product.pi_c, true_dynamics=dynamics)
        for p, bound in zip(product.states, product.f):
            value = exact[p]
            if 0.0 < bound < 1.0:
                catchable += value < 1.0 - 1e-12
                if corrupt_f:
                    bound = 1.0
            checked += 1
            gap = bound - value
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                failures.append((p, gap))
        for p, acts in zip(product.states, product.kept):
            s, q, t = p
            if q in automaton.decided:
                continue
            for a in acts:
                kept_checked += 1
                value = math.fsum(pr * exact[(s2, automaton.step(q, model.labels[s2]), t + 1)]
                                  for s2, _, _, pr in sampled.rows[(s, a)] if pr)
                if value < pr_des - 1e-12:
                    failures.append((p, a, pr_des - value))
    return failures, checked, kept_checked, catchable, worst_gap


def cmd_verify(args):
    for flag, count in (("--instances", args.instances), ("--lp-instances", args.lp_instances)):
        if count < 0:
            raise ConfigError(f"{flag} must be nonnegative, not {count}")
    rng = random.Random(args.seed)
    failed = []

    def report(name, failures, detail):
        print(f"{'FAIL' if failures else 'PASS'}  {name}  ({detail})")
        if failures:
            failed.append(name)

    mismatches, words = check_automata()
    report("automaton-semantics equivalence", mismatches,
           f"{words} words over {len(oracle.FORMULA_CORPUS)} formulas")
    report("closed-form optimum vs exact dual", check_kappa(rng, args.lp_instances),
           f"{args.lp_instances} instances")
    failures, checked, kept, catchable, _ = check_dominance(rng, args.instances, args.corrupt_f)
    report("exact reachability dominates the bound", failures,
           f"{args.instances} instances, {checked} states, {kept} kept actions, "
           f"{catchable} catchable by --corrupt-f")
    return 4 if failed else 0


# Each package error family, the stage it is reported under and its exit code.
# The stages only the command line owns raise PipelineError, which carries both.
_FAILURES = {TwtlError: ("parse", 2), AutomatonError: ("compile", 2), GridError: ("build-grid", 2),
             MdpError: ("build-grid", 2), ProductError: ("build-product", 2),
             ReachabilityError: ("prune", 3)}


def _parser():
    parser = argparse.ArgumentParser(prog="twtlshield", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula into its automaton")
    p.add_argument("--formula", required=True)
    p.add_argument("--props", help="comma-separated proposition names")
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_compile)

    def pipeline(name, func, help, cell=True):
        """A command that reads a config; a flag's dest is the config key it sets.
        ``cell`` adds the flags of one config cell, which sweep takes lists of instead."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output-dir", help=f"output directory (or ${OUTPUT_ENV_VAR})")
        p.add_argument("--grid", help="grid spec JSON file")
        p.add_argument("--seed", type=int)
        p.add_argument("--formula")
        p.add_argument("--timestamps", dest="multishot_timestamps", metavar="TIMESTAMPS",
                       help="comma-separated multi-shot timestamps")
        p.add_argument("--thresholds", dest="multishot_thresholds", metavar="THRESHOLDS",
                       help="comma-separated multi-shot thresholds")
        p.add_argument("--allow-unsafe", action="store_true", default=None,
                       help="continue despite a failed initial check (guarantee void)")
        if cell:
            p.add_argument("--eps", dest="assumed_uncertainty", metavar="EPS", type=float,
                           help="assumed action uncertainty")
            p.add_argument("--pr-des", dest="pr_des", type=float)
            p.add_argument("--mode", choices=["one_shot", "multi_shot"])
        return p

    pipeline("build", cmd_build, "build the grid model and product")
    pipeline("prune", cmd_prune, "run the pruning pass and report bounds")

    p = pipeline("learn", cmd_learn, "full pipeline: prune, learn, evaluate, report")
    p.add_argument("--episodes", type=int)
    p.add_argument("--eval-episodes", dest="eval_episodes", type=int)

    p = pipeline("eval", cmd_eval, "evaluate a stored policy with the shield")
    p.add_argument("--policy", required=True, help="policy.json from a learn run")
    p.add_argument("--eval-episodes", dest="eval_episodes", type=int)

    p = pipeline("sweep", cmd_sweep, "run a grid of (eps, pr_des) configurations", cell=False)
    p.add_argument("--eps-list", default="0.03,0.08,0.13")
    p.add_argument("--pr-list", default="0.5,0.7,0.9")
    p.add_argument("--modes", default="one_shot,multi_shot")
    p.add_argument("--episodes", type=int)
    p.add_argument("--eval-episodes", dest="eval_episodes", type=int)

    p = sub.add_parser("verify", help="run the independent oracle battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100, help="reachability instances")
    p.add_argument("--lp-instances", dest="lp_instances", type=int, default=300)
    p.add_argument("--corrupt-f", dest="corrupt_f", action="store_true",
                   help="negative control: raise every bound inside (0, 1) to 1 and expect a failure")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except tuple(_FAILURES) as exc:
        stage, code = next(_FAILURES[cls] for cls in type(exc).__mro__ if cls in _FAILURES)
        print(f"error: [{stage}] {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
