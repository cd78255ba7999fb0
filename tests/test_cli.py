import argparse
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from twtlshield import cli
from twtlshield.automaton import AutomatonError
from twtlshield.cli import ConfigError, ExperimentConfig, load_config, main, run_experiment
from twtlshield.gridworld import CASE_STUDY_FORMULA, GridError, canonical_case_study
from twtlshield.learner import LearnerConfig
from twtlshield.mdp import LabeledIntervalMdp, MdpError
from twtlshield.product import ProductError
from twtlshield.reachability import MultiShotPlan, ReachabilityError
from twtlshield.twtl import TwtlError, parse_formula, segment_ends
from conftest import worst_case_toy


def fast_overrides(**extra):
    base = {"episodes": 150, "eval_episodes": 100, "seed": 5, "pr_des": 0.7,
            "assumed_uncertainty": 0.08}
    base.update(extra)
    return base


class TestCompileCommand:
    def test_reference_formula(self, capsys):
        assert main(["compile", "--formula", "[H^1 B]^[0,2]", "--props", "B"]) == 0
        out = capsys.readouterr().out
        assert "time bound: 2" in out
        assert "6 states" in out

    def test_dump_files(self, tmp_path, capsys):
        code = main(["compile", "--formula", "[H^1 B]^[0,2]", "--props", "B",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "automaton.json").read_text())
        assert len(doc["accepting"]) == 1
        assert doc["trash"] in doc["states"]
        assert (tmp_path / "automaton.dot").read_text().startswith("digraph")

    def test_true_hold_two_reachable(self, capsys):
        assert main(["compile", "--formula", "H^0 TRUE"]) == 0
        assert "(2 reachable)" in capsys.readouterr().out

    def test_malformed_formula(self, capsys):
        assert main(["compile", "--formula", "[H^1 B"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_prop(self, capsys):
        assert main(["compile", "--formula", "H^0 Z", "--props", "B"]) == 2

    @pytest.mark.parametrize("props", ["B,bad name", "B,TRUE"])
    def test_bad_prop_name(self, capsys, props):
        assert main(["compile", "--formula", "H^0 B", "--props", props]) == 2
        assert "invalid proposition name" in capsys.readouterr().err

    def test_errors_name_their_stage(self, capsys):
        assert main(["compile", "--formula", "[H^1 B"]) == 2
        assert capsys.readouterr().err.startswith("error: [parse] expected ']'")
        assert main(["compile", "--formula", "!(H^1 B)"]) == 2
        assert capsys.readouterr().err.startswith("error: [compile] negation of compound")


DEEP = {"250-parens": "(" * 250 + "H^0 Base" + ")" * 250,
        "1000-chain": " . ".join(["H^0 Base"] * 1000),
        "300-windows": "[" * 300 + "H^0 Base" + "]^[0,1]" * 300}


@pytest.mark.parametrize("argv", [["compile"], ["learn", "--episodes", "1", "--eval-episodes", "1"]],
                         ids=["compile", "learn"])
@pytest.mark.parametrize("formula", DEEP.values(), ids=DEEP.keys())
def test_formula_past_the_recursion_limit_exits_2(capsys, argv, formula):
    assert main([*argv, "--formula", formula]) == 2
    assert re.fullmatch(r"error: \[(parse|compile)\] formula is nested too deeply( to compile)?\n",
                        capsys.readouterr().err)


class TestUnwritableOutput:
    """An output directory that cannot be written is a config error, worded like a read error."""

    @pytest.mark.parametrize("argv", [
        ["compile", "--formula", "H^0 B"], ["build"], ["prune", "--pr-des", "0.5"],
        ["learn", "--pr-des", "0.5", "--episodes", "2", "--eval-episodes", "2"],
        ["sweep", "--eps-list", "0.08", "--pr-list", "0.5", "--modes", "one_shot",
         "--episodes", "2", "--eval-episodes", "2"]], ids=lambda argv: argv[0])
    def test_directory_under_a_file(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*argv, "--output-dir", str(blocker / "sub")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write {blocker / 'sub'}/")

    def test_episode_csv(self, tmp_path, capsys):
        (tmp_path / "episodes.csv").mkdir()
        assert main(["learn", "--pr-des", "0.5", "--episodes", "2", "--eval-episodes", "2",
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write {tmp_path / 'episodes.csv'}: ")
        assert (tmp_path / "summary.json").exists()


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, {})
        assert cfg.mode == "one_shot"
        assert cfg.pr_des == 0.9
        assert cfg.multishot_timestamps == (0, 8, 15, 22, 35)
        assert cfg.grid.width == 6

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pr_des": 0.5, "mode": "multi_shot", "episodes": 10}))
        cfg = load_config(str(path), {"pr_des": 0.7})
        assert cfg.pr_des == 0.7
        assert cfg.mode == "multi_shot"
        assert cfg.learner.episodes == 10

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            load_config(None, {"mode": "three_shot"})

    def test_bad_pr(self):
        with pytest.raises(ConfigError):
            load_config(None, {"pr_des": 1.5})

    # 6.7, "0.03" and "Base" were once read as 6, 0.03 and the propositions B, a, s, e
    @pytest.mark.parametrize("field, value", [
        ("labels", {"a": ["P"]}), ("width", "six"), ("width", 6.7), ("real_uncertainty", "0.03"),
        ("labels", {"1,3": "Base"}), ("height", None)])
    def test_bad_grid_file(self, tmp_path, capsys, field, value):
        doc = cli._as_json(canonical_case_study()[0])
        doc[field] = value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert main(["build", "--grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err

    def test_bad_assumed_uncertainty(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"assumed_uncertainty": "abc"}))
        assert main(["build", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"learner": [], "episodes": 5}, "learner config must be a JSON object"),
        ({"learner": {"start_state": 5}}, "bad learner config"),
        ({"learner": {"epsilon": 2}, "episodes": 1, "eval_episodes": 1},
         "bad learner config: epsilon must lie in [0, 1]"),
        ({"learner": {"alpha": 1e308}, "episodes": 50, "eval_episodes": 1},
         "bad learner config: alpha must lie in [0, 1]"),
        ({"learner": {"epsilon_decay": 1.5}}, "bad learner config: epsilon_decay must lie in [0, 1]"),
        ({"learner": {"epsilon_floor": -0.1}}, "bad learner config: epsilon_floor must lie in [0, 1]"),
    ])
    def test_bad_learner_block(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["build", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--timestamps", "a,b"), ("--thresholds", "x")])
    def test_bad_multi_shot_flag(self, capsys, flag, value):
        assert main(["prune", "--mode", "multi_shot", flag, value]) == 2
        assert f"bad {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"formula": 5}, "formula must be a string"),
        ({"output_dir": 5}, "output_dir must be a string"),
        ({"episodes": -1}, "episodes must be nonnegative"),
        ({"eval_episodes": -1}, "eval_episodes must be nonnegative"),
        # bool("false") is True, so a string would silently void the per-episode guarantee
        ({"allow_unsafe": "false"}, "allow_unsafe must be true or false"),
        ({"allow_unsafe": 0}, "allow_unsafe must be true or false"),
    ])
    def test_bad_field_type_or_value(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["build", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"seed": "abc"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"eval_episodes": 2.7}, "eval_episodes must be an integer"),
        ({"eval_episodes": None}, "eval_episodes must be an integer"),
        ({"episodes": 2.5}, "episodes must be an integer"),
        ({"pr_des": "0.5"}, "pr_des must be a number"),
        ({"pr_des": None}, "pr_des must be a number"),
        ({"assumed_uncertainty": True}, "assumed_uncertainty must be a number"),
        ({"learner": {"gamma": "0.5"}}, "gamma must be a number"),
        ({"learner": {"alpha": float("nan")}}, "alpha must be a number"),
        ({"learner": {"log_trajectories": False}}, "unknown key 'log_trajectories'"),
        ({"multishot_timestamps": [0, 8.5, 15, 22, 35]},
         "multishot_timestamps must be an array of integers"),
        ({"prdes": 0.5}, "unknown key 'prdes'"),
        ({"learner": {"gama": 0.5}}, "unknown key 'gama'"),
        ([1, 2], "must be a JSON object"),
        ({"learner": {"start_state": [1, 2, 3]}}, "start_state must be an array of 2 integers"),
        ({"learner": {"start_state": [99, 99]}}, "start_state [99, 99] is not a grid cell"),
        ({"learner": {"enforce_initial": True}}, "unknown key 'enforce_initial'"),
    ])
    def test_value_not_of_declared_type(self, tmp_path, capsys, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["build", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    # The JSON kind each config key takes; a trailing "?" also allows null.
    KINDS = {"formula": "string", "pr_des": "number", "mode": "string",
             "multishot_timestamps": "integers?", "multishot_thresholds": "numbers?",
             "eval_episodes": "integer", "output_dir": "string?", "allow_unsafe": "boolean",
             "grid": "grid?", "assumed_uncertainty": "number", "episodes": "integer",
             "seed": "integer", "learner": "object"}
    LEARNER_KINDS = {"episodes": "integer", "alpha": "number", "alpha_mode": "string",
                     "gamma": "number", "epsilon": "number", "epsilon_decay": "number",
                     "epsilon_floor": "number", "seed": "integer", "reset_mode": "string",
                     "start_state": "cell?"}

    @staticmethod
    def is_kind(value, kind):
        if value is None:
            return kind.endswith("?")
        kind = kind.rstrip("?")
        if kind.startswith("{"):
            return isinstance(value, dict) and all(
                re.fullmatch("[0-9]+,[0-9]+", key) and TestConfig.is_kind(item, kind[1:-1])
                for key, item in value.items())
        if kind in ("integers", "numbers", "strings", "cell"):
            element = {"numbers": "number", "strings": "string"}.get(kind, "integer")
            return (isinstance(value, list) and (kind != "cell" or len(value) == 2)
                    and all(TestConfig.is_kind(v, element) for v in value))
        return {"integer": type(value) is int, "number": type(value) in (int, float),
                "string": type(value) is str, "boolean": type(value) is bool,
                "object": isinstance(value, dict), "grid": isinstance(value, (str, dict))}[kind]

    @staticmethod
    def random_json(rng, depth=0):
        pick = rng.randrange(7 if depth == 0 else 5)
        if pick == 0:
            return None
        if pick == 1:
            return rng.random() < 0.5
        if pick == 2:
            return rng.randint(-3, 40)
        if pick == 3:
            return rng.choice([0.5, 2.7, -1.25, 35.0, 1e300])
        if pick == 4:
            return rng.choice(["", "abc", "0.5", "true", "null"])
        items = [TestConfig.random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
        return items if pick == 5 else {f"k{i}": v for i, v in enumerate(items)}

    def test_wrong_json_types_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)     # a string grid names no file here
        assert set(self.LEARNER_KINDS) == {f.name for f in fields(LearnerConfig)}
        assert set(self.KINDS) >= {f.name for f in fields(ExperimentConfig)}
        rng = random.Random(7)
        docs = []
        for kinds, wrap in ((self.KINDS, lambda d: d), (self.LEARNER_KINDS, lambda d: {"learner": d})):
            for key, kind in kinds.items():
                wrong = []
                while len(wrong) < 8:
                    value = self.random_json(rng)
                    if not self.is_kind(value, kind):
                        wrong.append(value)
                docs += [wrap({key: value}) for value in wrong]
        path = tmp_path / "cfg.json"
        for doc in docs:
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError):
                load_config(str(path))
                pytest.fail(f"{doc!r} was accepted")

    def test_every_field_set(self, tmp_path):
        grid = {"width": 4, "height": 3, "real_uncertainty": 0.02, "assumed_uncertainty": 0.05,
                "labels": {"1,1": ["P"], "2,2": ["D1"]}, "reward_cells": {"3,0": 2.0},
                "one_way_doors": {"0,1": ["N"]}}
        learner = {"episodes": 11, "alpha": 0.2, "alpha_mode": "inverse_visit", "gamma": 0.9,
                   "epsilon": 0.5, "epsilon_decay": 0.99, "epsilon_floor": 0.1, "seed": 3,
                   "reset_mode": "fixed_start", "start_state": [1, 2]}
        doc = {"grid": grid, "formula": "[H^1 P]^[0,4] . [H^1 D1]^[0,5]", "pr_des": 0.8,
               "mode": "multi_shot", "multishot_timestamps": [0, 5, 11],
               "multishot_thresholds": [0.8, 1], "learner": learner, "eval_episodes": 7,
               "output_dir": "out", "allow_unsafe": True}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(str(path))
        default = ExperimentConfig()
        for f in fields(ExperimentConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for f in fields(LearnerConfig):
            assert getattr(cfg.learner, f.name) != getattr(default.learner, f.name), f.name
        assert cfg.output_dir == "out"
        assert cfg.multishot_thresholds == (0.8, 1.0)
        echo = json.loads(json.dumps(cfg.echo()))
        expected = {k: v for k, v in doc.items() if k != "output_dir"}
        expected["multishot_thresholds"] = [0.8, 1.0]
        assert echo == expected

    def test_readme_lists_every_learner_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"a `learner` block\s*\((.*?)\)", readme, re.DOTALL).group(1)
        assert re.findall(r"`(\w+)`", block) == [f.name for f in fields(LearnerConfig)]

    def test_eps_below_real_uncertainty_with_grid_file(self, tmp_path, capsys):
        # the grid's real uncertainty is 0.03, so an assumed 0.01 is rejected
        # the same way with and without --grid
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cli._as_json(canonical_case_study()[0])))
        assert main(["build", "--grid", str(path), "--eps", "0.01"]) == 2
        assert main(["build", "--eps", "0.01"]) == 2

    def test_threshold_product_checked(self):
        cfg = load_config(None, {"mode": "multi_shot", "pr_des": 0.9,
                                 "multishot_thresholds": [0.9, 0.9, 0.9, 0.9]})
        with pytest.raises(ConfigError):
            cfg.plan()

    def test_spaceless_case_formula_prunes_as_the_case_study(self, tmp_path):
        # the segment ends come from the parsed formula, not from its text
        cell = ["prune", "--eps", "0.08", "--pr-des", "0.9", "--mode", "multi_shot"]
        assert main([*cell, "--output-dir", str(tmp_path / "case")]) == 0
        assert main([*cell, "--formula", CASE_STUDY_FORMULA.replace(" ", ""),
                     "--output-dir", str(tmp_path / "spaceless")]) == 0
        assert ((tmp_path / "spaceless" / "reachability.json").read_bytes()
                == (tmp_path / "case" / "reachability.json").read_bytes())

    @pytest.mark.parametrize("command, flags", [
        ("prune", ["--mode", "multi_shot"]),
        ("sweep", ["--modes", "multi_shot", "--eps-list", "0.08", "--pr-list", "0.5",
                   "--episodes", "1", "--eval-episodes", "1"]),
    ])
    def test_time_bound_0_refuses_multi_shot(self, tmp_path, capsys, command, flags):
        # the message once named timestamps, which the user never gave
        out = tmp_path / "out"
        assert main([command, *flags, "--formula", "H^0 TRUE", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: the formula's time bound is 0, so "
                                           "multi-shot has no segment to split; use one_shot\n")
        assert not out.exists()

    def test_other_formula_runs_multi_shot_without_timestamps(self, tmp_path):
        assert main(["learn", "--mode", "multi_shot", "--formula", "[H^1 P]^[0,8] . [H^1 Base]^[0,12]",
                     "--episodes", "20", "--eval-episodes", "10", "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["multishot_timestamps"] == [0, 8, 21]


class TestGridSchema:
    # The JSON kind each GridSpec key takes; "{k}" is an object from "x,y" cells to k.
    KINDS = {"width": "integer", "height": "integer", "real_uncertainty": "number",
             "assumed_uncertainty": "number", "labels": "{strings}", "reward_cells": "{number}",
             "one_way_doors": "{strings}"}
    SMALL = {"width": 4, "height": 3, "real_uncertainty": 0.02, "assumed_uncertainty": 0.05}

    def write_grid(self, path, **changes):
        doc = {**cli._as_json(canonical_case_study()[0]), **changes}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing key 'height'"):
            load_config(None, {"grid": {"width": 4, "real_uncertainty": 0.0,
                                        "assumed_uncertainty": 0.1}})

    def test_bad_label_name_exits_2(self, tmp_path, capsys):
        path = self.write_grid(tmp_path / "grid.json", labels={"1,3": ["bad name"]})
        assert main(["build", "--grid", path]) == 2
        assert "invalid proposition name" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["TRUE", "", "a-b"])
    def test_bad_label_name_is_named_at_its_cell(self, tmp_path, capsys, name):
        # the grid config names the cell, not the formula parser's alphabet check
        path = self.write_grid(tmp_path / "grid.json", labels={"1,3": ["P", name]})
        assert main(["build", "--grid", path]) == 2
        assert capsys.readouterr().err == (f"config error: bad grid config: invalid proposition "
                                           f"name {name!r} at cell (1, 3)\n")

    def test_out_of_range_grid_value_is_config_error(self, tmp_path, capsys):
        # eps 1.5 used to fail as an infeasibility, and an unknown door action was skipped
        assert main(["build", "--eps", "1.5"]) == 2
        doors = self.write_grid(tmp_path / "grid.json", one_way_doors={"2,2": ["north"]})
        assert main(["build", "--grid", doors]) == 2
        assert capsys.readouterr().err.count("config error") == 2

    def test_wrong_json_types_rejected(self, tmp_path):
        assert set(self.KINDS) == {f.name for f in fields(cli.GridSpec)}
        rng = random.Random(11)
        grids = []
        for key, kind in self.KINDS.items():
            wrong = []
            while len(wrong) < 8:
                value = TestConfig.random_json(rng)
                if kind.startswith("{") and rng.random() < 0.5:
                    value = {"1,1": value}
                if not TestConfig.is_kind(value, kind):
                    wrong.append(value)
            grids += [{**self.SMALL, key: value} for value in wrong]
        path = tmp_path / "grid.json"
        for grid in grids:
            path.write_text(json.dumps(grid))
            for source in (grid, str(path)):
                with pytest.raises(ConfigError):
                    load_config(None, {"grid": source})
                    pytest.fail(f"{grid!r} was accepted")

    @pytest.mark.parametrize("key", ["1, 3", "x", "1.5,3", "01,3", "1,3,0", ""])
    def test_bad_cell_key_rejected(self, key):
        with pytest.raises(ConfigError, match="is not an \"x,y\" cell"):
            load_config(None, {"grid": {**self.SMALL, "labels": {key: ["P"]}}})

    def test_unknown_grid_keys_rejected(self, tmp_path, capsys):
        path = self.write_grid(tmp_path / "grid.json", reward_cell={"3,0": 2.0})
        with pytest.raises(ConfigError, match="bad grid config: unknown key 'reward_cell'"):
            load_config(None, {"grid": path})
        assert main(["build", "--grid", path]) == 2
        assert "bad grid config: unknown key 'reward_cell'" in capsys.readouterr().err
        inline = {**self.SMALL, "colour": "red", "start_cell": [0, 0]}
        with pytest.raises(ConfigError, match="bad grid config: unknown key 'colour'"):
            load_config(None, {"grid": inline})

    def test_negative_reward_grid_builds(self, tmp_path, capsys):
        path = self.write_grid(tmp_path / "grid.json", reward_cells={"3,0": 2.0, "0,2": -10.0})
        assert main(["build", "--grid", path, "--output-dir", str(tmp_path / "out")]) == 0
        assert "| -- |" in capsys.readouterr().out

    def test_build_rewrites_its_grid_file_unchanged(self, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["build", "--eps", "0.13", "--output-dir", str(first)]) == 0
        assert main(["build", "--grid", str(first / "grid.json"),
                     "--output-dir", str(second)]) == 0
        assert (first / "grid.json").read_bytes() == (second / "grid.json").read_bytes()
        assert json.loads((second / "grid.json").read_text())["assumed_uncertainty"] == 0.13


class TestRunExperiment:
    def test_summary_and_files(self, tmp_path):
        cfg = load_config(None, fast_overrides(output_dir=str(tmp_path)))
        bundle = run_experiment(cfg)
        summary = bundle.summary
        assert summary["formula_time_bound"] == 35
        assert summary["check_initial"]["ok"] is True
        assert 0.0 <= summary["learning"]["satisfaction_rate"] <= 1.0
        assert summary["learning"]["legality_violations"] == 0
        assert summary["testing"]["episodes"] == 100
        for name in ("episodes.csv", "summary.json", "automaton.json",
                     "automaton.dot", "product_summary.json", "policy.json"):
            assert (tmp_path / name).exists(), name
        csv_lines = (tmp_path / "episodes.csv").read_text().splitlines()
        assert csv_lines[0] == "episode,satisfied,cum_reward,shield_entry_t,steps_shielded"
        assert len(csv_lines) == 151

    @pytest.mark.parametrize("mode", ["one_shot", "multi_shot"])
    def test_tables_render_as_sorted(self, tmp_path, monkeypatch, mode):
        # json.dumps(sort_keys=True) orders the repr keys, so the tables are not sorted first
        runs = []

        def learn(product, cfg):
            runs.append((product, cli.learn(product, cfg)))
            return runs[-1][1]

        monkeypatch.setattr(cli, f"run_{mode}", learn)
        run_experiment(load_config(None, fast_overrides(mode=mode, output_dir=str(tmp_path))))
        (product, result), = runs

        def rendered(table, value):
            return {repr(p): value(v) for p, v in sorted(table.items(), key=repr)}

        policy = dict(zip(product.states, result.policy))
        assert (tmp_path / "policy.json").read_text() == cli._json_text(rendered(policy, repr))
        assert cli._results_text(product) == json.dumps({
            "f": rendered(product.f_values, float),
            "pi_c": rendered(product.pi_c, repr),
            "act_sets": rendered(product.act_sets, lambda acts: [repr(a) for a in acts]),
        }, indent=2, sort_keys=True)

    def test_summary_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(load_config(None, fast_overrides(output_dir=str(a))))
        run_experiment(load_config(None, fast_overrides(output_dir=str(b))))
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_config_echo_in_summary(self, tmp_path):
        cfg = load_config(None, fast_overrides(output_dir=str(tmp_path)))
        bundle = run_experiment(cfg)
        echo = bundle.summary["config"]
        assert echo["pr_des"] == 0.7
        assert echo["learner"]["episodes"] == 150
        assert bundle.summary["version"]

    def test_unsafe_config_aborts_before_learning(self, capsys):
        code = main(["learn", "--mode", "multi_shot", "--pr-des", "0.9", "--eps", "0.13",
                     "--episodes", "50", "--eval-episodes", "10", "--seed", "1"])
        assert code == 3
        assert "check-initial" in capsys.readouterr().err

    def test_allow_unsafe_proceeds(self, capsys):
        code = main(["learn", "--mode", "multi_shot", "--pr-des", "0.9", "--eps", "0.13",
                     "--episodes", "50", "--eval-episodes", "10", "--seed", "1",
                     "--allow-unsafe"])
        assert code == 0

    def test_horizon_zero_learns_unsafe(self, tmp_path, capsys):
        # no layer lies below horizon 0, so the pruned product has bounds but no action sets
        code = main(["learn", "--formula", "H^0 Base", "--episodes", "20", "--eval-episodes", "5",
                     "--seed", "1", "--allow-unsafe", "--output-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pruning"]["candidate_state_actions"] == 0

    def test_horizon_zero_stops_at_check_initial(self, capsys):
        code = main(["learn", "--formula", "H^0 Base", "--episodes", "20", "--eval-episodes", "5",
                     "--seed", "1"])
        assert code == 3
        assert "check-initial" in capsys.readouterr().err


def overflowing_reward_config(tmp_path):
    """A finite reward of 1e308 that sums to infinity within one episode."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "grid": {"width": 2, "height": 1, "real_uncertainty": 0.0, "assumed_uncertainty": 0.0,
                 "labels": {"1,0": ["B"]}, "reward_cells": {"0,0": 1e308}},
        "formula": "[H^0 B]^[0,2]", "pr_des": 0.5}))
    return str(path)


class TestNonFiniteFigures:
    def test_learn_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["learn", "--config", overflowing_reward_config(tmp_path), "--episodes", "5",
                     "--eval-episodes", "5", "--output-dir", str(out)]) == 2
        assert "average_reward is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", overflowing_reward_config(tmp_path), "--eps-list", "0",
                     "--pr-list", "0.5", "--modes", "one_shot", "--episodes", "5",
                     "--eval-episodes", "5", "--output-dir", str(out)]) == 2
        assert "average_reward is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_like_learn(self, tmp_path, capsys):
        policy = tmp_path / "empty.json"
        policy.write_text("{}")
        assert main(["eval", "--config", overflowing_reward_config(tmp_path), "--policy",
                     str(policy), "--eval-episodes", "5"]) == 2
        captured = capsys.readouterr()
        assert "[report] testing average_reward is inf, not a finite number" in captured.err
        assert "satisfaction" not in captured.out

    def test_json_text_is_strict(self):
        with pytest.raises(ValueError):
            cli._json_text({"average_reward": float("inf")})


class TestPruneCommand:
    def test_safe_config(self, capsys):
        assert main(["prune", "--pr-des", "0.9", "--eps", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "check-initial ok" in out
        assert "pruned" in out

    def test_reachability_dump(self, tmp_path):
        assert main(["prune", "--pr-des", "0.9", "--eps", "0.08",
                     "--output-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "reachability.json").read_text())
        assert doc["f"] and doc["pi_c"] and doc["act_sets"]
        assert all(0.0 <= v <= 1.0 for v in doc["f"].values())


UNSAFE = ["--mode", "multi_shot", "--eps", "0.13", "--pr-des", "0.9"]
REFUSAL = ("error: [check-initial] 36 initial states fall below the required 0.974004 "
           "(worst ((0, 5), 1, 0) at 0.886392); rerun with --allow-unsafe to proceed\n")


class TestCheckInitialRefusal:
    """learn, eval and prune refuse a failed initial check with one message and exit 3."""

    def test_learn(self, capsys):
        assert main(["learn", *UNSAFE, "--episodes", "5", "--eval-episodes", "5"]) == 3
        assert capsys.readouterr().err == REFUSAL

    def test_eval(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text("{}")
        assert main(["eval", *UNSAFE, "--policy", str(policy), "--eval-episodes", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == REFUSAL
        assert "satisfaction" not in captured.out

    def test_prune_writes_its_dump_first(self, tmp_path, capsys):
        assert main(["prune", *UNSAFE, "--output-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == REFUSAL
        assert "pruned 62834 of 68753 state-actions" in captured.out
        assert "check-initial ok" not in captured.out
        assert json.loads((tmp_path / "reachability.json").read_text())["f"]

    def test_allow_unsafe_warns(self, capsys):
        assert main(["prune", *UNSAFE, "--allow-unsafe"]) == 0
        assert capsys.readouterr().err == (
            "warning: [check-initial] 36 initial states fall below the required 0.974004 "
            "(worst ((0, 5), 1, 0) at 0.886392); the per-episode guarantee is void\n")

    def test_worst_state_is_least_f_then_least_repr(self, capsys):
        # the rule holds for any order of the violators; repr puts (0, 10) before (0, 5)
        product = SimpleNamespace(initial_threshold=0.9)
        refuse, warn = SimpleNamespace(allow_unsafe=False), SimpleNamespace(allow_unsafe=True)
        tied = [(((0, 5), 1, 0), 0.5), (((0, 10), 1, 0), 0.5), (((1, 0), 2, 0), 0.5),
                (((0, 1), 1, 0), 0.7)]
        rng = random.Random(7)
        for violators, worst in ((tied, "((0, 10), 1, 0) at 0.500000"),
                                 (tied + [(((9, 9), 3, 0), 0.25)], "((9, 9), 3, 0) at 0.250000")):
            failure = (f"{len(violators)} initial states fall below the required 0.900000 "
                       f"(worst {worst})")
            for _ in range(10):
                violators = rng.sample(violators, len(violators))
                with pytest.raises(cli.PipelineError) as err:
                    cli._gate_initial(refuse, product, violators)
                assert str(err.value) == (f"[check-initial] {failure}; "
                                          "rerun with --allow-unsafe to proceed")
                cli._gate_initial(warn, product, violators)
                assert capsys.readouterr().err == (f"warning: [check-initial] {failure}; "
                                                   "the per-episode guarantee is void\n")


class TestEvalCommand:
    def test_round_trip(self, tmp_path, capsys):
        # eval reads back every key learn wrote: the same rollouts give the same figures
        out = tmp_path / "run"
        assert main(["learn", "--pr-des", "0.7", "--eps", "0.08", "--episodes", "150",
                     "--eval-episodes", "50", "--seed", "5", "--output-dir", str(out)]) == 0
        learned = re.search(r"testing satisfaction: (\S+) \+/- (\S+), avg reward (\S+)",
                            capsys.readouterr().out).groups()
        assert main(["eval", "--policy", str(out / "policy.json"), "--pr-des", "0.7",
                     "--eps", "0.08", "--eval-episodes", "50", "--seed", "5"]) == 0
        evaluated = re.search(r"satisfaction: (\S+) \+/- (\S+) over 50 episodes, avg reward (\S+)",
                              capsys.readouterr().out).groups()
        assert evaluated == learned

    @pytest.fixture(scope="class")
    def loose_policy(self, tmp_path_factory):
        """policy.json learned under the looser shield of pr_des 0.5."""
        out = tmp_path_factory.mktemp("loose")
        assert main(["learn", "--pr-des", "0.5", "--eps", "0.08", "--episodes", "150",
                     "--eval-episodes", "10", "--seed", "5", "--output-dir", str(out)]) == 0
        return json.loads((out / "policy.json").read_text())

    def test_unknown_action_rejected(self, tmp_path, capsys, loose_policy):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({key: "'Fly'" for key in loose_policy}))
        assert main(["eval", "--policy", str(path), "--pr-des", "0.5", "--eps", "0.08",
                     "--eval-episodes", "10"]) == 2
        assert "'Fly'" in capsys.readouterr().err

    def test_pruned_action_refused(self, tmp_path, capsys, loose_policy):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(loose_policy))
        assert main(["eval", "--policy", str(path), "--pr-des", "0.5", "--eps", "0.08",
                     "--eval-episodes", "10"]) == 0
        capsys.readouterr()
        assert main(["eval", "--policy", str(path), "--pr-des", "0.9", "--eps", "0.08",
                     "--eval-episodes", "10"]) == 3
        assert "pruned by the shield" in capsys.readouterr().err

    def test_key_of_no_product_state_rejected(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"foo": "N"}))
        assert main(["eval", "--policy", str(path), "--pr-des", "0.7", "--eps", "0.08",
                     "--eval-episodes", "10"]) == 2
        assert "policy key 'foo'" in capsys.readouterr().err

    def test_missing_policy(self, capsys):
        assert main(["eval", "--policy", "/nonexistent.json", "--pr-des", "0.7",
                     "--eps", "0.08"]) == 2

    def test_non_utf8_policy(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["eval", "--policy", str(path), "--pr-des", "0.7", "--eps", "0.08",
                     "--eval-episodes", "10"]) == 2
        assert f"cannot read policy {path}" in capsys.readouterr().err


class TestSweepCommand:
    @pytest.mark.parametrize("flag", ["--eps-list", "--pr-list"])
    def test_bad_list_item(self, capsys, flag):
        assert main(["sweep", flag, "a", "--episodes", "1", "--eval-episodes", "1"]) == 2
        assert f"bad {flag} 'a'" in capsys.readouterr().err

    def test_bad_mode_fails_before_any_cell(self, capsys):
        assert main(["sweep", "--modes", "one_shot,bogus", "--eps-list", "0.08",
                     "--pr-list", "0.5", "--episodes", "1", "--eval-episodes", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown mode 'bogus'" in captured.err

    @pytest.mark.parametrize("flag, value, message", [
        ("--thresholds", "0.5,0.5,0.5,0.5", "thresholds multiply to 0.0625, not 0.5"),
        ("--timestamps", "0,8,15,22,34", "multishot timestamps must end at the time bound 35"),
    ])
    def test_bad_plan_fails_before_any_cell(self, tmp_path, capsys, flag, value, message):
        # the one-shot cells come first; none of them may be learned
        out = tmp_path / "out"
        assert main(["sweep", flag, value, "--episodes", "10", "--eval-episodes", "5",
                     "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"
        assert not out.exists()

    ONE_CELL = ["--eps-list", "0.08", "--pr-list", "0.5", "--modes", "one_shot",
                "--episodes", "1", "--eval-episodes", "1"]

    # sweep once read none of these flags and ran the case study, exiting 0
    @pytest.mark.parametrize("flags, message", [
        (["--formula", "H^0 Nope"], "error: [parse] unknown proposition 'Nope'"),
        (["--grid", "no-such-grid.json"], "config error: cannot read grid no-such-grid.json"),
        (["--timestamps", "a,b"], "config error: bad --timestamps 'a,b'"),
        (["--thresholds", "x"], "config error: bad --thresholds 'x'"),
    ])
    def test_shared_flags_honoured(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", *flags, *self.ONE_CELL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_formula_reaches_the_cells(self, capsys):
        assert main(["sweep", "--formula", "H^0 TRUE", *self.ONE_CELL]) == 0
        assert "learn 1.0000 test 1.0000" in capsys.readouterr().out

    def test_per_cell_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pr-des", "0.5", *self.ONE_CELL])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pr-des 0.5" in capsys.readouterr().err

    def test_mode_and_eps_abbreviate_the_lists(self, capsys):
        # argparse reads --mode and --eps as --modes and --eps-list: a one-item list
        assert main(["sweep", "--mode", "multi_shot", "--eps", "0.13", "--pr-list", "0.5",
                     "--episodes", "1", "--eval-episodes", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("multi_shot eps=0.13")

    def test_failed_initial_check_recorded(self, tmp_path, capsys):
        # multi-shot at eps 0.13, pr_des 0.9 fails its initial check; the cell
        # before it is kept and both files are written
        code = main(["sweep", "--eps-list", "0.08,0.13", "--pr-list", "0.9",
                     "--modes", "multi_shot", "--episodes", "20", "--eval-episodes", "10",
                     "--output-dir", str(tmp_path)])
        assert code == 3
        assert "check-initial" in capsys.readouterr().err
        ok, failed = json.loads((tmp_path / "sweep.json").read_text())
        assert ok["check_initial_ok"] is True and ok["testing_sat"] is not None
        assert failed == {"mode": "multi_shot", "eps": 0.13, "pr_des": 0.9,
                          "check_initial_ok": False, "learning_sat": None,
                          "testing_sat": None, "avg_reward": None}
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv_lines[2] == "multi_shot,0.13,0.9,0,,,"

    def test_tiny_sweep_table(self, tmp_path, capsys):
        code = main(["sweep", "--eps-list", "0.08", "--pr-list", "0.5,0.7",
                     "--modes", "one_shot,multi_shot", "--episodes", "60",
                     "--eval-episodes", "40", "--seed", "9",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == 4
        assert {(r["mode"], r["pr_des"]) for r in rows} == {
            ("one_shot", 0.5), ("one_shot", 0.7), ("multi_shot", 0.5), ("multi_shot", 0.7)}
        csv_text = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv_text[0].startswith("mode,eps,pr_des")
        assert len(csv_text) == 5

    # sweep once took each cell's seed from --seed alone and its table's
    # directory from --output-dir or the environment, never from the file
    def cell_line(self, capsys, *flags):
        assert main(["sweep", "--eps-list", "0.08", "--pr-list", "0.9", "--modes", "one_shot",
                     *flags]) == 0
        return capsys.readouterr().out

    def test_config_seed_reaches_the_cells(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "episodes": 50, "eval_episodes": 20}))
        from_file = self.cell_line(capsys, "--config", str(cfg))
        assert from_file == self.cell_line(capsys, "--seed", "5", "--episodes", "50",
                                           "--eval-episodes", "20")
        # the flag still beats the file
        from_flag = self.cell_line(capsys, "--config", str(cfg), "--seed", "7")
        assert from_flag == self.cell_line(capsys, "--seed", "7", "--episodes", "50",
                                           "--eval-episodes", "20")
        assert from_file != from_flag

    def test_config_output_dir_receives_the_tables(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.OUTPUT_ENV_VAR, raising=False)
        out = tmp_path / "from-file"
        cfg = tmp_path / "cfg.json"
        # every cell overrides the file's mode; alone it would fail, as H^0 TRUE has no segment
        cfg.write_text(json.dumps({"output_dir": str(out), "formula": "H^0 TRUE",
                                   "mode": "multi_shot", "episodes": 1, "eval_episodes": 1}))
        assert main(["sweep", "--config", str(cfg), "--eps-list", "0.08",
                     "--pr-list", "0.5", "--modes", "one_shot"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep.json"]
        assert capsys.readouterr().out.endswith(f"wrote {out}/sweep.json and {out}/sweep.csv\n")
        flag_out = tmp_path / "from-flag"
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(flag_out),
                     "--eps-list", "0.08", "--pr-list", "0.5", "--modes", "one_shot"]) == 0
        assert sorted(p.name for p in flag_out.iterdir()) == ["sweep.csv", "sweep.json"]


# One row per package error family: the cli name that raises it, the stage, the exit code.
FAILURE_ROWS = [("parse_formula", TwtlError, "parse", 2),
                ("compile_formula", AutomatonError, "compile", 2),
                ("build_grid_mdp", GridError, "build-grid", 2),
                ("build_grid_mdp", MdpError, "build-grid", 2),
                ("build_product", ProductError, "build-product", 2),
                ("one_shot_prune", ReachabilityError, "prune", 3)]


class TestFailureTable:
    def test_every_family_has_a_row(self):
        assert set(cli._FAILURES) == {family for _, family, _, _ in FAILURE_ROWS}

    @pytest.mark.parametrize("name, family, stage, code", FAILURE_ROWS,
                             ids=[row[1].__name__ for row in FAILURE_ROWS])
    def test_row(self, monkeypatch, capsys, name, family, stage, code):
        def fail(*args, **kwargs):
            raise family("boom")

        monkeypatch.setattr(cli, name, fail)
        assert main(["prune", "--pr-des", "0.9", "--eps", "0.08"]) == code
        assert capsys.readouterr().err == f"error: [{stage}] boom\n"

    def test_learner_bug_is_not_reported_as_infeasibility(self, monkeypatch):
        def fail(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "run_one_shot", fail)
        with pytest.raises(KeyError):
            main(["learn", "--pr-des", "0.5", "--episodes", "1", "--eval-episodes", "1"])


class TestFlagsAreConfigKeys:
    """_config_from_args is the only place flags become config: each flag's dest is its key."""

    COMMAND_ONLY = {"config", "output_dir", "policy", "eps_list", "pr_list", "modes"}

    def test_every_dest_is_a_key_or_command_only(self):
        commands, = (action for action in cli._parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
        keys = cli._config_schema().keys()
        for name in ("build", "prune", "learn", "eval", "sweep"):
            for action in commands.choices[name]._actions:
                if action.dest != "help":
                    assert action.dest in keys or action.dest in self.COMMAND_ONLY, (name, action.dest)

    def test_flags_reach_the_config(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(cli._as_json(canonical_case_study(assumed_uncertainty=0.05)[0])))
        args = cli._parser().parse_args([
            "learn", "--grid", str(grid), "--eps", "0.1", "--seed", "7", "--pr-des", "0.8",
            "--mode", "multi_shot", "--formula", "[H^1 Base]^[0,3] . H^0 P",
            "--timestamps", "0,2,5", "--thresholds", "0.9,0.8", "--allow-unsafe",
            "--episodes", "3", "--eval-episodes", "4", "--output-dir", str(tmp_path / "out")])
        cfg = cli._config_from_args(args)
        assert (cfg.grid.assumed_uncertainty, cfg.learner.seed, cfg.pr_des, cfg.mode) == (
            0.1, 7, 0.8, "multi_shot")
        assert (cfg.formula, cfg.multishot_timestamps, cfg.multishot_thresholds) == (
            "[H^1 Base]^[0,3] . H^0 P", (0, 2, 5), (0.9, 0.8))
        assert (cfg.allow_unsafe, cfg.learner.episodes, cfg.eval_episodes, cfg.output_dir) == (
            True, 3, 4, str(tmp_path / "out"))

    def test_absent_allow_unsafe_keeps_the_file_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"allow_unsafe": True}))
        assert cli._config_from_args(cli._parser().parse_args(["prune", "--config", str(path)])).allow_unsafe


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        assert main(["verify", "--instances", "8", "--lp-instances", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out
        assert re.search(r"dominates the bound  \(8 instances, [1-9]\d* states, "
                         r"[1-9]\d* kept actions, \d+ catchable by --corrupt-f\)", out)

    def test_seed_pinned_report(self, capsys):
        main(["verify", "--instances", "5", "--lp-instances", "10", "--seed", "4"])
        first = capsys.readouterr().out
        main(["verify", "--instances", "5", "--lp-instances", "10", "--seed", "4"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag", ["--instances", "--lp-instances"])
    def test_negative_count_rejected(self, capsys, flag):
        assert main(["verify", flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be nonnegative" in captured.err

    def test_zero_counts_allowed(self, capsys):
        assert main(["verify", "--instances", "0", "--lp-instances", "0"]) == 0
        out = capsys.readouterr().out
        assert "(0 instances)" in out
        assert "(0 instances, 0 states, 0 kept actions, 0 catchable by --corrupt-f)" in out

    def test_corrupted_bound_detected(self, capsys):
        assert main(["verify", "--instances", "5", "--lp-instances", "5",
                     "--corrupt-f", "--seed", "3"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_corrupt_f_fails_exactly_when_a_state_is_catchable(self, capsys):
        argv = ["verify", "--instances", "5", "--lp-instances", "5", "--corrupt-f", "--seed"]
        assert main(argv + ["31"]) == 0
        assert "0 catchable by --corrupt-f)" in capsys.readouterr().out
        assert main(argv + ["30"]) == 4
        out = capsys.readouterr().out
        assert re.search(r"FAIL  exact reachability dominates the bound  "
                         r"\(5 instances, \d+ states, \d+ kept actions, [1-9]\d* catchable by --corrupt-f\)",
                         out)

    def test_check_dominance_reports_kept_actions_below_pr_des(self, monkeypatch):
        # negative control for check 3's kept sets: pruned at 1e-9, the shield keeps actions
        # whose exact value misses the drawn pr_des, and the check reads the drawn pr_des
        failures, _, kept, _, _ = cli.check_dominance(random.Random(3), 30)
        assert kept > 0 and failures == []
        prune = cli.one_shot_prune
        monkeypatch.setattr(cli, "one_shot_prune", lambda product, pr_des: prune(product, 1e-9))
        failures, _, loose_kept, _, _ = cli.check_dominance(random.Random(3), 30)
        assert loose_kept > kept
        shortfalls = [f for f in failures if len(f) == 3]
        assert shortfalls and shortfalls == failures
        assert all(gap > 1e-12 for _, _, gap in shortfalls)

    def test_check_dominance_reports_a_law_outside_bounds(self, monkeypatch, capsys):
        # negative control for check 3's law check: the second instance's sampled law puts
        # one edge above its upper bound, so that instance fails with its validate problems
        sample = cli.oracle.sample_true_dynamics
        draws = []

        def pushed(bounds, rng):
            dynamics = sample(bounds, rng)
            draws.append(dynamics)
            if len(draws) == 2:
                edge = next(iter(dynamics))
                dynamics[edge] = bounds[edge][1] + 1e-6
            return dynamics

        _, checked, kept, _, _ = cli.check_dominance(random.Random(3), 4)
        monkeypatch.setattr(cli.oracle, "sample_true_dynamics", pushed)
        failures, pushed_checked, pushed_kept, _, _ = cli.check_dominance(random.Random(3), 4)
        (s, a, s2), p = next(iter(draws[1].items()))
        problems, = failures
        assert f"true probability {p:.6f} outside bounds" in problems[0]
        assert problems[0].endswith(f"for ({s!r},{a!r},{s2!r})")
        assert 0 < pushed_checked < checked and pushed_kept <= kept
        draws.clear()
        assert main(["verify", "--instances", "2", "--lp-instances", "2", "--seed", "3"]) == 4
        assert "FAIL  exact reachability dominates the bound  (2 instances" in capsys.readouterr().out

    def test_check_kappa_reports_an_offset_solver(self, monkeypatch):
        # negative control for check 2: a solver 1e-9 above the optimum fails on every instance
        solve = cli.solve_kappa
        monkeypatch.setattr(cli, "solve_kappa", lambda *row: (solve(*row)[0] + 1e-9, None))
        assert len(cli.check_kappa(random.Random(99), 1000)) == 1000

    def test_verify_imports_no_numpy(self):
        # the package needs only the standard library, also through what it imports
        code = ("import sys; from twtlshield import cli; "
                "status = cli.main(['verify', '--instances', '2', '--lp-instances', '5']); "
                "print(status, 'numpy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.stdout.splitlines()[-1] == "0 False", run.stderr


class TestBenchmarkHooks:
    # perfbench/worker.py times the pipeline by replacing these names in the
    # cli module, so run_experiment must reach its layers through them.
    HOOKS = ("load_config", "run_experiment", "parse_formula", "compile_formula",
             "build_grid_mdp", "build_product", "one_shot_prune", "multi_shot_prune",
             "check_initial", "run_one_shot", "run_multi_shot", "evaluate")

    def test_run_experiment_calls_hooked_names(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.HOOKS:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        monkeypatch.setattr(LabeledIntervalMdp, "validate",
                            counting("validate", LabeledIntervalMdp.validate))
        for mode in ("one_shot", "multi_shot"):
            cfg = cli.load_config(None, fast_overrides(mode=mode, episodes=20, eval_episodes=10))
            cli.run_experiment(cfg)
        assert set(calls) == set(self.HOOKS) | {"validate"}
        assert cli.CASE_STUDY_TIMESTAMPS == segment_ends(parse_formula(CASE_STUDY_FORMULA))

    def test_directly_called_shapes(self):
        # the worker also calls these itself: `product, _ = multi_shot_prune(...)`,
        # `one_shot_prune(product, pr_des)` and `check_initial(product, threshold)`
        prod = worst_case_toy()
        pair = cli.multi_shot_prune(prod, MultiShotPlan((0, 1, 2), (0.9, 0.5)))
        assert isinstance(pair, tuple) and len(pair) == 2 and pair[0] is prod
        prod = worst_case_toy()
        assert cli.one_shot_prune(prod, 0.5) is prod
        assert [(p[0], f) for p, f in cli.check_initial(prod, 0.5)] == [("l", 0.0)]

    def test_worker_shield_on_case_study(self, monkeypatch):
        # the worker imports more of the package than the cli names above (plans,
        # exact reachability, product attributes); run its own shield and counts
        monkeypatch.setattr(sys, "path", list(sys.path))
        path = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
        spec = importlib.util.spec_from_file_location("perfbench_worker", path)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        grid, _ = canonical_case_study(assumed_uncertainty=worker.EPS)
        tracer = worker.Tracer("test", enabled=False)
        for mode in worker.MODES:
            _, product, _ = worker.shield(tracer, CASE_STUDY_FORMULA, sorted(grid.alphabet()), grid,
                                          mode, worker.PR_DES, cli.CASE_STUDY_TIMESTAMPS)
            counts = worker.product_counts(product)
            worker.check_baseline("case-learn", counts)
            assert (counts["automaton.states"], counts["product.states"],
                    counts["reachability.lps"]) == (78, 11610, 68753)
            assert len(worker.result_digest(product)) == 64


class TestEnvVar:
    def test_output_dir_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWTLSHIELD_OUTPUT_DIR", str(tmp_path))
        assert main(["compile", "--formula", "H^0 TRUE"]) == 0
        assert (tmp_path / "automaton.json").exists()
