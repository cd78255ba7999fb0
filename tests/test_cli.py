import json
from collections import Counter

import pytest

from twtlshield import cli
from twtlshield.cli import ConfigError, load_config, main, run_experiment
from twtlshield.gridworld import canonical_case_study
from twtlshield.mdp import LabeledIntervalMdp
from twtlshield.reachability import MultiShotPlan
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

    @pytest.mark.parametrize("field, value", [("labels", {"a": ["P"]}), ("width", "six")])
    def test_bad_grid_file(self, tmp_path, capsys, field, value):
        doc = json.loads(canonical_case_study()[0].to_json())
        doc[field] = value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert main(["build", "--grid", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_assumed_uncertainty(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"assumed_uncertainty": "abc"}))
        assert main(["build", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"learner": [], "episodes": 5}, "learner config must be a JSON object"),
        ({"learner": {"start_state": 5}}, "bad learner config"),
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

    def test_eps_below_real_uncertainty_with_grid_file(self, tmp_path, capsys):
        # the grid's real uncertainty is 0.03, so an assumed 0.01 is rejected
        # the same way with and without --grid
        path = tmp_path / "grid.json"
        path.write_text(canonical_case_study()[0].to_json())
        assert main(["build", "--grid", str(path), "--eps", "0.01"]) == 2
        assert main(["build", "--eps", "0.01"]) == 2

    def test_threshold_product_checked(self):
        cfg = load_config(None, {"mode": "multi_shot", "pr_des": 0.9,
                                 "multishot_thresholds": [0.9, 0.9, 0.9, 0.9]})
        with pytest.raises(ConfigError):
            cfg.plan(35)


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


class TestEvalCommand:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["learn", "--pr-des", "0.7", "--eps", "0.08", "--episodes", "150",
                     "--eval-episodes", "50", "--seed", "5", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--policy", str(out / "policy.json"), "--pr-des", "0.7",
                     "--eps", "0.08", "--eval-episodes", "50", "--seed", "5"]) == 0
        assert "satisfaction" in capsys.readouterr().out

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


class TestSweepCommand:
    @pytest.mark.parametrize("flag", ["--eps-list", "--pr-list"])
    def test_bad_list_item(self, capsys, flag):
        assert main(["sweep", flag, "a", "--episodes", "1", "--eval-episodes", "1"]) == 2
        assert f"bad {flag} 'a'" in capsys.readouterr().err

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


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        assert main(["verify", "--instances", "8", "--lp-instances", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_seed_pinned_report(self, capsys):
        main(["verify", "--instances", "5", "--lp-instances", "10", "--seed", "4"])
        first = capsys.readouterr().out
        main(["verify", "--instances", "5", "--lp-instances", "10", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_corrupted_bound_detected(self, capsys):
        assert main(["verify", "--instances", "5", "--lp-instances", "5",
                     "--corrupt-f", "--seed", "3"]) == 4
        assert "FAIL" in capsys.readouterr().out


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
        assert cli.CASE_STUDY_TIMESTAMPS[-1] == 35

    def test_directly_called_shapes(self):
        # the worker also calls these itself: `product, _ = multi_shot_prune(...)`,
        # `one_shot_prune(product, pr_des)` and `check_initial(product, threshold)`
        prod = worst_case_toy()
        pair = cli.multi_shot_prune(prod, MultiShotPlan((0, 1, 2), (0.9, 0.5)))
        assert isinstance(pair, tuple) and len(pair) == 2 and pair[0] is prod
        prod = worst_case_toy()
        assert cli.one_shot_prune(prod, 0.5) is prod
        assert [(p[0], f) for p, f in cli.check_initial(prod, 0.5)] == [("l", 0.0)]


class TestEnvVar:
    def test_output_dir_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWTLSHIELD_OUTPUT_DIR", str(tmp_path))
        assert main(["compile", "--formula", "H^0 TRUE"]) == 0
        assert (tmp_path / "automaton.json").exists()
