import json
from pathlib import Path

import numpy as np
import pytest

import tactilab
from tactilab.cli import main as cli_main
from tactilab.errors import ConfigError
from tactilab.features import Modality
from tactilab.harness import (
    ExperimentConfig,
    Mode,
    RunResult,
    build_prior,
    build_test_set,
    config_hash,
    load_config,
    make_evaluator,
    parse_config,
    run_experiment,
    write_report,
)
from tactilab.seeding import PRIOR_NS, TEST_NS, TRAIN_NS, derive_seed
from tactilab.signals import load_catalog

from conftest import record_searches


def config_dict(**overrides):
    base = {
        "schema_version": 1,
        "catalog": str(tactilab.data_path("catalogs", "sample_catalog.json")),
        "prior_objects": [1, 2, 3],
        "new_objects": [11, 12, 13, 14, 15],
        "actions": ["P2", "C1"],
        "seeds": [1, 2],
        "budget": 3,
        "mode": "transfer",
    }
    base.update(overrides)
    return base


@pytest.fixture(scope="module")
def small_result():
    config = parse_config(config_dict())
    return config, run_experiment(config)


class TestConfigParsing:
    def test_roundtrip(self):
        config = parse_config(config_dict())
        assert config.trials == 2
        assert config.thresholds.eps_neg1 == 0.6

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(config_dict(mystery=1))

    def test_overlapping_object_sets_rejected(self):
        with pytest.raises(ConfigError, match="disjoint"):
            parse_config(config_dict(prior_objects=[11]))

    def test_trials_must_match_seeds(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(config_dict(trials=5))

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError, match="actions"):
            parse_config(config_dict(actions=["P9"]))

    def test_zero_test_size_rejected(self):
        with pytest.raises(ConfigError, match="test-set"):
            parse_config(config_dict(test_samples_press_slide=0))

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            parse_config(config_dict(budget=-1))

    def test_hash_stable_under_field_reordering(self, tmp_path):
        raw = config_dict()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(raw))
        b.write_text(json.dumps(dict(reversed(list(raw.items())))))
        assert config_hash(load_config(a)) == config_hash(load_config(b))

    def test_hash_changes_with_content(self):
        h1 = config_hash(parse_config(config_dict()))
        h2 = config_hash(parse_config(config_dict(budget=4)))
        assert h1 != h2

    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), True, "0.6"])
    def test_epsilon_neg2_checked_by_name(self, value):
        with pytest.raises(ConfigError, match="epsilon_neg2"):
            parse_config(config_dict(epsilon_neg2=value))

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_epsilon_neg2_range_is_closed(self, value):
        assert parse_config(config_dict(epsilon_neg2=value)).epsilon_neg2 == value

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", 2.7),
            ("budget", True),
            ("budget", "3"),
            ("trials", 2.5),
            ("test_samples_press_slide", 20.5),
            ("test_samples_static", False),
            ("prior_samples_per_object", 15.2),
            ("seeds", [1, 2.5]),
            ("seeds", [True, 2]),
            ("new_objects", [11, 12.5]),
            ("prior_objects", [1, False]),
            ("ablation_sizes", [5, 10.5]),
        ],
    )
    def test_integer_fields_reject_bools_and_fractions_by_name(self, field, value):
        with pytest.raises(ConfigError, match=field):
            parse_config(config_dict(**{field: value}))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seeds", [1, 1]),
            ("new_objects", [11, 12, 11]),
            ("prior_objects", [1, 2, 2]),
            ("actions", ["P2", "C1", "P2"]),
        ],
    )
    def test_duplicate_entries_rejected_by_name(self, field, value):
        # A result is keyed by seed (and a model by object and action), so a
        # repeated entry would silently collapse in the report.
        raw = config_dict(**{field: value})
        if field == "seeds":
            raw["trials"] = len(value)
        with pytest.raises(ConfigError, match=f"{field} has duplicate entries"):
            parse_config(raw)

    def test_integral_floats_accepted(self):
        config = parse_config(config_dict(budget=3.0, seeds=[1.0, 2]))
        assert config.budget == 3 and isinstance(config.budget, int)
        assert config.seeds == (1, 2)

    def test_early_stop_must_be_boolean(self):
        with pytest.raises(ConfigError, match="early_stop"):
            parse_config(config_dict(early_stop="false"))

    def test_six_new_objects_parse_outside_the_ablation(self):
        for mode in ("transfer", "no_transfer", "negative_transfer"):
            config = parse_config(
                config_dict(new_objects=[10, 11, 12, 13, 14, 15], mode=mode)
            )
            assert len(config.new_objects) == 6

    def test_ablation_sizes_still_checked_in_the_ablation(self):
        with pytest.raises(ConfigError, match="ablation_sizes"):
            parse_config(
                config_dict(new_objects=[10, 11, 12, 13, 14, 15], mode="multi_kernel_ablation")
            )


def _tiny_config(catalog, **overrides):
    """A cheap run: one prior object (11 traces feed the projector), two
    new objects, one action and one test sample each."""
    raw = config_dict(
        catalog=catalog,
        prior_objects=[1],
        prior_samples_per_object=11,
        new_objects=[11, 12],
        actions=["P2"],
        test_samples_press_slide=1,
        seeds=[1],
        budget=1,
    )
    raw.update(overrides)
    return raw


class TestAssetCache:
    def test_same_config_text_over_other_catalog_bytes_gets_its_own_assets(self, tmp_path):
        from tactilab import harness

        raw = json.loads(Path(tactilab.data_path("catalogs", "sample_catalog.json")).read_text())
        stiff = json.loads(json.dumps(raw))
        for obj in stiff["objects"]:
            obj["stiffness_coeff"] *= 3.0
        paths = {}
        for name, catalog in (("a", raw), ("b", stiff)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "cat.json").write_text(json.dumps(catalog))
            paths[name] = tmp_path / name / "run.json"
            paths[name].write_text(json.dumps(_tiny_config("cat.json")))
        config_a, config_b = load_config(paths["a"]), load_config(paths["b"])
        assert config_hash(config_a) == config_hash(config_b)

        cat_a, prior_a, *_ = harness._assets(config_a)
        cat_b, prior_b, *_ = harness._assets(config_b)
        assert cat_b.by_id(11).stiffness_coeff == pytest.approx(3.0 * cat_a.by_id(11).stiffness_coeff)
        obs_a = prior_a.instances["P2"][1][0].segment(Modality.FORCE)
        obs_b = prior_b.instances["P2"][1][0].segment(Modality.FORCE)
        assert not np.array_equal(obs_a, obs_b)

        # Editing b's catalog in place is seen as well.
        paths["b"].with_name("cat.json").write_text(json.dumps(raw))
        cat_b2, *_ = harness._assets(config_b)
        assert cat_b2.by_id(11).stiffness_coeff == cat_a.by_id(11).stiffness_coeff


class TestTestSet:
    def test_default_fifteen_by_seven_gives_1950(self):
        config = parse_config(
            config_dict(
                prior_objects=list(range(1, 11)),
                new_objects=list(range(11, 16)),
                actions=["P1", "P2", "S1", "S2", "S3", "S4", "C1"],
            )
        )
        catalog = load_catalog(config.catalog_path())
        _, projectors = build_prior(config, catalog)
        test = build_test_set(config, catalog, projectors)
        # 15 objects x 6 actions x 20 trials + 15 objects x 1 action x 10 trials
        assert test.size() == 1950

    def test_seed_namespaces_disjoint(self):
        train = {derive_seed(1, TRAIN_NS, k) for k in range(200)}
        test_seeds = {derive_seed(TEST_NS, a, o, k) for a in range(7) for o in range(1, 16) for k in range(5)}
        prior_seeds = {derive_seed(PRIOR_NS, a, o, k) for a in range(7) for o in range(1, 4) for k in range(15)}
        assert not (train & test_seeds)
        assert not (train & prior_seeds)
        assert not (test_seeds & prior_seeds)

    def test_labels_cover_all_objects(self, small_result):
        config, _ = small_result
        catalog = load_catalog(config.catalog_path())
        _, projectors = build_prior(config, catalog)
        test = build_test_set(config, catalog, projectors)
        for action in config.actions:
            assert set(test.labels[action]) == set(config.prior_objects) | set(
                config.new_objects
            )


class TestRunExperiment:
    def test_transfer_mode_runs_both_curves(self, small_result):
        config, result = small_result
        assert result.modes == ["transfer", "no_transfer"]
        for mode in result.modes:
            assert sorted(result.curves[mode]) == [1, 2]
            for curve in result.curves[mode].values():
                assert len(curve) == config.budget

    def test_no_transfer_with_empty_priors_has_empty_decision_log(self):
        config = parse_config(
            config_dict(prior_objects=[], mode="no_transfer", seeds=[1], budget=2)
        )
        result = run_experiment(config)
        assert result.modes == ["no_transfer"]
        assert all(d == [] for d in result.decisions["no_transfer"].values())

    def test_identical_seeds_reproduce_curves(self):
        config = parse_config(config_dict(seeds=[7], budget=2))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.curves == b.curves

    def test_fair_comparison_same_exploration_stream(self, small_result):
        # With unrelated priors every decision is None, so both modes walk the
        # exact same path; here we check the weaker record-level contract on
        # coinciding prefixes of the related-prior run.
        config, result = small_result
        for seed in config.seeds:
            tr = result.records["transfer"][seed]
            nt = result.records["no_transfer"][seed]
            for a, b in zip(tr, nt):
                if a["branch"] == "explore" and b["branch"] == "explore":
                    assert (a["object"], a["action"]) == (b["object"], b["action"])

    def test_failures_recorded_not_raised(self, monkeypatch):
        config = parse_config(config_dict(seeds=[1], budget=1))
        from tactilab import harness

        def boom(*args, **kwargs):
            raise tactilab.errors.TactilabError("synthetic trial failure")

        monkeypatch.setattr(harness, "run_trial", boom)
        harness._ASSET_CACHE.clear()
        result = run_experiment(config)
        assert len(result.failures) == 1
        assert "seed 1" in result.failures[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "error",
        [np.linalg.LinAlgError("synthetic singular matrix"), ValueError("non-finite entries")],
    )
    def test_numpy_failure_lands_in_failures(self, monkeypatch, tmp_path, jobs, error):
        from tactilab import harness

        real_trial_result = harness.TrialResult

        def flaky(config, catalog, prior, projectors, evaluate, seed, use_prior):
            if seed == 2:
                raise error
            mode = "transfer" if use_prior else "no_transfer"
            return real_trial_result(seed, mode, [0.5], [], [], [])

        monkeypatch.setattr(harness, "run_trial", flaky)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_tiny_config(
            str(tactilab.data_path("catalogs", "sample_catalog.json")), seeds=[1, 2, 3]
        )))
        result = run_experiment(load_config(path), jobs=jobs)
        assert len(result.failures) == 1
        assert result.failures[0].startswith("seed 2: ")
        assert type(error).__name__ in result.failures[0]
        assert sorted(result.curves["transfer"]) == [1, 3]
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--jobs", str(jobs)]) == 3

    @pytest.mark.parametrize(
        "error",
        [
            np.linalg.LinAlgError("synthetic singular matrix"),
            ValueError("non-finite entries"),
            tactilab.errors.NumericalError("synthetic numerical failure"),
        ],
    )
    def test_ablation_seed_failure_lands_in_failures(self, monkeypatch, tmp_path, error):
        from tactilab import harness
        from tactilab.seeding import ABLATION_NS

        real_derive_rng = harness.derive_rng

        def flaky(*keys):
            if keys[:2] == (2, ABLATION_NS):
                raise error
            return real_derive_rng(*keys)

        monkeypatch.setattr(harness, "derive_rng", flaky)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_tiny_config(
            str(tactilab.data_path("catalogs", "sample_catalog.json")),
            mode="multi_kernel_ablation",
            seeds=[1, 2, 3],
            budget=0,
            ablation_sizes=[2],
        )))
        result = run_experiment(load_config(path))
        assert len(result.failures) == 1
        assert result.failures[0].startswith("seed 2: ")
        assert type(error).__name__ in result.failures[0]
        for mode in result.modes:
            assert sorted(result.curves[mode]) == [1, 3]
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3

    def test_ablation_search_settings(self, monkeypatch, tmp_path):
        # Four sweeps per search; the combined variant searches the weights
        # from uniform, each one-hot variant keeps its weights fixed.
        from tactilab import harness

        calls = record_searches(monkeypatch, harness)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_tiny_config(
            str(tactilab.data_path("catalogs", "sample_catalog.json")),
            mode="multi_kernel_ablation",
            budget=0,
            ablation_sizes=[2],
        )))
        result = run_experiment(load_config(path))
        assert not result.failures
        n = len(result.modes) - 1
        one_hots = [tuple(float(i == j) for j in range(n)) for i in range(n)]
        assert calls == [(4, True, False, None, (1.0 / n,) * n)] + [
            (4, False, False, None, w) for w in one_hots
        ]

    def test_parallel_jobs_match_serial(self):
        config = parse_config(config_dict(seeds=[1, 2], budget=1))
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert serial.curves == parallel.curves


class TestEvaluatorMemo:
    def test_only_changed_models_are_re_predicted(self, monkeypatch):
        from types import SimpleNamespace

        from tactilab import harness
        from tactilab.gp import ova_fit
        from tactilab.kernels import CombinedKernel, RbfKernel

        from conftest import force_obs

        obs = [force_obs(v) for v in (-1.0, -0.8, 0.9, 1.2, 0.1)]
        labels = np.array([11, 11, 12, 12, 11])
        test = harness.TestSet({"P2": obs, "C1": obs}, {"P2": labels, "C1": labels})
        config = SimpleNamespace(new_objects=(11, 12), actions=("P2", "C1"))
        evaluate = make_evaluator(config, test)

        def fit(length_scale):
            kernel = CombinedKernel(((Modality.FORCE, RbfKernel(length_scale, 1.0)),), np.ones(1))
            return ova_fit(kernel, obs[:4], labels[:4])

        predicted = []
        real = harness.ova_predict_proba
        monkeypatch.setattr(
            harness, "ova_predict_proba", lambda m, X: predicted.append(m) or real(m, X)
        )
        models = {"P2": fit(1.0), "C1": fit(0.05)}
        first = evaluate(models)
        assert len(predicted) == 2
        assert evaluate(dict(models)) == first
        assert len(predicted) == 2

        models["C1"] = fit(3.0)
        second = evaluate(models)
        assert len(predicted) == 3 and predicted[2] is models["C1"]
        assert second == make_evaluator(config, test)(models)


class TestReport:
    def test_csv_row_count_and_one_shot(self, small_result, tmp_path):
        config, result = small_result
        paths = write_report(result, tmp_path / "out")
        lines = paths["curves"].read_text().strip().splitlines()
        assert lines[0] == "iteration,trial,mode,accuracy"
        assert len(lines) - 1 == 2 * config.budget * len(result.modes)
        summary = json.loads(paths["summary"].read_text())
        for mode in result.modes:
            assert summary["modes"][mode]["one_shot_accuracy"] == pytest.approx(
                result.mean_curve(mode)[0]
            )

    def test_report_rerun_byte_identical(self, small_result, tmp_path):
        _, result = small_result
        first = write_report(result, tmp_path / "o1")
        second = write_report(result, tmp_path / "o2")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()

    def test_result_roundtrip_through_json(self, small_result, tmp_path):
        _, result = small_result
        paths = write_report(result, tmp_path / "rt")
        loaded = RunResult.from_dict(json.loads(paths["result"].read_text()))
        assert loaded.curves == result.curves
        assert loaded.config_hash == result.config_hash
        assert loaded.mean_curve("transfer") == result.mean_curve("transfer")

    def test_golden_files_reproduced_bit_exactly(self, tmp_path):
        golden = Path(__file__).parent / "golden"
        config = load_config(golden / "golden_config.json")
        result = run_experiment(config)
        paths = write_report(result, tmp_path / "golden")
        assert paths["curves"].read_bytes() == (golden / "golden_curves.csv").read_bytes()
        assert (
            paths["summary"].read_bytes() == (golden / "golden_summary.json").read_bytes()
        )
        assert (
            paths["config"].read_bytes()
            == (golden / "golden_config_echo.json").read_bytes()
        )


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(**overrides)))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli_main(["validate", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config_dict(mystery=True)))
        assert cli_main(["validate", str(path)]) == 2

    def test_validate_missing_object_exit_2(self, tmp_path):
        path = self.write_config(tmp_path, new_objects=[99])
        assert cli_main(["validate", str(path)]) == 2

    def test_run_writes_reports(self, tmp_path):
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "curves.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.json").exists()
        assert (out / "result.json").exists()

    def test_run_mode_override(self, tmp_path):
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--mode", "no_transfer"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["modes"]) == ["no_transfer"]

    def test_report_verb_regenerates(self, tmp_path):
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "out"
        cli_main(["run", str(path), "--out", str(out)])
        out2 = tmp_path / "out2"
        assert cli_main(["report", str(out / "result.json"), "--out", str(out2)]) == 0
        assert (out2 / "curves.csv").read_bytes() == (out / "curves.csv").read_bytes()

    def test_testset_verb(self, tmp_path):
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "ts"
        assert cli_main(["testset", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "testset_summary.json").read_text())
        # 8 objects x (20 for P2 + 10 for C1)
        assert summary["total_samples"] == 8 * 30

    def test_gen_groups(self, tmp_path):
        path = self.write_config(tmp_path, prior_objects=[1, 2, 3, 4, 5, 6])
        out = tmp_path / "groups"
        assert (
            cli_main(
                ["gen-groups", str(path), "--groups", "4", "--size", "3", "--seed", "9",
                 "--out", str(out)]
            )
            == 0
        )
        files = sorted(out.glob("group_*.json"))
        assert len(files) == 4
        for f in files:
            raw = json.loads(f.read_text())
            group = raw["prior_objects"]
            assert len(group) == 3 and len(set(group)) == 3
            assert set(group) <= {1, 2, 3, 4, 5, 6}

    def test_run_trial_failures_exit_3(self, tmp_path, monkeypatch):
        from tactilab import harness

        def boom(*args, **kwargs):
            raise tactilab.errors.TactilabError("synthetic trial failure")

        monkeypatch.setattr(harness, "run_trial", boom)
        harness._ASSET_CACHE.clear()
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 3

    def test_seed_offset(self, tmp_path):
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "out"
        assert cli_main(
            ["run", str(path), "--out", str(out), "--seed-offset", "100"]
        ) == 0
        result = json.loads((out / "result.json").read_text())
        assert list(result["curves"]["transfer"]) == ["101"]
