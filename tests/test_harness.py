import dataclasses
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping

import numpy as np
import pytest

import tactilab
from tactilab.assets import (
    build_test_set,
    fit_projectors_from_pool,
    held_out_jobs,
    make_evaluator,
    new_object_slice,
    observation_groups,
    projector_pool_jobs,
    set_up_features,
)
from tactilab.blas import SingleThreadedBlas, _loaded_openblas
from tactilab.cli import main as cli_main
from tactilab.config import config_hash, load_config, parse_config
from tactilab.errors import (
    ConfigError,
    DegenerateTraceError,
    InsufficientDataError,
    OptimizationError,
    SchemaError,
)
from tactilab.features import Modality
from tactilab.harness import run_experiment
from tactilab.kernels import ObservationBlock
from tactilab.results import RunResult, TrialResult, write_report
from tactilab.seeding import OPT_NS, PRIOR_NS, TEST_NS, TRAIN_NS, derive_rng, derive_seed
from tactilab.signals import STANDARD_ACTIONS, load_catalog, trace_nbytes
from tactilab.transfer import INIT_RESTARTS

from conftest import as_blocks, one_row, record_searches
from oracles import fit_prior_knowledge


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


def curves_of(result):
    """mode -> seed -> curve of a RunResult."""
    return {m: {s: t.curve for s, t in per.items()} for m, per in result.trials.items()}


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
        with pytest.raises(ConfigError, match="test_samples_press_slide must be >= 1"):
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

    @pytest.mark.parametrize("value", [0.49, 1.01, 5.0])
    def test_epsilon_neg1_outside_half_to_one_rejected(self, value):
        # A mean posterior never exceeds 1: above it transfer is never taken.
        with pytest.raises(ConfigError, match=re.escape("epsilon_neg1 must lie in [0.5, 1]")):
            parse_config(config_dict(epsilon_neg1=value))

    @pytest.mark.parametrize("value", [0.5, 1.0])
    def test_epsilon_neg1_range_is_closed(self, value):
        assert parse_config(config_dict(epsilon_neg1=value)).epsilon_neg1 == value

    @pytest.mark.parametrize("value", [5, None, "P2", ["P2", 5]])
    def test_actions_must_be_a_list_of_action_ids(self, tmp_path, capsys, value):
        message = f"actions must be a list of action ids, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(config_dict(actions=value))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(actions=value)))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(argv) == 2
            assert message in capsys.readouterr().err
        assert not out.exists()

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
            # Integral, but past 2**53: each validated and then ran past any time cap.
            ("budget", 1e300),
            ("test_samples_press_slide", 1e300),
            ("test_samples_static", 1e300),
            ("prior_samples_per_object", 1e300),
            # The same written in digits: each validated, and run did not end.
            *(
                pytest.param(field, 10**300, id=f"{field}-10**300")
                for field in (
                    "budget",
                    "test_samples_press_slide",
                    "test_samples_static",
                    "prior_samples_per_object",
                )
            ),
            pytest.param("budget", 2**53 + 1, id="budget-2**53+1"),
            # Read only by the ablation, but validated in every mode.
            ("ablation_sizes", [-5]),
        ],
    )
    def test_integer_fields_reject_bools_and_fractions_by_name(self, field, value):
        raw = json.loads(json.dumps(config_dict(**{field: value})))  # as the file holds it
        with pytest.raises(ConfigError, match=field):
            parse_config(raw)

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # int() refuses a literal of more than 4300 digits: validate exited 1
        # with a ValueError traceback.
        path = tmp_path / "config.json"
        text = json.dumps(config_dict()).replace('"budget": 3', '"budget": ' + "9" * 5000)
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == 2
        assert f"cannot parse config {path}" in capsys.readouterr().err

    def test_catalog_must_be_a_string(self, tmp_path, capsys):
        # A list used to become the path "[1]".
        with pytest.raises(ConfigError, match="catalog must be a string, got \\[1\\]"):
            parse_config(config_dict(catalog=[1]))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config_dict(catalog=[1])))
        assert cli_main(["validate", str(path)]) == 2
        assert "catalog must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seeds", [1, 1]),
            ("new_objects", [11, 12, 11]),
            ("prior_objects", [1, 2, 2]),
            ("actions", ["P2", "C1", "P2"]),
            ("ablation_sizes", [5, 5]),
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

    @pytest.mark.parametrize(
        "prior, samples, low",
        [([1], 5, 11), ([1, 2, 3], 3, 4), ([1, 2], 0, 6), ([], -3, 0)],
    )
    def test_prior_pool_too_small_for_the_projector_rejected(
        self, tmp_path, capsys, prior, samples, low
    ):
        # The thermal projector needs 11 traces per action; a smaller pool
        # used to pass validation and fail the run in set-up with exit 3.
        # Without prior objects no pool is drawn, but a negative count still
        # validated.
        raw = config_dict(prior_objects=prior, prior_samples_per_object=samples)
        message = f"prior_samples_per_object must be >= {low}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(argv) == 2
            assert message in capsys.readouterr().err
        assert not out.exists()
        parse_config(config_dict(prior_objects=prior, prior_samples_per_object=low))

    @pytest.mark.parametrize("seeds, name", [([-1], "seeds[0]"), ([3, 0, -4], "seeds[2]")])
    def test_negative_seeds_rejected_by_name(self, tmp_path, capsys, seeds, name):
        # A seed sequence takes non-negative entropy only; a negative seed
        # would pass validation and fail every trial at run time.
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be >= 0")):
            parse_config(config_dict(seeds=seeds))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(seeds=seeds)))
        assert cli_main(["validate", str(path)]) == 2
        assert name in capsys.readouterr().err
        path.write_text(json.dumps(config_dict(seeds=[1, 2], budget=1)))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--seed-offset", "-2"]) == 2
        assert "seeds[0] must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_needs_two_classes(self):
        with pytest.raises(ConfigError, match="new_objects"):
            parse_config(
                config_dict(new_objects=[11], mode="multi_kernel_ablation", ablation_sizes=[2])
            )

    @pytest.mark.parametrize("mode", ["transfer", "no_transfer", "negative_transfer"])
    def test_one_new_object_exits_2_in_every_mode(self, tmp_path, capsys, mode):
        # One class: every test label is that class and every accuracy reads 1.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(new_objects=[11], mode=mode)))
        assert cli_main(["validate", str(path)]) == 2
        assert "new_objects must hold at least two classes" in capsys.readouterr().err

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
        for overrides in ({"new_objects": [10, 11, 12, 13, 14, 15]}, {"ablation_sizes": []}):
            with pytest.raises(ConfigError, match="ablation_sizes"):
                parse_config(config_dict(mode="multi_kernel_ablation", **overrides))


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
    def test_same_config_text_over_other_catalog_bytes_gets_its_own_assets(
        self, monkeypatch, tmp_path
    ):
        from tactilab import harness

        priors = []
        real_build_assets = harness.build_assets

        def recording(*args):
            assets = real_build_assets(*args)
            priors.append(assets[1])
            return assets

        monkeypatch.setattr(harness, "build_assets", recording)
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

        run_experiment(config_a)
        run_experiment(config_b)
        # Editing b's catalog in place is seen by the next run as well.
        paths["b"].with_name("cat.json").write_text(json.dumps(raw))
        run_experiment(config_b)
        force_a, force_b, force_b2 = (
            prior["P2"].blocks[1].matrix(Modality.FORCE)[0] for prior in priors
        )
        assert not np.array_equal(force_a, force_b)
        assert np.array_equal(force_b2, force_a)


def held_out_set(config):
    """The config's test set, built in this process as ``tactilab testset``
    builds it: projectors fitted on the projector pool, no prior."""
    catalog = load_catalog(config.catalog_path())
    projectors = fit_projectors_from_pool(set_up_features(catalog, projector_pool_jobs(config)))
    return build_test_set(projectors, set_up_features(catalog, held_out_jobs(config)))


class TestTestSet:
    def test_default_fifteen_by_seven_gives_1950(self):
        config = parse_config(
            config_dict(
                prior_objects=list(range(1, 11)),
                new_objects=list(range(11, 16)),
                actions=["P1", "P2", "S1", "S2", "S3", "S4", "C1"],
            )
        )
        test = held_out_set(config)
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
        test = held_out_set(config)
        for action in config.actions:
            assert set(test.groups[action]) == set(config.prior_objects) | set(
                config.new_objects
            )
            assert all(len(block) for block in test.groups[action].values())

    def test_new_object_slice_equals_mask_and_filter_reference(self):
        """The new objects' blocks, joined in config order, are bit for bit
        the slice that a mask over flat per-action lists cuts, rows and
        labels, on a held-out set that holds prior objects too."""
        config = parse_config(
            config_dict(prior_objects=[3, 1], new_objects=[14, 11, 12], actions=["S1", "P2"])
        )
        catalog = load_catalog(config.catalog_path())
        projectors = fit_projectors_from_pool(set_up_features(catalog, projector_pool_jobs(config)))
        batches = list(set_up_features(catalog, held_out_jobs(config)))
        test = build_test_set(projectors, batches)
        observations, labels = flat_test_set(config, projectors, batches)
        for action in config.actions:
            block, block_labels = new_object_slice(config, test, action)
            want, want_labels = mask_and_filter_slice(config, observations, labels, action)
            assert block_labels.dtype == want_labels.dtype
            assert block_labels.tobytes() == want_labels.tobytes()
            assert len(block) == len(want) and block.modalities == want.modalities
            for mod in want.modalities:
                assert block.matrix(mod).tobytes() == want.matrix(mod).tobytes()


def flat_test_set(config, projectors, batches):
    """Reference: the held-out set as flat per-action lists of one-row
    blocks in job order, each thermal row projected as one vector, with one
    label array per action."""
    observations = {a: [] for a in config.actions}
    labels = {a: [] for a in config.actions}
    for jobs, (lead, lead_rows, thermal_rows) in batches:
        for (action_id, obj, _), lead_row, raw in zip(jobs, lead_rows, thermal_rows):
            projector = projectors[action_id]
            thermal = projector.basis @ (raw - projector.mean_vector)
            observations[action_id].append(one_row((lead, lead_row), (Modality.THERMAL, thermal)))
            labels[action_id].append(obj)
    return observations, {a: np.array(labs) for a, labs in labels.items()}


def mask_and_filter_slice(config, observations, labels, action_id):
    """Reference: the new objects' test observations cut from the flat
    lists by an ``np.isin`` mask over the labels."""
    labels = labels[action_id]
    mask = np.isin(labels, list(config.new_objects))
    obs = [o for o, m in zip(observations[action_id], mask) if m]
    return ObservationBlock.of(obs), labels[mask]


def assert_same(a, b, where="assets"):
    """``a`` equals ``b`` bit for bit, field by field: arrays by
    ``np.array_equal`` with equal dtypes, dataclasses and observation blocks
    by their fields, mappings in key order."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), where
    elif isinstance(a, ObservationBlock):
        assert a.modalities == b.modalities, where
        for mod in a.modalities:
            assert_same(a.matrix(mod), b.matrix(mod), f"{where}.matrix({mod})")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, Mapping):
        assert list(a) == list(b), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b or (a != a and b != b), where  # NaN equals NaN here


class TestSetup:
    @pytest.mark.parametrize(
        "prior_objects, actions",
        [([1, 2, 3], ["P2", "S1", "C1"]), ([], ["P2", "S1", "C1"]), ([], ["P2"])],
        ids=["prior", "calibration", "calibration-one-action"],
    )
    def test_pool_set_up_equals_in_process(self, prior_objects, actions):
        from tactilab import harness

        config = parse_config(config_dict(prior_objects=prior_objects, actions=actions))
        _, prior, projectors, test = harness.build_assets(config, 1)
        _, pooled_prior, pooled_projectors, pooled_test = harness.build_assets(config, 2)
        assert not multiprocessing.active_children()
        assert (prior is None) == (not prior_objects)
        if prior is not None:
            assert [len(g) for g in prior["S1"].blocks.values()] == [15] * 3
            assert list(prior) == list(config.actions)
        objects = len(prior_objects) + len(config.new_objects)
        per_object = {"P2": 20, "S1": 20, "C1": 10}
        assert test.size() == objects * sum(per_object[a] for a in actions)
        assert_same(pooled_projectors, projectors, "projectors")
        assert_same(pooled_test, test, "test")
        assert_same(pooled_prior, prior, "prior")

    def test_in_process_set_up_holds_no_pool_of_traces(self):
        """Each trace is reduced to its features as it is simulated: set-up
        peaks below a quarter of the bytes of the prior pool's traces."""
        from tactilab import harness

        config = parse_config(config_dict(
            catalog=str(tactilab.data_path("catalogs", "related_priors.json")),
            actions=["P2", "S4", "C1"],
            prior_samples_per_object=15,
        ))
        skin = load_catalog(config.catalog_path()).skin
        pool_bytes = sum(
            trace_nbytes(STANDARD_ACTIONS[action_id], skin)
            for action_id, _, _ in projector_pool_jobs(config)
        )
        tracemalloc.start()
        try:
            harness.build_assets(config, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pool_bytes / 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prior_equals_the_actions_fitted_in_turn_on_one_stream(self, jobs):
        """Each action's search starts where the sequential fit leaves the
        prior's search stream for it. On this catalog C1's random start wins
        its search, so a C1 search that drew from a fresh stream would show."""
        from tactilab import harness

        config = parse_config(config_dict(
            catalog=str(tactilab.data_path("catalogs", "unrelated_priors.json")),
            actions=["P2", "S4", "C1"],
        ))
        catalog = load_catalog(config.catalog_path())
        batches = list(set_up_features(catalog, projector_pool_jobs(config)))
        groups = observation_groups(fit_projectors_from_pool(batches), batches)
        expected = fit_prior_knowledge(groups, rng=derive_rng(OPT_NS, PRIOR_NS))
        _, prior, _, _ = harness.build_assets(config, jobs)
        assert_same(prior, expected, "prior")

    def test_pool_set_up_runs_no_solve_in_this_process(self, monkeypatch):
        from tactilab import assets, harness, laplace

        parent = os.getpid()

        def elsewhere(fn):
            def guarded(*args, **kwargs):
                if os.getpid() == parent:
                    raise AssertionError(f"{fn.__name__} ran in the parent")
                return fn(*args, **kwargs)

            return guarded

        # In-process, each guard trips on its own: the first action's
        # projector fit runs before its prior's first solve.
        config = parse_config(config_dict(actions=["P2", "S4", "C1"]))
        monkeypatch.setattr(laplace, "_laplace_modes", elsewhere(laplace._laplace_modes))
        with pytest.raises(AssertionError, match="_laplace_modes ran in the parent"):
            harness.build_assets(config, 1)
        monkeypatch.setattr(assets, "fit_projector", elsewhere(assets.fit_projector))
        with pytest.raises(AssertionError, match="fit_projector ran in the parent"):
            harness.build_assets(config, 1)
        _, prior, projectors, _ = harness.build_assets(config, 2)
        assert list(prior) == list(projectors) == list(config.actions)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("where", ["test-set-trace", "projector-fit", "prior-search"])
    def test_set_up_error_fails_the_run_before_any_trial(self, monkeypatch, jobs, where):
        from tactilab import assets, gp, harness

        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        catalog = str(tactilab.data_path("catalogs", "sample_catalog.json"))
        if where == "test-set-trace":  # a new object's: simulated after the pool's
            real_simulate_stack = assets.simulate_stack

            def flaky(objs, *args):
                if any(obj.id == 12 for obj in objs):
                    raise DegenerateTraceError("synthetic set-up failure")
                return real_simulate_stack(objs, *args)

            monkeypatch.setattr(assets, "simulate_stack", flaky)
            config, error = _tiny_config(catalog, seeds=[1, 2]), DegenerateTraceError
        elif where == "projector-fit":  # while the pool still holds test-set batches
            def failing_fit(thermal):
                raise InsufficientDataError("synthetic projector failure")

            monkeypatch.setattr(assets, "fit_projector", failing_fit)
            config, error = _tiny_config(catalog, seeds=[1, 2]), InsufficientDataError
        else:  # every start of the second action's search scores -inf
            real_summed_lmls = gp._summed_lmls

            def failing(sets, *args):
                for lmls, modes in real_summed_lmls(sets, *args):
                    if Modality.TEXTURE in sets[0].X.modalities:
                        lmls = [-np.inf] * len(lmls)
                    yield lmls, modes

            monkeypatch.setattr(gp, "_summed_lmls", failing)
            config = _tiny_config(catalog, seeds=[1, 2], actions=["P2", "S4"])
            error = OptimizationError
        with pytest.raises(error) as raised:
            run_experiment(parse_config(config), jobs=jobs)
        if where == "prior-search":
            assert str(raised.value) == "all restarts failed"
            diagnostics = raised.value.diagnostics
            assert len(diagnostics) == INIT_RESTARTS
            assert all(line.endswith("-> non-finite objective") for line in diagnostics)
        assert not trials
        assert not multiprocessing.active_children()


def test_search_rounds_stop_once_every_move_is_decided(monkeypatch):
    """Laplace problems solved on the benchmark's A1 inputs for its seed 1
    (perfbench/run.py: budget 10, trial seeds 172456 and 171615, --jobs 1),
    counted at ``laplace._laplace_modes``: each search round stops scoring
    once every live ascent's next move is decided. Scoring every chunk of
    every round solved 597 set-up and 6495 trial problems."""
    from tactilab import harness, laplace

    counts = {"set-up": 0, "trials": 0}
    phase = ["set-up"]
    modes, build = laplace._laplace_modes, harness.build_assets

    def counting(k, y):
        counts[phase[0]] += len(k)
        return modes(k, y)

    def built(*args):
        assets = build(*args)
        phase[0] = "trials"
        return assets

    monkeypatch.setattr(laplace, "_laplace_modes", counting)
    monkeypatch.setattr(harness, "build_assets", built)
    config = parse_config({
        "schema_version": 1,
        "catalog": str(tactilab.data_path("catalogs", "related_priors.json")),
        "prior_objects": [1, 2, 3],
        "new_objects": [11, 12, 13, 14, 15],
        "actions": ["P2", "S4", "C1"],
        "budget": 10,
        "epsilon_explore": 0.3,
        "epsilon_neg1": 0.6,
        "epsilon_neg2": 0.6,
        "selection_method": "model_prediction",
        "mode": "transfer",
        "test_samples_press_slide": 20,
        "test_samples_static": 10,
        "prior_samples_per_object": 15,
        "early_stop": False,
        "seeds": [172456, 171615],
    })
    run_experiment(config, jobs=1)
    assert counts == {"set-up": 498, "trials": 6445}


class TestRunExperiment:
    def test_transfer_mode_runs_both_curves(self, small_result):
        config, result = small_result
        assert result.modes == ["transfer", "no_transfer"]
        for mode in result.modes:
            assert sorted(result.trials[mode]) == [1, 2]
            for trial in result.trials[mode].values():
                assert len(trial.curve) == config.budget

    def test_no_transfer_with_empty_priors_has_empty_decision_log(self):
        config = parse_config(
            config_dict(prior_objects=[], mode="no_transfer", seeds=[1], budget=2)
        )
        result = run_experiment(config)
        assert result.modes == ["no_transfer"]
        assert all(t.decisions == [] for t in result.trials["no_transfer"].values())

    def test_identical_seeds_reproduce_curves(self):
        config = parse_config(config_dict(seeds=[7], budget=2))
        a = run_experiment(config)
        b = run_experiment(config)
        assert curves_of(a) == curves_of(b)

    def test_fair_comparison_same_exploration_stream(self, small_result):
        # With unrelated priors every decision is None, so both modes walk the
        # exact same path; here we check the weaker record-level contract on
        # coinciding prefixes of the related-prior run.
        config, result = small_result
        for seed in config.seeds:
            tr = result.trials["transfer"][seed].records
            nt = result.trials["no_transfer"][seed].records
            for a, b in zip(tr, nt):
                if a["branch"] == "explore" and b["branch"] == "explore":
                    assert (a["object"], a["action"]) == (b["object"], b["action"])

    def test_failures_recorded_not_raised(self, monkeypatch):
        config = parse_config(config_dict(seeds=[1], budget=1))
        from tactilab import harness

        def boom(*args, **kwargs):
            raise tactilab.errors.TactilabError("synthetic trial failure")

        monkeypatch.setattr(harness, "run_trial", boom)
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

        def flaky(config, catalog, prior, projectors, evaluate, seed):
            if seed == 2:
                raise error
            return TrialResult([0.5], [], [], [])

        monkeypatch.setattr(harness, "run_trial", flaky)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_tiny_config(
            str(tactilab.data_path("catalogs", "sample_catalog.json")), seeds=[1, 2, 3]
        )))
        result = run_experiment(load_config(path), jobs=jobs)
        assert len(result.failures) == 1
        assert result.failures[0].startswith("seed 2: ")
        assert type(error).__name__ in result.failures[0]
        assert sorted(result.trials["transfer"]) == [1, 3]
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
        for jobs in (1, 2):  # in this process, then in the pool
            result = run_experiment(load_config(path), jobs=jobs)
            assert len(result.failures) == 1
            assert result.failures[0].startswith("seed 2: ")
            assert type(error).__name__ in result.failures[0]
            for mode in result.modes:
                assert sorted(result.trials[mode]) == [1, 3]
            out = tmp_path / f"out{jobs}"
            assert cli_main(["run", str(path), "--out", str(out), "--jobs", str(jobs)]) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_lines_name_seed_mode_and_type(self, monkeypatch, jobs):
        from tactilab import harness

        def flaky(config, catalog, prior, projectors, evaluate, seed):
            if seed == 2 and prior is None:  # the no_transfer trial
                raise tactilab.errors.NumericalError("synthetic numerical failure")
            if seed == 3:
                raise np.linalg.LinAlgError("synthetic singular matrix")
            return TrialResult([0.5], [], [], [])

        monkeypatch.setattr(harness, "run_trial", flaky)
        catalog = str(tactilab.data_path("catalogs", "sample_catalog.json"))
        result = run_experiment(parse_config(_tiny_config(catalog, seeds=[1, 2, 3])), jobs=jobs)
        assert result.failures == [
            "seed 2: no_transfer: NumericalError: synthetic numerical failure",
            "seed 3: transfer: LinAlgError: synthetic singular matrix",
        ]
        # A seed lands whole or not at all: seed 2's transfer trial is dropped too.
        assert {m: sorted(per) for m, per in result.trials.items()} == {
            "transfer": [1],
            "no_transfer": [1],
        }

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
        assert calls == [(INIT_RESTARTS, 4, True, False, None, (1.0 / n,) * n)] + [
            (INIT_RESTARTS, 4, False, False, None, w) for w in one_hots
        ]

    def test_parallel_jobs_match_serial(self, tmp_path):
        catalog = str(tactilab.data_path("catalogs", "sample_catalog.json"))
        configs = {
            "transfer": parse_config(config_dict(seeds=[1, 2], budget=1)),
            "ablation": parse_config(_tiny_config(
                catalog, mode="multi_kernel_ablation", seeds=[1, 2], budget=0,
                ablation_sizes=[2, 4],
            )),
        }
        for name, config in configs.items():
            serial = run_experiment(config, jobs=1)
            parallel = run_experiment(config, jobs=2)
            assert not serial.failures
            assert curves_of(serial) == curves_of(parallel)
            serial_paths = write_report(serial, tmp_path / name / "serial")
            parallel_paths = write_report(parallel, tmp_path / name / "parallel")
            for part in ("curves", "summary"):
                assert serial_paths[part].read_bytes() == parallel_paths[part].read_bytes()


def _report_blas_threads(monkeypatch, controls):
    """Make every trial return, as its curve, the thread count that each of
    ``controls`` reports in the process that runs the trial."""
    from tactilab import harness

    def report(config, catalog, prior, projectors, evaluate, seed):
        threads = [float(get()) for get, _ in controls]
        return TrialResult(threads, [], [], [])

    monkeypatch.setattr(harness, "run_trial", report)


def _random_trials(monkeypatch):
    """Make every trial return a random curve, kernel-weight trace and
    decision log, drawn from its seed and mode."""
    from tactilab import harness

    def draw(config, catalog, prior, projectors, evaluate, seed):
        rng = np.random.default_rng([seed, int(prior is not None)])
        gamma_trace = [
            {"iteration": i, "action": "P2", "gamma": [float(g) for g in rng.dirichlet(np.ones(3))]}
            for i in range(3)
        ]
        decisions = [{"selected_old": None if rng.random() < 0.5 else 1}]
        curve = [float(v) for v in rng.random(3)]
        return TrialResult(curve, decisions, gamma_trace, [])

    monkeypatch.setattr(harness, "run_trial", draw)


class FakeOpenBlas:
    """An OpenBLAS that exports only the plain OpenBLAS thread-count names."""

    def __init__(self, threads):
        self.threads = threads

        def get():
            return self.threads

        def set_(count):
            self.threads = count

        self.openblas_get_num_threads = get
        self.openblas_set_num_threads = set_


class TestJobs:
    def tiny_config(self, **overrides):
        catalog = str(tactilab.data_path("catalogs", "sample_catalog.json"))
        return parse_config(_tiny_config(catalog, **overrides))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            run_experiment(self.tiny_config(), jobs=jobs)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_cli_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(seeds=[1], budget=1)))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(path), "--out", str(out), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
        for flag in ("--size", "--groups"):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(["gen-groups", str(path), "--out", str(out), flag, jobs])
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_cli_negative_group_seed_exit_2(self, tmp_path, capsys):
        # A seed sequence takes non-negative entropy only.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict()))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["gen-groups", str(path), "--out", str(out), "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "--seed: must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "seeds, jobs, workers", [([1, 2, 3], 8, [3, 3]), ([1, 2], 2, [2, 2]), ([1], 2, [])]
    )
    def test_pool_never_has_more_workers_than_seeds(self, monkeypatch, seeds, jobs, workers):
        # The recording pool runs its initializer and tasks in this process:
        # no worker starts. Set-up and trials each get a pool, both built by
        # harness._pool from concurrent.futures' ProcessPoolExecutor.
        import concurrent.futures

        from tactilab import blas, harness

        pools = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context, initializer, initargs=()):
                pools.append(max_workers)
                assert mp_context is harness._pool_context()
                assert initializer in (SingleThreadedBlas, harness._start_trial_worker)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_worker_run", None)  # set here by the trial initializer
        monkeypatch.setattr(blas, "_caps", [])  # the initializers' caps, which no worker exits
        _report_blas_threads(monkeypatch, [])
        result = run_experiment(self.tiny_config(seeds=seeds), jobs=jobs)
        assert pools == workers
        assert sorted(result.trials["transfer"]) == seeds

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="the OpenBLAS lookup walks the loaded objects with dl_iterate_phdr",
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trials_run_one_blas_thread_and_the_caller_keeps_its_counts(self, monkeypatch, jobs):
        from tactilab import blas

        # numpy's and scipy's Linux wheels each bundle an OpenBLAS.
        controls = [blas._blas_thread_controls(lib) for _, lib in blas._loaded_openblas()]
        assert controls and None not in controls
        originals = [get() for get, _ in controls]
        _report_blas_threads(monkeypatch, controls)
        config = self.tiny_config(seeds=[1, 2])
        try:
            # Two threads each, whatever the cores: the run must lower and restore them.
            for _, set_ in controls:
                set_(2)
            result = run_experiment(config, jobs=jobs)
            after = [get() for get, _ in controls]
        finally:
            for (_, set_), count in zip(controls, originals):
                set_(count)
        assert not result.failures
        curves = [t.curve for per in result.trials.values() for t in per.values()]
        assert len(curves) == 4
        assert all(curve == [1.0] * len(controls) for curve in curves)
        assert after == [2] * len(controls)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="counts the threads in /proc/self/task"
    )
    def test_pool_workers_run_one_os_thread(self, monkeypatch):
        # A forked worker inherits the cap of one BLAS thread; setting it again
        # there would restart OpenBLAS's thread pool, whose threads spin. The
        # threads are counted once the worker's trial has solved.
        from tactilab import harness

        run_trial = harness.run_trial

        def report(*args):
            assert run_trial(*args).curve
            return TrialResult([float(len(os.listdir("/proc/self/task")))], [], [], [])

        monkeypatch.setattr(harness, "run_trial", report)
        result = run_experiment(self.tiny_config(seeds=[1, 2]), jobs=2)
        assert not result.failures
        curves = [t.curve for per in result.trials.values() for t in per.values()]
        assert curves == [[1.0]] * 4

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    @pytest.mark.parametrize("name", ["sample_run", "a4_multikernel"])
    def test_jobs_2_writes_the_bytes_of_jobs_1_under_every_start_method(
        self, monkeypatch, tmp_path, name, method
    ):
        """The trial workers get the run's assets from the parent: the catalog
        file is gone once set-up returns, so a worker that read it again or
        rebuilt set-up would fail its seeds."""
        from tactilab import harness

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        source = tactilab.data_path("configs", f"{name}.json")
        raw = json.loads(source.read_text())
        catalog_bytes = (source.parent / raw["catalog"]).read_bytes()
        raw["catalog"] = "catalog.json"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        catalog = tmp_path / "catalog.json"

        real_build_test_set = harness.build_test_set

        def build_test_set_then_delete_catalog(*args):
            test = real_build_test_set(*args)
            catalog.unlink()
            return test

        monkeypatch.setattr(harness, "build_test_set", build_test_set_then_delete_catalog)
        monkeypatch.setattr(harness, "_pool_context", lambda: multiprocessing.get_context(method))
        outs = []
        for jobs in (1, 2):
            catalog.write_bytes(catalog_bytes)
            outs.append(tmp_path / f"jobs{jobs}")
            assert cli_main(["run", str(path), "--out", str(outs[-1]), "--jobs", str(jobs)]) == 0
            assert not catalog.exists()
        assert not multiprocessing.active_children()
        for file in ("curves.csv", "summary.json"):
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes(), file
        results = [json.loads((out / "result.json").read_text()) for out in outs]
        for result in results:
            del result["wall_clock_s"]
        assert results[0] == results[1]

    def test_library_without_the_symbols_keeps_its_count_with_one_warning(self, monkeypatch):
        from tactilab import blas

        plain = FakeOpenBlas(threads=4)
        bare = SimpleNamespace()  # exports no thread-count symbol
        monkeypatch.setattr(
            blas, "_loaded_openblas", lambda: [("libopenblas.so", plain), ("libbare.so", bare)]
        )
        with pytest.warns(RuntimeWarning, match="libbare.so") as warned:
            with SingleThreadedBlas():
                assert plain.threads == 1
        assert len(warned) == 1
        assert "libopenblas.so" not in str(warned[0].message)
        assert plain.threads == 4


class TestEvaluator:
    def test_scores_each_model_on_its_actions_new_object_slice(self, monkeypatch):
        from types import SimpleNamespace

        from tactilab import assets
        from tactilab.kernels import CombinedKernel, RbfKernel

        from conftest import force_obs
        from oracles import ova_fit

        values = {11: [-1.0, -0.8, 0.1], 12: [0.9, 1.2], 13: [5.0]}
        per_action = {"P2": values, "C1": {obj: vs[::-1] for obj, vs in values.items()}}
        test = assets.TestSet(
            {
                action: as_blocks({obj: [force_obs(v) for v in vs] for obj, vs in groups.items()})
                for action, groups in per_action.items()
            }
        )
        config = SimpleNamespace(new_objects=(12, 11), actions=("P2", "C1"))
        evaluate = make_evaluator(config, test)

        kernel = CombinedKernel(((Modality.FORCE, RbfKernel(1.0, 1.0)),), np.ones(1))
        model = ova_fit(kernel, [force_obs(v) for v in (-1.0, -0.8, 0.9, 1.2)], [11, 11, 12, 12])
        predicted = []
        real = assets.ova_predict_proba
        monkeypatch.setattr(
            assets, "ova_predict_proba", lambda m, X: predicted.append((m, len(X))) or real(m, X)
        )
        for action_id in config.actions:
            slice_obs, slice_labels = assets.new_object_slice(config, test, action_id)
            assert list(slice_labels) == [12, 12, 11, 11, 11]
            rows = [v for obj in config.new_objects for v in per_action[action_id][obj]]
            assert list(slice_obs.matrix(Modality.FORCE)[:, 0]) == rows
            assert evaluate(action_id, model) == assets.accuracy(model, slice_obs, slice_labels)
        # No cache: every call predicts its model's slice.
        assert evaluate("P2", model) == evaluate("P2", model)
        assert predicted == [(model, 5)] * 6


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

    def test_result_roundtrip_through_json(self, small_result, tmp_path, monkeypatch):
        _, result = small_result
        paths = write_report(result, tmp_path / "rt")
        loaded = RunResult.from_dict(json.loads(paths["result"].read_text()))
        assert curves_of(loaded) == curves_of(result)
        assert loaded.config_hash == result.config_hash
        assert loaded.mean_curve("transfer") == result.mean_curve("transfer")

        # Read back, 12 seeds come in key order ("1", "10", "11", "2", ...)
        # and the modes as sorted keys; the report must not depend on that.
        _random_trials(monkeypatch)
        catalog = str(tactilab.data_path("catalogs", "sample_catalog.json"))
        run = run_experiment(parse_config(_tiny_config(catalog, seeds=list(range(1, 13)))))
        direct = write_report(run, tmp_path / "run")
        reread = write_report(
            RunResult.from_dict(json.loads(direct["result"].read_text())), tmp_path / "report"
        )
        assert set(reread) == {"curves", "summary", "config", "result"}
        for name in direct:
            assert reread[name].read_bytes() == direct[name].read_bytes(), name

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

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", ["optimization", "ablation"])
    def test_pinned_runs_reproduced_bit_exactly(self, tmp_path, name, jobs):
        """Two modes the golden files leave out: a model_optimization
        transfer run (its rho searches, and the mean predictions in its
        decisions) and a multi-kernel ablation. Their curves.csv and
        result.json (without its wall clock) are pinned."""
        golden = Path(__file__).parent / "golden"
        result = run_experiment(load_config(golden / f"pinned_{name}_config.json"), jobs=jobs)
        paths = write_report(result, tmp_path / name)
        assert paths["curves"].read_bytes() == (golden / f"pinned_{name}_curves.csv").read_bytes()
        raw = json.loads(paths["result"].read_text())
        del raw["wall_clock_s"]
        pinned = (golden / f"pinned_{name}_result.json").read_text()
        assert json.dumps(raw, sort_keys=True) + "\n" == pinned

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64") or not _loaded_openblas(),
        reason="OPENBLAS_CORETYPE names the x86-64 kernels of OpenBLAS",
    )
    def test_curves_reproduced_under_other_blas_kernels(self, tmp_path):
        """Bytes reproduce per OpenBLAS kernel: the distance products and
        the Cholesky factors and solves round differently on each, so the
        mean predictions in a result.json move in their last digits. The
        curves, and the golden summary, come out the same under every kernel
        tried. A child process runs the golden and pinned configs under two
        kernels picked by OPENBLAS_CORETYPE, which OpenBLAS reads as it
        loads."""
        golden = Path(__file__).parent / "golden"
        names = ("golden", "pinned_optimization", "pinned_ablation")
        paths = [str(Path(tactilab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        cores = set()
        for coretype in ("Zen", "Prescott"):
            outs = [tmp_path / coretype / name for name in names]
            configs = [golden / f"{name}_config.json" for name in names]
            args = [str(a) for pair in zip(configs, outs) for a in pair]
            child = subprocess.run(
                [sys.executable, "-c", RUN_AND_NAME_KERNELS, *args],
                env={**env, "OPENBLAS_CORETYPE": coretype},
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert child.returncode == 0, child.stderr
            kernels = [line for line in child.stdout.splitlines() if line.startswith("kernel ")]
            assert kernels, child.stdout
            cores.add(frozenset(kernels))
            for name, out in zip(names, outs):
                want = (golden / f"{name}_curves.csv").read_bytes()
                assert (out / "curves.csv").read_bytes() == want, (coretype, name)
            want = (golden / "golden_summary.json").read_bytes()
            assert (outs[0] / "summary.json").read_bytes() == want, coretype
        assert len(cores) == 2, cores  # each child ran the kernel it was given


#: Runs ``tactilab run`` on each (config, out directory) argument pair, then
#: prints the kernel of every loaded OpenBLAS.
RUN_AND_NAME_KERNELS = """
import ctypes, sys
from tactilab.blas import _loaded_openblas
from tactilab.cli import main

for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    if main(["run", config, "--out", out]) != 0:
        sys.exit(f"run {config} failed")
for _, lib in _loaded_openblas():
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                print("kernel", corename().decode())
"""


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_dict(**overrides)))
        return path

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("verb", ["run", "testset", "report", "gen-groups"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, verb, under_a_file
    ):
        # run, testset and gen-groups did all their work, then failed with a
        # FileExistsError or NotADirectoryError traceback (exit 1), and the
        # run's results were lost.
        from tactilab import cli

        def no_work(*args):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(cli, "load_config", no_work)
        monkeypatch.setattr(cli.RunResult, "from_dict", no_work)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "out" if under_a_file else taken
        source = str(self.write_config(tmp_path))
        if verb == "report":
            source = str(tmp_path / "result.json")
            Path(source).write_text("{}")
        assert cli_main([verb, source, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: --out {out}: {taken} is not a directory\n"
        assert taken.read_text() == "kept"

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli_main(["validate", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config_dict(mystery=True)))
        assert cli_main(["validate", str(path)]) == 2

    def test_validate_missing_object_exit_2(self, tmp_path, capsys):
        path = self.write_config(tmp_path, new_objects=[98, 99])
        assert cli_main(["validate", str(path)]) == 2
        assert "object id(s) [98, 99] not present in catalog" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("thermal_equilib_delta", float("inf")), ("roughness_amp", float("nan"))]
    )
    def test_non_finite_catalog_number_exits_2(self, tmp_path, capsys, field, value):
        # Infinity used to pass validate and fail run with an SVD traceback.
        path = self.write_catalog_config(tmp_path, "objects", field, value)
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(argv) == 2
            assert f"objects[0]: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, expected",
        [("id", True, "an integer, got True"), ("stiffness_coeff", "7", "a number, got '7'")],
        ids=["id-bool", "stiffness-string"],
    )
    def test_mistyped_object_field_exits_2(self, tmp_path, capsys, field, value, expected):
        # Both validated and ran to exit 0: true became id 1, and "7" the number 7.
        path = self.write_catalog_config(
            tmp_path, "objects", field, value, seeds=[1], trials=1, budget=1
        )
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(argv) == 2
            assert f"objects[0]: {field} must be {expected}" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def write_catalog_config(tmp_path, section, field, value, **overrides):
        """``sample_run.json`` with ``overrides``, over ``sample_catalog.json``
        with one field of its skin, or of its first object (prior object 1),
        set."""
        source = tactilab.data_path("configs", "sample_run.json")
        raw = json.loads(source.read_text())
        catalog = json.loads((source.parent / raw["catalog"]).read_text())
        (catalog["objects"][0] if section == "objects" else catalog[section])[field] = value
        (tmp_path / "catalog.json").write_text(json.dumps(catalog))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**raw, "catalog": "catalog.json", **overrides}))
        return path

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("cells", "7", "an integer >= 1, got '7'"),
            ("sample_rate_hz", "100", "a number, got '100'"),
            ("cells", 2.5, "an integer >= 1, got 2.5"),
            ("ambient_temp_c", None, "a number, got None"),
            ("cells", True, "an integer >= 1, got True"),
            (
                "accel_per_cell",
                10**300,
                f"an integer >= 0 of magnitude at most 2**53, got {10**300}",
            ),
        ],
        ids=[
            "cells-string",
            "sample-rate-string",
            "cells-fraction",
            "ambient-null",
            "cells-bool",
            "accel-literal-past-2**53",
        ],
    )
    def test_mistyped_skin_field_exits_2(self, tmp_path, capsys, field, value, expected):
        # The strings failed validate with a TypeError (exit 1), the fraction
        # and the null passed validate and failed run, and true passed as 1.
        # The accelerometer count in digits validated and ran (no action of
        # the config slides).
        path = self.write_catalog_config(tmp_path, "skin", field, value)
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(argv) == 2
            assert f"skin: {field} must be {expected}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, actions, action",
        [
            ("force_per_cell", None, "P2"),
            ("temp_per_cell", None, "P2"),
            ("accel_per_cell", ["S4"], "S4"),
        ],
        ids=["force-pressing", "temp-every-action", "accel-sliding"],
    )
    def test_zero_sensor_count_an_action_reads_exits_2(
        self, tmp_path, capsys, field, actions, action
    ):
        # Each validated, then run failed: force with a non-finite segment
        # (exit 1), temperature with an SVD that did not converge (exit 1),
        # and the accelerometers with every axis constant (exit 3).
        overrides = {} if actions is None else {"actions": actions}
        path = self.write_catalog_config(tmp_path, "skin", field, 0, **overrides)
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"skin: {field} must be >= 1 for action {action}, got 0" in err
        assert not out.exists()

    def test_trace_past_the_array_limit_exits_2(self, tmp_path, capsys):
        # Validated, then each verb failed in simulate_stack with a traceback
        # (exit 1): "ValueError: Maximum allowed size exceeded".
        path = self.write_catalog_config(
            tmp_path, "skin", "sample_rate_hz", 1e300, seeds=[1], trials=1, budget=1
        )
        out = tmp_path / "out"
        for argv in (
            ["validate", str(path)],
            ["run", str(path), "--out", str(out), "--jobs", "1"],
            ["run", str(path), "--out", str(out), "--jobs", "2"],
            ["testset", str(path), "--out", str(out)],
        ):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: skin: sample_rate_hz 1e+300 makes each trace")
            assert err.count("\n") == 1
        assert not out.exists()

    def test_allocation_failure_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        from tactilab import assets

        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.13 PiB")

        monkeypatch.setattr(assets, "simulate_stack", unallocatable)
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        for verb in ("run", "testset"):
            assert cli_main([verb, str(path), "--out", str(tmp_path / verb)]) == 3
            assert capsys.readouterr().err == "error: out of memory: Unable to allocate 2.13 PiB\n"

    def test_zero_accelerometers_validate_when_no_action_slides(self, tmp_path, capsys):
        # sample_run's P2 and C1 read force and temperature only.
        path = self.write_catalog_config(tmp_path, "skin", "accel_per_cell", 0)
        assert json.loads(path.read_text())["actions"] == ["P2", "C1"]
        assert cli_main(["validate", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_object_missing_from_catalog_named_by_every_verb(self, tmp_path, capsys):
        path = self.write_config(tmp_path, new_objects=[11, 99], seeds=[1], budget=1)
        assert cli_main(["validate", str(path)]) == 2
        assert "object id(s) [99] not present in catalog" in capsys.readouterr().err
        for verb in ("run", "testset"):
            out = tmp_path / verb
            assert cli_main([verb, str(path), "--out", str(out)]) == 2
            assert "object id(s) [99] not present in catalog" in capsys.readouterr().err
            assert not out.exists()

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

    def test_report_rejects_what_is_not_a_result(self, tmp_path, capsys):
        """A config, a missing file and a JSON list exit 2 naming the
        missing or mistyped field, or the unreadable path."""
        config = self.write_config(tmp_path)
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        missing = tmp_path / "missing.json"
        cases = [
            (config, "result field modes is missing"),
            (missing, f"cannot parse result {missing}"),
            (listed, "result root must be a mapping, got list"),
        ]
        for path, message in cases:
            out = tmp_path / "out"
            assert cli_main(["report", str(path), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_report_names_nested_fields(self, small_result):
        _, result = small_result
        raw = result.to_dict()
        del raw["decisions"]["transfer"]["2"]
        with pytest.raises(SchemaError, match=re.escape("decisions[transfer][2] is missing")):
            RunResult.from_dict(raw)
        raw = result.to_dict()
        raw["curves"]["no_transfer"] = []
        message = "curves[no_transfer] must be dict, got list"
        with pytest.raises(SchemaError, match=re.escape(message)):
            RunResult.from_dict(raw)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("decisions", "transfer", "1", 0, "selected_old"), None,
             "decisions[transfer][1][0][selected_old] is missing"),
            (("decisions", "transfer", "2", 3, "selected_old"), "1",
             "decisions[transfer][2][3][selected_old] must be int or null, got str"),
            (("curves", "transfer", "2", 0), "x",
             "curves[transfer][2][0] must be int or float, got str"),
            (("curves", "no_transfer", "1", 2), True,
             "curves[no_transfer][1][2] must be int or float, got bool"),
            (("gamma_traces", "no_transfer", "2", 0, "action"), None,
             "gamma_traces[no_transfer][2][0][action] is missing"),
            (("gamma_traces", "transfer", "1", 1, "gamma"), None,
             "gamma_traces[transfer][1][1][gamma] is missing"),
            (("gamma_traces", "no_transfer", "2", 1, "gamma"), [0.5],
             "gamma_traces[no_transfer][2][1][gamma] has length 1; action C1's first has"
             " length 2"),
        ],
        ids=["no-selected-old", "str-selected-old", "str-curve", "bool-curve", "no-action",
             "no-gamma", "short-gamma"],
    )
    def test_report_names_the_entries_it_reads(
        self, small_result, tmp_path, capsys, path, value, message
    ):
        """An entry that write_report reads, missing (value None) or
        mistyped, exits 2 naming the field."""
        _, result = small_result
        raw = json.loads(json.dumps(result.to_dict()))  # to_dict shares the trials' lists
        entry = raw
        for key in path[:-1]:
            entry = entry[key]
        if value is None:
            del entry[path[-1]]
        else:
            entry[path[-1]] = value
        source = tmp_path / "result.json"
        source.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["report", str(source), "--out", str(out)]) == 2
        assert f"result field {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes, message",
        [
            (None, "config[ablation_sizes] is missing"),
            (5, "config[ablation_sizes] must be list, got int"),
            ([5, 10], "config[ablation_sizes] has length 2, shorter than the longest curve (3)"),
        ],
        ids=["no-sizes", "int-sizes", "short-sizes"],
    )
    def test_report_names_ablation_sizes_it_cannot_read(
        self, small_result, tmp_path, capsys, sizes, message
    ):
        """An ablation's curves.csv writes ``config.ablation_sizes[i]`` for
        the i-th point of each curve: sizes that are missing, not a list or
        shorter than a curve exit 2 naming the field."""
        _, result = small_result
        raw = json.loads(json.dumps(result.to_dict()))
        raw["config"]["mode"] = "multi_kernel_ablation"
        if sizes is None:
            del raw["config"]["ablation_sizes"]
        else:
            raw["config"]["ablation_sizes"] = sizes
        source = tmp_path / "result.json"
        source.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["report", str(source), "--out", str(out)]) == 2
        assert f"result field {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "parts, key, message",
        [
            (("curves", "decisions", "gamma_traces", "records"), "01",
             "curves[transfer] has a non-seed key '01'"),
            (("decisions",), "3", "decisions[transfer] has seed key '3', which curves[transfer]"
             " lacks"),
            (("curves", "decisions", "gamma_traces", "records"), "1" * 5000,
             "curves[transfer] has a non-seed key '1111111111"),
        ],
        ids=["copy-under-01", "seed-only-in-decisions", "5000-digit-key"],
    )
    def test_report_reads_one_key_set_per_mode(
        self, small_result, tmp_path, capsys, parts, key, message
    ):
        """Trial 1 of ``transfer`` copied under another key, its curve cut to
        one point, in ``parts``: under ``"01"`` it would be read as seed 1
        again, under a key only ``decisions`` holds it names no trial, and
        a 5000-digit key is past what ``int`` reads from a string; each
        exits 2 naming the field."""
        _, result = small_result
        raw = json.loads(json.dumps(result.to_dict()))
        for part in parts:
            trial = raw[part]["transfer"]["1"]
            raw[part]["transfer"][key] = trial[:1] if part == "curves" else trial
        source = tmp_path / "result.json"
        source.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["report", str(source), "--out", str(out)]) == 2
        assert f"result field {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_testset_verb(self, tmp_path):
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        out = tmp_path / "ts"
        assert cli_main(["testset", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "testset_summary.json").read_text())
        # 8 objects x (20 for P2 + 10 for C1)
        assert summary["total_samples"] == 8 * 30
        assert {a: s["total"] for a, s in summary["per_action"].items()} == {
            "P2": 8 * 20, "C1": 8 * 10
        }

    @pytest.mark.parametrize("flag", [["--mode", "no_transfer"], ["--seed-offset", "3"]])
    def test_testset_takes_no_run_flags(self, tmp_path, flag):
        """The held-out set depends on neither the mode nor the seeds."""
        path = self.write_config(tmp_path, seeds=[1], budget=1)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["testset", str(path), "--out", str(tmp_path / "ts"), *flag])
        assert exit_info.value.code == 2

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

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_gen_groups_configs_find_the_source_catalog(self, tmp_path, monkeypatch, relative):
        # A relative catalog was copied as written, and so resolved against
        # --out: every group config failed to validate.
        catalog = tmp_path / "source" / "catalogs" / "objects.json"
        catalog.parent.mkdir(parents=True)
        catalog.write_bytes(tactilab.data_path("catalogs", "sample_catalog.json").read_bytes())
        path = tmp_path / "source" / "configs" / "config.json"
        path.parent.mkdir()
        written = "../catalogs/objects.json" if relative else str(catalog)
        path.write_text(json.dumps(config_dict(catalog=written)))
        monkeypatch.chdir(tmp_path)
        out = Path("elsewhere", "groups")
        source = str(path.relative_to(tmp_path))
        assert cli_main(["gen-groups", source, "--groups", "2", "--size", "2",
                         "--out", str(out)]) == 0
        files = sorted(out.glob("group_*.json"))
        assert len(files) == 2
        for f in files:
            assert cli_main(["validate", str(f)]) == 0
            group = load_config(f)
            assert group.catalog_path().resolve() == catalog.resolve()
            assert Path(group.catalog).is_absolute() == (not relative)

    def test_run_trial_failures_exit_3(self, tmp_path, monkeypatch):
        from tactilab import harness

        def boom(*args, **kwargs):
            raise tactilab.errors.TactilabError("synthetic trial failure")

        monkeypatch.setattr(harness, "run_trial", boom)
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
