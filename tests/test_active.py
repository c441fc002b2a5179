import math

import numpy as np
import pytest
from scipy.stats import chi2

from tactilab import active
from tactilab.active import (
    ExplorationState,
    UncertaintyTable,
    acquire,
    initialize_state,
    posterior_entropy,
    run_loop,
    select_next,
    uncertainty_table,
    update_knowledge,
)
from tactilab.errors import ParameterError, StateError
from tactilab.features import FeatureObservation, Modality
from tactilab.signals import ActionKind, SensorTrace

from conftest import force_obs
from test_transfer import cluster, make_prior

ACTIONS = ("A1", "A2")
OBJECTS = (11, 12, 13)


def fake_simulator(object_id, action_id, seed):
    # Deterministic 1-D "trace": the object id sets the level, the seed jitters it.
    rng = np.random.default_rng(seed)
    level = {11: -4.0, 12: 0.0, 13: 4.0}[object_id] + 0.2 * rng.standard_normal()
    return SensorTrace(
        np.full((1, 2), level), np.full((1, 2), 25.0), None, 100.0, ActionKind.PRESSING
    )


def fake_extractor(trace, action_id, object_id):
    return FeatureObservation(
        action_id, ((Modality.FORCE, np.array([float(trace.forces[0, 0])])),), object_id
    )


def fresh_state(seed=3, eps=0.3):
    return initialize_state(OBJECTS, ACTIONS, fake_simulator, fake_extractor, seed, eps)


def fit_state_models(state, prior=None, seed=42):
    from tactilab.transfer import build_new_observation_models

    models, kernels, _ = build_new_observation_models(
        prior, state.observations, rng=np.random.default_rng(seed)
    )
    state.models = models
    state.kernels = kernels
    return state


class TestPosteriorEntropy:
    def test_uniform_over_five_classes(self):
        assert posterior_entropy([0.2] * 5) == pytest.approx(math.log(5), abs=1e-9)

    def test_near_certain_distribution(self):
        probs = [1.0 - 1e-9] + [1e-9 / 4] * 4
        assert posterior_entropy(probs) == pytest.approx(0.0, abs=1e-6)

    def test_hand_computed_value(self):
        assert posterior_entropy([0.5, 0.3, 0.2]) == pytest.approx(1.0297, abs=1e-4)

    def test_unnormalized_inputs_are_renormalized(self):
        assert posterior_entropy([0.4, 0.4]) == pytest.approx(math.log(2), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            posterior_entropy([])

    def test_bounds_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            probs = rng.uniform(0, 1, size=n)
            h = posterior_entropy(probs)
            assert 0.0 <= h <= math.log(n) + 1e-9


class TestUncertaintyTable:
    def test_uniform_posteriors_give_log_n(self, monkeypatch):
        state = fit_state_models(fresh_state())
        monkeypatch.setattr(
            active,
            "ova_predict_proba",
            lambda model, X: np.full((len(X), len(OBJECTS)), 0.5),
        )
        table = uncertainty_table(state.models, state.observations)
        assert np.allclose(table.values, math.log(3), atol=1e-12)

    def test_single_observation_groups_equal_observation_entropy(self):
        state = fit_state_models(fresh_state())
        from tactilab.gp import ova_predict_proba

        table = uncertainty_table(state.models, state.observations)
        for i, action in enumerate(table.action_ids):
            for j, obj in enumerate(table.object_ids):
                obs = state.observations[action][obj]
                assert len(obs) == 1
                probs = ova_predict_proba(state.models[action], obs)[0]
                assert table.values[i, j] == pytest.approx(
                    posterior_entropy(probs), abs=1e-12
                )

    def test_matches_double_loop_oracle(self):
        state = fit_state_models(fresh_state(seed=9))
        for k in range(4):
            acquire(state, OBJECTS[k % 3], ACTIONS[k % 2], fake_simulator, fake_extractor)
        from tactilab.gp import ova_predict_proba

        table = uncertainty_table(state.models, state.observations)
        for i, action in enumerate(table.action_ids):
            for j, obj in enumerate(table.object_ids):
                group = state.observations[action][obj]
                total = 0.0
                for obs in group:
                    probs = ova_predict_proba(state.models[action], [obs])[0]
                    total += posterior_entropy(probs)
                assert table.values[i, j] == pytest.approx(total / len(group), abs=1e-12)

    def test_memo_re_predicts_only_changed_actions(self, monkeypatch):
        state = fit_state_models(fresh_state(seed=9))
        predicted = []
        real = active.ova_predict_proba
        monkeypatch.setattr(
            active, "ova_predict_proba", lambda m, X: predicted.append(m) or real(m, X)
        )

        def fresh_values():
            return uncertainty_table(state.models, state.observations, {}).values

        memo = {}
        first = uncertainty_table(state.models, state.observations, memo)
        assert len(predicted) == len(ACTIONS) * len(OBJECTS)
        del predicted[:]
        assert np.array_equal(uncertainty_table(state.models, state.observations, memo).values, first.values)
        assert predicted == []

        # A grown group re-predicts its action only.
        acquire(state, 12, "A2", fake_simulator, fake_extractor)
        grown = uncertainty_table(state.models, state.observations, memo)
        assert len(predicted) == len(OBJECTS)
        assert all(m is state.models["A2"] for m in predicted)
        assert np.array_equal(grown.values, fresh_values())

        # So does a refit model.
        update_knowledge(state, "A1", None, rng=np.random.default_rng(0))
        del predicted[:]
        refit = uncertainty_table(state.models, state.observations, memo)
        assert len(predicted) == len(OBJECTS)
        assert all(m is state.models["A1"] for m in predicted)
        assert np.array_equal(refit.values, fresh_values())

    def test_missing_model_raises(self):
        state = fresh_state()
        with pytest.raises(StateError):
            uncertainty_table({}, state.observations)

    def test_entry_bounds_validated(self):
        with pytest.raises(StateError):
            UncertaintyTable(("a",), (1, 2), np.array([[5.0, 0.1]]))


def grid_table(values):
    values = np.asarray(values, dtype=float)
    actions = tuple(f"A{i+1}" for i in range(values.shape[0]))
    objects = tuple(11 + j for j in range(values.shape[1]))
    return UncertaintyTable(actions, objects, values)


class TestSelectNext:
    def test_eps_zero_always_argmax(self):
        table = grid_table([[0.1, 0.9, 0.3], [0.2, 0.5, 0.8]])
        rng = np.random.default_rng(0)
        picks = {select_next(table, 0.0, rng) for _ in range(50)}
        assert picks == {(12, "A1")}

    def test_eps_one_uniform_chi_squared(self):
        table = grid_table([[0.1, 0.9, 0.3], [0.2, 0.5, 0.8]])
        rng = np.random.default_rng(1)
        counts = {}
        n_draws = 10_000
        for _ in range(n_draws):
            obj, act = select_next(table, 1.0, rng)
            counts[(obj, act)] = counts.get((obj, act), 0) + 1
        cells = [counts.get((o, a), 0) for o in table.object_ids for a in table.action_ids]
        expected = n_draws / len(cells)
        stat = sum((c - expected) ** 2 / expected for c in cells)
        assert stat < chi2.ppf(0.99, df=len(cells) - 1)

    def test_tie_break_lowest_action_then_object(self):
        table = grid_table([[0.3, 0.6], [0.6, 0.2]])
        rng = np.random.default_rng(2)
        assert select_next(table, 0.0, rng) == (12, "A1")
        table2 = grid_table([[0.6, 0.6], [0.1, 0.1]])
        assert select_next(table2, 0.0, rng) == (11, "A1")


class TestAcquire:
    def test_group_grows_by_one(self):
        state = fresh_state()
        before = len(state.observations["A1"][12])
        obs = acquire(state, 12, "A1", fake_simulator, fake_extractor)
        assert len(state.observations["A1"][12]) == before + 1
        assert obs.action_id == "A1"
        assert state.iteration == 1

    def test_reproducible_across_runs(self):
        a = fresh_state(seed=5)
        b = fresh_state(seed=5)
        for _ in range(3):
            oa = acquire(a, 11, "A2", fake_simulator, fake_extractor)
            ob = acquire(b, 11, "A2", fake_simulator, fake_extractor)
            assert np.array_equal(oa.vector(), ob.vector())

    def test_unknown_object_rejected(self):
        state = fresh_state()
        with pytest.raises(StateError):
            acquire(state, 99, "A1", fake_simulator, fake_extractor)


class TestUpdateKnowledge:
    def test_other_actions_untouched_bitwise(self):
        state = fit_state_models(fresh_state())
        untouched = state.models["A2"]
        acquire(state, 11, "A1", fake_simulator, fake_extractor)
        update_knowledge(state, "A1", None, rng=np.random.default_rng(0))
        assert state.models["A2"] is untouched
        assert state.models["A1"] is not untouched

    def test_empty_prior_equals_plain_refit(self):
        state_a = fit_state_models(fresh_state(seed=21))
        state_b = fit_state_models(fresh_state(seed=21))
        acquire(state_a, 12, "A1", fake_simulator, fake_extractor)
        acquire(state_b, 12, "A1", fake_simulator, fake_extractor)
        update_knowledge(state_a, "A1", None, rng=np.random.default_rng(3))
        update_knowledge(state_b, "A1", None, rng=np.random.default_rng(3))
        from tactilab.gp import ova_predict_proba

        queries = [force_obs(v) for v in (-4.0, 0.0, 4.0)]
        assert np.array_equal(
            ova_predict_proba(state_a.models["A1"], queries),
            ova_predict_proba(state_b.models["A1"], queries),
        )

    def test_related_prior_stays_selected(self):
        # The twin old object should keep being chosen as data accumulates.
        stable_runs = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            prior = make_prior(rng, centers={1: 0.0, 2: 9.0, 3: -9.0}, action="A1")
            state = fit_state_models(fresh_state(seed=seed), prior=prior, seed=seed)
            selected = []
            for _ in range(6):
                acquire(state, 12, "A1", fake_simulator, fake_extractor)
                _, decisions = update_knowledge(
                    state, "A1", prior, rng=np.random.default_rng(seed)
                )
                match = [d for d in decisions if d.new_object_id == 12]
                selected.append(match[0].selected_old_id == 1 if match else False)
            if np.mean(selected) >= 0.8:
                stable_runs += 1
        assert stable_runs >= 16


def constant_evaluator(models):
    return 0.5


class TestRunLoop:
    def test_budget_zero_returns_empty_curve(self):
        state = fit_state_models(fresh_state())
        models_before = dict(state.models)
        result = run_loop(
            state, None, 0, constant_evaluator, fake_simulator, fake_extractor
        )
        assert result.curve == []
        assert state.models == models_before

    def test_curve_length_bounded_by_budget(self):
        state = fit_state_models(fresh_state())
        result = run_loop(
            state, None, 4, constant_evaluator, fake_simulator, fake_extractor
        )
        assert len(result.curve) == 4
        assert len(result.records) == 4

    def test_stopping_rule_fires_on_stall(self):
        state = fit_state_models(fresh_state())
        result = run_loop(
            state,
            None,
            30,
            constant_evaluator,
            fake_simulator,
            fake_extractor,
            stop_window=10,
        )
        assert result.stopped_early
        assert len(result.curve) == 11  # window + the first comparison point

    def test_table_memo_leaves_the_loop_unchanged(self, monkeypatch):
        def loop():
            state = fit_state_models(fresh_state(seed=21), seed=5)
            return run_loop(
                state, None, 6, constant_evaluator, fake_simulator, fake_extractor,
                opt_rng=np.random.default_rng(5),
            )

        memoised = loop()
        real = active.uncertainty_table
        monkeypatch.setattr(
            active, "uncertainty_table", lambda models, observations, memo=None: real(models, observations)
        )
        plain = loop()
        assert [r.uncertainty for r in memoised.records] == [r.uncertainty for r in plain.records]
        assert [(r.object_id, r.action_id) for r in memoised.records] == [
            (r.object_id, r.action_id) for r in plain.records
        ]

    def test_full_loop_determinism(self):
        curves = []
        for _ in range(2):
            state = fit_state_models(fresh_state(seed=33), seed=7)
            rng = np.random.default_rng(7)

            def evaluate(models):
                from tactilab.gp import ova_predict_proba

                queries = [force_obs(v) for v in (-4.0, 0.0, 4.0)]
                probs = ova_predict_proba(models["A1"], queries)
                return float(probs.max())

            result = run_loop(
                state, None, 6, evaluate, fake_simulator, fake_extractor, opt_rng=rng
            )
            curves.append(result.curve)
        assert curves[0] == curves[1]

    def test_records_carry_branch_and_gamma(self):
        state = fit_state_models(fresh_state(seed=8))
        result = run_loop(
            state, None, 3, constant_evaluator, fake_simulator, fake_extractor
        )
        for rec in result.records:
            assert rec.branch in ("explore", "exploit")
            assert rec.action_id in ACTIONS
            assert rec.object_id in OBJECTS
            assert abs(sum(rec.gamma) - 1.0) < 1e-9
            assert set(rec.uncertainty) == set(ACTIONS)
