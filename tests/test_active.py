import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from tactilab import active, transfer
from tactilab.active import (
    ExplorationState,
    UncertaintyTable,
    acquire,
    initialize_state,
    posterior_entropies,
    posterior_entropy,
    run_loop,
    select_next,
    uncertainty_table,
    update_knowledge,
)
from tactilab.errors import ParameterError, StateError
from tactilab.features import Modality
from tactilab.kernels import ObservationBlock
from tactilab.transfer import (
    INIT_RESTARTS,
    INIT_SWEEPS,
    UPDATE_RESTARTS,
    UPDATE_SWEEPS,
    build_action_models,
)

from conftest import as_blocks, force_obs, record_searches
from oracles import fit_prior_knowledge
from test_transfer import cluster, make_prior, prior_instances

ACTIONS = ("A1", "A2")
OBJECTS = (11, 12, 13)


def fake_observation(action_id, object_id, seed):
    # Deterministic 1-D observation: the object id sets the level, the seed jitters it.
    rng = np.random.default_rng(seed)
    level = {11: -4.0, 12: 0.0, 13: 4.0}[object_id] + 0.2 * rng.standard_normal()
    return force_obs(level)


def fake_observe(jobs):
    """``observe`` over fake observations: one block per (action, object),
    actions and objects in job order, rows in job order."""
    groups = {}
    for job in jobs:
        groups.setdefault(job[0], {}).setdefault(job[1], []).append(fake_observation(*job))
    return {a: {obj: ObservationBlock.of(obs) for obj, obs in g.items()} for a, g in groups.items()}


def fresh_state(seed=3, eps=0.3):
    return initialize_state(OBJECTS, ACTIONS, fake_observe, seed, eps)


def fit_state_models(state, prior=None, seed=42):
    rng = np.random.default_rng(seed)
    for action_id in state.action_ids:
        update_knowledge(state, action_id, prior, rng=rng)
    return state


#: Probability matrices with repeated entries (ties) and entries at and
#: beyond the clip floor, as (queries, classes).
PROB_ROWS = st.integers(1, 12).flatmap(
    lambda c: st.lists(
        st.lists(
            st.sampled_from([0.0, 1e-12, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
            min_size=c,
            max_size=c,
        ),
        min_size=1,
        max_size=20,
    )
)


class TestPosteriorEntropy:
    @settings(max_examples=200, deadline=None)
    @given(rows=PROB_ROWS)
    def test_rows_match_one_row_at_a_time(self, rows):
        probs = np.array(rows)
        want = np.array([posterior_entropy(row) for row in probs])
        assert np.array_equal(posterior_entropies(probs), want)
        assert np.array_equal(posterior_entropies(np.asfortranarray(probs)), want)
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
            "ova_predict_groups",
            lambda model, groups: [np.full((len(X), len(OBJECTS)), 0.5) for X in groups],
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
            acquire(state, OBJECTS[k % 3], ACTIONS[k % 2], fake_observe)
        from tactilab.gp import ova_predict_proba

        table = uncertainty_table(state.models, state.observations)
        for i, action in enumerate(table.action_ids):
            for j, obj in enumerate(table.object_ids):
                group = state.observations[action][obj]
                total = 0.0
                for row in range(len(group)):
                    probs = ova_predict_proba(state.models[action], group[row : row + 1])[0]
                    total += posterior_entropy(probs)
                assert table.values[i, j] == pytest.approx(total / len(group), abs=1e-12)

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
        row = acquire(state, 12, "A1", fake_observe)
        group = state.observations["A1"][12]
        assert len(group) == before + 1
        assert len(row) == 1 and row.modalities == (Modality.FORCE,)
        assert group.matrix(Modality.FORCE)[-1:].tobytes() == row.matrix(Modality.FORCE).tobytes()
        assert state.iteration == 1

    def test_groups_hold_the_rows_of_their_observations(self):
        """After several acquisitions each group block holds bit for bit the
        rows of the block stacked from its observations as a list."""
        seen = {}

        def observe(jobs):
            for action_id, object_id, seed in jobs:
                obs = fake_observation(action_id, object_id, seed)
                seen.setdefault((action_id, object_id), []).append(obs)
            return fake_observe(jobs)

        state = initialize_state(OBJECTS, ACTIONS, observe, 4)
        for k in range(9):
            acquire(state, OBJECTS[k % 3], ACTIONS[k % 2], observe)
        assert max(len(obs) for obs in seen.values()) > 2
        for (action, obj), observations in seen.items():
            block, want = state.observations[action][obj], ObservationBlock.of(observations)
            assert len(block) == len(observations)
            assert block.modalities == want.modalities
            for mod in want.modalities:
                assert block.matrix(mod).tobytes() == want.matrix(mod).tobytes()

    def test_reproducible_across_runs(self):
        a = fresh_state(seed=5)
        b = fresh_state(seed=5)
        for _ in range(3):
            oa = acquire(a, 11, "A2", fake_observe)
            ob = acquire(b, 11, "A2", fake_observe)
            assert np.array_equal(oa.matrix(Modality.FORCE), ob.matrix(Modality.FORCE))

    def test_unknown_object_rejected(self):
        state = fresh_state()
        with pytest.raises(StateError):
            acquire(state, 99, "A1", fake_observe)

    def test_unknown_action_rejected_before_observing(self):
        state = fresh_state()
        calls = []
        with pytest.raises(StateError, match="'A9'"):
            acquire(state, 11, "A9", lambda jobs: calls.append(jobs) or fake_observe(jobs))
        assert calls == []
        assert state.iteration == 0


class TestUpdateKnowledge:
    def test_other_actions_untouched_bitwise(self):
        state = fit_state_models(fresh_state())
        untouched = state.models["A2"]
        acquire(state, 11, "A1", fake_observe)
        update_knowledge(state, "A1", None, rng=np.random.default_rng(0))
        assert state.models["A2"] is untouched
        assert state.models["A1"] is not untouched

    def test_empty_prior_equals_plain_refit(self):
        state_a = fit_state_models(fresh_state(seed=21))
        state_b = fit_state_models(fresh_state(seed=21))
        acquire(state_a, 12, "A1", fake_observe)
        acquire(state_b, 12, "A1", fake_observe)
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
                acquire(state, 12, "A1", fake_observe)
                decisions = update_knowledge(state, "A1", prior, rng=np.random.default_rng(seed))
                match = [d for d in decisions if d.new_object_id == 12]
                selected.append(match[0].selected_old_id == 1 if match else False)
            if np.mean(selected) >= 0.8:
                stable_runs += 1
        assert stable_runs >= 16


def constant_evaluator(action_id, model):
    return 0.5


def level_score(action_id, model):
    """Mean posterior of the right object for one query at each object's
    level: a score that moves with every refit."""
    from tactilab.gp import ova_predict_proba

    probs = ova_predict_proba(model, [force_obs(v) for v in (-4.0, 0.0, 4.0)])
    return float(np.mean([p[model.classes.index(o)] for p, o in zip(probs, OBJECTS)]))


class TestRunLoop:
    def test_budget_zero_returns_empty_curve(self):
        state = fit_state_models(fresh_state())
        models_before = dict(state.models)
        result = run_loop(
            state, None, 0, constant_evaluator, fake_observe
        )
        assert result.curve == []
        assert state.models == models_before

    def test_curve_length_bounded_by_budget(self):
        state = fit_state_models(fresh_state())
        result = run_loop(
            state, None, 4, constant_evaluator, fake_observe
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
            fake_observe,
            stop_window=10,
        )
        assert len(result.curve) == 11  # window + the first comparison point

    def test_later_iterations_predict_only_the_refitted_action(self, monkeypatch):
        # Every uncertainty row's prediction (one per row, over all the
        # objects' groups), refit and evaluation, in order, with the model it
        # used; holding the models keeps their ids distinct.
        events, refits = [], []
        real_predict, real_update = active.ova_predict_groups, active.update_knowledge

        def predict(model, groups):
            assert len(groups) == len(OBJECTS)
            events.append(("table", model))
            return real_predict(model, groups)

        def update(state, action_id, *args, **kwargs):
            out = real_update(state, action_id, *args, **kwargs)
            events.append(("refit", state.models[action_id]))
            refits.append((action_id, state.models[action_id]))
            return out

        def evaluate(action_id, model):
            events.append(("evaluate", model))
            return level_score(action_id, model)

        monkeypatch.setattr(active, "ova_predict_groups", predict)
        monkeypatch.setattr(active, "update_knowledge", update)
        state = fit_state_models(fresh_state(seed=9, eps=0.5))
        models = dict(state.models)
        run_loop(state, None, 6, evaluate, fake_observe,
                 opt_rng=np.random.default_rng(5))

        expected = [("table", models[a]) for a in ACTIONS]
        for k, (act, model) in enumerate(refits):
            models[act] = model
            expected.append(("refit", model))
            expected += [("evaluate", models[a]) for a in (ACTIONS if k == 0 else (act,))]
            if k + 1 < len(refits):
                expected.append(("table", model))
        assert len(refits) == 6 and {a for a, _ in refits} == set(ACTIONS)
        assert [(kind, id(m)) for kind, m in events] == [(kind, id(m)) for kind, m in expected]

    def test_records_equal_those_of_a_loop_that_recomputes_everything(self, monkeypatch):
        real_draw = active._draw

        def reference_loop(state, budget, opt_rng):
            """Every uncertainty row and accuracy from scratch each iteration."""
            curve, tables, records = [], [], []
            for _ in range(budget):
                table = uncertainty_table(state.models, state.observations)
                obj, act, branch, _ = real_draw(table, state.eps_explore, state.explore_rng)
                acquire(state, obj, act, fake_observe)
                update_knowledge(state, act, None, rng=opt_rng)
                acc = float(np.mean([level_score(a, state.models[a]) for a in state.action_ids]))
                curve.append(acc)
                tables.append(table)
                records.append(
                    {"iteration": state.iteration, "object": obj, "action": act,
                     "branch": branch, "accuracy": acc}
                )
            return curve, tables, records

        # The table each of the loop's selections draws from.
        drawn = []

        def draw(table, *args):
            drawn.append(table)
            return real_draw(table, *args)

        monkeypatch.setattr(active, "_draw", draw)
        for seed in (9, 21):
            drawn.clear()
            state = fit_state_models(fresh_state(seed=seed), seed=seed)
            loop = run_loop(state, None, 8, level_score, fake_observe,
                            opt_rng=np.random.default_rng(seed))
            state = fit_state_models(fresh_state(seed=seed), seed=seed)
            curve, tables, records = reference_loop(state, 8, np.random.default_rng(seed))
            assert loop.curve == curve
            assert loop.records == records
            assert len(drawn) == len(tables)
            for got, want in zip(drawn, tables):
                assert (got.action_ids, got.object_ids) == (want.action_ids, want.object_ids)
                assert np.array_equal(got.values, want.values)
            assert {r["branch"] for r in loop.records} == {"explore", "exploit"}

    def test_full_loop_determinism(self):
        curves = []
        for _ in range(2):
            state = fit_state_models(fresh_state(seed=33), seed=7)
            rng = np.random.default_rng(7)

            def evaluate(action_id, model):
                from tactilab.gp import ova_predict_proba

                queries = [force_obs(v) for v in (-4.0, 0.0, 4.0)]
                return float(ova_predict_proba(model, queries).max())

            result = run_loop(
                state, None, 6, evaluate, fake_observe, opt_rng=rng
            )
            curves.append(result.curve)
        assert curves[0] == curves[1]

    def test_records_carry_branch_and_gamma(self):
        state = fit_state_models(fresh_state(seed=8))
        result = run_loop(
            state, None, 3, constant_evaluator, fake_observe
        )
        assert len(result.records) == len(result.gamma_trace) == 3
        for rec, entry in zip(result.records, result.gamma_trace):
            assert rec["branch"] in ("explore", "exploit")
            assert rec["action"] in ACTIONS
            assert rec["object"] in OBJECTS
            assert (entry["iteration"], entry["action"]) == (rec["iteration"], rec["action"])
            assert abs(sum(entry["gamma"]) - 1.0) < 1e-9

    def test_budget_zero_fits_the_first_models_and_records_them_at_iteration_0(self):
        # One fit per action in action order, each on the one opt stream: the
        # same models, kernels and decisions as build_action_models in turn.
        rng = np.random.default_rng(4)
        prior = fit_prior_knowledge(
            as_blocks({a: prior_instances(rng, action=a)[a] for a in ACTIONS}), rng=rng
        )
        state = fresh_state(seed=5)
        result = run_loop(
            state, prior, 0, constant_evaluator, fake_observe, opt_rng=np.random.default_rng(6)
        )
        assert result.curve == result.records == []
        assert [(e["iteration"], e["action"]) for e in result.gamma_trace] == [
            (0, a) for a in ACTIONS
        ]
        from tactilab.gp import ova_predict_proba

        queries = [force_obs(v) for v in (-4.0, 0.0, 4.0)]
        ref_rng, decisions = np.random.default_rng(6), []
        for action_id, entry in zip(ACTIONS, result.gamma_trace):
            model, action_decisions = build_action_models(
                prior, action_id, fresh_state(seed=5).observations[action_id], rng=ref_rng
            )
            decisions += [d.to_dict() for d in action_decisions]
            assert entry["gamma"] == [float(g) for g in model.kernel.weights]
            assert np.array_equal(
                ova_predict_proba(state.models[action_id], queries),
                ova_predict_proba(model, queries),
            )
        assert result.decisions == decisions
        assert len(decisions) == len(ACTIONS) * len(OBJECTS)
        assert any(d["selected_old"] is not None for d in decisions)

    def test_models_hold_the_kernel_their_classes_were_tuned_at(self, monkeypatch):
        """Every fit's model holds its tuned kernel: the very kernel of each
        class model without a transfer block, and the base of each transfer
        class's kernel. Each gamma entry of the loop reads that model's
        kernel, and the state keeps the last fit's model."""
        rng = np.random.default_rng(4)
        prior = fit_prior_knowledge(
            as_blocks({a: prior_instances(rng, action=a)[a] for a in ACTIONS}), rng=rng
        )
        fitted = []
        real = active.build_action_models

        def recording(*args, **kwargs):
            fitted.append(real(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(active, "build_action_models", recording)
        state = fresh_state(seed=5)
        result = run_loop(
            state, prior, 3, constant_evaluator, fake_observe, opt_rng=np.random.default_rng(6)
        )
        models = [model for model, _ in fitted]
        assert len(models) == len(result.gamma_trace) == len(ACTIONS) + 3
        transfer_classes = 0
        for model in models:
            for binary in model.models.values():
                if binary.n_old:
                    transfer_classes += 1
                    assert binary.kernel.base is model.kernel
                else:
                    assert binary.kernel is model.kernel
        assert transfer_classes > 0
        for model, entry in zip(models, result.gamma_trace):
            assert entry["gamma"] == [float(g) for g in model.kernel.weights]
        last = {entry["action"]: entry["gamma"] for entry in result.gamma_trace}
        assert last == {a: [float(g) for g in state.models[a].kernel.weights] for a in ACTIONS}

    def test_first_fits_and_refits_search_on_their_schedules(self, monkeypatch):
        calls = record_searches(monkeypatch, transfer)
        result = run_loop(
            fresh_state(seed=8), None, 3, constant_evaluator, fake_observe,
            opt_rng=np.random.default_rng(2),
        )
        assert len(result.gamma_trace) == len(ACTIONS) + 3
        assert [call[:2] for call in calls] == [
            (INIT_RESTARTS, INIT_SWEEPS)
        ] * len(ACTIONS) + [(UPDATE_RESTARTS, UPDATE_SWEEPS)] * 3
