import copy

import numpy as np
import pytest

from tactilab import transfer
from tactilab.errors import MissingPriorError, ParameterError
from tactilab.features import Modality
from tactilab.gp import ova_predict_proba
from tactilab.kernels import (
    CombinedKernel,
    DependentKernel,
    ObservationBlock,
    RbfKernel,
    dependent_gram,
)
from tactilab.laplace import gpc_fit, gpc_predict_batch
from tactilab.transfer import (
    SelectionMethod,
    TransferDecision,
    TransferThresholds,
    build_action_models,
    fit_dependent_gpc,
    select_prior_by_optimization,
)

import oracles
from conftest import as_blocks, force_obs, record_searches, two_part_obs
from oracles import fit_prior_knowledge, select_prior_by_prediction

ACTION = "P"


def cluster(rng, center, n, spread=0.15):
    return [force_obs(center + spread * rng.standard_normal()) for _ in range(n)]


def force_kernel(ls=0.5, sv=2.0):
    return CombinedKernel(((Modality.FORCE, RbfKernel(ls, sv)),), np.array([1.0]))


def prior_instances(rng, centers={1: -4.0, 2: 0.0, 3: 4.0}, per_object=12, action=ACTION):
    return {action: {obj: cluster(rng, c, per_object) for obj, c in centers.items()}}


def make_prior(rng, centers={1: -4.0, 2: 0.0, 3: 4.0}, per_object=12, action=ACTION):
    instances = prior_instances(rng, centers, per_object, action)
    return fit_prior_knowledge(as_blocks(instances), rng=rng)


@pytest.fixture(scope="module")
def prior():
    return make_prior(np.random.default_rng(0))


class TestSelectByPrediction:
    def test_observations_from_twin_cluster_select_it(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            prior = make_prior(rng)
            X_new = cluster(rng, 0.05, 4)  # sits on old object 2's cluster
            decision = select_prior_by_prediction(prior, ACTION, X_new, 0.6, new_object_id=11)
            if decision.selected_old_id == 2 and decision.rho > 0.6:
                hits += 1
        assert hits >= 18

    def test_low_posteriors_mean_no_selection(self, prior):
        far = [force_obs(60.0), force_obs(61.0)]
        p_bar = ova_predict_proba(prior[ACTION].model, far).mean(axis=0)
        assert np.all(p_bar <= 0.6)
        decision = select_prior_by_prediction(prior, ACTION, far, 0.6, new_object_id=11)
        assert decision.selected_old_id is None
        assert decision.rho == 0.0

    def test_boundary_threshold_uses_geq(self, prior, monkeypatch):
        # Contract check at the exact boundary: p_bar == eps -> selection proceeds.
        monkeypatch.setattr(
            oracles, "ova_predict_proba", lambda model, X: np.array([[0.5, 0.2, 0.1]])
        )
        decision = select_prior_by_prediction(prior, ACTION, [force_obs(0.0)], 0.5)
        assert decision.selected_old_id == prior[ACTION].model.classes[0]
        assert decision.rho == 0.5

    def test_threshold_below_half_rejected(self, prior):
        with pytest.raises(ParameterError):
            select_prior_by_prediction(prior, ACTION, [force_obs(0.0)], 0.4)

    def test_missing_action_raises(self, prior):
        with pytest.raises(MissingPriorError):
            select_prior_by_prediction(prior, "missing", [force_obs(0.0)], 0.6)

    def test_empty_observations_rejected(self, prior):
        with pytest.raises(ParameterError):
            select_prior_by_prediction(prior, ACTION, [], 0.6)


class TestSelectByOptimization:
    def test_identical_distributions_recover_high_rho(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            instances = {ACTION: {1: cluster(rng, 0.0, 30)}}
            prior = fit_prior_knowledge(as_blocks(instances), rng=rng)
            X_new = cluster(rng, 0.0, 30)
            decision = select_prior_by_optimization(
                prior, ACTION, X_new, 0.6, new_object_id=11, rng=rng
            )
            if decision.selected_old_id == 1 and decision.rho >= 0.8:
                hits += 1
        assert hits >= 16

    def test_below_threshold_gives_none(self):
        rng = np.random.default_rng(9)
        instances = {ACTION: {1: cluster(rng, 0.0, 10)}}
        prior = fit_prior_knowledge(as_blocks(instances), rng=rng)
        decision = select_prior_by_optimization(
            prior, ACTION, cluster(rng, 80.0, 10), 0.99, new_object_id=11, rng=rng
        )
        assert decision.selected_old_id is None
        assert decision.rho == 0.0

    def test_single_observation_completes_with_valid_rho(self):
        # Known bias: rho tends toward 1 with scarce new data; only the
        # contract (completion, range) is asserted.
        rng = np.random.default_rng(10)
        instances = {ACTION: {1: cluster(rng, 0.0, 15)}}
        prior = fit_prior_knowledge(as_blocks(instances), rng=rng)
        decision = select_prior_by_optimization(
            prior, ACTION, [force_obs(0.1)], 0.6, new_object_id=11, rng=rng
        )
        assert 0.0 <= decision.rho <= 1.0


class TestSearchSettings:
    """Each caller's search settings: four sweeps for the prior models and
    the rho selection (three for a one-object prior), weights searched
    except in the rho selection, rho searched from 0.5."""

    def two_part_instances(self, rng, objects):
        return {
            ACTION: {
                obj: [
                    two_part_obs(obj + 0.2 * rng.standard_normal(), rng.standard_normal(3))
                    for _ in range(6)
                ]
                for obj in objects
            }
        }

    def test_prior_models(self, monkeypatch):
        calls = record_searches(monkeypatch, transfer)
        rng = np.random.default_rng(20)
        for objects in ((1, 2, 3), (1,)):
            instances = as_blocks(self.two_part_instances(rng, objects))
            fit_prior_knowledge(instances, rng=rng)
        assert calls == [
            (2, 4, True, False, None, (0.5, 0.5)),
            (2, 3, True, False, None, (0.5, 0.5)),
        ]

    def test_rho_selection(self, monkeypatch):
        rng = np.random.default_rng(21)
        instances = as_blocks(self.two_part_instances(rng, (1, 2)))
        prior = fit_prior_knowledge(instances, rng=rng)
        calls = record_searches(monkeypatch, transfer)
        X_new = self.two_part_instances(rng, (2,))[ACTION][2]
        select_prior_by_optimization(prior, ACTION, X_new, 0.6, rng=rng)
        weights = tuple(prior[ACTION].model.kernel.weights)
        assert calls == [(2, 4, False, True, 0.5, weights)] * 2


class TestFitDependentGpc:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.kernel = force_kernel()
        self.X_old = cluster(rng, 0.0, 8)
        self.X_j = cluster(rng, 0.0, 4)
        self.X_rest = cluster(rng, 3.0, 8)
        self.queries = [force_obs(v) for v in (-0.5, 0.0, 1.5, 3.0)]

    def test_rho_one_equals_pooled_plain_gpc(self):
        dep = fit_dependent_gpc(self.X_old, self.X_j, self.X_rest, self.kernel, 1.0)
        pooled = self.X_old + self.X_j + self.X_rest
        y = np.array([1.0] * 12 + [-1.0] * 8)
        plain = gpc_fit(self.kernel, pooled, y)
        dep_p = gpc_predict_batch(dep, self.queries)
        plain_p = gpc_predict_batch(plain, self.queries)
        assert np.allclose(dep_p, plain_p, atol=1e-9)

    def test_rho_zero_equals_no_transfer_gpc(self):
        dep = fit_dependent_gpc(self.X_old, self.X_j, self.X_rest, self.kernel, 0.0)
        bare = fit_dependent_gpc([], self.X_j, self.X_rest, self.kernel, 0.0)
        dep_p = gpc_predict_batch(dep, self.queries)
        bare_p = gpc_predict_batch(bare, self.queries)
        assert np.allclose(dep_p, bare_p, atol=1e-6)

    def test_posterior_at_center_non_decreasing_in_rho(self):
        # 1-D classes at 4.5 / 5.0 / 5.5; 12 new samples (4 positive at the
        # center class, 8 negative); old object identical to the target.
        rng = np.random.default_rng(12)
        X_j = cluster(rng, 5.0, 4, spread=0.05)
        X_rest = cluster(rng, 4.5, 4, spread=0.05) + cluster(rng, 5.5, 4, spread=0.05)
        X_old = cluster(rng, 5.0, 20, spread=0.05)
        kernel = force_kernel(ls=0.2, sv=2.0)
        center = [force_obs(5.0)]
        probs = [
            gpc_predict_batch(
                fit_dependent_gpc(X_old, X_j, X_rest, kernel, rho), center
            )[0]
            for rho in (0.0, 0.5, 1.0)
        ]
        assert probs[0] <= probs[1] + 1e-12
        assert probs[1] <= probs[2] + 1e-12

    def test_executed_grams_psd(self):
        for rho in (0.0, 0.3, 0.7, 1.0):
            model = fit_dependent_gpc(self.X_old, self.X_j, self.X_rest, self.kernel, rho)
            if isinstance(model.kernel, DependentKernel):
                k = dependent_gram(
                    model.kernel, model.X_train[: model.n_old], model.X_train[model.n_old :]
                )
                assert np.linalg.eigvalsh(k).min() >= -1e-8

    def test_rho_out_of_range(self):
        with pytest.raises(ParameterError):
            fit_dependent_gpc(self.X_old, self.X_j, self.X_rest, self.kernel, 1.5)


def new_groups(rng, centers={11: -4.0, 12: 0.1, 13: 7.0}, n=3):
    return as_blocks(
        {ACTION: {obj: cluster(rng, c, n) for obj, c in centers.items()}}
    )


class TestBuildModels:
    def test_empty_prior_equals_no_transfer_fit(self):
        rng_a = np.random.default_rng(13)
        groups = new_groups(rng_a)
        model_a, decisions_a = build_action_models(
            None, ACTION, groups[ACTION], rng=np.random.default_rng(77)
        )
        model_b, decisions_b = build_action_models(
            {}, ACTION, groups[ACTION], rng=np.random.default_rng(77)
        )
        assert decisions_a == [] and decisions_b == []
        queries = [force_obs(v) for v in (-4.0, 0.0, 7.0)]
        pa = ova_predict_proba(model_a, queries)
        pb = ova_predict_proba(model_b, queries)
        assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("method", list(SelectionMethod))
    def test_class_sets_hold_the_rows_of_the_observation_lists(self, monkeypatch, method):
        """Each class set's block, joined from per-object blocks, holds bit
        for bit the rows of the observation lists: the selected old object's
        instances, the class's group, then the other groups in object order,
        with their labels, split and rho."""
        rng = np.random.default_rng(16)
        instances = prior_instances(rng)[ACTION]
        prior = fit_prior_knowledge(as_blocks({ACTION: instances}), rng=rng)
        groups = {
            11: cluster(rng, -4.0, 3),
            12: cluster(rng, 0.0, 2),
            13: cluster(rng, 9.0, 4),
        }
        searched = []
        real = transfer.optimize_kernel_for_sets
        monkeypatch.setattr(
            transfer,
            "optimize_kernel_for_sets",
            lambda sets, *args, **kwargs: searched.append(sets) or real(sets, *args, **kwargs),
        )
        _, decisions = build_action_models(
            prior, ACTION, as_blocks(groups), method=method, rng=np.random.default_rng(3)
        )
        if method is SelectionMethod.MODEL_PREDICTION:
            assert any(d.selected_old_id is not None for d in decisions)
        for obj, s, decision in zip(sorted(groups), searched[-1], decisions):
            old = []
            if decision.selected_old_id is not None:
                old = instances[decision.selected_old_id]
            rest = [o for other in sorted(groups) if other != obj for o in groups[other]]
            want = ObservationBlock.of(old + groups[obj] + rest)
            assert s.X.modalities == want.modalities
            for mod in want.modalities:
                assert np.array_equal(s.X.matrix(mod), want.matrix(mod))
            assert s.y == (1.0,) * (len(old) + len(groups[obj])) + (-1.0,) * len(rest)
            assert (s.n_old, s.rho) == (len(old), decision.rho)

    @pytest.mark.parametrize("method", list(SelectionMethod))
    def test_old_objects_are_stacked_once(self, monkeypatch, method):
        """The prior holds each old object's block as given, in object
        order, bit for bit its instances' rows; model builds join those
        blocks and stack nothing from observations again."""
        rng = np.random.default_rng(16)
        instances = prior_instances(rng)[ACTION]
        given = as_blocks(instances)
        prior = fit_prior_knowledge({ACTION: given}, rng=rng)
        stored = prior[ACTION].blocks
        assert list(stored) == sorted(instances)
        for obj, block in stored.items():
            assert block is given[obj]
            want = ObservationBlock.of(instances[obj])
            assert np.array_equal(block.matrix(Modality.FORCE), want.matrix(Modality.FORCE))
        groups = as_blocks(
            {11: cluster(rng, -4.0, 3), 12: cluster(rng, 0.0, 2)}
        )
        stacked, real_of = [], ObservationBlock.of.__func__
        joined, real_concat = [], ObservationBlock.concat.__func__
        monkeypatch.setattr(
            ObservationBlock, "of", classmethod(lambda cls, X: stacked.append(X) or real_of(cls, X))
        )

        def concat(cls, blocks):
            joined.append(list(blocks))
            return real_concat(cls, blocks)

        monkeypatch.setattr(ObservationBlock, "concat", classmethod(concat))
        _, decisions = build_action_models(
            prior, ACTION, groups, method=method, rng=np.random.default_rng(3)
        )
        selected = {d.selected_old_id for d in decisions} - {None}
        assert selected
        assert all(any(X is stored[obj] for blocks in joined for X in blocks) for obj in selected)
        assert all(isinstance(X, ObservationBlock) or len(X) == 0 for X in stacked)

    def test_audit_log_shape(self, prior):
        rng = np.random.default_rng(14)
        groups = new_groups(rng)
        _, decisions = build_action_models(
            prior, ACTION, groups[ACTION], rng=np.random.default_rng(5)
        )
        assert len(decisions) == 3  # one per new object
        assert {d.new_object_id for d in decisions} == {11, 12, 13}

    def test_related_pairs_found_across_seeds(self):
        # New objects 11/12 sit on old clusters 1/2; expect at least one
        # non-None decision per run in most seeds.
        runs_with_transfer = 0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            prior = make_prior(rng)
            groups = new_groups(rng, centers={11: -4.0, 12: 0.0, 13: 9.0}, n=3)
            _, decisions = build_action_models(
                prior, ACTION, groups[ACTION], rng=np.random.default_rng(seed)
            )
            if any(d.selected_old_id is not None for d in decisions):
                runs_with_transfer += 1
        assert runs_with_transfer >= 15

    def test_none_decision_bitwise_equal_to_no_transfer(self, prior):
        rng = np.random.default_rng(15)
        groups = as_blocks(
            {
                ACTION: {
                    11: cluster(rng, 40.0, 3),
                    12: cluster(rng, 50.0, 3),
                }
            }
        )
        model_t, decisions = build_action_models(
            prior, ACTION, groups[ACTION], rng=np.random.default_rng(99)
        )
        assert all(d.selected_old_id is None for d in decisions)
        model_b, _ = build_action_models(
            None, ACTION, groups[ACTION], rng=np.random.default_rng(99)
        )
        queries = [force_obs(v) for v in (40.0, 45.0, 50.0)]
        assert np.array_equal(
            ova_predict_proba(model_t, queries),
            ova_predict_proba(model_b, queries),
        )

    def test_unrelated_priors_rarely_selected(self):
        non_none = total = 0
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            prior = make_prior(rng, centers={1: 60.0, 2: 80.0, 3: 100.0})
            groups = new_groups(rng)
            _, decisions = build_action_models(
                prior,
                ACTION,
                groups[ACTION],
                TransferThresholds(eps_neg1=0.6),
                rng=np.random.default_rng(seed),
            )
            non_none += sum(1 for d in decisions if d.selected_old_id is not None)
            total += len(decisions)
        assert non_none / total <= 0.10

    def test_prior_instances_read_only(self, prior):
        """Every matrix of the prior's blocks is read-only, and a model build
        leaves them as they were."""
        snapshot = {
            (action, obj): {mod: block.matrix(mod).copy() for mod in block.modalities}
            for action, (blocks, _) in prior.items()
            for obj, block in blocks.items()
        }
        rng = np.random.default_rng(16)
        groups = new_groups(rng)
        build_action_models(prior, ACTION, groups[ACTION], rng=np.random.default_rng(1))
        for action, (blocks, _) in prior.items():
            for obj, block in blocks.items():
                for mod, saved in snapshot[action, obj].items():
                    assert not block.matrix(mod).flags.writeable
                    assert np.array_equal(block.matrix(mod), saved)

    def test_missing_group_observation_rejected(self, prior):
        with pytest.raises(ParameterError):
            build_action_models(prior, ACTION, as_blocks({11: []}))


class TestTransferDecision:
    def test_rho_must_be_zero_when_unselected(self):
        with pytest.raises(ParameterError):
            TransferDecision(ACTION, 11, None, 0.5, SelectionMethod.MODEL_PREDICTION, 0.5)

    def test_rho_range_validated(self):
        with pytest.raises(ParameterError):
            TransferDecision(ACTION, 11, 1, 1.4, SelectionMethod.MODEL_PREDICTION, 0.9)
