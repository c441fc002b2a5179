import math

import numpy as np
import pytest
from scipy.special import expit

from tactilab import gp
from tactilab.errors import NumericalError, OptimizationError, ParameterError
from tactilab.features import Modality
from tactilab.gp import (
    BinaryGpcModel,
    ModelSpec,
    OvaGpcModel,
    PooledSet,
    argmax_label,
    gpc_fit,
    gpc_predict,
    gpc_predict_batch,
    gpr_fit,
    gpr_predict,
    optimize_hyperparams,
    optimize_kernel_for_sets,
    ova_fit,
    ova_lml,
    ova_predict,
    ova_predict_proba,
)
from tactilab.kernels import CombinedKernel, RbfKernel, cross_gram, gram

from conftest import force_obs, two_part_obs


def pts(*values):
    return [np.array([float(v)]) for v in values]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def gpr_dense_inverse_oracle(kernel, X, y, sigma2, x_star):
    """Textbook closed form via an explicit matrix inverse."""
    k = gram(kernel, X)
    a_inv = np.linalg.inv(k + sigma2 * np.eye(len(X)))
    k_star = cross_gram(kernel, X, [x_star])[:, 0]
    k_ss = kernel.signal_variance if isinstance(kernel, RbfKernel) else None
    mean = float(k_star @ a_inv @ np.asarray(y))
    var = float(k_ss - k_star @ a_inv @ k_star + sigma2)
    return mean, var


def gpc_quadrature_oracle(kernel, X, y, x_star, nodes=10):
    """Exact binary posterior by tensor Gauss-Hermite over the training
    latents plus a 1-D quadrature over the test latent."""
    n = len(X)
    k = gram(kernel, X) + 1e-10 * np.eye(n)
    chol = np.linalg.cholesky(k)
    gh_x, gh_w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([gh_x] * n), indexing="ij")
    z = np.stack([g.ravel() for g in grids])
    weights = np.ones(z.shape[1])
    for g in np.meshgrid(*([gh_w] * n), indexing="ij"):
        weights = weights * g.ravel()
    h = chol @ (math.sqrt(2.0) * z)
    lik = np.prod(expit(np.asarray(y)[:, None] * h), axis=0)

    k_star = cross_gram(kernel, X, [x_star])[:, 0]
    a = np.linalg.solve(k, k_star)
    mu = a @ h
    var = max(float(kernel.signal_variance - k_star @ a), 0.0)
    inner_x, inner_w = np.polynomial.hermite.hermgauss(32)
    p_star = expit(mu[:, None] + math.sqrt(2.0 * var) * inner_x[None, :]) @ inner_w
    p_star /= math.sqrt(math.pi)
    num = float(np.sum(weights * lik * p_star))
    den = float(np.sum(weights * lik))
    return num / den


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


class TestGpr:
    def test_single_point_interpolation(self):
        model = gpr_fit(RbfKernel(1.0, 1.0), pts(0.5), [2.0], noise_variance=0.0)
        mean, var = gpr_predict(model, np.array([0.5]))
        assert mean == pytest.approx(2.0, abs=1e-10)
        assert var <= 1e-10

    def test_prior_reversion_far_from_data(self):
        model = gpr_fit(RbfKernel(1.0, 1.5), pts(0.0, 1.0), [1.0, -1.0], noise_variance=0.3)
        mean, var = gpr_predict(model, np.array([50.0]))
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(1.5 + 0.3, abs=1e-10)

    def test_three_point_dense_inverse_oracle(self):
        kernel = RbfKernel(1.0, 1.0)
        X, y = pts(-1.0, 0.2, 1.3), [0.5, -0.2, 0.9]
        model = gpr_fit(kernel, X, y, noise_variance=0.1)
        for q in (-2.0, 0.0, 0.7, 3.0):
            mean, var = gpr_predict(model, np.array([q]))
            o_mean, o_var = gpr_dense_inverse_oracle(kernel, X, y, 0.1, np.array([q]))
            assert mean == pytest.approx(o_mean, abs=1e-10)
            assert var == pytest.approx(o_var, abs=1e-10)

    def test_variance_nonnegative_and_bounded_at_train(self):
        rng = np.random.default_rng(0)
        kernel = RbfKernel(0.8, 1.0)
        X = [rng.standard_normal(2) for _ in range(12)]
        y = rng.standard_normal(12)
        model = gpr_fit(kernel, X, y, noise_variance=0.05)
        for x in X:
            _, var = gpr_predict(model, x)
            assert var >= -1e-10
            # The returned variance includes the observation noise; the
            # latent posterior variance at a training input cannot exceed it.
            assert var - 0.05 <= 0.05 + 1e-8

    def test_needs_training_point(self):
        with pytest.raises(ParameterError):
            gpr_fit(RbfKernel(1.0), [], [], 0.1)


# ---------------------------------------------------------------------------
# Binary classification
# ---------------------------------------------------------------------------


class TestBinaryGpc:
    def test_symmetry_point_probability_half(self):
        model = gpc_fit(RbfKernel(1.0, 2.0), pts(-2, -1, 1, 2), [-1, -1, 1, 1])
        assert gpc_predict(model, np.array([0.0])) == pytest.approx(0.5, abs=1e-3)

    def test_deep_interior_point_confident(self):
        # Well-populated, well-separated classes push the posterior above 0.9
        # at a query deep inside the positive cluster; the matching quadrature
        # check runs on the smaller four-point instance below.
        rng = np.random.default_rng(0)
        xs = list(-2.0 + 0.1 * rng.standard_normal(10)) + list(
            2.0 + 0.1 * rng.standard_normal(10)
        )
        model = gpc_fit(RbfKernel(0.8, 4.0), pts(*xs), [-1] * 10 + [1] * 10)
        assert gpc_predict(model, np.array([2.0])) > 0.9

    def test_label_flip_maps_probability(self):
        kernel = RbfKernel(0.9, 3.0)
        X = pts(-1.5, -0.5, 0.4, 1.7)
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        a = gpc_fit(kernel, X, y)
        b = gpc_fit(kernel, X, -y)
        for q in (-2.0, -0.3, 0.8, 2.5):
            pa = gpc_predict(a, np.array([q]))
            pb = gpc_predict(b, np.array([q]))
            assert pa == pytest.approx(1.0 - pb, abs=1e-9)

    def test_quadrature_oracle_on_four_point_problem(self):
        kernel = RbfKernel(0.8, 2.0)
        X, y = pts(-1.2, -0.4, 0.5, 1.4), [-1, -1, 1, 1]
        model = gpc_fit(kernel, X, y)
        for q in (-1.0, 0.0, 0.3, 1.0, 2.0):
            p = gpc_predict(model, np.array([q]))
            oracle = gpc_quadrature_oracle(kernel, X, y, np.array([q]))
            assert p == pytest.approx(oracle, abs=2e-2)

    def test_local_consistency_near_positive_neighbors(self):
        model = gpc_fit(RbfKernel(0.5, 2.0), pts(0.0, 0.1, 3.0, 3.1), [1, 1, -1, -1])
        assert gpc_predict(model, np.array([0.05])) > 0.5

    def test_stationarity_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            X = [rng.standard_normal(1) * 2 for _ in range(n)]
            y = rng.choice([-1.0, 1.0], size=n)
            model = gpc_fit(RbfKernel(0.7, 2.0), X, y)
            assert model.stationarity < 1e-6

    def test_degenerate_one_class_fit(self):
        model = gpc_fit(RbfKernel(1.0, 2.0), pts(0.0), [1.0])
        assert gpc_predict(model, np.array([0.0])) > 0.5

    def test_probabilities_in_open_interval(self):
        model = gpc_fit(RbfKernel(0.3, 50.0), pts(-1.0, 1.0), [-1, 1])
        probs = gpc_predict_batch(model, pts(-30.0, -1.0, 1.0, 30.0))
        assert np.all(probs > 0.0)
        assert np.all(probs < 1.0)

    def test_label_validation(self):
        with pytest.raises(ParameterError):
            gpc_fit(RbfKernel(1.0), pts(0.0, 1.0), [0, 1])


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteGuards:
    """Finiteness is checked once per fit or prediction and once per Newton
    step; a NaN never comes back as a converged model."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_gram_raises(self, monkeypatch, bad):
        def gram_with_hole(kernel, X, n_old=0):
            k = np.eye(len(X))
            k[0, -1] = k[-1, 0] = bad
            return k

        monkeypatch.setattr(gp, "training_gram", gram_with_hole)
        with pytest.raises(NumericalError, match="training gram"):
            gpc_fit(RbfKernel(1.0), pts(0.0, 1.0, 2.0), [1, -1, 1])

    def test_search_scores_a_non_finite_gram_as_minus_inf(self, monkeypatch):
        monkeypatch.setattr(gp, "training_gram", lambda k, X, n_old=0: np.full((len(X), len(X)), np.nan))
        start = CombinedKernel(((Modality.FORCE, RbfKernel(1.0, 1.0)),), np.array([1.0]))
        sets = [PooledSet([force_obs(0.0), force_obs(1.0)], (1.0, -1.0))]
        with pytest.raises(OptimizationError) as info:
            optimize_kernel_for_sets(sets, start, restarts=2, rng=np.random.default_rng(0))
        assert len(info.value.diagnostics) == 2
        assert all("non-finite objective" in d for d in info.value.diagnostics)

    def test_non_finite_newton_step_raises(self, monkeypatch):
        monkeypatch.setattr(gp, "_cho_solve", lambda chol, b: np.full_like(b, np.nan))
        with pytest.raises(NumericalError, match="iteration 1"):
            gpc_fit(RbfKernel(1.0), pts(0.0, 1.0), [1, -1])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_cross_covariance_raises_on_predict(self, monkeypatch, bad):
        model = gpc_fit(RbfKernel(1.0), pts(0.0, 1.0), [1, -1])
        monkeypatch.setattr(
            gp, "prediction_cross", lambda k, X, Y, n_old=0: np.full((len(X), len(Y)), bad)
        )
        with pytest.raises(NumericalError, match="cross-covariance"):
            gpc_predict_batch(model, pts(0.5))

    def test_gpr_rejects_non_finite_targets_and_cross_covariance(self, monkeypatch):
        with pytest.raises(NumericalError, match="target"):
            gpr_fit(RbfKernel(1.0), pts(0.0, 1.0), [0.5, np.nan], 0.1)
        model = gpr_fit(RbfKernel(1.0), pts(0.0, 1.0), [0.5, -0.5], 0.1)
        monkeypatch.setattr(
            gp, "prediction_cross", lambda k, X, Y, n_old=0: np.full((len(X), len(Y)), np.inf)
        )
        with pytest.raises(NumericalError, match="cross-covariance"):
            gpr_predict(model, np.array([0.5]))


# ---------------------------------------------------------------------------
# One-vs-all
# ---------------------------------------------------------------------------


def clustered_obs(rng, centers, per_class):
    X, labels = [], []
    for cls, center in centers.items():
        for _ in range(per_class):
            X.append(force_obs(center + 0.1 * rng.standard_normal()))
            labels.append(cls)
    return X, labels


class TestOva:
    def test_two_class_agrees_with_binary_threshold(self):
        rng = np.random.default_rng(2)
        X, labels = clustered_obs(rng, {1: -2.0, 2: 2.0}, 5)
        kernel = CombinedKernel(((Modality.FORCE, RbfKernel(1.0, 2.0)),), np.array([1.0]))
        model = ova_fit(kernel, X, labels)
        for q in (-2.5, -0.4, 0.3, 2.2):
            obs = force_obs(q)
            label, probs = ova_predict(model, obs)
            binary_p = gpc_predict_batch(model.models[1], [obs])[0]
            assert (label == 1) == (binary_p >= probs[2]) or probs[1] != probs[2]
            if binary_p > 0.5:
                assert probs[1] > 0.0

    def test_three_separated_classes_center_query(self):
        rng = np.random.default_rng(3)
        X, labels = clustered_obs(rng, {1: -5.0, 2: 0.0, 3: 5.0}, 6)
        kernel = CombinedKernel(((Modality.FORCE, RbfKernel(1.0, 4.0)),), np.array([1.0]))
        model = ova_fit(kernel, X, labels)
        for cls, center in {1: -5.0, 2: 0.0, 3: 5.0}.items():
            label, _ = ova_predict(model, force_obs(center))
            assert label == cls

    def test_exact_tie_takes_lowest_class_id(self):
        assert argmax_label((2, 5, 9), [0.4, 0.4, 0.1]) == 2
        assert argmax_label((1, 3), [0.25, 0.25]) == 1

    def test_argmax_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        X, labels = clustered_obs(rng, {1: -3.0, 2: 0.0, 3: 3.0}, 4)
        kernel = CombinedKernel(((Modality.FORCE, RbfKernel(0.8, 3.0)),), np.array([1.0]))
        model = ova_fit(kernel, X, labels)
        probs = ova_predict_proba(model, X)
        for transform in (lambda p: p**3, lambda p: np.log(p + 1e-12), lambda p: 5 * p - 1):
            for row in probs:
                assert argmax_label(model.classes, transform(row)) == argmax_label(
                    model.classes, row
                )

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError):
            ova_fit(
                CombinedKernel(((Modality.FORCE, RbfKernel(1.0)),), np.array([1.0])),
                [force_obs(0.0)],
                [1],
            )


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------


def sample_gp_dataset(rng, n=40, length_scale=1.0, noise=0.1):
    xs = np.sort(rng.uniform(-5, 5, size=n))
    X = [np.array([v]) for v in xs]
    k = gram(RbfKernel(length_scale, 1.0), X)
    y = rng.multivariate_normal(np.zeros(n), k + 1e-10 * np.eye(n))
    y = y + noise * rng.standard_normal(n)
    return X, y


class TestOptimizeHyperparams:
    def test_length_scale_recovery(self):
        rng = np.random.default_rng(5)
        X, y = sample_gp_dataset(rng, n=40, length_scale=1.0, noise=0.1)
        spec = ModelSpec(kind="gpr", kernel=RbfKernel(0.05, 1.0), noise_variance=0.01)
        opt = optimize_hyperparams(spec, X, y, restarts=3, rng=rng)
        assert 0.5 <= opt.kernel.length_scale <= 2.0

    def test_fixed_point_of_optimum(self):
        rng = np.random.default_rng(6)
        X, y = sample_gp_dataset(rng, n=25)
        spec = ModelSpec(kind="gpr", kernel=RbfKernel(0.3, 1.0), noise_variance=0.01)
        first = optimize_hyperparams(spec, X, y, restarts=2, rng=rng, max_sweeps=8)
        again = optimize_hyperparams(
            ModelSpec(kind="gpr", kernel=first.kernel, noise_variance=0.01),
            X,
            y,
            restarts=1,
            rng=rng,
            max_sweeps=8,
        )
        assert again.lml == pytest.approx(first.lml, abs=1e-6)

    def test_noise_modality_weight_suppressed(self):
        rng = np.random.default_rng(7)
        X, labels = [], []
        for cls, center in {1: -3.0, 2: 0.0, 3: 3.0}.items():
            for _ in range(13):
                X.append(
                    two_part_obs(
                        center + 0.15 * rng.standard_normal(),
                        rng.standard_normal(10),  # pure-noise modality
                        object_id=cls,
                    )
                )
                labels.append(cls)
        start = CombinedKernel(
            ((Modality.FORCE, RbfKernel(1.0, 1.0)), (Modality.THERMAL, RbfKernel(3.0, 1.0))),
            np.array([0.5, 0.5]),
        )
        opt = optimize_hyperparams(
            ModelSpec(kind="ova", kernel=start), X, labels, restarts=3, rng=rng
        )
        gamma = dict(zip([m for m, _ in opt.kernel.parts], opt.kernel.weights))
        assert gamma[Modality.THERMAL] <= 0.2

    def test_lml_never_below_any_start(self):
        rng = np.random.default_rng(8)
        X, y = sample_gp_dataset(rng, n=20)
        spec = ModelSpec(kind="gpr", kernel=RbfKernel(0.2, 1.0), noise_variance=0.05)
        opt = optimize_hyperparams(spec, X, y, restarts=4, rng=rng)
        finite_starts = [s for s in opt.start_lmls if np.isfinite(s)]
        assert finite_starts
        assert opt.lml >= max(finite_starts) - 1e-12

    def test_restart_validation(self):
        with pytest.raises(ParameterError):
            optimize_hyperparams(
                ModelSpec(kind="gpr", kernel=RbfKernel(1.0)), pts(0.0), [1.0], restarts=0
            )
