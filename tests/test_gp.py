import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import expit

from tactilab import gp
from tactilab.errors import (
    ConvergenceError,
    NumericalError,
    OptimizationError,
    ParameterError,
)
from tactilab.features import Modality
from tactilab.gp import (
    OvaGpcModel,
    PooledSet,
    argmax_label,
    gpc_fit,
    gpc_predict,
    gpc_predict_batch,
    gpr_fit,
    gpr_predict,
    optimize_kernel_for_sets,
    ova_fit,
    ova_predict,
    ova_predict_proba,
    ova_sets,
)
from tactilab.kernels import (
    CombinedKernel,
    DependentKernel,
    ObservationBlock,
    RbfKernel,
    cross_gram,
    gram,
    median_heuristic,
    project_simplex,
)

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

# Reference copy of the former two-front-end search (``ModelSpec`` +
# ``optimize_hyperparams`` for kinds gpc / ova, and the ``PooledSet`` front
# end), kept as it was written, including its second scoring of each start.
# The single search must reproduce it bit for bit.


@dataclass
class ModelSpec:
    kind: str
    kernel: object
    noise_variance: float = 0.1
    n_old: int = 0
    rho: float = 0.5
    fit_length_scales: bool = True
    fit_signal_variances: bool = False
    fit_weights: bool = True
    fit_rho: bool = False
    ls_bounds: tuple = (1e-2, 1e3)
    sv_bounds: tuple = (1e-2, 1e2)


def ref_kernel_parts(kernel):
    if isinstance(kernel, CombinedKernel):
        return list(kernel.parts), np.array(kernel.weights, dtype=float)
    return [(None, kernel)], np.array([1.0])


def ref_encode(spec):
    parts, weights = ref_kernel_parts(spec.kernel)
    vec, layout = [], []
    if spec.fit_length_scales:
        for _, p in parts:
            vec.append(math.log(p.length_scale))
        layout.append(("ls", len(parts)))
    if spec.fit_signal_variances:
        for _, p in parts:
            vec.append(math.log(p.signal_variance))
        layout.append(("sv", len(parts)))
    fit_gamma = spec.fit_weights and isinstance(spec.kernel, CombinedKernel) and len(parts) > 1
    if fit_gamma:
        vec.extend(weights.tolist())
        layout.append(("gamma", len(parts)))
    if spec.fit_rho:
        vec.append(spec.rho)
        layout.append(("rho", 1))
    return np.array(vec, dtype=float), layout


def ref_decode(spec, params, layout):
    parts, weights = ref_kernel_parts(spec.kernel)
    ls = [p.length_scale for _, p in parts]
    sv = [p.signal_variance for _, p in parts]
    gamma = weights.copy()
    rho = spec.rho
    pos = 0
    for name, size in layout:
        block = params[pos : pos + size]
        pos += size
        if name == "ls":
            ls = list(np.exp(block))
        elif name == "sv":
            sv = list(np.exp(block))
        elif name == "gamma":
            gamma = project_simplex(block)
        elif name == "rho":
            rho = float(np.clip(block[0], 0.0, 1.0))
    new_parts = tuple((mod, RbfKernel(ls[i], sv[i])) for i, (mod, _) in enumerate(parts))
    if isinstance(spec.kernel, CombinedKernel):
        return CombinedKernel(new_parts, gamma), rho
    return new_parts[0][1], rho


def ref_ova_fit(kernel, X, labels):
    X = ObservationBlock.of(X)
    labels = [int(lb) for lb in labels]
    classes = sorted(set(labels))
    models = {}
    for cls in classes:
        y = np.array([1.0 if lb == cls else -1.0 for lb in labels])
        models[cls] = gp.gpc_fit(kernel, X, y)
    return OvaGpcModel(tuple(classes), models)


def ref_fit_for_spec(spec, kernel, rho, X, labels):
    if spec.fit_rho or spec.n_old > 0:
        kernel = DependentKernel(kernel, rho)
    if spec.kind == "gpc":
        return gp.gpc_fit(kernel, X, labels, n_old=spec.n_old)
    return ref_ova_fit(kernel, X, labels)


def ref_model_lml(model):
    if isinstance(model, OvaGpcModel):
        return float(sum(m.lml for m in model.models.values()))
    return model.lml


def ref_coordinate_ascent(objective, x0, layout, bounds_of, max_sweeps):
    x = x0.copy()
    fx = objective(x)
    if not np.isfinite(fx):
        return x, fx
    steps = []
    for name, size in layout:
        init = math.log(3.0) if name in ("ls", "sv") else 0.25
        steps.extend([init] * size)
    steps = np.array(steps)
    names = [name for name, size in layout for _ in range(size)]
    for _ in range(max_sweeps):
        improved = False
        for i in range(x.size):
            for direction in (1.0, -1.0):
                trial = x.copy()
                trial[i] += direction * steps[i]
                lo, hi = bounds_of(names[i])
                trial[i] = min(max(trial[i], lo), hi)
                if trial[i] == x[i]:
                    continue
                ft = objective(trial)
                if ft > fx + gp.IMPROVE_TOL:
                    x, fx = trial, ft
                    improved = True
                    break
        if not improved:
            steps *= 0.5
            if np.max(steps) < 0.02:
                break
    return x, fx


def ref_search(spec, objective_of, restarts, rng, max_sweeps):
    if restarts < 1:
        raise ParameterError("restarts must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    x0, layout = ref_encode(spec)

    def bounds_of(name):
        if name == "ls":
            return math.log(spec.ls_bounds[0]), math.log(spec.ls_bounds[1])
        if name == "sv":
            return math.log(spec.sv_bounds[0]), math.log(spec.sv_bounds[1])
        if name == "gamma":
            return -1.0, 2.0
        return 0.0, 1.0

    def objective(params):
        kernel, rho = ref_decode(spec, params, layout)
        return objective_of(kernel, rho)

    starts = [x0]
    for _ in range(restarts - 1):
        vec = []
        for name, size in layout:
            lo, hi = bounds_of(name)
            if name == "gamma":
                vec.extend(rng.dirichlet(np.ones(size)).tolist())
            else:
                vec.extend(rng.uniform(lo, hi, size=size).tolist())
        starts.append(np.array(vec))

    start_lmls, results, diagnostics = [], [], []
    for start in starts:
        f_start = objective(start)
        start_lmls.append(f_start)
        if not np.isfinite(f_start):
            diagnostics.append(f"start {start} -> non-finite objective")
            continue
        best_x, best_f = ref_coordinate_ascent(objective, start, layout, bounds_of, max_sweeps)
        results.append((best_f, best_x))
    if not results:
        raise OptimizationError("all restarts failed", diagnostics=diagnostics)
    best_f, best_x = max(results, key=lambda r: r[0])
    kernel, rho = ref_decode(spec, best_x, layout)
    return kernel, rho, best_f, best_x, start_lmls


def ref_optimize_hyperparams(spec, X, labels, restarts=3, rng=None, max_sweeps=4):
    """Returns (kernel, rho, lml, start_lmls)."""
    X = ObservationBlock.of(X)

    def objective(kernel, rho):
        try:
            model = ref_fit_for_spec(spec, kernel, rho, X, labels)
        except (NumericalError, ConvergenceError, np.linalg.LinAlgError):
            return -np.inf
        return ref_model_lml(model)

    kernel, rho, best_f, _, start_lmls = ref_search(spec, objective, restarts, rng, max_sweeps)
    return kernel, rho, best_f, start_lmls


def ref_optimize_kernel_for_sets(sets, kernel_start, restarts=2, rng=None, max_sweeps=3):
    spec = ModelSpec(kind="gpc", kernel=kernel_start)

    def objective(kernel, _rho):
        try:
            return sum(s.fit(kernel).lml for s in sets)
        except (NumericalError, ConvergenceError, np.linalg.LinAlgError):
            return -np.inf

    kernel, _, best_f, _, _ = ref_search(spec, objective, restarts, rng, max_sweeps)
    return kernel, best_f


def labelled_two_part_obs(seed, classes=(1, 2, 3), per_class=5):
    """Classes separated in force; the thermal part is weakly informative."""
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for cls in classes:
        for _ in range(per_class):
            X.append(
                two_part_obs(
                    float(cls) + 0.4 * rng.standard_normal(),
                    0.3 * cls + rng.standard_normal(4),
                    object_id=cls,
                )
            )
            labels.append(cls)
    return X, labels


def median_start(X, scale=1.0):
    """Median-heuristic kernel with every length scale multiplied by ``scale``
    (a start far from the optimum makes the search use all its sweeps)."""
    start = median_heuristic(X, ObservationBlock.of(X).modalities)
    parts = tuple((mod, RbfKernel(p.length_scale * scale, p.signal_variance)) for mod, p in start.parts)
    return CombinedKernel(parts, start.weights)


def assert_same_search(new, ref):
    """(kernel, rho, lml) of the single search equal to the reference's."""
    (kernel, rho, lml), (ref_kernel, ref_rho, ref_lml) = new, ref
    assert kernel.modalities == ref_kernel.modalities
    assert [p.length_scale for _, p in kernel.parts] == [
        p.length_scale for _, p in ref_kernel.parts
    ]
    assert [p.signal_variance for _, p in kernel.parts] == [
        p.signal_variance for _, p in ref_kernel.parts
    ]
    assert np.array_equal(kernel.weights, ref_kernel.weights)
    assert rho == ref_rho
    assert lml == ref_lml


SEEDS = [0, 1, 2, 3]


class TestSearchMatchesReference:
    """The callers' search shapes, against the reference copy: tuned length
    scales, weights, rho, LML and the generator state afterwards."""

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_vs_all_prior_model(self, seed, scale):
        X, labels = labelled_two_part_obs(seed, classes=(1, 2, 3, 4, 5), per_class=3)
        block = ObservationBlock.of(X)
        start = median_start(block, scale)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = optimize_kernel_for_sets(
            list(ova_sets(block, labels).values()), start, restarts=2, rng=rng
        )
        ref_kernel, _, ref_lml, _ = ref_optimize_hyperparams(
            ModelSpec(kind="ova", kernel=start), block, labels, restarts=2, rng=ref_rng
        )
        assert_same_search(new, (ref_kernel, 0.0, ref_lml))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        model, ref_model = ova_fit(new[0], block, labels), ref_ova_fit(ref_kernel, block, labels)
        for cls in model.classes:
            assert np.array_equal(model.models[cls].f_hat, ref_model.models[cls].f_hat)

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_hot_ablation_variant(self, seed, scale):
        X, labels = labelled_two_part_obs(seed, classes=(1, 2, 3, 4), per_class=3)
        block = ObservationBlock.of(X)
        start = median_start(block, scale).with_weights([0.0, 1.0])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = optimize_kernel_for_sets(
            list(ova_sets(block, labels).values()), start, restarts=2, rng=rng, fit_weights=False
        )
        ref_kernel, _, ref_lml, _ = ref_optimize_hyperparams(
            ModelSpec(kind="ova", kernel=start, fit_weights=False),
            block,
            labels,
            restarts=2,
            rng=ref_rng,
        )
        assert_same_search(new, (ref_kernel, 0.0, ref_lml))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rho_selection(self, seed):
        X, labels = labelled_two_part_obs(seed, classes=(1, 2), per_class=6)
        X_old = [x for x, lb in zip(X, labels) if lb == 1]
        X_new = [x for x, lb in zip(X, labels) if lb == 2][: 1 + seed]
        base = median_heuristic(ObservationBlock.of(X), X[0].modalities)
        pooled = X_old + X_new
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = optimize_kernel_for_sets(
            [PooledSet(pooled, (1.0,) * len(pooled), n_old=len(X_old), rho=0.5)],
            base,
            restarts=2,
            rng=rng,
            fit_weights=False,
            fit_rho=True,
        )
        spec = ModelSpec(
            kind="gpc", kernel=base, n_old=len(X_old), fit_rho=True, fit_weights=False, rho=0.5
        )
        ref_kernel, ref_rho, ref_lml, _ = ref_optimize_hyperparams(
            spec, pooled, np.ones(len(pooled)), restarts=2, rng=ref_rng
        )
        assert_same_search(new, (ref_kernel, ref_rho, ref_lml))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transfer_sets_of_the_active_loop(self, seed):
        X, labels = labelled_two_part_obs(seed, classes=(1, 2, 3), per_class=4)
        X_old = X[:4]
        new_groups = {cls: [x for x, lb in zip(X, labels) if lb == cls] for cls in (2, 3)}
        sets = [
            PooledSet(
                X_old + new_groups[2] + new_groups[3],
                (1.0,) * 8 + (-1.0,) * 4,
                n_old=4,
                rho=0.6,
            ),
            PooledSet(new_groups[3] + new_groups[2], (1.0,) * 4 + (-1.0,) * 4),
        ]
        start = median_heuristic(X, X[0].modalities)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = optimize_kernel_for_sets(sets, start, restarts=2, rng=rng, max_sweeps=3)
        ref_kernel, ref_lml = ref_optimize_kernel_for_sets(
            sets, start, restarts=2, rng=ref_rng, max_sweeps=3
        )
        assert_same_search(new, (ref_kernel, 0.6, ref_lml))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_each_start_is_scored_once(self, monkeypatch):
        X, labels = labelled_two_part_obs(0)
        block = ObservationBlock.of(X)
        start = median_heuristic(block, block.modalities)
        calls = []
        fit = gp.gpc_fit
        monkeypatch.setattr(gp, "gpc_fit", lambda *a, **kw: calls.append(1) or fit(*a, **kw))
        sets = list(ova_sets(block, labels).values())
        optimize_kernel_for_sets(sets, start, restarts=3, rng=np.random.default_rng(0))
        new_calls = len(calls)
        calls.clear()
        _, _, _, start_lmls = ref_optimize_hyperparams(
            ModelSpec(kind="ova", kernel=start), block, labels, restarts=3,
            rng=np.random.default_rng(0),
        )
        finite_starts = sum(np.isfinite(f) for f in start_lmls)
        assert finite_starts > 0
        assert new_calls == len(calls) - finite_starts * len(sets)


class TestOptimizeHyperparams:
    """Properties of the single hyperparameter search."""

    def test_fixed_point_of_optimum(self):
        X, labels = labelled_two_part_obs(6)
        sets = list(ova_sets(X, labels).values())
        start = median_heuristic(X, X[0].modalities)
        rng = np.random.default_rng(6)
        kernel, _, lml = optimize_kernel_for_sets(sets, start, restarts=2, rng=rng, max_sweeps=8)
        again = optimize_kernel_for_sets(sets, kernel, restarts=1, rng=rng, max_sweeps=8)
        assert again[2] == pytest.approx(lml, abs=1e-6)

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
        sets = list(ova_sets(X, labels).values())
        kernel, _, _ = optimize_kernel_for_sets(sets, start, restarts=3, rng=rng)
        gamma = dict(zip([m for m, _ in kernel.parts], kernel.weights))
        assert gamma[Modality.THERMAL] <= 0.2

    def test_lml_never_below_any_start(self):
        """The result is no worse than every start: the start kernel itself,
        and (the draws being made in order) every start of a search with
        fewer restarts from the same generator seed; with rho fixed and fitted."""
        X, labels = labelled_two_part_obs(8, classes=(1, 2), per_class=6)
        start = median_heuristic(X, X[0].modalities)
        sets = [PooledSet(X, tuple(1.0 if lb == 1 else -1.0 for lb in labels), n_old=3, rho=0.4)]
        start_lml = sum(s.fit(start).lml for s in sets)
        for fit_rho in (False, True):
            lmls = [
                optimize_kernel_for_sets(
                    sets, start, restarts=r, rng=np.random.default_rng(8), fit_rho=fit_rho
                )[2]
                for r in (1, 2, 4)
            ]
            assert start_lml <= lmls[0] <= lmls[1] <= lmls[2], fit_rho

    def test_restart_validation(self):
        start = CombinedKernel(((Modality.FORCE, RbfKernel(1.0)),), np.array([1.0]))
        with pytest.raises(ParameterError):
            optimize_kernel_for_sets(
                [PooledSet([force_obs(0.0)], (1.0,))], start, restarts=0
            )
