"""Observation blocks: layout checked once, memoised distances, and grams,
cross-covariances and Laplace fits bit-identical to the per-call list path.
The Laplace fit and the batch prediction, which call LAPACK directly, are
bit-identical to the same algorithm written over scipy's checked wrappers.

The reference functions below restack the observation lists on every call,
exactly as the kernels did before blocks existed, or factor and solve through
``scipy.linalg``; results are compared with ``np.array_equal`` / ``==``, never
with a tolerance."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import expit

from tactilab import gp
from tactilab.errors import SegmentationError
from tactilab.features import Modality
from tactilab.kernels import (
    CombinedKernel,
    DependentKernel,
    ObservationBlock,
    RbfKernel,
    prediction_cross,
    training_gram,
)

from conftest import force_obs, two_part_obs

MODS = (Modality.FORCE, Modality.THERMAL)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _ref_rbf(kernel, xs, ys):
    xn = np.sum(xs**2, axis=1)[:, None]
    yn = np.sum(ys**2, axis=1)[None, :]
    sq = np.maximum(xn + yn - 2.0 * xs @ ys.T, 0.0)
    return kernel.signal_variance * np.exp(-sq / (2.0 * kernel.length_scale**2))


def _ref_cross(kernel, X, Y):
    out = np.zeros((len(X), len(Y)))
    if not (X and Y):  # nothing to stack; the list path raised here
        return out
    for gamma, (mod, part) in zip(kernel.weights, kernel.parts):
        if gamma == 0.0:
            continue
        xs = np.stack([o.segment(mod) for o in X])
        ys = np.stack([o.segment(mod) for o in Y])
        out += gamma * _ref_rbf(part, xs, ys)
    return out


def _ref_gram(kernel, X):
    k = _ref_cross(kernel, X, X)
    return 0.5 * (k + k.T)


def ref_training_gram(kernel, X, n_old=0):
    X = list(X)
    if not isinstance(kernel, DependentKernel):
        return _ref_gram(kernel, X)
    X_old, X_new = X[:n_old], X[n_old:]
    if not X_old:
        return _ref_gram(kernel.base, X_new)
    if not X_new:
        return _ref_gram(kernel.base, X_old)
    n = len(X)
    out = np.empty((n, n))
    out[:n_old, :n_old] = _ref_gram(kernel.base, X_old)
    out[n_old:, n_old:] = _ref_gram(kernel.base, X_new)
    cross = kernel.rho * _ref_cross(kernel.base, X_old, X_new)
    out[:n_old, n_old:] = cross
    out[n_old:, :n_old] = cross.T
    return 0.5 * (out + out.T)


def ref_prediction_cross(kernel, X_train, X_star, n_old=0):
    X_train = list(X_train)
    if not isinstance(kernel, DependentKernel):
        return _ref_cross(kernel, X_train, X_star)
    bottom = _ref_cross(kernel.base, X_train[n_old:], X_star)
    if not n_old:
        return bottom
    return np.vstack([kernel.rho * _ref_cross(kernel.base, X_train[:n_old], X_star), bottom])


def ref_gpc_fit(kernel, X_train, labels, n_old=0, gram=None):
    """GPML Alg. 3.1 over scipy's ``cholesky`` / ``cho_solve``, which check
    their inputs are finite on every call. ``gram`` replaces the kernel's."""
    X_train = ObservationBlock.of(X_train)
    y = np.asarray(labels, dtype=float).ravel()
    t = 0.5 * (y + 1.0)
    if gram is None:
        gram = training_gram(kernel, X_train, n_old)
    k = gram + gp.GRAM_JITTER * np.eye(len(X_train))
    n = y.size
    f = np.zeros(n)
    a = np.zeros(n)
    trace = []
    for _ in range(gp.LAPLACE_MAX_ITER):
        pi = expit(f)
        w = pi * (1.0 - pi)
        w_sqrt = np.sqrt(w)
        b_mat = np.eye(n) + (w_sqrt[:, None] * k) * w_sqrt[None, :]
        chol_b = cholesky(b_mat, lower=True)
        b = w * f + (t - pi)
        a = b - w_sqrt * cho_solve((chol_b, True), w_sqrt * (k @ b))
        f = k @ a
        trace.append(float(np.max(np.abs((t - expit(f)) - a))))
        if trace[-1] < gp.LAPLACE_TOL:
            break
    pi = expit(f)
    w_sqrt = np.sqrt(pi * (1.0 - pi))
    chol_b = cholesky(np.eye(n) + (w_sqrt[:, None] * k) * w_sqrt[None, :], lower=True)
    lml = (
        -0.5 * float(a @ f)
        + float(np.sum(-np.logaddexp(0.0, -(y * f))))
        - float(np.sum(np.log(np.diag(chol_b))))
    )
    return gp.BinaryGpcModel(
        kernel, X_train, y, n_old, f_hat=f, grad_hat=t - pi, w_sqrt=w_sqrt,
        chol_b=chol_b, lml=lml, stationarity=trace[-1], iterations=len(trace),
    )


def ref_gpc_predict_batch(model, X_star):
    """Batch posterior over scipy's ``solve_triangular``."""
    X_star = ObservationBlock.of(X_star)
    k_star = prediction_cross(model.kernel, model.X_train, X_star, model.n_old)
    k_ss = gp.prediction_diag(model.kernel, X_star)
    mu = k_star.T @ model.grad_hat
    v = solve_triangular(model.chol_b, model.w_sqrt[:, None] * k_star, lower=True)
    var = np.maximum(k_ss - np.sum(v**2, axis=0), 0.0)
    z = mu[:, None] + np.sqrt(2.0 * var)[:, None] * gp._GH_NODES[None, :]
    probs = (expit(z) @ gp._GH_WEIGHTS) / math.sqrt(math.pi)
    return np.clip(probs, gp.PROB_CLIP, 1.0 - gp.PROB_CLIP)


def assert_same_fit(got, want):
    for name in ("f_hat", "grad_hat", "w_sqrt", "chol_b"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.lml == want.lml
    assert got.stationarity == want.stationarity
    assert got.iterations == want.iterations


def random_observations(seed, n, scale):
    rng = np.random.default_rng(seed)
    return [
        two_part_obs(scale * rng.standard_normal(1), scale * rng.standard_normal(10))
        for _ in range(n)
    ]


def combined(ls_force, ls_thermal, weights):
    return CombinedKernel(
        ((Modality.FORCE, RbfKernel(ls_force, 1.3)), (Modality.THERMAL, RbfKernel(ls_thermal, 0.7))),
        np.array(weights),
    )


# One gamma is zero in two of the three weightings: that part is skipped.
WEIGHTS = st.sampled_from([(0.4, 0.6), (0.0, 1.0), (1.0, 0.0)])
LENGTHS = st.floats(0.05, 20.0)
RHOS = st.sampled_from([0.0, 0.37, 1.0])


def split_points(n):
    return sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1)))


class TestBlockLayout:
    def test_mixed_modalities_rejected_at_build(self):
        with pytest.raises(SegmentationError):
            ObservationBlock.of([two_part_obs([0.1], np.zeros(10)), force_obs(0.3)])

    def test_mismatched_segment_sizes_rejected_at_build(self):
        with pytest.raises(SegmentationError):
            ObservationBlock.of([two_part_obs([0.1], np.zeros(10)), two_part_obs([0.1], np.zeros(9))])

    def test_kernel_layout_mismatch_rejected(self):
        block = ObservationBlock.of([force_obs(0.1), force_obs(0.2)])
        with pytest.raises(SegmentationError):
            training_gram(combined(1.0, 1.0, (0.5, 0.5)), block)

    def test_matrices_and_memo_are_read_only(self):
        block = ObservationBlock.of(random_observations(0, 4, 1.0))
        with pytest.raises(ValueError):
            block.matrix(Modality.THERMAL)[0, 0] = 1.0
        with pytest.raises(ValueError):
            block.sqdist(Modality.FORCE)[0, 0] = 1.0

    def test_slices_are_blocks_with_their_own_rows(self):
        obs = random_observations(1, 6, 1.0)
        block = ObservationBlock.of(obs)
        tail = block[2:]
        assert len(tail) == 4 and tail.modalities == MODS
        assert np.array_equal(tail.matrix(Modality.FORCE), ObservationBlock.of(obs[2:]).matrix(Modality.FORCE))

    def test_of_returns_the_same_block(self):
        block = ObservationBlock.of(random_observations(2, 3, 1.0))
        assert ObservationBlock.of(block) is block

    def test_memo_hit_returns_the_stored_matrix(self):
        block = ObservationBlock.of(random_observations(3, 5, 1.0))
        assert block.sqdist(Modality.THERMAL) is block.sqdist(Modality.THERMAL)
        assert block.split_sqdist(Modality.FORCE, 2) is block.split_sqdist(Modality.FORCE, 2)


class TestBitExactness:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        kernels=st.lists(st.tuples(LENGTHS, LENGTHS, WEIGHTS), min_size=1, max_size=4),
        rho=RHOS,
    )
    def test_training_gram_matches_list_path(self, seed, n, scale, kernels, rho):
        obs = random_observations(seed, n, scale)
        block = ObservationBlock.of(obs)
        # Every kernel and split point reuses the one block: the later calls
        # are memo hits.
        for _ in range(2):
            for ls_f, ls_t, weights in kernels:
                base = combined(ls_f, ls_t, weights)
                assert np.array_equal(training_gram(base, block), ref_training_gram(base, obs))
                for n_old in split_points(n):
                    k = DependentKernel(base, rho)
                    assert np.array_equal(
                        training_gram(k, block, n_old), ref_training_gram(k, obs, n_old)
                    )

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        m=st.integers(1, 25),
        kernel=st.tuples(LENGTHS, LENGTHS, WEIGHTS),
        rho=RHOS,
    )
    def test_prediction_cross_matches_list_path(self, seed, n, m, kernel, rho):
        train = random_observations(seed, n, 1.0)
        queries = random_observations(seed + 1, m, 1.0)
        block, star = ObservationBlock.of(train), ObservationBlock.of(queries)
        base = combined(*kernel)
        assert np.array_equal(prediction_cross(base, block, star), ref_prediction_cross(base, train, queries))
        for n_old in split_points(n):
            k = DependentKernel(base, rho)
            expected = ref_prediction_cross(k, train, queries, n_old)
            assert np.array_equal(prediction_cross(k, block, star, n_old), expected)
            assert np.array_equal(prediction_cross(k, block[:], queries, n_old), expected)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 20),
        kernels=st.lists(st.tuples(LENGTHS, LENGTHS, WEIGHTS), min_size=1, max_size=3),
        rho=RHOS,
    )
    def test_gpc_fit_matches_list_path(self, seed, n, kernels, rho):
        obs = random_observations(seed, n, 1.0)
        labels = np.where(np.random.default_rng(seed).random(n) < 0.5, 1.0, -1.0)
        block = ObservationBlock.of(obs)
        fits = []
        for ls_f, ls_t, weights in kernels:
            base = combined(ls_f, ls_t, weights)
            for kernel, n_old in [(base, 0)] + [
                (DependentKernel(base, rho), n_old) for n_old in split_points(n)
            ]:
                fits.append((kernel, n_old, gp.gpc_fit(kernel, block, labels, n_old)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "training_gram", lambda k, X, n_old=0: ref_training_gram(k, obs, n_old))
            for kernel, n_old, got in fits:
                want = gp.gpc_fit(kernel, obs, labels, n_old)
                assert got.lml == want.lml
                assert np.array_equal(got.f_hat, want.f_hat)


class TestLapackPath:
    """``gpc_fit`` / ``gpc_predict_batch`` against the scipy-wrapper reference."""

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        m=st.integers(1, 15),
        kernel=st.tuples(LENGTHS, LENGTHS, WEIGHTS),
        rho=RHOS,
        scale=st.sampled_from([0.1, 1.0, 5.0]),
    )
    def test_fit_and_predict_bit_identical(self, seed, n, m, kernel, rho, scale):
        block = ObservationBlock.of(random_observations(seed, n, scale))
        queries = ObservationBlock.of(random_observations(seed + 1, m, scale))
        labels = np.where(np.random.default_rng(seed).random(n) < 0.5, 1.0, -1.0)
        base = combined(*kernel)
        cases = [(base, 0)] + [(DependentKernel(base, rho), k) for k in split_points(n)]
        for kern, n_old in cases:
            got = gp.gpc_fit(kern, block, labels, n_old)
            assert_same_fit(got, ref_gpc_fit(kern, block, labels, n_old))
            assert np.array_equal(
                gp.gpc_predict_batch(got, queries), ref_gpc_predict_batch(got, queries)
            )

    def test_single_point(self):
        block = ObservationBlock.of(random_observations(7, 1, 1.0))
        for labels in ([1.0], [-1.0]):
            got = gp.gpc_fit(combined(0.5, 2.0, (0.4, 0.6)), block, labels)
            assert_same_fit(got, ref_gpc_fit(got.kernel, block, labels))
            assert np.array_equal(
                gp.gpc_predict_batch(got, block), ref_gpc_predict_batch(got, block)
            )

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), low=st.floats(-50.0, -4.5))
    def test_non_positive_definite_gram_raises_lin_alg_error_in_both(self, seed, n, low):
        # One eigenvalue below -4 leaves I + K / 4, the first Newton matrix,
        # indefinite.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.concatenate([[low], rng.uniform(0.1, 3.0, n - 1)])
        bad = (q * eig) @ q.T
        bad = 0.5 * (bad + bad.T)
        block = ObservationBlock.of(random_observations(seed, n, 1.0))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        kernel = combined(1.0, 1.0, (0.5, 0.5))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "training_gram", lambda k, X, n_old=0: bad)
            with pytest.raises(np.linalg.LinAlgError):
                gp.gpc_fit(kernel, block, labels)
        with pytest.raises(np.linalg.LinAlgError):
            ref_gpc_fit(kernel, block, labels, gram=bad)
