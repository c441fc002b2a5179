"""Observation blocks: layout checked once, memoised distances, and grams,
cross-covariances and Laplace fits bit-identical to the per-call list path.
The Laplace fit and the batch prediction, which call LAPACK directly, are
bit-identical to the same algorithm written over scipy's checked wrappers.

The reference functions below restack lists of one-row blocks on every call,
exactly as the kernels did before blocks existed, or factor and solve through
``scipy.linalg``; results are compared with ``np.array_equal`` / ``==``, never
with a tolerance."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from tactilab import gp, laplace
from tactilab.errors import ConvergenceError, NumericalError, ParameterError, SegmentationError
from tactilab.features import Modality
from tactilab.kernels import (
    CombinedKernel,
    DependentKernel,
    KernelStack,
    ObservationBlock,
    RbfKernel,
    prediction_cross,
    project_simplex,
    training_gram,
    training_gram_stack,
)

from conftest import force_obs, one_row, two_part_obs
from oracles import fit_sets, ova_fit

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
        xs = np.stack([o.matrix(mod)[0] for o in X])
        ys = np.stack([o.matrix(mod)[0] for o in Y])
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
    k = gram + laplace.GRAM_JITTER * np.eye(len(X_train))
    n = y.size
    f = np.zeros(n)
    a = np.zeros(n)
    trace = []
    for _ in range(laplace.LAPLACE_MAX_ITER):
        pi = expit(f)
        w = pi * (1.0 - pi)
        w_sqrt = np.sqrt(w)
        b_mat = np.eye(n) + (w_sqrt[:, None] * k) * w_sqrt[None, :]
        chol_b = cholesky(b_mat, lower=True)
        b = w * f + (t - pi)
        a = b - w_sqrt * cho_solve((chol_b, True), w_sqrt * (k @ b))
        f = k @ a
        trace.append(float(np.max(np.abs((t - expit(f)) - a))))
        if trace[-1] < laplace.LAPLACE_TOL:
            break
    pi = expit(f)
    w_sqrt = np.sqrt(pi * (1.0 - pi))
    chol_b = cholesky(np.eye(n) + (w_sqrt[:, None] * k) * w_sqrt[None, :], lower=True)
    lml = (
        -0.5 * float(a @ f)
        + float(np.sum(-np.logaddexp(0.0, -(y * f))))
        - float(np.sum(np.log(np.diag(chol_b))))
    )
    return laplace.BinaryGpcModel(
        kernel, X_train, y, n_old, f_hat=f, grad_hat=t - pi, w_sqrt=w_sqrt,
        chol_b=chol_b, lml=lml, stationarity=trace[-1], iterations=len(trace),
    )


def ref_single_laplace(k, y):
    """The Laplace fit of one problem as written before the stacked solve
    (GPML Alg. 3.1 over direct ``dpotrf`` / ``dpotrs`` calls) on a jittered
    gram ``k``: (f_hat, grad_hat, w_sqrt, chol_b, lml, stationarity,
    iterations), or the error it raises."""

    def factor(a):
        chol, info = dpotrf(a, lower=1, clean=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite"
            )
        return chol

    if not np.isfinite(k).all():
        raise NumericalError("training gram has non-finite entries")
    t = 0.5 * (y + 1.0)
    n = y.size
    eye = np.eye(n)
    f = np.zeros(n)
    a = np.zeros(n)
    pi = expit(f)
    trace = []
    converged = False
    for _ in range(laplace.LAPLACE_MAX_ITER):
        w = pi * (1.0 - pi)
        w_sqrt = np.sqrt(w)
        chol_b = factor(eye + (w_sqrt[:, None] * k) * w_sqrt[None, :])
        b = w * f + (t - pi)
        a = b - w_sqrt * dpotrs(chol_b, w_sqrt * (k @ b), lower=1)[0]
        f = k @ a
        pi = expit(f)
        residual = float(np.max(np.abs((t - pi) - a)))
        if not math.isfinite(residual):
            raise NumericalError(
                f"Laplace mode search hit a non-finite residual at iteration {len(trace) + 1}"
            )
        trace.append(residual)
        if residual < laplace.LAPLACE_TOL:
            converged = True
            break
    if not converged and trace[-1] >= 1e-6:
        raise ConvergenceError(
            f"Laplace mode search stalled at residual {trace[-1]:.3e} "
            f"after {len(trace)} iterations",
            trace=trace,
        )
    w_sqrt = np.sqrt(pi * (1.0 - pi))
    chol_b = factor(eye + (w_sqrt[:, None] * k) * w_sqrt[None, :])
    lml = (
        -0.5 * float(a @ f)
        + float(np.sum(-np.logaddexp(0.0, -(y * f))))
        - float(np.sum(np.log(np.diag(chol_b))))
    )
    return f, t - pi, w_sqrt, chol_b, lml, trace[-1], len(trace)


def ref_gpc_predict_batch(model, X_star):
    """Batch posterior over scipy's ``solve_triangular``."""
    X_star = ObservationBlock.of(X_star)
    k_star = prediction_cross(model.kernel, model.X_train, X_star, model.n_old)
    k_ss = laplace.prediction_diag(model.kernel, X_star)
    mu = k_star.T @ model.grad_hat
    v = solve_triangular(model.chol_b, model.w_sqrt[:, None] * k_star, lower=True)
    var = np.maximum(k_ss - np.sum(v**2, axis=0), 0.0)
    z = mu[:, None] + np.sqrt(2.0 * var)[:, None] * laplace._GH_NODES[None, :]
    probs = (expit(z) @ laplace._GH_WEIGHTS) / math.sqrt(math.pi)
    return np.clip(probs, laplace.PROB_CLIP, 1.0 - laplace.PROB_CLIP)


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


def fit_splits(n):
    """The split points a Laplace fit accepts: at least one new row."""
    return [n_old for n_old in split_points(n) if n_old < n]


class TestBlockLayout:
    def test_mixed_modalities_rejected_at_build(self):
        with pytest.raises(SegmentationError):
            ObservationBlock.of([two_part_obs([0.1], np.zeros(10)), force_obs(0.3)])

    def test_mismatched_segment_sizes_rejected_at_build(self):
        with pytest.raises(SegmentationError):
            ObservationBlock.of([two_part_obs([0.1], np.zeros(10)), two_part_obs([0.1], np.zeros(9))])

    def test_mismatched_point_widths_rejected(self):
        # Raw points have no modality to name; this raised AttributeError.
        with pytest.raises(SegmentationError, match="^point segments differ in size"):
            ObservationBlock.concat([ObservationBlock.of([[0.1]]), ObservationBlock.of([[0.1, 0.2]])])

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

    @pytest.mark.parametrize("n_old", [0, 3])
    def test_one_row_list_equals_rows_stacked_directly(self, n_old):
        """A list of one-row blocks through ``of`` is bit for bit the block of
        the same rows stacked directly: its matrices, grams and Laplace modes."""
        rng = np.random.default_rng(11)
        force, thermal = rng.standard_normal((8, 1)), rng.standard_normal((8, 10))
        listed = ObservationBlock.of([two_part_obs(f, t) for f, t in zip(force, thermal)])
        direct = ObservationBlock(MODS, (force, thermal), len(force))
        for mod in MODS:
            assert np.array_equal(listed.matrix(mod), direct.matrix(mod))
        kernel = DependentKernel(combined(0.8, 2.5, (0.4, 0.6)), 0.37)
        gram = training_gram(kernel, listed, n_old)
        assert np.array_equal(gram, training_gram(kernel, direct, n_old))
        labels = np.array([1.0] * 4 + [-1.0] * 4)
        fit = laplace.gpc_fit(kernel, listed, labels, n_old)
        assert_same_fit(fit, laplace.gpc_fit(kernel, direct, labels, n_old))

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
                (DependentKernel(base, rho), n_old) for n_old in fit_splits(n)
            ]:
                fits.append((kernel, n_old, laplace.gpc_fit(kernel, block, labels, n_old)))
            with pytest.raises(ParameterError, match="n_old"):
                laplace.gpc_fit(DependentKernel(base, rho), block, labels, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laplace, "training_gram", lambda k, X, n_old=0: ref_training_gram(k, obs, n_old))
            for kernel, n_old, got in fits:
                want = laplace.gpc_fit(kernel, obs, labels, n_old)
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
        cases = [(base, 0)] + [(DependentKernel(base, rho), k) for k in fit_splits(n)]
        for kern, n_old in cases:
            got = laplace.gpc_fit(kern, block, labels, n_old)
            assert_same_fit(got, ref_gpc_fit(kern, block, labels, n_old))
            assert np.array_equal(
                laplace.gpc_predict_batch(got, queries), ref_gpc_predict_batch(got, queries)
            )

    def test_single_point(self):
        block = ObservationBlock.of(random_observations(7, 1, 1.0))
        for labels in ([1.0], [-1.0]):
            got = laplace.gpc_fit(combined(0.5, 2.0, (0.4, 0.6)), block, labels)
            assert_same_fit(got, ref_gpc_fit(got.kernel, block, labels))
            assert np.array_equal(
                laplace.gpc_predict_batch(got, block), ref_gpc_predict_batch(got, block)
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
            mp.setattr(laplace, "training_gram", lambda k, X, n_old=0: bad)
            with pytest.raises(np.linalg.LinAlgError):
                laplace.gpc_fit(kernel, block, labels)
        with pytest.raises(np.linalg.LinAlgError):
            ref_gpc_fit(kernel, block, labels, gram=bad)


def indefinite_gram(rng, n, low=-8.0):
    """A symmetric matrix with one eigenvalue at ``low``: below -4 it leaves
    I + K / 4, the first Newton matrix, indefinite."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    bad = (q * np.concatenate([[low], rng.uniform(0.1, 3.0, n - 1)])) @ q.T
    return 0.5 * (bad + bad.T)


class TestStackedLaplace:
    """``training_gram_stack`` over one block and ``_laplace_modes`` against the single-kernel
    grams and the per-problem fit, with ``==`` / ``np.array_equal``."""

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        kernels=st.lists(st.tuples(LENGTHS, LENGTHS, WEIGHTS, RHOS), min_size=1, max_size=5),
    )
    def test_training_grams_match_single_kernel_grams(self, seed, n, kernels):
        obs = random_observations(seed, n, 1.0)
        block = ObservationBlock.of(obs)
        bases = [combined(ls_f, ls_t, weights) for ls_f, ls_t, weights, _ in kernels]
        for i, k in enumerate(training_gram_stack(bases, [block] * len(bases))):
            assert np.array_equal(k, ref_training_gram(bases[i], obs))
        dependent = [DependentKernel(b, rho) for b, (*_, rho) in zip(bases, kernels)]
        for n_old in split_points(n):
            for i, k in enumerate(training_gram_stack(dependent, [block] * len(dependent), n_old)):
                assert np.array_equal(k, ref_training_gram(dependent[i], obs, n_old))

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        kernels=st.lists(
            st.tuples(LENGTHS, LENGTHS, LENGTHS, st.sampled_from([(0.2, 0.3, 0.5), (0.0, 0.6, 0.4), (0.5, 0.0, 0.5)])),
            min_size=1,
            max_size=4,
        ),
    )
    def test_three_part_grams_sum_the_parts_in_order(self, seed, n, kernels):
        """With three parts the order of the sum shows in the last bits."""
        rng = np.random.default_rng(seed)
        mods = (Modality.FORCE, Modality.TEXTURE, Modality.THERMAL)
        obs = [one_row(*((mod, rng.standard_normal(3)) for mod in mods)) for _ in range(n)]
        bases = [
            CombinedKernel(
                tuple((mod, RbfKernel(ls, 1.0 + 0.1 * i)) for i, (mod, ls) in enumerate(zip(mods, lengths))),
                np.array(weights),
            )
            for *lengths, weights in kernels
        ]
        for i, k in enumerate(training_gram_stack(bases, [ObservationBlock.of(obs)] * len(bases))):
            assert np.array_equal(k, ref_training_gram(bases[i], obs))

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 45),
        items=st.lists(
            st.tuples(LENGTHS, LENGTHS, WEIGHTS, RHOS, st.floats(0.0, 1.0)), min_size=1, max_size=6
        ),
        bad=st.sampled_from([None, np.nan, np.inf, "indefinite"]),
    )
    def test_stack_matches_per_problem_fits(self, seed, n, items, bad):
        """One stack of problems of one size, each with its own kernel,
        rho, split and labels; one problem may carry a non-finite or
        indefinite gram, which fails alone."""
        rng = np.random.default_rng(seed)
        block = ObservationBlock.of(random_observations(seed, n, 1.0))
        grams, labels = [], []
        for ls_f, ls_t, weights, rho, split in items:
            n_old = min(int(split * n), n - 1)
            kernel = DependentKernel(combined(ls_f, ls_t, weights), rho)
            grams.append(training_gram(kernel, block, n_old) + laplace.GRAM_JITTER * np.eye(n))
            labels.append(np.where(rng.random(n) < 0.5, 1.0, -1.0))
        failing = None
        if bad is not None:
            failing = int(rng.integers(len(items)))
            if bad == "indefinite":
                grams[failing] = indefinite_gram(rng, n)
            else:
                grams[failing][rng.integers(n), rng.integers(n)] = bad
        modes = laplace._laplace_modes(np.stack(grams), np.stack(labels))
        assert len(modes) == len(items)
        for i, mode in enumerate(modes):
            try:
                want = ref_single_laplace(grams[i], labels[i])
            except (NumericalError, np.linalg.LinAlgError, ConvergenceError) as exc:
                assert type(mode) is type(exc) and str(mode) == str(exc)
                continue
            assert i != failing
            assert not isinstance(mode, Exception)
            for got, expected in zip(mode, want):
                assert np.array_equal(got, expected)
        if failing is not None:
            assert isinstance(modes[failing], (NumericalError, np.linalg.LinAlgError))

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.tuples(LENGTHS, LENGTHS, WEIGHTS),
        specs=st.lists(
            st.tuples(st.integers(1, 15), RHOS, st.floats(0.0, 1.0), st.booleans()),
            min_size=1,
            max_size=6,
        ),
        bad=st.sampled_from([None, np.nan, np.inf, "indefinite"]),
    )
    def test_fit_sets_matches_per_set_fits(self, seed, kernel, specs, bad):
        """Classes of mixed sizes and splits, some sharing a block as the
        sets of ``ova_sets`` do, inserted out of class order: each model is
        the set's own ``gpc_fit`` bit for bit. When one block's gram is
        non-finite or indefinite, ``fit_sets`` raises what the first failing
        class's own fit raises."""
        rng = np.random.default_rng(seed)
        base = combined(*kernel)
        sets = {}
        for cls in rng.permutation(len(specs)):
            n, rho, split, share = specs[cls]
            if share and sets:  # a set over an earlier class's block
                X = next(iter(sets.values())).X
                n = len(X)
            else:
                X = ObservationBlock.of(random_observations(int(rng.integers(2**32)), n, 1.0))
            y = tuple(np.where(rng.random(n) < 0.5, 1.0, -1.0).tolist())
            sets[int(cls) * 3] = laplace.PooledSet(X, y, min(int(split * n), n - 1), rho)

        real_stack = training_gram_stack
        bad_block = bad_gram = None
        if bad is not None:
            bad_block = sets[int(rng.choice(list(sets)))].X
            n = len(bad_block)
            bad_gram = indefinite_gram(rng, n) if bad == "indefinite" else np.zeros((n, n))
            if bad != "indefinite":
                bad_gram[rng.integers(n), rng.integers(n)] = bad

        def stack(kernels, blocks, n_old=0):
            grams = real_stack(kernels, blocks, n_old)
            for i, X in enumerate(blocks):
                if X is bad_block:
                    grams[i] = bad_gram
            return grams

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laplace, "training_gram_stack", stack)
            mp.setattr(laplace, "training_gram", lambda k, X, n_old=0: stack([k], [X], n_old)[0])
            want, error = {}, None
            for cls in sorted(sets):
                try:
                    want[cls] = sets[cls].fit(base)
                except (NumericalError, np.linalg.LinAlgError) as exc:
                    error = exc
                    break
            if error is not None:
                with pytest.raises(type(error)) as raised:
                    fit_sets(sets, base)
                assert type(raised.value) is type(error) and str(raised.value) == str(error)
                return
            got = fit_sets(sets, base)
        assert got.classes == tuple(sorted(sets))
        for cls, model in got.models.items():
            expected = want[cls]
            assert_same_fit(model, expected)
            assert np.array_equal(model.y, expected.y) and model.y.dtype == float
            assert model.y.flags.writeable
            assert model.n_old == expected.n_old
            assert model.kernel == expected.kernel
            assert model.X_train is expected.X_train

    def test_convergence_error_names_its_class(self, monkeypatch):
        """A stalled Laplace fit names the first failing class in class
        order, through ``ova_fit`` and through ``fit_sets`` over a mapping
        inserted out of order, and keeps the set's own message and trace."""
        monkeypatch.setattr(laplace, "LAPLACE_MAX_ITER", 1)
        obs = random_observations(3, 9, 1.0)
        labels = [7, 4, 9, 7, 4, 9, 7, 4, 9]
        kernel = combined(1.0, 2.0, (0.4, 0.6))
        sets = gp.ova_sets(obs, labels)
        with pytest.raises(ConvergenceError) as own:
            sets[4].fit(kernel)
        for fit in (
            lambda: ova_fit(kernel, obs, labels),
            lambda: fit_sets({cls: sets[cls] for cls in (9, 4, 7)}, kernel),
        ):
            with pytest.raises(ConvergenceError) as raised:
                fit()
            assert str(raised.value) == f"class 4: {own.value}"
            assert raised.value.trace == own.value.trace and len(own.value.trace) == 1


class TestStackedItems:
    """The stacked gram and prediction builders against their one-item
    cases (``training_gram`` per set, ``gpc_predict_batch`` per class) and
    the list-path references, with ``np.array_equal``."""

    def test_kernel_table_from_parameter_rows_matches_kernel_objects(self):
        """``KernelStack.combined`` over rows of length scales and weights
        (as the search decodes them) is the table of the ``CombinedKernel``
        objects of those rows, bit for bit; a row such a kernel rejects
        raises its ParameterError."""
        rng = np.random.default_rng(0)
        parts = ((Modality.FORCE, RbfKernel(1.0, 2.0)), (Modality.THERMAL, RbfKernel(1.0, 0.5)))
        ls = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), (6000, 2)))
        weights = project_simplex(rng.uniform(-1.0, 2.0, (6000, 2)))

        def kernel(row_ls, row_weights):
            return CombinedKernel(
                tuple((mod, RbfKernel(l, p.signal_variance)) for l, (mod, p) in zip(row_ls, parts)),
                row_weights,
            )

        got = KernelStack.combined(parts, ls, weights)
        want = KernelStack.of([kernel(*row) for row in zip(ls, weights)])
        assert got.modalities == want.modalities == MODS
        assert np.array_equal(got.table, want.table)
        for bad_ls, bad_weights in [((1.0, 0.0), (0.5, 0.5)), ((1.0, 2.0), (0.5, 0.6))]:
            rows = (np.array([(1.0, 1.0), bad_ls]), np.array([(0.5, 0.5), bad_weights]))
            with pytest.raises(ParameterError) as own:
                kernel(bad_ls, np.array(bad_weights))
            with pytest.raises(ParameterError) as got:
                KernelStack.combined(parts, *rows)
            assert str(got.value) == str(own.value)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        items=st.lists(
            st.tuples(st.integers(0, 2), LENGTHS, LENGTHS, WEIGHTS, RHOS), min_size=1, max_size=8
        ),
    )
    def test_gram_stack_matches_per_set_grams(self, seed, n, items):
        """Items over three blocks of one size (several items share a block),
        each with its own kernel and rho, some with a zero-weight part."""
        observations = [random_observations(seed + b, n, 1.0) for b in range(3)]
        blocks = [ObservationBlock.of(obs) for obs in observations]
        bases = [combined(ls_f, ls_t, weights) for _, ls_f, ls_t, weights, _ in items]
        which = [b for b, *_ in items]
        stack = training_gram_stack(bases, [blocks[b] for b in which])
        for k, base, b in zip(stack, bases, which):
            assert np.array_equal(k, training_gram(base, blocks[b]))
            assert np.array_equal(k, ref_training_gram(base, observations[b]))
        dependent = [DependentKernel(base, rho) for base, (*_, rho) in zip(bases, items)]
        for n_old in split_points(n):
            stack = training_gram_stack(dependent, [blocks[b] for b in which], n_old)
            for k, kernel, b in zip(stack, dependent, which):
                assert np.array_equal(k, training_gram(kernel, blocks[b], n_old))
                assert np.array_equal(k, ref_training_gram(kernel, observations[b], n_old))

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernels=st.lists(st.tuples(LENGTHS, LENGTHS, WEIGHTS), min_size=1, max_size=3),
        specs=st.lists(
            st.tuples(st.integers(2, 12), RHOS, st.floats(0.0, 1.0), st.booleans()),
            min_size=1,
            max_size=7,
        ),
        search_rho=st.booleans(),
    )
    def test_solve_sets_builds_one_gram_stack_per_size_and_split(
        self, seed, kernels, specs, search_rho
    ):
        """Sets of mixed sizes and splits, each with its own rho (or every
        kernel's searched rho), some sharing a block: one stack call per
        (size, split), every item the set's own gram, and every mode that
        of the set solved alone."""
        rng = np.random.default_rng(seed)
        bases = [combined(*kernel) for kernel in kernels]
        rhos = [float(r) for r in rng.uniform(0.0, 1.0, len(bases))] if search_rho else None
        sets = []
        for n, rho, split, share in specs:
            X = sets[-1].X if share and sets else ObservationBlock.of(
                random_observations(int(rng.integers(2**32)), n, 1.0)
            )
            n = len(X)
            y = tuple(np.where(rng.random(n) < 0.5, 1.0, -1.0).tolist())
            sets.append(laplace.PooledSet(X, y, min(int(split * n), n - 1), rho))

        calls = []

        def spy(stacked, blocks, n_old=0):
            grams = training_gram_stack(stacked, blocks, n_old)
            calls.append((stacked, blocks, n_old, grams))
            return grams

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laplace, "training_gram_stack", spy)
            got = laplace._solve_sets(sets, bases, rhos)
        assert sorted((len(blocks[0]), n_old) for _, blocks, n_old, _ in calls) == sorted(
            {(len(s.X), s.n_old) for s in sets}
        )
        for stacked, blocks, n_old, grams in calls:  # item i: kernel i % m of a set
            for i, (X, k) in enumerate(zip(blocks, grams)):
                kernel = bases[i % len(bases)]
                if n_old:
                    rho = stacked.rhos[i]
                    if search_rho:
                        assert rho == rhos[i % len(bases)]
                    else:
                        assert any(s.X is X and s.n_old == n_old and s.rho == rho for s in sets)
                    kernel = DependentKernel(kernel, rho)
                assert np.array_equal(k, training_gram(kernel, X, n_old))
        for s, modes in zip(sets, got):
            for mode, alone in zip(modes, laplace._solve_sets([s], bases, rhos)[0]):
                if isinstance(alone, Exception):
                    assert type(mode) is type(alone) and str(mode) == str(alone)
                else:
                    for a, b in zip(mode, alone):
                        assert np.array_equal(a, b)

    @staticmethod
    def mixed_model(seed, specs, kernels):
        """A one-vs-all model whose classes have their own sizes, splits and
        rhos, each fitted under one of ``kernels``; the model's kernel is the
        first."""
        rng = np.random.default_rng(seed)
        bases = [combined(*kernel) for kernel in kernels]
        models = {}
        for cls, (n, rho, split, which) in enumerate(specs):
            X = ObservationBlock.of(random_observations(int(rng.integers(2**32)), n, 1.0))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            n_old = min(int(split * n), n - 1)
            base = bases[which % len(bases)]
            kernel = DependentKernel(base, rho) if n_old else base
            models[cls] = laplace.gpc_fit(kernel, X, y, n_old)
        return gp.OvaGpcModel(tuple(models), models, bases[0])

    MODEL_SPECS = st.lists(
        st.tuples(st.integers(1, 10), RHOS, st.floats(0.0, 1.0), st.integers(0, 2)),
        min_size=1,
        max_size=6,
    )

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        specs=MODEL_SPECS,
        kernels=st.lists(st.tuples(LENGTHS, LENGTHS, WEIGHTS), min_size=1, max_size=3),
        sizes=st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=6),
        own_rows=st.booleans(),
    )
    def test_ova_predict_groups_matches_per_class_predictions(
        self, seed, specs, kernels, sizes, own_rows
    ):
        """Classes with mixed splits and kernels, one-query and many-query
        groups (several of one size), and optionally a class's own training
        block as a group."""
        model = self.mixed_model(seed, specs, kernels)
        groups = [random_observations(seed + 1 + g, q, 1.0) for g, q in enumerate(sizes)]
        if own_rows:
            groups.append(model.models[model.classes[-1]].X_train)
        got = gp.ova_predict_groups(model, groups)
        assert len(got) == len(groups)
        for probs, X in zip(got, groups):
            assert probs.shape == (len(X), len(model.classes))
            assert np.array_equal(probs, gp.ova_predict_proba(model, X))
            for c, cls in enumerate(model.classes):
                binary = model.models[cls]
                assert np.array_equal(probs[:, c], laplace.gpc_predict_batch(binary, X))
                assert np.array_equal(probs[:, c], ref_gpc_predict_batch(binary, X))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cross_covariance_in_one_item_raises(self, bad):
        model = self.mixed_model(5, [(6, 0.37, 0.0, 0), (6, 0.37, 0.0, 1), (6, 1.0, 0.0, 0)],
                                 [(0.5, 2.0, (0.4, 0.6)), (1.5, 0.7, (0.4, 0.6))])
        groups = [random_observations(11, 3, 1.0), random_observations(12, 3, 1.0)]
        real = laplace.prediction_cross_stack

        def poisoned(kernels, trains, stars, n_old=0):
            k = real(kernels, trains, stars, n_old)
            for i, X in enumerate(trains):
                if X is model.models[1].X_train:
                    k[i, -1, 0] = bad
            return k

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laplace, "prediction_cross_stack", poisoned)
            with pytest.raises(NumericalError) as alone:
                laplace.gpc_predict_batch(model.models[1], groups[0])
            with pytest.raises(NumericalError) as stacked:
                gp.ova_predict_groups(model, groups)
            assert gp.ova_predict_groups(
                gp.OvaGpcModel((0, 2), {0: model.models[0], 2: model.models[2]}, model.kernel),
                groups,
            )
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "prediction cross-covariance has non-finite entries"
