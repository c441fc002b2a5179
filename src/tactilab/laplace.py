"""Binary Gaussian-process engine.

Exact GP regression at given hyperparameters, and binary GP classification
via the Laplace approximation with a logistic noise model (Rasmussen &
Williams, GPML Alg. 3.1/3.2). ``_laplace_modes`` runs the Newton iteration
over a stack of binary problems of one size, and ``gpc_fit`` is its
one-problem case. A ``PooledSet`` is one binary training problem;
``_solve_sets`` solves a list of sets under a list of kernels, with one
``training_gram_stack`` call per set size and split, and all (kernel, set)
problems of one size in one stacked Newton iteration. Predictions are
stacked the same way: ``_predict_items`` predicts every (model, query block)
item at once, and ``gpc_predict_batch`` is its one-item case.

Each Newton matrix is solved by one ``dposv`` call; every other factorization
and solve calls LAPACK directly (``dpotrf``, ``dpotrs``, ``dtrtrs``) with the
arguments scipy's ``cholesky`` / ``cho_solve`` / ``solve_triangular`` pass,
one matrix per call, so results are bit-identical to those wrappers without
their per-call validation (``dposv`` is ``dpotrf`` then ``dpotrs``); the
stacked steps (elementwise ops, ``matmul`` matrix-vector products, row
reductions) give each problem the bits of a fit on its own. Finiteness is
checked explicitly instead: once per fit on the gram, once per Newton step on
the stationarity residual and once per prediction on the cross-covariance;
each raises NumericalError (a stacked problem fails alone).

The four LAPACK wrappers and ``expit`` are the objects ``scipy.linalg.lapack``
and ``scipy.special`` export, taken by ``blas.scipy_routines`` from the
extension modules ``scipy.linalg._flapack`` and
``scipy.special._special_ufuncs`` without running those packages' inits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .blas import scipy_routines
from .errors import ConvergenceError, NumericalError, ParameterError
from .kernels import (
    DependentKernel,
    KernelStack,
    ObservationBlock,
    prediction_cross,
    prediction_cross_stack,
    prediction_diag,
    training_gram,
    training_gram_stack,
)

dposv, dpotrf, dpotrs, dtrtrs = scipy_routines(
    "scipy.linalg._flapack", "scipy.linalg.lapack", ("dposv", "dpotrf", "dpotrs", "dtrtrs")
)
(expit,) = scipy_routines("scipy.special._special_ufuncs", "scipy.special", ("expit",))

GRAM_JITTER = 1e-8
LAPLACE_MAX_ITER = 100
LAPLACE_TOL = 1e-9  # stationarity target; the contract requires < 1e-6
PROB_CLIP = 1e-12

#: The positive half of the 32-point Gauss-Hermite rule, nodes then weights:
#: ``np.polynomial.hermite.hermgauss(32)`` makes the rule exactly symmetric,
#: so these literals mirror to its bits without importing numpy.polynomial.
_GH_HALF = np.array([
    [0.19484074156939934, 0.5849787654359324, 0.9765004635896828, 1.3703764109528718,
     1.7676541094632015, 2.169499183606112, 2.5772495377323175, 2.992490825002374,
     3.417167492818571, 3.853755485471445, 4.305547953351199, 4.777164503502596,
     5.2755509865158805, 5.812225949515914, 6.409498149269661, 7.125813909830728],
    [0.37523835259280247, 0.27745814230252996, 0.15126973407664232, 0.06045813095591269,
     0.017553428831573438, 0.003654890326654426, 0.000536268365527972, 5.416584061819991e-05,
     3.650585129562378e-06, 1.5741677925455882e-07, 4.098832164770879e-09,
     5.933291463396676e-11, 4.2150102113264155e-13, 1.1973440170928503e-15,
     9.231736536518258e-19, 7.310676427384096e-23],
])
_GH_NODES = np.concatenate((-_GH_HALF[0, ::-1], _GH_HALF[0]))
_GH_WEIGHTS = np.concatenate((_GH_HALF[1, ::-1], _GH_HALF[1]))


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} has non-finite entries")


def _factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (Fortran order) of a finite symmetric matrix."""
    chol, info = dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return chol


def _pos_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a finite symmetric positive definite ``a`` (read
    from its lower triangle) in one ``dposv`` call: ``dpotrf`` then
    ``dpotrs``, the bits of the two calls."""
    _, x, info = dposv(a, b, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dposv")
    return x


def _tri_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a lower factor L returned by ``_factor``."""
    x, info = dtrtrs(chol, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular factor at diagonal {info - 1}")
    return x


def _chol_with_jitter(a: np.ndarray):
    """Lower Cholesky factor, escalating diagonal jitter only on failure."""
    _require_finite(a, "matrix to factor")
    jitter = 0.0
    for _ in range(6):
        try:
            mat = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return _factor(mat), jitter
        except np.linalg.LinAlgError:
            jitter = GRAM_JITTER if jitter == 0.0 else jitter * 10.0
    raise NumericalError(
        f"matrix not factorizable after jitter escalation to {jitter:g}"
    )


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------


@dataclass
class GprModel:
    kernel: object
    X_train: ObservationBlock
    y: np.ndarray
    noise_variance: float
    chol: np.ndarray = field(repr=False, default=None)
    alpha: np.ndarray = field(repr=False, default=None)
    lml: float = float("nan")


def gpr_fit(kernel, X_train, y, noise_variance: float = 0.0) -> GprModel:
    if len(X_train) < 1:
        raise ParameterError("gpr_fit needs at least one training point")
    if noise_variance < 0:
        raise ParameterError("noise variance must be >= 0")
    y = np.asarray(y, dtype=float).ravel()
    _require_finite(y, "regression target vector")
    X_train = ObservationBlock.of(X_train)
    k = training_gram(kernel, X_train)
    a = k + noise_variance * np.eye(k.shape[0])
    chol, _ = _chol_with_jitter(a)
    alpha, info = dpotrs(chol, y, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    n = y.size
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return GprModel(kernel, X_train, y, noise_variance, chol, alpha, lml)


def gpr_predict(model: GprModel, x_star) -> tuple[float, float]:
    """Posterior mean and variance (including observation noise) at a point."""
    k_star = prediction_cross(model.kernel, model.X_train, [x_star])
    _require_finite(k_star, "prediction cross-covariance")
    k_ss = prediction_diag(model.kernel, [x_star])[0]
    mean = float(k_star[:, 0] @ model.alpha)
    v = _tri_solve(model.chol, k_star[:, 0])
    var = float(k_ss - v @ v + model.noise_variance)
    return mean, var


# ---------------------------------------------------------------------------
# Binary classification (Laplace)
# ---------------------------------------------------------------------------


@dataclass
class BinaryGpcModel:
    kernel: object
    X_train: ObservationBlock
    y: np.ndarray  # labels in {-1, +1}
    n_old: int = 0  # leading rows of X_train forming the transferred block
    f_hat: np.ndarray = field(repr=False, default=None)
    grad_hat: np.ndarray = field(repr=False, default=None)  # t - sigmoid(f_hat)
    w_sqrt: np.ndarray = field(repr=False, default=None)
    chol_b: np.ndarray = field(repr=False, default=None)
    lml: float = float("nan")
    stationarity: float = float("nan")
    iterations: int = 0


class _LaplaceMode(NamedTuple):
    f_hat: np.ndarray
    grad_hat: np.ndarray
    w_sqrt: np.ndarray
    chol_b: np.ndarray
    lml: float
    stationarity: float
    iterations: int


def _check_binary_problem(y: np.ndarray, n: int, n_old: int) -> None:
    if y.size != n:
        raise ParameterError("labels must match training inputs")
    if n == 0:
        raise ParameterError("a binary fit needs at least one training point")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ParameterError("binary labels must be -1 or +1")
    if not 0 <= n_old < n:
        raise ParameterError(f"n_old must lie in [0, {n}) for {n} training points, got {n_old}")


def _matvec(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k[j] @ v[j] for every j: one gemv per matrix, as for a single one."""
    return np.matmul(k, v[..., None])[..., 0]


def _b_matrices(k: np.ndarray, w_sqrt: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """B = I + W^1/2 K W^1/2 of every problem of a stack, built in one
    buffer: the bits of ``eye + (w_sqrt k) w_sqrt``."""
    b = w_sqrt[:, :, None] * k
    b *= w_sqrt[:, None, :]
    b += eye
    return b


def _laplace_modes(k: np.ndarray, y: np.ndarray) -> list:
    """Newton iteration to the Laplace mode of the latent posterior
    (Rasmussen & Williams, GPML Alg. 3.1) for a stack of binary problems of
    one size: ``k`` holds the (m, n, n) jittered grams, ``y`` the (m, n)
    labels in {-1, +1}. Returns one entry per problem, its ``_LaplaceMode``
    or the error its fit raised (NumericalError, LinAlgError or
    ConvergenceError).

    The elementwise steps, the matrix-vector products (stacked ``matmul``)
    and the row reductions run over the whole stack; each Newton matrix is
    solved alone (``dposv``), as a stacked Cholesky is not bit-identical to
    LAPACK's. A problem leaves the stack when it converges or fails, so its
    numbers are those of a fit on its own."""
    m, n = y.shape
    eye = np.eye(n)
    out: list = [None] * m
    # A finite gram keeps every B = I + W^1/2 K W^1/2 finite; a step that
    # turns non-finite shows up in the residual, checked at every step.
    finite = np.isfinite(k).all(axis=(1, 2))
    ids = np.flatnonzero(finite)
    if ids.size < m:
        for i in np.flatnonzero(~finite):
            out[i] = NumericalError("training gram has non-finite entries")
        k, y = k[ids], y[ids]
    t = 0.5 * (y + 1.0)
    f = np.zeros((ids.size, n))
    pi = expit(f)
    history = []  # (ids, residuals) per iteration
    for it in range(1, LAPLACE_MAX_ITER + 1):
        if not ids.size:
            break
        w = pi * (1.0 - pi)
        w_sqrt = np.sqrt(w)
        b = w * f + (t - pi)
        rhs = w_sqrt * _matvec(k, b)
        solved = np.zeros_like(rhs)
        failed = []
        for j, mat in enumerate(_b_matrices(k, w_sqrt, eye)):
            try:
                solved[j] = _pos_solve(mat, rhs[j])
            except np.linalg.LinAlgError as exc:
                out[ids[j]] = exc
                failed.append(j)
        a = b - w_sqrt * solved
        f = _matvec(k, a)
        pi = expit(f)
        residual = np.abs((t - pi) - a).max(axis=1)
        history.append((ids, residual))
        # The sum is non-finite when any residual is (NaN compares False).
        last = it == LAPLACE_MAX_ITER
        if not (failed or last or residual.min() < LAPLACE_TOL or not residual.sum() < np.inf):
            continue
        keep = np.ones(ids.size, dtype=bool)
        keep[failed] = False
        converged = []
        running = (residual >= LAPLACE_TOL) & (residual < np.inf)
        for j in np.flatnonzero(keep if last else keep & ~running):
            keep[j] = False
            if not math.isfinite(residual[j]):
                out[ids[j]] = NumericalError(
                    f"Laplace mode search hit a non-finite residual at iteration {it}"
                )
            elif residual[j] >= 1e-6:
                trace = [float(r[i == ids[j]][0]) for i, r in history]
                out[ids[j]] = ConvergenceError(
                    f"Laplace mode search stalled at residual {trace[-1]:.3e} "
                    f"after {it} iterations",
                    trace=trace,
                )
            else:
                converged.append(j)
        if converged:
            _finish(
                eye, k[converged], y[converged], f[converged], a[converged], pi[converged],
                residual[converged], it, ids[converged], out,
            )
        ids, k, y, t, f, pi = ids[keep], k[keep], y[keep], t[keep], f[keep], pi[keep]
    return out


def _finish(eye, k, y, f, a, pi, residual, iterations, ids, out) -> None:
    """Laplace LML (GPML Alg. 3.2 without the gradient) at the converged
    modes of a stack, each entered in ``out`` as its ``_LaplaceMode``."""
    w_sqrt = np.sqrt(pi * (1.0 - pi))
    chols = []
    diag = np.ones_like(f)
    for j, mat in enumerate(_b_matrices(k, w_sqrt, eye)):
        try:
            chols.append(_factor(mat))
            diag[j] = chols[j].diagonal()
        except np.linalg.LinAlgError as exc:
            out[ids[j]] = exc
            chols.append(None)
    lml = (
        -0.5 * np.matmul(a[:, None, :], f[:, :, None])[:, 0, 0]
        + _log_sigmoid(y * f).sum(axis=1)
        - np.log(diag).sum(axis=1)
    )
    grad = 0.5 * (y + 1.0) - pi
    for j, chol in enumerate(chols):
        if chol is not None:
            out[ids[j]] = _LaplaceMode(
                f[j], grad[j], w_sqrt[j], chol, float(lml[j]), float(residual[j]), iterations
            )


def gpc_fit(kernel, X_train, labels, n_old: int = 0) -> BinaryGpcModel:
    """Newton iteration to the Laplace mode of the latent posterior
    (Rasmussen & Williams, GPML Alg. 3.1): the one-problem case of
    ``_laplace_modes``."""
    X_train = ObservationBlock.of(X_train)
    y = np.asarray(labels, dtype=float).ravel()
    _check_binary_problem(y, len(X_train), n_old)
    k = training_gram(kernel, X_train, n_old) + GRAM_JITTER * np.eye(y.size)
    (mode,) = _laplace_modes(k[None], y[None])
    if isinstance(mode, Exception):
        raise mode
    return BinaryGpcModel(kernel, X_train, y, n_old, **mode._asdict())


def gpc_predict_batch(model: BinaryGpcModel, X_star) -> np.ndarray:
    """Posterior probability of the +1 label for each query point."""
    (probs,) = _predict_items([(model, ObservationBlock.of(X_star))])
    return probs


def _predict_items(items: Sequence[tuple[BinaryGpcModel, ObservationBlock]]) -> list:
    """``gpc_predict_batch(model, X_star)`` of every (model, query block)
    item, bit for bit. Items of one training size, split, query count and
    base kernel form a group, which gets one stacked cross-covariance, one
    stacked ``matmul`` per matrix-vector step and one stacked Gauss-Hermite
    step; ``dtrtrs`` and its column sums run per matrix."""
    groups: dict = {}
    for i, (model, X_star) in enumerate(items):
        dependent = isinstance(model.kernel, DependentKernel)
        base = model.kernel.base if dependent else model.kernel
        key = (len(model.X_train), model.n_old if dependent else 0, len(X_star), id(base))
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(items)
    for (_, n_old, _, _), idx in groups.items():
        models, stars = zip(*[items[i] for i in idx])
        k_star = prediction_cross_stack(
            [model.kernel for model in models], [model.X_train for model in models], stars, n_old
        )
        k_ss = prediction_diag(models[0].kernel, stars[0])
        _require_finite(k_star, "prediction cross-covariance")
        mu = _matvec(k_star.swapaxes(1, 2), np.array([model.grad_hat for model in models]))
        rhs = np.array([model.w_sqrt for model in models])[:, :, None] * k_star
        v_sq = np.empty(mu.shape)
        for j, model in enumerate(models):
            v_sq[j] = np.sum(_tri_solve(model.chol_b, rhs[j]) ** 2, axis=0)
        var = np.maximum(k_ss - v_sq, 0.0)
        # Marginalize the logistic over the Gaussian latent with Gauss-Hermite.
        z = mu[..., None] + np.sqrt(2.0 * var)[..., None] * _GH_NODES
        probs = (expit(z) @ _GH_WEIGHTS) / math.sqrt(math.pi)
        probs = np.clip(probs, PROB_CLIP, 1.0 - PROB_CLIP)
        for j, i in enumerate(idx):
            out[i] = probs[j]
    return out


def gpc_predict(model: BinaryGpcModel, x_star) -> float:
    return float(gpc_predict_batch(model, [x_star])[0])


# ---------------------------------------------------------------------------
# Stacked set solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PooledSet:
    """One binary training problem sharing the kernel under search: the first
    ``n_old`` rows are transfer-block observations coupled at ``rho``. ``X``
    is held as one observation block, so every fit of the set during a search
    reuses its squared distances."""

    X: ObservationBlock
    y: tuple
    n_old: int = 0
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "X", ObservationBlock.of(self.X))

    def fit(self, kernel) -> BinaryGpcModel:
        """Binary Laplace fit of this set under ``kernel`` (wrapped in the
        rho-scaled block kernel when the set carries a transfer block)."""
        if self.n_old > 0:
            kernel = DependentKernel(kernel, self.rho)
        return gpc_fit(kernel, self.X, self.y, n_old=self.n_old)


def _check_sets(sets, caller: str) -> None:
    if not sets:
        raise ParameterError(f"{caller} needs at least one set")
    for s in sets:
        _check_binary_problem(np.asarray(s.y, dtype=float), len(s.X), s.n_old)


def _solve_sets(sets: Sequence[PooledSet], kernels, rhos) -> list:
    """The Laplace mode of every set under each kernel: per set, one entry
    per kernel, its ``_LaplaceMode`` or the error its fit raised (the
    bits of ``s.fit(kernel)``). ``kernels`` is a ``KernelStack`` or kernel
    objects; ``rhos`` gives each kernel's rho for every set, and without it
    each set keeps its own.

    The grams of all sets of one size and split come from one
    ``training_gram_stack`` call (sets holding the same block, split and
    rhos share theirs), and every (kernel, set) problem of one size joins
    one ``_laplace_modes`` stack."""
    stack = KernelStack.of(kernels)
    m = len(stack)
    rows: dict = {}  # (block, split, own rho) -> (size, split), first row of its grams there
    groups: dict = {}  # (size, split) -> the rhos and blocks of its gram stack
    where = []  # per set, its rows
    for s in sets:
        key = (id(s.X), s.n_old, s.rho if s.n_old and rhos is None else None)
        if key not in rows:
            group_rhos, blocks = groups.setdefault((len(s.X), s.n_old), ([], []))
            rows[key] = (len(s.X), s.n_old), len(blocks)
            group_rhos.append(np.full(m, s.rho) if rhos is None else rhos)
            blocks.extend([s.X] * m)
        where.append(rows[key])
    grams = {}
    for (n, n_old), (group_rhos, blocks) in groups.items():  # the kernels once per block
        items = KernelStack(
            stack.modalities,
            np.concatenate([stack.table] * len(group_rhos)),
            np.concatenate(group_rhos) if n_old else None,
        )
        grams[n, n_old] = training_gram_stack(items, blocks, n_old)
    stacks: dict = {}  # size -> (grams, labels, set indices)
    for si, (s, (group, row)) in enumerate(zip(sets, where)):
        grams_list, labels, indices = stacks.setdefault(len(s.X), ([], [], []))
        grams_list.append(grams[group][row : row + m])
        labels.append(s.y)
        indices.append(si)
    out: list = [None] * len(sets)
    for n, (grams_list, labels, indices) in stacks.items():
        k = np.concatenate(grams_list)
        k += GRAM_JITTER * np.eye(n)
        modes = _laplace_modes(k, np.repeat(np.array(labels, dtype=float), m, axis=0))
        for row, si in enumerate(indices):
            out[si] = modes[row * m : (row + 1) * m]
    return out
