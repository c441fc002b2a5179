"""Gaussian-process engine.

Exact GP regression at given hyperparameters, binary GP classification via
the Laplace approximation with a logistic noise model (Rasmussen & Williams,
GPML Alg. 3.1/3.2), and one-vs-all multiclass on top of the binary machinery.

There is one hyperparameter search, ``optimize_kernel_for_sets``: gradient-free
multi-start coordinate ascent on the summed binary Laplace log marginal
likelihood of a list of ``PooledSet``s. A one-vs-all ensemble is one set per
class, all over the same observation block (``ova_sets``); relatedness
selection is one set whose transfer-block rho joins the parameter vector.
The starts' ascents advance in lockstep rounds: the first round scores every
start with its first scan, each later round the pending scan of every live
ascent (a scan is every remaining step of the sweep from the current point;
its first improving step is taken), and each ascent reads its values in the
order of trying one step at a time. A round's points are decoded into one
kernel table (``KernelStack``) and scored in chunks of at most
``STACK_BYTES`` of grams: one ``training_gram_stack`` call per set size and
split, and all (point, set) problems of one size in one stacked Newton
iteration (``_laplace_modes``). A decoded kernel is solved at most once per
search. The search hands back the Laplace modes of its best point, and
``ova_from_modes`` makes the one-vs-all model from them; ``fit_sets`` fits
models at one kernel through the same ``_solve_sets`` path, and ``gpc_fit``
is the iteration's one-problem case. Predictions are stacked the same way:
``ova_predict_groups`` predicts every (class, query group) item of a model at
once, and ``gpc_predict_batch`` is its one-item case.

Each Newton matrix is solved by one ``dposv`` call; every other factorization
and solve calls LAPACK directly (``dpotrf``, ``dpotrs``, ``dtrtrs``) with the
arguments scipy's ``cholesky`` / ``cho_solve`` / ``solve_triangular`` pass,
one matrix per call, so results are bit-identical to those wrappers without
their per-call validation (``dposv`` is ``dpotrf`` then ``dpotrs``); the
stacked steps (elementwise ops, ``matmul`` matrix-vector products, row
reductions) give each problem the bits of a fit on its own. Finiteness is
checked explicitly instead: once per fit on the gram, once per Newton step on
the stationarity residual and once per prediction on the cross-covariance;
each raises NumericalError (a stacked problem fails alone)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf, dpotrs, dtrtrs
from scipy.special import expit

from .errors import ConvergenceError, NumericalError, OptimizationError, ParameterError
from .kernels import (
    CombinedKernel,
    DependentKernel,
    KernelStack,
    ObservationBlock,
    RbfKernel,
    prediction_cross,
    prediction_cross_stack,
    prediction_diag,
    project_simplex,
    training_gram,
    training_gram_stack,
)

GRAM_JITTER = 1e-8
LAPLACE_MAX_ITER = 100
LAPLACE_TOL = 1e-9  # stationarity target; the contract requires < 1e-6
PROB_CLIP = 1e-12

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(32)


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _check_finite(a: np.ndarray, what: str) -> None:
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
    _check_finite(a, "matrix to factor")
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
    _check_finite(y, "regression target vector")
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
    _check_finite(k_star, "prediction cross-covariance")
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
        _check_finite(k_star, "prediction cross-covariance")
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
# One-vs-all multiclass
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


@dataclass
class OvaGpcModel:
    classes: tuple[int, ...]
    models: dict[int, BinaryGpcModel]

    def __post_init__(self):
        if set(self.classes) != set(self.models):
            raise ParameterError("need exactly one binary model per class")
        object.__setattr__(self, "classes", tuple(sorted(self.classes)))


def ova_sets(X, labels) -> dict[int, PooledSet]:
    """One class-vs-rest binary set per class, in sorted class order. Every
    set holds the same observation block, so all classes share its
    distances."""
    X = ObservationBlock.of(X)
    labels = [int(lb) for lb in labels]
    return {
        cls: PooledSet(X, tuple(1.0 if lb == cls else -1.0 for lb in labels))
        for cls in sorted(set(labels))
    }


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


def fit_sets(sets: Mapping[int, PooledSet], kernel) -> OvaGpcModel:
    """The models ``{cls: s.fit(kernel)}`` bit for bit, solved in one
    ``_solve_sets`` call (see ``ova_from_modes`` for its errors)."""
    _check_sets(sets.values(), "fit_sets")
    solved = _solve_sets(list(sets.values()), [kernel], None)
    return ova_from_modes(sets, kernel, [mode for (mode,) in solved])


def ova_from_modes(sets: Mapping[int, PooledSet], kernel, modes: Sequence) -> OvaGpcModel:
    """The one-vs-all model of ``sets`` (class -> set) under ``kernel`` from
    each set's Laplace mode at its own rho, ``modes`` in the order of
    ``sets`` (``_LaplaceMode``s or errors, as ``_solve_sets`` gives them):
    the models of ``fit_sets(sets, kernel)``. Raises the error of the first
    failing class in class order; a ConvergenceError names its class."""
    by_class = dict(zip(sets, modes))
    classes = sorted(sets)
    models = {}
    for cls in classes:
        mode = by_class[cls]
        if isinstance(mode, ConvergenceError):
            raise ConvergenceError(f"class {cls}: {mode}", trace=mode.trace) from mode
        if isinstance(mode, Exception):
            raise mode
        s = sets[cls]
        kern = DependentKernel(kernel, s.rho) if s.n_old else kernel
        y = np.asarray(s.y, dtype=float)
        models[cls] = BinaryGpcModel(kern, s.X, y, s.n_old, **mode._asdict())
    return OvaGpcModel(tuple(classes), models)


def ova_fit(kernel, X, labels) -> OvaGpcModel:
    """One binary model per class, each trained on the same observation block."""
    sets = ova_sets(X, labels)
    if len(sets) < 2:
        raise ParameterError("one-vs-all needs at least two classes")
    return fit_sets(sets, kernel)


def ova_predict_proba(model: OvaGpcModel, X_star) -> np.ndarray:
    """Raw per-class binary posteriors, one column per class (not renormalized)."""
    return ova_predict_groups(model, [X_star])[0]


def ova_predict_groups(model: OvaGpcModel, groups: Sequence) -> list:
    """``ova_predict_proba(model, X)`` of each query group X, bit for bit,
    from one stacked prediction over every (class, group) item."""
    groups = [ObservationBlock.of(X) for X in groups]
    items = [(model.models[cls], X) for X in groups for cls in model.classes]
    probs = _predict_items(items)
    c = len(model.classes)
    return [np.column_stack(probs[g * c : (g + 1) * c]) for g in range(len(groups))]


def argmax_label(classes: Sequence[int], probs: Sequence[float]) -> int:
    """Argmax with lowest-class-id tie-break (classes assumed sorted)."""
    best_cls, best_p = classes[0], probs[0]
    for cls, p in zip(classes[1:], probs[1:]):
        if p > best_p:
            best_cls, best_p = cls, p
    return best_cls


def argmax_labels(classes: Sequence[int], probs: np.ndarray) -> np.ndarray:
    """``argmax_label`` of each row of a (queries, classes) matrix: the
    first maximum, so ties take the lowest class id."""
    return np.asarray(classes)[np.argmax(probs, axis=1)]


def ova_predict(model: OvaGpcModel, x_star) -> tuple[int, dict[int, float]]:
    probs = ova_predict_proba(model, [x_star])[0]
    label = argmax_label(model.classes, probs)
    return label, dict(zip(model.classes, probs))


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

IMPROVE_TOL = 0.25  # nats; steps below this are noise on a flat LML landscape
# Search range of each parameter block (length scales on a log scale);
# weights are projected to the simplex on decode, so their range reaches past it.
_BOUNDS = {
    "ls": (math.log(1e-2), math.log(1e3)),
    "gamma": (-1.0, 2.0),
    "rho": (0.0, 1.0),
}


def _sweep_steps(x, steps, names, first):
    """The trial points of a sweep from ``x``, coordinate ``first`` onward:
    (coordinate, point) per step, coordinate then +/- order, each clipped to
    its block's range and left out when clipping leaves it at ``x``."""
    trials = []
    for i in range(first, x.size):
        lo, hi = _BOUNDS[names[i]]
        for direction in (1.0, -1.0):
            trial = x.copy()
            trial[i] += direction * steps[i]
            trial[i] = min(max(trial[i], lo), hi)
            if trial[i] != x[i]:
                trials.append((i, trial))
    return trials


class _Ascent:
    """One start's greedy per-coordinate search, advanced one scan at a
    time. ``scan`` holds the (coordinate, point) steps that wait for their
    values: the rest of the current sweep from the current point ``x``.
    ``fx`` is None until the start's value is known; ``modes`` holds the
    Laplace modes of the current point, or None when that point was scored
    in an earlier round.

    A step is accepted only when it improves the objective by more than
    IMPROVE_TOL, so near-flat likelihoods (e.g. one observation per class)
    keep their start point instead of drifting on noise. The first step
    that improves ends the scan, and the next scan runs on from the next
    coordinate; a scan without one ends the sweep. A sweep without an
    accepted step halves the step sizes, and the search ends once they all
    fall below 0.02 or after ``max_sweeps`` sweeps. A point's value depends
    only on the point, so the path is that of trying one step at a time."""

    def __init__(self, x: np.ndarray, names: list, max_sweeps: int):
        self.x, self.fx, self.modes = x, None, None
        self.names = names
        self.steps = np.array([math.log(3.0) if name == "ls" else 0.25 for name in names])
        self.sweeps, self.first, self.improved = max_sweeps, 0, False
        self.scan = self._next_scan()

    def _next_scan(self) -> list:
        """The current sweep's steps from coordinate ``first`` on, or the
        next sweep's when it is over; [] when the search is done."""
        while self.sweeps:
            if self.first < self.x.size:
                trials = _sweep_steps(self.x, self.steps, self.names, self.first)
                if trials:
                    return trials
            self.sweeps -= 1
            if not self.improved:
                self.steps *= 0.5
                if np.max(self.steps) < 0.02:
                    self.sweeps = 0
            self.first, self.improved = 0, False
        return []

    def pending(self) -> list:
        """The points this round scores: the start until its value is
        known, then the scan."""
        return ([self.x] if self.fx is None else []) + [trial for _, trial in self.scan]

    def accepted(self, values: list) -> list:
        """Indices into ``pending()`` of the points that become the current
        point in turn, read from ``values`` (None while unknown) up to the
        first unknown one: the start when its value is finite, then the
        first step that improves on the current value."""
        taken, fx = [], self.fx
        for j, ft in enumerate(values):
            if ft is None:
                break
            if fx is None:  # the start
                if not np.isfinite(ft):
                    break
                taken.append(j)
                fx = ft
            elif ft > fx + IMPROVE_TOL:
                taken.append(j)
                break
        return taken

    def advance(self, values: list, modes: list) -> bool:
        """Take this round's values and the modes held for its points (None
        where not held). Returns False when the start's value is not finite:
        the start is dropped."""
        taken = self.accepted(values)
        if self.fx is None:
            if not taken:
                return False
            self.fx, self.modes = values[0], modes[0]
            values, modes, taken = values[1:], modes[1:], [j - 1 for j in taken[1:]]
        if taken:
            (j,) = taken
            i, self.x = self.scan[j]
            self.fx, self.modes, self.first, self.improved = values[j], modes[j], i + 1, True
        else:  # no step improves: the sweep is over
            self.first = self.x.size
        self.scan = self._next_scan()
        return True


#: Gram bytes of the (kernel, set) problems solved together in a search:
#: each round's kernels are scored in chunks of at most this size (at least
#: one kernel), so a round's grams and Laplace stacks stay this small
#: however many ascents it advances.
STACK_BYTES = 192 * 1024


def _summed_lmls(sets: Sequence[PooledSet], stack: KernelStack, rhos: Optional[np.ndarray]):
    """The search objective of each kernel of ``stack``: its sets' Laplace
    LMLs summed in set order, or -inf when a fit fails. Yields, per chunk
    of kernels in stack order, the chunk's objectives and each kernel's
    modes (one per set); with ``rhos`` (one per kernel) every set is fit at
    its kernel's rho."""
    size = max(1, STACK_BYTES // (8 * sum(len(s.X) ** 2 for s in sets)))
    for lo in range(0, len(stack), size):
        chunk = KernelStack(stack.modalities, stack.table[lo : lo + size])
        chunk_rhos = None if rhos is None else rhos[lo : lo + size]
        solved = list(zip(*_solve_sets(sets, chunk, chunk_rhos)))
        lmls = []
        for modes in solved:
            failed = any(isinstance(mode, Exception) for mode in modes)
            lmls.append(-np.inf if failed else sum(mode.lml for mode in modes))
        yield lmls, solved


class SearchResult(NamedTuple):
    """The kernel and rho a search found, its objective, and each set's
    Laplace mode there, in set order (``ova_from_modes`` makes the model)."""

    kernel: CombinedKernel
    rho: float
    lml: float
    modes: list


def _layout(parts: int, fit_weights: bool, fit_rho: bool) -> list:
    """A search's (block name, size) parameter blocks in vector order."""
    layout = [("ls", parts)]
    if fit_weights and parts > 1:
        layout.append(("gamma", parts))
    if fit_rho:
        layout.append(("rho", 1))
    return layout


def draw_starts(
    rng: Optional[np.random.Generator],
    parts: int,
    restarts: int,
    fit_weights: bool = True,
    fit_rho: bool = False,
) -> list:
    """The ``restarts - 1`` random starts of ``optimize_kernel_for_sets``
    over a kernel of ``parts`` parts, drawn from ``rng`` (a fresh
    ``default_rng(0)`` when None) block by block: uniform over each ``ls``
    and ``rho`` block's range, Dirichlet for ``gamma``. They are all that
    the search draws, before any solve, and their layout does not depend on
    the data, so this call advances a generator exactly as the search
    does."""
    rng = rng if rng is not None else np.random.default_rng(0)
    starts = []
    for _ in range(restarts - 1):
        vec = []
        for name, size in _layout(parts, fit_weights, fit_rho):
            if name == "gamma":
                vec.extend(rng.dirichlet(np.ones(size)))
            else:
                vec.extend(rng.uniform(*_BOUNDS[name], size=size))
        starts.append(np.array(vec))
    return starts


def optimize_kernel_for_sets(
    sets: Sequence[PooledSet],
    kernel_start: CombinedKernel,
    restarts: int = 2,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = 4,
    fit_weights: bool = True,
    fit_rho: bool = False,
) -> SearchResult:
    """Tune one combined kernel to maximize the summed Laplace marginal
    likelihood of several binary problems at once: the per-class sets of a
    one-vs-all ensemble (``ova_sets``), each possibly carrying a transfer
    block. With ``fit_rho`` the relatedness joins the search, starting from
    the first set's ``rho``, and every set is fit at the searched value.

    Multi-start coordinate ascent (``_Ascent``) over [log length scales]
    [weights, when ``fit_weights`` and the kernel has two or more parts]
    [rho, when ``fit_rho``]. The starts are ``kernel_start`` and
    ``restarts - 1`` random draws from ``rng`` (``draw_starts``), each drawn
    block by block in that order. The ascents advance in lockstep: the
    first round scores every start with its first scan (whose points do not
    depend on the start's value), each later round the pending scan of
    every live ascent, in one ``_summed_lmls`` call. Each ascent reads its
    values in the order of an ascent run alone, so its path is that of one
    step at a time. A point whose decoded kernel and rho were scored before
    in the same search is not solved again.

    Returns a ``SearchResult``; its LML is never below that of any finite
    start, and its modes are those of the best point, kept from the round
    that scored it. Raises OptimizationError when every start scores
    -inf."""
    if restarts < 1:
        raise ParameterError("restarts must be >= 1")
    _check_sets(sets, "optimize_kernel_for_sets")
    if not isinstance(kernel_start, CombinedKernel):
        raise TypeError(
            f"kernel_start must be a CombinedKernel, got {type(kernel_start).__name__}"
        )
    parts = kernel_start.parts
    k = len(parts)
    fit_gamma = fit_weights and k > 1
    names = [name for name, size in _layout(k, fit_weights, fit_rho) for _ in range(size)]
    rho_start = sets[0].rho

    def decode(points):  # rows of parameters -> length scales, weights, rhos
        ls = np.exp(points[:, :k])
        if fit_gamma:
            gamma = project_simplex(points[:, k : 2 * k])
        else:
            gamma = np.broadcast_to(kernel_start.weights, (len(points), k))
        rho = np.clip(points[:, -1], 0.0, 1.0) if fit_rho else np.full(len(points), rho_start)
        return ls, gamma, rho

    x0 = [math.log(p.length_scale) for _, p in parts]
    if fit_gamma:
        x0.extend(kernel_start.weights.tolist())
    if fit_rho:
        x0.append(rho_start)
    starts = [np.array(x0, dtype=float)]
    starts += draw_starts(rng, k, restarts, fit_weights, fit_rho)

    ascents = [_Ascent(start, names, max_sweeps) for start in starts]
    scored: dict = {}  # bytes of a decoded (length scales, weights, rho) -> objective
    diagnostics, live = [], ascents
    while live:
        pending = [a.pending() for a in live]
        ls, gamma, rho = decode(np.array([x for points in pending for x in points]))
        keys = [row.tobytes() for row in np.column_stack([ls, gamma, rho])]
        fresh: dict = {}  # key -> its first row
        for i, key in enumerate(keys):
            if key not in scored:
                fresh.setdefault(key, i)
        per_ascent, lo = [], 0
        for points in pending:
            per_ascent.append(keys[lo : lo + len(points)])
            lo += len(points)
        held: dict = {}  # key -> modes, of the points that may become current
        if fresh:
            rows = list(fresh.values())
            stack = KernelStack.combined(parts, ls[rows], gamma[rows])
            done = iter(fresh)
            for lmls, modes in _summed_lmls(sets, stack, rho[rows] if fit_rho else None):
                chunk = [next(done) for _ in lmls]
                scored.update(zip(chunk, lmls))
                wanted = {
                    ascent_keys[j]
                    for a, ascent_keys in zip(live, per_ascent)
                    for j in a.accepted([scored.get(key) for key in ascent_keys])
                }
                held.update((key, m) for key, m in zip(chunk, modes) if key in wanted)
        still = []
        for a, ascent_keys in zip(live, per_ascent):
            values = [scored[key] for key in ascent_keys]
            if not a.advance(values, [held.get(key) for key in ascent_keys]):
                diagnostics.append(f"start {a.x} -> non-finite objective")
            elif a.scan:
                still.append(a)
        live = still

    results = [a for a in ascents if a.fx is not None]
    if not results:
        raise OptimizationError("all restarts failed", diagnostics=diagnostics)
    best = max(results, key=lambda a: a.fx)
    ls, gamma, rho = decode(best.x[None])
    kernel = CombinedKernel(
        tuple((mod, RbfKernel(ls[0, i], p.signal_variance)) for i, (mod, p) in enumerate(parts)),
        gamma[0],
    )
    modes = best.modes
    if modes is None:  # scored in an earlier round than the one that took it
        solved = _solve_sets(sets, [kernel], rho if fit_rho else None)
        modes = [mode for (mode,) in solved]
    return SearchResult(kernel, float(rho[0]), best.fx, list(modes))
