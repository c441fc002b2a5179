"""Gaussian-process engine.

Exact GP regression at given hyperparameters, binary GP classification via
the Laplace approximation with a logistic noise model (Rasmussen & Williams,
GPML Alg. 3.1/3.2), and one-vs-all multiclass on top of the binary machinery.

There is one hyperparameter search, ``optimize_kernel_for_sets``: gradient-free
multi-start coordinate ascent on the summed binary Laplace log marginal
likelihood of a list of ``PooledSet``s. A one-vs-all ensemble is one set per
class, all over the same observation block (``ova_sets``); relatedness
selection is one set whose transfer-block rho joins the parameter vector.

Every factorization and solve calls LAPACK directly (``dpotrf``, ``dpotrs``,
``dtrtrs``) with the arguments scipy's ``cholesky`` / ``cho_solve`` /
``solve_triangular`` pass, so results are bit-identical to those wrappers
without their per-call validation. Finiteness is checked explicitly instead:
once per fit on the gram, once per Newton step on the stationarity residual
and once per prediction on the cross-covariance; each raises NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.special import expit

from .errors import ConvergenceError, NumericalError, OptimizationError, ParameterError
from .kernels import (
    CombinedKernel,
    DependentKernel,
    ObservationBlock,
    RbfKernel,
    prediction_cross,
    prediction_diag,
    project_simplex,
    training_gram,
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


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor L."""
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _tri_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a lower factor L returned by ``_factor``."""
    x, info = dtrtrs(chol, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular factor at diagonal {info - 1}")
    return x


def _chol_with_jitter(a: np.ndarray, base_jitter: float = 0.0):
    """Lower Cholesky factor, escalating diagonal jitter only on failure."""
    _check_finite(a, "matrix to factor")
    jitter = base_jitter
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
    alpha = _cho_solve(chol, y)
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


def gpc_fit(kernel, X_train, labels, n_old: int = 0) -> BinaryGpcModel:
    """Newton iteration to the Laplace mode of the latent posterior
    (Rasmussen & Williams, GPML Alg. 3.1)."""
    X_train = ObservationBlock.of(X_train)
    y = np.asarray(labels, dtype=float).ravel()
    if y.size != len(X_train):
        raise ParameterError("labels must match training inputs")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ParameterError("binary labels must be -1 or +1")
    t = 0.5 * (y + 1.0)
    n = y.size
    eye = np.eye(n)
    k = training_gram(kernel, X_train, n_old) + GRAM_JITTER * eye
    # A finite gram keeps every B = I + W^1/2 K W^1/2 finite; a step that
    # turns non-finite shows up in the residual, checked at every step.
    _check_finite(k, "training gram")

    f = np.zeros(n)
    a = np.zeros(n)
    pi = expit(f)
    trace = []
    converged = False
    for _ in range(LAPLACE_MAX_ITER):
        w = pi * (1.0 - pi)
        w_sqrt = np.sqrt(w)
        chol_b = _factor(eye + (w_sqrt[:, None] * k) * w_sqrt[None, :])
        b = w * f + (t - pi)
        a = b - w_sqrt * _cho_solve(chol_b, w_sqrt * (k @ b))
        f = k @ a
        pi = expit(f)
        residual = float(np.max(np.abs((t - pi) - a)))
        if not math.isfinite(residual):
            raise NumericalError(
                f"Laplace mode search hit a non-finite residual at iteration "
                f"{len(trace) + 1}"
            )
        trace.append(residual)
        if residual < LAPLACE_TOL:
            converged = True
            break
    if not converged and trace[-1] >= 1e-6:
        raise ConvergenceError(
            f"Laplace mode search stalled at residual {trace[-1]:.3e} "
            f"after {len(trace)} iterations",
            trace=trace,
        )
    w_sqrt = np.sqrt(pi * (1.0 - pi))
    chol_b = _factor(eye + (w_sqrt[:, None] * k) * w_sqrt[None, :])
    lml = (
        -0.5 * float(a @ f)
        + float(np.sum(_log_sigmoid(y * f)))
        - float(np.sum(np.log(np.diag(chol_b))))
    )
    return BinaryGpcModel(
        kernel,
        X_train,
        y,
        n_old,
        f_hat=f,
        grad_hat=t - pi,
        w_sqrt=w_sqrt,
        chol_b=chol_b,
        lml=lml,
        stationarity=trace[-1],
        iterations=len(trace),
    )


def gpc_predict_batch(model: BinaryGpcModel, X_star) -> np.ndarray:
    """Posterior probability of the +1 label for each query point."""
    X_star = ObservationBlock.of(X_star)
    k_star = prediction_cross(model.kernel, model.X_train, X_star, model.n_old)
    k_ss = prediction_diag(model.kernel, X_star)
    _check_finite(k_star, "prediction cross-covariance")
    mu = k_star.T @ model.grad_hat
    v = _tri_solve(model.chol_b, model.w_sqrt[:, None] * k_star)
    var = np.maximum(k_ss - np.sum(v**2, axis=0), 0.0)
    # Marginalize the logistic over the Gaussian latent with Gauss-Hermite.
    z = mu[:, None] + np.sqrt(2.0 * var)[:, None] * _GH_NODES[None, :]
    probs = (expit(z) @ _GH_WEIGHTS) / math.sqrt(math.pi)
    return np.clip(probs, PROB_CLIP, 1.0 - PROB_CLIP)


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


def ova_fit(kernel, X, labels) -> OvaGpcModel:
    """One binary model per class, each trained on the same observation block."""
    sets = ova_sets(X, labels)
    if len(sets) < 2:
        raise ParameterError("one-vs-all needs at least two classes")
    models = {}
    for cls, s in sets.items():
        try:
            models[cls] = s.fit(kernel)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"class {cls}: {exc}", trace=exc.trace
            ) from exc
    return OvaGpcModel(tuple(sets), models)


def ova_predict_proba(model: OvaGpcModel, X_star) -> np.ndarray:
    """Raw per-class binary posteriors, one column per class (not renormalized)."""
    X_star = ObservationBlock.of(X_star)
    return np.column_stack(
        [gpc_predict_batch(model.models[cls], X_star) for cls in model.classes]
    )


def argmax_label(classes: Sequence[int], probs: Sequence[float]) -> int:
    """Argmax with lowest-class-id tie-break (classes assumed sorted)."""
    best_cls, best_p = classes[0], probs[0]
    for cls, p in zip(classes[1:], probs[1:]):
        if p > best_p:
            best_cls, best_p = cls, p
    return best_cls


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


def _coordinate_ascent(objective, x, fx, names, max_sweeps):
    """Greedy per-coordinate search from ``x``, whose objective value is
    ``fx``; ``names`` gives each coordinate's parameter block.

    A step is accepted only when it improves the objective by more than
    IMPROVE_TOL, so near-flat likelihoods (e.g. one observation per class)
    keep their start point instead of drifting on noise."""
    steps = np.array([math.log(3.0) if name == "ls" else 0.25 for name in names])
    for _ in range(max_sweeps):
        improved = False
        for i in range(x.size):
            for direction in (1.0, -1.0):
                trial = x.copy()
                trial[i] += direction * steps[i]
                lo, hi = _BOUNDS[names[i]]
                trial[i] = min(max(trial[i], lo), hi)
                if trial[i] == x[i]:
                    continue
                ft = objective(trial)
                if ft > fx + IMPROVE_TOL:
                    x, fx = trial, ft
                    improved = True
                    break
        if not improved:
            steps *= 0.5
            if np.max(steps) < 0.02:
                break
    return x, fx


def optimize_kernel_for_sets(
    sets: Sequence[PooledSet],
    kernel_start: CombinedKernel,
    restarts: int = 2,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = 4,
    fit_weights: bool = True,
    fit_rho: bool = False,
) -> tuple[CombinedKernel, float, float]:
    """Tune one combined kernel to maximize the summed Laplace marginal
    likelihood of several binary problems at once: the per-class sets of a
    one-vs-all ensemble (``ova_sets``), each possibly carrying a transfer
    block. With ``fit_rho`` the relatedness joins the search, starting from
    the first set's ``rho``, and every set is fit at the searched value.

    Multi-start coordinate ascent over [log length scales][weights, when
    ``fit_weights`` and the kernel has two or more parts][rho, when
    ``fit_rho``]. The starts are ``kernel_start`` and ``restarts - 1``
    random draws from ``rng``, each drawn block by block in that order.
    Returns (kernel, rho, lml); the LML is never below that of any finite
    start. Raises OptimizationError when every start scores -inf."""
    if restarts < 1:
        raise ParameterError("restarts must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    parts = kernel_start.parts
    k = len(parts)
    fit_gamma = fit_weights and k > 1
    layout = [("ls", k)]
    if fit_gamma:
        layout.append(("gamma", k))
    if fit_rho:
        layout.append(("rho", 1))
    names = [name for name, size in layout for _ in range(size)]
    rho_start = sets[0].rho

    def decode(params):
        ls = np.exp(params[:k])
        gamma = project_simplex(params[k : 2 * k]) if fit_gamma else kernel_start.weights
        rho = float(np.clip(params[-1], 0.0, 1.0)) if fit_rho else rho_start
        new_parts = tuple(
            (mod, RbfKernel(ls[i], p.signal_variance)) for i, (mod, p) in enumerate(parts)
        )
        return CombinedKernel(new_parts, gamma), rho

    def objective(params):
        kernel, rho = decode(params)
        fit_sets = [replace(s, rho=rho) for s in sets] if fit_rho else sets
        try:
            return sum(s.fit(kernel).lml for s in fit_sets)
        except (NumericalError, ConvergenceError, np.linalg.LinAlgError):
            return -np.inf

    x0 = [math.log(p.length_scale) for _, p in parts]
    if fit_gamma:
        x0.extend(kernel_start.weights.tolist())
    if fit_rho:
        x0.append(rho_start)
    starts = [np.array(x0, dtype=float)]
    for _ in range(restarts - 1):
        vec = []
        for name, size in layout:
            if name == "gamma":
                vec.extend(rng.dirichlet(np.ones(size)))
            else:
                vec.extend(rng.uniform(*_BOUNDS[name], size=size))
        starts.append(np.array(vec))

    results, diagnostics = [], []
    for start in starts:
        f_start = objective(start)
        if not np.isfinite(f_start):
            diagnostics.append(f"start {start} -> non-finite objective")
            continue
        results.append(_coordinate_ascent(objective, start, f_start, names, max_sweeps))
    if not results:
        raise OptimizationError("all restarts failed", diagnostics=diagnostics)
    best_x, best_f = max(results, key=lambda r: r[1])
    kernel, rho = decode(best_x)
    return kernel, rho, best_f
