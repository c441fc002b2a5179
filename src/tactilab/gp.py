"""Gaussian-process engine.

Exact GP regression, binary GP classification via the Laplace approximation
with a logistic noise model, one-vs-all multiclass on top of the binary
machinery, and gradient-free hyperparameter search by multi-start coordinate
ascent on the log marginal likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
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


def _chol_with_jitter(a: np.ndarray, base_jitter: float = 0.0):
    """Lower Cholesky factor, escalating diagonal jitter only on failure."""
    jitter = base_jitter
    for _ in range(6):
        try:
            mat = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return cholesky(mat, lower=True), jitter
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
    X_train = ObservationBlock.of(X_train)
    k = training_gram(kernel, X_train)
    a = k + noise_variance * np.eye(k.shape[0])
    chol, _ = _chol_with_jitter(a)
    alpha = cho_solve((chol, True), y)
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
    k_ss = prediction_diag(model.kernel, [x_star])[0]
    mean = float(k_star[:, 0] @ model.alpha)
    v = solve_triangular(model.chol, k_star[:, 0], lower=True)
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
    """Newton iteration to the Laplace mode of the latent posterior."""
    X_train = ObservationBlock.of(X_train)
    y = np.asarray(labels, dtype=float).ravel()
    if y.size != len(X_train):
        raise ParameterError("labels must match training inputs")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ParameterError("binary labels must be -1 or +1")
    t = 0.5 * (y + 1.0)
    k = training_gram(kernel, X_train, n_old) + GRAM_JITTER * np.eye(len(X_train))

    n = y.size
    f = np.zeros(n)
    a = np.zeros(n)
    trace = []
    converged = False
    for _ in range(LAPLACE_MAX_ITER):
        pi = expit(f)
        w = pi * (1.0 - pi)
        w_sqrt = np.sqrt(w)
        b_mat = np.eye(n) + (w_sqrt[:, None] * k) * w_sqrt[None, :]
        chol_b = cholesky(b_mat, lower=True)
        b = w * f + (t - pi)
        a = b - w_sqrt * cho_solve((chol_b, True), w_sqrt * (k @ b))
        f = k @ a
        residual = float(np.max(np.abs((t - expit(f)) - a)))
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
    pi = expit(f)
    w_sqrt = np.sqrt(pi * (1.0 - pi))
    b_mat = np.eye(n) + (w_sqrt[:, None] * k) * w_sqrt[None, :]
    chol_b = cholesky(b_mat, lower=True)
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
    mu = k_star.T @ model.grad_hat
    v = solve_triangular(model.chol_b, model.w_sqrt[:, None] * k_star, lower=True)
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


@dataclass
class OvaGpcModel:
    classes: tuple[int, ...]
    models: dict[int, BinaryGpcModel]

    def __post_init__(self):
        if set(self.classes) != set(self.models):
            raise ParameterError("need exactly one binary model per class")
        object.__setattr__(self, "classes", tuple(sorted(self.classes)))


def ova_fit(kernel, X, labels) -> OvaGpcModel:
    """One binary model per class, each trained on the same observation block."""
    X = ObservationBlock.of(X)
    labels = [int(lb) for lb in labels]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ParameterError("one-vs-all needs at least two classes")
    models = {}
    for cls in classes:
        y = np.array([1.0 if lb == cls else -1.0 for lb in labels])
        try:
            models[cls] = gpc_fit(kernel, X, y)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"class {cls}: {exc}", trace=exc.trace
            ) from exc
    return OvaGpcModel(tuple(classes), models)


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


def ova_lml(model: OvaGpcModel) -> float:
    return float(sum(m.lml for m in model.models.values()))


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------


@dataclass
class ModelSpec:
    """What to fit and which kernel blocks to search over.

    ``kind`` is one of "gpr", "gpc" or "ova". When ``fit_rho`` is set the
    training list's first ``n_old`` entries form the transferred block and the
    kernel is wrapped in a DependentKernel.
    """

    kind: str
    kernel: object  # CombinedKernel or RbfKernel starting point
    noise_variance: float = 0.1
    n_old: int = 0
    rho: float = 0.5
    fit_length_scales: bool = True
    fit_signal_variances: bool = False
    fit_weights: bool = True
    fit_rho: bool = False
    ls_bounds: tuple[float, float] = (1e-2, 1e3)
    sv_bounds: tuple[float, float] = (1e-2, 1e2)


@dataclass
class OptimizedModel:
    model: object
    kernel: object
    rho: Optional[float]
    lml: float
    params: np.ndarray
    start_lmls: list[float]


def _kernel_parts(kernel):
    if isinstance(kernel, CombinedKernel):
        return list(kernel.parts), np.array(kernel.weights, dtype=float)
    return [(None, kernel)], np.array([1.0])


def _encode(spec: ModelSpec):
    """Parameter vector layout: [log ls...][log sv...][gamma...][rho]."""
    parts, weights = _kernel_parts(spec.kernel)
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


def _decode(spec: ModelSpec, params: np.ndarray, layout):
    parts, weights = _kernel_parts(spec.kernel)
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
    new_parts = tuple(
        (mod, RbfKernel(ls[i], sv[i])) for i, (mod, _) in enumerate(parts)
    )
    if isinstance(spec.kernel, CombinedKernel):
        kernel = CombinedKernel(new_parts, gamma)
    else:
        kernel = new_parts[0][1]
    return kernel, rho


def _fit_for_spec(spec: ModelSpec, kernel, rho, X, labels):
    if spec.fit_rho or spec.n_old > 0:
        kernel = DependentKernel(kernel, rho)
    if spec.kind == "gpr":
        return gpr_fit(kernel, X, labels, spec.noise_variance)
    if spec.kind == "gpc":
        return gpc_fit(kernel, X, labels, n_old=spec.n_old)
    if spec.kind == "ova":
        return ova_fit(kernel, X, labels)
    raise ParameterError(f"unknown model kind {spec.kind!r}")


def _model_lml(model) -> float:
    return ova_lml(model) if isinstance(model, OvaGpcModel) else model.lml


IMPROVE_TOL = 0.25  # nats; steps below this are noise on a flat LML landscape


def _coordinate_ascent(objective, x0, layout, bounds_of, max_sweeps):
    """Greedy per-coordinate search.

    A step is accepted only when it improves the objective by more than
    IMPROVE_TOL, so near-flat likelihoods (e.g. one observation per class)
    keep their start point instead of drifting on noise."""
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
                if ft > fx + IMPROVE_TOL:
                    x, fx = trial, ft
                    improved = True
                    break
        if not improved:
            steps *= 0.5
            if np.max(steps) < 0.02:
                break
    return x, fx


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


def optimize_kernel_for_sets(
    sets: Sequence[PooledSet],
    kernel_start: CombinedKernel,
    restarts: int = 2,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = 3,
    fit_weights: bool = True,
    fit_length_scales: bool = True,
    fit_signal_variances: bool = False,
    ls_bounds: tuple[float, float] = (1e-2, 1e3),
    sv_bounds: tuple[float, float] = (1e-2, 1e2),
) -> tuple[CombinedKernel, float]:
    """Tune one combined kernel to maximize the summed Laplace marginal
    likelihood of several binary problems at once (the per-class training
    sets of a one-vs-all ensemble, each possibly carrying a transfer block)."""
    spec = ModelSpec(
        kind="gpc",
        kernel=kernel_start,
        fit_length_scales=fit_length_scales,
        fit_signal_variances=fit_signal_variances,
        fit_weights=fit_weights,
        ls_bounds=ls_bounds,
        sv_bounds=sv_bounds,
    )

    def objective(kernel, _rho):
        try:
            return sum(s.fit(kernel).lml for s in sets)
        except (NumericalError, ConvergenceError, np.linalg.LinAlgError):
            return -np.inf

    kernel, _, best_f, _, _ = _search(spec, objective, restarts, rng, max_sweeps)
    return kernel, best_f


def _search(spec: ModelSpec, objective_of, restarts, rng, max_sweeps):
    """Multi-start coordinate-ascent driver over the requested search blocks.

    ``objective_of(kernel, rho)`` returns the LML (or -inf on failure); the
    winner's LML is never below that of any finite start point."""
    if restarts < 1:
        raise ParameterError("restarts must be >= 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    x0, layout = _encode(spec)

    def bounds_of(name):
        if name == "ls":
            return math.log(spec.ls_bounds[0]), math.log(spec.ls_bounds[1])
        if name == "sv":
            return math.log(spec.sv_bounds[0]), math.log(spec.sv_bounds[1])
        if name == "gamma":
            return -1.0, 2.0  # projected to the simplex on decode
        return 0.0, 1.0  # rho

    def objective(params):
        kernel, rho = _decode(spec, params, layout)
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
        best_x, best_f = _coordinate_ascent(objective, start, layout, bounds_of, max_sweeps)
        results.append((best_f, best_x))
    if not results:
        raise OptimizationError("all restarts failed", diagnostics=diagnostics)
    best_f, best_x = max(results, key=lambda r: r[0])
    kernel, rho = _decode(spec, best_x, layout)
    return kernel, rho, best_f, best_x, start_lmls


def optimize_hyperparams(
    spec: ModelSpec,
    X,
    labels,
    restarts: int = 3,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = 4,
) -> OptimizedModel:
    """Multi-start coordinate ascent on the log marginal likelihood.

    The returned model's LML is never below that of any start point. Raises
    OptimizationError when every restart fails to produce a finite objective.
    """
    X = ObservationBlock.of(X)

    def objective(kernel, rho):
        try:
            model = _fit_for_spec(spec, kernel, rho, X, labels)
        except (NumericalError, ConvergenceError, np.linalg.LinAlgError):
            return -np.inf
        return _model_lml(model)

    kernel, rho, best_f, best_x, start_lmls = _search(
        spec, objective, restarts, rng, max_sweeps
    )
    model = _fit_for_spec(spec, kernel, rho, X, labels)
    return OptimizedModel(
        model=model,
        kernel=kernel,
        rho=rho if (spec.fit_rho or spec.n_old > 0) else None,
        lml=best_f,
        params=best_x,
        start_lmls=start_lmls,
    )
