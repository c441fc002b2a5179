"""Kernel algebra: per-modality RBF kernels, their simplex-weighted linear
combination, and the relatedness-scaled block kernel used for transfer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, SegmentationError
from .features import FeatureObservation, Modality

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class RbfKernel:
    length_scale: float
    signal_variance: float = 1.0

    def __post_init__(self):
        if not (self.length_scale > 0):
            raise ParameterError(f"length_scale must be > 0, got {self.length_scale}")
        if not (self.signal_variance > 0):
            raise ParameterError(
                f"signal_variance must be > 0, got {self.signal_variance}"
            )


def rbf_eval(kernel: RbfKernel, x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise SegmentationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    sq = float(np.sum((x - y) ** 2))
    return kernel.signal_variance * np.exp(-sq / (2.0 * kernel.length_scale**2))


def _sqdist(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared distances via the expansion |x-y|^2 = |x|^2 + |y|^2 - 2 x.y,
    clipped at zero against rounding."""
    xn = np.sum(xs**2, axis=1)[:, None]
    yn = np.sum(ys**2, axis=1)[None, :]
    return np.maximum(xn + yn - 2.0 * xs @ ys.T, 0.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ObservationBlock:
    """An immutable stack of observations sharing one modality layout: one
    C-contiguous float matrix per modality, one row per observation.

    Raw points (for a bare ``RbfKernel``) form a block whose only modality is
    ``None``. The layout is checked once, when the block is built. Each block
    memoises its squared-distance matrices, for the whole block and for the
    old/new parts of a dependent split, so refitting one training set under
    many kernels computes them once. Slicing rows gives a new block (views of
    the same matrices, with an empty memo)."""

    __slots__ = ("modalities", "_matrices", "_n", "_memo")

    def __init__(self, modalities: tuple, matrices: tuple[np.ndarray, ...], n: int):
        self.modalities = modalities
        self._matrices = tuple(_frozen(m) for m in matrices)
        self._n = n
        self._memo: dict = {}

    @classmethod
    def of(cls, X) -> "ObservationBlock":
        """``X`` itself when it is a block, else a block built from a list of
        FeatureObservations or from raw points (scalars, vectors, a matrix)."""
        if isinstance(X, ObservationBlock):
            return X
        if not isinstance(X, np.ndarray):
            X = list(X)
            if not X:
                return cls((), (), 0)
            if isinstance(X[0], FeatureObservation):
                return cls._of_observations(X)
        points = np.array(X, dtype=float, order="C")  # a copy: the block freezes it
        if points.ndim == 1:  # a flat list of scalars is n one-dimensional points
            points = points[:, None]
        return cls((None,), (points,), points.shape[0])

    @classmethod
    def _of_observations(cls, observations: list) -> "ObservationBlock":
        modalities = observations[0].modalities
        for obs in observations:
            if obs.modalities != modalities:
                raise SegmentationError(
                    f"observation modalities {obs.modalities} differ from "
                    f"{modalities} within one block"
                )
        matrices = []
        for i, mod in enumerate(modalities):
            try:
                matrices.append(np.stack([obs.segments[i][1] for obs in observations]))
            except ValueError as exc:
                raise SegmentationError(f"{mod.value} segments differ in size: {exc}") from exc
        return cls(modalities, tuple(matrices), len(observations))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rows: slice) -> "ObservationBlock":
        if not isinstance(rows, slice):
            raise TypeError("an observation block is indexed by row slices only")
        n = len(range(self._n)[rows])
        return ObservationBlock(self.modalities, tuple(m[rows] for m in self._matrices), n)

    def matrix(self, modality) -> np.ndarray:
        if modality not in self.modalities:
            raise KeyError(f"no {modality} rows in an observation block of {self.modalities}")
        return self._matrices[self.modalities.index(modality)]

    def sqdist(self, modality) -> np.ndarray:
        """Squared distances between all rows (memoised)."""
        d = self._memo.get(modality)
        if d is None:
            xs = self.matrix(modality)
            d = self._memo[modality] = _frozen(_sqdist(xs, xs))
        return d

    def split_sqdist(self, modality, n_old: int) -> tuple[np.ndarray, ...]:
        """Squared distances (old-old, new-new, old-new) of the split after
        the first ``n_old`` rows (memoised per split point). Each part is
        multiplied out from its own rows, not cut from ``sqdist``: a matrix
        product's last bits depend on the shape it is computed in."""
        key = (modality, n_old)
        d = self._memo.get(key)
        if d is None:
            xs = self.matrix(modality)
            old, new = xs[:n_old], xs[n_old:]
            d = self._memo[key] = tuple(
                _frozen(m) for m in (_sqdist(old, old), _sqdist(new, new), _sqdist(old, new))
            )
        return d


def project_simplex(weights: Sequence[float]) -> np.ndarray:
    """Clip to nonnegative and renormalize to sum one."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return np.full(w.size, 1.0 / w.size)
    return w / total


@dataclass(frozen=True)
class CombinedKernel:
    """Simplex-weighted sum of one RBF kernel per modality segment."""

    parts: tuple[tuple[Modality, RbfKernel], ...]
    weights: np.ndarray

    def __post_init__(self):
        parts = tuple(self.parts)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (len(parts),):
            raise ParameterError(
                f"need one weight per part, got {weights.shape} for {len(parts)} parts"
            )
        if np.any(weights < -SIMPLEX_TOL) or np.any(weights > 1.0 + SIMPLEX_TOL):
            raise ParameterError(f"weights must lie in [0, 1], got {weights}")
        if abs(float(np.sum(np.abs(weights))) - 1.0) > SIMPLEX_TOL:
            raise ParameterError(f"weights must sum to 1, got sum {weights.sum()}")

    @property
    def modalities(self) -> tuple[Modality, ...]:
        return tuple(mod for mod, _ in self.parts)

    def with_weights(self, weights: Sequence[float]) -> "CombinedKernel":
        return CombinedKernel(self.parts, np.asarray(weights, dtype=float))


def uniform_combined(parts: Sequence[tuple[Modality, RbfKernel]]) -> CombinedKernel:
    parts = tuple(parts)
    return CombinedKernel(parts, np.full(len(parts), 1.0 / len(parts)))


def _check_segmentation(kernel: CombinedKernel, obs: FeatureObservation) -> None:
    if obs.modalities != kernel.modalities:
        raise SegmentationError(
            f"observation modalities {obs.modalities} do not match kernel parts "
            f"{kernel.modalities}"
        )


def combined_eval(
    kernel: CombinedKernel, x: FeatureObservation, y: FeatureObservation
) -> float:
    _check_segmentation(kernel, x)
    _check_segmentation(kernel, y)
    total = 0.0
    for gamma, (mod, part) in zip(kernel.weights, kernel.parts):
        total += gamma * rbf_eval(part, x.segment(mod), y.segment(mod))
    return float(total)


def _block(kernel, X) -> ObservationBlock:
    """``X`` as a block whose layout matches the kernel's parts."""
    block = ObservationBlock.of(X)
    if isinstance(kernel, RbfKernel):
        expected = (None,)
    elif isinstance(kernel, CombinedKernel):
        expected = kernel.modalities
    else:
        raise TypeError(f"unsupported kernel type {type(kernel).__name__}")
    if len(block) and block.modalities != expected:
        raise SegmentationError(
            f"observation modalities {block.modalities} do not match kernel parts "
            f"{expected}"
        )
    return block


def _part_terms(kernel) -> list:
    """(modality, gamma, signal variance, 2 l^2) of each part; a bare RBF is
    one part of weight 1 (``0 + 1 * k`` is ``k`` bit for bit)."""
    if isinstance(kernel, RbfKernel):
        return [(None, 1.0, kernel.signal_variance, 2.0 * kernel.length_scale**2)]
    return [
        (mod, gamma, part.signal_variance, 2.0 * part.length_scale**2)
        for gamma, (mod, part) in zip(kernel.weights, kernel.parts)
    ]


def _kernel_matrices(kernels: Sequence, shape: tuple[int, int], sq_of) -> np.ndarray:
    """The kernels on squared distances ``sq_of(modality)``, stacked: for
    each, the gamma-weighted sum of its parts' RBFs, parts with gamma 0
    skipped. All kernels share one layout; each part's distances are shared,
    only the exp and the scalars are per kernel, in the order a single kernel
    computes them. (A live term is never -0, so the first one needs no
    zeros to be added to.)"""
    terms = [_part_terms(kernel) for kernel in kernels]
    modalities = [mod for mod, *_ in terms[0]]
    if any([mod for mod, *_ in t] != modalities for t in terms[1:]):
        raise SegmentationError("kernels stacked over one block must share their parts")
    out = None
    for j, mod in enumerate(modalities):
        live = [i for i, t in enumerate(terms) if t[j][1] != 0.0]
        if not live:
            continue
        if len(kernels) == 1:  # plain scalars: a (1, 1, 1) array costs more per op
            gamma, variance, denom = terms[0][j][1:]
        else:
            gamma, variance, denom = np.array([terms[i][j][1:] for i in live]).T[..., None, None]
        term = gamma * (variance * np.exp(-sq_of(mod) / denom))
        if len(live) == len(kernels):
            out = term if out is None else out + term
        else:
            if out is None:
                out = np.zeros((len(kernels),) + shape)
            out[live] += term
    if out is None:
        return np.zeros((len(kernels),) + shape)
    return out.reshape((len(kernels),) + shape)


def _symmetric(k: np.ndarray) -> np.ndarray:
    return 0.5 * (k + k.swapaxes(-1, -2))


def cross_gram(kernel, X, Y) -> np.ndarray:
    """Kernel matrix between two observation blocks or lists (rows: X, cols: Y)."""
    X, Y = _block(kernel, X), _block(kernel, Y)
    if not (len(X) and len(Y)):
        return np.zeros((len(X), len(Y)))
    return _kernel_matrices(
        [kernel], (len(X), len(Y)), lambda mod: _sqdist(X.matrix(mod), Y.matrix(mod))
    )[0]


def gram(kernel, X) -> np.ndarray:
    """Symmetric kernel matrix over one observation block or list."""
    if len(X) == 0:
        raise ParameterError("gram of an empty observation list")
    return _grams([kernel], _block(kernel, X))[0]


def _grams(kernels: Sequence, X: ObservationBlock) -> np.ndarray:
    return _symmetric(_kernel_matrices(kernels, (len(X), len(X)), X.sqdist))


def kernel_diag(kernel, X) -> np.ndarray:
    """Diagonal of gram(kernel, X) without building the full matrix."""
    if isinstance(kernel, RbfKernel):
        return np.full(len(X), kernel.signal_variance)
    value = float(
        sum(g * p.signal_variance for g, (_, p) in zip(kernel.weights, kernel.parts))
    )
    return np.full(len(X), value)


@dataclass(frozen=True)
class DependentKernel:
    """Block kernel that scales old/new cross-covariance by a relatedness
    factor in [0, 1]: 0 decouples the blocks, 1 merges the two objects."""

    base: CombinedKernel
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho}")


def _dependent_from(
    kernels: Sequence[DependentKernel], n_old: int, n_new: int, oo_of, nn_of, on_of
) -> np.ndarray:
    """[[K_oo, rho K_on], [rho K_no, K_nn]] per kernel, stacked, from the
    old-old, new-new and old-new squared distances per modality."""
    bases = [kernel.base for kernel in kernels]
    k_oo = _kernel_matrices(bases, (n_old, n_old), oo_of)
    k_nn = _kernel_matrices(bases, (n_new, n_new), nn_of)
    k_on = _kernel_matrices(bases, (n_old, n_new), on_of)
    out = np.empty((len(kernels), n_old + n_new, n_old + n_new))
    out[:, :n_old, :n_old] = _symmetric(k_oo)
    out[:, n_old:, n_old:] = _symmetric(k_nn)
    cross = np.array([kernel.rho for kernel in kernels])[:, None, None] * k_on
    out[:, :n_old, n_old:] = cross
    out[:, n_old:, :n_old] = cross.swapaxes(1, 2)
    return _symmetric(out)


def dependent_gram(kernel: DependentKernel, X_old, X_new) -> np.ndarray:
    """[[K_oo, rho K_on], [rho K_no, K_nn]] over the pooled observations."""
    if not (0.0 <= kernel.rho <= 1.0):
        raise ParameterError(f"rho must lie in [0, 1], got {kernel.rho}")
    X_old, X_new = _block(kernel.base, X_old), _block(kernel.base, X_new)
    if len(X_old) == 0:
        return gram(kernel.base, X_new)
    if len(X_new) == 0:
        return gram(kernel.base, X_old)
    return _dependent_from(
        [kernel],
        len(X_old),
        len(X_new),
        X_old.sqdist,
        X_new.sqdist,
        lambda mod: _sqdist(X_old.matrix(mod), X_new.matrix(mod)),
    )[0]


def training_gram(kernel, X, n_old: int = 0) -> np.ndarray:
    """Gram over a training block whose first ``n_old`` rows are the
    transferred block (scaled cross-covariance for dependent kernels). The
    distances come from the block's memo."""
    return training_grams([kernel], X, n_old)[0]


def training_grams(kernels: Sequence, X, n_old: int = 0) -> np.ndarray:
    """``training_gram`` of each kernel over one block, stacked (m, n, n):
    bit for bit the matrices of the single-kernel calls, with the block's
    memoised distances computed once for all of them. The kernels are all
    dependent or all not, with the same parts."""
    if len(X) == 0:
        raise ParameterError("gram of an empty observation list")
    dependent = isinstance(kernels[0], DependentKernel)
    if any(isinstance(kernel, DependentKernel) != dependent for kernel in kernels):
        raise TypeError("training_grams needs all dependent kernels or none")
    if not dependent:
        return _grams(kernels, _block(kernels[0], X))
    bases = [kernel.base for kernel in kernels]
    X = _block(bases[0], X)
    if not 0 < n_old < len(X):  # one side empty: a plain gram
        return _grams(bases, X)
    return _dependent_from(
        kernels,
        n_old,
        len(X) - n_old,
        lambda mod: X.split_sqdist(mod, n_old)[0],
        lambda mod: X.split_sqdist(mod, n_old)[1],
        lambda mod: X.split_sqdist(mod, n_old)[2],
    )


def prediction_cross(kernel, X_train, X_star, n_old: int = 0) -> np.ndarray:
    """Covariance between training points and query points (queries live on
    the new-object side of a dependent kernel)."""
    X_train, X_star = ObservationBlock.of(X_train), ObservationBlock.of(X_star)
    if isinstance(kernel, DependentKernel):
        top = kernel.rho * cross_gram(kernel.base, X_train[:n_old], X_star)
        bottom = cross_gram(kernel.base, X_train[n_old:], X_star)
        return np.vstack([top, bottom]) if n_old else bottom
    return cross_gram(kernel, X_train, X_star)


def prediction_diag(kernel, X_star) -> np.ndarray:
    if isinstance(kernel, DependentKernel):
        return kernel_diag(kernel.base, X_star)
    return kernel_diag(kernel, X_star)


def median_heuristic(
    observations: Sequence[FeatureObservation], modalities: Sequence[Modality]
) -> CombinedKernel:
    """Uniform-weight combined kernel with unit signal variances and
    per-modality length scales set to half the median nonzero pairwise
    distance (1.0 when degenerate): the half-median keeps sparse classes
    separated. The distances come from the block's memo."""
    block = ObservationBlock.of(observations)
    parts = []
    for mod in modalities:
        dists = np.sqrt(block.sqdist(mod)[np.triu_indices(len(block), 1)])
        dists = dists[dists > 0]
        width = 0.5 * float(np.median(dists)) if dists.size else 1.0
        parts.append((mod, RbfKernel(max(width, 1e-2))))
    return uniform_combined(parts)
