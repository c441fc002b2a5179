"""Kernel algebra: per-modality RBF kernels, their simplex-weighted linear
combination, and the relatedness-scaled block kernel used for transfer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, SegmentationError
from .features import Modality

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


def _sqdist(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared distances via the expansion |x-y|^2 = |x|^2 + |y|^2 - 2 x.y,
    clipped at zero against rounding; over stacks of matrices, pair by pair
    (``matmul`` makes one BLAS call per pair, as for a pair alone)."""
    xn = np.sum(xs**2, axis=-1)[..., :, None]
    yn = np.sum(ys**2, axis=-1)[..., None, :]
    return np.maximum(xn + yn - 2.0 * xs @ ys.swapaxes(-1, -2), 0.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ObservationBlock:
    """An immutable stack of observations sharing one modality layout: one
    C-contiguous float matrix per modality, one row per observation. It is
    the one observation type: a single observation is a one-row block.

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
        """``X`` itself when it is a block, the ``concat`` of a sequence of
        blocks, else the block of raw points (scalars, vectors, a matrix)."""
        if isinstance(X, ObservationBlock):
            return X
        if not isinstance(X, np.ndarray):
            X = list(X)
            if not X or isinstance(X[0], ObservationBlock):
                return cls.concat(X)
        points = np.array(X, dtype=float, order="C")  # a copy: the block freezes it
        if points.ndim == 1:  # a flat list of scalars is n one-dimensional points
            points = points[:, None]
        return cls((None,), (points,), points.shape[0])

    @classmethod
    def concat(cls, blocks: Sequence) -> "ObservationBlock":
        """The rows of ``blocks`` in order, as one block: bit for bit the
        block of all their rows. Empty blocks are left out."""
        blocks = [block for block in blocks if len(block)]
        if not blocks:
            return cls((), (), 0)
        if len(blocks) == 1:
            return blocks[0]
        modalities = blocks[0].modalities
        for block in blocks:
            if block.modalities != modalities:
                raise SegmentationError(
                    f"observation modalities {block.modalities} differ from "
                    f"{modalities} within one block"
                )
        matrices = []
        for i, mod in enumerate(modalities):
            try:
                matrices.append(np.concatenate([block._matrices[i] for block in blocks]))
            except ValueError as exc:
                name = "point" if mod is None else mod.value
                raise SegmentationError(f"{name} segments differ in size: {exc}") from exc
        return cls(modalities, tuple(matrices), sum(map(len, blocks)))

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


def project_simplex(weights) -> np.ndarray:
    """Clip to nonnegative and renormalize to sum one along the last axis
    (each row of a matrix); uniform where nothing is left."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    return np.divide(w, total, out=np.full(w.shape, 1.0 / w.shape[-1]), where=~(total <= 0.0))


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


def _layout(kernel) -> tuple:
    """The modalities of the kernel's parts, ``(None,)`` for a bare RBF."""
    if isinstance(kernel, RbfKernel):
        return (None,)
    if isinstance(kernel, CombinedKernel):
        return kernel.modalities
    raise TypeError(f"unsupported kernel type {type(kernel).__name__}")


def _block(layout: tuple, X) -> ObservationBlock:
    """``X`` as a block whose modalities are ``layout``."""
    block = ObservationBlock.of(X)
    if len(block) and block.modalities != layout:
        raise SegmentationError(
            f"observation modalities {block.modalities} do not match kernel parts {layout}"
        )
    return block


class KernelStack:
    """m kernels of one part layout as arrays: the parts' modalities, each
    kernel's (gamma, signal variance, 2 l^2) per part, (m, parts, 3), and,
    for dependent kernels, each rho (m,). A bare RBF is one part of weight 1
    (``0 + 1 * k`` is ``k`` bit for bit). Every gram builder reads kernels in
    this form; ``of`` reads kernel objects once per distinct kernel and
    ``combined`` builds a stack of combined kernels from parameter rows."""

    __slots__ = ("modalities", "table", "rhos")

    def __init__(self, modalities: tuple, table: np.ndarray, rhos=None):
        self.modalities = modalities
        self.table = table
        self.rhos = None if rhos is None else np.asarray(rhos, dtype=float)
        if self.rhos is not None:  # the check of each ``DependentKernel``
            bad = ~((0.0 <= self.rhos) & (self.rhos <= 1.0))
            if bad.any():
                raise ParameterError(f"rho must lie in [0, 1], got {self.rhos[bad][0]}")

    def __len__(self) -> int:
        return len(self.table)

    @classmethod
    def of(cls, kernels) -> "KernelStack":
        """``kernels`` itself when it is a stack, else the stack of a
        sequence of kernel objects, all dependent (``DependentKernel``) or
        none, sharing their parts' modalities."""
        if isinstance(kernels, KernelStack):
            return kernels
        dependent = isinstance(kernels[0], DependentKernel)
        if any(isinstance(kernel, DependentKernel) != dependent for kernel in kernels):
            raise TypeError("stacked kernels must be all dependent or none")
        distinct, index = _distinct([kernel.base for kernel in kernels] if dependent else kernels)
        layout = _layout(distinct[0])
        if any(_layout(kernel) != layout for kernel in distinct[1:]):
            raise SegmentationError("stacked kernels must share their parts")
        rows = [
            [(1.0, kernel.signal_variance, 2.0 * kernel.length_scale**2)]
            if isinstance(kernel, RbfKernel)
            else [
                (gamma, part.signal_variance, 2.0 * part.length_scale**2)
                for gamma, (_, part) in zip(kernel.weights, kernel.parts)
            ]
            for kernel in distinct
        ]
        rhos = [kernel.rho for kernel in kernels] if dependent else None
        return cls(layout, np.array(rows)[index], rhos)

    @classmethod
    def combined(cls, parts, length_scales: np.ndarray, weights: np.ndarray) -> "KernelStack":
        """The ``CombinedKernel`` of each row of length scales and weights
        (m, parts) over ``parts``' modalities and signal variances, bit for
        bit the stack of those kernel objects. The rows are checked at once;
        the first one its kernel would reject raises that kernel's
        ParameterError."""
        bad = (
            ~(length_scales > 0).all(axis=1)
            | (weights < -SIMPLEX_TOL).any(axis=1)
            | (weights > 1.0 + SIMPLEX_TOL).any(axis=1)
            | (np.abs(np.abs(weights).sum(axis=1) - 1.0) > SIMPLEX_TOL)
        )
        for row in np.flatnonzero(bad)[:1]:
            CombinedKernel(
                tuple(
                    (mod, RbfKernel(ls, part.signal_variance))
                    for ls, (mod, part) in zip(length_scales[row], parts)
                ),
                weights[row],
            )
        table = np.empty(weights.shape + (3,))
        table[..., 0] = weights
        table[..., 1] = [part.signal_variance for _, part in parts]
        # libm pow per entry, as ``length_scale**2`` of one kernel's float;
        # ``ls * ls`` differs from it in the last bit for some ls.
        table[..., 2] = 2.0 * np.float_power(length_scales, 2.0)
        return cls(tuple(mod for mod, _ in parts), table)


def _kernel_matrices(stack: KernelStack, shape: tuple[int, int], sq_of) -> np.ndarray:
    """The kernels of ``stack`` on squared distances, stacked: for each, the
    gamma-weighted sum of its parts' RBFs, parts with gamma 0 skipped.
    ``sq_of(modality)`` gives one matrix shared by all kernels or a stack of
    one per kernel. Only the exp and the scalars are per kernel, in the
    order a single kernel computes them: ``gamma * (variance * exp(-sq /
    denom))``, taken as ``sq / -denom`` and without factors of 1, the same
    bits. (A live term is never -0, so the first one needs no zeros to be
    added to.)"""
    table = stack.table
    m = len(table)
    out = None
    for j, mod in enumerate(stack.modalities):
        live = table[:, j, 0].nonzero()[0]
        if not live.size:
            continue
        sq = sq_of(mod)
        if sq.ndim == 3 and live.size < m:
            sq = sq[live]
        params = table[:, j] if live.size == m else table[live, j]
        # One kernel: plain scalars, as a (1, 1, 1) array costs more per op.
        gamma, variance, denom = params[0] if m == 1 else params.T[..., None, None]
        term = np.divide(sq, -denom)
        np.exp(term, out=term)
        if (variance != 1.0).any():
            term *= variance
        if (gamma != 1.0).any():
            term *= gamma
        if live.size == m:
            out = term if out is None else np.add(out, term, out=out)
        else:
            if out is None:
                out = np.zeros((m,) + shape)
            out[live] += term
    if out is None:
        return np.zeros((m,) + shape)
    return out.reshape((m,) + shape)


def _distinct(items: Sequence) -> tuple[list, list]:
    """The distinct entries of ``items`` (by identity) in first-seen order,
    and each entry's index among them."""
    first: dict = {}
    index = [first.setdefault(id(item), len(first)) for item in items]
    return list({id(item): item for item in items}.values()), index


def _symmetric(k: np.ndarray) -> np.ndarray:
    return 0.5 * (k + k.swapaxes(-1, -2))


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
    stack: KernelStack, n_old: int, n_new: int, oo_of, nn_of, on_of
) -> np.ndarray:
    """[[K_oo, rho K_on], [rho K_no, K_nn]] per kernel of a dependent stack,
    stacked, from the old-old, new-new and old-new squared distances per
    modality."""
    k_oo = _kernel_matrices(stack, (n_old, n_old), oo_of)
    k_nn = _kernel_matrices(stack, (n_new, n_new), nn_of)
    k_on = _kernel_matrices(stack, (n_old, n_new), on_of)
    out = np.empty((len(stack), n_old + n_new, n_old + n_new))
    out[:, :n_old, :n_old] = _symmetric(k_oo)
    out[:, n_old:, n_old:] = _symmetric(k_nn)
    cross = stack.rhos[:, None, None] * k_on
    out[:, :n_old, n_old:] = cross
    out[:, n_old:, :n_old] = cross.swapaxes(1, 2)
    return _symmetric(out)


def dependent_gram(kernel: DependentKernel, X_old, X_new) -> np.ndarray:
    """[[K_oo, rho K_on], [rho K_no, K_nn]] over the pooled observations:
    the training gram of the joined block, split after ``X_old``."""
    layout = _layout(kernel.base)
    X_old, X_new = _block(layout, X_old), _block(layout, X_new)
    return training_gram(kernel, ObservationBlock.concat([X_old, X_new]), len(X_old))


def training_gram(kernel, X, n_old: int = 0) -> np.ndarray:
    """Gram over a training block whose first ``n_old`` rows are the
    transferred block (scaled cross-covariance for dependent kernels). The
    distances come from the block's memo."""
    return training_gram_stack([kernel], [X], n_old)[0]


def training_gram_stack(kernels, blocks: Sequence, n_old: int = 0) -> np.ndarray:
    """``training_gram(kernels[i], blocks[i], n_old)`` of every item, stacked
    (m, n, n): bit for bit the matrices of the single calls, from each
    block's memoised distances, and its layout checked once. ``kernels`` is
    a ``KernelStack`` or kernel objects (see ``KernelStack.of``); the blocks
    have one size."""
    stack = KernelStack.of(kernels)
    if len(blocks[0]) == 0:
        raise ParameterError("gram of an empty observation list")
    distinct, index = _distinct(blocks)
    distinct = [_block(stack.modalities, X) for X in distinct]  # each checked once
    n = len(distinct[0])

    def sq_of(dist):  # one matrix shared by all items, or one per item
        def of(mod):
            per_block = [dist(X, mod) for X in distinct]
            return per_block[0] if len(per_block) == 1 else np.array([per_block[i] for i in index])

        return of

    if stack.rhos is None or not 0 < n_old < n:  # one side empty: a plain gram
        return _symmetric(_kernel_matrices(stack, (n, n), sq_of(ObservationBlock.sqdist)))
    split = [sq_of(lambda X, mod, p=p: X.split_sqdist(mod, n_old)[p]) for p in range(3)]
    return _dependent_from(stack, n_old, n - n_old, *split)


def prediction_cross_stack(
    kernels: Sequence, trains: Sequence, stars: Sequence, n_old: int = 0
) -> np.ndarray:
    """The covariance between the training points ``trains[i]`` and the
    query points ``stars[i]`` under ``kernels[i]`` of every item, stacked
    (m, n, q); queries live on the new-object side of a dependent kernel,
    split at ``n_old``. Bit for bit the matrices of one-item calls.
    The items share the training size, the query count and the split, which
    needs dependent kernels when above 0; the kernels share their parts.
    Each block's layout is checked once; the distances of all items come
    from one stacked product per part (and per side of the split), and one
    exp serves both sides."""
    stack = KernelStack.of(
        [kernel.base if isinstance(kernel, DependentKernel) else kernel for kernel in kernels]
    )
    distinct, index = _distinct([*trains, *stars])
    distinct = [_block(stack.modalities, X) for X in distinct]  # each checked once
    blocks = [distinct[i] for i in index]
    trains, stars = blocks[: len(trains)], blocks[len(trains) :]
    n, q = len(trains[0]), len(stars[0])
    if not (n and q):
        return np.zeros((len(kernels), n, q))

    def sq_of(mod):  # one matrix for one item, else one per item
        splits = (slice(None, n_old), slice(n_old, None)) if n_old else (slice(None),)
        out = []
        for rows in splits:  # the old rows' products apart, as alone
            xs = [X.matrix(mod)[rows] for X in trains]
            ys = [Y.matrix(mod) for Y in stars]
            if len(xs) == 1:
                out.append(_sqdist(xs[0], ys[0]))
                continue
            out.append(_sqdist(np.array(xs), np.array(ys)))
            for i, (x, y) in enumerate(zip(xs, ys)):
                if np.may_share_memory(x, y):  # alone, x @ y.T is a syrk, not a gemm
                    out[-1][i] = _sqdist(x, y)
        return out[0] if len(out) == 1 else np.concatenate(out, axis=-2)

    k = _kernel_matrices(stack, (n, q), sq_of)
    if n_old:
        k[:, :n_old] *= np.array([kernel.rho for kernel in kernels])[:, None, None]
    return k


def prediction_diag(kernel, X_star) -> np.ndarray:
    """Prior variance at each query point (a dependent kernel's base's)."""
    kernel = kernel.base if isinstance(kernel, DependentKernel) else kernel
    if isinstance(kernel, RbfKernel):
        return np.full(len(X_star), kernel.signal_variance)
    variance = sum(g * p.signal_variance for g, (_, p) in zip(kernel.weights, kernel.parts))
    return np.full(len(X_star), float(variance))


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a nonempty 1-D array, to the bit: the
    middle value, or the mean of the middle two as ``np.mean`` sums and
    divides them; NaN when any value is. ``np.median`` would import
    numpy.ma."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if np.isnan(ordered[-1]):  # np.sort puts NaNs last
        return float(ordered[-1])
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def median_heuristic(block: ObservationBlock, modalities: Sequence[Modality]) -> CombinedKernel:
    """Uniform-weight combined kernel with unit signal variances and
    per-modality length scales set to half the median nonzero pairwise
    distance (1.0 when degenerate): the half-median keeps sparse classes
    separated. The distances come from the block's memo."""
    parts = []
    for mod in modalities:
        dists = np.sqrt(block.sqdist(mod)[np.triu_indices(len(block), 1)])
        dists = dists[dists > 0]
        width = 0.5 * _median(dists) if dists.size else 1.0
        parts.append((mod, RbfKernel(max(width, 1e-2))))
    return uniform_combined(parts)
