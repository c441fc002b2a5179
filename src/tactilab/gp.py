"""One-vs-all GP classification over the binary Laplace engine
(``laplace``), and its hyperparameter search.

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
iteration (``laplace._solve_sets``). A decoded kernel is solved at most once
per search. The search hands back the Laplace modes of its best point, and
``ova_from_modes`` makes the one-vs-all model from them: bit for bit the
models of fitting each set on its own at that kernel (``PooledSet.fit``).
Predictions are stacked the same way: ``ova_predict_groups`` predicts every
(class, query group) item of a model at once (``laplace._predict_items``)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, OptimizationError, ParameterError
from .kernels import (
    CombinedKernel,
    DependentKernel,
    KernelStack,
    ObservationBlock,
    RbfKernel,
    project_simplex,
)
from .laplace import BinaryGpcModel, PooledSet, _check_sets, _predict_items, _solve_sets


# ---------------------------------------------------------------------------
# One-vs-all multiclass
# ---------------------------------------------------------------------------


@dataclass
class OvaGpcModel:
    classes: tuple[int, ...]
    models: dict[int, BinaryGpcModel]
    kernel: CombinedKernel  # each class model's kernel, or its base for a transfer class

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


def ova_from_modes(sets: Mapping[int, PooledSet], kernel, modes: Sequence) -> OvaGpcModel:
    """The one-vs-all model of ``sets`` (class -> set) under ``kernel`` from
    each set's Laplace mode at its own rho, ``modes`` in the order of
    ``sets`` (``_LaplaceMode``s or errors, as ``_solve_sets`` gives them):
    the models ``{cls: s.fit(kernel)}``, bit for bit. Raises the error of the first
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
    return OvaGpcModel(tuple(classes), models, kernel)


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


def argmax_labels(classes: Sequence[int], probs: np.ndarray) -> np.ndarray:
    """The class of each row's largest probability in a (queries, classes)
    matrix: the first maximum, so ties take the lowest class id (classes
    sorted)."""
    return np.asarray(classes)[np.argmax(probs, axis=1)]


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
