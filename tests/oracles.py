"""Reference implementations that the tests check the package against.

Each is the one-item, one-problem or scalar case of a stacked path that the
package runs, kept here because no run path calls it:

- ``fit_sets``, ``ova_fit``, ``ova_predict`` and ``argmax_label``: one-vs-all
  models fitted at one kernel and one-query predictions, over the stacked
  solve (``laplace._solve_sets``) and prediction (``gp.ova_predict_proba``);
- ``rbf_eval`` and ``combined_eval``: one kernel entry between two points
  (two vectors, or the rows of two one-row blocks), against the gram
  builders in ``kernels``;
- ``extract_stiffness`` and ``extract_texture``: one trace's features, the
  one-item cases of ``features._stiffnesses`` and ``features._textures``;
- ``SensorTrace``, ``stack_of`` and ``trace_of``: one trace, and its
  conversions to and from one item of a ``signals.TraceStack``;
- ``simulate``: one trace, the one-item case of ``signals.simulate_stack``;
- ``fit_prior_knowledge``: every action's ``transfer.fit_action_prior`` in
  turn on one rng, the prior that set-up fits one action per task;
- ``select_prior_by_prediction``: one new object's prediction-based
  decision, which ``transfer.build_action_models`` makes for all new
  objects from one stacked prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from tactilab.errors import MissingPriorError, ParameterError, SegmentationError
from tactilab.features import _stiffnesses, _textures
from tactilab.gp import OvaGpcModel, ova_from_modes, ova_predict_proba, ova_sets
from tactilab.kernels import CombinedKernel, ObservationBlock, RbfKernel
from tactilab.laplace import PooledSet, _check_sets, _solve_sets
from tactilab.signals import (
    ActionKind,
    ExploratoryAction,
    NoiseScales,
    ObjectSpec,
    SkinConfig,
    TraceStack,
    simulate_stack,
)
from tactilab.transfer import (
    ObservationGroups,
    PriorKnowledge,
    TransferDecision,
    _by_prediction,
    fit_action_prior,
)


# ---------------------------------------------------------------------------
# One-vs-all
# ---------------------------------------------------------------------------


def fit_sets(sets: Mapping[int, PooledSet], kernel) -> OvaGpcModel:
    """The models ``{cls: s.fit(kernel)}`` bit for bit, solved in one
    ``_solve_sets`` call (see ``ova_from_modes`` for its errors)."""
    _check_sets(sets.values(), "fit_sets")
    solved = _solve_sets(list(sets.values()), [kernel], None)
    return ova_from_modes(sets, kernel, [mode for (mode,) in solved])


def ova_fit(kernel, X, labels) -> OvaGpcModel:
    """One binary model per class, each trained on the same observation block."""
    sets = ova_sets(X, labels)
    if len(sets) < 2:
        raise ParameterError("one-vs-all needs at least two classes")
    return fit_sets(sets, kernel)


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
# Kernel entries
# ---------------------------------------------------------------------------


def rbf_eval(kernel: RbfKernel, x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise SegmentationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    sq = float(np.sum((x - y) ** 2))
    return kernel.signal_variance * np.exp(-sq / (2.0 * kernel.length_scale**2))


def _check_segmentation(kernel: CombinedKernel, obs: ObservationBlock) -> None:
    if obs.modalities != kernel.modalities:
        raise SegmentationError(
            f"observation modalities {obs.modalities} do not match kernel parts "
            f"{kernel.modalities}"
        )


def combined_eval(kernel: CombinedKernel, x: ObservationBlock, y: ObservationBlock) -> float:
    """The kernel entry between two one-row blocks."""
    _check_segmentation(kernel, x)
    _check_segmentation(kernel, y)
    total = 0.0
    for gamma, (mod, part) in zip(kernel.weights, kernel.parts):
        total += gamma * rbf_eval(part, x.matrix(mod)[0], y.matrix(mod)[0])
    return float(total)


# ---------------------------------------------------------------------------
# One trace
# ---------------------------------------------------------------------------


@dataclass
class SensorTrace:
    """Raw multi-channel recording of one action execution: one item of a
    ``TraceStack``, with the stack's channels."""

    forces: Optional[np.ndarray]  # (n_force, M) in N
    temps: Optional[np.ndarray]  # (n_temp, M) in degC
    accels: Optional[np.ndarray]  # (n_accel, 3, M) in g
    sample_rate: float
    kind: ActionKind


def stack_of(trace: SensorTrace) -> TraceStack:
    """The one-item stack of ``trace`` (views of its channels)."""
    lift = lambda c: None if c is None else c[None]
    channels = (lift(trace.forces), lift(trace.temps), lift(trace.accels))
    return TraceStack(*channels, trace.sample_rate, trace.kind)


def trace_of(stack: TraceStack, i: int) -> SensorTrace:
    """Trace ``i`` of ``stack`` (views of its rows)."""
    pick = lambda c: None if c is None else c[i]
    channels = (pick(stack.forces), pick(stack.temps), pick(stack.accels))
    return SensorTrace(*channels, stack.sample_rate, stack.kind)


def simulate(
    obj: ObjectSpec,
    action: ExploratoryAction,
    seed: int,
    skin: SkinConfig = SkinConfig(),
    noise: NoiseScales = NoiseScales(),
) -> SensorTrace:
    """Generate the sensor trace for one action execution.

    Pure function of (object, action, seed, skin, noise): the same inputs
    produce a bit-identical trace. The one-item case of ``simulate_stack``."""
    return trace_of(simulate_stack([obj], action, [seed], skin, noise), 0)


# ---------------------------------------------------------------------------
# Features of one trace
# ---------------------------------------------------------------------------


def extract_stiffness(trace: SensorTrace) -> float:
    """Mean normal force over all force sensors and time steps."""
    return float(_stiffnesses(stack_of(trace).forces)[0])


def extract_texture(trace: SensorTrace) -> np.ndarray:
    """4-vector [activity, mobility, complexity, axis correlation].

    The first three statistics are averaged over every accelerometer and
    axis with nonzero variance; the correlation is averaged over the axis
    pairs (xy, xz, yz) of each accelerometer whose two axes both have
    nonzero variance. Raises ZeroVarianceError when every axis is constant.
    The one-item case of ``_textures``."""
    return _textures(stack_of(trace).accels)[0]


# ---------------------------------------------------------------------------
# Prior knowledge and selection
# ---------------------------------------------------------------------------


def fit_prior_knowledge(
    instances: Mapping[str, ObservationGroups], rng: Optional[np.random.Generator] = None
) -> PriorKnowledge:
    """Fit each action's prior (``fit_action_prior``) in turn, every search
    drawing from the one ``rng``."""
    return {action: fit_action_prior(groups, rng) for action, groups in instances.items()}


def select_prior_by_prediction(
    prior: PriorKnowledge,
    action_id: str,
    X_new_j: ObservationBlock,
    eps_neg1: float = 0.6,
    new_object_id: int = -1,
) -> TransferDecision:
    """Score each old object by its mean binary posterior over the new
    observations; transfer from the best one iff the score clears the
    threshold, with the score itself as the relatedness."""
    if len(X_new_j) == 0:
        raise ParameterError("X_new_j must be nonempty")
    if action_id not in prior:
        raise MissingPriorError(f"no prior model for action {action_id!r}")
    model = prior[action_id].model
    p_bar = ova_predict_proba(model, X_new_j).mean(axis=0)
    return _by_prediction(model, action_id, p_bar, eps_neg1, new_object_id)
