"""Transfer core: pick the most related old object per (new object, action),
estimate the relatedness, and fit the block-kernel classification model that
pools the old object's observations with the new object's."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import MissingPriorError, ParameterError
from .gp import (
    OvaGpcModel,
    optimize_kernel_for_sets,
    ova_from_modes,
    ova_predict_groups,
    ova_predict_proba,
    ova_sets,
)
from .kernels import CombinedKernel, ObservationBlock, median_heuristic
from .laplace import BinaryGpcModel, PooledSet

#: An action's observations: one block per object.
ObservationGroups = Mapping[int, ObservationBlock]

#: Search schedule (restarts, sweeps) of an action's models: from the
#: median-heuristic start (an action's first fit in a trial), and from the
#: action's current kernel (each later refit). The prior's fit and the
#: ablation start with INIT_RESTARTS too.
INIT_RESTARTS, INIT_SWEEPS = 2, 3
UPDATE_RESTARTS, UPDATE_SWEEPS = 1, 2


class SelectionMethod(Enum):
    MODEL_PREDICTION = "model_prediction"
    MODEL_OPTIMIZATION = "model_optimization"


@dataclass(frozen=True)
class TransferThresholds:
    eps_neg1: float = 0.6
    eps_neg2: float = 0.6


@dataclass(frozen=True)
class TransferDecision:
    action_id: str
    new_object_id: int
    selected_old_id: Optional[int]
    rho: float
    method: SelectionMethod
    mean_prediction: float

    def __post_init__(self):
        if self.selected_old_id is None and self.rho != 0.0:
            raise ParameterError("rho must be 0 when no old object is selected")
        if not (0.0 <= self.rho <= 1.0):
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho}")

    def to_dict(self) -> dict:
        return {
            "action": self.action_id,
            "new_object": self.new_object_id,
            "selected_old": self.selected_old_id,
            "rho": self.rho,
            "method": self.method.value,
            "mean_prediction": self.mean_prediction,
        }


class ActionPrior(NamedTuple):
    """One action's prior knowledge: its old-object observations, one block
    per old object in object order (instance knowledge), and the one-vs-all
    model fitted on exactly those (model knowledge), which holds the tuned
    kernel. Block matrices are read-only."""

    blocks: dict[int, ObservationBlock]
    model: OvaGpcModel


#: A run's prior knowledge: each action's ``fit_action_prior``.
PriorKnowledge = Mapping[str, ActionPrior]


def fit_action_prior(
    groups: ObservationGroups, rng: Optional[np.random.Generator] = None
) -> ActionPrior:
    """Store one action's old-object blocks in object order and fit its
    observation model from the median-heuristic start on INIT_RESTARTS
    starts. The search draws from ``rng`` only its ``INIT_RESTARTS - 1``
    random starts (``gp.draw_starts``)."""
    blocks = dict(sorted(groups.items()))
    flat = ObservationBlock.concat(list(blocks.values()))
    labels = [obj for obj, block in blocks.items() for _ in range(len(block))]
    start = median_heuristic(flat, flat.modalities)
    sets = ova_sets(flat, labels)
    # A single old object gives a degenerate one-class model, its kernel
    # tuned on the all-positive problem in three sweeps.
    found = optimize_kernel_for_sets(
        list(sets.values()), start, restarts=INIT_RESTARTS, rng=rng,
        max_sweeps=3 if len(sets) == 1 else 4,
    )
    return ActionPrior(blocks, ova_from_modes(sets, found.kernel, found.modes))


def _by_prediction(
    model: OvaGpcModel, action_id: str, p_bar: np.ndarray, eps_neg1: float, new_object_id: int
) -> TransferDecision:
    """The decision from the prior model's mean posteriors ``p_bar``."""
    if eps_neg1 < 0.5:
        raise ParameterError(f"eps_neg1 must be >= 0.5, got {eps_neg1}")
    best = int(np.argmax(p_bar))  # ties: lowest old-object id (classes sorted)
    best_p = float(p_bar[best])
    if best_p >= eps_neg1:
        return TransferDecision(
            action_id,
            new_object_id,
            model.classes[best],
            best_p,
            SelectionMethod.MODEL_PREDICTION,
            best_p,
        )
    return TransferDecision(
        action_id, new_object_id, None, 0.0, SelectionMethod.MODEL_PREDICTION, best_p
    )


def select_prior_by_optimization(
    prior: PriorKnowledge,
    action_id: str,
    X_new_j: ObservationBlock,
    eps_neg2: float = 0.6,
    new_object_id: int = -1,
    rng: Optional[np.random.Generator] = None,
) -> TransferDecision:
    """Treat the relatedness as a hyperparameter: for every old object, tune
    a pooled dependent classifier by marginal likelihood and keep the largest
    fitted value. Known to over-estimate when new observations are scarce."""
    if len(X_new_j) == 0:
        raise ParameterError("X_new_j must be nonempty")
    if action_id not in prior:
        raise MissingPriorError(f"no prior instances for action {action_id!r}")
    blocks, model = prior[action_id]
    X_new_j = ObservationBlock.of(X_new_j)
    best_old, best_rho = None, -1.0
    for old_id in sorted(blocks):
        # Old and new observations all labelled +1, rho searched from 0.5.
        pooled = _pooled_set(blocks[old_id], X_new_j, [], 0.5)
        rho = optimize_kernel_for_sets(
            [pooled], model.kernel, rng=rng, fit_weights=False, fit_rho=True
        ).rho
        if rho > best_rho:
            best_old, best_rho = old_id, rho
    probs = ova_predict_proba(model, X_new_j).mean(axis=0)
    mean_pred = float(probs[model.classes.index(best_old)])
    if best_rho >= eps_neg2:
        return TransferDecision(
            action_id,
            new_object_id,
            best_old,
            best_rho,
            SelectionMethod.MODEL_OPTIMIZATION,
            mean_pred,
        )
    return TransferDecision(
        action_id, new_object_id, None, 0.0, SelectionMethod.MODEL_OPTIMIZATION, mean_pred
    )


def fit_dependent_gpc(
    X_old_i: ObservationBlock,
    X_new_j: ObservationBlock,
    X_new_rest: ObservationBlock,
    kernel: CombinedKernel,
    rho: float,
) -> BinaryGpcModel:
    """Binary classifier of the new object where the old object's
    observations join the positive side through the relatedness-scaled
    block kernel."""
    X_old, X_j, X_rest = (ObservationBlock.of(X) for X in (X_old_i, X_new_j, X_new_rest))
    return _pooled_set(X_old, X_j, [X_rest], rho).fit(kernel)


def _pooled_set(X_old, X_j, X_rest: Sequence, rho: float) -> PooledSet:
    """Old and target blocks labelled +1, the other new objects' blocks
    (``X_rest``, one per object) -1: one block of those rows in that order."""
    n_old, n_pos = len(X_old), len(X_old) + len(X_j)
    X = ObservationBlock.concat([X_old, X_j, *X_rest])
    return PooledSet(X, (1.0,) * n_pos + (-1.0,) * (len(X) - n_pos), n_old, rho)


def build_action_models(
    prior: Optional[PriorKnowledge],
    action_id: str,
    groups: ObservationGroups,
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    kernel_start: Optional[CombinedKernel] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[OvaGpcModel, list[TransferDecision]]:
    """Prior selection, weight estimation and model fitting for one action.

    The kernel (length scales and modality weights) is tuned by marginal
    likelihood over the per-object training sets the final models actually
    use, transferred blocks included. Without ``kernel_start`` the search
    starts from the median heuristic on the (INIT_RESTARTS, INIT_SWEEPS)
    schedule; from ``kernel_start`` it runs on (UPDATE_RESTARTS,
    UPDATE_SWEEPS). Returns the one-vs-all model over the new objects, which
    holds the tuned kernel, and the decision audit (empty when ``prior``
    has no entry for the action)."""
    object_ids = sorted(groups)
    for obj in object_ids:
        if len(groups[obj]) == 0:
            raise ParameterError(f"object {obj} has no observations for {action_id}")

    action_prior = (prior or {}).get(action_id)
    has_prior = action_prior is not None
    if has_prior and method is SelectionMethod.MODEL_PREDICTION:  # all objects in one call
        probs = ova_predict_groups(action_prior.model, [groups[obj] for obj in object_ids])
    decisions: list[TransferDecision] = []
    sets: dict[int, PooledSet] = {}
    for k, obj in enumerate(object_ids):
        X_old, rho = ObservationBlock.of(()), 0.0
        if has_prior:
            if method is SelectionMethod.MODEL_PREDICTION:
                p_bar = probs[k].mean(axis=0)
                decision = _by_prediction(
                    action_prior.model, action_id, p_bar, thresholds.eps_neg1, obj
                )
            else:
                decision = select_prior_by_optimization(
                    prior, action_id, groups[obj], thresholds.eps_neg2, new_object_id=obj, rng=rng
                )
            decisions.append(decision)
            if decision.selected_old_id is not None:
                X_old = action_prior.blocks[decision.selected_old_id]
                rho = decision.rho
        # One block per class: the rows of each set are ordered differently,
        # so no two classes can share distance matrices bit for bit.
        rest = [groups[other] for other in object_ids if other != obj]
        sets[obj] = _pooled_set(X_old, groups[obj], rest, rho)

    restarts, sweeps = UPDATE_RESTARTS, UPDATE_SWEEPS
    if kernel_start is None:
        flat = ObservationBlock.concat([groups[obj] for obj in object_ids])
        kernel_start = median_heuristic(flat, flat.modalities)
        restarts, sweeps = INIT_RESTARTS, INIT_SWEEPS
    found = optimize_kernel_for_sets(
        list(sets.values()), kernel_start, restarts=restarts, rng=rng, max_sweeps=sweeps
    )
    return ova_from_modes(sets, found.kernel, found.modes), decisions
