"""Transfer core: pick the most related old object per (new object, action),
estimate the relatedness, and fit the block-kernel classification model that
pools the old object's observations with the new object's."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import MissingPriorError, ParameterError
from .features import FeatureObservation
from .gp import (
    BinaryGpcModel,
    OvaGpcModel,
    PooledSet,
    optimize_kernel_for_sets,
    ova_from_modes,
    ova_predict_groups,
    ova_predict_proba,
    ova_sets,
)
from .kernels import CombinedKernel, ObservationBlock, median_heuristic

ObservationGroups = Mapping[int, Sequence[FeatureObservation]]

#: Search schedule (restarts, sweeps) of the first models of a trial, and
#: of each refit in the active loop. The prior's fit and the ablation start
#: with INIT_RESTARTS too.
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


@dataclass(frozen=True)
class PriorKnowledge:
    """Per-action store of old-object observations (instance knowledge) and
    the one-vs-all models fitted on exactly those observations (model
    knowledge). ``blocks`` holds each old object's instances as one block,
    stacked once. Immutable: nothing downstream may mutate it."""

    instances: Mapping[str, Mapping[int, tuple[FeatureObservation, ...]]]
    models: Mapping[str, OvaGpcModel]
    kernels: Mapping[str, CombinedKernel]
    blocks: Mapping[str, Mapping[int, ObservationBlock]]

    def old_object_ids(self, action_id: str) -> tuple[int, ...]:
        return tuple(sorted(self.instances[action_id]))


def fit_prior_knowledge(
    instances: Mapping[str, ObservationGroups],
    restarts: int = INIT_RESTARTS,
    rng: Optional[np.random.Generator] = None,
) -> PriorKnowledge:
    """Freeze the instance store, stack each old object's instances into one
    block, and fit one observation model per action."""
    frozen: dict[str, dict[int, tuple[FeatureObservation, ...]]] = {}
    blocks: dict[str, dict[int, ObservationBlock]] = {}
    models: dict[str, OvaGpcModel] = {}
    kernels: dict[str, CombinedKernel] = {}
    for action_id, groups in instances.items():
        frozen[action_id] = {
            obj: tuple(obs_list) for obj, obs_list in sorted(groups.items())
        }
        blocks[action_id] = {
            obj: ObservationBlock.of(obs) for obj, obs in frozen[action_id].items()
        }
        flat = ObservationBlock.concat(list(blocks[action_id].values()))
        labels = [obj for obj, obs in frozen[action_id].items() for _ in obs]
        start = median_heuristic(flat, flat.modalities)
        sets = ova_sets(flat, labels)
        # A single old object gives a degenerate one-class model, its kernel
        # tuned on the all-positive problem in three sweeps.
        found = optimize_kernel_for_sets(
            list(sets.values()), start, restarts=restarts, rng=rng,
            max_sweeps=3 if len(sets) == 1 else 4,
        )
        models[action_id] = ova_from_modes(sets, found.kernel, found.modes)
        kernels[action_id] = found.kernel
    return PriorKnowledge(instances=frozen, models=models, kernels=kernels, blocks=blocks)


def select_prior_by_prediction(
    prior: PriorKnowledge,
    action_id: str,
    X_new_j: Sequence[FeatureObservation],
    eps_neg1: float = 0.6,
    new_object_id: int = -1,
) -> TransferDecision:
    """Score each old object by its mean binary posterior over the new
    observations; transfer from the best one iff the score clears the
    threshold, with the score itself as the relatedness."""
    if len(X_new_j) == 0:
        raise ParameterError("X_new_j must be nonempty")
    if action_id not in prior.models:
        raise MissingPriorError(f"no prior model for action {action_id!r}")
    model = prior.models[action_id]
    p_bar = ova_predict_proba(model, X_new_j).mean(axis=0)
    return _by_prediction(model, action_id, p_bar, eps_neg1, new_object_id)


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
    X_new_j: Sequence[FeatureObservation],
    eps_neg2: float = 0.6,
    new_object_id: int = -1,
    rng: Optional[np.random.Generator] = None,
) -> TransferDecision:
    """Treat the relatedness as a hyperparameter: for every old object, tune
    a pooled dependent classifier by marginal likelihood and keep the largest
    fitted value. Known to over-estimate when new observations are scarce."""
    if len(X_new_j) == 0:
        raise ParameterError("X_new_j must be nonempty")
    if action_id not in prior.instances:
        raise MissingPriorError(f"no prior instances for action {action_id!r}")
    base = prior.kernels[action_id]
    best_old, best_rho = None, -1.0
    for old_id in prior.old_object_ids(action_id):
        # Old and new observations all labelled +1, rho searched from 0.5.
        pooled = _pooled_set(prior.blocks[action_id][old_id], X_new_j, [], 0.5)
        rho = optimize_kernel_for_sets(
            [pooled], base, rng=rng, fit_weights=False, fit_rho=True
        ).rho
        if rho > best_rho:
            best_old, best_rho = old_id, rho
    mean_pred = 0.0
    if action_id in prior.models:
        probs = ova_predict_proba(prior.models[action_id], X_new_j).mean(axis=0)
        idx = prior.models[action_id].classes.index(best_old)
        mean_pred = float(probs[idx])
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
    X_old_i: Sequence[FeatureObservation],
    X_new_j: Sequence[FeatureObservation],
    X_new_rest: Sequence[FeatureObservation],
    kernel: CombinedKernel,
    rho: float,
) -> BinaryGpcModel:
    """Binary classifier of the new object where the old object's
    observations join the positive side through the relatedness-scaled
    block kernel."""
    return _pooled_set(X_old_i, X_new_j, [X_new_rest], rho).fit(kernel)


def _pooled_set(X_old, X_j, X_rest: Sequence, rho: float) -> PooledSet:
    """Old and target observations labelled +1, the other new objects'
    groups (``X_rest``, one per object) -1: one block of those rows in that
    order, joined from the per-object blocks."""
    blocks = [ObservationBlock.of(X) for X in (X_old, X_j, *X_rest)]
    n_old, n_pos = len(blocks[0]), len(blocks[0]) + len(blocks[1])
    X = ObservationBlock.concat(blocks)
    return PooledSet(X, (1.0,) * n_pos + (-1.0,) * (len(X) - n_pos), n_old, rho)


def build_action_models(
    prior: Optional[PriorKnowledge],
    action_id: str,
    groups: ObservationGroups,
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    kernel_start: Optional[CombinedKernel] = None,
    restarts: int = INIT_RESTARTS,
    sweeps: int = INIT_SWEEPS,
    rng: Optional[np.random.Generator] = None,
) -> tuple[OvaGpcModel, CombinedKernel, list[TransferDecision]]:
    """Prior selection, weight estimation and model fitting for one action.

    The kernel (length scales and modality weights) is tuned by marginal
    likelihood over the per-object training sets the final models actually
    use, transferred blocks included. Returns the one-vs-all model over the
    new objects, the tuned kernel, and the decision audit (empty when no
    prior knowledge covers the action)."""
    object_ids = sorted(groups)
    for obj in object_ids:
        if len(groups[obj]) == 0:
            raise ParameterError(f"object {obj} has no observations for {action_id}")

    blocks = {obj: ObservationBlock.of(groups[obj]) for obj in object_ids}
    has_prior = prior is not None and action_id in prior.models
    if has_prior and method is SelectionMethod.MODEL_PREDICTION:  # all objects in one call
        probs = ova_predict_groups(prior.models[action_id], [blocks[obj] for obj in object_ids])
    decisions: list[TransferDecision] = []
    sets: dict[int, PooledSet] = {}
    for k, obj in enumerate(object_ids):
        X_old: Sequence[FeatureObservation] | ObservationBlock = ()
        rho = 0.0
        if has_prior:
            if method is SelectionMethod.MODEL_PREDICTION:
                p_bar = probs[k].mean(axis=0)
                decision = _by_prediction(
                    prior.models[action_id], action_id, p_bar, thresholds.eps_neg1, obj
                )
            else:
                decision = select_prior_by_optimization(
                    prior, action_id, blocks[obj], thresholds.eps_neg2, new_object_id=obj, rng=rng
                )
            decisions.append(decision)
            if decision.selected_old_id is not None:
                X_old = prior.blocks[action_id][decision.selected_old_id]
                rho = decision.rho
        # One block per class: the rows of each set are ordered differently,
        # so no two classes can share distance matrices bit for bit.
        rest = [blocks[other] for other in object_ids if other != obj]
        sets[obj] = _pooled_set(X_old, blocks[obj], rest, rho)

    if kernel_start is None:
        flat = ObservationBlock.concat([blocks[obj] for obj in object_ids])
        kernel_start = median_heuristic(flat, flat.modalities)
    found = optimize_kernel_for_sets(
        list(sets.values()), kernel_start, restarts=restarts, rng=rng, max_sweeps=sweeps
    )
    return ova_from_modes(sets, found.kernel, found.modes), found.kernel, decisions


def build_new_observation_models(
    prior: Optional[PriorKnowledge],
    X_new: Mapping[str, ObservationGroups],
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    rng: Optional[np.random.Generator] = None,
) -> tuple[dict[str, OvaGpcModel], dict[str, CombinedKernel], list[TransferDecision]]:
    """Run the per-action pipeline for every action in ``X_new``: a trial's
    first models, searched on the (INIT_RESTARTS, INIT_SWEEPS) schedule."""
    models: dict[str, OvaGpcModel] = {}
    kernels: dict[str, CombinedKernel] = {}
    decisions: list[TransferDecision] = []
    for action_id, groups in X_new.items():
        model, kernel, action_decisions = build_action_models(
            prior, action_id, groups, thresholds, method, rng=rng
        )
        models[action_id] = model
        kernels[action_id] = kernel
        decisions.extend(action_decisions)
    return models, kernels, decisions
