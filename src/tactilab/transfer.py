"""Transfer core: pick the most related old object per (new object, action),
estimate the relatedness, and fit the block-kernel classification model that
pools the old object's observations with the new object's."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import MissingPriorError, ParameterError
from .features import FeatureObservation, ThermalProjector
from .gp import (
    BinaryGpcModel,
    OvaGpcModel,
    PooledSet,
    optimize_kernel_for_sets,
    ova_fit,
    ova_predict_proba,
    ova_sets,
)
from .kernels import CombinedKernel, ObservationBlock, median_heuristic

ObservationGroups = Mapping[int, Sequence[FeatureObservation]]


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
    knowledge). Immutable: nothing downstream may mutate it."""

    action_ids: tuple[str, ...]
    instances: Mapping[str, Mapping[int, tuple[FeatureObservation, ...]]]
    models: Mapping[str, OvaGpcModel]
    kernels: Mapping[str, CombinedKernel]
    projectors: Mapping[str, ThermalProjector] = field(default_factory=dict)

    def old_object_ids(self, action_id: str) -> tuple[int, ...]:
        return tuple(sorted(self.instances[action_id]))


def fit_prior_knowledge(
    instances: Mapping[str, ObservationGroups],
    projectors: Mapping[str, ThermalProjector],
    restarts: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> PriorKnowledge:
    """Freeze the instance store and fit one observation model per action."""
    frozen: dict[str, dict[int, tuple[FeatureObservation, ...]]] = {}
    models: dict[str, OvaGpcModel] = {}
    kernels: dict[str, CombinedKernel] = {}
    for action_id, groups in instances.items():
        frozen[action_id] = {
            obj: tuple(obs_list) for obj, obs_list in sorted(groups.items())
        }
        flat, labels = _flatten(frozen[action_id])
        flat = ObservationBlock.of(flat)
        start = median_heuristic(flat, flat.modalities)
        sets = ova_sets(flat, labels)
        if len(sets) == 1:
            # Single old object: degenerate one-class model, kernel tuned on
            # the all-positive problem in three sweeps.
            (cls, only), = sets.items()
            kernel, _, _ = optimize_kernel_for_sets(
                [only], start, restarts=restarts, rng=rng, max_sweeps=3
            )
            models[action_id] = OvaGpcModel((cls,), {cls: only.fit(kernel)})
        else:
            kernel, _, _ = optimize_kernel_for_sets(
                list(sets.values()), start, restarts=restarts, rng=rng
            )
            models[action_id] = ova_fit(kernel, flat, labels)
        kernels[action_id] = kernel
    return PriorKnowledge(
        action_ids=tuple(instances),
        instances=frozen,
        models=models,
        kernels=kernels,
        projectors=dict(projectors),
    )


def _flatten(groups: ObservationGroups):
    flat, labels = [], []
    for obj in sorted(groups):
        for obs in groups[obj]:
            flat.append(obs)
            labels.append(obj)
    return flat, labels


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
    if eps_neg1 < 0.5:
        raise ParameterError(f"eps_neg1 must be >= 0.5, got {eps_neg1}")
    if len(X_new_j) == 0:
        raise ParameterError("X_new_j must be nonempty")
    if action_id not in prior.models:
        raise MissingPriorError(f"no prior model for action {action_id!r}")
    model = prior.models[action_id]
    p_bar = ova_predict_proba(model, X_new_j).mean(axis=0)
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
    restarts: int = 2,
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
        pooled = _pooled_set(prior.instances[action_id][old_id], X_new_j, [], 0.5)
        _, rho, _ = optimize_kernel_for_sets(
            [pooled], base, restarts=restarts, rng=rng, fit_weights=False, fit_rho=True
        )
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
    return _pooled_set(X_old_i, X_new_j, X_new_rest, rho).fit(kernel)


def _pooled_set(X_old, X_j, X_rest, rho: float) -> PooledSet:
    """Old and target observations labelled +1, the other new objects -1."""
    X_old, X_j, X_rest = list(X_old), list(X_j), list(X_rest)
    return PooledSet(
        X=X_old + X_j + X_rest,
        y=(1.0,) * (len(X_old) + len(X_j)) + (-1.0,) * len(X_rest),
        n_old=len(X_old),
        rho=rho,
    )


def build_action_models(
    prior: Optional[PriorKnowledge],
    action_id: str,
    groups: ObservationGroups,
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    kernel_start: Optional[CombinedKernel] = None,
    restarts: int = 2,
    sweeps: int = 3,
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

    has_prior = prior is not None and action_id in prior.models
    decisions: list[TransferDecision] = []
    sets: dict[int, PooledSet] = {}
    for obj in object_ids:
        X_j = list(groups[obj])
        X_rest = [o for other in object_ids if other != obj for o in groups[other]]
        X_old: list = []
        rho = 0.0
        if has_prior:
            if method is SelectionMethod.MODEL_PREDICTION:
                decision = select_prior_by_prediction(
                    prior, action_id, X_j, thresholds.eps_neg1, new_object_id=obj
                )
            else:
                decision = select_prior_by_optimization(
                    prior, action_id, X_j, thresholds.eps_neg2, new_object_id=obj, rng=rng
                )
            decisions.append(decision)
            if decision.selected_old_id is not None:
                X_old = list(prior.instances[action_id][decision.selected_old_id])
                rho = decision.rho
        # One block per class: the rows of each set are ordered differently,
        # so no two classes can share distance matrices bit for bit.
        sets[obj] = _pooled_set(X_old, X_j, X_rest, rho)

    flat, _ = _flatten(groups)
    start = kernel_start or median_heuristic(flat, flat[0].modalities)
    kernel, _, _ = optimize_kernel_for_sets(
        list(sets.values()), start, restarts=restarts, rng=rng, max_sweeps=sweeps
    )

    models = {obj: s.fit(kernel) for obj, s in sets.items()}
    return OvaGpcModel(tuple(object_ids), models), kernel, decisions


def build_new_observation_models(
    prior: Optional[PriorKnowledge],
    X_new: Mapping[str, ObservationGroups],
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    kernel_starts: Optional[Mapping[str, CombinedKernel]] = None,
    restarts: int = 2,
    sweeps: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> tuple[dict[str, OvaGpcModel], dict[str, CombinedKernel], list[TransferDecision]]:
    """Run the per-action pipeline for every action in ``X_new``."""
    models: dict[str, OvaGpcModel] = {}
    kernels: dict[str, CombinedKernel] = {}
    decisions: list[TransferDecision] = []
    for action_id, groups in X_new.items():
        start = kernel_starts.get(action_id) if kernel_starts else None
        model, kernel, action_decisions = build_action_models(
            prior,
            action_id,
            groups,
            thresholds,
            method,
            kernel_start=start,
            restarts=restarts,
            sweeps=sweeps,
            rng=rng,
        )
        models[action_id] = model
        kernels[action_id] = kernel
        decisions.extend(action_decisions)
    return models, kernels, decisions
