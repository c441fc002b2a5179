"""Exploration loop: entropy scoring over the current models, epsilon-greedy
object/action selection, observation acquisition, and the per-action
knowledge update with a no-improvement stopping rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ParameterError, StateError
from .gp import OvaGpcModel, ova_predict_groups
from .kernels import ObservationBlock
from .results import TrialResult
from .seeding import EXPLORE_NS, INIT_NS, TRAIN_NS, derive_rng, derive_seed
from .transfer import (
    ObservationGroups,
    PriorKnowledge,
    SelectionMethod,
    TransferDecision,
    TransferThresholds,
    build_action_models,
)

PROB_FLOOR = 1e-9
STOP_WINDOW = 10
STOP_DELTA = 0.005  # half a percentage point

#: ``observe(jobs)``: the observations of (action id, object id, seed) jobs,
#: one block per (action, object), as ``assets.observe`` bound to a run.
Observe = Callable[[Sequence[tuple[str, int, int]]], dict[str, dict[int, ObservationBlock]]]


def posterior_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy (nats) of a clipped, renormalized posterior."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ParameterError("entropy of an empty class list")
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    p = p / p.sum()
    return float(-np.sum(p * np.log(p)))


def posterior_entropies(probs: np.ndarray) -> np.ndarray:
    """``posterior_entropy`` of each row of a (queries, classes) matrix, bit
    for bit."""
    p = np.clip(np.ascontiguousarray(probs, dtype=float), PROB_FLOOR, 1.0 - PROB_FLOOR)
    p = p / p.sum(axis=1, keepdims=True)
    return -np.sum(p * np.log(p), axis=1)


@dataclass
class UncertaintyTable:
    action_ids: tuple[str, ...]
    object_ids: tuple[int, ...]
    values: np.ndarray  # (n_actions, n_objects)

    def __post_init__(self):
        n_new = len(self.object_ids)
        bound = np.log(n_new) + 1e-9
        if np.any(self.values < 0.0) or np.any(self.values > bound):
            raise StateError("uncertainty entries must lie in [0, log N]")


@dataclass
class ExplorationState:
    """Mutable record of the collection loop; one block per (action, object)."""

    new_object_ids: tuple[int, ...]
    action_ids: tuple[str, ...]
    observations: dict[str, dict[int, ObservationBlock]]
    models: dict[str, OvaGpcModel] = field(default_factory=dict)
    iteration: int = 0
    seed_root: int = 0
    eps_explore: float = 0.3
    explore_rng: np.random.Generator = None

    def check_groups(self) -> None:
        for action_id in self.action_ids:
            groups = self.observations.get(action_id, {})
            for obj in self.new_object_ids:
                if not groups.get(obj):
                    raise StateError(
                        f"empty observation group for ({action_id}, {obj})"
                    )


def initialize_state(
    new_object_ids: Sequence[int],
    action_ids: Sequence[str],
    observe: Observe,
    seed_root: int,
    eps_explore: float = 0.3,
) -> ExplorationState:
    """Initial data collection: one observation per (action, object)."""
    if not (0.0 <= eps_explore <= 1.0):
        raise ParameterError("eps_explore must lie in [0, 1]")
    jobs = [
        (action_id, obj, derive_seed(seed_root, INIT_NS, idx))
        for idx, (action_id, obj) in enumerate(product(action_ids, new_object_ids))
    ]
    state = ExplorationState(
        new_object_ids=tuple(new_object_ids),
        action_ids=tuple(action_ids),
        observations=observe(jobs),
        seed_root=seed_root,
        eps_explore=eps_explore,
        explore_rng=derive_rng(seed_root, EXPLORE_NS),
    )
    state.check_groups()
    return state


def uncertainty_table(
    models: Mapping[str, OvaGpcModel],
    observations: Mapping[str, ObservationGroups],
) -> UncertaintyTable:
    """Mean posterior entropy per (action, object) observation group, one
    row per action of ``observations``, each from one prediction over the
    row's groups."""
    action_ids = tuple(observations)
    object_ids: tuple[int, ...] = ()
    rows = []
    for action_id in action_ids:
        if action_id not in models:
            raise StateError(f"no model fitted for action {action_id!r}")
        groups = observations[action_id]
        object_ids = tuple(sorted(groups))
        for obj in object_ids:
            if not groups[obj]:
                raise StateError(f"empty observation group for ({action_id}, {obj})")
        probs = ova_predict_groups(models[action_id], [groups[obj] for obj in object_ids])
        rows.append([np.mean(posterior_entropies(group)) for group in probs])
    return UncertaintyTable(action_ids, object_ids, np.array(rows))


def _draw(
    table: UncertaintyTable, eps_explore: float, rng: np.random.Generator
) -> tuple[int, str, str, float]:
    """Selection core; always consumes three draws so paired runs stay on
    the same random stream whichever branch they take."""
    p_rand = float(rng.random())
    obj_draw = int(rng.integers(len(table.object_ids)))
    act_draw = int(rng.integers(len(table.action_ids)))
    if p_rand >= eps_explore:
        flat = int(np.argmax(table.values))  # row-major: lowest action, then object
        act_idx, obj_idx = divmod(flat, len(table.object_ids))
        return table.object_ids[obj_idx], table.action_ids[act_idx], "exploit", p_rand
    return table.object_ids[obj_draw], table.action_ids[act_draw], "explore", p_rand


def select_next(
    table: UncertaintyTable, eps_explore: float, rng: np.random.Generator
) -> tuple[int, str]:
    """Next (object id, action id): argmax of the table with probability
    1 - eps_explore, otherwise independent uniform draws."""
    obj, act, _, _ = _draw(table, eps_explore, rng)
    return obj, act


def acquire(
    state: ExplorationState, object_id: int, action_id: str, observe: Observe
) -> ObservationBlock:
    """Execute one action on one object, append the new observation to its
    group's block and return it as a one-row block."""
    if object_id not in state.new_object_ids:
        raise StateError(f"object {object_id} is not in the new-object set")
    if action_id not in state.action_ids:
        raise StateError(f"action {action_id!r} is not in the action set")
    seed = derive_seed(state.seed_root, TRAIN_NS, state.iteration)
    row = observe([(action_id, object_id, seed)])[action_id][object_id]
    groups = state.observations[action_id]
    groups[object_id] = ObservationBlock.concat([groups[object_id], row])
    state.iteration += 1
    return row


def update_knowledge(
    state: ExplorationState,
    action_id: str,
    prior: Optional[PriorKnowledge],
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    rng: Optional[np.random.Generator] = None,
) -> list[TransferDecision]:
    """Run prior selection, weight estimation and model fitting for one
    action and return its decisions; models of every other action are left
    untouched. The search starts from the kernel of the action's current
    model, or, for an action not yet fitted, from the median heuristic on
    the longer first schedule (``build_action_models``)."""
    current = state.models.get(action_id)
    state.models[action_id], decisions = build_action_models(
        prior, action_id, state.observations[action_id], thresholds, method,
        kernel_start=None if current is None else current.kernel, rng=rng,
    )
    return decisions


def run_loop(
    state: ExplorationState,
    prior: Optional[PriorKnowledge],
    budget: int,
    evaluate: Callable[[str, OvaGpcModel], float],
    observe: Observe,
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    stop_window: Optional[int] = None,
    opt_rng: Optional[np.random.Generator] = None,
) -> TrialResult:
    """Fit each action of ``state.action_ids`` that has no model yet, then
    select -> acquire -> refit -> evaluate until the budget is spent or
    accuracy stalls (no gain above STOP_DELTA across ``stop_window``
    acquisitions). Every fit, first or refit, is one ``update_knowledge``
    call drawing from ``opt_rng``; it adds its decisions and an entry of the
    action's kernel weights at ``state.iteration`` (0 for the first fits) to
    the returned trial. Each acquisition also adds its accuracy to the curve
    (the mean over ``state.action_ids`` of ``evaluate(action_id, model)``)
    and its record.

    The loop holds each action's uncertainty row and accuracy. An
    acquisition grows one action's groups and refits that action's model
    only, so only its row and accuracy are computed again; the first
    iteration computes them all."""
    if budget < 0:
        raise ParameterError("budget must be >= 0")
    state.check_groups()
    trial = TrialResult(curve=[], decisions=[], gamma_trace=[], records=[])

    def refit(action_id: str) -> None:
        decisions = update_knowledge(state, action_id, prior, thresholds, method, rng=opt_rng)
        trial.decisions.extend(d.to_dict() for d in decisions)
        trial.gamma_trace.append(
            {
                "iteration": state.iteration,
                "action": action_id,
                "gamma": [float(g) for g in state.models[action_id].kernel.weights],
            }
        )

    for action_id in state.action_ids:
        if action_id not in state.models:
            refit(action_id)
    curve = trial.curve
    rows: dict[str, np.ndarray] = {}
    accs: dict[str, float] = {}
    for _ in range(budget):
        stale = [a for a in state.action_ids if a not in rows]
        fresh = uncertainty_table(state.models, {a: state.observations[a] for a in stale})
        rows.update(zip(stale, fresh.values))
        table = UncertaintyTable(
            state.action_ids, fresh.object_ids, np.array([rows[a] for a in state.action_ids])
        )
        obj, act, branch, _ = _draw(table, state.eps_explore, state.explore_rng)
        acquire(state, obj, act, observe)
        refit(act)
        del rows[act]
        accs.pop(act, None)
        for a in state.action_ids:
            if a not in accs:
                accs[a] = evaluate(a, state.models[a])
        accuracy = float(np.mean([accs[a] for a in state.action_ids]))
        curve.append(accuracy)
        trial.records.append(
            {
                "iteration": state.iteration,
                "object": obj,
                "action": act,
                "branch": branch,
                "accuracy": accuracy,
            }
        )
        if stop_window is not None and len(curve) > stop_window:
            if max(curve[-stop_window:]) - max(curve[:-stop_window]) <= STOP_DELTA:
                break
    return trial
