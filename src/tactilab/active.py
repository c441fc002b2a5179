"""Exploration loop: entropy scoring over the current models, epsilon-greedy
object/action selection, observation acquisition, and the per-action
knowledge update with a no-improvement stopping rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ParameterError, StateError
from .features import FeatureObservation
from .gp import OvaGpcModel, ova_predict_proba
from .kernels import CombinedKernel
from .seeding import EXPLORE_NS, INIT_NS, TRAIN_NS, derive_rng, derive_seed
from .transfer import (
    PriorKnowledge,
    SelectionMethod,
    TransferDecision,
    TransferThresholds,
    build_action_models,
)

PROB_FLOOR = 1e-9
STOP_WINDOW = 10
STOP_DELTA = 0.005  # half a percentage point

Simulator = Callable[[int, str, int], object]  # (object_id, action_id, seed) -> trace
Extractor = Callable[[object, str, int], FeatureObservation]


def posterior_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy (nats) of a clipped, renormalized posterior."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0:
        raise ParameterError("entropy of an empty class list")
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    p = p / p.sum()
    return float(-np.sum(p * np.log(p)))


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

    def entry(self, action_id: str, object_id: int) -> float:
        i = self.action_ids.index(action_id)
        j = self.object_ids.index(object_id)
        return float(self.values[i, j])


@dataclass
class ExplorationState:
    """Mutable record of the collection loop."""

    new_object_ids: tuple[int, ...]
    action_ids: tuple[str, ...]
    observations: dict[str, dict[int, list[FeatureObservation]]]
    models: dict[str, OvaGpcModel] = field(default_factory=dict)
    kernels: dict[str, CombinedKernel] = field(default_factory=dict)
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
    simulator: Simulator,
    extractor: Extractor,
    seed_root: int,
    eps_explore: float = 0.3,
) -> ExplorationState:
    """Initial data collection: one observation per (action, object)."""
    if not (0.0 <= eps_explore <= 1.0):
        raise ParameterError("eps_explore must lie in [0, 1]")
    observations: dict[str, dict[int, list[FeatureObservation]]] = {}
    idx = 0
    for action_id in action_ids:
        groups: dict[int, list[FeatureObservation]] = {}
        for obj in new_object_ids:
            seed = derive_seed(seed_root, INIT_NS, idx)
            idx += 1
            trace = simulator(obj, action_id, seed)
            groups[obj] = [extractor(trace, action_id, obj)]
        observations[action_id] = groups
    state = ExplorationState(
        new_object_ids=tuple(new_object_ids),
        action_ids=tuple(action_ids),
        observations=observations,
        seed_root=seed_root,
        eps_explore=eps_explore,
        explore_rng=derive_rng(seed_root, EXPLORE_NS),
    )
    state.check_groups()
    return state


def uncertainty_table(
    models: Mapping[str, OvaGpcModel],
    observations: Mapping[str, Mapping[int, Sequence[FeatureObservation]]],
    memo: Optional[dict] = None,
) -> UncertaintyTable:
    """Mean posterior entropy per (action, object) observation group.

    ``memo`` (a dict owned by the caller) keeps each action's last row with
    the model object and group sizes it was computed from; the row is reused
    while both are unchanged. Only valid while groups grow by appending, as
    in one exploration loop."""
    action_ids = tuple(observations)
    object_ids: tuple[int, ...] = ()
    rows = []
    for action_id in action_ids:
        if action_id not in models:
            raise StateError(f"no model fitted for action {action_id!r}")
        groups = observations[action_id]
        object_ids = tuple(sorted(groups))
        model = models[action_id]
        sizes = tuple(len(groups[obj]) for obj in object_ids)
        hit = memo.get(action_id) if memo is not None else None
        if hit is not None and hit[0] is model and hit[1] == sizes:
            rows.append(hit[2])
            continue
        row = []
        for obj in object_ids:
            group = list(groups[obj])
            if not group:
                raise StateError(f"empty observation group for ({action_id}, {obj})")
            probs = ova_predict_proba(model, group)
            row.append(np.mean([posterior_entropy(p) for p in probs]))
        if memo is not None:
            memo[action_id] = (model, sizes, row)
        rows.append(row)
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
    state: ExplorationState,
    object_id: int,
    action_id: str,
    simulator: Simulator,
    extractor: Extractor,
) -> FeatureObservation:
    """Execute one action on one object and append the new observation."""
    if object_id not in state.new_object_ids:
        raise StateError(f"object {object_id} is not in the new-object set")
    seed = derive_seed(state.seed_root, TRAIN_NS, state.iteration)
    trace = simulator(object_id, action_id, seed)
    obs = extractor(trace, action_id, object_id)
    state.observations[action_id][object_id].append(obs)
    state.iteration += 1
    return obs


def update_knowledge(
    state: ExplorationState,
    action_id: str,
    prior: Optional[PriorKnowledge],
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    restarts: int = 1,
    sweeps: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> tuple[dict[str, OvaGpcModel], list[TransferDecision]]:
    """Re-run weight estimation, prior selection and model fitting for one
    action; models of every other action are left untouched."""
    model, kernel, decisions = build_action_models(
        prior,
        action_id,
        state.observations[action_id],
        thresholds,
        method,
        kernel_start=state.kernels.get(action_id),
        restarts=restarts,
        sweeps=sweeps,
        rng=rng,
    )
    new_models = dict(state.models)
    new_models[action_id] = model
    state.models = new_models
    state.kernels = {**state.kernels, action_id: kernel}
    return new_models, decisions


@dataclass
class LoopRecord:
    iteration: int
    object_id: int
    action_id: str
    branch: str
    accuracy: float
    decisions: list[TransferDecision]
    gamma: list[float]
    uncertainty: dict[str, dict[int, float]]


@dataclass
class LoopResult:
    curve: list[float]
    records: list[LoopRecord]
    stopped_early: bool = False


def run_loop(
    state: ExplorationState,
    prior: Optional[PriorKnowledge],
    budget: int,
    evaluate: Callable[[Mapping[str, OvaGpcModel]], float],
    simulator: Simulator,
    extractor: Extractor,
    thresholds: TransferThresholds = TransferThresholds(),
    method: SelectionMethod = SelectionMethod.MODEL_PREDICTION,
    stop_window: Optional[int] = None,
    stop_delta: float = STOP_DELTA,
    opt_restarts: int = 1,
    opt_sweeps: int = 2,
    opt_rng: Optional[np.random.Generator] = None,
) -> LoopResult:
    """select -> acquire -> update -> evaluate until the budget is spent or
    accuracy stalls (no gain above ``stop_delta`` across ``stop_window``
    acquisitions). Returns one accuracy value per acquisition."""
    if budget < 0:
        raise ParameterError("budget must be >= 0")
    state.check_groups()
    result = LoopResult(curve=[], records=[])
    table_memo: dict = {}  # rows of actions whose model and groups are unchanged
    for _ in range(budget):
        table = uncertainty_table(state.models, state.observations, table_memo)
        obj, act, branch, _ = _draw(table, state.eps_explore, state.explore_rng)
        acquire(state, obj, act, simulator, extractor)
        _, decisions = update_knowledge(
            state,
            act,
            prior,
            thresholds,
            method,
            restarts=opt_restarts,
            sweeps=opt_sweeps,
            rng=opt_rng,
        )
        accuracy = float(evaluate(state.models))
        result.curve.append(accuracy)
        result.records.append(
            LoopRecord(
                iteration=state.iteration,
                object_id=obj,
                action_id=act,
                branch=branch,
                accuracy=accuracy,
                decisions=decisions,
                gamma=[float(g) for g in state.kernels[act].weights],
                uncertainty={
                    a: {
                        o: float(table.values[i, j])
                        for j, o in enumerate(table.object_ids)
                    }
                    for i, a in enumerate(table.action_ids)
                },
            )
        )
        if stop_window is not None and len(result.curve) > stop_window:
            recent = max(result.curve[-stop_window:])
            before = max(result.curve[:-stop_window])
            if recent - before <= stop_delta:
                result.stopped_early = True
                break
    return result
