"""What every trial of a run shares: the set-up's trace jobs and their
feature rows, each action's thermal projector and prior knowledge (one
set-up task per action), the held-out test set and the accuracy evaluator
over it; and the one path from trace jobs to observation blocks, which
set-up, the trials and the ablation all take."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, InsufficientDataError
from .features import (
    SEGMENTATION,
    Modality,
    ThermalProjector,
    fit_projector,
    project_thermal,
    raw_features_stack,
)
from .gp import OvaGpcModel, argmax_labels, draw_starts, ova_predict_proba
from .kernels import ObservationBlock
from .seeding import CALIB_NS, OPT_NS, PRIOR_NS, TEST_NS, derive_rng, derive_seed
from .signals import (
    STANDARD_ACTIONS,
    ActionKind,
    Catalog,
    simulate_stack,
    trace_nbytes,
)
from .transfer import INIT_RESTARTS, ActionPrior, ObservationGroups, fit_action_prior


def _action_index(action_id: str) -> int:
    """The action's place in the standard order; it keys the action's seed
    streams."""
    return list(STANDARD_ACTIONS).index(action_id)


#: The skin's per-cell sensor count that each feature modality reads.
_SENSOR_COUNTS = {
    Modality.FORCE: "force_per_cell",
    Modality.TEXTURE: "accel_per_cell",
    Modality.THERMAL: "temp_per_cell",
}


def check_catalog_objects(config: ExperimentConfig, catalog: Catalog) -> None:
    """Raise ConfigError naming the configured object ids the catalog lacks,
    a skin sensor count of 0 that a configured action's features read
    (``SEGMENTATION``), with that action, or a sample rate at which an
    action's trace has more bytes than a numpy array can index."""
    missing = [
        i
        for i in config.prior_objects + config.new_objects
        if not any(obj.id == i for obj in catalog)
    ]
    if missing:
        raise ConfigError(f"object id(s) {missing} not present in catalog")
    skin, limit = catalog.skin, np.iinfo(np.intp).max
    for action_id in config.actions:
        action = STANDARD_ACTIONS[action_id]
        for modality, _ in SEGMENTATION[action.kind]:
            name = _SENSOR_COUNTS[modality]
            count = getattr(skin, name)
            if count < 1:
                raise ConfigError(
                    f"skin: {name} must be >= 1 for action {action_id}, got {count}"
                )
        samples = action.duration_s * skin.sample_rate_hz  # inf past the float range
        if not (math.isfinite(samples) and trace_nbytes(action, skin) <= limit):
            raise ConfigError(
                f"skin: sample_rate_hz {skin.sample_rate_hz!r} makes each trace of action "
                f"{action_id} larger than the {limit} bytes an array can hold"
            )


#: One simulated trace, of set-up or of a trial: (action id, object id, seed).
TraceJob = tuple[str, int, int]


def _trace_jobs(
    config: ExperimentConfig,
    object_ids: Sequence[int],
    samples: Callable[[str], int],
    namespace: int,
) -> list[TraceJob]:
    """Per action, per object, ``samples(action_id)`` traces from the
    namespace's streams."""
    return [
        (action_id, obj, derive_seed(namespace, _action_index(action_id), obj, k))
        for action_id in config.actions
        for obj in object_ids
        for k in range(samples(action_id))
    ]


def projector_pool_jobs(config: ExperimentConfig) -> list[TraceJob]:
    """The traces the thermal projectors are fitted on: the prior pool, or,
    without prior objects, a calibration pool over the new objects."""
    if config.prior_objects:
        per_object = config.prior_samples_per_object
        return _trace_jobs(config, config.prior_objects, lambda _: per_object, PRIOR_NS)
    calib_samples = max(3, -(-11 // len(config.new_objects)))
    return _trace_jobs(config, config.new_objects, lambda _: calib_samples, CALIB_NS)


def held_out_jobs(config: ExperimentConfig) -> list[TraceJob]:
    """The held-out traces of every (object, action) pair, drawn from the
    test seed namespace (disjoint from all training streams)."""
    objects = config.prior_objects + config.new_objects
    return _trace_jobs(config, objects, partial(test_samples_for, config), TEST_NS)


#: Stacked trace bytes per set-up batch. A trace larger than this goes alone
#: (a C1 trace of the default skin is 336 KB). The cap bounds set-up's peak
#: memory: with each action's run of jobs as one stack, in-process set-up of
#: the A1 benchmark inputs peaked at 19.7 MiB of Python allocations, against
#: 2.25 MiB at this cap (tracemalloc).
BATCH_BYTES = 192 * 1024


def job_batches(catalog: Catalog, jobs: Sequence[TraceJob]) -> list[list[TraceJob]]:
    """``jobs`` in order, cut into batches of consecutive jobs of one action,
    each of at most ``BATCH_BYTES`` of traces (at least one trace)."""
    batches = []
    for action_id, run in groupby(jobs, key=itemgetter(0)):
        run = list(run)
        nbytes = trace_nbytes(STANDARD_ACTIONS[action_id], catalog.skin)
        size = max(1, BATCH_BYTES // max(1, nbytes))
        batches += [run[i : i + size] for i in range(0, len(run), size)]
    return batches


#: One batch's (lead modality, lead rows, raw thermal rows): ``raw_features_stack``.
FeatureRows = tuple[Modality, np.ndarray, np.ndarray]
#: Batches with their feature rows, as ``set_up_features`` yields them.
Batches = Iterable[tuple[Sequence[TraceJob], FeatureRows]]


def batch_features(catalog: Catalog, batch: Sequence[TraceJob]) -> FeatureRows:
    """Simulate one batch of trace jobs as one stack and reduce it to its
    feature rows: bit for bit what each trace gives alone."""
    stack = simulate_stack(
        [catalog.by_id(obj) for _, obj, _ in batch],
        STANDARD_ACTIONS[batch[0][0]],
        [seed for _, _, seed in batch],
        catalog.skin,
        catalog.noise,
    )
    return raw_features_stack(stack)


def set_up_features(
    catalog: Catalog, jobs: Sequence[TraceJob], mapper=map
) -> Iterator[tuple[list[TraceJob], FeatureRows]]:
    """Each of the ``job_batches`` of ``jobs``, in order, with its feature
    rows: ``mapper`` (``map``, or a pool's, which is handed every batch
    now) runs ``batch_features`` over the batches."""
    batches = job_batches(catalog, jobs)
    return zip(batches, mapper(partial(batch_features, catalog), batches))


def fit_projectors_from_pool(batches: Batches) -> dict[str, ThermalProjector]:
    """One thermal projector per action, fitted on the raw thermal rows of
    that action's pool batches."""
    thermal: dict[str, list[np.ndarray]] = {}
    for jobs, (_, _, raw) in batches:
        thermal.setdefault(jobs[0][0], []).append(raw)
    projectors: dict[str, ThermalProjector] = {}
    for action_id, rows in thermal.items():
        rows = np.concatenate(rows)
        if len(rows) < 11:
            raise InsufficientDataError(
                f"action {action_id}: projector pool holds {len(rows)} traces (< 11); "
                "raise prior_samples_per_object"
            )
        projectors[action_id] = fit_projector(rows)
    return projectors


def prior_search_rngs(config: ExperimentConfig) -> list[np.random.Generator]:
    """Per configured action, the prior's search stream
    ``derive_rng(OPT_NS, PRIOR_NS)`` at the state that action's search
    starts from when the actions' priors are fitted in turn on the one
    stream (``fit_action_prior`` per action in config order, every search
    drawing from that stream): one copy of the stream per action, taken
    before that action's draws (``draw_starts``, whose layout is set
    by the action's modalities)."""
    stream, rngs = derive_rng(OPT_NS, PRIOR_NS), []
    for action_id in config.actions:
        rngs.append(copy.deepcopy(stream))
        draw_starts(stream, len(SEGMENTATION[STANDARD_ACTIONS[action_id].kind]), INIT_RESTARTS)
    return rngs


def set_up_action(
    config: ExperimentConfig, catalog: Catalog, action_id: str, rng: np.random.Generator
) -> tuple[ThermalProjector, Optional[ActionPrior]]:
    """One action's share of set-up: simulate the action's
    ``projector_pool_jobs`` batches and fit its thermal projector on them.
    With prior objects configured the pool is also the action's instance
    knowledge, and its model is searched from ``rng``
    (``prior_search_rngs``): returns (projector, the action's
    ``fit_action_prior``). Without priors the pool is a calibration stream
    over the new objects: returns (projector, None)."""
    jobs = [job for job in projector_pool_jobs(config) if job[0] == action_id]
    batches = list(set_up_features(catalog, jobs))
    projector = fit_projectors_from_pool(batches)[action_id]
    if not config.prior_objects:
        return projector, None
    groups = observation_groups({action_id: projector}, batches)[action_id]
    return projector, fit_action_prior(groups, rng)


def batch_block(
    projectors: Mapping[str, ThermalProjector], jobs: Sequence[TraceJob], rows: FeatureRows
) -> ObservationBlock:
    """One batch's observations as one block, its thermal rows projected.
    The first row with a non-finite entry raises ValueError naming the
    segment, its lead segment before its thermal."""
    lead, lead_rows, raw = rows
    thermal = project_thermal(raw, projectors[jobs[0][0]])
    lead_bad = ~np.isfinite(lead_rows).all(axis=1)
    bad = lead_bad | ~np.isfinite(thermal).all(axis=1)
    if bad.any():
        segment = lead if lead_bad[np.argmax(bad)] else Modality.THERMAL
        raise ValueError(f"non-finite entries in {segment.value} segment")
    return ObservationBlock((lead, Modality.THERMAL), (lead_rows, thermal), len(jobs))


def observation_groups(
    projectors: Mapping[str, ThermalProjector], batches: Batches
) -> dict[str, dict[int, ObservationBlock]]:
    """The batches' observations in one block per (action, object): actions,
    objects and rows in job order. Each batch block is made (and checked) as
    it arrives, and cut into its runs of one (action, object)."""
    runs: dict[str, dict[int, list[ObservationBlock]]] = {}
    for jobs, rows in batches:
        block, start = batch_block(projectors, jobs, rows), 0
        for (action_id, obj), run in groupby(jobs, key=itemgetter(0, 1)):
            stop = start + len(list(run))
            runs.setdefault(action_id, {}).setdefault(obj, []).append(block[start:stop])
            start = stop
    return {a: {obj: ObservationBlock.concat(p) for obj, p in g.items()} for a, g in runs.items()}


def observe(
    catalog: Catalog, projectors: Mapping[str, ThermalProjector], jobs: Sequence[TraceJob]
) -> dict[str, dict[int, ObservationBlock]]:
    """The observations of ``jobs``, one block per (action, object): simulated
    and reduced in set-up's batches, bit for bit what each trace gives
    alone. A trial binds the run's catalog and projectors."""
    return observation_groups(projectors, set_up_features(catalog, jobs))


@dataclass
class TestSet:
    groups: dict[str, ObservationGroups]  # per action: object id -> its block

    def size(self) -> int:
        return sum(len(block) for groups in self.groups.values() for block in groups.values())


def test_samples_for(config: ExperimentConfig, action_id: str) -> int:
    kind = STANDARD_ACTIONS[action_id].kind
    if kind is ActionKind.STATIC_CONTACT:
        return config.test_samples_static
    return config.test_samples_press_slide


def build_test_set(projectors: Mapping[str, ThermalProjector], batches: Batches) -> TestSet:
    """Held-out observations by action and object, from ``held_out_jobs`` batches."""
    return TestSet(observation_groups(projectors, batches))


def new_object_slice(
    config: ExperimentConfig, test: TestSet, action_id: str
) -> tuple[ObservationBlock, np.ndarray]:
    """The action's test observations of the new objects, in
    ``config.new_objects`` order, with their labels."""
    blocks = [test.groups[action_id][obj] for obj in config.new_objects]
    labels = np.repeat(config.new_objects, [len(block) for block in blocks])
    return ObservationBlock.concat(blocks), labels


def accuracy(model: OvaGpcModel, obs: ObservationBlock, labels: np.ndarray) -> float:
    """Share of ``obs`` whose most probable class is its label."""
    preds = argmax_labels(model.classes, ova_predict_proba(model, obs))
    return float(np.mean(preds == labels))


def make_evaluator(config: ExperimentConfig, test: TestSet):
    """``evaluate(action_id, model)``: the model's discrimination accuracy on
    the action's new-object test slice. The active loop averages it over the
    actions."""
    slices = {a: new_object_slice(config, test, a) for a in config.actions}

    def evaluate(action_id: str, model: OvaGpcModel) -> float:
        return accuracy(model, *slices[action_id])

    return evaluate
