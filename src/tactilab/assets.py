"""What every trial of a run shares: the set-up's trace jobs and their raw
features, the thermal projectors, the prior knowledge, the held-out test set
and the accuracy evaluator over it; and the one path from trace jobs to
observations, which set-up, the trials and the ablation all take."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, InsufficientDataError
from .features import (
    FeatureObservation,
    RawFeatures,
    ThermalProjector,
    fit_projector,
    observation_from_raw,
    raw_features_stack,
)
from .gp import OvaGpcModel, argmax_labels, ova_predict_proba
from .kernels import ObservationBlock
from .seeding import CALIB_NS, OPT_NS, PRIOR_NS, TEST_NS, derive_rng, derive_seed
from .signals import (
    STANDARD_ACTIONS,
    ActionKind,
    Catalog,
    simulate_stack,
    trace_nbytes,
)
from .transfer import INIT_RESTARTS, ObservationGroups, PriorKnowledge, fit_prior_knowledge


def _action_index(action_id: str) -> int:
    """The action's place in the standard order; it keys the action's seed
    streams."""
    return list(STANDARD_ACTIONS).index(action_id)


def check_catalog_objects(config: ExperimentConfig, catalog: Catalog) -> None:
    """Raise ConfigError naming the configured object ids the catalog lacks."""
    missing = [
        i
        for i in config.prior_objects + config.new_objects
        if not any(obj.id == i for obj in catalog)
    ]
    if missing:
        raise ConfigError(f"object id(s) {missing} not present in catalog")


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


def batch_features(catalog: Catalog, batch: Sequence[TraceJob]) -> list[RawFeatures]:
    """Simulate one batch of trace jobs as one stack and reduce each to
    its raw features: bit for bit what each trace gives alone."""
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
) -> Iterator[RawFeatures]:
    """The raw features of ``jobs``, in order: ``mapper`` (``map``, or a
    pool's) runs ``batch_features`` over the ``job_batches``."""
    batches = job_batches(catalog, jobs)
    return chain.from_iterable(mapper(partial(batch_features, catalog), batches))


def fit_projectors_from_pool(
    jobs: Sequence[TraceJob], raws: Sequence[RawFeatures]
) -> dict[str, ThermalProjector]:
    """One thermal projector per action, fitted on the raw thermal features
    of that action's pool traces."""
    projectors: dict[str, ThermalProjector] = {}
    for action_id in dict.fromkeys(a for a, _, _ in jobs):
        thermal = [r.thermal for (a, _, _), r in zip(jobs, raws) if a == action_id]
        if len(thermal) < 11:
            raise InsufficientDataError(
                f"action {action_id}: projector pool holds {len(thermal)} traces (< 11); "
                "raise prior_samples_per_object"
            )
        projectors[action_id] = fit_projector(np.stack(thermal))
    return projectors


def build_prior(
    config: ExperimentConfig, jobs: Sequence[TraceJob], features: Iterable[RawFeatures]
) -> tuple[Optional[PriorKnowledge], dict[str, ThermalProjector]]:
    """Fixed prior tactile knowledge for the experiment.

    With prior objects configured, the projectors are fitted on the prior
    pool and the pool itself becomes the instance knowledge. Without priors,
    projectors come from a dedicated calibration stream over the new objects
    and no knowledge store is built. ``jobs`` is ``projector_pool_jobs(config)``;
    the first ``len(jobs)`` items of ``features`` are their raw features."""
    raws = list(islice(features, len(jobs)))
    projectors = fit_projectors_from_pool(jobs, raws)
    if not config.prior_objects:
        return None, projectors
    groups = observation_groups(jobs, job_observations(projectors, jobs, raws))
    prior = fit_prior_knowledge(groups, restarts=INIT_RESTARTS, rng=derive_rng(OPT_NS, PRIOR_NS))
    return prior, projectors


def job_observations(
    projectors: Mapping[str, ThermalProjector],
    jobs: Sequence[TraceJob],
    features: Iterable[RawFeatures],
) -> list[FeatureObservation]:
    """Each job's observation, from its raw features, in job order. Takes
    ``len(jobs)`` items of ``features``, no more."""
    return [
        observation_from_raw(raw, action_id, projectors[action_id], obj)
        for (action_id, obj, _), raw in zip(jobs, features)
    ]


def observation_groups(
    jobs: Sequence[TraceJob], observations: Sequence[FeatureObservation]
) -> dict[str, dict[int, ObservationBlock]]:
    """The jobs' observations in one block per (action, object): actions and
    objects in job order, rows in job order."""
    groups: dict[str, dict[int, list]] = {}
    for (action_id, obj, _), obs in zip(jobs, observations):
        groups.setdefault(action_id, {}).setdefault(obj, []).append(obs)
    return {a: {obj: ObservationBlock.of(obs) for obj, obs in g.items()} for a, g in groups.items()}


def observe(
    catalog: Catalog, projectors: Mapping[str, ThermalProjector], jobs: Sequence[TraceJob]
) -> dict[str, dict[int, ObservationBlock]]:
    """The observations of ``jobs``, one block per (action, object): simulated
    and reduced in set-up's batches, bit for bit what each trace gives
    alone. A trial binds the run's catalog and projectors."""
    return observation_groups(
        jobs, job_observations(projectors, jobs, set_up_features(catalog, jobs))
    )


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


def build_test_set(
    config: ExperimentConfig,
    projectors: Mapping[str, ThermalProjector],
    jobs: Sequence[TraceJob],
    features: Iterable[RawFeatures],
) -> TestSet:
    """Held-out observations, grouped by action and object. ``jobs`` is
    ``held_out_jobs(config)``; the first ``len(jobs)`` items of ``features``
    are their raw features."""
    return TestSet(observation_groups(jobs, job_observations(projectors, jobs, features)))


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
