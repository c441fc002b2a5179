"""What every trial of a run shares: the set-up's trace jobs and their raw
features, the thermal projectors, the prior knowledge, the held-out test set
and the accuracy evaluator over it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, InsufficientDataError
from .features import (
    RawFeatures,
    ThermalProjector,
    fit_projector,
    observation_from_raw,
    raw_features,
)
from .gp import OvaGpcModel, argmax_labels, ova_predict_proba
from .kernels import ObservationBlock
from .seeding import CALIB_NS, OPT_NS, PRIOR_NS, TEST_NS, derive_rng, derive_seed
from .signals import STANDARD_ACTIONS, ActionKind, Catalog, simulate
from .transfer import INIT_RESTARTS, PriorKnowledge, fit_prior_knowledge


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


def _make_simulator(catalog: Catalog):
    def simulator(object_id: int, action_id: str, seed: int):
        return simulate(
            catalog.by_id(object_id),
            STANDARD_ACTIONS[action_id],
            seed,
            catalog.skin,
            catalog.noise,
        )

    return simulator


#: One simulated trace of set-up: (action id, object id, seed).
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


def trace_features(catalog: Catalog, job: TraceJob) -> RawFeatures:
    """Simulate one set-up trace and reduce it to its raw features."""
    action_id, obj, seed = job
    return raw_features(_make_simulator(catalog)(obj, action_id, seed))


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
    instances: dict[str, dict[int, list]] = {}
    for (action_id, obj, _), raw in zip(jobs, raws):
        obs = observation_from_raw(raw, action_id, projectors[action_id], obj)
        instances.setdefault(action_id, {}).setdefault(obj, []).append(obs)
    prior = fit_prior_knowledge(
        instances, restarts=INIT_RESTARTS, rng=derive_rng(OPT_NS, PRIOR_NS)
    )
    return prior, projectors


@dataclass
class TestSet:
    observations: dict[str, list]  # per action: FeatureObservation list
    labels: dict[str, np.ndarray]  # per action: object ids

    def size(self) -> int:
        return sum(len(v) for v in self.observations.values())


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
    """Labeled held-out observations. ``jobs`` is ``held_out_jobs(config)``;
    the first ``len(jobs)`` items of ``features`` are their raw features."""
    observations: dict[str, list] = {a: [] for a in config.actions}
    labels: dict[str, list] = {a: [] for a in config.actions}
    for (action_id, obj, _), raw in zip(jobs, features):
        observations[action_id].append(
            observation_from_raw(raw, action_id, projectors[action_id], obj)
        )
        labels[action_id].append(obj)
    return TestSet(observations, {a: np.array(labs) for a, labs in labels.items()})


def new_object_slice(
    config: ExperimentConfig, test: TestSet, action_id: str
) -> tuple[ObservationBlock, np.ndarray]:
    """The action's test observations of the new objects, with their labels."""
    labels = test.labels[action_id]
    mask = np.isin(labels, list(config.new_objects))
    obs = [o for o, m in zip(test.observations[action_id], mask) if m]
    return ObservationBlock.of(obs), labels[mask]


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
