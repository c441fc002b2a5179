"""Config-driven experiment runner: baseline-vs-transfer comparisons,
negative-transfer tests, multi-kernel ablations, and persisted results."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .active import STOP_WINDOW, initialize_state, run_loop
from .errors import (
    ConfigError,
    InsufficientDataError,
    SchemaError,
    TactilabError,
)
from .features import (
    RawFeatures,
    ThermalProjector,
    build_observation,
    fit_projector,
    observation_from_raw,
    raw_features,
)
from .gp import (
    OvaGpcModel,
    argmax_label,
    fit_sets,
    optimize_kernel_for_sets,
    ova_predict_proba,
    ova_sets,
)
from .kernels import ObservationBlock, median_heuristic
from .seeding import (
    ABLATION_NS,
    CALIB_NS,
    OPT_NS,
    PRIOR_NS,
    TEST_NS,
    derive_rng,
    derive_seed,
)
from .signals import (
    STANDARD_ACTIONS,
    ActionKind,
    Catalog,
    load_catalog,
    simulate,
)
from .transfer import (
    PriorKnowledge,
    SelectionMethod,
    TransferThresholds,
    build_new_observation_models,
    fit_prior_knowledge,
)

CONFIG_SCHEMA_VERSION = 1
INIT_RESTARTS = 2
INIT_SWEEPS = 3
UPDATE_RESTARTS = 1
UPDATE_SWEEPS = 2


class Mode(Enum):
    TRANSFER = "transfer"
    NO_TRANSFER = "no_transfer"
    NEGATIVE_TRANSFER = "negative_transfer"
    MULTI_KERNEL_ABLATION = "multi_kernel_ablation"


_CONFIG_FIELDS = {
    "schema_version",
    "catalog",
    "prior_objects",
    "new_objects",
    "actions",
    "seeds",
    "trials",
    "budget",
    "epsilon_explore",
    "epsilon_neg1",
    "epsilon_neg2",
    "selection_method",
    "mode",
    "test_samples_press_slide",
    "test_samples_static",
    "prior_samples_per_object",
    "early_stop",
    "ablation_sizes",
}


@dataclass(frozen=True)
class ExperimentConfig:
    catalog: str
    prior_objects: tuple[int, ...]
    new_objects: tuple[int, ...]
    actions: tuple[str, ...]
    seeds: tuple[int, ...]
    budget: int
    epsilon_explore: float = 0.3
    epsilon_neg1: float = 0.6
    epsilon_neg2: float = 0.6
    selection_method: SelectionMethod = SelectionMethod.MODEL_PREDICTION
    mode: Mode = Mode.TRANSFER
    test_samples_press_slide: int = 20
    test_samples_static: int = 10
    prior_samples_per_object: int = 15
    early_stop: bool = False
    ablation_sizes: tuple[int, ...] = (5, 10, 20, 40)
    base_dir: Optional[str] = None  # directory of the config file, for paths

    @property
    def trials(self) -> int:
        return len(self.seeds)

    @property
    def thresholds(self) -> TransferThresholds:
        return TransferThresholds(self.epsilon_neg1, self.epsilon_neg2)

    def catalog_path(self) -> Path:
        path = Path(self.catalog)
        if not path.is_absolute() and self.base_dir:
            path = Path(self.base_dir) / path
        return path

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "catalog": self.catalog,
            "prior_objects": list(self.prior_objects),
            "new_objects": list(self.new_objects),
            "actions": list(self.actions),
            "seeds": list(self.seeds),
            "trials": self.trials,
            "budget": self.budget,
            "epsilon_explore": self.epsilon_explore,
            "epsilon_neg1": self.epsilon_neg1,
            "epsilon_neg2": self.epsilon_neg2,
            "selection_method": self.selection_method.value,
            "mode": self.mode.value,
            "test_samples_press_slide": self.test_samples_press_slide,
            "test_samples_static": self.test_samples_static,
            "prior_samples_per_object": self.prior_samples_per_object,
            "early_stop": self.early_stop,
            "ablation_sizes": list(self.ablation_sizes),
        }


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _int_field(name: str, value) -> int:
    """An integer config value; booleans and non-integral numbers are
    rejected rather than truncated."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _int_list(name: str, values) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return tuple(_int_field(f"{name}[{i}]", v) for i, v in enumerate(values))


def _distinct(name: str, values: tuple) -> tuple:
    dups = sorted({v for v in values if values.count(v) > 1})
    if dups:
        raise ConfigError(f"{name} has duplicate entries {dups}")
    return values


def _float_field(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def parse_config(raw: dict, base_dir: Optional[str] = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s) {sorted(unknown)}")
    if raw.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )
    for name in ("catalog", "new_objects", "actions", "seeds", "budget"):
        if name not in raw:
            raise ConfigError(f"missing config field {name!r}")

    prior = _distinct("prior_objects", _int_list("prior_objects", raw.get("prior_objects", [])))
    new = _distinct("new_objects", _int_list("new_objects", raw["new_objects"]))
    if not new:
        raise ConfigError("new_objects must be nonempty")
    if set(prior) & set(new):
        raise ConfigError("prior_objects and new_objects must be disjoint")
    actions = _distinct("actions", tuple(str(a) for a in raw["actions"]))
    bad = [a for a in actions if a not in STANDARD_ACTIONS]
    if bad or not actions:
        raise ConfigError(f"actions must be a nonempty subset of "
                          f"{sorted(STANDARD_ACTIONS)}, got {list(actions)}")
    seeds = _distinct("seeds", _int_list("seeds", raw["seeds"]))
    if not seeds:
        raise ConfigError("seeds must be nonempty")
    for i, seed in enumerate(seeds):
        if seed < 0:  # seed sequences take non-negative entropy only
            raise ConfigError(f"seeds[{i}] must be >= 0, got {seed}")
    if "trials" in raw and _int_field("trials", raw["trials"]) != len(seeds):
        raise ConfigError("trials must equal the number of seeds")
    budget = _int_field("budget", raw["budget"])
    if budget < 0:
        raise ConfigError("budget must be >= 0")

    eps_explore = _float_field("epsilon_explore", raw.get("epsilon_explore", 0.3))
    if not (0.0 <= eps_explore <= 1.0):
        raise ConfigError("epsilon_explore must lie in [0, 1]")
    eps1 = _float_field("epsilon_neg1", raw.get("epsilon_neg1", 0.6))
    if eps1 < 0.5:
        raise ConfigError("epsilon_neg1 must be >= 0.5")
    eps2 = _float_field("epsilon_neg2", raw.get("epsilon_neg2", 0.6))
    if not (0.0 <= eps2 <= 1.0):  # compared against a relatedness rho in [0, 1]
        raise ConfigError("epsilon_neg2 must lie in [0, 1]")
    try:
        method = SelectionMethod(raw.get("selection_method", "model_prediction"))
    except ValueError as exc:
        raise ConfigError(f"selection_method: {exc}") from exc
    try:
        mode = Mode(raw.get("mode", "transfer"))
    except ValueError as exc:
        raise ConfigError(f"mode: {exc}") from exc
    tps = _int_field("test_samples_press_slide", raw.get("test_samples_press_slide", 20))
    tst = _int_field("test_samples_static", raw.get("test_samples_static", 10))
    if tps <= 0 or tst <= 0:
        raise ConfigError("test-set sizes must be > 0")
    prior_samples = _int_field(
        "prior_samples_per_object", raw.get("prior_samples_per_object", 15)
    )
    if prior and prior_samples < 1:
        raise ConfigError("prior_samples_per_object must be >= 1")
    early_stop = raw.get("early_stop", False)
    if not isinstance(early_stop, bool):
        raise ConfigError(f"early_stop must be true or false, got {early_stop!r}")
    sizes = _distinct(
        "ablation_sizes", _int_list("ablation_sizes", raw.get("ablation_sizes", [5, 10, 20, 40]))
    )
    if mode is Mode.MULTI_KERNEL_ABLATION and len(new) < 2:
        raise ConfigError("new_objects must hold at least two classes for the ablation")
    if mode is Mode.MULTI_KERNEL_ABLATION and any(s < len(new) for s in sizes):
        raise ConfigError("ablation_sizes entries must cover one sample per class")
    return ExperimentConfig(
        catalog=str(raw["catalog"]),
        prior_objects=prior,
        new_objects=new,
        actions=actions,
        seeds=seeds,
        budget=budget,
        epsilon_explore=eps_explore,
        epsilon_neg1=eps1,
        epsilon_neg2=eps2,
        selection_method=method,
        mode=mode,
        test_samples_press_slide=tps,
        test_samples_static=tst,
        prior_samples_per_object=prior_samples,
        early_stop=early_stop,
        ablation_sizes=sizes,
        base_dir=base_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw, base_dir=str(path.parent))


# ---------------------------------------------------------------------------
# Assets shared by every trial: prior knowledge, projectors, test set
# ---------------------------------------------------------------------------


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
        instances,
        projectors,
        restarts=INIT_RESTARTS,
        rng=derive_rng(OPT_NS, PRIOR_NS),
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
    probs = ova_predict_proba(model, obs)
    preds = [argmax_label(model.classes, row) for row in probs]
    return float(np.mean(np.array(preds) == labels))


def make_evaluator(config: ExperimentConfig, test: TestSet):
    """Discrimination accuracy on the new-object slice, averaged over actions."""
    slices = {a: new_object_slice(config, test, a) for a in config.actions}

    # Last accuracy per action with the model object it was computed from:
    # the loop refits one action per step, so the others are not re-predicted.
    # Holding the model keeps its identity from being reused.
    last: dict[str, tuple[OvaGpcModel, float]] = {}

    def evaluate(models: Mapping[str, OvaGpcModel]) -> float:
        accs = []
        for action_id, (obs, labs) in slices.items():
            model = models[action_id]
            hit = last.get(action_id)
            if hit is not None and hit[0] is model:
                accs.append(hit[1])
                continue
            acc = accuracy(model, obs, labs)
            last[action_id] = (model, acc)
            accs.append(acc)
        return float(np.mean(accs))

    return evaluate


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    """One trial (one mode or ablation variant at one seed)."""

    curve: list[float]
    decisions: list[dict]
    gamma_trace: list[dict]
    records: list[dict]


def run_trial(
    config: ExperimentConfig,
    catalog: Catalog,
    prior: Optional[PriorKnowledge],
    projectors: Mapping[str, ThermalProjector],
    evaluate,
    seed: int,
    use_prior: bool,
) -> TrialResult:
    simulator = _make_simulator(catalog)

    def extractor(trace, action_id, object_id):
        return build_observation(trace, action_id, projectors[action_id], object_id)

    state = initialize_state(
        config.new_objects,
        config.actions,
        simulator,
        extractor,
        seed_root=seed,
        eps_explore=config.epsilon_explore,
    )
    prior_arg = prior if use_prior else None
    opt_rng = derive_rng(seed, OPT_NS)
    models, kernels, init_decisions = build_new_observation_models(
        prior_arg,
        state.observations,
        config.thresholds,
        config.selection_method,
        restarts=INIT_RESTARTS,
        sweeps=INIT_SWEEPS,
        rng=opt_rng,
    )
    state.models = models
    state.kernels = kernels

    loop = run_loop(
        state,
        prior_arg,
        config.budget,
        evaluate,
        simulator,
        extractor,
        thresholds=config.thresholds,
        method=config.selection_method,
        stop_window=STOP_WINDOW if config.early_stop else None,
        opt_restarts=UPDATE_RESTARTS,
        opt_sweeps=UPDATE_SWEEPS,
        opt_rng=opt_rng,
    )
    decisions = [d.to_dict() for d in init_decisions]
    gamma_trace = [
        {"iteration": 0, "action": a, "gamma": [float(g) for g in k.weights]}
        for a, k in kernels.items()
    ]
    records = []
    for rec in loop.records:
        decisions.extend(d.to_dict() for d in rec.decisions)
        gamma_trace.append(
            {"iteration": rec.iteration, "action": rec.action_id, "gamma": rec.gamma}
        )
        records.append(
            {
                "iteration": rec.iteration,
                "object": rec.object_id,
                "action": rec.action_id,
                "branch": rec.branch,
                "accuracy": rec.accuracy,
            }
        )
    return TrialResult(loop.curve, decisions, gamma_trace, records)


@dataclass
class RunResult:
    config: dict
    config_hash: str
    modes: list[str]
    trials: dict[str, dict[int, TrialResult]]  # mode -> seed -> trial
    failures: list[str]
    wall_clock_s: float

    def seeds(self, mode: str) -> list[tuple[int, TrialResult]]:
        """(seed, trial) of one mode by ascending seed. Means and files
        follow this order within ``modes`` order, so a result read back from
        JSON (string seed keys) reports the same bytes."""
        return sorted(self.trials.get(mode, {}).items())

    def mean_curve(self, mode: str) -> list[float]:
        curves = [t.curve for _, t in self.seeds(mode) if t.curve]
        if not curves:
            return []
        length = min(len(c) for c in curves)
        if length == 0:
            return []
        stacked = np.array([c[:length] for c in curves])
        return [float(v) for v in stacked.mean(axis=0)]

    def to_dict(self) -> dict:
        def per_seed(part: str) -> dict:
            return {
                m: {str(s): getattr(t, part) for s, t in self.seeds(m)} for m in self.modes
            }

        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "modes": self.modes,
            "curves": per_seed("curve"),
            "mean_curves": {m: self.mean_curve(m) for m in self.modes},
            "decisions": per_seed("decisions"),
            "gamma_traces": per_seed("gamma_trace"),
            "records": per_seed("records"),
            "failures": self.failures,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunResult":
        """The inverse of ``to_dict``; a file without ``records`` reads
        every trial's records as empty. A missing or mistyped field raises
        SchemaError naming it."""
        if not isinstance(raw, dict):
            raise SchemaError(f"result root must be a mapping, got {type(raw).__name__}")
        modes = _result_field(raw, list, "modes")
        for i, m in enumerate(modes):
            if not isinstance(m, str):
                raise SchemaError(f"result field modes[{i}] must be a string, got {m!r}")
        trials = {}
        for m in modes:
            trials[m] = {}
            for s in _result_field(raw, dict, "curves", m):
                if not s.isdigit():
                    raise SchemaError(f"result field curves[{m}] has a non-seed key {s!r}")
                curve = _numbers(raw, "curves", m, s)
                decisions = _result_field(raw, list, "decisions", m, s)
                gamma_trace = _result_field(raw, list, "gamma_traces", m, s)
                # The entries that write_report reads.
                for i in range(len(decisions)):
                    _result_field(raw, (int, type(None)), "decisions", m, s, i, "selected_old")
                for i in range(len(gamma_trace)):
                    _result_field(raw, str, "gamma_traces", m, s, i, "action")
                    _numbers(raw, "gamma_traces", m, s, i, "gamma")
                records = _result_field(raw, list, "records", m, s, default=[])
                trials[m][int(s)] = TrialResult(curve, decisions, gamma_trace, records)
        return cls(
            config=_result_field(raw, dict, "config"),
            config_hash=_result_field(raw, str, "config_hash"),
            modes=modes,
            trials=trials,
            failures=list(_result_field(raw, list, "failures", default=[])),
            wall_clock_s=float(_result_field(raw, (int, float), "wall_clock_s", default=0.0)),
        )


def _result_field(raw: dict, kind, *path, default=None):
    """``raw[path[0]][path[1]]...``, which must be of type ``kind``; every
    step before it is a mapping, or a list where the next key is an int. A
    missing step gives ``default`` when one is given; otherwise, as for a
    mistyped one, SchemaError names the field. A bool is of no kind."""
    value = raw
    for depth, key in enumerate(path):
        name = path[0] + "".join(f"[{k}]" for k in path[1 : depth + 1])
        if key not in (range(len(value)) if isinstance(value, list) else value):
            if default is None:
                raise SchemaError(f"result field {name} is missing")
            return default
        value = value[key]
        if depth == len(path) - 1:
            expected = kind
        else:
            expected = list if isinstance(path[depth + 1], int) else dict
        if not isinstance(value, expected) or isinstance(value, bool):
            kinds = expected if isinstance(expected, tuple) else (expected,)
            names = " or ".join("null" if t is type(None) else t.__name__ for t in kinds)
            raise SchemaError(f"result field {name} must be {names}, got {type(value).__name__}")
    return value


def _numbers(raw: dict, *path) -> list:
    """The list field at ``path``; every item must be a number."""
    values = _result_field(raw, list, *path)
    for i in range(len(values)):
        _result_field(raw, (int, float), *path, i)
    return values


def _modes_for(config: ExperimentConfig, test: TestSet) -> list[str]:
    if config.mode is Mode.MULTI_KERNEL_ABLATION:
        return list(_ablation_variants(new_object_slice(config, test, config.actions[0])[0]))
    if config.mode is Mode.NO_TRANSFER:
        return [Mode.NO_TRANSFER.value]
    return [Mode.TRANSFER.value, Mode.NO_TRANSFER.value]


def _pool_context():
    """The multiprocessing context of both pools: fork on Linux, where a
    worker starts without re-importing tactilab, else the platform default.
    Workers are handed everything they need, so any context gives the same
    result."""
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Trace jobs per set-up pool task. A trace takes about a millisecond to
#: simulate and reduce (2-vCPU x86 VM), far more than sending its job and raw
#: features between processes.
SETUP_CHUNKSIZE = 16


@contextmanager
def _setup_map(workers: int):
    """``map`` for the set-up's trace jobs: the builtin one, or with
    ``workers`` > 1 that of a process pool, which works ahead of its reader
    and yields in job order. The pool is gone on exit; when set-up fails,
    its queued tasks are cancelled rather than run."""
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(), initializer=SingleThreadedBlas
    ) as pool:
        try:
            yield partial(pool.map, chunksize=SETUP_CHUNKSIZE)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def build_assets(config: ExperimentConfig, workers: int = 1) -> tuple:
    """(catalog, prior, projectors, test set): what every trial of the
    config shares.

    Set-up maps one ordered stream of trace jobs, the projector pool's and
    then the test set's, each trace reduced to its raw features at once.
    With ``workers`` > 1 a pool simulates the test set while this process
    fits the projectors and the prior knowledge; the prior fit stays here,
    in order, because its searches share one rng stream. The same bits come
    out either way."""
    catalog = load_catalog(config.catalog_path())
    check_catalog_objects(config, catalog)
    pool_jobs, test_jobs = projector_pool_jobs(config), held_out_jobs(config)
    with _setup_map(workers) as mapper:
        features = mapper(partial(trace_features, catalog), pool_jobs + test_jobs)
        prior, projectors = build_prior(config, pool_jobs, features)
        test = build_test_set(config, projectors, test_jobs, features)
    return catalog, prior, projectors, test


class _DlPhdrInfo(ctypes.Structure):
    # The leading fields of glibc's ``struct dl_phdr_info``; only the name is read.
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _loaded_openblas() -> list[tuple[str, ctypes.CDLL]]:
    """(path, handle) of every OpenBLAS loaded in this process (numpy and
    scipy each bundle one), found by walking the loaded shared objects with
    ``dl_iterate_phdr`` as threadpoolctl does. Empty where libc lacks it."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    iterate = getattr(libc, "dl_iterate_phdr", None)
    if iterate is None:
        return []
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths: list[str] = []

    def collect(info, _size, _data) -> int:
        name = info.contents.dlpi_name
        if name and b"openblas" in os.path.basename(name).lower():
            paths.append(os.fsdecode(name))
        return 0

    iterate(_PHDR_CALLBACK(collect), None)
    return [(path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD)) for path in paths]


def _blas_thread_controls(lib) -> Optional[tuple]:
    """The (get, set) thread-count functions of one OpenBLAS: the names of
    the scipy-openblas builds (``64_`` for numpy's 64-bit-index one), then
    the plain OpenBLAS names. None when it exports none of them."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class SingleThreadedBlas:
    """Every loaded OpenBLAS runs one thread from construction on; as a
    context manager it restores the previous counts on exit.

    A trial's matrices have a few dozen rows, too small for BLAS threads to
    pay, and OpenBLAS sizes its pool to the cores: two ``--jobs`` workers
    would run twice as many spinning BLAS threads as there are cores. As a
    pool initializer it caps each worker for the worker's life. A loaded
    OpenBLAS without the thread-count symbols keeps its count, with one
    RuntimeWarning."""

    def __init__(self) -> None:
        self._previous = []
        uncapped = []
        for path, lib in _loaded_openblas():
            controls = _blas_thread_controls(lib)
            if controls is None:
                uncapped.append(path)
                continue
            get, set_ = controls
            count = get()
            # Skipped at one thread: in a forked worker, which inherits the
            # cap, set_num_threads rebuilds the thread pool and its threads spin.
            if count != 1:
                self._previous.append((set_, count))
                set_(1)
        if uncapped:
            warnings.warn(
                f"BLAS threads not capped: no set_num_threads symbol in {uncapped}",
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "SingleThreadedBlas":
        return self

    def __exit__(self, *exc_info) -> None:
        for set_, count in self._previous:
            set_(count)


def _run_seed(
    config: ExperimentConfig, assets: tuple, seed: int
) -> tuple[Optional[dict[str, TrialResult]], Optional[str]]:
    """Every trial of one seed over the ``build_assets`` tuple: both modes of
    a transfer comparison, or the ablation's variants. Returns (mode ->
    TrialResult, None), or (None, the failure line) when any of them fails.
    A numpy/scipy failure (LinAlgError, the ValueError of a non-finite
    feature or matrix) is this seed's failure like a TactilabError."""
    catalog, prior, projectors, test = assets
    mode = None
    try:
        if config.mode is Mode.MULTI_KERNEL_ABLATION:
            return run_ablation_seed(config, catalog, projectors, test, seed), None
        evaluate = make_evaluator(config, test)
        trials = {}
        for mode in _modes_for(config, test):
            use_prior = mode == Mode.TRANSFER.value and prior is not None
            trials[mode] = run_trial(
                config, catalog, prior, projectors, evaluate, seed, use_prior
            )
        return trials, None
    except (ValueError, ArithmeticError, TactilabError) as exc:  # LinAlgError is a ValueError
        named = f"{mode}: " if mode else ""
        return None, f"seed {seed}: {named}{type(exc).__name__}: {exc}"


#: (config, assets) of the run, in a trial pool worker only.
_worker_run: Optional[tuple] = None


def _start_trial_worker(config: ExperimentConfig, assets: tuple) -> None:
    """Trial pool initializer: one BLAS thread, and the run's config and
    assets for every seed the worker runs. Inherited under fork, pickled
    once per worker otherwise."""
    global _worker_run
    SingleThreadedBlas()
    _worker_run = (config, assets)


def _run_seed_worker(seed: int):
    """``_run_seed`` in a trial pool worker."""
    config, assets = _worker_run
    return _run_seed(config, assets, seed)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run every trial of the configured experiment and aggregate.

    With ``jobs`` > 1 the set-up's simulations, then the seeds, run in a
    process pool of at most one worker per seed. BLAS runs single-threaded
    in every process that runs trials, this one until the call returns."""
    jobs = _int_field("jobs", jobs)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    with SingleThreadedBlas():
        # Build the shared assets (and fail fast) before any trial; the
        # set-up pool is gone before the trial pool starts.
        workers = min(jobs, len(config.seeds))
        assets = build_assets(config, workers)
        modes = _modes_for(config, assets[3])
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_start_trial_worker,
                initargs=(config, assets),
            ) as pool:
                outcomes = list(pool.map(_run_seed_worker, config.seeds))
        else:
            outcomes = [_run_seed(config, assets, seed) for seed in config.seeds]

        trials: dict[str, dict[int, TrialResult]] = {mode: {} for mode in modes}
        failures = []
        for seed, (per_mode, error) in zip(config.seeds, outcomes):
            if error is not None:
                failures.append(error)
                continue
            for mode, trial in per_mode.items():
                trials[mode][seed] = trial
        return RunResult(
            config=config.to_dict(),
            config_hash=config_hash(config),
            modes=modes,
            trials=trials,
            failures=failures,
            wall_clock_s=time.perf_counter() - start,
        )


# ---------------------------------------------------------------------------
# Multi-kernel ablation
# ---------------------------------------------------------------------------


def _ablation_variants(test_obs: ObservationBlock) -> dict[str, Optional[np.ndarray]]:
    """The ablation's kernels: ``combined`` searches its modality weights,
    each ``<modality>_only`` keeps a one-hot weight vector."""
    modalities = test_obs.modalities
    variants: dict[str, Optional[np.ndarray]] = {"combined": None}
    for idx, mod in enumerate(modalities):
        one_hot = np.zeros(len(modalities))
        one_hot[idx] = 1.0
        variants[f"{mod.value}_only"] = one_hot
    return variants


def run_ablation_seed(
    config: ExperimentConfig,
    catalog: Catalog,
    projectors: Mapping[str, ThermalProjector],
    test: TestSet,
    seed: int,
) -> dict[str, TrialResult]:
    """One seed of the multi-kernel ablation: test accuracy of the weighted
    combined kernel and of each single modality over growing training-set
    sizes, as variant -> TrialResult."""
    action_id = config.actions[0]
    a_idx = _action_index(action_id)
    simulator = _make_simulator(catalog)
    new_ids = list(config.new_objects)
    sizes = list(config.ablation_sizes)
    max_per_class = -(-max(sizes) // len(new_ids))
    test_obs, test_labels = new_object_slice(config, test, action_id)
    variants = _ablation_variants(test_obs)

    # (label, observation) with the classes in turn: the first ``size`` are
    # the training set of that size.
    samples = [
        (
            obj,
            build_observation(
                simulator(obj, action_id, derive_seed(seed, ABLATION_NS, a_idx, obj, k)),
                action_id,
                projectors[action_id],
                obj,
            ),
        )
        for k in range(max_per_class)
        for obj in new_ids
    ]
    opt_rng = derive_rng(seed, ABLATION_NS, OPT_NS)
    curves: dict[str, list[float]] = {v: [] for v in variants}
    gamma_trace = []
    for size in sizes:
        train = ObservationBlock.of([o for _, o in samples[:size]])
        labels = [obj for obj, _ in samples[:size]]
        sets = ova_sets(train, labels)
        start_kernel = median_heuristic(train, train.modalities)
        for variant, one_hot in variants.items():
            kernel, _, _ = optimize_kernel_for_sets(
                list(sets.values()),
                start_kernel if one_hot is None else start_kernel.with_weights(one_hot),
                restarts=INIT_RESTARTS,
                rng=opt_rng,
                fit_weights=one_hot is None,
            )
            model = fit_sets(sets, kernel)
            curves[variant].append(accuracy(model, test_obs, test_labels))
            if one_hot is None:
                gamma_trace.append(
                    {
                        "iteration": size,
                        "action": action_id,
                        "gamma": [float(g) for g in kernel.weights],
                    }
                )
    return {
        variant: TrialResult(
            curve=curves[variant],
            decisions=[],
            gamma_trace=gamma_trace if one_hot is None else [],
            records=[
                {"iteration": size, "accuracy": acc}
                for size, acc in zip(sizes, curves[variant])
            ],
        )
        for variant, one_hot in variants.items()
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def write_report(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write curves.csv, summary.json and the resolved config; byte-stable
    for a fixed result."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "curves.csv"
    lines = ["iteration,trial,mode,accuracy"]
    is_ablation = result.config.get("mode") == Mode.MULTI_KERNEL_ABLATION.value
    sizes = result.config.get("ablation_sizes", [])
    for mode in result.modes:
        for seed, trial in result.seeds(mode):
            for idx, acc in enumerate(trial.curve):
                iteration = sizes[idx] if is_ablation else idx + 1
                lines.append(f"{iteration},{seed},{mode},{acc:.10f}")
    csv_path.write_text("\n".join(lines) + "\n")

    trials = [t for mode in result.modes for _, t in result.seeds(mode)]
    decision_rows = [d for t in trials for d in t.decisions]
    none_count = sum(1 for d in decision_rows if d["selected_old"] is None)
    gammas: dict[str, list] = {}
    for t in trials:
        for entry in t.gamma_trace:
            gammas.setdefault(entry["action"], []).append(entry["gamma"])
    gamma_means = {
        action: [float(v) for v in np.mean(np.array(stacks), axis=0)]
        for action, stacks in gammas.items()
    }

    summary = {
        "config_hash": result.config_hash,
        "modes": {
            mode: {
                "mean_curve": result.mean_curve(mode),
                "one_shot_accuracy": (result.mean_curve(mode) or [None])[0],
                "final_accuracy": (result.mean_curve(mode) or [None])[-1],
                "trials": len(result.trials[mode]),
            }
            for mode in result.modes
        },
        "decisions": {
            "total": len(decision_rows),
            "none": none_count,
            "none_fraction": (none_count / len(decision_rows)) if decision_rows else None,
        },
        "gamma_means": gamma_means,
        "failures": result.failures,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    config_path = out / "config.json"
    config_path.write_text(json.dumps(result.config, indent=2, sort_keys=True) + "\n")

    result_path = out / "result.json"
    result_path.write_text(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    return {
        "curves": csv_path,
        "summary": summary_path,
        "config": config_path,
        "result": result_path,
    }
