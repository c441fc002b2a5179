"""Config-driven experiment runner: baseline-vs-transfer comparisons,
negative-transfer tests, multi-kernel ablations, and persisted results."""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .active import STOP_WINDOW, initialize_state, run_loop
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericalError,
    SchemaError,
    TactilabError,
)
from .features import ThermalProjector, build_observation, fit_thermal_projector
from .gp import (
    OvaGpcModel,
    argmax_label,
    optimize_kernel_for_sets,
    ova_fit,
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
    sizes = _int_list("ablation_sizes", raw.get("ablation_sizes", [5, 10, 20, 40]))
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


def _action_index(config: ExperimentConfig, action_id: str) -> int:
    return list(STANDARD_ACTIONS).index(action_id)


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


def fit_projectors_from_pool(
    catalog: Catalog,
    object_ids: Sequence[int],
    actions: Sequence[str],
    samples_per_object: int,
    namespace: int,
) -> tuple[dict[str, ThermalProjector], dict[str, dict[int, list]]]:
    """Simulate a per-action trace pool and fit one thermal projector each.

    Returns the projectors plus the raw traces so callers can reuse the pool
    for feature extraction."""
    simulator = _make_simulator(catalog)
    projectors: dict[str, ThermalProjector] = {}
    traces: dict[str, dict[int, list]] = {}
    for action_id in actions:
        a_idx = list(STANDARD_ACTIONS).index(action_id)
        action_traces: dict[int, list] = {}
        for obj in object_ids:
            action_traces[obj] = [
                simulator(obj, action_id, derive_seed(namespace, a_idx, obj, k))
                for k in range(samples_per_object)
            ]
        flat = [tr for group in action_traces.values() for tr in group]
        if len(flat) < 11:
            raise InsufficientDataError(
                f"action {action_id}: projector pool holds {len(flat)} traces (< 11); "
                "raise prior_samples_per_object"
            )
        projectors[action_id] = fit_thermal_projector(flat)
        traces[action_id] = action_traces
    return projectors, traces


def build_prior(
    config: ExperimentConfig, catalog: Catalog
) -> tuple[Optional[PriorKnowledge], dict[str, ThermalProjector]]:
    """Fixed prior tactile knowledge for the experiment.

    With prior objects configured, the projectors are fitted on the prior
    pool and the pool itself becomes the instance knowledge. Without priors,
    projectors come from a dedicated calibration stream over the new objects
    and no knowledge store is built."""
    if config.prior_objects:
        projectors, traces = fit_projectors_from_pool(
            catalog,
            config.prior_objects,
            config.actions,
            config.prior_samples_per_object,
            PRIOR_NS,
        )
        instances = {
            action_id: {
                obj: [
                    build_observation(tr, action_id, projectors[action_id], obj)
                    for tr in group
                ]
                for obj, group in traces[action_id].items()
            }
            for action_id in config.actions
        }
        prior = fit_prior_knowledge(
            instances,
            projectors,
            restarts=INIT_RESTARTS,
            rng=derive_rng(OPT_NS, PRIOR_NS),
        )
        return prior, projectors
    calib_samples = max(3, -(-11 // len(config.new_objects)))
    projectors, _ = fit_projectors_from_pool(
        catalog, config.new_objects, config.actions, calib_samples, CALIB_NS
    )
    return None, projectors


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
    catalog: Catalog,
    projectors: Mapping[str, ThermalProjector],
) -> TestSet:
    """Labeled held-out observations for every (object, action) pair, drawn
    from the test seed namespace (disjoint from all training streams)."""
    simulator = _make_simulator(catalog)
    object_ids = list(config.prior_objects) + list(config.new_objects)
    observations: dict[str, list] = {}
    labels: dict[str, np.ndarray] = {}
    for action_id in config.actions:
        a_idx = _action_index(config, action_id)
        n = test_samples_for(config, action_id)
        obs, labs = [], []
        for obj in object_ids:
            for k in range(n):
                seed = derive_seed(TEST_NS, a_idx, obj, k)
                trace = simulator(obj, action_id, seed)
                obs.append(build_observation(trace, action_id, projectors[action_id], obj))
                labs.append(obj)
        observations[action_id] = obs
        labels[action_id] = np.array(labs)
    return TestSet(observations, labels)


def make_evaluator(config: ExperimentConfig, test: TestSet):
    """Discrimination accuracy on the new-object slice, averaged over actions."""
    new_ids = set(config.new_objects)
    slices = {}
    for action_id in config.actions:
        mask = np.isin(test.labels[action_id], list(new_ids))
        obs = [o for o, m in zip(test.observations[action_id], mask) if m]
        slices[action_id] = (ObservationBlock.of(obs), test.labels[action_id][mask])

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
            probs = ova_predict_proba(model, obs)
            preds = [argmax_label(model.classes, row) for row in probs]
            acc = float(np.mean(np.array(preds) == labs))
            last[action_id] = (model, acc)
            accs.append(acc)
        return float(np.mean(accs))

    return evaluate


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    seed: int
    mode: str
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
    mode_name = Mode.TRANSFER.value if use_prior else Mode.NO_TRANSFER.value
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
    return TrialResult(seed, mode_name, loop.curve, decisions, gamma_trace, records)


@dataclass
class RunResult:
    config: dict
    config_hash: str
    modes: list[str]
    curves: dict[str, dict[int, list[float]]]  # mode -> seed -> curve
    decisions: dict[str, dict[int, list[dict]]]
    gamma_traces: dict[str, dict[int, list[dict]]]
    records: dict[str, dict[int, list[dict]]]
    failures: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def mean_curve(self, mode: str) -> list[float]:
        curves = [c for c in self.curves.get(mode, {}).values() if c]
        if not curves:
            return []
        length = min(len(c) for c in curves)
        if length == 0:
            return []
        stacked = np.array([c[:length] for c in curves])
        return [float(v) for v in stacked.mean(axis=0)]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "modes": self.modes,
            "curves": {
                m: {str(s): c for s, c in sorted(per.items())}
                for m, per in self.curves.items()
            },
            "mean_curves": {m: self.mean_curve(m) for m in self.modes},
            "decisions": {
                m: {str(s): d for s, d in sorted(per.items())}
                for m, per in self.decisions.items()
            },
            "gamma_traces": {
                m: {str(s): g for s, g in sorted(per.items())}
                for m, per in self.gamma_traces.items()
            },
            "records": {
                m: {str(s): r for s, r in sorted(per.items())}
                for m, per in self.records.items()
            },
            "failures": self.failures,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunResult":
        return cls(
            config=raw["config"],
            config_hash=raw["config_hash"],
            modes=list(raw["modes"]),
            curves={
                m: {int(s): c for s, c in per.items()}
                for m, per in raw["curves"].items()
            },
            decisions={
                m: {int(s): d for s, d in per.items()}
                for m, per in raw["decisions"].items()
            },
            gamma_traces={
                m: {int(s): g for s, g in per.items()}
                for m, per in raw["gamma_traces"].items()
            },
            records={
                m: {int(s): r for s, r in per.items()}
                for m, per in raw.get("records", {}).items()
            },
            failures=list(raw.get("failures", [])),
            wall_clock_s=float(raw.get("wall_clock_s", 0.0)),
        )


def _modes_for(config: ExperimentConfig) -> list[str]:
    if config.mode in (Mode.TRANSFER, Mode.NEGATIVE_TRANSFER):
        return [Mode.TRANSFER.value, Mode.NO_TRANSFER.value]
    if config.mode is Mode.NO_TRANSFER:
        return [Mode.NO_TRANSFER.value]
    return []


# Shared assets per (config hash, resolved catalog path, catalog sha256): the
# same config text next to another catalog, or over edited catalog bytes, gets
# its own entry.
_ASSET_CACHE: dict[tuple[str, str, str], tuple] = {}


def _asset_key(config: ExperimentConfig) -> tuple[str, str, str]:
    path = config.catalog_path().resolve()
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise SchemaError(f"cannot parse catalog {path}: {exc}") from exc
    return config_hash(config), str(path), digest


def _assets(config: ExperimentConfig):
    key = _asset_key(config)
    if key not in _ASSET_CACHE:
        catalog = load_catalog(config.catalog_path())
        missing = [
            i
            for i in list(config.prior_objects) + list(config.new_objects)
            if not any(obj.id == i for obj in catalog)
        ]
        if missing:
            raise ConfigError(f"object id(s) {missing} not present in catalog")
        prior, projectors = build_prior(config, catalog)
        test = build_test_set(config, catalog, projectors)
        evaluate = make_evaluator(config, test)
        _ASSET_CACHE[key] = (catalog, prior, projectors, test, evaluate)
    return _ASSET_CACHE[key]


def _run_seed(config: ExperimentConfig, seed: int) -> dict[str, TrialResult]:
    """Both modes of one seed. A numpy/scipy failure (LinAlgError, the
    ValueError of a non-finite feature or matrix) is raised as a
    NumericalError, so it counts as this seed's failure like any other."""
    catalog, prior, projectors, _, evaluate = _assets(config)
    out = {}
    for mode_name in _modes_for(config):
        use_prior = mode_name == Mode.TRANSFER.value and prior is not None
        try:
            out[mode_name] = run_trial(
                config, catalog, prior, projectors, evaluate, seed, use_prior
            )
        except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
            raise NumericalError(f"{mode_name}: {type(exc).__name__}: {exc}") from exc
    return out


def _run_seed_worker(args):
    config_dict, base_dir, seed = args
    config = parse_config(config_dict, base_dir=base_dir)
    try:
        return seed, _run_seed(config, seed), None
    except TactilabError as exc:
        return seed, None, str(exc)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run every trial of the configured experiment and aggregate."""
    start = time.perf_counter()
    if config.mode is Mode.MULTI_KERNEL_ABLATION:
        return _run_ablation(config, start)

    modes = _modes_for(config)
    result = RunResult(
        config=config.to_dict(),
        config_hash=config_hash(config),
        modes=modes,
        curves={m: {} for m in modes},
        decisions={m: {} for m in modes},
        gamma_traces={m: {} for m in modes},
        records={m: {} for m in modes},
    )
    _assets(config)  # build shared assets (and fail fast) before any trial

    per_seed: dict[int, dict[str, TrialResult]] = {}
    if jobs > 1:
        args = [(config.to_dict(), config.base_dir, seed) for seed in config.seeds]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for seed, trials, error in pool.map(_run_seed_worker, args):
                if error is not None:
                    result.failures.append(f"seed {seed}: {error}")
                else:
                    per_seed[seed] = trials
    else:
        for seed in config.seeds:
            try:
                per_seed[seed] = _run_seed(config, seed)
            except TactilabError as exc:
                result.failures.append(f"seed {seed}: {exc}")

    for seed in sorted(per_seed):
        for mode_name, trial in per_seed[seed].items():
            result.curves[mode_name][seed] = trial.curve
            result.decisions[mode_name][seed] = trial.decisions
            result.gamma_traces[mode_name][seed] = trial.gamma_trace
            result.records[mode_name][seed] = trial.records
    result.wall_clock_s = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# Multi-kernel ablation
# ---------------------------------------------------------------------------


def _run_ablation(config: ExperimentConfig, start: float) -> RunResult:
    """Learning-curve comparison of the weighted combined kernel against each
    single modality, over growing training-set sizes."""
    catalog, _, projectors, test, _ = _assets(config)
    action_id = config.actions[0]
    a_idx = _action_index(config, action_id)
    simulator = _make_simulator(catalog)
    new_ids = list(config.new_objects)
    sizes = list(config.ablation_sizes)
    max_per_class = -(-max(sizes) // len(new_ids))

    test_obs = test.observations[action_id]
    test_labels = test.labels[action_id]
    mask = np.isin(test_labels, new_ids)
    test_obs = ObservationBlock.of([o for o, m in zip(test_obs, mask) if m])
    test_labels = test_labels[mask]

    sample_modalities = test_obs.modalities
    variants: dict[str, Optional[np.ndarray]] = {"combined": None}
    for idx, mod in enumerate(sample_modalities):
        one_hot = np.zeros(len(sample_modalities))
        one_hot[idx] = 1.0
        variants[f"{mod.value}_only"] = one_hot
    modes = list(variants)
    result = RunResult(
        config=config.to_dict(),
        config_hash=config_hash(config),
        modes=modes,
        curves={m: {} for m in modes},
        decisions={m: {} for m in modes},
        gamma_traces={m: {} for m in modes},
        records={m: {} for m in modes},
    )

    for seed in config.seeds:
        try:
            pools = {
                obj: [
                    build_observation(
                        simulator(obj, action_id, derive_seed(seed, ABLATION_NS, a_idx, obj, k)),
                        action_id,
                        projectors[action_id],
                        obj,
                    )
                    for k in range(max_per_class)
                ]
                for obj in new_ids
            }
            opt_rng = derive_rng(seed, ABLATION_NS, OPT_NS)
            curves: dict[str, list[float]] = {m: [] for m in modes}
            gamma_trace = []
            for size in sizes:
                train, labels = [], []
                k = 0
                while len(train) < size:
                    for obj in new_ids:
                        if len(train) < size:
                            train.append(pools[obj][k])
                            labels.append(obj)
                    k += 1
                train = ObservationBlock.of(train)
                sets = list(ova_sets(train, labels).values())
                start_kernel = median_heuristic(train, train.modalities)
                for variant, one_hot in variants.items():
                    kernel, _, _ = optimize_kernel_for_sets(
                        sets,
                        start_kernel if one_hot is None else start_kernel.with_weights(one_hot),
                        restarts=INIT_RESTARTS,
                        rng=opt_rng,
                        fit_weights=one_hot is None,
                    )
                    model = ova_fit(kernel, train, labels)
                    probs = ova_predict_proba(model, test_obs)
                    preds = [argmax_label(model.classes, row) for row in probs]
                    curves[variant].append(float(np.mean(np.array(preds) == test_labels)))
                    if variant == "combined":
                        gamma_trace.append(
                            {
                                "iteration": size,
                                "action": action_id,
                                "gamma": [float(g) for g in kernel.weights],
                            }
                        )
        except (ValueError, ArithmeticError, TactilabError) as exc:
            # One bad seed lands in failures, as in _run_seed.
            result.failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        for variant in modes:
            result.curves[variant][seed] = curves[variant]
            result.decisions[variant][seed] = []
            result.gamma_traces[variant][seed] = gamma_trace if variant == "combined" else []
            result.records[variant][seed] = [
                {"iteration": size, "accuracy": acc}
                for size, acc in zip(sizes, curves[variant])
            ]
    result.wall_clock_s = time.perf_counter() - start
    return result


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
        for seed in sorted(result.curves[mode]):
            for idx, acc in enumerate(result.curves[mode][seed]):
                iteration = sizes[idx] if is_ablation else idx + 1
                lines.append(f"{iteration},{seed},{mode},{acc:.10f}")
    csv_path.write_text("\n".join(lines) + "\n")

    decision_rows = [
        d for per in result.decisions.values() for ds in per.values() for d in ds
    ]
    none_count = sum(1 for d in decision_rows if d["selected_old"] is None)
    gamma_means: dict[str, list[float]] = {}
    for per in result.gamma_traces.values():
        for entries in per.values():
            for entry in entries:
                gamma_means.setdefault(entry["action"], [])
    for action in gamma_means:
        stacks = [
            entry["gamma"]
            for per in result.gamma_traces.values()
            for entries in per.values()
            for entry in entries
            if entry["action"] == action
        ]
        gamma_means[action] = [float(v) for v in np.mean(np.array(stacks), axis=0)]

    summary = {
        "config_hash": result.config_hash,
        "modes": {
            mode: {
                "mean_curve": result.mean_curve(mode),
                "one_shot_accuracy": (result.mean_curve(mode) or [None])[0],
                "final_accuracy": (result.mean_curve(mode) or [None])[-1],
                "trials": len(result.curves[mode]),
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
