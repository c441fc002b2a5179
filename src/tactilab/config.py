"""Experiment config: the run modes, the config record whose fields are the
schema (each with its parse, read by ``schema.read_record``), and the checks
across fields."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import ConfigError, SchemaError
from .features import THERMAL_DIM
from .schema import (
    at_least,
    choice,
    declared,
    flag,
    integer,
    number,
    parse_fields,
    parsed,
    read_record,
    string,
)
from .signals import STANDARD_ACTIONS
from .transfer import SelectionMethod, TransferThresholds

CONFIG_SCHEMA_VERSION = 1


class Mode(Enum):
    TRANSFER = "transfer"
    NO_TRANSFER = "no_transfer"
    NEGATIVE_TRANSFER = "negative_transfer"
    MULTI_KERNEL_ABLATION = "multi_kernel_ablation"


def _distinct(name: str, values: tuple) -> tuple:
    dups = sorted({v for v in values if values.count(v) > 1})
    if dups:
        raise SchemaError(f"{name} has duplicate entries {dups}")
    return values


def _ids(name: str, values) -> tuple[int, ...]:
    """Distinct integers."""
    if not isinstance(values, (list, tuple)):
        raise SchemaError(f"{name} must be a list of integers, got {values!r}")
    return _distinct(name, tuple(integer(f"{name}[{i}]", v) for i, v in enumerate(values)))


def _nonempty_ids(name: str, values) -> tuple[int, ...]:
    ids = _ids(name, values)
    if not ids:
        raise SchemaError(f"{name} must be nonempty")
    return ids


def _each_at_least(low: int, name: str, ids: tuple[int, ...]) -> tuple[int, ...]:
    for i, value in enumerate(ids):
        at_least(low)(f"{name}[{i}]", value)
    return ids


def _seeds(name: str, values) -> tuple[int, ...]:
    # Seed sequences take non-negative entropy only.
    return _each_at_least(0, name, _nonempty_ids(name, values))


def _sizes(name: str, values) -> tuple[int, ...]:
    return _each_at_least(1, name, _ids(name, values))


def _actions(name: str, values) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(a, str) for a in values):
        raise SchemaError(f"{name} must be a list of action ids, got {values!r}")
    actions = _distinct(name, tuple(values))
    if not actions or any(a not in STANDARD_ACTIONS for a in actions):
        raise SchemaError(
            f"{name} must be a nonempty subset of {sorted(STANDARD_ACTIONS)}, got {list(actions)}"
        )
    return actions


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    catalog: str = parsed(string)
    prior_objects: tuple[int, ...] = parsed(_ids, ())
    new_objects: tuple[int, ...] = parsed(_nonempty_ids)
    actions: tuple[str, ...] = parsed(_actions)
    seeds: tuple[int, ...] = parsed(_seeds)
    budget: int = parsed(at_least(0))
    epsilon_explore: float = parsed(number(0, 1), 0.3)
    # Compared with a mean posterior probability, which never exceeds 1.
    epsilon_neg1: float = parsed(number(0.5, 1), 0.6)
    # Compared with a relatedness rho in [0, 1].
    epsilon_neg2: float = parsed(number(0, 1), 0.6)
    selection_method: SelectionMethod = parsed(
        choice(SelectionMethod), SelectionMethod.MODEL_PREDICTION
    )
    mode: Mode = parsed(choice(Mode), Mode.TRANSFER)
    test_samples_press_slide: int = parsed(at_least(1), 20)
    test_samples_static: int = parsed(at_least(1), 10)
    prior_samples_per_object: int = parsed(at_least(0), 15)
    early_stop: bool = parsed(flag, False)
    ablation_sizes: tuple[int, ...] = parsed(_sizes, (5, 10, 20, 40))
    base_dir: Optional[str] = None  # directory of the config file, for paths

    __post_init__ = parse_fields

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
        raw = {"schema_version": CONFIG_SCHEMA_VERSION, "trials": self.trials}
        for f in declared(ExperimentConfig):
            value = getattr(self, f.name)
            if isinstance(value, Enum):
                value = value.value
            raw[f.name] = list(value) if isinstance(value, tuple) else value
        return raw


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_config(raw: dict, base_dir: Optional[str] = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if raw.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )
    # The trial count that ``to_dict`` writes is checked against the seeds.
    fields = {k: v for k, v in raw.items() if k not in ("schema_version", "trials")}
    try:
        config = read_record(ExperimentConfig, fields, base_dir=base_dir)
        trials = integer("trials", raw.get("trials", config.trials))
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc

    prior, new = config.prior_objects, config.new_objects
    if set(prior) & set(new):
        raise ConfigError("prior_objects and new_objects must be disjoint")
    if trials != config.trials:
        raise ConfigError("trials must equal the number of seeds")
    if prior:  # each action's projector pool holds these traces of every prior object
        samples, needed = config.prior_samples_per_object, THERMAL_DIM + 1
        if len(prior) * samples < needed:
            raise ConfigError(
                f"prior_samples_per_object must be >= {-(-needed // len(prior))} with "
                f"{len(prior)} prior object(s), got {samples}: the thermal projector "
                f"needs {needed} traces per action"
            )
    if len(new) < 2:  # one class: every prediction is that class, every accuracy 1
        raise ConfigError(f"new_objects must hold at least two classes, got {list(new)}")
    if config.mode is Mode.MULTI_KERNEL_ABLATION:
        if not config.ablation_sizes:
            raise ConfigError("ablation_sizes must be nonempty for the ablation")
        if any(s < len(new) for s in config.ablation_sizes):
            raise ConfigError("ablation_sizes entries must cover one sample per class")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # bad JSON, or an integer past int()'s digit limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw, base_dir=str(path.parent))
