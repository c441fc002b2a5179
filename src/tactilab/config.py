"""Experiment config schema: the run modes, the config dataclass whose fields
are the schema, and parsing that checks every field by name."""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .features import THERMAL_DIM
from .signals import STANDARD_ACTIONS
from .transfer import SelectionMethod, TransferThresholds

CONFIG_SCHEMA_VERSION = 1


class Mode(Enum):
    TRANSFER = "transfer"
    NO_TRANSFER = "no_transfer"
    NEGATIVE_TRANSFER = "negative_transfer"
    MULTI_KERNEL_ABLATION = "multi_kernel_ablation"


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


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _distinct(name: str, values: tuple) -> tuple:
    dups = sorted({v for v in values if values.count(v) > 1})
    if dups:
        raise ConfigError(f"{name} has duplicate entries {dups}")
    return values


def _ids(name: str, values) -> tuple[int, ...]:
    """Distinct integers."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return _distinct(name, tuple(_int_field(f"{name}[{i}]", v) for i, v in enumerate(values)))


def _nonempty_ids(name: str, values) -> tuple[int, ...]:
    ids = _ids(name, values)
    if not ids:
        raise ConfigError(f"{name} must be nonempty")
    return ids


def _seeds(name: str, values) -> tuple[int, ...]:
    seeds = _nonempty_ids(name, values)
    for i, seed in enumerate(seeds):  # seed sequences take non-negative entropy only
        _at_least(0)(f"{name}[{i}]", seed)
    return seeds


def _actions(name: str, values) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(a, str) for a in values):
        raise ConfigError(f"{name} must be a list of action ids, got {values!r}")
    actions = _distinct(name, tuple(values))
    if not actions or any(a not in STANDARD_ACTIONS for a in actions):
        raise ConfigError(
            f"{name} must be a nonempty subset of {sorted(STANDARD_ACTIONS)}, got {list(actions)}"
        )
    return actions


def _at_least(low: int):
    def parse(name: str, value) -> int:
        value = _int_field(name, value)
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


def _within(low: float, high: float):
    def parse(name: str, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not low <= value <= high:  # false for NaN too
            raise ConfigError(f"{name} must lie in [{low}, {high}], got {value!r}")
        return float(value)

    return parse


def _choice(kind: type[Enum]):
    def parse(name: str, value) -> Enum:
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    return parse


def _flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _field(parse, default=MISSING):
    """A config field. ``parse(name, raw value)`` returns the field's value,
    or raises ConfigError naming the field; a field without a default must
    be given."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    catalog: str = _field(_string)
    prior_objects: tuple[int, ...] = _field(_ids, ())
    new_objects: tuple[int, ...] = _field(_nonempty_ids)
    actions: tuple[str, ...] = _field(_actions)
    seeds: tuple[int, ...] = _field(_seeds)
    budget: int = _field(_at_least(0))
    epsilon_explore: float = _field(_within(0, 1), 0.3)
    # Compared with a mean posterior probability, which never exceeds 1.
    epsilon_neg1: float = _field(_within(0.5, 1), 0.6)
    # Compared with a relatedness rho in [0, 1].
    epsilon_neg2: float = _field(_within(0, 1), 0.6)
    selection_method: SelectionMethod = _field(
        _choice(SelectionMethod), SelectionMethod.MODEL_PREDICTION
    )
    mode: Mode = _field(_choice(Mode), Mode.TRANSFER)
    test_samples_press_slide: int = _field(_at_least(1), 20)
    test_samples_static: int = _field(_at_least(1), 10)
    prior_samples_per_object: int = _field(_int_field, 15)
    early_stop: bool = _field(_flag, False)
    ablation_sizes: tuple[int, ...] = _field(_ids, (5, 10, 20, 40))
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
        raw = {"schema_version": CONFIG_SCHEMA_VERSION, "trials": self.trials}
        for f in _SCHEMA:
            value = getattr(self, f.name)
            if isinstance(value, Enum):
                value = value.value
            raw[f.name] = list(value) if isinstance(value, tuple) else value
        return raw


#: The config fields, in declaration order; ``base_dir`` is not one.
_SCHEMA = tuple(f for f in fields(ExperimentConfig) if "parse" in f.metadata)
#: What a config file may hold: the fields, its schema version, and the trial
#: count that ``to_dict`` writes (checked against the seeds).
_CONFIG_FIELDS = {f.name for f in _SCHEMA} | {"schema_version", "trials"}


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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
    for f in _SCHEMA:
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"missing config field {f.name!r}")
    config = ExperimentConfig(
        **{f.name: f.metadata["parse"](f.name, raw.get(f.name, f.default)) for f in _SCHEMA},
        base_dir=base_dir,
    )

    prior, new = config.prior_objects, config.new_objects
    if set(prior) & set(new):
        raise ConfigError("prior_objects and new_objects must be disjoint")
    if "trials" in raw and _int_field("trials", raw["trials"]) != config.trials:
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw, base_dir=str(path.parent))
