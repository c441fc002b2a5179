"""Deterministic synthetic tactile world.

Replaces the robot-plus-skin stack with seeded signal generators: an object
catalog carries latent physical parameters, and ``simulate`` turns an
(object, action, seed) triple into multi-channel sensor traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DegenerateTraceError, ParameterError, SchemaError

CATALOG_SCHEMA_VERSION = 1


class ActionKind(Enum):
    PRESSING = "pressing"
    SLIDING = "sliding"
    STATIC_CONTACT = "static_contact"


@dataclass(frozen=True)
class ExploratoryAction:
    """A touch movement plus the parameter vector that controls it.

    Parameter layout per kind:
      pressing        (depth_mm, duration_s)
      sliding         (force_n, speed_cm_s, duration_s)
      static_contact  (depth_mm, duration_s)
    """

    kind: ActionKind
    params: tuple[float, ...]

    _ARITY = {
        ActionKind.PRESSING: 2,
        ActionKind.SLIDING: 3,
        ActionKind.STATIC_CONTACT: 2,
    }

    def __post_init__(self):
        expected = self._ARITY[self.kind]
        if len(self.params) != expected:
            raise ParameterError(
                f"{self.kind.value} takes {expected} parameters, got {len(self.params)}"
            )
        if any(not (p > 0) for p in self.params):
            raise ParameterError(
                f"action parameters must be strictly positive, got {self.params}"
            )

    @property
    def duration_s(self) -> float:
        return self.params[-1]

    def label(self) -> str:
        body = ",".join(f"{p:g}" for p in self.params)
        return f"{self.kind.value}({body})"


def pressing(depth_mm: float, duration_s: float) -> ExploratoryAction:
    return ExploratoryAction(ActionKind.PRESSING, (depth_mm, duration_s))


def sliding(force_n: float, speed_cm_s: float, duration_s: float) -> ExploratoryAction:
    return ExploratoryAction(ActionKind.SLIDING, (force_n, speed_cm_s, duration_s))


def static_contact(depth_mm: float, duration_s: float) -> ExploratoryAction:
    return ExploratoryAction(ActionKind.STATIC_CONTACT, (depth_mm, duration_s))


#: The seven bench actions used throughout the experiments.
STANDARD_ACTIONS: dict[str, ExploratoryAction] = {
    "P1": pressing(1.0, 3.0),
    "P2": pressing(2.0, 3.0),
    "S1": sliding(0.1, 1.0, 1.0),
    "S2": sliding(0.1, 5.0, 1.0),
    "S3": sliding(0.2, 1.0, 1.0),
    "S4": sliding(0.2, 5.0, 1.0),
    "C1": static_contact(2.0, 15.0),
}


@dataclass(frozen=True)
class ObjectSpec:
    """Latent physical parameters of one catalog object."""

    id: int
    stiffness_coeff: float  # N/mm
    roughness_amp: float  # g of vibration per N of sliding contact force
    roughness_freq: float  # Hz of vibration per cm/s of sliding speed
    thermal_time_const: float  # s
    thermal_equilib_delta: float  # degC relative to ambient, any sign
    label: str = ""

    def __post_init__(self):
        for name in ("stiffness_coeff", "roughness_freq", "thermal_time_const"):
            if not (getattr(self, name) > 0):
                raise SchemaError(f"object {self.id}: {name} must be > 0")
        if self.roughness_amp < 0:
            raise SchemaError(f"object {self.id}: roughness_amp must be >= 0")


@dataclass(frozen=True)
class SkinConfig:
    """Sensor geometry and acquisition settings of the simulated skin."""

    cells: int = 7
    force_per_cell: int = 3
    temp_per_cell: int = 1
    accel_per_cell: int = 1
    sample_rate_hz: float = 100.0
    ambient_temp_c: float = 25.0

    @property
    def n_force(self) -> int:
        return self.cells * self.force_per_cell

    @property
    def n_temp(self) -> int:
        return self.cells * self.temp_per_cell

    @property
    def n_accel(self) -> int:
        return self.cells * self.accel_per_cell


@dataclass(frozen=True)
class NoiseScales:
    """Per-modality noise: one trial-level gain draw plus per-sample jitter."""

    force_trial: float = 0.08
    force_sample: float = 0.02
    temp_trial: float = 0.04
    temp_sample: float = 0.02
    accel_trial: float = 0.10
    accel_sample: float = 0.002

    def __post_init__(self):
        for name in (
            "force_trial",
            "force_sample",
            "temp_trial",
            "temp_sample",
            "accel_trial",
            "accel_sample",
        ):
            if getattr(self, name) < 0:
                raise SchemaError(f"noise scale {name} must be >= 0")


@dataclass
class SensorTrace:
    """Raw multi-channel recording of one action execution.

    Channels present depend on the action kind: pressing and static contact
    record forces and temperatures, sliding records accelerations and
    temperatures.
    """

    forces: Optional[np.ndarray]  # (n_force, M) in N
    temps: Optional[np.ndarray]  # (n_temp, M) in degC
    accels: Optional[np.ndarray]  # (n_accel, 3, M) in g
    sample_rate: float
    kind: ActionKind

    @property
    def n_samples(self) -> int:
        for arr in (self.forces, self.temps, self.accels):
            if arr is not None:
                return arr.shape[-1]
        return 0


@dataclass
class Catalog:
    """Objects plus the skin/noise configuration they were defined for.

    Iterates as a list of :class:`ObjectSpec`.
    """

    objects: list[ObjectSpec]
    skin: SkinConfig = field(default_factory=SkinConfig)
    noise: NoiseScales = field(default_factory=NoiseScales)

    def __iter__(self):
        return iter(self.objects)

    def __len__(self):
        return len(self.objects)

    def by_id(self, object_id: int) -> ObjectSpec:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(f"no object with id {object_id} in catalog")


def _n_samples(duration_s: float, sample_rate: float) -> int:
    m = math.floor(duration_s * sample_rate)
    if m < 2:
        raise DegenerateTraceError(
            f"duration {duration_s}s at {sample_rate}Hz yields {m} samples (< 2)"
        )
    return m


def _thermal_curve(obj: ObjectSpec, t: np.ndarray, ambient: float, gain: float) -> np.ndarray:
    # Skin starts at ambient and relaxes toward ambient + delta.
    delta = obj.thermal_equilib_delta * gain
    return ambient + delta * (1.0 - np.exp(-t / obj.thermal_time_const))


def _axis_offsets(obj: ObjectSpec) -> np.ndarray:
    # Object-specific inter-axis phase offsets: a smooth function of the
    # latent texture parameters so near-identical objects produce
    # near-identical axis correlations.
    base = obj.roughness_freq / (1.0 + obj.roughness_freq)
    return 2.0 * math.pi * base * np.array([0.0, 0.35, 0.7])


def simulate(
    obj: ObjectSpec,
    action: ExploratoryAction,
    seed: int,
    skin: SkinConfig = SkinConfig(),
    noise: NoiseScales = NoiseScales(),
) -> SensorTrace:
    """Generate the sensor trace for one action execution.

    Pure function of (object, action, seed, skin, noise): the same inputs
    produce a bit-identical trace.
    """
    rng = np.random.default_rng(seed)
    m = _n_samples(action.duration_s, skin.sample_rate_hz)
    t = np.arange(m) / skin.sample_rate_hz

    if action.kind is ActionKind.SLIDING:
        force_n, speed, _ = action.params
        temp_gain = 1.0 + noise.temp_trial * rng.standard_normal()
        accel_gain = 1.0 + noise.accel_trial * rng.standard_normal()
        base_phases = rng.uniform(0.0, 2.0 * math.pi, size=3)  # one per harmonic
        jitter = 0.2 * rng.standard_normal((skin.n_accel, 3, 3))

        f0 = obj.roughness_freq * speed
        amp = obj.roughness_amp * force_n
        harmonics = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 0.5, 0.25])
        offsets = _axis_offsets(obj)
        cell_shift = 0.15 * np.arange(skin.n_accel)

        accels = np.zeros((skin.n_accel, 3, m))
        for h in range(3):
            phase = (
                base_phases[h]
                + offsets[None, :, None]
                + cell_shift[:, None, None]
                + jitter[:, :, h : h + 1]
            )
            accels += (
                accel_gain
                * amp
                * weights[h]
                * np.sin(2.0 * math.pi * f0 * harmonics[h] * t[None, None, :] + phase)
            )
        accels += noise.accel_sample * rng.standard_normal(accels.shape)

        temps = _thermal_curve(obj, t, skin.ambient_temp_c, temp_gain)[None, :]
        temps = np.repeat(temps, skin.n_temp, axis=0)
        temps = temps + noise.temp_sample * rng.standard_normal(temps.shape)
        return SensorTrace(None, temps, accels, skin.sample_rate_hz, action.kind)

    # Pressing and static contact share the force + temperature layout.
    depth = action.params[0]
    force_gain = 1.0 + noise.force_trial * rng.standard_normal()
    temp_gain = 1.0 + noise.temp_trial * rng.standard_normal()

    plateau = obj.stiffness_coeff * depth * force_gain
    forces = np.full((skin.n_force, m), plateau)
    forces = forces + noise.force_sample * rng.standard_normal(forces.shape)

    temps = _thermal_curve(obj, t, skin.ambient_temp_c, temp_gain)[None, :]
    temps = np.repeat(temps, skin.n_temp, axis=0)
    temps = temps + noise.temp_sample * rng.standard_normal(temps.shape)
    return SensorTrace(forces, temps, None, skin.sample_rate_hz, action.kind)


_OBJECT_FIELDS = {
    "id",
    "label",
    "stiffness_coeff",
    "roughness_amp",
    "roughness_freq",
    "thermal_time_const",
    "thermal_equilib_delta",
}


def _parse_object(entry: dict, index: int) -> ObjectSpec:
    if not isinstance(entry, dict):
        raise SchemaError(f"objects[{index}] must be a mapping")
    unknown = set(entry) - _OBJECT_FIELDS
    if unknown:
        raise SchemaError(f"objects[{index}]: unknown field(s) {sorted(unknown)}")
    missing = _OBJECT_FIELDS - {"label"} - set(entry)
    if missing:
        raise SchemaError(f"objects[{index}]: missing field(s) {sorted(missing)}")
    try:
        return ObjectSpec(
            id=int(entry["id"]),
            stiffness_coeff=float(entry["stiffness_coeff"]),
            roughness_amp=float(entry["roughness_amp"]),
            roughness_freq=float(entry["roughness_freq"]),
            thermal_time_const=float(entry["thermal_time_const"]),
            thermal_equilib_delta=float(entry["thermal_equilib_delta"]),
            label=str(entry.get("label", "")),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"objects[{index}]: {exc}") from exc


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a catalog file.

    Raises :class:`SchemaError` naming the offending field on any violation.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse catalog {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("catalog root must be a mapping")
    version = raw.get("schema_version")
    if version != CATALOG_SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version must be {CATALOG_SCHEMA_VERSION}, got {version!r}"
        )
    unknown = set(raw) - {"schema_version", "skin", "noise", "objects"}
    if unknown:
        raise SchemaError(f"unknown top-level field(s) {sorted(unknown)}")

    try:
        skin = SkinConfig(**raw.get("skin", {}))
    except TypeError as exc:
        raise SchemaError(f"skin: {exc}") from exc
    try:
        noise = NoiseScales(**raw.get("noise", {}))
    except TypeError as exc:
        raise SchemaError(f"noise: {exc}") from exc
    if skin.cells < 1 or skin.force_per_cell < 0 or skin.temp_per_cell < 0:
        raise SchemaError("skin: cells must be >= 1 and sensor counts >= 0")
    if not (skin.sample_rate_hz > 0):
        raise SchemaError("skin: sample_rate_hz must be > 0")

    entries = raw.get("objects", [])
    if not isinstance(entries, list) or not entries:
        raise SchemaError("objects: catalog must list at least one object")
    objects = [_parse_object(entry, i) for i, entry in enumerate(entries)]
    seen: set[int] = set()
    for obj in objects:
        if obj.id in seen:
            raise SchemaError(f"objects: duplicate id {obj.id}")
        seen.add(obj.id)
    return Catalog(objects=objects, skin=skin, noise=noise)
