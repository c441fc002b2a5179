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
from typing import Optional, Sequence

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


def trace_nbytes(action: ExploratoryAction, skin: SkinConfig) -> int:
    """Bytes of one trace's channel arrays (float64) for the action."""
    m = math.floor(action.duration_s * skin.sample_rate_hz)
    lead = 3 * skin.n_accel if action.kind is ActionKind.SLIDING else skin.n_force
    return 8 * (lead + skin.n_temp) * m


@dataclass
class TraceStack:
    """Traces of one action stacked along a leading item axis: item ``i`` of
    each channel array holds trace ``i``'s channels, laid out as in
    :class:`SensorTrace`."""

    forces: Optional[np.ndarray]  # (k, n_force, M) in N
    temps: Optional[np.ndarray]  # (k, n_temp, M) in degC
    accels: Optional[np.ndarray]  # (k, n_accel, 3, M) in g
    sample_rate: float
    kind: ActionKind

    @classmethod
    def of(cls, trace: SensorTrace) -> "TraceStack":
        """The one-item stack of ``trace`` (views of its channels)."""
        lift = lambda c: None if c is None else c[None]
        channels = (lift(trace.forces), lift(trace.temps), lift(trace.accels))
        return cls(*channels, trace.sample_rate, trace.kind)

    def trace(self, i: int) -> SensorTrace:
        """Trace ``i`` (views of its rows)."""
        pick = lambda c: None if c is None else c[i]
        channels = (pick(self.forces), pick(self.temps), pick(self.accels))
        return SensorTrace(*channels, self.sample_rate, self.kind)


#: (harmonic, weight) of the three sliding vibration components.
_HARMONICS = ((1.0, 1.0), (2.0, 0.5), (3.0, 0.25))


def simulate(
    obj: ObjectSpec,
    action: ExploratoryAction,
    seed: int,
    skin: SkinConfig = SkinConfig(),
    noise: NoiseScales = NoiseScales(),
) -> SensorTrace:
    """Generate the sensor trace for one action execution.

    Pure function of (object, action, seed, skin, noise): the same inputs
    produce a bit-identical trace. The one-item case of ``simulate_stack``."""
    return simulate_stack([obj], action, [seed], skin, noise).trace(0)


def simulate_stack(
    objs: Sequence[ObjectSpec],
    action: ExploratoryAction,
    seeds: Sequence[int],
    skin: SkinConfig = SkinConfig(),
    noise: NoiseScales = NoiseScales(),
) -> TraceStack:
    """The traces of ``action`` on ``objs[i]`` with ``seeds[i]``, stacked.

    Each trace draws from its own ``default_rng(seed)``, always the same
    draws in the same order, into its rows of the stack. The arithmetic then
    runs once over the stack, elementwise in one trace's order of
    operations, so a trace's bits do not depend on its stack."""
    if len(objs) != len(seeds):
        raise ParameterError(f"{len(objs)} objects for {len(seeds)} seeds")
    m = _n_samples(action.duration_s, skin.sample_rate_hz)
    t = np.arange(m) / skin.sample_rate_hz
    k = len(seeds)
    column = lambda name: np.array([getattr(obj, name) for obj in objs], dtype=float)
    sliding = action.kind is ActionKind.SLIDING
    # Per trace, in this order: two trial-level gains, (temp, accel) when
    # sliding and (force, temp) otherwise; when sliding, one phase per
    # harmonic, then the phase jitter and the accelerations' sample noise;
    # else the forces' sample noise; then the temperatures' sample noise.
    gains, phases = np.empty((k, 2)), np.empty((k, 3))
    if sliding:
        normals = (np.empty((k, skin.n_accel, 3, 3)), np.empty((k, skin.n_accel, 3, m)))
    else:
        normals = (np.empty((k, skin.n_force, m)),)
    temps = np.empty((k, skin.n_temp, m))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=gains[i])
        if sliding:
            phases[i] = rng.uniform(0.0, 2.0 * math.pi, size=3)
        for draws in (*normals, temps):
            rng.standard_normal(out=draws[i])

    if sliding:
        jitter, shake = normals
        temp_gain = 1.0 + noise.temp_trial * gains[:, 0]
        accel_gain = 1.0 + noise.accel_trial * gains[:, 1]
        jitter *= 0.2

        force_n, speed, _ = action.params
        freq = column("roughness_freq")
        f0 = freq * speed
        amp = column("roughness_amp") * force_n
        # Object-specific inter-axis phase offsets: a smooth function of the
        # latent texture parameters so near-identical objects produce
        # near-identical axis correlations.
        base = (freq / (1.0 + freq))[:, None]
        offsets = 2.0 * math.pi * base * np.array([0.0, 0.35, 0.7])
        cell_shift = 0.15 * np.arange(skin.n_accel)

        accels = np.zeros((k, skin.n_accel, 3, m))
        for h, (harmonic, weight) in enumerate(_HARMONICS):
            phase = (
                phases[:, h, None, None, None]
                + offsets[:, None, :, None]
                + cell_shift[:, None, None]
                + jitter[..., h : h + 1]
            )
            wave = (2.0 * math.pi * f0 * harmonic)[:, None, None, None] * t + phase
            np.sin(wave, out=wave)
            wave *= (accel_gain * amp * weight)[:, None, None, None]
            accels += wave
        shake *= noise.accel_sample
        accels += shake
        forces = None
    else:  # pressing and static contact share the force + temperature layout
        (forces,) = normals
        force_gain = 1.0 + noise.force_trial * gains[:, 0]
        temp_gain = 1.0 + noise.temp_trial * gains[:, 1]
        plateau = column("stiffness_coeff") * action.params[0] * force_gain
        forces *= noise.force_sample
        forces += plateau[:, None, None]
        accels = None

    # Skin starts at ambient and relaxes toward ambient + delta.
    delta = column("thermal_equilib_delta") * temp_gain
    curve = skin.ambient_temp_c + delta[:, None] * (
        1.0 - np.exp(-t / column("thermal_time_const")[:, None])
    )
    temps *= noise.temp_sample
    temps += curve[:, None, :]
    return TraceStack(forces, temps, accels, skin.sample_rate_hz, action.kind)


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
