"""Feature extraction: trace -> per-modality feature vectors.

Pressing and static contact produce a stiffness scalar plus a 10-D thermal
descriptor; sliding produces a 4-D texture descriptor (activity, mobility,
complexity, axis correlation) plus the thermal descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateSequenceError,
    InsufficientDataError,
    ModalityError,
    ProjectorMismatchError,
    ZeroVarianceError,
)
from .signals import ActionKind, SensorTrace, TraceStack

THERMAL_DIM = 10
THERMAL_RESAMPLE_LEN = 128


class Modality(Enum):
    FORCE = "force"
    TEXTURE = "texture"
    THERMAL = "thermal"


#: Modality layout (name, dimension) per action kind.
SEGMENTATION: dict[ActionKind, tuple[tuple[Modality, int], ...]] = {
    ActionKind.PRESSING: ((Modality.FORCE, 1), (Modality.THERMAL, THERMAL_DIM)),
    ActionKind.STATIC_CONTACT: ((Modality.FORCE, 1), (Modality.THERMAL, THERMAL_DIM)),
    ActionKind.SLIDING: ((Modality.TEXTURE, 4), (Modality.THERMAL, THERMAL_DIM)),
}


@dataclass
class FeatureObservation:
    """One multi-sensor feature vector, segmented by modality."""

    action_id: str
    segments: tuple[tuple[Modality, np.ndarray], ...]
    object_id: Optional[int] = None

    def __post_init__(self):
        segments = tuple(
            (mod, np.asarray(vec, dtype=float).ravel()) for mod, vec in self.segments
        )
        object.__setattr__(self, "segments", segments)
        for mod, vec in segments:
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite entries in {mod.value} segment")

    @property
    def modalities(self) -> tuple[Modality, ...]:
        return tuple(mod for mod, _ in self.segments)

    def segment(self, modality: Modality) -> np.ndarray:
        for mod, vec in self.segments:
            if mod is modality:
                return vec
        raise KeyError(f"no {modality.value} segment in observation")

    def vector(self) -> np.ndarray:
        return np.concatenate([vec for _, vec in self.segments])


def extract_stiffness(trace: SensorTrace) -> float:
    """Mean normal force over all force sensors and time steps."""
    return float(_stiffnesses(TraceStack.of(trace).forces)[0])


def _stiffnesses(forces: Optional[np.ndarray]) -> np.ndarray:
    """``extract_stiffness`` of each trace of a (k, n_force, M) stack: the
    mean of each trace's own force block, as that trace alone reduces it."""
    if forces is None:
        raise ModalityError("trace has no force channels")
    return np.array([np.mean(block) for block in forces], dtype=float)


def activity(x: Sequence[float]) -> float:
    """Population variance of a signal."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DegenerateSequenceError(f"activity needs >= 2 samples, got {x.size}")
    return float(np.mean((x - np.mean(x)) ** 2))


def _diff(x: np.ndarray) -> np.ndarray:
    # Forward difference, length M-1.
    return x[1:] - x[:-1]


def mobility(x: Sequence[float]) -> float:
    """sqrt of the variance ratio between the differenced and raw signal."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        raise DegenerateSequenceError(f"mobility needs >= 3 samples, got {x.size}")
    act = activity(x)
    if act <= 0.0:
        raise ZeroVarianceError("mobility undefined for a constant sequence")
    return float(np.sqrt(activity(_diff(x)) / act))


def complexity(x: Sequence[float]) -> float:
    """Mobility of the differenced signal relative to the signal's own."""
    x = np.asarray(x, dtype=float)
    if x.size < 4:
        raise DegenerateSequenceError(f"complexity needs >= 4 samples, got {x.size}")
    mob = mobility(x)
    if mob <= 0.0:
        raise ZeroVarianceError("complexity undefined when mobility is zero")
    return float(mobility(_diff(x)) / mob)


def linear_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length signals."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DegenerateSequenceError("sequences must have equal length")
    if x.size < 2:
        raise DegenerateSequenceError("correlation needs >= 2 samples")
    xc = x - np.mean(x)
    yc = y - np.mean(y)
    denom = np.sqrt(np.sum(xc**2) * np.sum(yc**2))
    if denom == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant sequence")
    return float(np.clip(np.sum(xc * yc) / denom, -1.0, 1.0))


#: Axis pairs (xy, xz, yz) correlated within each accelerometer.
_AXIS_PAIRS = np.array(list(combinations(range(3), 2)))


def _centred(rows: np.ndarray) -> np.ndarray:
    """Each row minus its own mean."""
    return rows - np.mean(rows, axis=1, keepdims=True)


def extract_texture(trace: SensorTrace) -> np.ndarray:
    """4-vector [activity, mobility, complexity, axis correlation].

    The first three statistics are averaged over every accelerometer and
    axis with nonzero variance; the correlation is averaged over the axis
    pairs (xy, xz, yz) of each accelerometer whose two axes both have
    nonzero variance. Raises ZeroVarianceError when every axis is constant.
    The one-item case of ``_textures``."""
    return _textures(TraceStack.of(trace).accels)[0]


def _textures(accels: Optional[np.ndarray]) -> np.ndarray:
    """The (k, 4) texture vectors of a (k, cells, 3, M) stack.

    ``activity``, ``mobility``, ``complexity`` and ``linear_correlation``
    are the reference definitions. This function computes the same numbers,
    bit for bit, in one pass over the stack: the axes are the rows of one
    (k * cells * 3, M) matrix, and each axis's activity of x, dx and d^2x is
    computed once, by row-wise reductions over contiguous rows in the scalar
    functions' order of operations. One trace raises what the loop over the
    scalar functions raises, axis by axis and cell by cell, and a stack the
    error of its first trace that raises. A stack in which some trace has a
    constant axis, or which is too short, is reduced trace by trace."""
    if accels is None:
        raise ModalityError("trace has no accelerometer channels")
    accels = np.ascontiguousarray(accels, dtype=float)
    k, cells, m = accels.shape[0], accels.shape[1], accels.shape[-1]
    width = 3 * cells  # axes per trace
    rows = accels.reshape(k * width, m)
    if cells and m < 2:
        raise DegenerateSequenceError(f"activity needs >= 2 samples, got {m}")
    centred = _centred(rows)
    squares = centred**2
    acts = np.mean(squares, axis=1)
    live = np.flatnonzero(acts > 0.0)
    if k > 1 and (m < 4 or live.size < k * width):  # each trace on its own, in order
        return np.concatenate([_textures(trace[None]) for trace in accels])
    if not live.size:
        raise ZeroVarianceError("every accelerometer axis is constant")
    if m < 3:
        raise DegenerateSequenceError(f"mobility needs >= 3 samples, got {m}")
    if m < 4:
        raise DegenerateSequenceError(f"complexity needs >= 4 samples, got {m}")

    diff1 = rows[live, 1:] - rows[live, :-1]
    diff2 = diff1[:, 1:] - diff1[:, :-1]
    acts1 = np.mean(_centred(diff1) ** 2, axis=1)
    acts2 = np.mean(_centred(diff2) ** 2, axis=1)
    mobs = np.sqrt(acts1 / acts[live])

    first_rows = 3 * np.arange(k * cells)[:, None]
    ia = (first_rows + _AXIS_PAIRS[:, 0]).ravel()
    ib = (first_rows + _AXIS_PAIRS[:, 1]).ravel()
    both = (acts[ia] > 0.0) & (acts[ib] > 0.0)
    ia, ib = ia[both], ib[both]
    sums = np.sum(squares, axis=1)
    denoms = np.sqrt(sums[ia] * sums[ib])
    # The first error the per-axis loop meets, trace by trace and cell by
    # cell: a cell's axes come before its pairs.
    flat_cells = live[mobs <= 0.0] // 3
    zero_cells = ia[denoms == 0.0] // 3
    if flat_cells.size and (not zero_cells.size or flat_cells[0] <= zero_cells[0]):
        raise ZeroVarianceError("complexity undefined when mobility is zero")
    if zero_cells.size:
        raise ZeroVarianceError("correlation undefined for a constant sequence")

    comps = np.sqrt(acts2 / acts1) / mobs
    lcorrs = np.clip(np.sum(centred[ia] * centred[ib], axis=1) / denoms, -1.0, 1.0)
    if live.size == ia.size == k * width:  # every axis and pair counts
        stats = (acts, mobs, comps, lcorrs)
        return np.stack([np.mean(x.reshape(k, width), axis=1) for x in stats], axis=1)
    mean_lcorr = np.mean(lcorrs) if lcorrs.size else 0.0  # one trace, constant axes
    return np.array([[np.mean(acts[live]), np.mean(mobs), np.mean(comps), mean_lcorr]])


@dataclass(frozen=True)
class ThermalProjector:
    """Frozen linear map from a temperature trace to a 10-D descriptor."""

    mean_vector: np.ndarray
    basis: np.ndarray  # (THERMAL_DIM, source_dim), orthonormal rows
    source_dim: int
    resample_len: int = THERMAL_RESAMPLE_LEN
    explained_variance: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.basis.shape != (THERMAL_DIM, self.source_dim):
            raise ProjectorMismatchError(
                f"basis shape {self.basis.shape} != ({THERMAL_DIM}, {self.source_dim})"
            )


def _thermal_raws(temps: Optional[np.ndarray], resample_len: int) -> np.ndarray:
    """Each trace's resampled [mean-temperature, gradient] feature, of length
    2*resample_len, from a (k, n_temp, M) stack: one row per trace."""
    if temps is None:
        raise ModalityError("trace has no temperature channels")
    mean_seqs = np.mean(temps, axis=1)
    src, dst = _unit_grid(mean_seqs.shape[1]), _unit_grid(resample_len)
    raw = np.empty((len(mean_seqs), 2 * resample_len))
    resampled, grad = raw[:, :resample_len], raw[:, resample_len:]
    for row, mean_seq in zip(resampled, mean_seqs):
        row[:] = np.interp(dst, src, mean_seq)
    # np.gradient at unit spacing: central differences inside, one-sided ends.
    grad[:, 1:-1] = (resampled[:, 2:] - resampled[:, :-2]) / 2.0
    grad[:, 0] = resampled[:, 1] - resampled[:, 0]
    grad[:, -1] = resampled[:, -1] - resampled[:, -2]
    return raw


@lru_cache(maxsize=None)
def _unit_grid(n: int) -> np.ndarray:
    """``np.linspace(0, 1, n)``, read-only: one per trace and resample length."""
    grid = np.linspace(0.0, 1.0, n)
    grid.flags.writeable = False
    return grid


def fit_projector(
    raw: np.ndarray, resample_len: int = THERMAL_RESAMPLE_LEN
) -> ThermalProjector:
    """Fit the top-10 principal directions of stacked [T, grad T] features,
    one row per trace (as ``_thermal_raws`` gives them)."""
    if len(raw) < THERMAL_DIM + 1:
        raise InsufficientDataError(
            f"thermal projector needs >= {THERMAL_DIM + 1} traces, got {len(raw)}"
        )
    mean = raw.mean(axis=0)
    centered = raw - mean
    # SVD of the centered data: rows of vt are the principal directions.
    _, s, vt = np.linalg.svd(centered, full_matrices=True)
    explained = np.zeros(THERMAL_DIM)
    explained[: s.size] = (s[:THERMAL_DIM] ** 2) / len(raw)
    return ThermalProjector(
        mean_vector=mean,
        basis=vt[:THERMAL_DIM].copy(),  # a view would keep all of vt alive
        source_dim=mean.size,
        resample_len=resample_len,
        explained_variance=explained,
    )


def project_thermal(raw: np.ndarray, projector: ThermalProjector) -> np.ndarray:
    """Project a [T, grad T] feature onto the fitted basis."""
    if raw.size != projector.source_dim:
        raise ProjectorMismatchError(
            f"feature length {raw.size} != projector source_dim {projector.source_dim}"
        )
    return projector.basis @ (raw - projector.mean_vector)


@dataclass(frozen=True)
class RawFeatures:
    """What an observation needs of its trace before a thermal projector
    exists: the lead segment (stiffness or texture) and the raw [T, grad T]
    thermal feature. A few kilobytes, where the trace holds about a hundred."""

    lead: tuple[Modality, np.ndarray]
    thermal: np.ndarray


def raw_features(trace: SensorTrace, resample_len: int = THERMAL_RESAMPLE_LEN) -> RawFeatures:
    """Reduce a trace to its lead segment and raw thermal feature: the
    one-item case of ``raw_features_stack``."""
    return raw_features_stack(TraceStack.of(trace), resample_len)[0]


def raw_features_stack(
    stack: TraceStack, resample_len: int = THERMAL_RESAMPLE_LEN
) -> list[RawFeatures]:
    """Each trace of the stack reduced to its raw features, bit for bit as
    if reduced alone. The first trace that fails raises its own error."""
    if stack.kind is ActionKind.SLIDING:
        leads = [(Modality.TEXTURE, vec) for vec in _textures(stack.accels)]
    else:
        leads = [(Modality.FORCE, vec) for vec in _stiffnesses(stack.forces)[:, None]]
    thermal = _thermal_raws(stack.temps, resample_len)
    return [RawFeatures(lead, raw) for lead, raw in zip(leads, thermal)]


def observation_from_raw(
    raw: RawFeatures,
    action_id: str,
    projector: ThermalProjector,
    object_id: Optional[int] = None,
) -> FeatureObservation:
    """The feature observation of a trace reduced by ``raw_features``."""
    thermal = (Modality.THERMAL, project_thermal(raw.thermal, projector))
    return FeatureObservation(action_id, (raw.lead, thermal), object_id)


def build_observation(
    trace: SensorTrace,
    action_id: str,
    projector: ThermalProjector,
    object_id: Optional[int] = None,
) -> FeatureObservation:
    """Assemble the full feature observation for a trace."""
    raw = raw_features(trace, projector.resample_len)
    return observation_from_raw(raw, action_id, projector, object_id)
