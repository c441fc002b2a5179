"""Feature extraction: trace -> per-modality feature vectors.

Pressing and static contact produce a stiffness scalar plus a 10-D thermal
descriptor; sliding produces a 4-D texture descriptor (activity, mobility,
complexity, axis correlation) plus the thermal descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
from .signals import ActionKind, SensorTrace

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
    if trace.forces is None:
        raise ModalityError("trace has no force channels")
    return float(np.mean(trace.forces))


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

    ``activity``, ``mobility``, ``complexity`` and ``linear_correlation``
    are the reference definitions. This function computes the same numbers,
    bit for bit, from one pass over the trace: the axes are the rows of one
    (cells * 3, M) matrix, and each axis's activity of x, dx and d^2x is
    computed once, by row-wise reductions in the scalar functions' order of
    operations. It raises what the loop over the scalar functions raises,
    axis by axis and cell by cell.
    """
    if trace.accels is None:
        raise ModalityError("trace has no accelerometer channels")
    accels = np.ascontiguousarray(trace.accels, dtype=float)
    cells, m = accels.shape[0], accels.shape[-1]
    rows = accels.reshape(cells * 3, m)
    if cells and m < 2:
        raise DegenerateSequenceError(f"activity needs >= 2 samples, got {m}")
    centred = _centred(rows)
    squares = centred**2
    acts = np.mean(squares, axis=1)
    live = np.flatnonzero(acts > 0.0)
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

    first_rows = 3 * np.arange(cells)[:, None]
    ia = (first_rows + _AXIS_PAIRS[:, 0]).ravel()
    ib = (first_rows + _AXIS_PAIRS[:, 1]).ravel()
    both = (acts[ia] > 0.0) & (acts[ib] > 0.0)
    ia, ib = ia[both], ib[both]
    sums = np.sum(squares, axis=1)
    denoms = np.sqrt(sums[ia] * sums[ib])
    # The first error the per-axis loop meets: a cell's axes come before its pairs.
    flat_cells = live[mobs <= 0.0] // 3
    zero_cells = ia[denoms == 0.0] // 3
    if flat_cells.size and (not zero_cells.size or flat_cells[0] <= zero_cells[0]):
        raise ZeroVarianceError("complexity undefined when mobility is zero")
    if zero_cells.size:
        raise ZeroVarianceError("correlation undefined for a constant sequence")

    comps = np.sqrt(acts2 / acts1) / mobs
    lcorrs = np.clip(np.sum(centred[ia] * centred[ib], axis=1) / denoms, -1.0, 1.0)
    return np.array(
        [
            np.mean(acts[live]),
            np.mean(mobs),
            np.mean(comps),
            np.mean(lcorrs) if lcorrs.size else 0.0,
        ]
    )


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


def _thermal_raw(trace: SensorTrace, resample_len: int) -> np.ndarray:
    """Resampled [mean-temperature, gradient] feature, length 2*resample_len."""
    if trace.temps is None:
        raise ModalityError("trace has no temperature channels")
    mean_seq = np.mean(trace.temps, axis=0)
    src = np.linspace(0.0, 1.0, mean_seq.size)
    dst = np.linspace(0.0, 1.0, resample_len)
    resampled = np.interp(dst, src, mean_seq)
    grad = np.gradient(resampled)
    return np.concatenate([resampled, grad])


def fit_projector(
    raw: np.ndarray, resample_len: int = THERMAL_RESAMPLE_LEN
) -> ThermalProjector:
    """Fit the top-10 principal directions of stacked [T, grad T] features,
    one row per trace (as ``_thermal_raw`` gives them)."""
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
    """Reduce a trace to its lead segment and raw thermal feature."""
    if trace.kind is ActionKind.SLIDING:
        lead = (Modality.TEXTURE, extract_texture(trace))
    else:
        lead = (Modality.FORCE, np.array([extract_stiffness(trace)]))
    return RawFeatures(lead, _thermal_raw(trace, resample_len))


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
