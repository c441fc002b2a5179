import inspect
from typing import Mapping

import numpy as np
import pytest

import tactilab
from tactilab.features import Modality
from tactilab.kernels import ObservationBlock
from tactilab.signals import NoiseScales, SkinConfig, load_catalog

QUIET = NoiseScales(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def related_catalog():
    return load_catalog(tactilab.data_path("catalogs", "related_priors.json"))


@pytest.fixture(scope="session")
def unrelated_catalog():
    return load_catalog(tactilab.data_path("catalogs", "unrelated_priors.json"))


@pytest.fixture(scope="session")
def sample_catalog():
    return load_catalog(tactilab.data_path("catalogs", "sample_catalog.json"))


@pytest.fixture
def quiet_noise():
    return QUIET


@pytest.fixture
def small_skin():
    return SkinConfig(cells=2, force_per_cell=2, temp_per_cell=1, accel_per_cell=1)


def one_row(*segments) -> ObservationBlock:
    """The one-row block of ``(modality, vector)`` segments, each row a
    float64 copy, as ``ObservationBlock.of`` makes of raw points."""
    rows = tuple(np.array(vec, dtype=float).reshape(1, -1) for _, vec in segments)
    return ObservationBlock(tuple(mod for mod, _ in segments), rows, 1)


def force_obs(value):
    """1-D force-only observation, handy for kernel and GP unit tests."""
    return one_row((Modality.FORCE, value))


def two_part_obs(force, thermal):
    return one_row((Modality.FORCE, force), (Modality.THERMAL, thermal))


def as_blocks(groups: Mapping) -> dict:
    """Observation groups (object -> list of observations, or action -> such
    a mapping) with each list stacked into one ObservationBlock, the form
    the loop state, the prior knowledge and the test set hold."""
    return {
        key: as_blocks(value) if isinstance(value, Mapping) else ObservationBlock.of(value)
        for key, value in groups.items()
    }


def record_searches(monkeypatch, module):
    """Replace ``module.optimize_kernel_for_sets`` with a pass-through that
    records each call's effective settings (defaults applied): restarts,
    max_sweeps, fit_weights, fit_rho, the start rho when rho is searched, and
    the start kernel's weights."""
    real = module.optimize_kernel_for_sets
    signature = inspect.signature(real)
    calls = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        calls.append(
            (
                a["restarts"],
                a["max_sweeps"],
                a["fit_weights"],
                a["fit_rho"],
                a["sets"][0].rho if a["fit_rho"] else None,
                tuple(a["kernel_start"].weights),
            )
        )
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "optimize_kernel_for_sets", spy)
    return calls
