import inspect

import numpy as np
import pytest

import tactilab
from tactilab.features import FeatureObservation, Modality
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


def force_obs(value, object_id=None, action_id="test"):
    """1-D force-only observation, handy for kernel and GP unit tests."""
    return FeatureObservation(
        action_id, ((Modality.FORCE, np.atleast_1d(np.asarray(value, dtype=float))),), object_id
    )


def two_part_obs(force, thermal, object_id=None, action_id="test"):
    return FeatureObservation(
        action_id,
        (
            (Modality.FORCE, np.atleast_1d(np.asarray(force, dtype=float))),
            (Modality.THERMAL, np.asarray(thermal, dtype=float)),
        ),
        object_id,
    )


def record_searches(monkeypatch, module):
    """Replace ``module.optimize_kernel_for_sets`` with a pass-through that
    records each call's effective settings (defaults applied): max_sweeps,
    fit_weights, fit_rho, the start rho when rho is searched, and the start
    kernel's weights."""
    real = module.optimize_kernel_for_sets
    signature = inspect.signature(real)
    calls = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        calls.append(
            (
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
