"""Namespaced seed derivation so training, test, prior-pool, calibration and
exploration randomness come from provably disjoint streams."""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  (numpy would load it lazily, on a run's first draw)

INIT_NS = 101  # initial data collection
TRAIN_NS = 211  # acquisitions inside the active loop
EXPLORE_NS = 307  # exploration randomness (p_rand and uniform draws)
PRIOR_NS = 401  # prior-object pool
TEST_NS = 503  # held-out test set
CALIB_NS = 607  # projector calibration when no prior pool exists
OPT_NS = 709  # hyperparameter-search restarts
ABLATION_NS = 811  # training pools of the multi-kernel ablation


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from a tuple of integers."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def derive_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(p) for p in parts)))
