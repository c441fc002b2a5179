"""Experiment runner: set-up, in-process or in a pool; then each seed's
trials (both modes of a transfer comparison, or the multi-kernel ablation's
variants), in-process or in the ``--jobs`` pool, gathered into the run's
result. The ablation's trials come last."""

from __future__ import annotations

import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Mapping, Optional

import numpy as np

from .active import STOP_WINDOW, initialize_state, run_loop
from .assets import (
    TestSet,
    _action_index,
    _make_simulator,
    accuracy,
    build_prior,
    build_test_set,
    check_catalog_objects,
    held_out_jobs,
    make_evaluator,
    new_object_slice,
    projector_pool_jobs,
    set_up_features,
)
from .blas import SingleThreadedBlas
from .config import ExperimentConfig, Mode, _at_least, config_hash
from .errors import TactilabError
from .features import ThermalProjector, build_observation
from .gp import optimize_kernel_for_sets, ova_from_modes, ova_sets
from .kernels import ObservationBlock, median_heuristic
from .results import RunResult, TrialResult
from .seeding import ABLATION_NS, OPT_NS, derive_rng, derive_seed
from .signals import Catalog, load_catalog
from .transfer import INIT_RESTARTS, PriorKnowledge, build_new_observation_models


def _pool_context():
    """The multiprocessing context of both pools: fork on Linux, where a
    worker starts without re-importing tactilab, else the platform default.
    Workers are handed everything they need, so any context gives the same
    result."""
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Set-up job batches per pool task. One batch per task (a P2 batch of the
#: default skin is two traces, well under a millisecond of work) spends more
#: on the pool's messaging than four do (2-vCPU x86 VM).
SETUP_CHUNKSIZE = 4


@contextmanager
def _setup_map(workers: int):
    """``map`` for the set-up's job batches: the builtin one, or with
    ``workers`` > 1 that of a process pool, which works ahead of its reader
    and yields in batch order. The pool is gone on exit; when set-up fails,
    its queued tasks are cancelled rather than run."""
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(), initializer=SingleThreadedBlas
    ) as pool:
        try:
            yield partial(pool.map, chunksize=SETUP_CHUNKSIZE)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def build_assets(config: ExperimentConfig, workers: int = 1) -> tuple:
    """(catalog, prior, projectors, test set): what every trial of the
    config shares.

    Set-up maps one ordered stream of trace jobs, the projector pool's and
    then the test set's, in batches (``job_batches``): each batch simulated
    as one stack and reduced to its traces' raw features at once. With
    ``workers`` > 1 a pool simulates the test set while this process fits
    the projectors and the prior knowledge; the prior fit stays here, in
    order, because its searches share one rng stream. The same bits come out
    either way."""
    catalog = load_catalog(config.catalog_path())
    check_catalog_objects(config, catalog)
    pool_jobs, test_jobs = projector_pool_jobs(config), held_out_jobs(config)
    with _setup_map(workers) as mapper:
        features = set_up_features(catalog, pool_jobs + test_jobs, mapper)
        prior, projectors = build_prior(config, pool_jobs, features)
        test = build_test_set(config, projectors, test_jobs, features)
    return catalog, prior, projectors, test


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
        prior_arg, state.observations, config.thresholds, config.selection_method, rng=opt_rng
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
        opt_rng=opt_rng,
    )
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
    return TrialResult(loop.curve, decisions, gamma_trace, records)


def _modes_for(config: ExperimentConfig, test: TestSet) -> list[str]:
    if config.mode is Mode.MULTI_KERNEL_ABLATION:
        return list(_ablation_variants(new_object_slice(config, test, config.actions[0])[0]))
    if config.mode is Mode.NO_TRANSFER:
        return [Mode.NO_TRANSFER.value]
    return [Mode.TRANSFER.value, Mode.NO_TRANSFER.value]


def _run_seed(
    config: ExperimentConfig, assets: tuple, seed: int
) -> tuple[Optional[dict[str, TrialResult]], Optional[str]]:
    """Every trial of one seed over the ``build_assets`` tuple: both modes of
    a transfer comparison, or the ablation's variants. Returns (mode ->
    TrialResult, None), or (None, the failure line) when any of them fails.
    A numpy/scipy failure (LinAlgError, the ValueError of a non-finite
    feature or matrix) is this seed's failure like a TactilabError."""
    catalog, prior, projectors, test = assets
    mode = None
    try:
        if config.mode is Mode.MULTI_KERNEL_ABLATION:
            return run_ablation_seed(config, catalog, projectors, test, seed), None
        evaluate = make_evaluator(config, test)
        trials = {}
        for mode in _modes_for(config, test):
            use_prior = mode == Mode.TRANSFER.value and prior is not None
            trials[mode] = run_trial(
                config, catalog, prior, projectors, evaluate, seed, use_prior
            )
        return trials, None
    except (ValueError, ArithmeticError, TactilabError) as exc:  # LinAlgError is a ValueError
        named = f"{mode}: " if mode else ""
        return None, f"seed {seed}: {named}{type(exc).__name__}: {exc}"


#: (config, assets) of the run, in a trial pool worker only.
_worker_run: Optional[tuple] = None


def _start_trial_worker(config: ExperimentConfig, assets: tuple) -> None:
    """Trial pool initializer: one BLAS thread, and the run's config and
    assets for every seed the worker runs. Inherited under fork, pickled
    once per worker otherwise."""
    global _worker_run
    SingleThreadedBlas()
    _worker_run = (config, assets)


def _run_seed_worker(seed: int):
    """``_run_seed`` in a trial pool worker."""
    config, assets = _worker_run
    return _run_seed(config, assets, seed)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run every trial of the configured experiment and aggregate.

    With ``jobs`` > 1 the set-up's simulations, then the seeds, run in a
    process pool of at most one worker per seed. BLAS runs single-threaded
    in every process that runs trials, this one until the call returns."""
    jobs = _at_least(1)("jobs", jobs)
    start = time.perf_counter()
    with SingleThreadedBlas():
        # Build the shared assets (and fail fast) before any trial; the
        # set-up pool is gone before the trial pool starts.
        workers = min(jobs, len(config.seeds))
        assets = build_assets(config, workers)
        modes = _modes_for(config, assets[3])
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_start_trial_worker,
                initargs=(config, assets),
            ) as pool:
                outcomes = list(pool.map(_run_seed_worker, config.seeds))
        else:
            outcomes = [_run_seed(config, assets, seed) for seed in config.seeds]

        trials: dict[str, dict[int, TrialResult]] = {mode: {} for mode in modes}
        failures = []
        for seed, (per_mode, error) in zip(config.seeds, outcomes):
            if error is not None:
                failures.append(error)
                continue
            for mode, trial in per_mode.items():
                trials[mode][seed] = trial
        return RunResult(
            config=config.to_dict(),
            config_hash=config_hash(config),
            modes=modes,
            trials=trials,
            failures=failures,
            wall_clock_s=time.perf_counter() - start,
        )


def _ablation_variants(test_obs: ObservationBlock) -> dict[str, Optional[np.ndarray]]:
    """The ablation's kernels: ``combined`` searches its modality weights,
    each ``<modality>_only`` keeps a one-hot weight vector."""
    modalities = test_obs.modalities
    variants: dict[str, Optional[np.ndarray]] = {"combined": None}
    for idx, mod in enumerate(modalities):
        one_hot = np.zeros(len(modalities))
        one_hot[idx] = 1.0
        variants[f"{mod.value}_only"] = one_hot
    return variants


def run_ablation_seed(
    config: ExperimentConfig,
    catalog: Catalog,
    projectors: Mapping[str, ThermalProjector],
    test: TestSet,
    seed: int,
) -> dict[str, TrialResult]:
    """One seed of the multi-kernel ablation: test accuracy of the weighted
    combined kernel and of each single modality over growing training-set
    sizes, as variant -> TrialResult."""
    action_id = config.actions[0]
    a_idx = _action_index(action_id)
    simulator = _make_simulator(catalog)
    new_ids = list(config.new_objects)
    sizes = list(config.ablation_sizes)
    max_per_class = -(-max(sizes) // len(new_ids))
    test_obs, test_labels = new_object_slice(config, test, action_id)
    variants = _ablation_variants(test_obs)

    # (label, observation) with the classes in turn: the first ``size`` are
    # the training set of that size.
    samples = [
        (
            obj,
            build_observation(
                simulator(obj, action_id, derive_seed(seed, ABLATION_NS, a_idx, obj, k)),
                action_id,
                projectors[action_id],
                obj,
            ),
        )
        for k in range(max_per_class)
        for obj in new_ids
    ]
    opt_rng = derive_rng(seed, ABLATION_NS, OPT_NS)
    curves: dict[str, list[float]] = {v: [] for v in variants}
    gamma_trace = []
    for size in sizes:
        train = ObservationBlock.of([o for _, o in samples[:size]])
        labels = [obj for obj, _ in samples[:size]]
        sets = ova_sets(train, labels)
        start_kernel = median_heuristic(train, train.modalities)
        for variant, one_hot in variants.items():
            found = optimize_kernel_for_sets(
                list(sets.values()),
                start_kernel if one_hot is None else start_kernel.with_weights(one_hot),
                restarts=INIT_RESTARTS,
                rng=opt_rng,
                fit_weights=one_hot is None,
            )
            model = ova_from_modes(sets, found.kernel, found.modes)
            curves[variant].append(accuracy(model, test_obs, test_labels))
            if one_hot is None:
                gamma_trace.append(
                    {
                        "iteration": size,
                        "action": action_id,
                        "gamma": [float(g) for g in found.kernel.weights],
                    }
                )
    return {
        variant: TrialResult(
            curve=curves[variant],
            decisions=[],
            gamma_trace=gamma_trace if one_hot is None else [],
            records=[
                {"iteration": size, "accuracy": acc}
                for size, acc in zip(sizes, curves[variant])
            ],
        )
        for variant, one_hot in variants.items()
    }
