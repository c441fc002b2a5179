"""Experiment runner: set-up, in-process or in a pool; then each seed's
trials (both modes of a transfer comparison, or the multi-kernel ablation's
variants), in-process or in the ``--jobs`` pool, gathered into the run's
result. The ablation's trials come last."""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import partial
from typing import Mapping, Optional

import numpy as np

from .active import STOP_WINDOW, initialize_state, run_loop
from .assets import (
    TestSet,
    _action_index,
    accuracy,
    batch_block,
    build_test_set,
    check_catalog_objects,
    held_out_jobs,
    make_evaluator,
    new_object_slice,
    observe,
    prior_search_rngs,
    set_up_action,
    set_up_features,
)
from .blas import SingleThreadedBlas
from .config import ExperimentConfig, Mode, config_hash
from .errors import ConfigError, SchemaError, TactilabError
from .features import SEGMENTATION, ThermalProjector
from .gp import optimize_kernel_for_sets, ova_from_modes, ova_sets
from .kernels import ObservationBlock, median_heuristic
from .results import RunResult, TrialResult
from .schema import at_least
from .seeding import ABLATION_NS, OPT_NS, derive_rng, derive_seed
from .signals import STANDARD_ACTIONS, Catalog, load_catalog
from .transfer import INIT_RESTARTS, PriorKnowledge


def _pool_context():
    """The multiprocessing context of both pools: fork on Linux, where a
    worker starts without re-importing tactilab, else the platform default.
    Workers are handed everything they need, so any context gives the same
    result."""
    import multiprocessing  # with the first pool: a serial run never loads it

    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Held-out job batches per set-up pool task. One batch per task (a P2
#: batch of the default skin is two traces, well under a millisecond of
#: work) spends more on the pool's messaging than four do (2-vCPU x86 VM).
#: Each action's task (``set_up_action``) goes alone.
SETUP_CHUNKSIZE = 4


@contextmanager
def _pool(workers: int, initializer, initargs: tuple = ()):
    """A process pool of ``workers`` workers, each started by
    ``initializer(*initargs)``: the one place both pools are built, and where
    a run loads the process-pool modules. The pool is gone on exit; when its
    caller fails, its queued tasks are cancelled rather than run."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@contextmanager
def _setup_map(workers: int):
    """``map(fn, *iterables, chunksize=1)`` for set-up's tasks: the builtin
    one (without chunks), or with ``workers`` > 1 that of a process pool,
    which is handed every task of a call at once, works ahead of its reader
    and yields in task order."""
    if workers == 1:
        yield lambda fn, *iterables, chunksize=1: map(fn, *iterables)
        return
    with _pool(workers, SingleThreadedBlas) as pool:
        yield pool.map


def build_assets(config: ExperimentConfig, workers: int = 1) -> tuple:
    """(catalog, prior, projectors, test set): what every trial of the
    config shares; ``prior`` maps each action to its ``ActionPrior``, or is
    None without prior objects.

    Set-up runs one task per action (``set_up_action``: the action's
    projector pool simulated in batches, its thermal projector and, with
    prior objects, its prior knowledge fitted), then maps the held-out
    trace jobs in batches (``job_batches``), each simulated as one stack
    and reduced to its feature rows at once. With ``workers`` > 1 a pool is
    handed the action tasks first, one per task, then the held-out batches,
    ``SETUP_CHUNKSIZE`` per task; this process only gathers the actions'
    results in config order and builds the test set. Each action's search
    starts from its own copy of the prior's search stream
    (``prior_search_rngs``), so the same bits come out either way, and as
    from ``fit_action_prior`` over the actions in turn, every search
    drawing from the one stream."""
    catalog = load_catalog(config.catalog_path())
    check_catalog_objects(config, catalog)
    with _setup_map(workers) as mapper:
        # A pool is handed the action tasks, then the held-out batches,
        # before any result is read.
        fits = mapper(
            partial(set_up_action, config, catalog), config.actions, prior_search_rngs(config)
        )
        held_out = set_up_features(
            catalog, held_out_jobs(config), partial(mapper, chunksize=SETUP_CHUNKSIZE)
        )
        fits = dict(zip(config.actions, fits))
        projectors = {action_id: projector for action_id, (projector, _) in fits.items()}
        prior = None
        if config.prior_objects:
            prior = {action_id: fit for action_id, (_, fit) in fits.items()}
        test = build_test_set(projectors, held_out)
    return catalog, prior, projectors, test


def run_trial(
    config: ExperimentConfig,
    catalog: Catalog,
    prior: Optional[PriorKnowledge],
    projectors: Mapping[str, ThermalProjector],
    evaluate,
    seed: int,
) -> TrialResult:
    """One trial of the active loop: its first observations, observed
    through ``assets.observe`` bound to the run's catalog and projectors,
    then ``run_loop``, which fits the first models and refits from the
    seed's opt stream. ``prior`` is the knowledge the trial transfers from,
    None for no transfer."""
    observe_trial = partial(observe, catalog, projectors)
    state = initialize_state(
        config.new_objects,
        config.actions,
        observe_trial,
        seed_root=seed,
        eps_explore=config.epsilon_explore,
    )
    return run_loop(
        state,
        prior,
        config.budget,
        evaluate,
        observe_trial,
        thresholds=config.thresholds,
        method=config.selection_method,
        stop_window=STOP_WINDOW if config.early_stop else None,
        opt_rng=derive_rng(seed, OPT_NS),
    )


def _modes_for(config: ExperimentConfig) -> list[str]:
    if config.mode is Mode.MULTI_KERNEL_ABLATION:
        return list(_ablation_variants(config.actions[0]))
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
        for mode in _modes_for(config):
            trial_prior = prior if mode == Mode.TRANSFER.value else None
            trials[mode] = run_trial(config, catalog, trial_prior, projectors, evaluate, seed)
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

    With ``jobs`` > 1 the set-up's tasks, then the seeds, run in a
    process pool of at most one worker per seed. BLAS runs single-threaded
    in every process that runs trials, this one until the call returns."""
    try:
        jobs = at_least(1)("jobs", jobs)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc
    start = time.perf_counter()
    with SingleThreadedBlas():
        # Build the shared assets (and fail fast) before any trial; the
        # set-up pool is gone before the trial pool starts.
        workers = min(jobs, len(config.seeds))
        assets = build_assets(config, workers)
        modes = _modes_for(config)
        if workers > 1:
            with _pool(workers, _start_trial_worker, (config, assets)) as pool:
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


def _ablation_variants(action_id: str) -> dict[str, Optional[np.ndarray]]:
    """The ablation's kernels over the action's modalities, in the order of
    its observation blocks (``SEGMENTATION``): ``combined`` searches their
    weights, each ``<modality>_only`` keeps a one-hot weight vector."""
    modalities = [mod for mod, _ in SEGMENTATION[STANDARD_ACTIONS[action_id].kind]]
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
    new_ids = list(config.new_objects)
    sizes = list(config.ablation_sizes)
    max_per_class = -(-max(sizes) // len(new_ids))
    test_obs, test_labels = new_object_slice(config, test, action_id)
    variants = _ablation_variants(action_id)

    # The classes in turn: the first ``size`` samples are the training set of
    # that size.
    jobs = [
        (action_id, obj, derive_seed(seed, ABLATION_NS, a_idx, obj, k))
        for k in range(max_per_class)
        for obj in new_ids
    ]
    samples = ObservationBlock.concat(
        [batch_block(projectors, batch, rows) for batch, rows in set_up_features(catalog, jobs)]
    )
    opt_rng = derive_rng(seed, ABLATION_NS, OPT_NS)
    curves: dict[str, list[float]] = {v: [] for v in variants}
    gamma_trace = []
    for size in sizes:
        train = samples[:size]
        labels = [obj for _, obj, _ in jobs[:size]]
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
