"""Span tracer that wraps tactilab's layer functions from outside the package.

A span is one call of a traced function. Spans nest through a stack: the span
open when a traced call starts is its parent. On close, a span adds its
duration to its name's total, its duration minus the time its child spans
cover to its name's self time, and its duration to the parent's child time.
Spans are aggregated as they close (calls, total, self, failures and
parent -> child edge counts), so memory stays flat however many calls a run
makes.

Which functions are traced is the ``TRACED`` table: the public functions at
each layer's boundary. Helpers that a traced function calls inside its own
module (``extract_texture``, ``gram``, ``cross_gram``, ...) are not spans of
their own; their time counts in the caller's self time. Each traced function
is re-bound at every module attribute that holds it, so a call through
``transfer.gpc_fit`` and one through ``gp.gpc_fit`` land in the same span
name.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

TRACED = {
    "signals": ("simulate", "load_catalog"),
    "features": ("build_observation", "fit_thermal_projector"),
    "kernels": ("training_gram", "prediction_cross", "median_heuristic"),
    "gp": (
        "gpc_fit",
        "gpc_predict_batch",
        "ova_fit",
        "ova_predict_proba",
        "optimize_hyperparams",
        "optimize_kernel_for_sets",
    ),
    "transfer": (
        "fit_prior_knowledge",
        "select_prior_by_prediction",
        "select_prior_by_optimization",
        "fit_dependent_gpc",
        "build_action_models",
        "build_new_observation_models",
    ),
    "active": ("initialize_state", "uncertainty_table", "acquire", "update_knowledge", "run_loop"),
    "harness": (
        "load_config",
        "build_prior",
        "fit_projectors_from_pool",
        "build_test_set",
        "make_evaluator",
        "run_trial",
        "run_experiment",
        "write_report",
    ),
}

# Both hyperparameter-search front ends; ``gp.search`` metrics sum them.
SEARCH_SPANS = ("gp.optimize_hyperparams", "gp.optimize_kernel_for_sets")


class Tracer:
    """Aggregating span recorder. ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, failed]
        self.stack: list[list] = []  # open spans: [name, start, child_s]
        self.depth: Counter = Counter()  # open spans per name
        self.edges: Counter = Counter()  # (parent name or None, child name) -> calls
        self.counters: Counter = Counter()

    def begin(self, name: str) -> None:
        self.depth[name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def end(self, ok: bool = True) -> None:
        name, start, child_s = self.stack.pop()
        duration = self.clock() - start
        self.depth[name] -= 1
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if not ok:
            entry[3] += 1
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        self.edges[(parent, name)] += 1

    def in_search(self) -> bool:
        return any(self.depth[name] for name in SEARCH_SPANS)

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` timed as span ``name``. ``observe(tracer, args,
        kwargs, result)`` updates counters after each call (``result`` is
        None when the call raised)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.end(ok)
                if observe is not None:
                    observe(tracer, args, kwargs, result)

        return traced

    def snapshot(self) -> dict:
        return {
            "stats": {
                name: {"calls": c, "total_s": t, "self_s": s, "failed": f}
                for name, (c, t, s, f) in sorted(self.stats.items())
            },
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items(), key=str)],
            "counters": dict(self.counters),
        }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def merge(snapshots) -> dict:
    """Sum snapshots taken in several processes (parent plus pool workers)."""
    stats: dict[str, dict] = {}
    edges: Counter = Counter()
    counters: Counter = Counter()
    for snap in snapshots:
        for name, entry in snap["stats"].items():
            into = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
            for key, value in entry.items():
                into[key] += value
        for parent, child, n in snap["edges"]:
            edges[(parent, child)] += n
        counters.update(snap["counters"])
    return {
        "stats": dict(sorted(stats.items())),
        "edges": [[p, c, n] for (p, c), n in sorted(edges.items(), key=str)],
        "counters": dict(counters),
    }


# ---------------------------------------------------------------------------
# Counters recorded at the span boundaries
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_gpc_fit(tracer, args, kwargs, result):
    c = tracer.counters
    c["gpc_fit.n_sum"] += len(_arg(args, kwargs, 1, "X_train"))
    if result is not None:
        c["gpc_fit.newton_iters"] += result.iterations
    if tracer.in_search():
        c["search.fits"] += 1


def _observe_training_gram(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "X"))
    tracer.counters["training_gram.entries"] += n * n


def _observe_prediction_cross(tracer, args, kwargs, result):
    n_train = len(_arg(args, kwargs, 1, "X_train"))
    n_star = len(_arg(args, kwargs, 2, "X_star"))
    tracer.counters["prediction_cross.entries"] += n_train * n_star


def _observe_predict_batch(tracer, args, kwargs, result):
    tracer.counters["gpc_predict_batch.queries"] += len(_arg(args, kwargs, 1, "X_star"))


def _observe_selection(tracer, args, kwargs, result):
    tracer.counters["selection.decisions"] += 1
    if result is not None and result.selected_old_id is not None:
        tracer.counters["selection.selected"] += 1


OBSERVERS = {
    "gp.gpc_fit": _observe_gpc_fit,
    "kernels.training_gram": _observe_training_gram,
    "kernels.prediction_cross": _observe_prediction_cross,
    "gp.gpc_predict_batch": _observe_predict_batch,
    "transfer.select_prior_by_prediction": _observe_selection,
    "transfer.select_prior_by_optimization": _observe_selection,
}

# Functions whose return value is itself a function to trace.
RESULT_SPANS = {"harness.make_evaluator": "harness.evaluate"}


def rebind(package: str, original, replacement) -> None:
    """Point every attribute of the package's modules that holds
    ``original`` at ``replacement``."""
    prefix = package + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, package: str, traced=TRACED) -> list[str]:
    """Wrap every function in ``traced`` at all of its bindings in the
    (already imported) package. Returns the names that were not found."""
    missing = []
    for layer, names in traced.items():
        module = sys.modules[f"{package}.{layer}"]
        for fname in names:
            original = getattr(module, fname, None)
            if not inspect.isfunction(original):
                missing.append(f"{layer}.{fname}")
                continue
            span = f"{layer}.{fname}"
            fn = original
            if span in RESULT_SPANS:
                fn = _trace_result(tracer, original, RESULT_SPANS[span])
            rebind(package, original, tracer.wrap(span, fn, OBSERVERS.get(span)))
    return missing


def _trace_result(tracer: Tracer, factory, span: str):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        return tracer.wrap(span, factory(*args, **kwargs))

    return make
