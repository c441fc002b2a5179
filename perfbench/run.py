"""tactilab benchmark: the real CLI on generated inputs, one fresh process per
measured run.

    python3 perfbench/run.py --workload a1_serial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

Run from anywhere; the checkout is the parent of this directory and tactilab
is imported from its ``src/``. Each invocation

1. writes a config drawn from ``--seed`` and the packaged related-priors
   catalog into ``.perfbench_work/``; the program sees only those files;
2. with ``--trace 0``, starts ``tactilab run`` in a fresh process again and
   again until ``--seconds`` have passed (at least three times) and reports
   the median of each metric over the processes;
3. with ``--trace 1``, runs the same config once untraced and once with the
   layer tracer (tracer.py) and reports per-layer metrics, including the
   tracing overhead (traced ``run_s`` minus untraced ``run_s``);
4. checks the outputs (see ``check_outputs``), prints a table of every metric
   with unit, median and sample count, the environment, and, as its last
   line, one JSON object: ``correct``, ``attempted`` and ``failed`` (trials)
   and ``metrics``.

It sets no BLAS or OpenMP thread variable; the ones it finds are recorded.
Exit code 0 means the result line was printed; any failure to run the
program exits 1 (2 when ``src/tactilab`` is missing) without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SEARCH_SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CATALOGS = SRC / "tactilab" / "data" / "catalogs"
BASELINE = BENCH / "baseline.json"

TIME_LIMIT_S = 170.0  # one invocation, all processes included
MIN_RUNS = 3  # full runs per invocation, however long they take
DEFAULT_SEED = 1

STATIC_ACTIONS = ("C1",)

# The A1 transfer-gain experiment, with a budget of 10 instead of 40. Each
# measured process runs two trial seeds in both modes (so ``--jobs 2`` keeps
# both workers busy). With budget 40, one such process took 26-50 s under
# --jobs 2 (the two workers' BLAS threads compete for the cores) and filled a
# whole run; budget 10 leaves time for the median of several processes.
A1 = {
    "schema_version": 1,
    "catalog": "catalog.json",
    "prior_objects": [1, 2, 3],
    "new_objects": [11, 12, 13, 14, 15],
    "actions": ["P2", "S4", "C1"],
    "budget": 10,
    "epsilon_explore": 0.3,
    "epsilon_neg1": 0.6,
    "epsilon_neg2": 0.6,
    "selection_method": "model_prediction",
    "mode": "transfer",
    "test_samples_press_slide": 20,
    "test_samples_static": 10,
    "prior_samples_per_object": 15,
    "early_stop": False,
}
A1_SEEDS = 2

# name -> --jobs; both run the A1 inputs above
WORKLOADS = {"a1_serial": 1, "a1_jobs2": 2}

# Reported with --trace 0 (the units must match BENCHMARK.json).
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "trial_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end table, not part of the result line: failures
# go to ``failed``, and accuracy depends on the seed, not on speed.
GUARDS = {
    "trials_failed_frac": "frac",
    "acc_final": "frac",
    "acc_gain_one_shot": "frac",
    "acc_gain_final": "frac",
}

_SPAN_METRICS = {
    # span name -> reported fields
    "gp.gpc_fit": ("calls", "s"),
    "kernels.training_gram": ("calls", "s"),
    "gp.gpc_predict_batch": ("calls", "s"),
    "kernels.prediction_cross": ("calls", "s"),
    "active.uncertainty_table": ("calls", "s"),
    "harness.evaluate": ("calls", "s"),
    "signals.simulate": ("calls", "s"),
    "features.build_observation": ("calls", "s"),
    "features.fit_thermal_projector": ("s",),
    "transfer.fit_prior_knowledge": ("s",),
    "harness.build_prior": ("s",),
    "harness.build_test_set": ("s",),
    "transfer.build_action_models": ("calls", "s"),
    "transfer.select_prior_by_prediction": ("calls", "s"),
    "active.update_knowledge": ("calls", "s"),
    "active.acquire": ("calls", "s"),
    "harness.run_trial": ("calls", "s"),
    "harness.write_report": ("s",),
}
# Reported with --trace 1 (the units must match BENCHMARK.json).
PER_LAYER = {
    **{
        f"{span}.{field}": ("count" if field == "calls" else "s")
        for span, fields in _SPAN_METRICS.items()
        for field in fields
    },
    "gp.gpc_fit.newton_iters": "count",
    "gp.gpc_fit.failed": "count",
    "gp.gpc_fit.n_mean": "points",
    "gp.search.calls": "count",
    "gp.search.s": "s",
    "gp.search.fits_per_call": "fits/call",
    "kernels.training_gram.entries": "count",
    "gp.gpc_predict_batch.queries": "count",
    "kernels.prediction_cross.entries": "count",
    "transfer.selected_ratio": "ratio",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
    "harness.acc_final": "frac",
    "harness.acc_gain_one_shot": "frac",
    "harness.acc_gain_final": "frac",
}


class BenchError(Exception):
    """The program could not be run or measured; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_inputs(seed: int, dest: Path) -> dict:
    """Write ``config.json`` (trial seeds drawn from ``seed``) and the
    packaged related-priors ``catalog.json`` into ``dest``; the same seed
    gives the same files. Returns the config."""
    rng = random.Random(f"a1:{seed}")
    config = dict(A1, seeds=rng.sample(range(1, 1_000_000), A1_SEEDS))
    config["trials"] = len(config["seeds"])
    dest.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(CATALOGS / "related_priors.json", dest / "catalog.json")
    (dest / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return config


def expected_test_samples(config: dict) -> int:
    objects = len(config["prior_objects"]) + len(config["new_objects"])
    per_object = sum(
        config.get("test_samples_static", 10)
        if a in STATIC_ACTIONS
        else config.get("test_samples_press_slide", 20)
        for a in config["actions"]
    )
    return objects * per_object


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait (bounded)
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(cli_args: list[str], out: Path, deadline: float, trace: bool = False) -> dict:
    """Run tactilab once in a fresh process (new session, so pool workers
    can be stopped with it) and return child.py's result record."""
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "child.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), "--result", str(result_path)]
    if trace:
        cmd += ["--trace-dir", str(out / "trace")]
    cmd += ["--", *cli_args]
    with open(out / "child.log", "w") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            _stop_group(proc.pid)
            proc.wait()
    if rc is None:
        raise BenchError(f"time limit reached while running: tactilab {' '.join(cli_args)}")
    if rc != 0 or not result_path.exists():
        tail = (out / "child.log").read_text()[-2000:]
        raise BenchError(f"tactilab {' '.join(cli_args)} crashed (exit {rc}):\n{tail}")
    record = json.loads(result_path.read_text())
    if record["rc"] not in (0, 3):  # 3: some trials failed, reported in the output
        tail = (out / "child.log").read_text()[-2000:]
        raise BenchError(f"tactilab {' '.join(cli_args)} exited {record['rc']}:\n{tail}")
    return record


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """sha256 over the relative paths and bytes of the files under
    ``src/tactilab`` (compiled files left out)."""
    h = hashlib.sha256()
    package = SRC / "tactilab"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix != ".pyc":
            h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(config: dict, out: Path, record: dict, problems: list[str]) -> dict:
    """Check one process's report files and test-set size; returns trials
    attempted and failed, the ``curves.csv`` digest and the headline
    accuracies."""
    expected = expected_test_samples(config)
    if record["test_samples"] != expected:
        problems.append(
            f"{out.name}: test set has {record['test_samples']} samples, expected {expected}"
        )
    result = json.loads((out / "result.json").read_text())
    per_seed = len(result["modes"])  # a trial is one seed in one mode
    for failure in result["failures"]:
        problems.append(f"{out.name}: trial failure: {failure}")
    for mode in result["modes"]:
        for seed in config["seeds"]:
            curve = result["curves"][mode].get(str(seed))
            if curve is None:
                problems.append(f"{out.name}: no curve for {mode} seed {seed}")
            elif len(curve) != config["budget"] or not all(0.0 <= v <= 1.0 for v in curve):
                problems.append(f"{out.name}: bad curve for {mode} seed {seed}: {curve}")
    main, base = result["mean_curves"]["transfer"], result["mean_curves"]["no_transfer"]
    return {
        "attempted": len(config["seeds"]) * per_seed,
        "failed": len(result["failures"]) * per_seed,
        "digest": _sha256(out / "curves.csv"),
        "accuracy": {
            "acc_final": main[-1],
            "acc_gain_one_shot": main[0] - base[0],
            "acc_gain_final": main[-1] - base[-1],
        },
    }


def check_digest(workload: str, seed: int, digest: str, problems: list[str]) -> str:
    """The default seed's ``curves.csv`` must match the recorded digest. Runs
    of the same sources on the same seed must write the same ``curves.csv``
    whichever workload ran them: each workload's digest is kept in
    ``.perfbench_work/digests.json`` under (source digest, seed), and the
    workload that runs second in a checkout is compared with the first.
    Returns a line saying what the second comparison covered."""
    recorded = json.loads(BASELINE.read_text())["digests"]["a1"]
    if seed == DEFAULT_SEED and digest != recorded:
        problems.append(f"seed {seed}: curves.csv digest {digest} != recorded {recorded}")
    seen_path = WORK / "digests.json"
    seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
    earlier = seen.setdefault(f"{source_digest()}:{seed}", {})
    for other, other_digest in sorted(earlier.items()):
        if other_digest != digest:
            problems.append(f"seed {seed}: curves.csv differs from {other}'s on the same sources")
    others = sorted(set(earlier) - {workload})
    earlier[workload] = digest
    tmp = seen_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, seen_path)
    if not others:
        missing = ", ".join(sorted(set(WORKLOADS) - {workload}))
        return f"curves.csv not compared with {missing}: no run of these sources on seed {seed}"
    return f"curves.csv compared with {', '.join(others)} on seed {seed}"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def process_metrics(record: dict, trials: int) -> dict:
    return {
        "run_s": record["run_s"],
        "setup_s": record["setup_s"],
        # trial phase: end of set-up to the last report written
        "trial_s": (record["run_s"] - record["setup_s"]) / trials,
        "cpu_s": record["cpu_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def layer_metrics(traced: dict, untraced: dict, jobs: int, accuracy: dict) -> dict:
    trace = traced["trace"]
    stats, counters = trace["stats"], trace["counters"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span, fields in _SPAN_METRICS.items():
        for field in fields:
            out[f"{span}.{field}"] = stat(span, "calls" if field == "calls" else "self_s")
    fits = stat("gp.gpc_fit", "calls")
    searches = sum(stat(s, "calls") for s in SEARCH_SPANS)
    trial_wall = traced["run_s"] - traced["setup_s"] - stat("harness.write_report", "total_s")
    out.update(
        {
            "gp.gpc_fit.newton_iters": counters.get("gpc_fit.newton_iters", 0),
            "gp.gpc_fit.failed": stat("gp.gpc_fit", "failed"),
            "gp.gpc_fit.n_mean": ratio(counters.get("gpc_fit.n_sum", 0), fits),
            "gp.search.calls": searches,
            "gp.search.s": sum(stat(s, "self_s") for s in SEARCH_SPANS),
            "gp.search.fits_per_call": ratio(counters.get("search.fits", 0), searches),
            "kernels.training_gram.entries": counters.get("training_gram.entries", 0),
            "gp.gpc_predict_batch.queries": counters.get("gpc_predict_batch.queries", 0),
            "kernels.prediction_cross.entries": counters.get("prediction_cross.entries", 0),
            "transfer.selected_ratio": ratio(
                counters.get("selection.selected", 0), counters.get("selection.decisions", 0)
            ),
            "harness.parallel_efficiency": ratio(
                stat("harness.run_trial", "total_s"), jobs * trial_wall
            ),
            "trace.overhead_s": traced["run_s"] - untraced["run_s"],
            **{f"harness.{k}": accuracy.get(k, 0.0) for k in GUARDS if k.startswith("acc_")},
        }
    )
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = WORKLOADS[workload]
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    run_dir = WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    config = make_inputs(seed, run_dir / "inputs")
    config_path = str(run_dir / "inputs" / "config.json")
    problems: list[str] = []

    def measure(name: str, traced: bool = False) -> tuple[dict, dict]:
        out = run_dir / name
        args = ["run", config_path, "--out", str(out), "--jobs", str(jobs)]
        record = run_child(args, out, deadline, trace=traced)
        return record, check_outputs(config, out, record, problems)

    if trace:
        runs = [measure("untraced"), measure("traced", traced=True)]
    else:
        # Full runs until --seconds have passed, at least MIN_RUNS.
        runs = []
        while True:
            t0 = time.monotonic()
            runs.append(measure(f"run{len(runs)}"))
            now = time.monotonic()
            if now + (now - t0) > deadline or (len(runs) >= MIN_RUNS and now - start >= seconds):
                break

    if len({check["digest"] for _, check in runs}) > 1:
        problems.append("fresh processes (traced or not) on one input wrote different curves")
    compared = check_digest(workload, seed, runs[0][1]["digest"], problems)

    attempted = sum(check["attempted"] for _, check in runs)
    failed = sum(check["failed"] for _, check in runs)
    trials_per_run = runs[0][1]["attempted"]
    accuracy = runs[0][1]["accuracy"]
    if trace:
        untraced, traced = runs[0][0], runs[1][0]
        metrics = layer_metrics(traced, untraced, jobs, accuracy)
        units = PER_LAYER
        samples = {k: [v] for k, v in metrics.items()}
        if traced["trace"]["missing"]:
            print(f"not traced (not found): {', '.join(traced['trace']['missing'])}")
    else:
        per_process = [process_metrics(rec, trials_per_run) for rec, _ in runs]
        samples = {k: [m[k] for m in per_process] for k in END_TO_END}
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END

    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": config,
        "env": runs[0][0]["env"],
        "samples": samples,
        "guards": {"trials_failed_frac": failed / attempted, **accuracy},
        "runs": len(runs),
        "compared": compared,
        "problems": problems,
        "trace_stats": runs[-1][0].get("trace"),
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}")
    print(f"{'metric':40s} {'unit':>9s} {'median':>14s} {'n':>3s}")
    units = PER_LAYER if report["trace"] else END_TO_END
    for name, values in report["samples"].items():
        print(f"{name:40s} {units[name]:>9s} {statistics.median(values):14.6g} {len(values):3d}")
    for name, unit in GUARDS.items():  # equal in every run (same output)
        print(f"{name:40s} {unit:>9s} {report['guards'][name]:14.6g} {report['runs']:3d}")
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    print(report["compared"])
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tactilab" / "__init__.py").is_file():
        print(f"no tactilab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(report)
            results[name] = report["result"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
