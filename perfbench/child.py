"""One measured tactilab process.

    python3 perfbench/child.py --src SRC --result FILE [--trace-dir DIR] -- <tactilab args>

Imports tactilab from SRC, runs ``tactilab.cli.main(<tactilab args>)`` once
and writes FILE (JSON): exit code, wall time of ``main`` (``run_s``), the end
of set-up (``setup_s``: from the start of ``main`` to the return of the last
``build_test_set``), the test-set size, user + sys CPU time of
this process and its waited-for children (pool workers included) and peak
RSS, plus the numpy / BLAS / thread environment.

Without ``--trace-dir`` nothing but the once-per-run ``build_test_set`` call
is timestamped. With it, the layer functions are
traced (see tracer.py); ``--jobs`` pool workers dump their spans into the
directory and the merged trace goes into FILE.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, install, merge, rebind


def _cpu_and_rss() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


def _timestamp(package: str, module, name: str, marks: list) -> None:
    """Record (end, result) of every call to ``module.name``."""
    original = getattr(module, name)

    @functools.wraps(original)
    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.append((time.perf_counter(), result))
        return result

    rebind(package, original, stamped)


def _trace_workers(harness, tracer: Tracer, trace_dir: Path) -> None:
    """Make ``--jobs`` workers (forked from this process) start from an empty
    trace and dump it after each task they run."""
    original = harness._run_seed_worker

    @functools.wraps(original)
    def worker(args):
        if tracer.pid != os.getpid():
            tracer.reset()
        try:
            return original(args)
        finally:
            tracer.dump(trace_dir / f"worker-{os.getpid()}.json")

    harness._run_seed_worker = worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import tactilab

    if src not in Path(tactilab.__file__).resolve().parents:
        print(f"tactilab imported from {tactilab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from tactilab import cli, harness

    tracer = None
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer()
        missing = install(tracer, "tactilab")
        _trace_workers(harness, tracer, trace_dir)
    test_marks: list = []
    _timestamp("tactilab", harness, "build_test_set", test_marks)

    cpu0, _ = _cpu_and_rss()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    t1 = time.perf_counter()
    cpu1, peak_rss_mb = _cpu_and_rss()

    result = {
        "rc": rc,
        "run_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if test_marks:
        end, test = test_marks[-1]
        result["setup_s"] = end - t0
        result["test_samples"] = test.size()
    if tracer is not None:
        workers = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("worker-*.json"))]
        result["trace"] = merge([tracer.snapshot()] + workers)
        result["trace"]["missing"] = missing
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
