"""What importing and running tactilab loads. Importing loads no scipy module:
the engine's scipy routines load at the first solve, its three LAPACK
routines from scipy's OpenBLAS through ``ctypes`` and ``expit`` from scipy's
ufunc extension module, loaded from its file, the very object
``scipy.special`` exports, also where a file fails to load; the LAPACK
routines give the bits of ``scipy.linalg.lapack``'s on every route that
finds them. The first solve loads no other scipy module, ``_flapack``
included, so neither scipy's ``__init__`` nor a subpackage's runs, nor the
``subprocess`` that scipy's ``__init__`` imports; scipy's OpenBLAS starts at
one thread, or as ``OPENBLAS_NUM_THREADS`` tells, numpy's at its own count,
and the variable is left as found. A command that never solves
(``validate``, ``testset``, ``report``, ``gen-groups``), and the parent of a
``--jobs 2`` run, load no scipy at all. Loaded inside a run, in this process
or in a pool worker, scipy's OpenBLAS runs one thread, and after the run
this process's reads the count it started at. Neither the import nor a
``--jobs 1`` run loads a module that only a process pool calls
(``multiprocessing``, ``concurrent.futures.process``), nor ``numpy.ma`` or
``numpy.polynomial``; a ``--jobs 2`` run loads the pool modules with its
first pool.

Each case runs in a fresh interpreter: the test modules import
``scipy.linalg`` (and the pool modules) themselves, and the loader reuses a
loaded module."""

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tactilab

#: The scipy modules that the first solve loads: the extension module of
#: ``expit``. The LAPACK routines come from scipy's OpenBLAS, with no module.
ALLOWED_SCIPY = ["scipy.special._special_ufuncs"]

#: Modules that scipy's package ``__init__`` imports and no run calls.
SCIPY_INIT_ONLY = ("subprocess", "selectors", "signal")

#: Solves a 2 x 2 system through the engine: the first solve of a process
#: loads the engine's scipy routines.
FIRST_SOLVE = "laplace._pos_solve(numpy.eye(2)[None], numpy.ones((1, 2)))"

#: Imports tactilab.laplace, solves, then imports scipy's public modules;
#: prints the scipy modules loaded by the import and after the solves,
#: whether ``expit`` is its public namesake and whether the engine's LAPACK
#: stacks gave the bits of scipy's wrappers (test_lapack.py, imported from
#: argv[3]). Routes (argv[1]): with "library hidden" scipy's bundled
#: OpenBLAS is not found; with "fallback" the extension files are not found;
#: with "load fails" the bundled OpenBLAS and each extension file are a file
#: (argv[2]) that is no shared object, as a library that does not load is.
SAME_ROUTINES = f"""
import json, sys
import numpy
from tactilab import blas

route = sys.argv[1]
if route == "library hidden":
    blas._bundled_openblas = lambda package_dir: []
elif route == "fallback":
    blas._extension_path = lambda package_dir, name: None
elif route == "load fails":
    blas._bundled_openblas = lambda package_dir: [sys.argv[2]]
    blas._extension_path = lambda package_dir, name: sys.argv[2]
from tactilab import laplace

at_import = [name for name in sys.modules if name.split(".")[0] == "scipy"]
{FIRST_SOLVE}
sys.path.insert(0, sys.argv[3])
import test_lapack

got = test_lapack.engine_results(0)
after = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import scipy.special

print(json.dumps({{
    "at import": at_import,
    "after": after,
    "same": laplace.expit is scipy.special.expit,
    "bits": got == test_lapack.wrapper_results(0),
}}))
"""

#: Imports tactilab.cli and solves; prints the scipy modules loaded by the
#: import and after the solve, which of SCIPY_INIT_ONLY (argv[1:]) were
#: loaded, OPENBLAS_NUM_THREADS afterwards, the thread count of each
#: OpenBLAS that the import and the solve loaded, and whether the file of
#: ``scipy.linalg._flapack`` is mapped.
CLI_IMPORT = f"""
import json, os, sys
import numpy
from tactilab import blas

before = {{path for path, _ in blas._loaded_openblas()}}
import tactilab.cli
from tactilab import laplace

at_import = [name for name in sys.modules if name.split(".")[0] == "scipy"]
{FIRST_SOLVE}
loaded = [lib for path, lib in blas._loaded_openblas() if path not in before]
print(json.dumps({{
    "at import": at_import,
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "init only": [name for name in sys.argv[1:] if name in sys.modules],
    "env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": [blas._blas_thread_controls(lib)[0]() for lib in loaded],
    "flapack mapped": "_flapack" in open("/proc/self/maps").read(),
}}))
"""

#: Imports numpy through argv[1] ("numpy" itself, "tactilab.cli" and a
#: solve, or a call of a blas.scipy_routines stand-in before any numpy
#: import); prints each loaded OpenBLAS's path and thread count.
NUMPY_THREADS = f"""
import json, sys
if sys.argv[1] == "tactilab.cli":
    import tactilab.cli
    import numpy
    from tactilab import laplace
    {FIRST_SOLVE}
elif sys.argv[1] == "scipy_routines":
    from tactilab import blas
    (dposv, dpotrf, dtrtrs, expit) = blas.scipy_routines(globals())
    assert "numpy" not in sys.modules
    expit(0.0)
import numpy
from tactilab import blas
print(json.dumps({{path: blas._blas_thread_controls(lib)[0]() for path, lib in blas._loaded_openblas()}}))
"""

#: Runs ``tactilab.cli.main(argv[1:])``; prints the scipy modules loaded.
COMMAND = """
import json, sys
from tactilab.cli import main

if main(sys.argv[1:]) != 0:
    sys.exit(f"{sys.argv[1]} failed")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""

#: Runs the config argv[1] with --jobs 2, then 1, into argv[2]/jobs2 and
#: argv[2]/jobs1. Each process that solves appends to argv[2]/threads-<pid>
#: the thread counts of the OpenBLAS libraries loaded after numpy's (scipy's)
#: and its OS thread count (None without /proc) whenever they differ from
#: its last line. Prints, after each run, the scipy modules loaded here and
#: the lines written here and by the workers, then the counts here after
#: both runs.
POOL_THEN_SERIAL_RUN = """
import json, os, sys
from pathlib import Path
from tactilab import blas, laplace
from tactilab.cli import main

config, out = sys.argv[1], Path(sys.argv[2])
numpy_blas = {path for path, _ in blas._loaded_openblas()}


def scipy_threads():
    loaded = blas._loaded_openblas()
    return [blas._blas_thread_controls(lib)[0]() for path, lib in loaded if path not in numpy_blas]


pos_solve, last = laplace._pos_solve, {}


def counting(a, b):
    x = pos_solve(a, b)
    tasks = "/proc/self/task"
    threads = [scipy_threads(), len(os.listdir(tasks)) if os.path.isdir(tasks) else None]
    if last.get(os.getpid()) != threads:
        last[os.getpid()] = threads
        with open(out / f"threads-{os.getpid()}", "a") as lines:
            print(json.dumps(threads), file=lines)
    return x


laplace._pos_solve = counting
got = {}
for jobs in ("2", "1"):
    if main(["run", config, "--out", str(out / f"jobs{jobs}"), "--jobs", jobs]) != 0:
        sys.exit(f"--jobs {jobs} failed")
    got[f"jobs {jobs}"] = {"here": [], "workers": []}
    for path in out.glob("threads-*"):
        side = "here" if path.name == f"threads-{os.getpid()}" else "workers"
        got[f"jobs {jobs}"][side] += [json.loads(line) for line in path.read_text().splitlines()]
        path.unlink()
    got[f"jobs {jobs}"]["scipy"] = [name for name in sys.modules if name.split(".")[0] == "scipy"]
got["after"] = scipy_threads()
print(json.dumps(got))
"""

#: The modules a serial run does not call.
UNCALLED = ("numpy.ma", "numpy.polynomial", "multiprocessing", "concurrent.futures.process")

#: Imports tactilab.cli, then runs the config argv[1] with --jobs 1, then 2,
#: into argv[2]/jobs1 and argv[2]/jobs2; prints which of UNCALLED (argv[3:])
#: were loaded after the import and after each run.
SERIAL_THEN_POOL_RUN = """
import json, sys
from tactilab.cli import main

config, out, uncalled = sys.argv[1], sys.argv[2], sys.argv[3:]
loaded = {"import": [name for name in uncalled if name in sys.modules]}
for jobs in ("1", "2"):
    if main(["run", config, "--out", f"{out}/jobs{jobs}", "--jobs", jobs]) != 0:
        sys.exit(f"--jobs {jobs} failed")
    loaded[f"jobs {jobs}"] = [name for name in uncalled if name in sys.modules]
print(json.dumps(loaded))
"""

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the OpenBLAS lookup walks the loaded objects with dl_iterate_phdr",
)


def _child(code: str, *args: str, threads=None) -> dict:
    paths = [str(Path(tactilab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    child = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _tiny_config(tmp_path) -> str:
    """A cheap run whose two seeds give --jobs 2 a pool and whose set-up
    fits a prior: the first fits start from the median heuristic, and every
    evaluation marginalizes with the Gauss-Hermite rule."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "catalog": str(tactilab.data_path("catalogs", "sample_catalog.json")),
        "prior_objects": [1],
        "prior_samples_per_object": 11,
        "new_objects": [11, 12],
        "actions": ["P2"],
        "test_samples_press_slide": 1,
        "seeds": [1, 2],
        "budget": 1,
        "mode": "transfer",
    }))
    return str(config)


@pytest.mark.parametrize("route", ["extension files", "fallback", "load fails", "library hidden"])
def test_engine_routines_give_scipys_bits_on_every_route(route, tmp_path):
    not_a_library = tmp_path / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    not_a_library.write_text("not a shared object\n")
    got = _child(SAME_ROUTINES, route, str(not_a_library), str(Path(__file__).parent))
    assert got["at import"] == []
    assert got["same"] and got["bits"]
    # With expit loaded from its file and the LAPACK routines from the
    # bundled OpenBLAS, no scipy package init runs.
    if route == "extension files":
        assert got["after"] == ALLOWED_SCIPY
    else:
        assert "scipy" in got["after"]
    # Only where the bundled OpenBLAS is not found or does not load is
    # _flapack imported, to reach scipy's LAPACK through its file.
    assert ("scipy.linalg._flapack" in got["after"]) == (route in ("load fails", "library hidden"))


@linux_only
@pytest.mark.parametrize("threads", [None, "2"])
def test_cli_import_loads_no_scipy_package_and_starts_openblas_as_told(threads):
    got = _child(CLI_IMPORT, *SCIPY_INIT_ONLY, threads=threads)
    assert got["at import"] == []
    assert got["scipy"] == ALLOWED_SCIPY
    assert got["init only"] == []
    assert got["env"] == threads
    assert not got["flapack mapped"]
    # scipy's wheel bundles its own OpenBLAS, which the first solve loads.
    assert got["threads"] == [int(threads or 1)]


@linux_only
@pytest.mark.parametrize("entry", ["tactilab.cli", "scipy_routines"])
def test_numpy_openblas_starts_at_its_own_count_whatever_imports_numpy_first(entry):
    # OPENBLAS_NUM_THREADS=1 is set while scipy's OpenBLAS loads; numpy's
    # must have loaded before it, as a plain `import numpy` loads it.
    plain = _child(NUMPY_THREADS, "numpy")
    got = _child(NUMPY_THREADS, entry)
    assert plain and {path: got.get(path) for path in plain} == plain
    assert len(got) > len(plain)  # scipy's OpenBLAS loaded too


@pytest.mark.parametrize("command", ["validate", "testset", "report", "gen-groups"])
def test_commands_that_never_solve_load_no_scipy(command, tmp_path):
    configs = tactilab.data_path("configs")
    argv = {
        "validate": ["validate", str(configs / "sample_run.json")],
        "testset": ["testset", str(configs / "sample_run.json"), "--out", str(tmp_path)],
        "report": [
            "report",
            str(Path(__file__).parent / "golden" / "pinned_optimization_result.json"),
            "--out",
            str(tmp_path),
        ],
        "gen-groups": [
            "gen-groups", str(configs / "a1_transfer_gain.json"), "--groups", "2", "--size", "2",
            "--out", str(tmp_path),
        ],
    }[command]
    assert _child(COMMAND, *argv) == []


def test_a_jobs_2_parent_loads_no_scipy_and_writes_the_curves_of_jobs_1(tmp_path):
    got = _child(POOL_THEN_SERIAL_RUN, _tiny_config(tmp_path), str(tmp_path))
    assert got["jobs 2"]["scipy"] == []
    assert got["jobs 2"]["here"] == []
    assert got["jobs 2"]["workers"]  # the workers solved
    assert got["jobs 1"]["scipy"] == ALLOWED_SCIPY
    curves = [(tmp_path / f"jobs{jobs}" / "curves.csv").read_bytes() for jobs in (1, 2)]
    assert curves[0] == curves[1]


@linux_only
def test_scipy_openblas_loaded_inside_a_run_runs_one_thread_until_the_run_returns(tmp_path):
    # Told two threads, scipy's OpenBLAS loads in the --jobs 2 workers,
    # whose caps last their lives, at one thread, starting no OpenBLAS
    # thread; then here, at two, for this process after the run.
    got = _child(POOL_THEN_SERIAL_RUN, _tiny_config(tmp_path), str(tmp_path), threads="2")
    assert got["jobs 2"]["here"] == []
    assert got["jobs 2"]["workers"] and all(t == [[1], 1] for t in got["jobs 2"]["workers"])
    assert [blas for blas, _ in got["jobs 1"]["here"]] == [[1]]
    assert got["after"] == [2]


def test_a_serial_run_loads_no_pool_masked_array_or_polynomial_module(tmp_path):
    got = _child(SERIAL_THEN_POOL_RUN, _tiny_config(tmp_path), str(tmp_path), *UNCALLED)
    assert got["import"] == []
    assert got["jobs 1"] == []
    assert got["jobs 2"] == ["multiprocessing", "concurrent.futures.process"]
    curves = [(tmp_path / f"jobs{jobs}" / "curves.csv").read_bytes() for jobs in (1, 2)]
    assert curves[0] == curves[1]
