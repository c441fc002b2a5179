"""What importing tactilab loads. The engine's five scipy routines come from
scipy's LAPACK and ufunc extension modules, loaded from their files, and are
the very objects scipy's public modules export, also where a file fails to
load; ``import tactilab.cli`` loads no other scipy module, so neither scipy's
``__init__`` nor a subpackage's runs, nor the ``subprocess`` that scipy's
``__init__`` imports; scipy's OpenBLAS starts at one thread, numpy's
at its own count, and ``OPENBLAS_NUM_THREADS`` is left as found. Neither the
import nor a ``--jobs 1`` run loads a module that only a process pool calls
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

#: The scipy modules that importing tactilab loads: the two extension
#: modules the engine calls.
ALLOWED_SCIPY = ["scipy.linalg._flapack", "scipy.special._special_ufuncs"]

#: Modules that scipy's package ``__init__`` imports and no run calls.
SCIPY_INIT_ONLY = ("subprocess", "selectors", "signal")

#: Imports tactilab.laplace, then scipy's public modules; prints whether the
#: loader ran scipy.linalg's __init__ and whether each routine is its public
#: namesake. With argv[1] "fallback" the extension files are not found; with
#: "load fails" each is a file (argv[2]) that is no shared object, as a
#: library that does not load is.
SAME_ROUTINES = """
import json, sys
from tactilab import blas

if sys.argv[1] == "fallback":
    blas._extension_path = lambda package_dir, name: None
elif sys.argv[1] == "load fails":
    blas._extension_path = lambda package_dir, name: sys.argv[2]
from tactilab import laplace

linalg_init_ran = "scipy.linalg" in sys.modules
import scipy.linalg.lapack, scipy.special

public = {name: getattr(scipy.linalg.lapack, name) for name in ("dposv", "dpotrf", "dpotrs", "dtrtrs")}
public["expit"] = scipy.special.expit
same = {name: getattr(laplace, name) is routine for name, routine in public.items()}
print(json.dumps({"linalg_init_ran": linalg_init_ran, "same": same}))
"""

#: Imports tactilab.cli; prints the scipy modules loaded, which of
#: SCIPY_INIT_ONLY (argv[1:]) were loaded, OPENBLAS_NUM_THREADS afterwards,
#: and the thread count of each OpenBLAS that the import loaded.
CLI_IMPORT = """
import json, os, sys
import numpy
from tactilab import blas

before = {path for path, _ in blas._loaded_openblas()}
import tactilab.cli

loaded = [lib for path, lib in blas._loaded_openblas() if path not in before]
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "init only": [name for name in sys.argv[1:] if name in sys.modules],
    "env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": [blas._blas_thread_controls(lib)[0]() for lib in loaded],
}))
"""

#: Imports numpy through argv[1] ("numpy" itself, "tactilab.cli", or a call
#: of blas.scipy_routines before any numpy import); prints each loaded
#: OpenBLAS's path and thread count.
NUMPY_THREADS = """
import json, sys
if sys.argv[1] == "tactilab.cli":
    import tactilab.cli
elif sys.argv[1] == "scipy_routines":
    from tactilab import blas
    assert "numpy" not in sys.modules
    blas.scipy_routines("scipy.linalg._flapack", "scipy.linalg.lapack", ("dposv",))
import numpy
from tactilab import blas
print(json.dumps({path: blas._blas_thread_controls(lib)[0]() for path, lib in blas._loaded_openblas()}))
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


@pytest.mark.parametrize("route", ["extension files", "fallback", "load fails"])
def test_engine_routines_are_scipys_public_objects(route, tmp_path):
    not_a_library = tmp_path / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    not_a_library.write_text("not a shared object\n")
    got = _child(SAME_ROUTINES, route, str(not_a_library))
    assert got["same"] == dict.fromkeys(["dposv", "dpotrf", "dpotrs", "dtrtrs", "expit"], True)
    assert got["linalg_init_ran"] == (route != "extension files")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the OpenBLAS lookup walks the loaded objects with dl_iterate_phdr",
)
@pytest.mark.parametrize("threads", [None, "2"])
def test_cli_import_loads_no_scipy_package_and_starts_openblas_as_told(threads):
    got = _child(CLI_IMPORT, *SCIPY_INIT_ONLY, threads=threads)
    assert got["scipy"] == ALLOWED_SCIPY
    assert got["init only"] == []
    assert got["env"] == threads
    # scipy's wheel bundles its own OpenBLAS, which the import loads.
    assert got["threads"] == [int(threads or 1)]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the OpenBLAS lookup walks the loaded objects with dl_iterate_phdr",
)
@pytest.mark.parametrize("entry", ["tactilab.cli", "scipy_routines"])
def test_numpy_openblas_starts_at_its_own_count_whatever_imports_numpy_first(entry):
    # OPENBLAS_NUM_THREADS=1 is set while scipy's OpenBLAS loads; numpy's
    # must have loaded before it, as a plain `import numpy` loads it.
    plain = _child(NUMPY_THREADS, "numpy")
    got = _child(NUMPY_THREADS, entry)
    assert plain and {path: got.get(path) for path in plain} == plain


def test_a_serial_run_loads_no_pool_masked_array_or_polynomial_module(tmp_path):
    # A cheap run whose two seeds give --jobs 2 a pool: the first fits start
    # from the median heuristic, and every evaluation marginalizes with the
    # Gauss-Hermite rule.
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
    got = _child(SERIAL_THEN_POOL_RUN, str(config), str(tmp_path), *UNCALLED)
    assert got["import"] == []
    assert got["jobs 1"] == []
    assert got["jobs 2"] == ["multiprocessing", "concurrent.futures.process"]
    curves = [(tmp_path / f"jobs{jobs}" / "curves.csv").read_bytes() for jobs in (1, 2)]
    assert curves[0] == curves[1]
