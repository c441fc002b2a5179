"""What importing tactilab loads. The engine's five scipy routines come from
scipy's LAPACK and ufunc extension modules, loaded from their files, and are
the very objects scipy's public modules export; ``import tactilab.cli`` runs
no scipy subpackage ``__init__``; scipy's OpenBLAS starts at one thread, and
``OPENBLAS_NUM_THREADS`` is left as found.

Each case runs in a fresh interpreter: the test modules import
``scipy.linalg`` themselves, and the loader reuses a loaded module."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tactilab

#: scipy's top-level package, what its ``__init__`` imports, and the two
#: extension modules the engine calls.
ALLOWED_SCIPY = re.compile(
    r"scipy(\._lib(\..+)?|\.__config__|\._distributor_init|\._cyutility|\.version"
    r"|\.linalg\._flapack|\.special\._special_ufuncs)?"
)

#: Imports tactilab.laplace, with the extension files not found when argv[1]
#: is "fallback", then scipy's public modules; prints whether the loader ran
#: scipy.linalg's __init__ and whether each routine is its public namesake.
SAME_ROUTINES = """
import json, sys
from tactilab import blas

if sys.argv[1] == "fallback":
    blas._extension_path = lambda package_dir, name: None
from tactilab import laplace

linalg_init_ran = "scipy.linalg" in sys.modules
import scipy.linalg.lapack, scipy.special

public = {name: getattr(scipy.linalg.lapack, name) for name in ("dposv", "dpotrf", "dpotrs", "dtrtrs")}
public["expit"] = scipy.special.expit
same = {name: getattr(laplace, name) is routine for name, routine in public.items()}
print(json.dumps({"linalg_init_ran": linalg_init_ran, "same": same}))
"""

#: Imports tactilab.cli; prints the scipy modules loaded, OPENBLAS_NUM_THREADS
#: afterwards, and the thread count of each OpenBLAS that the import loaded.
CLI_IMPORT = """
import json, os, sys
import numpy
from tactilab import blas

before = {path for path, _ in blas._loaded_openblas()}
import tactilab.cli

loaded = [lib for path, lib in blas._loaded_openblas() if path not in before]
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": [blas._blas_thread_controls(lib)[0]() for lib in loaded],
}))
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


@pytest.mark.parametrize("route", ["extension files", "fallback"])
def test_engine_routines_are_scipys_public_objects(route):
    got = _child(SAME_ROUTINES, route)
    assert got["same"] == dict.fromkeys(["dposv", "dpotrf", "dpotrs", "dtrtrs", "expit"], True)
    assert got["linalg_init_ran"] == (route == "fallback")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the OpenBLAS lookup walks the loaded objects with dl_iterate_phdr",
)
@pytest.mark.parametrize("threads", [None, "2"])
def test_cli_import_loads_no_scipy_subpackage_and_starts_openblas_as_told(threads):
    got = _child(CLI_IMPORT, threads=threads)
    assert [name for name in got["scipy"] if not ALLOWED_SCIPY.fullmatch(name)] == []
    assert {"scipy.linalg._flapack", "scipy.special._special_ufuncs"} <= set(got["scipy"])
    assert got["env"] == threads
    # scipy's wheel bundles its own OpenBLAS, which the import loads.
    assert got["threads"] == [int(threads or 1)]
