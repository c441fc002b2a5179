"""OpenBLAS thread control through ``ctypes``: every loaded OpenBLAS is found
by walking the process's shared objects and capped at one thread. Also the
loader of the scipy routines the engine calls (``scipy_routines``), which
loads them, and scipy's OpenBLAS, at the first call of one: the LAPACK
routines from scipy's OpenBLAS through ``ctypes``, and ufuncs from scipy's
extension modules. It finds scipy's directory without importing scipy, so
scipy's package ``__init__`` runs only where it falls back to importing
scipy's modules."""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from types import ModuleType
from typing import Optional


class _DlPhdrInfo(ctypes.Structure):
    # The leading fields of glibc's ``struct dl_phdr_info``; only the name is read.
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _loaded_openblas() -> list[tuple[str, ctypes.CDLL]]:
    """(path, handle) of every OpenBLAS loaded in this process (numpy and
    scipy each bundle one), found by walking the loaded shared objects with
    ``dl_iterate_phdr`` as threadpoolctl does. Empty where libc lacks it."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    iterate = getattr(libc, "dl_iterate_phdr", None)
    if iterate is None:
        return []
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths: list[str] = []

    def collect(info, _size, _data) -> int:
        name = info.contents.dlpi_name
        if name and b"openblas" in os.path.basename(name).lower():
            paths.append(os.fsdecode(name))
        return 0

    iterate(_PHDR_CALLBACK(collect), None)
    return [(path, ctypes.CDLL(path, mode=os.RTLD_NOLOAD)) for path in paths]


def _blas_thread_controls(lib) -> Optional[tuple]:
    """The (get, set) thread-count functions of one OpenBLAS: the names of
    the scipy-openblas builds (``64_`` for numpy's 64-bit-index one), then
    the plain OpenBLAS names. None when it exports none of them."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


#: The caps in force in this process, outermost first: thread counts are
#: per process, and so are the caps. A pool initializer's cap, and in a
#: forked worker the caps it inherits, never exit: they last the worker's life.
_caps: list["SingleThreadedBlas"] = []


class SingleThreadedBlas:
    """Every loaded OpenBLAS runs one thread from construction on, and so
    does one that ``scipy_routines`` loads while the cap is in force; as a
    context manager it restores the previous counts on exit, the loaded
    one's included.

    A trial's matrices have a few dozen rows, too small for BLAS threads to
    pay, and OpenBLAS sizes its pool to the cores: two ``--jobs`` workers
    would run twice as many spinning BLAS threads as there are cores. As a
    pool initializer it caps each worker for the worker's life. A loaded
    OpenBLAS without the thread-count symbols keeps its count, with one
    RuntimeWarning."""

    def __init__(self) -> None:
        self._previous = []
        self._exits_in: Optional[int] = None  # the pid of the process whose ``with`` exits it
        self._cap(_loaded_openblas())
        _caps.append(self)

    def _cap(self, libraries) -> None:
        """Lower each of ``libraries`` ((path, handle) pairs) to one thread,
        keeping its count for ``__exit__``."""
        uncapped = []
        for path, lib in libraries:
            controls = _blas_thread_controls(lib)
            if controls is None:
                uncapped.append(path)
                continue
            get, set_ = controls
            count = get()
            # Skipped at one thread: in a forked worker, which inherits the
            # cap, set_num_threads rebuilds the thread pool and its threads spin.
            if count != 1:
                self._previous.append((set_, count))
                set_(1)
        if uncapped:
            warnings.warn(
                f"BLAS threads not capped: no set_num_threads symbol in {uncapped}",
                RuntimeWarning,
                stacklevel=3,
            )

    def __enter__(self) -> "SingleThreadedBlas":
        self._exits_in = os.getpid()
        return self

    def __exit__(self, *exc_info) -> None:
        _caps.remove(self)
        for set_, count in self._previous:
            set_(count)


def _scipy_dir() -> Optional[str]:
    """scipy's directory, found with ``find_spec``, which imports nothing;
    None where scipy is not found."""
    package = importlib.util.find_spec("scipy")
    locations = package.submodule_search_locations if package is not None else None
    return locations[0] if locations else None


def _extension_path(package_dir: str, name: str) -> Optional[str]:
    """Path of the extension module ``name`` (a dotted name inside scipy)
    under scipy's directory ``package_dir``; None when no such file exists."""
    *subpackages, stem = name.split(".")[1:]
    directory = os.path.join(package_dir, *subpackages)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, stem + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_extension(name: str) -> Optional[ModuleType]:
    """The extension module ``name`` of scipy, from ``sys.modules`` or loaded
    from its file and registered there under its name, so that neither
    scipy's ``__init__`` nor the subpackage's runs. None when scipy's
    directory or the file is not found, or when the file fails to load,
    which registers nothing."""
    if name in sys.modules:
        return sys.modules[name]
    package_dir = _scipy_dir()
    path = _extension_path(package_dir, name) if package_dir else None
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)  # dlopens the library
        spec.loader.exec_module(module)
    except ImportError:  # say, a DLL directory that scipy's __init__ would have added
        return None
    sys.modules[name] = module
    return module


_CHAR, _INT, _DOUBLES, _LEN = (
    ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p, ctypes.c_size_t
)
#: The LAPACK routines the engine calls and their ``ctypes`` argument types:
#: every argument by reference (32-bit integers, scipy's LAPACK interface),
#: then the hidden length of each character argument, passed as 1. The
#: routines return nothing; ``info`` reports.
_LAPACK_ARGTYPES = {
    # uplo, n, nrhs, a, lda, b, ldb, info
    "dposv": (_CHAR, _INT, _INT, _DOUBLES, _INT, _DOUBLES, _INT, _INT, _LEN),
    # uplo, n, a, lda, info
    "dpotrf": (_CHAR, _INT, _DOUBLES, _INT, _INT, _LEN),
    # uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
    "dtrtrs": (_CHAR,) * 3 + (_INT, _INT, _DOUBLES, _INT, _DOUBLES, _INT, _INT) + (_LEN,) * 3,
}


def _bundled_openblas(package_dir: str) -> list:
    """Paths of the OpenBLAS that scipy's wheels bundle beside scipy's
    directory ``package_dir`` (``scipy.libs/libscipy_openblas*``)."""
    libs = os.path.join(os.path.dirname(package_dir), "scipy.libs")
    return sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))


def _lapack_symbols(lib: ctypes.CDLL) -> Optional[dict]:
    """name -> ``ctypes`` function of each routine of ``_LAPACK_ARGTYPES``
    that ``lib`` finds, under the scipy-openblas name (``scipy_dposv_``) or
    the plain Fortran one (``dposv_``), typed; None unless it finds them
    all."""
    routines = {}
    for name, argtypes in _LAPACK_ARGTYPES.items():
        routine = getattr(lib, f"scipy_{name}_", None) or getattr(lib, f"{name}_", None)
        if routine is None:
            return None
        routine.argtypes, routine.restype = argtypes, None
        routines[name] = routine
    return routines


def _load_lapack() -> dict:
    """name -> ``ctypes`` function of each routine of ``_LAPACK_ARGTYPES``,
    from the library scipy's own LAPACK wrappers call: scipy's bundled
    OpenBLAS (``_bundled_openblas``), which loads no module. Where it is
    not found or does not load (another scipy layout), the routines come
    through a handle to the file of ``scipy.linalg._flapack``, which finds
    the symbols of its dependencies, once scipy's packages have imported it
    (their inits may make its libraries loadable)."""
    package_dir = _scipy_dir()
    for path in _bundled_openblas(package_dir) if package_dir else []:
        try:
            routines = _lapack_symbols(ctypes.CDLL(path))
        except OSError:  # not a loadable shared object
            continue
        if routines is not None:
            return routines
    flapack = importlib.import_module("scipy.linalg._flapack")
    routines = _lapack_symbols(ctypes.CDLL(flapack.__file__))
    if routines is None:
        raise ImportError(f"scipy's LAPACK does not export {list(_LAPACK_ARGTYPES)}")
    return routines


def _load_routines() -> dict:
    """name -> routine for the engine's scipy routines: the LAPACK routines
    of ``_LAPACK_ARGTYPES`` (``ctypes`` functions of scipy's OpenBLAS, see
    ``_load_lapack``) and ``expit`` from scipy's extension module
    ``scipy.special._special_ufuncs``, the very object ``scipy.special``
    exports.

    The extension is loaded from its file: scipy's ``__init__`` imports
    modules the engine never calls (``subprocess`` among them), and
    ``scipy.special``'s about a hundred more (some 18 MB). Where scipy's
    directory, the file or ``expit`` is missing (another scipy layout), or
    the file fails to load, ``expit`` comes from ``scipy.special``. Either
    way scipy's OpenBLAS, if this loads it, starts at one thread unless
    ``OPENBLAS_NUM_THREADS`` is set, and the variable is left as found:
    OpenBLAS reads it as the library loads, and started with more threads
    its pool spins on the cores for about 0.1 s of CPU. numpy, which the
    extension imports, is imported first, so its OpenBLAS loads at its own
    count before the variable is set. Loaded under a ``SingleThreadedBlas``
    cap, a new OpenBLAS is capped too, by the outermost cap, so that it
    keeps one thread until the last cap exits and then gets its count back.
    Where that cap never exits in this process (a pool worker's), the
    library starts at one thread whatever the variable says, and so starts
    no threads it would never run."""
    import numpy  # noqa: F401  -- its OpenBLAS loads before the variable is set

    before = {path for path, _ in _loaded_openblas()} if _caps else set()
    told = os.environ.get("OPENBLAS_NUM_THREADS")
    if told is None or (_caps and _caps[0]._exits_in != os.getpid()):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        routines = _load_lapack()
        module = _load_extension("scipy.special._special_ufuncs")
        if module is None or not hasattr(module, "expit"):
            module = importlib.import_module("scipy.special")
        routines["expit"] = module.expit
    finally:
        if told is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = told
    if _caps:
        _caps[0]._cap([(path, lib) for path, lib in _loaded_openblas() if path not in before])
    return routines


def scipy_routines(namespace: dict) -> tuple:
    """Stand-ins for ``dposv``, ``dpotrf``, ``dtrtrs`` and ``expit``, the
    routines of ``_load_routines``. A process that never calls one never
    loads scipy. The first call of any stand-in loads every routine,
    rebinds their names in ``namespace`` (the calling module's globals) to
    them and calls through; from then on the module's names are the
    routines themselves, so a call by name pays no indirection."""
    loaded: dict = {}

    def stand_in(name: str):
        def call(*args, **kwargs):
            if not loaded:
                loaded.update(_load_routines())
                namespace.update(loaded)
            return loaded[name](*args, **kwargs)

        call.__name__ = call.__qualname__ = name
        return call

    return tuple(stand_in(name) for name in (*_LAPACK_ARGTYPES, "expit"))
