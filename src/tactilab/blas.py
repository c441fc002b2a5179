"""OpenBLAS thread control through ``ctypes``: every loaded OpenBLAS is found
by walking the process's shared objects and capped at one thread. Also the
loader of the scipy routines the engine calls (``scipy_routines``), which
loads scipy's OpenBLAS. It finds scipy's directory without importing scipy,
so scipy's package ``__init__`` runs only where it falls back to scipy's
public modules."""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from types import ModuleType
from typing import Optional, Sequence


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


class SingleThreadedBlas:
    """Every loaded OpenBLAS runs one thread from construction on; as a
    context manager it restores the previous counts on exit.

    A trial's matrices have a few dozen rows, too small for BLAS threads to
    pay, and OpenBLAS sizes its pool to the cores: two ``--jobs`` workers
    would run twice as many spinning BLAS threads as there are cores. As a
    pool initializer it caps each worker for the worker's life. A loaded
    OpenBLAS without the thread-count symbols keeps its count, with one
    RuntimeWarning."""

    def __init__(self) -> None:
        self._previous = []
        uncapped = []
        for path, lib in _loaded_openblas():
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
                stacklevel=2,
            )

    def __enter__(self) -> "SingleThreadedBlas":
        return self

    def __exit__(self, *exc_info) -> None:
        for set_, count in self._previous:
            set_(count)


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
    from its file and registered there under its name. scipy's directory is
    found with ``find_spec``, so neither scipy's ``__init__`` nor the
    subpackage's runs. None when the directory or the file is not found, or
    when the file fails to load, which registers nothing."""
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    locations = package.submodule_search_locations if package is not None else None
    path = _extension_path(locations[0], name) if locations else None
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


def scipy_routines(extension: str, public: str, names: Sequence[str]) -> tuple:
    """The attributes ``names`` of scipy's extension module ``extension``
    (such as ``scipy.linalg._flapack``), which are the very objects its
    public module ``public`` (``scipy.linalg.lapack``) exports.

    The extension is loaded from its file: scipy's ``__init__`` imports
    modules the engine never calls (``subprocess`` among them), and the
    subpackage's about a hundred more (some 18 MB). Where scipy's directory,
    the file or an attribute is missing (another scipy layout), or the file
    fails to load, they come from ``public``. Either way scipy's OpenBLAS, if
    this loads it, starts at one thread unless ``OPENBLAS_NUM_THREADS`` is
    set, and the variable is left as found: OpenBLAS reads it as the library
    loads, and started with more threads its pool spins on the cores for
    about 0.1 s of CPU, while every run caps it at one thread anyway
    (``SingleThreadedBlas``). numpy, which the extension imports, is imported
    first, so its OpenBLAS loads at its own count before the variable is set."""
    import numpy  # noqa: F401  -- its OpenBLAS loads before the variable is set

    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    if unset:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        module = _load_extension(extension)
        if module is None or not all(hasattr(module, name) for name in names):
            module = importlib.import_module(public)
    finally:
        if unset:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    return tuple(getattr(module, name) for name in names)
