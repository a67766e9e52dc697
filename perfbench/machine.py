"""Facts about the machine a result was measured on.

Reads only: the BLAS thread count is queried from the loaded OpenBLAS
libraries and never set, so pool workers keep the threading the program
would get anywhere else.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

#: Environment variables that change BLAS threading; recorded, never set.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def _openblas_libraries() -> list[dict]:
    """Each OpenBLAS library mapped into this process, with its thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        get_threads = _symbol(lib, _THREAD_SYMBOLS)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            entry["threads"] = int(get_threads())
        get_config = _symbol(lib, _CONFIG_SYMBOLS)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            entry["config"] = get_config().decode(errors="replace").strip()
        found.append(entry)
    return found


def _blas_vendor(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def machine_facts() -> dict:
    """Core count, CPU, BLAS vendor and threads, and library versions.

    Call after numpy and scipy.linalg are imported, so both BLAS
    libraries are loaded.
    """
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_vendor(np.show_config(mode="dicts")),
        "scipy_blas": _blas_vendor(scipy.show_config(mode="dicts")),
        "blas_libraries": _openblas_libraries(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }
