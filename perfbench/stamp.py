"""Print, as one JSON line, the environment a benchmark result was measured in.

    PYTHONPATH=src python perfbench/stamp.py

Imports ``qutrit_dephasing.cli`` first, so the BLAS library is loaded and the
run doubles as the warm-up import.
"""

from __future__ import annotations

import ctypes
import importlib.metadata
import json
import os
import sys
from pathlib import Path

import numpy

import qutrit_dephasing
import qutrit_dephasing.cli  # noqa: F401

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def version(distribution: str) -> str | None:
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def blas_threads() -> str:
    """The BLAS thread setting: an environment override, or the library's own count."""
    for variable in THREAD_VARIABLES:
        if os.environ.get(variable):
            return f"{variable}={os.environ[variable]}"
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*blas*")):
        library = ctypes.CDLL(str(path))
        for symbol in THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return f"{query()} (library default)"
    return "unknown"


def main() -> None:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": version("scipy"),
                "using_numba": getattr(qutrit_dephasing, "USING_NUMBA", None),
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": blas_threads(),
            }
        )
    )


if __name__ == "__main__":
    main()
