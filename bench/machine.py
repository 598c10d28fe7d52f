"""Process environment for the benchmark: thread caps, package import, machine record.

cap_threads() must run before numpy is first imported, because OpenBLAS
sizes its pool from the environment when it loads.

The BLAS pool is one thread.  On a 2-vCPU host a pool of two made the
`resolution` op (a 61 x 4096 matrix-vector product per abscissa) 10-20%
slower at 2.3x the CPU time, and tied its latency to the load on the other
vCPU, which the reference kernel, run on the benchmark's own thread, cannot
see.  With one thread every op runs on one vCPU, as the reference does.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


class CheckoutError(RuntimeError):
    """The directory the benchmark runs from holds no circle-cs sources."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> int:
    """Cap the BLAS pool at BLAS_THREADS and unset CIRCLE_CS_THREADS, for
    this process and every child it starts.  Returns the cap."""
    cap = BLAS_THREADS
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    os.environ.pop("CIRCLE_CS_THREADS", None)
    return cap


def child_env() -> dict:
    """Environment for subprocesses: the caps above plus the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_package():
    """Import circle_cs from this checkout's src/, never from elsewhere."""
    if not (SRC / "circle_cs" / "__init__.py").is_file():
        raise CheckoutError(f"no circle_cs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circle_cs

    where = Path(circle_cs.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise CheckoutError(f"circle_cs imported from {where}, not from {SRC}")
    return circle_cs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(np) -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def describe(cap: int) -> dict:
    """The machine and interpreter facts every result is recorded with."""
    import numpy as np

    ld = np.finfo(np.longdouble)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "longdouble": {
            "storage_bits": np.dtype(np.longdouble).itemsize * 8,
            "mantissa_bits": int(ld.nmant),
            "decimal_digits": int(ld.precision),
        },
        "blas_thread_cap": cap,
        "circle_cs_threads": os.environ.get("CIRCLE_CS_THREADS", "unset"),
    }
