"""Process set-up shared by the benchmark scripts.

Import this module and call :func:`prepare` before numpy is imported: the
thread counts are read by the BLAS/OpenMP runtimes when numpy loads, and the
benchmark must run the rwre sources of the checkout it lives in.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("RWRE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout holds no rwre sources to benchmark."""


def prepare() -> None:
    """Pin every thread pool to one thread and put ``src/`` first on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rwre" / "__init__.py").is_file():
        raise MissingSources(f"no rwre sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse to measure an rwre that was not loaded from this checkout."""
    path = pathlib.Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingSources(f"rwre was imported from {path}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def simd_targets() -> list[str]:
    """The numpy SIMD dispatch targets this CPU enables.

    They select the ufunc kernels, so bit-identical outputs are only
    expected between machines that agree on them.
    """
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return []
    return sorted(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


def platform_key() -> str:
    """Key under which reference digests are stored."""
    import numpy
    import scipy
    return "-".join([platform.machine(), f"numpy{numpy.__version__}",
                     f"scipy{scipy.__version__}"] + simd_targets())


def machine_record() -> dict:
    """Machine, library versions and commit, recorded with every result."""
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "cpu_model": _cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "simd": simd_targets(),
            "git_commit": _git_commit(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}
