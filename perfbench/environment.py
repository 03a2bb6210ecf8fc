"""Environment and working-set stamp of a benchmark run.

    python3 perfbench/environment.py > perfbench/environment.json

prints the machine stamp kept beside the benchmark's recorded numbers:
interpreter and library versions, OpenBLAS threads, cores, CPU model and
cache sizes, and for each workload the grid size and the *computed* size
of one nonlinear-kernel call set against the per-core L2 cache.  It reads
``/proc`` and ``/sys``, so ``run.py`` does not call it.
"""

import ctypes
import json
import os
import platform
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

CACHE = Path("/sys/devices/system/cpu/cpu0/cache")


def _openblas_threads():
    """Thread count of each OpenBLAS that numpy/scipy loaded, by library."""
    import numpy  # noqa: F401  (loads the libraries)
    import scipy.fft  # noqa: F401

    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _caches():
    """{'L1d': bytes, 'L2': bytes, 'L3': bytes} as seen by cpu0."""
    out = {}
    for index in sorted(CACHE.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        name = f"L{level}" + ("d" if kind == "Data" else "")
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        out[name] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return out


def kernel_call_bytes(n):
    """Computed bytes of the arrays one ``NonlinearKernel.spectrum`` call
    (pad mode, cubic) reads or allocates at the parent commit: the input
    half-spectrum, the padded half-spectrum, three real arrays on the
    2n-point grid (inverse transform, its rescaling, its cube), the padded
    forward transform, two truncated copies, the derivative symbol and the
    result.  Computed from array sizes; cache misses are not counted."""
    half = (n // 2 + 1) * 16
    padded_half = (n + 1) * 16
    fine = 2 * n * 8
    return half + padded_half + 3 * fine + padded_half + 2 * half + half + half


def working_sets(l2_bytes):
    out = {}
    for name, workload in WORKLOADS.items():
        if workload.solver is None:
            out[name] = {"kernel": "not run"}
            continue
        n = int(workload.solver["n"], 0)
        call = kernel_call_bytes(n)
        out[name] = {
            "n": n,
            "padded_n": 2 * n,
            "padded_array_bytes_computed": 2 * n * 8,
            "kernel_call_bytes_computed": call,
            "kernel_call_over_L2_computed": round(call / l2_bytes, 3) if l2_bytes else None,
        }
    return out


def stamp():
    import numpy
    import scipy

    caches = _caches()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes_cpu0": caches,
        "working_set": working_sets(caches.get("L2", 0)),
    }


if __name__ == "__main__":
    print(json.dumps(stamp(), indent=2, sort_keys=True))
