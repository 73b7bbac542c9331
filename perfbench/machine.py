"""Machine context recorded beside every result, and a one-thread roofline probe.

The probe gives the two ceilings a kernel's GMAC/s is read against: float32
GEMM throughput (compute-bound, operands held in cache on purpose) and copy
bandwidth over a buffer at least four times the last-level cache, so the
copy streams from memory rather than from cache.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import time

import numpy as np
import scipy

GEMM_N = 2048
REPS = 3
MIN_COPY_BYTES = 64 << 20


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so*")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_info() -> dict:
    """Build-time BLAS description plus, for OpenBLAS, its live thread count."""
    build = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "name": build.get("name", "unknown"),
        "version": build.get("version", "unknown"),
        "config": build.get("openblas configuration", ""),
        "runtime_threads": None,
        "core": None,
    }
    lib = _openblas()
    if lib is not None:
        info["runtime_threads"] = _openblas_call(
            lib, ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"),
            ctypes.c_int)
        core = _openblas_call(
            lib, ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"),
            ctypes.c_char_p)
        info["core"] = core.decode() if core else None
    return info


def last_level_cache_bytes() -> int:
    """Size of the highest cache level the kernel reports for cpu0; 0 if unknown."""
    best_level, best_size = 0, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="ascii") as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def context(thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "threads_env": {var: os.environ.get(var) for var in thread_vars},
        "llc_bytes": last_level_cache_bytes(),
    }


def roofline(llc_bytes: int) -> dict:
    """Median float32 GEMM GMAC/s and copy GB/s over REPS repetitions."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_N, GEMM_N), dtype=np.float32)
    b = rng.standard_normal((GEMM_N, GEMM_N), dtype=np.float32)
    c = np.empty_like(a)
    np.matmul(a, b, out=c)
    gemm = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        gemm.append(time.perf_counter() - t0)
    del a, b, c

    # One buffer of 4x the last-level cache: each pass reads its first half
    # and writes its second, streaming 4x LLC bytes through the cache.
    total = max(4 * llc_bytes, MIN_COPY_BYTES) // 8 * 8
    buf = np.ones(total // 4, dtype=np.float32)
    half = buf.size // 2
    src, dst = buf[:half], buf[half:2 * half]
    copy = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy.append(time.perf_counter() - t0)
    moved = src.nbytes + dst.nbytes
    del buf, src, dst
    return {
        "gemm_gmacs_per_s": GEMM_N ** 3 / statistics.median(gemm) / 1e9,
        "gemm_shape": [GEMM_N, GEMM_N, GEMM_N],
        "gemm_operand_mb": GEMM_N * GEMM_N * 4 / 1e6,
        "copy_gb_per_s": moved / statistics.median(copy) / 1e9,
        "copy_buffer_mb": total / 1e6,
        "copy_bytes_per_pass_mb": moved / 1e6,
        "llc_mb": llc_bytes / 1e6,
    }
