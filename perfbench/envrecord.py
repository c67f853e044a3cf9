"""Environment record attached to every result.

Reads only: versions, thread caps, CPU model, load average, and the steal
counter of ``/proc/stat`` (its delta over the run shows CPU time taken by
other guests). Runs recorded under different conditions must not be
compared silently; compare this block first.
"""

import hashlib
import os
import platform
import subprocess

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def steal_ticks():
    """Cumulative steal ticks of all CPUs (``/proc/stat``), or ``None``."""
    for line in _read("/proc/stat").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            return int(fields[8])
    return None


def loadavg():
    parts = _read("/proc/loadavg").split()
    return [float(v) for v in parts[:3]] if parts else None


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src):
    """SHA-256 over the program's source files; identifies the code when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def record(root, src, steal_start, load_start):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    steal_end = steal_ticks()
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "steal_ticks_delta": (None if steal_start is None or steal_end is None
                              else steal_end - steal_start),
    }
