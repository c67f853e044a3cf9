"""Run reports, benchmark tables, and the energy-compaction experiment."""

import importlib.util
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import THREAD_VARS, __version__
from .errors import ValidationError
from .fileio import _write_csv
from .transforms import _checked, dft, gft, idft, igft, ijft, jft
from .filtering import filter_cheby2d, filter_exact, filter_ffc


@dataclass
class RunReport:
    """Machine-readable record of one CLI run.

    Metrics and float parameters must be finite (a bare NaN is not JSON);
    timings are wall-clock milliseconds per stage. ``eigensystem`` says how
    the ``eigendecomposition`` stage obtained the eigensystem:
    ``"computed"``, ``"reused"`` from the graph's cache, which the graph
    of an earlier run on the same file shares (see :mod:`tvgsp.cli`), or
    None when the run had no such stage.
    ``warnings`` holds the messages of the Python warnings the run raised.
    Timings, ``eigensystem`` and the ``environment`` block (see
    :func:`environment`) depend on the process; everything else is
    deterministic under a fixed seed. The JSON form has one key per field;
    a key missing from it takes the field's default.
    """

    command: str
    params: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    eigensystem: str | None = None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        for kind, values in (("metric", self.metrics),
                             ("parameter", self.params)):
            for key, value in values.items():
                if isinstance(value, float) and not np.isfinite(value):
                    raise ValidationError(
                        f"{kind} '{key}' is not finite: {value}")

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(**{f.name: payload[f.name] for f in fields(cls)
                      if f.name in payload})


def _scipy_version():
    """The installed scipy's version, read without importing scipy (from
    ``scipy/version.py``) unless it is imported already; ``None`` when
    scipy is not found."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.origin:
        return None
    try:
        with open(os.path.join(os.path.dirname(spec.origin),
                               "version.py")) as fh:
            text = fh.read()
    except OSError:
        return None
    found = re.search(r"^version\s*=\s*['\"]([^'\"]+)", text, re.M)
    return found and found.group(1)


def _peak_rss_kb():
    """The process's peak resident set (``VmHWM`` of ``/proc/self/status``)
    in kB, or ``None`` where the kernel does not report it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment():
    """What a run report records of the process it ran in: the Python,
    tvgsp, numpy and scipy versions, the scipy modules it loaded, the
    thread-cap variables and its peak resident memory. Imports no
    dependency."""
    return {
        "python": sys.version.split()[0],
        "tvgsp": __version__,
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "scipy_modules": sorted(m for m in sys.modules
                                if m.startswith("scipy.") or m == "scipy"),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "peak_rss_kb": _peak_rss_kb(),
    }


@dataclass
class CompactionCurve:
    """Normalized reconstruction errors after percentile thresholding,
    one series per transform."""

    percentiles: list
    errors: dict

    def rows(self):
        for name in sorted(self.errors):
            for p, err in zip(self.percentiles, self.errors[name]):
                yield name, p, err


def _percentiles(percentiles):
    """``percentiles`` as a nonempty list of floats in ``[0, 100)``."""
    percentiles = [float(p) for p in percentiles]
    if not percentiles:
        raise ValidationError("percentiles must not be empty")
    if any(not 0 <= p < 100 for p in percentiles):
        raise ValidationError("percentiles must lie in [0, 100)")
    return percentiles


def compaction_experiment(X, g, eig, percentiles):
    """Energy-compaction comparison of DFT, GFT, and JFT.

    For each transform and percentile ``p`` the coefficients with magnitude
    strictly below the p-th percentile are zeroed and the signal is rebuilt;
    the reported error is ``||X_p - X||_F / ||X||_F``. Strict thresholding
    keeps ties at the percentile, so conjugate-symmetric pairs survive or
    die together and reconstructions of real signals stay real.
    """
    X = _checked(X, "signal", g=g, eig=eig)
    percentiles = _percentiles(percentiles)
    norm = np.linalg.norm(X)
    transforms = {
        "dft": (dft(X), idft),
        "gft": (gft(X, eig), lambda S: igft(S, eig)),
        "jft": (jft(X, eig), lambda S: ijft(S, eig, real=False)),
    }
    errors = {name: [] for name in transforms}
    for name, (coeffs, inverse) in transforms.items():
        mags = np.abs(coeffs)
        for p in percentiles:
            threshold = np.percentile(mags, p)
            kept = np.where(mags < threshold, 0.0, coeffs)
            Xp = inverse(kept)
            err = np.linalg.norm(Xp - X) / max(norm, 1e-300)
            errors[name].append(float(err))
    return CompactionCurve(percentiles=percentiles, errors=errors)


def filter_error_table(X, g, eig, kernels, methods, orders):
    """Accuracy/time table for the joint filter implementations.

    ``kernels`` maps names to :class:`JointKernel`; rows are
    ``(kernel, method, order, rel_error, wall_ms)`` with error measured
    against the exact spectral filter. ``cheby2d`` uses equal graph and
    time orders.
    """
    for method in methods:
        if method not in ("exact", "ffc", "cheby2d"):
            raise ValidationError(f"unknown filtering method '{method}'")
    rows = []
    for kname, kernel in kernels.items():
        t0 = time.perf_counter()
        reference = filter_exact(X, kernel, eig)
        exact_ms = (time.perf_counter() - t0) * 1e3
        ref_norm = max(np.linalg.norm(reference), 1e-300)
        for method in methods:
            if method == "exact":
                rows.append((kname, "exact", 0, 0.0, exact_ms))
                continue
            for order in orders:
                t0 = time.perf_counter()
                if method == "ffc":
                    Y = filter_ffc(X, kernel, g, order)
                else:
                    Y = filter_cheby2d(X, kernel, g, order, order)
                wall_ms = (time.perf_counter() - t0) * 1e3
                err = np.linalg.norm(Y - reference) / ref_norm
                rows.append((kname, method, order, float(err), wall_ms))
    return rows


def write_filter_error_csv(path, rows):
    _write_csv(path, "kernel,method,order,rel_error,wall_ms", rows)


def write_compaction_csv(path, curve):
    _write_csv(path, "transform,percentile,rel_error", curve.rows())
