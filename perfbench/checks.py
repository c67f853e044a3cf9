"""Output checks: one judged quantity with its tolerance.

Each workload (see ``workloads.py``) computes its independent references
once per seed and turns the output directory of a pass into a list of
:class:`Check`. A check fails when its error is not finite or exceeds its
tolerance.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

#: Roundoff tolerance of checks whose two sides are mathematically equal.
EXACT_TOL = 1e-8
#: FFC outputs of smooth kernels (Mexican-hat bank, Tikhonov denoise)
#: against the exact spectral references. Chebyshev order 30 over the degree
#: bound of a kNN graph lands near 1e-6; this allows ten times that.
FFC_TOL = 1e-5
#: FFC ``wave_gauss`` filter against the exact one. Its ridge
#: ``arccos(1 - lambda / (2 lmax))`` has a square-root kink at 0, so order 30
#: lands near 2e-4; this allows ten times that.
FFC_WAVE_TOL = 2e-3
#: Solver objectives: recomputed from the saved outputs, and the fixed-length
#: FISTA run against its reference run.
OBJECTIVE_TOL = 1e-9
#: Inpaint objective (stopped at ``--tol 1e-4``) above the tightly converged
#: reference minimiser. Over 25 seeds the excess ranged over 2.1e-3 to
#: 3.7e-3; stopping at 70% of the iterations gives about 6e-3.
INPAINT_TOL = 5e-3


@dataclass
class Check:
    name: str
    error: float
    tol: float

    @property
    def ok(self):
        return bool(np.isfinite(self.error) and self.error <= self.tol)


def flag(name, ok):
    """A pass/fail check without a magnitude (error 0 or infinity)."""
    return Check(name, 0.0 if ok else float("inf"), 0.0)


def read_reports(out):
    """Run reports of a pass, keyed by command name."""
    found = {}
    for name in sorted(os.listdir(out)):
        if name.startswith("report-") and name.endswith(".json"):
            with open(os.path.join(out, name)) as fh:
                report = json.load(fh)
            found[report["command"]] = report
    return found
