"""Import boundary: ``import tvgsp`` and ``import tvgsp.cli`` load numpy and
``scipy.sparse`` only. Each heavier scipy submodule is imported inside the
one function that needs it, and that function returns the same values in
a fresh interpreter as in this one.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tvgsp import (erdos_renyi_graph, estimate_lambda_max, grid_eval,
                   knn_sensor_graph, named_response)

DEFERRED = ("scipy.spatial", "scipy.special", "scipy.sparse.linalg")


def _child(case, env):
    """In a fresh interpreter, import ``tvgsp`` and ``tvgsp.cli``, then call
    ``case`` of this module (if given); return its value and the deferred
    submodules loaded by then."""
    call = (f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            f"from test_imports import {case}\nvalue = {case}()\n"
            if case else "value = None\n")
    script = ("import json, sys\nimport tvgsp, tvgsp.cli\n" + call
              + f"loaded = [m for m in {DEFERRED!r} if m in sys.modules]\n"
              "print(json.dumps({'value': value, 'loaded': loaded}))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_and_cli_load_no_deferred_submodule(child_env):
    assert _child(None, child_env)["loaded"] == []


def _knn_graph():
    g = knn_sensor_graph(60, 5, seed=4)
    return [g.W.indptr.tolist(), g.W.indices.tolist(), g.W.data.tolist(),
            g.coords.tolist()]


def _lanczos_bound():
    g = erdos_renyi_graph(50, 0.2, seed=1)
    assert g.N > 32  # the Lanczos branch, not the dense one
    return estimate_lambda_max(g, refine=True)


def _sigmoid_grid():
    kernel = named_response("lowpass_sigmoid",
                            {"lambda_cut": 3.0, "omega_cut": 1.0})
    H = grid_eval(kernel, np.linspace(0.0, 8.0, 9), 16)
    return [H.real.tolist(), H.imag.tolist()]


# floats cross JSON as their shortest repr, so equality here is bitwise
@pytest.mark.parametrize("module, case", [
    ("scipy.spatial", "_knn_graph"),
    ("scipy.sparse.linalg", "_lanczos_bound"),
    ("scipy.special", "_sigmoid_grid"),
])
def test_deferred_import_loads_on_demand(module, case, child_env):
    result = _child(case, child_env)
    assert module in result["loaded"]
    assert result["value"] == globals()[case]()
