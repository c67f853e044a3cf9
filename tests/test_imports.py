"""Import boundary: ``import tvgsp`` and ``import tvgsp.cli`` load no scipy
module. ``scipy.sparse`` is imported on the first sparse product, so the
CLI stages that work on the eigenbasis alone load no scipy at all, and each
heavier scipy submodule is imported inside the one function that needs it.
A deferred import returns the same values in a fresh interpreter as in this
one.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tvgsp import (erdos_renyi_graph, estimate_lambda_max, fileio, grid_eval,
                   joint_laplacian_apply, knn_sensor_graph, named_response,
                   ring_graph)
from tvgsp.rng import default_rng

DEFERRED = ("scipy.sparse", "scipy.spatial", "scipy.special",
            "scipy.sparse.linalg")


def _child(code, env, cwd=None):
    """In a fresh interpreter, import ``tvgsp`` and ``tvgsp.cli``, then run
    ``code``, which sets ``value``; return that value and the scipy modules
    loaded by then."""
    script = ("import json, sys\nimport tvgsp, tvgsp.cli\nvalue = None\n"
              + code + "\nscipy = sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy')\n"
              "print(json.dumps({'value': value, 'scipy': scipy}))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _call(case):
    """``_child`` code that calls ``case`` of this module."""
    return (f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            f"from test_imports import {case}\nvalue = {case}()")


def test_package_and_cli_load_no_deferred_submodule(child_env):
    assert _child("", child_env)["scipy"] == []


@pytest.fixture
def stage_files(tmp_path):
    g = ring_graph(12)
    fileio.save_edges_csv(tmp_path / "g.csv", g)
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(3).standard_normal((12, 8)))
    fileio.save_bank_spec(tmp_path / "bank.json", {
        "kind": "stvwt", "T": 8,
        "mother": {"name": "damped_wave", "params": {"beta": 0.5}},
        "scales_lambda": [0.4, 0.8, 1.2], "scales_omega": [1.0],
        "check_admissibility": False})
    return tmp_path


def _run_stages(stages, env, cwd):
    common = ["--graph", "g.csv", "--signal", "x.csv", "--report", "r.json"]
    code = f"value = [tvgsp.cli.run(argv + {common!r}) for argv in {stages!r}]"
    result = _child(code, env, cwd)
    assert result["value"] == [0] * len(stages)
    return result["scipy"]


def test_eigenbasis_stages_load_no_scipy(stage_files, child_env):
    stages = [
        ["filter", "--kernel", "wave_gauss", "--method", "exact",
         "--out", "y.csv"],
        ["analyze", "--bank", "bank.json", "--exact", "--out", "c.tvcf"],
        ["sparse-code", "--bank", "bank.json", "--gamma", "0.5",
         "--max-iters", "20", "--out", "s.tvcf"],
    ]
    assert _run_stages(stages, child_env, stage_files) == []


def test_chebyshev_stage_loads_scipy_sparse(stage_files, child_env):
    stages = [["filter", "--kernel", "wave_gauss", "--method", "ffc",
               "--order", "10", "--out", "y.csv"]]
    assert "scipy.sparse" in _run_stages(stages, child_env, stage_files)


def _sparse_laplacian():
    g = erdos_renyi_graph(40, 0.2, seed=2)
    X = default_rng(5).standard_normal((g.N, 6))
    return [g.L.indptr.tolist(), g.L.indices.tolist(), g.L.data.tolist(),
            joint_laplacian_apply(X, g).tolist()]


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
@pytest.mark.parametrize("module, case", zip(DEFERRED, [
    "_sparse_laplacian", "_knn_graph", "_sigmoid_grid", "_lanczos_bound"]))
def test_deferred_import_loads_on_demand(module, case, child_env):
    result = _child(_call(case), child_env)
    assert module in result["scipy"]
    assert result["value"] == globals()[case]()
