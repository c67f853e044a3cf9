"""Import boundary: ``import tvgsp`` loads no dependency (its names resolve
on first access), so the entry point sets the thread caps before numpy
loads, and ``import tvgsp.cli`` loads no scipy module. Every sparse product
runs scipy's compiled kernel module ``scipy.sparse._sparsetools``, loaded
alone from its extension file, so ``graph-gen`` and the CLI stages that
work on the eigenbasis alone load no scipy module, and the Chebyshev and
solver stages load that one module and neither ``scipy`` nor the
``scipy.sparse`` package. Where that file cannot be loaded alone, the
kernel module comes from ``import scipy.sparse``, and the products are
still its kernels', byte for byte. Every import of the package is at
module level, except ``scipy.sparse`` in the functions that return scipy
matrices or load the kernel module through it, and the entry point's
import of ``tvgsp.cli``; no module imports one that imports it back. A
deferred import returns the same values in a fresh interpreter as in this
one.
"""

import ast
import graphlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvgsp
from tvgsp import (cli, erdos_renyi_graph, fileio, grid_eval, jft,
                   joint_laplacian_apply, named_response, ring_graph)
from tvgsp.rng import default_rng

#: The one scipy module a sparse product loads.
KERNELS = ["scipy.sparse._sparsetools"]


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


# records the thread-cap variables at the moment numpy is first imported
_WATCH_NUMPY = """
import json, os, sys
import tvgsp._main
from tvgsp._main import THREAD_VARS, main
loaded = "numpy" in sys.modules
caps = {}

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not caps:
            caps.update((var, os.environ.get(var)) for var in THREAD_VARS)

sys.meta_path.insert(0, Watch())
code = main(["graph-gen", "--kind", "ring", "--n", "6", "--out", "g.csv",
             "--report", "r.json", "--threads", "1"])
print(json.dumps({"loaded": loaded, "caps": caps, "code": code}))
"""


def test_threads_flag_is_set_before_numpy_loads(tmp_path, child_env):
    """``import tvgsp._main`` loads no numpy, since ``tvgsp`` resolves its
    names on first access, so ``--threads`` reaches the thread-cap
    variables before numpy and its BLAS load."""
    from tvgsp._main import THREAD_VARS
    env = {k: v for k, v in child_env.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", _WATCH_NUMPY], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": False, "caps": dict.fromkeys(THREAD_VARS, "1"), "code": 0}


def test_package_names_resolve_on_first_access():
    import tvgsp
    assert set(tvgsp.__all__) <= set(dir(tvgsp))
    assert tvgsp.ring_graph is ring_graph
    assert tvgsp.graphs.__name__ == "tvgsp.graphs"
    assert not hasattr(tvgsp, "no_such_name")


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


def test_filter_bench_fixture_graph_loads_no_scipy(tmp_path, child_env):
    """Without ``--graph`` the benchmark generates its kNN sensor graph,
    with no scipy; the exact method and the wave kernel need none either."""
    argv = ["filter-bench", "--n", "30", "--knn", "4", "--t", "8",
            "--kernels", "wave", "--orders", "3", "--methods", "exact",
            "--emit", "e.csv", "--report", "r.json"]
    result = _child(f"value = tvgsp.cli.run({argv!r})", child_env, tmp_path)
    assert result == {"value": 0, "scipy": []}


# Every stage of the three benchmark pipelines (perfbench's exact_desk,
# ffc_large and solve_seismic), on small inputs, and the scipy modules it
# loads in a fresh process: only the Chebyshev stages, the heat recurrence
# and inpaint's incidence operator load one, the compiled sparse kernels.
CHAIN_STAGES = [
    ("exact_desk", "graph-gen --kind knn_sensor --n 40 --k 5 --out g2.csv "
     "--coords-out xy2.csv", []),
    ("exact_desk", "dynamics --kind wave --s 0.2 --T 8 --x1 x1.csv "
     "--out y.csv --emit-spectrum s2.csv", []),
    ("exact_desk", "transform --inverse --spectrum s.csv --out y.csv", []),
    ("exact_desk", "filter --signal x.csv --kernel wave_gauss --method exact "
     "--out y.csv", []),
    ("exact_desk", "analyze --bank bank.json --signal x.csv --exact "
     "--out c2.tvcf", []),
    ("exact_desk", "synthesize --bank bank.json --coeffs c.tvcf --dual "
     "--exact --out y.csv", []),
    ("exact_desk", "denoise --signal x.csv --exact --out y.csv", []),
    ("exact_desk", "compaction --signal x.csv --out y.csv", []),
    ("ffc_large", "dynamics --kind heat --s 0.2 --T 8 --x1 x1.csv "
     "--out y.csv", KERNELS),
    ("ffc_large", "filter --signal x.csv --kernel wave_gauss --method ffc "
     "--order 10 --out y.csv", KERNELS),
    ("ffc_large", "analyze --bank bank.json --signal x.csv --order 10 "
     "--out c2.tvcf", KERNELS),
    ("ffc_large", "synthesize --bank bank.json --coeffs c.tvcf --order 10 "
     "--out y.csv", KERNELS),
    ("ffc_large", "denoise --signal x.csv --order 10 --out y.csv", KERNELS),
    ("solve_seismic", "inpaint --signal x.csv --mask m.csv --gamma1 0.2 "
     "--gamma2 0.5 --max-iters 5 --out y.csv", KERNELS),
    ("solve_seismic", "sparse-code --bank bank.json --signal x.csv "
     "--gamma 0.5 --max-iters 5 --out c2.tvcf", []),
    ("solve_seismic", "localize --coords xy.csv --bank bank.json "
     "--coeffs c.tvcf --signal x.csv", []),
]


def _chain_inputs(stage_files):
    """The inputs the stages of :data:`CHAIN_STAGES` read, besides those of
    ``stage_files``."""
    rng, g = default_rng(4), ring_graph(12)
    fileio.save_coords_csv(stage_files / "xy.csv", g.coords)
    fileio.save_signal_csv(stage_files / "x1.csv",
                           rng.standard_normal((12, 1)))
    fileio.save_mask_csv(stage_files / "m.csv", rng.random((12, 8)) > 0.3)
    fileio.save_spectrum_csv(stage_files / "s.csv", jft(
        rng.standard_normal((12, 8)), g.eigensystem()))
    fileio.save_coefficients_binary(stage_files / "c.tvcf",
                                    rng.standard_normal((3, 12, 8)) + 0j)
    return stage_files


def _argv(command):
    argv = command.split() + ["--report", "r.json"]
    return argv if argv[0] == "graph-gen" else argv + ["--graph", "g.csv"]


@pytest.mark.parametrize("chain, command, modules", CHAIN_STAGES,
                         ids=[f"{chain}-{command.split()[0]}"
                              for chain, command, _ in CHAIN_STAGES])
def test_benchmark_stage_loads_only_its_scipy_packages(
        chain, command, modules, stage_files, child_env):
    """The exact list of scipy modules: neither ``scipy`` itself nor a
    scipy package's ``__init__`` runs in any stage."""
    result = _child(f"value = tvgsp.cli.run({_argv(command)!r})", child_env,
                    _chain_inputs(stage_files))
    assert result == {"value": 0, "scipy": modules}


def test_chebyshev_and_solver_stages_load_only_the_sparse_kernels(
        stage_files, child_env):
    """Every stage with a sparse product, the ``cheby2d`` filter included,
    in one fresh process; its report lists the module it loaded."""
    commands = [command for _, command, modules in CHAIN_STAGES if modules]
    commands.append("filter --signal x.csv --kernel wave_gauss --method "
                    "cheby2d --order 10 --order-t 4 --out y.csv")
    argvs = [_argv(command) for command in commands]
    result = _child(f"value = [tvgsp.cli.run(a) for a in {argvs!r}]",
                    child_env, _chain_inputs(stage_files))
    assert result == {"value": [0] * len(argvs), "scipy": KERNELS}
    report = json.loads((stage_files / "r.json").read_text())
    assert report["environment"]["scipy_modules"] == KERNELS


def test_separable_filter_loads_no_scipy_sparse_package(stage_files,
                                                        child_env):
    """``--method separable`` takes the one separable named kernel,
    ``lowpass_sigmoid``, whose logistic is numpy's; its sparse products
    load only the kernels."""
    argv = _argv("filter --signal x.csv --kernel lowpass_sigmoid --param "
                 "lambda_cut=1.0 --param omega_cut=1.0 --method separable "
                 "--order 10 --out y.csv")
    result = _child(f"value = tvgsp.cli.run({argv!r})", child_env,
                    stage_files)
    assert result == {"value": 0, "scipy": KERNELS}


# makes the extension loader raise, then runs a Chebyshev stage; scipy's
# own imports take their loader class from the import system, and
# importlib.abc (which registers the class) is imported first
_NO_LOADER = """
import importlib.abc, importlib.machinery

class Refused:
    def __init__(self, *args):
        raise ImportError("loader refused")

importlib.machinery.ExtensionFileLoader = Refused
value = tvgsp.cli.run({argv!r})
"""


def _fallback_stages(tag):
    """An FFC filter, and an FFC synthesis, whose Clenshaw sum adds each
    product into its output, writing into files named by ``tag``."""
    ffc = ["--order", "10", "--graph", "g.csv"]
    return [["filter", "--kernel", "wave_gauss", "--method", "ffc", *ffc,
             "--signal", "x.csv", "--out", f"{tag}.csv",
             "--report", f"{tag}.json"],
            ["synthesize", "--bank", "bank.json", *ffc, "--coeffs", "c.tvcf",
             "--out", f"{tag}-y.csv", "--report", f"{tag}-y.json"]]


def test_kernel_load_failure_falls_back_to_scipy_sparse(stage_files,
                                                        child_env):
    """When the kernel module cannot be loaded on its own, it comes from
    ``import scipy.sparse``: same exits, and the same output bytes, the
    synthesis included, whose Clenshaw sum adds each product into its
    output; the reports show ``scipy.sparse`` among the loaded modules.
    Only the first product of a process loads the module, so each stage
    runs in its own."""
    analyze = ["analyze", "--bank", "bank.json", "--order", "10", "--graph",
               "g.csv", "--signal", "x.csv", "--out", "c.tvcf",
               "--report", "c.json"]
    loaded = _child(f"value = [tvgsp.cli.run(argv) for argv in "
                    f"{[analyze] + _fallback_stages('a')!r}]", child_env,
                    stage_files)
    assert loaded == {"value": [0, 0, 0], "scipy": KERNELS}
    for argv in _fallback_stages("b"):
        fallback = _child(_NO_LOADER.format(argv=argv), child_env,
                          stage_files)
        assert fallback["value"] == 0 and "scipy.sparse" in fallback["scipy"]
        report = json.loads((stage_files / argv[-1]).read_text())
        assert "scipy.sparse" in report["environment"]["scipy_modules"]
    for stem in ("", "-y"):
        assert ((stage_files / f"a{stem}.csv").read_bytes()
                == (stage_files / f"b{stem}.csv").read_bytes())


def _kernels_then_scipy():
    """Loads the kernel module alone, then imports ``scipy.sparse``."""
    from tvgsp.graphs import _kernels
    kernels = _kernels()
    import scipy.sparse
    from scipy.sparse import _sparsetools
    g = erdos_renyi_graph(40, 0.2, seed=2)
    X = default_rng(5).standard_normal((g.N, 6))
    return [kernels is _sparsetools, scipy.sparse.__name__,
            (g.L @ X).tolist(), g._matmul("L", X).tolist()]


def test_kernels_loaded_first_are_scipys_module(child_env):
    """A later ``import scipy.sparse`` takes the module the product loaded,
    and scipy's ``g.L @ X`` stays bitwise the product's."""
    result = _child(_call("_kernels_then_scipy"), child_env)
    same, name, scipy_product, product = result["value"]
    assert same and name == "scipy.sparse"
    assert scipy_product == product  # floats cross JSON as their repr


GRAPH_GEN = [
    ["--kind", "path", "--n", "9", "--coords-out", "xy.csv"],
    ["--kind", "ring", "--n", "11", "--coords-out", "xy.csv"],
    ["--kind", "grid2d", "--rows", "4", "--cols", "5", "--coords-out", "xy.csv"],
    ["--kind", "knn_sensor", "--n", "300", "--k", "6", "--seed", "4",
     "--coords-out", "xy.csv"],
    ["--kind", "erdos_renyi", "--n", "30", "--p", "0.3", "--seed", "5"],
]


def _graph_gen_argvs(tag):
    """``graph-gen`` of every kind, writing into files named by ``tag``."""
    return [["graph-gen", *[f"{tag}{i}-{a}" if a.endswith(".csv") else a
                            for a in argv],
             "--out", f"{tag}{i}-g.csv", "--report", f"{tag}{i}-r.json"]
            for i, argv in enumerate(GRAPH_GEN)]


def test_graph_gen_loads_no_scipy(tmp_path, child_env, monkeypatch):
    """Every kind, knn_sensor's neighbour search and the ``connected``
    metric included, runs on numpy alone, and writes in a fresh process
    the bytes and metrics it writes in this one."""
    fresh = _graph_gen_argvs("fresh")
    code = f"value = [tvgsp.cli.run(argv) for argv in {fresh!r}]"
    result = _child(code, child_env, tmp_path)
    assert result == {"value": [0] * len(fresh), "scipy": []}
    monkeypatch.chdir(tmp_path)
    here = _graph_gen_argvs("here")
    assert [cli.run(argv) for argv in here] == [0] * len(here)
    for a, b in zip(fresh, here):
        for name, other in zip(a, b):
            if name.endswith(".csv"):
                assert (tmp_path / name).read_bytes() == (
                    tmp_path / other).read_bytes()
            if name.endswith(".json"):
                assert (json.loads((tmp_path / name).read_text())["metrics"]
                        == json.loads((tmp_path / other).read_text())["metrics"])


def _sparse_laplacian():
    g = erdos_renyi_graph(40, 0.2, seed=2)
    X = default_rng(5).standard_normal((g.N, 6))
    return [g.L.indptr.tolist(), g.L.indices.tolist(), g.L.data.tolist(),
            joint_laplacian_apply(X, g).tolist()]


def _sigmoid_grid():
    kernel = named_response("lowpass_sigmoid",
                            {"lambda_cut": 3.0, "omega_cut": 1.0})
    H = grid_eval(kernel, np.linspace(0.0, 8.0, 9), 16)
    return [H.real.tolist(), H.imag.tolist()]


# floats cross JSON as their shortest repr, so equality here is bitwise
@pytest.mark.parametrize("module, case", [
    ("scipy.sparse", "_sparse_laplacian"), (None, "_sigmoid_grid")])
def test_deferred_import_loads_on_demand(module, case, child_env):
    """``scipy.sparse`` loads when a case needs it; the sigmoid lowpass
    loads no scipy module at all."""
    result = _child(_call(case), child_env)
    if module is None:
        assert result["scipy"] == []
    else:
        assert module in result["scipy"]
    assert result["value"] == globals()[case]()


def _imports(path):
    """``(module, in_function)`` of each import statement of the source
    file ``path``. A package module keeps its leading dot (``from . import
    fileio`` is ``.fileio``); the package itself is ``.``."""
    tree = ast.parse(path.read_text())
    inner = {id(node) for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = ["." + node.module]
        elif isinstance(node, ast.ImportFrom):
            names = ["." + alias.name
                     if (path.parent / f"{alias.name}.py").exists() else "."
                     for alias in node.names]
        else:
            continue
        found += [(name, id(node) in inner) for name in names]
    return found


PACKAGE_IMPORTS = {path.stem: _imports(path)
                   for path in Path(tvgsp.__file__).parent.glob("*.py")}


def test_only_scipy_sparse_and_the_cli_are_imported_in_functions():
    """The import rule: every import is at module level, except
    ``scipy.sparse`` in the three :class:`~tvgsp.graphs.Graph` methods and
    two transforms that return scipy matrices, in ``graphs._kernels``,
    which loads the kernel module through it where its file cannot be
    loaded alone, and the entry point's ``tvgsp.cli``, imported after the
    thread caps are set."""
    late = [(f"{stem}.py", name) for stem, found in PACKAGE_IMPORTS.items()
            for name, in_function in found if in_function]
    assert set(late) == {("_main.py", ".cli"), ("graphs.py", "scipy.sparse"),
                         ("transforms.py", "scipy.sparse")}
    assert len(late) == 7


def test_package_imports_form_no_cycle():
    """No module of the package imports, at module level or in a function,
    a module that imports it back, directly or through others."""
    graph = {stem: {name[1:] or "__init__" for name, _ in found
                    if name.startswith(".")}
             for stem, found in PACKAGE_IMPORTS.items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError
