import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvgsp
from tvgsp import (build_graph, cli, fileio, filter_exact, graphs,
                   grid_eval, named_response, ring_graph)
from tvgsp.cli import build_parser, run
from tvgsp.kernels import _NAMED
from tvgsp.rng import default_rng


def invoke(*argv):
    return run(list(argv))


@pytest.fixture
def graph_files(tmp_path):
    code = invoke("graph-gen", "--kind", "knn_sensor", "--n", "24", "--k", "4",
                  "--seed", "3", "--out", str(tmp_path / "g.csv"),
                  "--coords-out", str(tmp_path / "c.csv"),
                  "--report", str(tmp_path / "gen.json"))
    assert code == 0
    return tmp_path / "g.csv", tmp_path / "c.csv"


def test_graph_gen_report(graph_files, tmp_path):
    report = json.loads((tmp_path / "gen.json").read_text())
    assert report["command"] == "graph-gen"
    assert report["metrics"]["num_vertices"] == 24
    assert report["metrics"]["connected"] == 1
    assert "generate" in report["timings_ms"]


def test_report_records_its_environment(tmp_path, child_env):
    """The block names the versions, the scipy modules the run loaded, the
    thread caps and the peak memory, and stays out of ``metrics``."""
    report = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tvgsp._main", "graph-gen", "--kind", "ring",
         "--n", "6", "--threads", "2", "--out", str(tmp_path / "g.csv"),
         "--report", str(report)],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    payload = json.loads(report.read_text())
    env = payload["environment"]
    import scipy
    assert {k: env[k] for k in ("python", "tvgsp", "numpy", "scipy")} == {
        "python": platform.python_version(), "tvgsp": tvgsp.__version__,
        "numpy": np.__version__, "scipy": scipy.__version__}
    assert env["scipy_modules"] == []
    assert env["thread_caps"] == dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
         "NUMEXPR_NUM_THREADS"), "2")
    if os.path.exists("/proc/self/status"):
        assert 1000 < env["peak_rss_kb"] < 10 ** 7
    else:
        assert env["peak_rss_kb"] is None
    assert "environment" not in payload["metrics"]


def test_transform_roundtrip(graph_files, tmp_path):
    gpath, _ = graph_files
    X = default_rng(1).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    assert invoke("transform", "--graph", str(gpath),
                  "--signal", str(tmp_path / "x.csv"),
                  "--out", str(tmp_path / "s.csv"),
                  "--report", str(tmp_path / "fw.json")) == 0
    assert invoke("transform", "--graph", str(gpath), "--inverse",
                  "--spectrum", str(tmp_path / "s.csv"),
                  "--out", str(tmp_path / "x2.csv"),
                  "--report", str(tmp_path / "bw.json")) == 0
    X2 = fileio.load_signal_csv(tmp_path / "x2.csv")
    assert np.linalg.norm(X2 - X) <= 1e-10 * np.linalg.norm(X)
    fw = json.loads((tmp_path / "fw.json").read_text())
    assert fw["metrics"]["parseval_gap"] <= 1e-10


def test_transform_determinism(graph_files, tmp_path):
    gpath, _ = graph_files
    X = default_rng(2).standard_normal((24, 6))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    for name in ("a.csv", "b.csv"):
        assert invoke("transform", "--graph", str(gpath),
                      "--signal", str(tmp_path / "x.csv"),
                      "--out", str(tmp_path / name),
                      "--report", str(tmp_path / "r.json")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_dynamics_heat_and_spectrum(graph_files, tmp_path):
    gpath, _ = graph_files
    x1 = np.zeros((24, 1))
    x1[5, 0] = 1.0
    fileio.save_signal_csv(tmp_path / "x1.csv", x1)
    assert invoke("dynamics", "--kind", "heat", "--s", "0.05", "--T", "16",
                  "--graph", str(gpath), "--x1", str(tmp_path / "x1.csv"),
                  "--out", str(tmp_path / "X.csv"),
                  "--emit-spectrum", str(tmp_path / "S.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    X = fileio.load_signal_csv(tmp_path / "X.csv")
    assert X.shape == (24, 16)
    assert np.allclose(X[:, 0], x1.ravel())
    S = fileio.load_spectrum_csv(tmp_path / "S.csv")
    assert S.shape == (24, 16)


def test_filter_methods_agree(graph_files, tmp_path):
    gpath, _ = graph_files
    X = default_rng(3).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    for method, out in (("exact", "ye.csv"), ("ffc", "yf.csv")):
        assert invoke("filter", "--graph", str(gpath),
                      "--signal", str(tmp_path / "x.csv"),
                      "--kernel", "tikhonov", "--param", "tau1=0.4",
                      "--param", "tau2=0.8", "--method", method,
                      "--order", "40",
                      "--out", str(tmp_path / out),
                      "--report", str(tmp_path / "r.json")) == 0
        metrics = json.loads((tmp_path / "r.json").read_text())["metrics"]
        assert ("ffc_fit_error" in metrics) == (method == "ffc")
    ye = fileio.load_signal_csv(tmp_path / "ye.csv")
    yf = fileio.load_signal_csv(tmp_path / "yf.csv")
    assert np.linalg.norm(ye - yf) <= 1e-6 * np.linalg.norm(ye)
    assert (np.linalg.norm(ye - yf)
            <= metrics["ffc_fit_error"] * np.linalg.norm(X))


def test_filter_report_reproduces_the_run(graph_files, tmp_path):
    """The report holds the kernel's resolved parameters, ``lmax`` filled
    in from the graph, and ``order_t``; passing them back as ``--param``
    and ``--order-t`` writes the same bytes."""
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(5).standard_normal((24, 8)))
    common = ["filter", "--graph", str(gpath), "--kernel", "wave_gauss",
              "--signal", str(tmp_path / "x.csv"), "--method", "cheby2d",
              "--order", "12"]
    assert invoke(*common, "--out", str(tmp_path / "a.csv"),
                  "--report", str(tmp_path / "a.json")) == 0
    params = json.loads((tmp_path / "a.json").read_text())["params"]
    lmax = build_graph(*fileio.load_edges_csv(gpath)).lmax
    assert (params["params"], params["order_t"]) == ({"lmax": lmax}, None)
    assert invoke(*common, "--param", f"lmax={params['params']['lmax']!r}",
                  "--order-t", "12", "--out", str(tmp_path / "b.csv"),
                  "--report", str(tmp_path / "b.json")) == 0
    assert json.loads((tmp_path / "b.json").read_text())["params"][
        "order_t"] == 12
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_filter_bench_csv(tmp_path):
    assert invoke("filter-bench", "--n", "20", "--t", "8", "--knn", "4",
                  "--kernels", "tikhonov", "--orders", "2,4",
                  "--methods", "exact,ffc,cheby2d",
                  "--emit", str(tmp_path / "errors.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines[0] == "kernel,method,order,rel_error,wall_ms"
    assert len(lines) == 1 + 1 + 2 + 2


def test_filter_bench_deterministic_except_walltime(tmp_path):
    for name in ("e1.csv", "e2.csv"):
        assert invoke("filter-bench", "--n", "16", "--t", "8", "--knn", "3",
                      "--kernels", "tikhonov", "--orders", "3",
                      "--methods", "ffc", "--seed", "5",
                      "--emit", str(tmp_path / name),
                      "--report", str(tmp_path / "r.json")) == 0
    strip = lambda p: [",".join(line.split(",")[:4])
                       for line in (tmp_path / p).read_text().splitlines()]
    assert strip("e1.csv") == strip("e2.csv")


def test_filter_bench_presets(tmp_path, capsys):
    assert invoke("filter-bench", "--n", "16", "--t", "8", "--knn", "3",
                  "--kernels", "lp,wave,tikhonov,heat", "--orders", "3",
                  "--methods", "exact",
                  "--emit", str(tmp_path / "e.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    rows = (tmp_path / "e.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["lp", "wave", "tikhonov",
                                                   "heat"]
    code = invoke("filter-bench", "--n", "16", "--t", "8", "--knn", "3",
                  "--kernels", "mexican_hat",
                  "--emit", str(tmp_path / "e2.csv"))
    err = _assert_invalid_input(code, capsys)
    assert "unknown benchmark kernel" in err


@pytest.fixture
def bank_file(tmp_path):
    spec = {
        "kind": "stvwt", "T": 8,
        "mother": {"name": "damped_wave", "params": {"beta": 0.5}},
        "scales_lambda": [0.4, 0.8, 1.2, 1.6, 2.0],
        "scales_omega": [1.0],
        "check_admissibility": False,
    }
    path = tmp_path / "bank.json"
    fileio.save_bank_spec(path, spec)
    return path


def test_frame_build_reports_bounds(graph_files, bank_file, tmp_path):
    gpath, _ = graph_files
    assert invoke("frame-build", "--graph", str(gpath),
                  "--bank", str(bank_file),
                  "--out", str(tmp_path / "bank_out.json"),
                  "--report", str(tmp_path / "r.json")) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    A = report["metrics"]["frame_bound_A"]
    B = report["metrics"]["frame_bound_B"]
    assert 0 < A <= B
    assert report["metrics"]["bounds_certified"] == 1
    # canonicalized spec remains loadable
    assert invoke("frame-build", "--graph", str(gpath),
                  "--bank", str(tmp_path / "bank_out.json"),
                  "--report", str(tmp_path / "r2.json")) == 0


def test_analyze_synthesize_dual_roundtrip(graph_files, bank_file, tmp_path):
    gpath, _ = graph_files
    X = default_rng(4).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    assert invoke("analyze", "--graph", str(gpath), "--bank", str(bank_file),
                  "--signal", str(tmp_path / "x.csv"), "--exact",
                  "--out", str(tmp_path / "c.tvcf"),
                  "--report", str(tmp_path / "r.json")) == 0
    assert invoke("synthesize", "--graph", str(gpath), "--bank", str(bank_file),
                  "--coeffs", str(tmp_path / "c.tvcf"), "--dual", "--exact",
                  "--out", str(tmp_path / "xr.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    Xr = fileio.load_signal_csv(tmp_path / "xr.csv")
    assert np.linalg.norm(Xr - X) <= 1e-8 * np.linalg.norm(X)


def test_separable_filter_reports_the_ffc_fit_error(graph_files, tmp_path):
    """``--method separable`` runs FFC on the product kernel: the same
    output bytes and the same error bound as ``--method ffc``."""
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(8).standard_normal((24, 8)))
    fit_errors = {}
    for method in ("separable", "ffc"):
        assert invoke("filter", "--graph", str(gpath),
                      "--signal", str(tmp_path / "x.csv"),
                      "--kernel", "lowpass_sigmoid",
                      "--param", "lambda_cut=1.0", "--param", "omega_cut=1.0",
                      "--method", method, "--order", "12",
                      "--out", str(tmp_path / f"{method}.csv"),
                      "--report", str(tmp_path / f"{method}.json")) == 0
        report = json.loads((tmp_path / f"{method}.json").read_text())
        fit_errors[method] = report["metrics"]["ffc_fit_error"]
    assert fit_errors["separable"] == fit_errors["ffc"] > 0
    assert ((tmp_path / "separable.csv").read_bytes()
            == (tmp_path / "ffc.csv").read_bytes())


def test_ffc_stages_report_fit_error(graph_files, tmp_path):
    gpath, _ = graph_files
    X = default_rng(4).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    fileio.save_bank_spec(tmp_path / "bank.json", {
        "kind": "stvwt", "T": 8,
        "mother": {"name": "mexican_hat", "params": {}},
        "scales_lambda": [0.5, 1.0], "scales_omega": [1.0]})
    common = ["--graph", str(gpath), "--order", "20"]
    runs = {
        "analyze": ["--bank", str(tmp_path / "bank.json"),
                    "--signal", str(tmp_path / "x.csv"),
                    "--out", str(tmp_path / "c.tvcf")],
        "synthesize": ["--bank", str(tmp_path / "bank.json"),
                       "--coeffs", str(tmp_path / "c.tvcf"),
                       "--out", str(tmp_path / "xs.csv")],
        "denoise": ["--signal", str(tmp_path / "x.csv"),
                    "--out", str(tmp_path / "xd.csv")],
    }
    for command, argv in runs.items():
        for exact in ([], ["--exact"]):
            report = tmp_path / f"{command}.json"
            assert invoke(command, *common, *argv, *exact,
                          "--report", str(report)) == 0
            metrics = json.loads(report.read_text())["metrics"]
            if exact:
                assert "ffc_fit_error" not in metrics
            else:
                assert 0 < metrics["ffc_fit_error"] < 1e-3


def test_synthesize_imaginary_residue_exits_3(graph_files, tmp_path, capsys):
    gpath, _ = graph_files
    fileio.save_bank_spec(tmp_path / "bank.json", {
        "kind": "stvwt", "T": 8,
        "mother": {"name": "mexican_hat", "params": {}},
        "scales_lambda": [0.5, 1.0], "scales_omega": [1.0]})
    rng = default_rng(8)
    C = rng.standard_normal((2, 24, 8)) + 1j * rng.standard_normal((2, 24, 8))
    fileio.save_coefficients_binary(tmp_path / "c.tvcf", C)
    code = invoke("synthesize", "--graph", str(gpath),
                  "--bank", str(tmp_path / "bank.json"),
                  "--coeffs", str(tmp_path / "c.tvcf"),
                  "--out", str(tmp_path / "o.csv"))
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("imaginary_residue:")
    assert not (tmp_path / "o.csv").exists()


def test_denoise_cli(graph_files, tmp_path):
    gpath, _ = graph_files
    Y = default_rng(5).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "y.csv", Y)
    assert invoke("denoise", "--graph", str(gpath),
                  "--signal", str(tmp_path / "y.csv"),
                  "--tau1", "0.71", "--tau2", "1.78", "--exact",
                  "--out", str(tmp_path / "x.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["metrics"]["objective"] > 0
    assert report["metrics"]["iterations"] == 0


def test_inpaint_cli(graph_files, tmp_path):
    gpath, _ = graph_files
    rng = default_rng(6)
    Y = rng.standard_normal((24, 8))
    M = (rng.random((24, 8)) > 0.3).astype(float)
    fileio.save_signal_csv(tmp_path / "y.csv", Y * M)
    fileio.save_mask_csv(tmp_path / "m.csv", M)
    assert invoke("inpaint", "--graph", str(gpath),
                  "--signal", str(tmp_path / "y.csv"),
                  "--mask", str(tmp_path / "m.csv"),
                  "--p", "1", "--q", "2", "--gamma1", "0.2", "--gamma2", "0.5",
                  "--max-iters", "500",
                  "--out", str(tmp_path / "x.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["metrics"]["iterations"] > 0
    assert np.isfinite(report["metrics"]["objective"])


def test_sparse_code_and_localize_cli(graph_files, bank_file, tmp_path):
    gpath, cpath = graph_files
    X = default_rng(7).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    assert invoke("sparse-code", "--graph", str(gpath),
                  "--bank", str(bank_file),
                  "--signal", str(tmp_path / "x.csv"),
                  "--gamma", "0.5", "--max-iters", "200",
                  "--out", str(tmp_path / "c.tvcf"),
                  "--report", str(tmp_path / "sc.json")) == 0
    report = json.loads((tmp_path / "sc.json").read_text())
    assert report["metrics"]["iterations"] >= 1
    assert invoke("localize", "--graph", str(gpath), "--coords", str(cpath),
                  "--coeffs", str(tmp_path / "c.tvcf"), "--top-k", "2",
                  "--signal", str(tmp_path / "x.csv"),
                  "--report", str(tmp_path / "loc.json")) == 0
    loc = json.loads((tmp_path / "loc.json").read_text())
    for key in ("estimate_x", "estimate_y", "baseline_x", "baseline_y"):
        assert 0.0 <= loc["metrics"][key] <= 1.0


def test_localize_without_energy_is_the_plain_mean(graph_files, tmp_path):
    """All-zero coefficients weigh the ``top_k`` vertices first in index
    order alike, and an all-zero signal weighs every vertex alike."""
    gpath, cpath = graph_files
    fileio.save_coefficients_binary(tmp_path / "c.tvcf",
                                    np.zeros((1, 24, 8), dtype=complex))
    fileio.save_signal_csv(tmp_path / "x.csv", np.zeros((24, 8)))
    assert invoke("localize", "--graph", str(gpath), "--coords", str(cpath),
                  "--coeffs", str(tmp_path / "c.tvcf"), "--top-k", "3",
                  "--signal", str(tmp_path / "x.csv"),
                  "--report", str(tmp_path / "loc.json")) == 0
    metrics = json.loads((tmp_path / "loc.json").read_text())["metrics"]
    coords = fileio.load_coords_csv(cpath)
    for got, want in (("estimate", coords[:3].mean(axis=0)),
                      ("baseline", coords.mean(axis=0))):
        assert [metrics[f"{got}_x"], metrics[f"{got}_y"]] == pytest.approx(
            want, rel=1e-12)


def test_compaction_cli(graph_files, tmp_path):
    gpath, _ = graph_files
    X = default_rng(8).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    assert invoke("compaction", "--graph", str(gpath),
                  "--signal", str(tmp_path / "x.csv"),
                  "--percentiles", "50,90",
                  "--out", str(tmp_path / "c.csv"),
                  "--report", str(tmp_path / "r.json")) == 0
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "transform,percentile,rel_error"
    assert len(lines) == 1 + 3 * 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run(["transform", "--nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["transform", "--nonsense"],
    ["transform", "--graph", "g.csv", "--signal", "x.csv"],
    ["graph-gen", "--kind", "ring", "--out", "g.csv", "--threads", "x"],
], ids=["unknown-flag", "missing-flag", "bad-threads"])
def test_argument_error_is_one_invalid_input_line(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid_input: "), lines
    assert captured.out == ""


def test_every_subcommand_has_its_cmd_function():
    """``run`` finds ``cmd_<name>`` by the subcommand's name."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    functions = {name for name, value in vars(cli).items()
                 if name.startswith("cmd_") and callable(value)}
    assert len(sub.choices) == len(functions)
    assert {"cmd_" + name.replace("-", "_")
            for name in sub.choices} == functions


def test_every_subcommand_help_lists_its_flags(capsys):
    """``<subcommand> --help`` exits 0 and names every flag; the shared
    ``--exact`` and ``--order`` appear under each command that has them."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        with pytest.raises(SystemExit) as err:
            run([name, "--help"])
        captured = capsys.readouterr()
        assert err.value.code == 0 and captured.err == "", name
        flags = {flag for action in parser._actions
                 for flag in action.option_strings}
        if name in ("analyze", "synthesize", "denoise"):
            assert {"--exact", "--order"} <= flags, name
        for flag in flags:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])",
                             captured.out), (name, flag)


def test_unwritable_report_exits_2_with_one_line(tmp_path, capsys):
    code = invoke("graph-gen", "--kind", "ring", "--n", "6",
                  "--out", str(tmp_path / "g.csv"),
                  "--report", str(tmp_path / "nodir" / "r.json"))
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("io_error:"), err


def test_graph_gen_without_coordinates_writes_nothing(tmp_path, capsys):
    code = invoke("graph-gen", "--kind", "erdos_renyi", "--n", "6",
                  "--p", "0.5", "--out", str(tmp_path / "g.csv"),
                  "--coords-out", str(tmp_path / "c.csv"))
    assert code == 2
    assert "provides no coordinates" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def ring_files(tmp_path):
    """An 8-vertex ring and an initial condition of 1e300 on every vertex
    (``x1_huge.csv``) or a random one (``x1.csv``)."""
    assert invoke("graph-gen", "--kind", "ring", "--n", "8",
                  "--out", str(tmp_path / "ring.csv"),
                  "--report", str(tmp_path / "gen.json")) == 0
    fileio.save_signal_csv(tmp_path / "x1_huge.csv", np.full((8, 1), 1e300))
    fileio.save_signal_csv(tmp_path / "x1.csv",
                           default_rng(2).standard_normal((8, 1)))
    return tmp_path


@pytest.mark.parametrize("x1,extra,code", [
    ("x1.csv", ["--emit-spectrum", "nodir/S.csv"], "io_error"),
    ("x1_huge.csv", [], "invalid_input"),  # the norms overflow
    ("x1.csv", ["--report", "nodir/r.json"], "io_error"),
    ("x1.csv", ["--emit-spectrum", "."], "io_error"),
], ids=["second-write-fails", "metric-not-finite", "report-not-writable",
        "second-output-is-a-directory"])
def test_failed_run_leaves_no_output(ring_files, monkeypatch, capsys, x1,
                                     extra, code):
    """A run that exits non-zero writes nothing: no output, no temporary
    file, and an output that existed keeps its bytes."""
    monkeypatch.chdir(ring_files)
    (ring_files / "X.csv").write_bytes(b"old\n")
    before = sorted(os.listdir(ring_files))
    capsys.readouterr()
    assert invoke("dynamics", "--kind", "heat", "--s", "0.1", "--T", "4",
                  "--graph", "ring.csv", "--x1", x1, "--out", "X.csv",
                  *extra) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith(f"{code}:"), err
    assert ".tmp" not in err, err
    assert sorted(os.listdir(ring_files)) == before
    assert (ring_files / "X.csv").read_bytes() == b"old\n"


def test_heat_divergence_exits_3_naming_s_and_step(ring_files, capsys):
    out = ring_files / "X.csv"
    assert invoke("dynamics", "--kind", "heat", "--s", "10", "--T", "1000",
                  "--graph", str(ring_files / "ring.csv"),
                  "--x1", str(ring_files / "x1.csv"), "--out", str(out)) == 3
    err = capsys.readouterr().err.strip()
    assert re.fullmatch(r"unstable_parameters: heat evolution with s=10 "
                        r"diverged: the iterate is not finite at step \d+",
                        err), err
    assert not out.exists()


def test_warnings_go_to_the_report_not_stderr(ring_files, child_env):
    """The heat "may diverge" warning of a run that stays finite."""
    report = ring_files / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tvgsp._main", "dynamics", "--kind", "heat",
         "--s", "0.6", "--T", "3", "--graph", str(ring_files / "ring.csv"),
         "--x1", str(ring_files / "x1.csv"),
         "--out", str(ring_files / "X.csv"), "--report", str(report)],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    payload = json.loads(report.read_text())
    assert [w.split(":")[0] for w in payload["warnings"]] == [
        "heat evolution with s=0.6 may diverge"]
    assert "warnings" not in payload["metrics"]


def test_missing_file_exits_2(tmp_path, capsys):
    code = invoke("transform", "--graph", str(tmp_path / "nope.csv"),
                  "--signal", "x.csv", "--out", str(tmp_path / "o.csv"))
    assert code == 2


def test_validation_error_single_line(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("a,b\n")
    code = invoke("transform", "--graph", str(tmp_path / "bad.csv"),
                  "--signal", "x.csv", "--out", str(tmp_path / "o.csv"))
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid_input:")


def test_numerical_error_exits_3(graph_files, tmp_path, capsys):
    gpath, _ = graph_files
    # mexican-hat STVWT without DC cover is admissible but not a frame;
    # dual synthesis must fail with a numerical error
    spec = {
        "kind": "stvwt", "T": 8,
        "mother": {"name": "mexican_hat", "params": {}},
        "scales_lambda": [0.5, 1.0],
        "scales_omega": [1.0],
    }
    fileio.save_bank_spec(tmp_path / "bank.json", spec)
    C = np.zeros((2, 24, 8), dtype=complex)
    fileio.save_coefficients_binary(tmp_path / "c.tvcf", C)
    code = invoke("synthesize", "--graph", str(gpath),
                  "--bank", str(tmp_path / "bank.json"),
                  "--coeffs", str(tmp_path / "c.tvcf"), "--dual",
                  "--out", str(tmp_path / "o.csv"))
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("not_a_frame:")


def test_report_to_stdout(graph_files, tmp_path, capsys):
    gpath, _ = graph_files
    X = default_rng(9).standard_normal((24, 4))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    assert invoke("transform", "--graph", str(gpath),
                  "--signal", str(tmp_path / "x.csv"),
                  "--out", str(tmp_path / "s.csv")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "transform"


def test_console_entry_point(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "tvgsp._main", "graph-gen", "--kind", "ring",
         "--n", "6", "--out", str(tmp_path / "g.csv"), "--threads", "1"],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["metrics"]["num_edges"] == 6


_FREEZE_AT_EXIT = """\
import atexit, gc, json, sys
atexit.register(lambda: print(json.dumps(gc.get_freeze_count() > 0)))
registered, register = [], atexit.register
atexit.register = lambda fn: registered.append(fn) or register(fn)
from tvgsp._main import main
runs = [[main(sys.argv[1:]), gc.get_freeze_count()] for _ in range(3)]
print(json.dumps([runs, registered.count(gc.freeze)]))
"""


def test_stage_process_freezes_its_heap_only_at_exit(tmp_path, child_env):
    """Loading the entry point registers ``gc.freeze`` with ``atexit`` once
    per process, however often ``main`` runs, and ``main`` returns with the
    heap unfrozen. Handlers run last in, first out, so a hook the process
    registered before loading it runs after the freeze and sees the heap
    frozen."""
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_AT_EXIT, "graph-gen", "--kind", "ring",
         "--n", "6", "--out", str(tmp_path / "g.csv"), "--report",
         str(tmp_path / "r.json"), "--threads", "1"],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        [[[0, 0]] * 3, 1], True]


_SHOW_THREAD_CAPS = """\
import json, os, sys
from tvgsp import THREAD_VARS
from tvgsp._main import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({var: os.environ.get(var) for var in THREAD_VARS}))
sys.exit(code)
"""


@pytest.mark.parametrize("env,flags,code,cap", [
    ("abc", [], 2, None),
    ("0", [], 2, None),
    ("-3", [], 2, None),
    ("2", [], 0, "2"),
    ("abc", ["--threads=3"], 0, "3"),
    (None, ["--threads=x"], 2, None),
    (None, ["--threads", "0"], 2, None),
], ids=["env-text", "env-zero", "env-negative", "env-valid",
        "flag-with-equals-wins", "flag-with-equals-text", "flag-zero"])
def test_thread_caps_come_only_from_a_positive_count(env, flags, code, cap,
                                                     tmp_path, child_env):
    """``TVGSP_THREADS`` that is not a positive integer exits 2 with one
    line naming it; no invalid count, from the environment or
    ``--threads``, sets a thread variable."""
    env_vars = {k: v for k, v in child_env.items()
                if k not in tvgsp.THREAD_VARS and k != "TVGSP_THREADS"}
    if env is not None:
        env_vars["TVGSP_THREADS"] = env
    proc = subprocess.run(
        [sys.executable, "-c", _SHOW_THREAD_CAPS, "graph-gen", "--kind",
         "ring", "--n", "5", "--out", str(tmp_path / "g.csv"),
         "--report", str(tmp_path / "r.json"), *flags],
        capture_output=True, text=True, env=env_vars)
    assert proc.returncode == code, proc.stderr
    caps = json.loads(proc.stdout.splitlines()[-1])
    assert caps == dict.fromkeys(tvgsp.THREAD_VARS, cap)
    if code == 0:
        assert proc.stderr == ""
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["environment"]["thread_caps"] == caps
        return
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid_input: "), lines
    assert ("TVGSP_THREADS" in lines[0]) == (not flags), lines
    assert sorted(os.listdir(tmp_path)) == []


def test_binary_signal_path(graph_files, tmp_path):
    gpath, _ = graph_files
    X = default_rng(10).standard_normal((24, 8))
    fileio.save_signal_binary(tmp_path / "x.bin", X)
    assert invoke("filter", "--graph", str(gpath),
                  "--signal", str(tmp_path / "x.bin"),
                  "--kernel", "lowpass_sigmoid",
                  "--param", "lambda_cut=1.0", "--param", "omega_cut=1.0",
                  "--method", "separable",
                  "--out", str(tmp_path / "y.bin"),
                  "--report", str(tmp_path / "r.json")) == 0
    Y = fileio.load_signal_binary(tmp_path / "y.bin")
    assert Y.shape == (24, 8)


# One parameter set per registered kernel name; lmax and T come from the
# graph and the signal.
NAMED_PARAMS = {
    "lowpass_sigmoid": {"lambda_cut": 1.0, "omega_cut": 1.0},
    "wave_gauss": {},
    "tikhonov": {"tau1": 0.4, "tau2": 0.8},
    "heat": {"s": 0.05},
    "mexican_hat": {},
    "damped_wave": {"beta": 0.5},
}


def test_named_params_cover_registry():
    assert set(NAMED_PARAMS) == set(_NAMED)


@pytest.mark.parametrize("name", sorted(NAMED_PARAMS))
def test_every_named_kernel_in_filter_and_bank(name, graph_files, tmp_path):
    gpath, _ = graph_files
    params = NAMED_PARAMS[name]
    X = default_rng(11).standard_normal((24, 8))
    fileio.save_signal_csv(tmp_path / "x.csv", X)
    argv = ["filter", "--graph", str(gpath), "--signal", str(tmp_path / "x.csv"),
            "--kernel", name, "--method", "exact",
            "--out", str(tmp_path / "y.csv"), "--report", str(tmp_path / "r.json")]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert invoke(*argv) == 0
    edges, n = fileio.load_edges_csv(gpath)
    g = build_graph(edges, n)
    eig = g.eigensystem()
    bank = fileio.build_bank({"kind": "stvwt", "T": 8,
                              "mother": {"name": name, "params": params},
                              "scales_lambda": [1.0], "scales_omega": [1.0],
                              "check_admissibility": False}, g)
    reference = named_response(name, params, lmax=g.lmax, T=8)
    H = grid_eval(bank.mother, eig.values, 8)
    assert np.array_equal(H, grid_eval(reference, eig.values, 8))
    Y = fileio.load_signal_csv(tmp_path / "y.csv")
    Y_bank = filter_exact(X, bank.mother, eig)
    assert np.linalg.norm(Y - Y_bank) <= 1e-12 * np.linalg.norm(Y_bank)


def _assert_invalid_input(code, capsys):
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid_input:")
    return err


@pytest.mark.parametrize("kernel,params", [
    ("tikhonov", ["tau1=abc", "tau2=1.0"]),
    ("tikhonov", ["tau1=nan", "tau2=1.0"]),
    ("heat", ["s=0.05", "T=3.7"]),
    ("tikhonov", ["tau1"]),
])
def test_filter_bad_param_exits_2(kernel, params, graph_files, tmp_path,
                                  capsys):
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv", np.ones((24, 8)))
    argv = ["filter", "--graph", str(gpath), "--signal", str(tmp_path / "x.csv"),
            "--kernel", kernel, "--out", str(tmp_path / "y.csv")]
    for item in params:
        argv += ["--param", item]
    _assert_invalid_input(invoke(*argv), capsys)
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("mother", [
    {"name": "tikhonov", "params": {"tau1": "abc", "tau2": 1.0}},
    {"name": "damped_wave", "params": {"beta": "x"}},
    {"name": "mexican_hat", "params": {"sigma": 1.0}},
])
def test_bank_spec_bad_param_exits_2(mother, graph_files, tmp_path, capsys):
    gpath, _ = graph_files
    fileio.save_bank_spec(tmp_path / "bank.json", {
        "kind": "stvwt", "T": 8, "mother": mother,
        "scales_lambda": [1.0], "scales_omega": [1.0],
        "check_admissibility": False})
    code = invoke("frame-build", "--graph", str(gpath),
                  "--bank", str(tmp_path / "bank.json"))
    _assert_invalid_input(code, capsys)


def test_non_numeric_edge_id_exits_2(tmp_path, capsys):
    (tmp_path / "g.csv").write_text("src,dst,weight\n0,1,1.0\n1,x,1.0\n")
    fileio.save_signal_csv(tmp_path / "x.csv", np.ones((2, 4)))
    code = invoke("transform", "--graph", str(tmp_path / "g.csv"),
                  "--signal", str(tmp_path / "x.csv"),
                  "--out", str(tmp_path / "s.csv"))
    err = _assert_invalid_input(code, capsys)
    assert "g.csv: line 3" in err


def test_malformed_mask_exits_2(graph_files, tmp_path, capsys):
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "y.csv", np.ones((24, 8)))
    rows = ["1,0,1,0,1,0,1,0"] * 24
    rows[5] = "1,0,1,yes,1,0,1,0"
    (tmp_path / "m.csv").write_text("\n".join(rows) + "\n")
    code = invoke("inpaint", "--graph", str(gpath),
                  "--signal", str(tmp_path / "y.csv"),
                  "--mask", str(tmp_path / "m.csv"),
                  "--gamma1", "0.2", "--gamma2", "0.5",
                  "--out", str(tmp_path / "x.csv"))
    err = _assert_invalid_input(code, capsys)
    assert "m.csv" in err


def test_non_numeric_coordinate_exits_2(graph_files, tmp_path, capsys):
    gpath, _ = graph_files
    (tmp_path / "c.csv").write_text("x,y\n0.1,0.2\n0.3,north\n")
    fileio.save_coefficients_binary(tmp_path / "c.tvcf",
                                    np.zeros((1, 24, 8), dtype=complex))
    code = invoke("localize", "--graph", str(gpath),
                  "--coords", str(tmp_path / "c.csv"),
                  "--coeffs", str(tmp_path / "c.tvcf"))
    err = _assert_invalid_input(code, capsys)
    assert "c.csv: line 3" in err


def _bad_spectrum(row, tmp_path):
    lines = ["l,k,re,im"] + [f"{l},{k},1.0,0.0" for l in range(1, 25)
                             for k in range(1, 9)]
    lines[1] = row
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
    return ["transform", "--inverse", "--spectrum", str(tmp_path / "s.csv"),
            "--out", str(tmp_path / "x.csv")]


def _empty_signal(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    return ["filter", "--signal", str(tmp_path / "empty.csv"),
            "--kernel", "tikhonov", "--param", "tau1=0.4", "--param",
            "tau2=0.8", "--out", str(tmp_path / "y.csv")]


def _nan_coordinate(tmp_path):
    coords = fileio.load_coords_csv(tmp_path / "c.csv")
    coords[3, 0] = np.nan
    fileio.save_coords_csv(tmp_path / "c.csv", coords)
    fileio.save_coefficients_binary(tmp_path / "c.tvcf",
                                    np.ones((1, 24, 8), dtype=complex))
    return ["localize", "--coords", str(tmp_path / "c.csv"),
            "--coeffs", str(tmp_path / "c.tvcf")]


def _mask_of_another_shape(tmp_path):
    fileio.save_signal_csv(tmp_path / "y.csv", np.ones((24, 8)))
    fileio.save_mask_csv(tmp_path / "m.csv", np.ones((24, 4)))
    return ["inpaint", "--signal", str(tmp_path / "y.csv"),
            "--mask", str(tmp_path / "m.csv"), "--gamma1", "0.2",
            "--gamma2", "0.5", "--out", str(tmp_path / "x.csv")]


def _no_top_vertex(tmp_path):
    fileio.save_coefficients_binary(tmp_path / "c.tvcf",
                                    np.ones((1, 24, 8), dtype=complex))
    return ["localize", "--coords", str(tmp_path / "c.csv"),
            "--coeffs", str(tmp_path / "c.tvcf"), "--top-k", "0"]


@pytest.mark.parametrize("make_argv,message", [
    (_empty_signal, "empty.csv: no data rows"),
    (lambda tmp: _bad_spectrum("1,1,nan,0.0", tmp),
     "spectrum contains NaN or Inf entries"),
    (lambda tmp: _bad_spectrum("0,1,1.0,0.0", tmp),
     "s.csv: line 2: frequency indices start at 1"),
    (_nan_coordinate, "coords contain NaN or Inf entries"),
    (_mask_of_another_shape, "mask shape (24, 4) != signal shape (24, 8)"),
    (_no_top_vertex, "top_k must lie in [1, 24]"),
], ids=["empty-signal", "nan-spectrum", "zero-based-index", "nan-coordinate",
        "mask-of-another-shape", "top-k-zero"])
def test_bad_input_file_exits_2_with_one_line(make_argv, message, graph_files,
                                               tmp_path, capsys):
    gpath, _ = graph_files
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(*make_argv(tmp_path), "--graph", str(gpath))
    assert message in _assert_invalid_input(code, capsys)


@pytest.mark.parametrize("spec,field", [
    ({"kind": "stvwt", "T": 8, "mother": "mexican_hat",
      "scales_lambda": [1.0], "scales_omega": [1.0]}, "mother"),
    ({"kind": "stvwt", "T": "abc", "mother": {"name": "mexican_hat"},
      "scales_lambda": [1.0], "scales_omega": [1.0]}, "T"),
    ({"kind": "stvwt", "T": 8, "mother": {"name": "mexican_hat"},
      "scales_lambda": ["a"], "scales_omega": [1.0]}, "scales_lambda"),
    ({"kind": "stvft", "T": 8,
      "window_graph": {"name": "itersine", "num_translates": "x"},
      "window_time": {"shape": "rectangular", "length": 4}},
     "num_translates"),
    ([{"kind": "stvwt", "T": 8}], "bank spec"),
    ({"kind": "stvft", "T": 8,
      "window_graph": {"name": "itersine", "num_translates": 1},
      "window_time": {"shape": "rectangular", "length": 4}},
     "at least two translates"),
    ({"kind": "stvft", "T": 8,
      "window_graph": {"name": "itersine", "num_translates": 3, "lmax": -1},
      "window_time": {"shape": "rectangular", "length": 4}}, "positive lmax"),
    ({"kind": "stvft", "T": 8,
      "window_graph": {"name": "itersine", "num_translates": 3},
      "window_time": {"shape": "triangle", "length": 4}},
     "unknown time window 'triangle'"),
    ({"kind": "stvft", "T": 8, "z_lambda": [],
      "window_graph": {"name": "itersine", "num_translates": 3},
      "window_time": {"shape": "rectangular", "length": 4}},
     "empty graph shift list"),
    ({"kind": "stvwt", "T": 8, "mother": {"name": "mexican_hat"},
      "scales_lambda": "1.0", "scales_omega": [1.0]}, "scales_lambda"),
    ({"kind": "stvwt", "T": 8, "mother": {"name": "mexican_hat"},
      "scales_lambda": [], "scales_omega": [1.0]}, "empty scale list"),
    ({"kind": "stvwt", "T": True, "mother": {"name": "mexican_hat"},
      "scales_lambda": [1.0], "scales_omega": [1.0]},
     "bank spec field T=True is not a positive integer"),
    ({"kind": "stvwt", "T": 8, "mother": {"name": "mexican_hat"},
      "scales_lambda": [True], "scales_omega": [1.0]},
     "bank spec field scales_lambda[0]=True is not a finite number"),
], ids=["mother-string", "T-text", "scale-text", "translates-text",
        "top-level-list", "one-translate", "negative-lmax", "unknown-window",
        "empty-shifts", "scales-string", "empty-scales", "T-boolean",
        "scale-boolean"])
def test_bank_spec_wrong_type_exits_2(spec, field, graph_files, tmp_path,
                                      capsys):
    gpath, _ = graph_files
    (tmp_path / "bank.json").write_text(json.dumps(spec))
    code = invoke("frame-build", "--graph", str(gpath),
                  "--bank", str(tmp_path / "bank.json"))
    assert field in _assert_invalid_input(code, capsys)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_non_finite_edge_weight_exits_2(weight, tmp_path, capsys):
    (tmp_path / "g.csv").write_text(
        f"src,dst,weight\n0,1,1.0\n1,2,{weight}\n")
    fileio.save_signal_csv(tmp_path / "x.csv", np.ones((3, 4)))
    code = invoke("transform", "--graph", str(tmp_path / "g.csv"),
                  "--signal", str(tmp_path / "x.csv"),
                  "--out", str(tmp_path / "s.csv"))
    err = _assert_invalid_input(code, capsys)
    assert f"non-finite weight {weight} on edge (1, 2)" in err
    assert not (tmp_path / "s.csv").exists()


def test_sparse_code_reports_restarts(graph_files, bank_file, tmp_path):
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(7).standard_normal((24, 8)))
    assert invoke("sparse-code", "--graph", str(gpath),
                  "--bank", str(bank_file),
                  "--signal", str(tmp_path / "x.csv"),
                  "--gamma", "0.5", "--max-iters", "300", "--tol", "0",
                  "--out", str(tmp_path / "c.tvcf"),
                  "--report", str(tmp_path / "sc.json")) == 0
    metrics = json.loads((tmp_path / "sc.json").read_text())["metrics"]
    assert metrics["iterations"] == 300
    assert 0 < metrics["restarts"] < 300


@pytest.mark.parametrize("command,flag,bad", [
    ("compaction", "--percentiles", "50,abc"),
    ("filter-bench", "--orders", "5,x"),
])
def test_bad_number_list_exits_2(command, flag, bad, graph_files, tmp_path,
                                 capsys):
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(8).standard_normal((24, 8)))
    argv = {"compaction": ["--graph", str(gpath),
                           "--signal", str(tmp_path / "x.csv"),
                           "--out", str(tmp_path / "o.csv")],
            "filter-bench": ["--n", "16", "--t", "8", "--knn", "3",
                             "--emit", str(tmp_path / "o.csv")]}[command]
    err = _assert_invalid_input(invoke(command, *argv, flag, bad), capsys)
    assert flag in err and bad in err
    assert not (tmp_path / "o.csv").exists()


def _inpaint(gpath, tmp_path, max_iters):
    rng = default_rng(6)
    M = (rng.random((24, 8)) > 0.3).astype(float)
    fileio.save_signal_csv(tmp_path / "y.csv",
                           rng.standard_normal((24, 8)) * M)
    fileio.save_mask_csv(tmp_path / "m.csv", M)
    return invoke("inpaint", "--graph", str(gpath),
                  "--signal", str(tmp_path / "y.csv"),
                  "--mask", str(tmp_path / "m.csv"),
                  "--gamma1", "0.2", "--gamma2", "0.5",
                  "--max-iters", str(max_iters),
                  "--out", str(tmp_path / "x.csv"),
                  "--report", str(tmp_path / "r.json"))


def test_inpaint_below_gap_window_reports_finite_gap(graph_files, tmp_path,
                                                   capsys):
    """The non-convergence warning goes to the report, not to stderr."""
    capsys.readouterr()
    assert _inpaint(graph_files[0], tmp_path, 5) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["warnings"]) == 1
    assert "did not converge in 5 iterations" in report["warnings"][0]
    metrics = report["metrics"]
    assert "warnings" not in metrics
    assert metrics["iterations"] == 5
    assert metrics["converged"] == 0
    assert 0 <= metrics["objective_gap"] < np.inf


def test_inpaint_without_iterations_exits_2(graph_files, tmp_path, capsys):
    err = _assert_invalid_input(_inpaint(graph_files[0], tmp_path, 0), capsys)
    assert "max_iters" in err
    assert not (tmp_path / "x.csv").exists()


def test_eigendecomposition_has_its_own_stage(graph_files, bank_file,
                                              tmp_path):
    """Also: every command that reads files has a ``load`` stage, and one
    that writes files (``--out``, ``--emit``) a ``write`` stage; each run
    has exactly its stages and lists exactly the files it wrote."""
    gpath, cpath = graph_files
    rng = default_rng(9)
    fileio.save_signal_csv(tmp_path / "x.csv", rng.standard_normal((24, 8)))
    fileio.save_signal_csv(tmp_path / "x1.csv", rng.standard_normal((24, 1)))
    fileio.save_mask_csv(tmp_path / "m.csv", rng.random((24, 8)) > 0.3)
    x, out = str(tmp_path / "x.csv"), str(tmp_path / "o.csv")
    bank, coeffs = ["--bank", str(bank_file)], str(tmp_path / "c.tvcf")
    evolve = ["--s", "0.05", "--T", "8", "--x1", str(tmp_path / "x1.csv"),
              "--out", out]
    spectrum, bank_out = str(tmp_path / "s.csv"), str(tmp_path / "b.json")
    emit = str(tmp_path / "e.csv")
    # (decomposes, command, exact stage names, outputs, arguments)
    runs = [
        (True, "analyze", "load eigendecomposition analyze write", [coeffs],
         [*bank, "--signal", x, "--exact", "--out", coeffs]),
        (True, "transform", "load eigendecomposition jft write", [out],
         ["--signal", x, "--out", out]),
        (True, "dynamics", "load eigendecomposition evolve write", [out],
         ["--kind", "wave", *evolve]),
        (True, "dynamics", "load eigendecomposition evolve spectrum write",
         [out, spectrum],
         ["--kind", "heat", *evolve, "--emit-spectrum", spectrum]),
        (True, "filter", "load eigendecomposition filter write", [out],
         ["--signal", x, "--kernel", "tikhonov", "--param", "tau1=1",
          "--param", "tau2=1", "--method", "exact", "--out", out]),
        (True, "frame-build", "load build eigendecomposition bounds", [],
         bank),
        (True, "frame-build", "load build eigendecomposition bounds write",
         [bank_out], [*bank, "--out", bank_out]),
        (True, "filter-bench", "load eigendecomposition bench write", [emit],
         ["--t", "8", "--kernels", "lp", "--orders", "5",
          "--methods", "exact,ffc", "--emit", emit]),
        (True, "synthesize", "load eigendecomposition synthesize write",
         [out], [*bank, "--coeffs", coeffs, "--exact", "--out", out]),
        (True, "synthesize", "load eigendecomposition dual synthesize write",
         [out], [*bank, "--coeffs", coeffs, "--dual", "--out", out]),
        (True, "denoise", "load eigendecomposition denoise write", [out],
         ["--signal", x, "--exact", "--out", out]),
        (True, "compaction", "load eigendecomposition experiment write",
         [out], ["--signal", x, "--out", out]),
        (True, "sparse-code", "load eigendecomposition solve write", [coeffs],
         [*bank, "--signal", x, "--gamma", "0.5", "--max-iters", "5",
          "--out", coeffs]),
        (False, "dynamics", "load evolve write", [out],
         ["--kind", "heat", *evolve]),
        (False, "filter", "load filter write", [out],
         ["--signal", x, "--kernel", "tikhonov", "--param", "tau1=1",
          "--param", "tau2=1", "--out", out]),
        (False, "denoise", "load denoise write", [out],
         ["--signal", x, "--out", out]),
        (False, "inpaint", "load solve write", [out],
         ["--signal", x, "--mask", str(tmp_path / "m.csv"), "--gamma1", "0.2",
          "--gamma2", "0.5", "--max-iters", "3", "--out", out]),
        (False, "localize", "load localize", [],
         ["--coords", str(cpath), *bank, "--coeffs", coeffs, "--signal", x]),
        (False, "analyze", "load analyze write", [coeffs],
         [*bank, "--signal", x, "--out", coeffs]),
    ]
    for decomposes, command, stage_names, outputs, argv in runs:
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "inpaint did not converge")
            assert invoke(command, "--graph", str(gpath), *argv,
                          "--report", str(report)) == 0
        payload = json.loads(report.read_text())
        stages = payload["timings_ms"]
        assert ("eigendecomposition" in stages) == decomposes, (command, argv)
        assert (payload["eigensystem"] in ("computed", "reused")
                if decomposes else payload["eigensystem"] is None)
        assert "load" in stages, (command, argv)
        writes = "--out" in argv or "--emit" in argv
        assert ("write" in stages) == writes, (command, argv)
        assert set(stages) == set(stage_names.split()), (command, argv)
        assert payload["outputs"] == outputs, (command, argv)
    assert invoke("graph-gen", "--kind", "ring", "--n", "6",
                  "--out", str(tmp_path / "ring.csv"),
                  "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert set(payload["timings_ms"]) == {"generate", "write"}  # reads no file
    assert payload["outputs"] == [str(tmp_path / "ring.csv")]


def _reproducible_report(path):
    """The report at ``path`` without its timings and environment, which
    differ from process to process."""
    report = json.loads(path.read_text())
    del report["timings_ms"], report["environment"]
    return report


def test_parser_is_built_once_and_reused(tmp_path, child_env, monkeypatch):
    """``run`` reuses one parser: flags of one call do not leak into the
    next, whose report equals that of a fresh process, and a ``cmd_*``
    function rebound after the parser was built is the one that runs."""
    assert build_parser() is build_parser()
    calls = []

    def traced(args, _real=cli.cmd_graph_gen):
        calls.append(args.command)
        return _real(args)

    monkeypatch.setattr(cli, "cmd_graph_gen", traced)
    assert invoke("filter-bench", "--seed", "5", "--n", "12", "--t", "4",
                  "--knn", "3", "--kernels", "lp", "--orders", "3",
                  "--methods", "exact", "--emit", str(tmp_path / "e.csv"),
                  "--report", str(tmp_path / "bench.json")) == 0
    assert json.loads((tmp_path / "bench.json").read_text())["params"][
        "seed"] == 5
    argv = ["graph-gen", "--kind", "knn_sensor", "--n", "24", "--k", "4"]
    assert invoke(*argv, "--out", str(tmp_path / "warm.csv"),
                  "--report", str(tmp_path / "warm.json")) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "tvgsp._main", *argv,
         "--out", str(tmp_path / "fresh.csv"),
         "--report", str(tmp_path / "fresh.json")],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert calls == ["graph-gen"]
    warm = _reproducible_report(tmp_path / "warm.json")
    fresh = _reproducible_report(tmp_path / "fresh.json")
    assert warm["params"]["seed"] == 0
    assert {**warm, "outputs": None} == {**fresh, "outputs": None}
    assert ((tmp_path / "warm.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())


@pytest.mark.parametrize("command", [
    ["synthesize", "--bank", "bank.json"],
    ["synthesize", "--bank", "bank.json", "--exact"],
    ["localize", "--coords", "c.csv", "--bank", "bank.json"],
], ids=["synthesize", "synthesize-exact", "localize"])
def test_non_finite_coefficients_exit_2_naming_the_file(command, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    g = ring_graph(6)
    fileio.save_edges_csv("g.csv", g)
    fileio.save_coords_csv("c.csv", g.coords)
    fileio.save_signal_csv("x.csv", default_rng(9).standard_normal((6, 8)))
    fileio.save_bank_spec("bank.json", {
        "kind": "stvwt", "T": 8, "mother": {"name": "mexican_hat"},
        "scales_lambda": [0.5, 1.0], "scales_omega": [1.0]})
    assert invoke("analyze", "--graph", "g.csv", "--bank", "bank.json",
                  "--signal", "x.csv", "--exact", "--out", "C.tvcf",
                  "--report", "r.json") == 0
    C = fileio.load_coefficients_binary("C.tvcf")
    C[0, 2, 3] = np.inf
    fileio.save_coefficients_binary("C.tvcf", C)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(*command, "--graph", "g.csv", "--coeffs", "C.tvcf",
                      *(["--out", "y.csv"] if command[0] == "synthesize"
                        else []))
    err = _assert_invalid_input(code, capsys)
    assert "C.tvcf: coefficient file contains NaN or Inf entries" in err
    assert not (tmp_path / "y.csv").exists()


_TIKHONOV = ["--kernel", "tikhonov", "--param", "tau1=0.5",
             "--param", "tau2=0.3"]


@pytest.mark.parametrize("command", [
    ["filter", "--graph", "g.csv", "--signal", "x.bin", *_TIKHONOV,
     "--method", "ffc", "--out", "y.bin"],
    ["filter", "--graph", "g.csv", "--signal", "x.bin", *_TIKHONOV,
     "--method", "exact", "--out", "y.bin"],
    ["transform", "--graph", "g.csv", "--signal", "x.bin", "--out", "S.csv"],
    ["denoise", "--graph", "g.csv", "--signal", "x.bin", "--out", "y.bin"],
    ["compaction", "--graph", "g.csv", "--signal", "x.bin",
     "--out", "curve.csv"],
    ["filter-bench", "--n", "24", "--knn", "4", "--t", "0", "--kernels", "lp",
     "--emit", "bench.csv"],
], ids=["filter-ffc", "filter-exact", "transform", "denoise", "compaction",
        "filter-bench"])
def test_empty_time_axis_exits_2_with_one_line(command, tmp_path,
                                               monkeypatch, capsys):
    """A signal with no time samples (a TVSG file with T = 0) is an
    input error, not a numpy traceback."""
    monkeypatch.chdir(tmp_path)
    fileio.save_edges_csv("g.csv", ring_graph(6))
    fileio.save_signal_binary("x.bin", np.zeros((6, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke(*command)
    err = _assert_invalid_input(code, capsys)
    assert "signal has no time samples" in err
    assert sorted(os.listdir(tmp_path)) == ["g.csv", "x.bin"]


_INPAINT = ["inpaint", "--graph", "g.csv", "--signal", "x.csv", "--mask",
            "m.csv", "--gamma1", "0.2", "--gamma2", "0.5", "--out", "y.csv"]
_SPARSE_CODE = ["sparse-code", "--graph", "g.csv", "--bank", "bank.json",
                "--signal", "x.csv", "--gamma", "0.5", "--out", "c.tvcf"]
_DENOISE = ["denoise", "--graph", "g.csv", "--signal", "x.csv",
            "--out", "y.csv"]
_DYNAMICS = ["dynamics", "--graph", "g.csv", "--x1", "x1.csv", "--T", "8",
             "--out", "X.csv"]


@pytest.mark.parametrize("command,name", [
    (_INPAINT + ["--gamma1", "nan"], "gamma_graph"),
    (_INPAINT + ["--gamma2", "nan"], "gamma_time"),
    (_INPAINT + ["--tol", "nan"], "inpaint tol"),
    (_SPARSE_CODE + ["--gamma", "nan"], "sparse coding weight gamma"),
    (_SPARSE_CODE + ["--tol", "nan"], "sparse coding tol"),
    (_DENOISE + ["--tau1", "nan"], "tau1"),
    (_DENOISE + ["--tau2", "nan"], "tau2"),
    (_DYNAMICS + ["--kind", "wave", "--s", "nan"], "wave speed s"),
    (_DYNAMICS + ["--kind", "heat", "--s", "nan"], "heat step s"),
    (["graph-gen", "--kind", "knn_sensor", "--n", "10", "--k", "3",
      "--sigma", "nan", "--out", "g2.csv"], "sigma"),
], ids=["inpaint-gamma1", "inpaint-gamma2", "inpaint-tol", "sparse-code-gamma",
        "sparse-code-tol", "denoise-tau1", "denoise-tau2", "dynamics-wave-s",
        "dynamics-heat-s", "graph-gen-sigma"])
def test_a_nan_parameter_exits_2_naming_it(command, name, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fileio.save_edges_csv("g.csv", ring_graph(6))
    fileio.save_signal_csv("x.csv", default_rng(9).standard_normal((6, 8)))
    fileio.save_signal_csv("x1.csv", np.eye(6, 1))
    fileio.save_mask_csv("m.csv", np.ones((6, 8)))
    fileio.save_bank_spec("bank.json", FUZZ_BANK)
    inputs = sorted(os.listdir(tmp_path))
    err = _assert_invalid_input(invoke(*command), capsys)
    assert f"{name}=nan is not a finite number" in err
    assert sorted(os.listdir(tmp_path)) == inputs


_HEAT = ["filter", "--graph", "g.csv", "--signal", "x.csv", "--kernel",
         "heat", "--param", "s=1e300", "--out", "y.csv"]
_CHEBY2D = ["filter", "--graph", "g.csv", "--signal", "x.csv", "--method",
            "cheby2d", "--out", "y.csv", "--kernel"]


@pytest.mark.parametrize("command,code,line", [
    (_INPAINT + ["--tol", "-1"], 2,
     "invalid_input: inpaint tol must be nonnegative"),
    (_SPARSE_CODE + ["--tol", "-1"], 2,
     "invalid_input: sparse coding tol must be nonnegative"),
    (_HEAT + ["--method", "ffc"], 3,
     "numerical_failure: kernel 'heat' has a response that is not finite"),
    (_HEAT + ["--method", "exact"], 3,
     "numerical_failure: kernel 'heat' has a response that is not finite"),
    (["graph-gen", "--kind", "ring", "--n", "6", "--k", "3",
      "--out", "g2.csv"], 2, "invalid_input: ring graph takes no parameter 'k'"),
    (_CHEBY2D + ["heat", "--param", "s=0.5"], 2,
     "invalid_input: cheby2d needs a response even in omega; "
     "kernel 'heat' is not"),
    (_CHEBY2D + ["damped_wave", "--param", "beta=0.5"], 2,
     "invalid_input: cheby2d needs a response even in omega; "
     "kernel 'damped_wave' is not"),
    (["filter-bench", "--n", "6", "--knn", "2", "--t", "-1", "--emit",
      "e.csv"], 2, "invalid_input: --t=-1 must be nonnegative"),
    (["transform", "--graph", "g.csv", "--out", "S.csv"], 2,
     "invalid_input: forward transform needs --signal"),
    (["transform", "--graph", "g.csv", "--inverse", "--out", "x2.csv"], 2,
     "invalid_input: --inverse needs --spectrum"),
    (["graph-gen", "--kind", "ring", "--n", "6", "--out", "g2.csv",
      "--threads", "0"], 2, "invalid_input: --threads must be a positive "
     "integer"),
    (["transform", "--graph", "g.csv", "--num-vertices", "-1", "--signal",
      "x.csv", "--out", "S.csv"], 2,
     "invalid_input: num_vertices must be nonnegative"),
    (_INPAINT + ["--gamma1", "-1"], 2,
     "invalid_input: gamma_graph=-1.0 must be nonnegative"),
    (_INPAINT + ["--gamma2", "-1"], 2,
     "invalid_input: gamma_time=-1.0 must be nonnegative"),
    (["graph-gen", "--kind", "knn_sensor", "--n", "10", "--k", "3",
      "--seed", "-1", "--out", "g2.csv"], 2,
     "invalid_input: seed=-1 is not a nonnegative integer"),
    (["filter-bench", "--n", "6", "--knn", "2", "--t", "4", "--seed", "-1",
      "--emit", "e.csv"], 2,
     "invalid_input: seed=-1 is not a nonnegative integer"),
    (["filter-bench", "--graph", "g.csv", "--t", "4", "--seed", "-1",
      "--emit", "e.csv"], 2,
     "invalid_input: seed=-1 is not a nonnegative integer"),
], ids=["inpaint-negative-tol", "sparse-code-negative-tol", "heat-ffc",
        "heat-exact", "graph-gen-parameter-of-another-kind", "heat-cheby2d",
        "damped-wave-cheby2d", "filter-bench-negative-t",
        "transform-without-signal", "inverse-without-spectrum",
        "zero-threads", "negative-vertex-count", "inpaint-negative-gamma1",
        "inpaint-negative-gamma2", "graph-gen-negative-seed",
        "filter-bench-negative-seed", "filter-bench-graph-negative-seed"])
def test_a_bad_control_exits_with_one_line_naming_it(command, code, line,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    """A negative tolerance, a kernel whose response overflows, a response
    that cheby2d cannot represent, a negative horizon, a generator
    parameter of another graph kind and a negative seed each end the run
    with one line that names them, and no file is written."""
    monkeypatch.chdir(tmp_path)
    fileio.save_edges_csv("g.csv", ring_graph(6))
    fileio.save_signal_csv("x.csv", default_rng(9).standard_normal((6, 8)))
    fileio.save_mask_csv("m.csv", np.ones((6, 8)))
    fileio.save_bank_spec("bank.json", FUZZ_BANK)
    inputs = sorted(os.listdir(tmp_path))
    assert invoke(*command) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line] and captured.out == ""
    assert sorted(os.listdir(tmp_path)) == inputs


def test_filter_bench_checks_every_method_before_any_work(tmp_path, capsys):
    code = invoke("filter-bench", "--n", "24", "--knn", "4", "--t", "8",
                  "--kernels", "lp", "--orders", "", "--methods", "bogus",
                  "--emit", str(tmp_path / "bench.csv"))
    err = _assert_invalid_input(code, capsys)
    assert "unknown filtering method 'bogus'" in err
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Fuzzing: malformed TVSG/TVCF bytes and bank specs never escape the contract
# ---------------------------------------------------------------------------

FUZZ_BANK = {"kind": "stvwt", "T": 8,
             "mother": {"name": "mexican_hat", "params": {}},
             "scales_lambda": [0.5, 1.0], "scales_omega": [1.0],
             "check_admissibility": False}
#: the input each fuzzed file replaces, and the command lines that read it
FUZZ_TARGETS = {
    "x.bin": [["filter", "--signal", "x.bin", "--kernel", "heat",
               "--method", "exact", "--out", "y.bin"],
              ["analyze", "--bank", "bank.json", "--signal", "x.bin",
               "--order", "8", "--out", "c2.tvcf"]],
    "c.tvcf": [["synthesize", "--bank", "bank.json", "--coeffs", "c.tvcf",
                "--exact", "--out", "y.bin"],
               ["localize", "--coords", "xy.csv", "--bank", "bank.json",
                "--coeffs", "c.tvcf"]],
    "bank.json": [["frame-build", "--bank", "bank.json"],
                  ["analyze", "--bank", "bank.json", "--signal", "x.bin",
                   "--exact", "--out", "c2.tvcf"]],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A ring graph, its coordinates, a signal, a bank spec and the
    signal's coefficients, all valid."""
    path = tmp_path_factory.mktemp("fuzz")
    g = ring_graph(6)
    fileio.save_edges_csv(path / "g.csv", g)
    fileio.save_coords_csv(path / "xy.csv", g.coords)
    fileio.save_signal_binary(path / "x.bin",
                              default_rng(5).standard_normal((6, 8)))
    fileio.save_bank_spec(path / "bank.json", FUZZ_BANK)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        assert invoke("analyze", "--graph", "g.csv", "--bank", "bank.json",
                      "--signal", "x.bin", "--exact", "--out", "c.tvcf",
                      "--report", "r.json") == 0
    finally:
        os.chdir(cwd)
    return path


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4)


@st.composite
def _fuzzed_file(draw, valid, name):
    """``valid`` truncated, or with a few bytes replaced or inserted; a
    bank spec may instead have one field replaced by another JSON value
    or deleted."""
    how = draw(st.sampled_from(["truncate", "replace", "insert", "field"]
                               if name == "bank.json" else
                               ["truncate", "replace", "insert"]))
    if how == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if how == "field":
        spec = json.loads(json.dumps(FUZZ_BANK))
        parent = draw(st.sampled_from([spec, spec["mother"]]))
        key = draw(st.sampled_from(sorted(parent) + ["params", "dc_kernel"]))
        if draw(st.booleans()):
            parent.pop(key, None)
        else:
            parent[key] = draw(_JSON)
        return json.dumps(spec).encode()
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=8))
        if how == "replace":
            data[at:at + len(chunk)] = chunk
        else:
            data[at:at] = chunk
    return bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_inputs_exit_2_or_3_with_one_line(fuzz_dir, data):
    name = data.draw(st.sampled_from(sorted(FUZZ_TARGETS)))
    argv = data.draw(st.sampled_from(FUZZ_TARGETS[name]))
    fuzzed = data.draw(_fuzzed_file((fuzz_dir / name).read_bytes(), name))
    work = fuzz_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(fuzz_dir, work, ignore=shutil.ignore_patterns("work"))
    (work / name).write_bytes(fuzzed)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = invoke(*argv, "--graph", "g.csv", "--report", "r.json")
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3), lines
    assert len(lines) <= (0 if code == 0 else 1), lines
    if code:
        assert re.fullmatch(r"[a-z_]+: .+", lines[0]), lines


def test_in_process_chain_decomposes_the_graph_once(graph_files, bank_file,
                                                   tmp_path, monkeypatch):
    """Two eigenbasis stages reading one graph file: the second takes the
    eigensystem of the first from the graph-load memo's graph and its
    report says so; the files and metrics equal those of the same chain
    with the memo emptied between the stages."""
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(5).standard_normal((24, 8)))
    calls = []
    real = graphs.eigendecompose
    monkeypatch.setattr(graphs, "eigendecompose",
                        lambda g, cap: calls.append(g.N) or real(g, cap))

    def chain(tag, empty_between):
        stages = [["transform", "--signal", "x.csv", "--out", f"{tag}.csv"],
                  ["analyze", "--bank", str(bank_file), "--signal", "x.csv",
                   "--exact", "--out", f"{tag}.tvcf"]]
        monkeypatch.setattr(cli, "_loaded", None)
        reports = []
        for i, argv in enumerate(stages):
            if empty_between:
                monkeypatch.setattr(cli, "_loaded", None)
            assert invoke(*argv, "--graph", str(gpath),
                          "--report", f"{tag}{i}.json") == 0
            reports.append(json.loads((tmp_path / f"{tag}{i}.json")
                                      .read_text()))
        return reports

    monkeypatch.chdir(tmp_path)
    memo = chain("memo", False)
    assert calls == [24]
    assert [r["eigensystem"] for r in memo] == ["computed", "reused"]
    fresh = chain("fresh", True)
    assert calls == [24, 24, 24]
    assert [r["eigensystem"] for r in fresh] == ["computed", "computed"]
    assert [r["metrics"] for r in memo] == [r["metrics"] for r in fresh]
    for ext in ("csv", "tvcf"):
        assert ((tmp_path / f"memo.{ext}").read_bytes()
                == (tmp_path / f"fresh.{ext}").read_bytes())


def _counting(monkeypatch, module, name):
    """Calls of ``module.name`` from now on, each recorded as its first
    argument."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    return calls


def test_in_process_chain_parses_the_graph_file_once(graph_files, bank_file,
                                                     tmp_path, monkeypatch):
    """Five stages reading one graph file parse it and build its graph
    once; their files and report metrics equal those of the same chain
    with the graph-load memo emptied before every stage."""
    gpath, cpath = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(5).standard_normal((24, 8)))
    parsed = _counting(monkeypatch, fileio, "load_edges_csv")
    built = _counting(monkeypatch, cli, "build_graph")

    def chain(tag, empty_between):
        stages = [["filter", "--signal", "x.csv", "--kernel", "wave_gauss",
                   "--order", "12", "--out", f"{tag}-f.csv"],
                  ["analyze", "--bank", str(bank_file), "--signal", "x.csv",
                   "--order", "12", "--out", f"{tag}.tvcf"],
                  ["synthesize", "--bank", str(bank_file), "--coeffs",
                   f"{tag}.tvcf", "--order", "12", "--out", f"{tag}-s.csv"],
                  ["denoise", "--signal", "x.csv", "--order", "12",
                   "--out", f"{tag}-d.csv"],
                  ["localize", "--coords", str(cpath), "--coeffs",
                   f"{tag}.tvcf", "--signal", "x.csv"]]
        monkeypatch.setattr(cli, "_loaded", None)
        parsed.clear()
        built.clear()
        metrics = []
        for i, argv in enumerate(stages):
            if empty_between:
                monkeypatch.setattr(cli, "_loaded", None)
            assert invoke(*argv, "--graph", str(gpath),
                          "--report", f"{tag}{i}.json") == 0
            metrics.append(json.loads((tmp_path / f"{tag}{i}.json")
                                      .read_text())["metrics"])
        return metrics, len(parsed), len(built)

    monkeypatch.chdir(tmp_path)
    memo, fresh = chain("memo", False), chain("fresh", True)
    assert memo[1:] == (1, 1) and fresh[1:] == (5, 5)
    assert memo[0] == fresh[0]
    for name in ("f.csv", ".tvcf", "s.csv", "d.csv"):
        sep = "" if name.startswith(".") else "-"
        assert ((tmp_path / f"memo{sep}{name}").read_bytes()
                == (tmp_path / f"fresh{sep}{name}").read_bytes())


def test_graph_load_memo_misses_on_other_bytes_or_vertex_count(
        graph_files, tmp_path, monkeypatch):
    """Other bytes at the same path, the same edges with CRLF line ends, and
    another ``--num-vertices`` each parse the file again; a repeat does
    not, and every run writes what a run with the memo emptied writes."""
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(5).standard_normal((24, 8)))
    fileio.save_signal_csv(tmp_path / "x25.csv",
                           default_rng(5).standard_normal((25, 8)))
    original = gpath.read_bytes()
    heavier = original.replace(b",0.", b",1.", 1)
    assert heavier != original
    parsed = _counting(monkeypatch, fileio, "load_edges_csv")

    def transform(data, signal="x.csv", extra=()):
        gpath.write_bytes(data)
        assert invoke("transform", "--graph", str(gpath), "--signal", signal,
                      "--out", "S.csv", *extra) == 0
        return (tmp_path / "S.csv").read_bytes()

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_loaded", None)
    runs = [(original,), (original,), (heavier,),
            (original.replace(b"\n", b"\r\n"),),
            (original, "x25.csv", ("--num-vertices", "25")), (original,)]
    got = [transform(*run) for run in runs]
    assert len(parsed) == 5  # the repeat hits
    for run, out in zip(runs, got):
        monkeypatch.setattr(cli, "_loaded", None)
        assert transform(*run) == out
    assert got[0] == got[1] == got[3] == got[5] != got[2]


def test_a_malformed_graph_file_is_not_memoized(tmp_path, monkeypatch,
                                                capsys):
    (tmp_path / "g.csv").write_text("src,dst,weight\n0,1,1.0\n1,x,1.0\n")
    fileio.save_signal_csv(tmp_path / "x.csv", np.ones((2, 4)))
    monkeypatch.setattr(cli, "_loaded", None)
    parsed = _counting(monkeypatch, fileio, "load_edges_csv")
    errors = []
    for _ in range(2):
        assert invoke("transform", "--graph", str(tmp_path / "g.csv"),
                      "--signal", str(tmp_path / "x.csv"),
                      "--out", str(tmp_path / "S.csv")) == 2
        errors.append(capsys.readouterr().err)
    assert len(parsed) == 2 and cli._loaded is None
    assert errors[0] == errors[1]
    assert re.fullmatch(r"invalid_input: \S+g\.csv: line 3: malformed edge "
                        r"row \(non-numeric, missing or extra field\)\n",
                        errors[0])


def test_coordinates_are_read_on_a_memo_hit(graph_files, tmp_path,
                                            monkeypatch):
    """``--coords`` is no part of the memo's key: a hit with other
    coordinates reports those."""
    gpath, cpath = graph_files
    fileio.save_coefficients_binary(tmp_path / "c.tvcf",
                                    np.zeros((1, 24, 8), dtype=complex))
    coords = fileio.load_coords_csv(cpath)
    fileio.save_coords_csv(tmp_path / "moved.csv", coords + 1.0)
    parsed = _counting(monkeypatch, fileio, "load_edges_csv")
    monkeypatch.setattr(cli, "_loaded", None)

    def estimate(path):
        assert invoke("localize", "--graph", str(gpath), "--coords",
                      str(path), "--coeffs", str(tmp_path / "c.tvcf"),
                      "--top-k", "3", "--report", str(tmp_path / "r.json")) == 0
        metrics = json.loads((tmp_path / "r.json").read_text())["metrics"]
        return [metrics["estimate_x"], metrics["estimate_y"]]

    first, moved = estimate(cpath), estimate(tmp_path / "moved.csv")
    assert len(parsed) == 1
    assert first == pytest.approx(coords[:3].mean(axis=0), rel=1e-12)
    assert moved == pytest.approx(np.add(first, 1.0), rel=1e-12)


_COMPACTION = ["compaction", "--graph", "g.csv", "--signal", "x.csv",
               "--out", "c.csv", "--percentiles"]


@pytest.mark.parametrize("percentiles,line", [
    ("", "invalid_input: percentiles must not be empty"),
    (",", "invalid_input: percentiles must not be empty"),
    ("150", "invalid_input: percentiles must lie in [0, 100)"),
    ("-1", "invalid_input: percentiles must lie in [0, 100)"),
], ids=["no-percentile", "only-a-comma", "above-100", "negative"])
def test_compaction_refuses_bad_percentiles_before_decomposing(
        percentiles, line, tmp_path, monkeypatch, capsys):
    """An empty list or a percentile outside ``[0, 100)`` ends the run with
    one line naming it before the eigendecomposition, and no file is
    written."""
    monkeypatch.chdir(tmp_path)
    fileio.save_edges_csv("g.csv", ring_graph(6))
    fileio.save_signal_csv("x.csv", default_rng(9).standard_normal((6, 8)))
    monkeypatch.setattr(cli, "_loaded", None)
    decomposed = _counting(monkeypatch, graphs, "eigendecompose")
    inputs = sorted(os.listdir(tmp_path))
    assert invoke(*_COMPACTION, percentiles) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line] and captured.out == ""
    assert decomposed == []
    assert sorted(os.listdir(tmp_path)) == inputs


def test_a_graph_file_can_be_a_pipe_on_a_miss_and_a_hit(graph_files,
                                                        tmp_path, monkeypatch):
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv",
                           default_rng(5).standard_normal((24, 8)))
    monkeypatch.setattr(cli, "_loaded", None)
    outs = []
    for source in ("pipe", "pipe", "file"):
        out = tmp_path / f"S{len(outs)}.csv"
        argv = ["transform", "--signal", str(tmp_path / "x.csv"),
                "--out", str(out)]
        if source == "file":
            monkeypatch.setattr(cli, "_loaded", None)
            assert invoke(*argv, "--graph", str(gpath)) == 0
        else:
            read_end, write_end = os.pipe()
            try:
                with os.fdopen(write_end, "wb") as fh:
                    fh.write(gpath.read_bytes())
                assert invoke(*argv, "--graph", f"/dev/fd/{read_end}") == 0
            finally:
                os.close(read_end)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_a_bad_spectrum_from_a_pipe_names_its_line(graph_files, tmp_path,
                                                  capsys):
    """The spectrum is read once, so its bad line is found in the bytes
    read, as for a regular file, not by reading a drained pipe again."""
    gpath, _ = graph_files
    text = b"l,k,re,im\n1,1,1.0,0.0\n1,1,2.0,0.0\n"
    (tmp_path / "S.csv").write_bytes(text)
    argv = ["transform", "--inverse", "--graph", str(gpath),
            "--out", str(tmp_path / "x.csv"), "--spectrum"]
    for source in ("pipe", "file"):
        if source == "file":
            path = str(tmp_path / "S.csv")
            code = invoke(*argv, path)
        else:
            read_end, write_end = os.pipe()
            path = f"/dev/fd/{read_end}"
            try:
                with os.fdopen(write_end, "wb") as fh:
                    fh.write(text)
                code = invoke(*argv, path)
            finally:
                os.close(read_end)
        assert code == 2
        assert capsys.readouterr().err == (
            f"invalid_input: {path}: line 3: duplicate entry for l=1, k=1\n")


@pytest.mark.parametrize("command,owner,name,where", [
    ("filter", cli, "filter_ffc", "filter"),
    ("filter", fileio, "load_signal", "load"),
    ("inpaint", cli, "Regularizer", "inpaint"),
], ids=["in-a-work-stage", "in-the-load-stage", "outside-any-stage"])
def test_out_of_memory_is_one_line_with_exit_3(command, owner, name, where,
                                               graph_files, tmp_path,
                                               monkeypatch, capsys):
    """A ``MemoryError`` names the stage that ran out, else the command,
    and leaves no output behind."""
    gpath, _ = graph_files
    fileio.save_signal_csv(tmp_path / "x.csv", np.ones((24, 8)))
    fileio.save_mask_csv(tmp_path / "m.csv", np.ones((24, 8)))
    before = sorted(os.listdir(tmp_path))

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(owner, name, refuse)
    flags = {"filter": ["--kernel", "wave_gauss"],
             "inpaint": ["--mask", str(tmp_path / "m.csv"),
                         "--gamma1", "0.2", "--gamma2", "0.5"]}[command]
    assert invoke(command, "--graph", str(gpath), "--signal",
                  str(tmp_path / "x.csv"), *flags,
                  "--out", str(tmp_path / "y.csv"),
                  "--report", str(tmp_path / "r.json")) == 3
    assert capsys.readouterr().err == (
        f"out_of_memory: {where}: Unable to allocate 7.45 GiB for an array\n")
    assert sorted(os.listdir(tmp_path)) == before
