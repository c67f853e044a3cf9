import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tvgsp import (build_graph, cli, fileio, filter_exact, grid_eval,
                   named_response)
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


@pytest.mark.parametrize("make_argv,message", [
    (_empty_signal, "empty.csv: no data rows"),
    (lambda tmp: _bad_spectrum("1,1,nan,0.0", tmp),
     "spectrum contains NaN or Inf entries"),
    (lambda tmp: _bad_spectrum("0,1,1.0,0.0", tmp),
     "s.csv: line 2: frequency indices start at 1"),
    (_nan_coordinate, "coords contain NaN or Inf entries"),
], ids=["empty-signal", "nan-spectrum", "zero-based-index", "nan-coordinate"])
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
], ids=["mother-string", "T-text", "scale-text", "translates-text",
        "top-level-list"])
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


def test_inpaint_below_gap_window_reports_finite_gap(graph_files, tmp_path):
    with pytest.warns(UserWarning, match="did not converge"):
        assert _inpaint(graph_files[0], tmp_path, 5) == 0
    metrics = json.loads((tmp_path / "r.json").read_text())["metrics"]
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
    that writes files (``--out``, ``--emit``) a ``write`` stage."""
    gpath, cpath = graph_files
    rng = default_rng(9)
    fileio.save_signal_csv(tmp_path / "x.csv", rng.standard_normal((24, 8)))
    fileio.save_signal_csv(tmp_path / "x1.csv", rng.standard_normal((24, 1)))
    fileio.save_mask_csv(tmp_path / "m.csv", rng.random((24, 8)) > 0.3)
    x, out = str(tmp_path / "x.csv"), str(tmp_path / "o.csv")
    bank, coeffs = ["--bank", str(bank_file)], str(tmp_path / "c.tvcf")
    evolve = ["--s", "0.05", "--T", "8", "--x1", str(tmp_path / "x1.csv"),
              "--out", out]
    runs = [
        (True, "analyze", [*bank, "--signal", x, "--exact", "--out", coeffs]),
        (True, "transform", ["--signal", x, "--out", out]),
        (True, "dynamics", ["--kind", "wave", *evolve]),
        (True, "dynamics", ["--kind", "heat", *evolve,
                            "--emit-spectrum", str(tmp_path / "s.csv")]),
        (True, "filter", ["--signal", x, "--kernel", "tikhonov",
                          "--param", "tau1=1", "--param", "tau2=1",
                          "--method", "exact", "--out", out]),
        (True, "frame-build", bank),
        (True, "frame-build", [*bank, "--out", str(tmp_path / "b.json")]),
        (True, "filter-bench", ["--t", "8", "--kernels", "lp", "--orders",
                                "5", "--methods", "exact,ffc",
                                "--emit", str(tmp_path / "e.csv")]),
        (True, "synthesize", [*bank, "--coeffs", coeffs, "--exact",
                              "--out", out]),
        (True, "synthesize", [*bank, "--coeffs", coeffs, "--dual",
                              "--out", out]),
        (True, "denoise", ["--signal", x, "--exact", "--out", out]),
        (True, "compaction", ["--signal", x, "--out", out]),
        (True, "sparse-code", [*bank, "--signal", x, "--gamma", "0.5",
                               "--max-iters", "5", "--out", coeffs]),
        (False, "dynamics", ["--kind", "heat", *evolve]),
        (False, "filter", ["--signal", x, "--kernel", "tikhonov",
                           "--param", "tau1=1", "--param", "tau2=1",
                           "--out", out]),
        (False, "denoise", ["--signal", x, "--out", out]),
        (False, "inpaint", ["--signal", x, "--mask", str(tmp_path / "m.csv"),
                            "--gamma1", "0.2", "--gamma2", "0.5",
                            "--max-iters", "3", "--out", out]),
        (False, "localize", ["--coords", str(cpath), *bank,
                             "--coeffs", coeffs, "--signal", x]),
        (False, "analyze", [*bank, "--signal", x, "--out", coeffs]),
    ]
    for decomposes, command, argv in runs:
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "inpaint did not converge")
            assert invoke(command, "--graph", str(gpath), *argv,
                          "--report", str(report)) == 0
        stages = json.loads(report.read_text())["timings_ms"]
        assert ("eigendecomposition" in stages) == decomposes, (command, argv)
        assert "load" in stages, (command, argv)
        writes = "--out" in argv or "--emit" in argv
        assert ("write" in stages) == writes, (command, argv)
    assert invoke("graph-gen", "--kind", "ring", "--n", "6",
                  "--out", str(tmp_path / "ring.csv"),
                  "--report", str(report)) == 0
    stages = json.loads(report.read_text())["timings_ms"]
    assert set(stages) == {"generate", "write"}  # graph-gen reads no file


def _report_without_timings(path):
    report = json.loads(path.read_text())
    del report["timings_ms"]
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
    warm = _report_without_timings(tmp_path / "warm.json")
    fresh = _report_without_timings(tmp_path / "fresh.json")
    assert warm["params"]["seed"] == 0
    assert {**warm, "outputs": None} == {**fresh, "outputs": None}
    assert ((tmp_path / "warm.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())
