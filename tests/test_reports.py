import json

import numpy as np
import pytest

from tvgsp import (RunReport, ValidationError, compaction_experiment,
                   filter_error_table, knn_sensor_graph, localize,
                   named_response)
from tvgsp.kernels import JointKernel
from tvgsp.reports import write_compaction_csv, write_filter_error_csv
from tvgsp.rng import default_rng


@pytest.fixture
def g():
    return knn_sensor_graph(20, 4, seed=41)


def test_run_report_roundtrip():
    report = RunReport(command="transform", params={"inverse": False},
                       timings_ms={"jft": 1.25}, metrics={"norm": 2.0},
                       outputs=["a.csv"], eigensystem="reused")
    again = RunReport.from_json(report.to_json())
    assert again == report


def test_run_report_reads_reports_without_environment():
    payload = json.loads(RunReport(command="x", metrics={"a": 1.0}).to_json())
    del payload["environment"], payload["eigensystem"]
    report = RunReport.from_json(json.dumps(payload))
    assert report.environment == {} and report.metrics == {"a": 1.0}
    assert report.eigensystem is None


def test_run_report_rejects_nonfinite_metric():
    with pytest.raises(ValidationError):
        RunReport(command="x", metrics={"bad": float("nan")})


def test_run_report_rejects_a_nonfinite_parameter():
    # a bare NaN is not valid JSON
    with pytest.raises(ValidationError, match="parameter 'gamma1' is not"):
        RunReport(command="x", params={"gamma1": float("nan")})


def test_compaction_p0_lossless(g):
    eig = g.eigensystem()
    X = default_rng(1).standard_normal((g.N, 8))
    curve = compaction_experiment(X, g, eig, [0.0])
    for errs in curve.errors.values():
        assert errs[0] <= 1e-12


def test_compaction_single_jft_atom(g):
    eig = g.eigensystem()
    T = 8
    # a joint atom: localize a concentrated kernel, so the JFT support is
    # genuinely sparse while vertex/time representations spread
    kernel = JointKernel(
        fn=lambda lam, omega: np.exp(-2.0 * lam) * np.exp(-4.0 * omega ** 2))
    X = localize(kernel, 3, 4, g, T, eig=eig)
    curve = compaction_experiment(X, g, eig, [50.0])
    assert curve.errors["jft"][0] <= 0.02
    assert curve.errors["dft"][0] > curve.errors["jft"][0]
    assert curve.errors["gft"][0] > curve.errors["jft"][0]


def test_compaction_monotone_and_bounded(g):
    eig = g.eigensystem()
    X = default_rng(2).standard_normal((g.N, 8))
    ps = [0.0, 25.0, 50.0, 75.0, 90.0, 99.0]
    curve = compaction_experiment(X, g, eig, ps)
    for errs in curve.errors.values():
        arr = np.asarray(errs)
        assert (arr >= 0).all() and (arr <= 1.0 + 1e-9).all()
        assert (np.diff(arr) >= -1e-12).all()


def test_compaction_percentile_validation(g):
    with pytest.raises(ValidationError):
        compaction_experiment(np.ones((g.N, 4)), g, g.eigensystem(), [100.0])


def test_compaction_csv_format(tmp_path, g):
    eig = g.eigensystem()
    X = default_rng(3).standard_normal((g.N, 4))
    curve = compaction_experiment(X, g, eig, [50.0, 90.0])
    path = tmp_path / "c.csv"
    write_compaction_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "transform,percentile,rel_error"
    assert len(lines) == 1 + 3 * 2  # one row per (transform, percentile)


def test_filter_error_table_and_csv(tmp_path, g):
    eig = g.eigensystem()
    X = default_rng(4).standard_normal((g.N, 8))
    kernels = {"tik": named_response("tikhonov", {"tau1": 0.5, "tau2": 0.5})}
    rows = filter_error_table(X, g, eig, kernels,
                              ["exact", "ffc", "cheby2d"], [3, 6])
    assert len(rows) == 1 + 2 + 2
    path = tmp_path / "errors.csv"
    write_filter_error_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "kernel,method,order,rel_error,wall_ms"
    # ffc error shrinks with order for the smooth kernel
    ffc = {r[2]: r[3] for r in rows if r[1] == "ffc"}
    assert ffc[6] <= ffc[3]
