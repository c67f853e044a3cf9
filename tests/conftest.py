import os
from pathlib import Path

import pytest

from tvgsp import build_graph, knn_sensor_graph, path_graph, ring_graph
from tvgsp.rng import default_rng


@pytest.fixture
def rng():
    return default_rng(1234)


@pytest.fixture
def p2():
    return path_graph(2)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def k3():
    return build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], 3)


@pytest.fixture
def ring8():
    return ring_graph(8)


@pytest.fixture
def sensor30():
    g = knn_sensor_graph(30, 4, seed=3)
    assert g.is_connected()
    return g


@pytest.fixture
def random_signal(rng):
    def make(n, t, complex_valued=False):
        X = rng.standard_normal((n, t))
        if complex_valued:
            X = X + 1j * rng.standard_normal((n, t))
        return X
    return make


@pytest.fixture
def child_env():
    """Environment of a child interpreter that imports tvgsp from ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, inherited] if inherited
                                          else [src])}
