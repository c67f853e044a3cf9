"""Property tests of the FFC engine on random small kNN graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgsp import (analyze, filter_ffc, heat_response, itersine_graph_design,
                   knn_sensor_graph, make_stvft, make_stvwt,
                   mexican_hat_response, synthesize, time_window)
from tvgsp.rng import default_rng

SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)

graphs = st.builds(knn_sensor_graph, st.integers(8, 30), st.integers(2, 5),
                   seed=st.integers(0, 10_000))


def _bank(g, T, mother, num_scales):
    """STVWT bank of a real even (``mexican_hat``), complex-valued but
    conjugate-symmetric (``heat``) or non-symmetric (``shifted``) mother."""
    kernel = {"mexican_hat": mexican_hat_response(),
              "heat": heat_response(1.0 / g.lmax, T),
              "shifted": mexican_hat_response().shifted(0.0, 0.7)}[mother]
    return make_stvwt(kernel, list(np.linspace(0.3, 1.0, num_scales)), [1.0],
                      g, T, check_admissibility=False)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


mothers = st.sampled_from(["mexican_hat", "heat", "shifted"])


@SETTINGS
@given(g=graphs, T=st.integers(3, 12), mother=mothers,
       num_scales=st.integers(1, 4), order=st.integers(0, 25),
       seed=st.integers(0, 10_000))
def test_ffc_adjoint_identity_real_and_complex_coefficients(
        g, T, mother, num_scales, order, seed):
    rng = default_rng(seed)
    bank = _bank(g, T, mother, num_scales)
    X = rng.standard_normal((g.N, T))
    AX = analyze(bank, X, g, order=order)
    shape = (bank.size, g.N, T)
    real_C = rng.standard_normal(shape)                 # half spectrum
    complex_C = real_C + 1j * rng.standard_normal(shape)  # full spectrum
    for C in (real_C, complex_C):
        lhs = np.vdot(AX, C)
        rhs = np.vdot(X, synthesize(bank, C, g, order=order))
        scale = np.linalg.norm(AX) * np.linalg.norm(C)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-300)


@SETTINGS
@given(g=graphs, T=st.integers(2, 12), mother=mothers,
       num_scales=st.integers(1, 4), order=st.integers(0, 25),
       seed=st.integers(0, 10_000))
def test_bank_analysis_per_kernel_half_spectrum_and_bound(
        g, T, mother, num_scales, order, seed):
    rng = default_rng(seed)
    bank = _bank(g, T, mother, num_scales)
    X = rng.standard_normal((g.N, T))
    X2 = rng.standard_normal((g.N, T))
    info = {}
    C = analyze(bank, X, g, order=order, info=info)
    for z, kernel in enumerate(bank.kernels):
        assert _rel(C[z], filter_ffc(X, kernel, g, order)) <= 1e-12
    # a complex input always takes the full spectrum
    full = analyze(bank, X + 1j * X2, g, order=order)
    assert _rel(full, C + 1j * analyze(bank, X2, g, order=order)) <= 1e-12
    exact = analyze(bank, X, g, eig=g.eigensystem())
    bound = info["ffc_fit_error"] * np.linalg.norm(X)
    for z in range(bank.size):
        assert np.linalg.norm(C[z] - exact[z]) <= bound * (1 + 1e-9) + 1e-12


@SETTINGS
@given(g=graphs, num_translates=st.integers(2, 4),
       shape=st.sampled_from(["rectangular", "hann"]),
       length=st.sampled_from([2, 4]), hop=st.sampled_from([1, 2]),
       periods=st.integers(1, 3), order=st.integers(3, 25),
       seed=st.integers(0, 10_000))
def test_stvft_ffc_within_reported_fit_error(g, num_translates, shape, length,
                                             hop, periods, order, seed):
    T = 4 * periods
    h_graph, shifts = itersine_graph_design(g.lmax, num_translates)
    bank = make_stvft(h_graph, time_window(shape, length), shifts, hop, g, T)
    X = default_rng(seed).standard_normal((g.N, T))
    info = {}
    fast = analyze(bank, X, g, order=order, info=info)
    exact = analyze(bank, X, g, eig=g.eigensystem())
    bound = info["ffc_fit_error"] * np.linalg.norm(X)
    for z in range(bank.size):
        assert np.linalg.norm(fast[z] - exact[z]) <= bound * (1 + 1e-9) + 1e-12
