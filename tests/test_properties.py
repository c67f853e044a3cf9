"""Property tests of the joint transform pair, the FFC engine and the
exact joint-spectral filters, frame operators and sparse coding on random
small kNN graphs."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvgsp import (SparseCodingSpec, analyze, build_graph, canonical_dual,
                   filter_exact,
                   filter_ffc, frame_bounds, heat_response,
                   itersine_graph_design, ijft, jft, knn_sensor_graph,
                   make_stvft, make_stvwt, mexican_hat_response, sparse_code,
                   synthesize, tikhonov_response, time_window)
from tvgsp.kernels import JointKernel
from tvgsp.rng import default_rng

from oracles import dense_jft, dense_joint_filter

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


EDGELESS = build_graph([], 6)
#: two paths and an isolated vertex
DISCONNECTED = build_graph([(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0),
                            (4, 5, 1.0), (5, 6, 0.7)], 8)


def _smooth_kernel(name, g, T):
    return {"tikhonov": tikhonov_response(0.5, 0.3),
            "heat": heat_response(1.0 / max(g.lmax, 1.0), T),
            "mexican_hat": mexican_hat_response()}[name]


@SETTINGS
@given(g=st.one_of(st.sampled_from([EDGELESS, DISCONNECTED]), graphs),
       T=st.integers(2, 12),
       name=st.sampled_from(["tikhonov", "heat", "mexican_hat"]),
       seed=st.integers(0, 10_000))
@example(g=EDGELESS, T=8, name="heat", seed=0)
@example(g=DISCONNECTED, T=7, name="mexican_hat", seed=1)
@example(g=DISCONNECTED, T=6, name="tikhonov", seed=2)
def test_ffc_fit_error_bounds_the_filter_error(g, T, name, seed):
    """``ffc_fit_error`` bounds ``||Y - Y_exact|| / ||X||`` at every order,
    up to roundoff; the error does not grow from order 10 to 40 beyond
    roundoff, though once converged it need not fall either."""
    kernel = _smooth_kernel(name, g, T)
    X = default_rng(seed).standard_normal((g.N, T))
    exact = filter_exact(X, kernel, g.eigensystem())
    errors = {}
    for order in (5, 10, 20, 40):
        info = {}
        Y = filter_ffc(X, kernel, g, order, info=info)
        errors[order] = np.linalg.norm(Y - exact) / np.linalg.norm(X)
        assert errors[order] <= info["ffc_fit_error"] * (1 + 1e-9) + 1e-12
    assert errors[40] <= max(errors[10], 1e-10)


@SETTINGS
@given(g=graphs, T=st.integers(2, 12), mother=mothers,
       num_scales=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_exact_analysis_synthesis_half_and_full_spectrum_agree(
        g, T, mother, num_scales, seed):
    # real inputs of a conjugate-symmetric bank take the half spectrum,
    # complex inputs the full one; linearity ties the two together
    rng = default_rng(seed)
    eig = g.eigensystem()
    bank = _bank(g, T, mother, num_scales)
    X, X2 = rng.standard_normal((2, g.N, T))
    C = analyze(bank, X, g, eig=eig)
    assert C.dtype == complex
    for z, kernel in enumerate(bank.kernels):
        assert _rel(C[z], filter_exact(X, kernel, eig)) <= 1e-12
    full = analyze(bank, X + 1j * X2, g, eig=eig)
    assert _rel(full, C + 1j * analyze(bank, X2, g, eig=eig)) <= 1e-12
    shape = (bank.size, g.N, T)
    C1, C2 = rng.standard_normal((2,) + shape)
    Y = synthesize(bank, C1 + 1j * C2, g, eig=eig)
    Y1 = synthesize(bank, C1, g, eig=eig)
    Y2 = synthesize(bank, C2, g, eig=eig)
    assert _rel(Y, Y1 + 1j * Y2) <= 1e-12
    assert abs(np.vdot(C, C1) - np.vdot(X, Y1)) <= 1e-10 * (
        np.linalg.norm(C) * np.linalg.norm(C1))


def _fista_reference(bank, X, g, gamma, iters):
    """FISTA on ``||synthesize(C) - X||^2 + gamma ||C||_1`` composed from
    the public exact operators: step ``1 / (2 B)``, restart on a rise."""
    eig = g.eigensystem()
    step = 1.0 / (2.0 * frame_bounds(bank, eig)[1])

    def residual(C):
        return synthesize(bank, C, g, eig=eig) - X

    def objective(C):
        return float((np.abs(residual(C)) ** 2).sum()
                     + gamma * np.abs(C).sum())

    C = np.zeros((bank.size, g.N, bank.T), dtype=complex)
    Z, t, obj = C, 1.0, objective(C)
    for _ in range(iters):
        V = Z - 2.0 * step * analyze(bank, residual(Z), g, eig=eig)
        mag = np.abs(V)
        C_new = V * np.maximum(1.0 - step * gamma / np.maximum(mag, 1e-300),
                               0.0)
        obj_new = objective(C_new)
        if obj_new > obj:
            Z, t = C_new, 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Z = C_new + ((t - 1.0) / t_new) * (C_new - C)
            t = t_new
        C, obj = C_new, obj_new
    return C, obj


@pytest.mark.parametrize("T", [7, 8])
@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("mother", ["mexican_hat", "heat", "shifted"])
@settings(derandomize=True, max_examples=5, deadline=None)
@given(g=graphs, num_scales=st.integers(1, 4), weight=st.floats(0.02, 0.5),
       iters=st.integers(1, 25), seed=st.integers(0, 10_000))
@example(g=knn_sensor_graph(14, 3, seed=5), num_scales=3, weight=0.0,
         iters=25, seed=6)
@example(g=knn_sensor_graph(14, 3, seed=5), num_scales=3, weight=1.5,
         iters=1, seed=6)
def test_sparse_code_matches_fista_from_public_operators(
        T, complex_valued, mother, g, num_scales, weight, iters, seed):
    # a real observation of a conjugate-symmetric bank (mexican_hat, heat)
    # takes the half spectrum, every other case the full one. The forward
    # map runs on the iterate's support: weight 0 keeps every coefficient
    # live, a weight above 1 none (the first step's coefficients are
    # 2 step C0, the threshold step gamma; the objective then stays put, so
    # FISTA stops after one iteration), the drawn weights some.
    bank = _bank(g, T, mother, num_scales)
    X, X2 = default_rng(seed).standard_normal((2, g.N, T))
    if complex_valued:
        X = X + 1j * X2
    C0 = analyze(bank, X, g, eig=g.eigensystem())
    gamma = weight * 2.0 * np.abs(C0).max()
    result = sparse_code(SparseCodingSpec(bank=bank, observation=X,
                                          gamma=gamma, max_iters=iters,
                                          tol=0.0), g)
    C, obj = _fista_reference(bank, X, g, gamma, iters)
    assert result.iterations == iters
    assert result.coeffs.dtype == complex
    assert abs(result.objective - obj) <= 1e-10 * obj
    assert _rel(result.coeffs, C) <= 1e-10


def test_sparse_code_evaluates_each_bank_kernel_once(monkeypatch):
    g = knn_sensor_graph(20, 4, seed=3)
    T = 8
    g.eigensystem()
    bank = _bank(g, T, "heat", 3)
    X = default_rng(4).standard_normal((g.N, T))
    calls = {}
    call = JointKernel.__call__

    def counted(self, lam, omega):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return call(self, lam, omega)

    monkeypatch.setattr(JointKernel, "__call__", counted)
    sparse_code(SparseCodingSpec(bank=bank, observation=X, gamma=0.1,
                                 max_iters=20, tol=0.0), g)
    assert calls == {id(kernel): 1 for kernel in bank.kernels}


def _signal(rng, shape, complex_valued):
    X = rng.standard_normal(shape)
    return X + 1j * rng.standard_normal(shape) if complex_valued else X


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("complex_valued", [False, True])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(g=graphs, half=st.integers(0, 6), seed=st.integers(0, 10_000))
def test_jft_unitary_and_inverse(parity, complex_valued, g, half, seed):
    T = 2 * half + parity or 2
    eig = g.eigensystem()
    rng = default_rng(seed)
    X, Y = (_signal(rng, (g.N, T), complex_valued) for _ in range(2))
    S = jft(X, eig)
    assert _rel(S, dense_jft(X, eig.vectors, T)) <= 1e-12
    assert abs(np.linalg.norm(S) - np.linalg.norm(X)) <= (
        1e-12 * np.linalg.norm(X))
    assert abs(np.vdot(S, jft(Y, eig)) - np.vdot(X, Y)) <= (
        1e-12 * np.linalg.norm(X) * np.linalg.norm(Y))
    back = ijft(S, eig)
    assert back.dtype == (complex if complex_valued else float)
    assert _rel(back, X) <= 1e-12


@pytest.mark.parametrize("shift", [0.0, 0.7])
@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("complex_valued", [False, True])
@settings(derandomize=True, max_examples=5, deadline=None)
@given(g=graphs, half=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_filter_exact_matches_dense_oracle(shift, parity, complex_valued, g,
                                           half, seed):
    # the heat response is conjugate-symmetric in omega, so a real input
    # takes the half spectrum; its omega-shifted copy always the full one
    T = 2 * half + parity
    eig = g.eigensystem()
    kernel = heat_response(1.0 / g.lmax, T).shifted(0.0, shift)
    X = _signal(default_rng(seed), (g.N, T), complex_valued)
    reference = dense_joint_filter(X, kernel, eig.vectors, eig.values, T)
    assert _rel(filter_exact(X, kernel, eig), reference) <= 1e-12


def test_dual_synthesis_evaluations_do_not_grow_with_bank_size(monkeypatch):
    g = knn_sensor_graph(20, 4, seed=3)
    T = 8
    eig = g.eigensystem()
    X = default_rng(5).standard_normal((g.N, T))
    call = JointKernel.__call__
    counts = []
    for num_scales in (2, 6):
        bank = make_stvwt(heat_response(1.0 / g.lmax, T),
                          list(np.linspace(0.3, 1.0, num_scales)), [1.0], g,
                          T, dc_kernel=tikhonov_response(1.0, 1.0))
        C = analyze(bank, X, g, eig=eig)
        calls = dict.fromkeys(map(id, bank.kernels), 0)

        def counted(self, lam, omega):
            if id(self) in calls:
                calls[id(self)] += 1
            return call(self, lam, omega)

        monkeypatch.setattr(JointKernel, "__call__", counted)
        Y = synthesize(canonical_dual(bank, eig), C, g, eig=eig)
        monkeypatch.setattr(JointKernel, "__call__", call)
        assert _rel(Y, X) <= 1e-10
        counts.append(set(calls.values()))
    assert counts[0] == counts[1]
