import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvgsp import (FilterBank, InverseProblemSpec, JointKernel,
                   NotAFrameError, Regularizer, SparseCodingSpec,
                   ValidationError, analyze, build_graph, damped_wave_response,
                   denoise_tikhonov, inpaint, itersine_graph_design,
                   knn_sensor_graph, localize_source, make_stvft, make_stvwt,
                   normalize_tight, ring_graph, signal_energy_centroid,
                   sparse_code, synthesize, time_window, variation_norm)
from tvgsp.rng import default_rng

from oracles import (masked_quadratic_objective, masked_quadratic_solve,
                     masked_quadratic_system, tikhonov_normal_equations)


@pytest.fixture
def g():
    graph = knn_sensor_graph(20, 4, seed=29)
    assert graph.is_connected()
    return graph


def test_denoise_zero_weights_identity(g):
    Y = default_rng(0).standard_normal((g.N, 8))
    out = denoise_tikhonov(Y, g, 0.0, 0.0, eig=g.eigensystem())
    assert np.linalg.norm(out - Y) <= 1e-12 * np.linalg.norm(Y)


def test_denoise_strong_time_weight_gives_time_mean():
    g = ring_graph(12)
    rng = default_rng(1)
    Y = rng.standard_normal((12, 16))
    out = denoise_tikhonov(Y, g, 0.0, 1e6, eig=g.eigensystem())
    target = np.tile(Y.mean(axis=1, keepdims=True), (1, 16))
    assert np.linalg.norm(out - target) / np.linalg.norm(target) <= 1e-4


def test_denoise_matches_normal_equations(g):
    rng = default_rng(2)
    for tau1, tau2 in [(0.71, 1.78), (0.1, 0.0), (0.0, 2.5), (3.0, 0.4)]:
        Y = rng.standard_normal((g.N, 12))  # N T = 240 <= 256
        mine = denoise_tikhonov(Y, g, tau1, tau2, eig=g.eigensystem())
        oracle = tikhonov_normal_equations(Y, g.L.toarray(), tau1, tau2)
        assert np.linalg.norm(mine - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_denoise_stationary_point(g):
    rng = default_rng(3)
    Y = rng.standard_normal((g.N, 10))
    tau1, tau2 = 0.6, 1.1
    X = denoise_tikhonov(Y, g, tau1, tau2, eig=g.eigensystem())
    # explicit objective gradient: 2 (X - Y) + 2 tau1 L X + 2 tau2 X L_T
    Lt_part = 2.0 * X - np.roll(X, 1, axis=1) - np.roll(X, -1, axis=1)
    grad = 2.0 * (X - Y) + 2.0 * tau1 * (g.L @ X) + 2.0 * tau2 * Lt_part
    assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(Y)


def test_denoise_ffc_path_close_to_exact(g):
    Y = default_rng(4).standard_normal((g.N, 8))
    exact = denoise_tikhonov(Y, g, 0.71, 1.78, eig=g.eigensystem())
    fast = denoise_tikhonov(Y, g, 0.71, 1.78, order=60)
    assert np.linalg.norm(fast - exact) <= 1e-6 * np.linalg.norm(exact)


def test_inpaint_full_mask_quadratic_matches_denoise(g):
    rng = default_rng(5)
    Y = rng.standard_normal((g.N, 8))
    gamma2 = 1.3
    spec = InverseProblemSpec(
        observation=Y, mask=np.ones_like(Y),
        regularizer=Regularizer(p=2, q=2, gamma_graph=0.0, gamma_time=gamma2),
        max_iters=20000, tol=1e-12)
    result = inpaint(spec, g)
    closed = denoise_tikhonov(Y, g, 0.0, gamma2, eig=g.eigensystem())
    assert result.converged
    assert np.linalg.norm(result.signal - closed) <= 1e-6 * np.linalg.norm(closed)


def test_inpaint_constant_completion(g):
    Y = np.full((g.N, 6), 2.5)
    M = np.ones_like(Y)
    M[3, 2] = 0.0
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=1, q=2, gamma_graph=1.0, gamma_time=1.0),
        max_iters=2000, tol=1e-10)
    result = inpaint(spec, g)
    assert abs(result.signal[3, 2] - 2.5) <= 1e-6


def test_inpaint_quadratic_oracle_objective(g):
    rng = default_rng(6)
    Y = rng.standard_normal((g.N, 8))
    M = (rng.random(Y.shape) > 0.3).astype(float)
    gamma2 = 0.8
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=2, q=2, gamma_graph=0.0, gamma_time=gamma2),
        max_iters=30000, tol=1e-13)
    result = inpaint(spec, g)
    X_star = masked_quadratic_solve(Y, M, g.L.toarray(), 0.0, gamma2)
    obj_star = masked_quadratic_objective(X_star, Y, M, g, 0.0, gamma2)
    assert result.objective <= obj_star * (1 + 1e-4) + 1e-12


def test_inpaint_trace_monotone_and_warns(g):
    rng = default_rng(7)
    Y = rng.standard_normal((g.N, 6))
    M = (rng.random(Y.shape) > 0.4).astype(float)
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=1, q=2, gamma_graph=0.3, gamma_time=0.5),
        max_iters=5, tol=1e-14)
    with pytest.warns(UserWarning, match="did not converge"):
        result = inpaint(spec, g)
    assert not result.converged
    trace = np.asarray(result.objective_trace)
    assert (np.diff(trace) <= 1e-10).all()


def test_inpaint_validation(g):
    Y = np.ones((g.N, 4))
    with pytest.raises(ValidationError, match="observed"):
        inpaint(InverseProblemSpec(
            observation=Y, mask=np.zeros_like(Y),
            regularizer=Regularizer()), g)
    with pytest.raises(ValidationError):
        inpaint(InverseProblemSpec(
            observation=Y, mask=np.full_like(Y, 0.5),
            regularizer=Regularizer()), g)
    with pytest.raises(ValidationError):
        Regularizer(p=3, q=2)


@st.composite
def small_graphs(draw):
    """A weighted graph on 2-7 vertices, edgeless ones included."""
    n = draw(st.integers(2, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.floats(0.1, 3.0)), max_size=12))
    edges = {(min(i, j), max(i, j)): w for i, j, w in pairs if i != j}
    return build_graph([(i, j, w) for (i, j), w in edges.items()], n)


weights = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


def _inpaint_case(g, T, seed, p, q, gamma1, gamma2, max_iters, tol):
    rng = default_rng(seed)
    Y = rng.standard_normal((g.N, T))
    M = (rng.random(Y.shape) < 0.6).astype(float)
    assume(M.sum() > 0)
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=p, q=q, gamma_graph=gamma1,
                                gamma_time=gamma2),
        max_iters=max_iters, tol=tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Y, M, inpaint(spec, g)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=small_graphs(), T=st.sampled_from([1, 2, 7, 8]), gamma1=weights,
       gamma2=weights, seed=st.integers(0, 10_000))
def test_inpaint_quadratic_matches_the_dense_solve(g, T, gamma1, gamma2,
                                                   seed):
    Y, M, result = _inpaint_case(g, T, seed, 2, 2, gamma1, gamma2, 5000,
                                 1e-13)
    A = masked_quadratic_system(M, g.L.toarray(), gamma1, gamma2)
    assume(np.linalg.matrix_rank(A) == A.shape[0])
    X_star = masked_quadratic_solve(Y, M, g.L.toarray(), gamma1, gamma2)
    obj_star = masked_quadratic_objective(X_star, Y, M, g, gamma1, gamma2)
    assert abs(result.objective - obj_star) <= 1e-6 * max(obj_star, 1.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(g=small_graphs(), T=st.sampled_from([1, 2, 7, 8]),
       orders=st.sampled_from([(1, 1), (1, 2), (2, 1)]), gamma1=weights,
       gamma2=weights, seed=st.integers(0, 10_000))
def test_inpaint_l1_trace_is_finite_and_non_increasing(g, T, orders, gamma1,
                                                       gamma2, seed):
    p, q = orders
    Y, M, result = _inpaint_case(g, T, seed, p, q, gamma1, gamma2, 200, 0.0)
    trace = np.asarray(result.objective_trace)
    assert np.isfinite(trace).all()
    assert (np.diff(trace) <= 0).all()
    # the carried K X gives the objective of the returned signal
    r = M * result.signal - M * Y
    recomputed = float((r * r).sum()) + variation_norm(
        result.signal, g, p, q, gamma1, gamma2)
    assert result.objective == pytest.approx(recomputed, rel=1e-12,
                                             abs=1e-12)


def test_inpaint_iterations_on_a_seismic_shaped_problem():
    # the solve_seismic inputs at seed 3: a noisy wave from a smooth bump
    # (step 1 / max degree), half observed; 473 iterations with the former
    # fixed step 0.95 / sqrt(lmax + 4), 259 with the diagonal steps
    g = knn_sensor_graph(200, 6, seed=3)
    rng = default_rng(3)
    s = 1.0 / g.degrees.max()
    X = np.empty((g.N, 32))
    centre = g.coords[rng.integers(g.N)]
    X[:, 0] = np.exp(-((g.coords - centre) ** 2).sum(axis=1) / 0.01)
    X[:, 1] = X[:, 0] - 0.5 * s * (g.L @ X[:, 0])
    for t in range(1, 31):
        X[:, t + 1] = 2 * X[:, t] - X[:, t - 1] - s * (g.L @ X[:, t])
    X += 0.1 * np.abs(X).max() * rng.standard_normal(X.shape)
    M = (rng.random(X.shape) < 0.5).astype(float)
    result = inpaint(InverseProblemSpec(
        observation=M * X, mask=M,
        regularizer=Regularizer(p=1, q=2, gamma_graph=0.2, gamma_time=0.5),
        max_iters=5000, tol=1e-4), g)
    assert result.converged
    assert result.iterations <= 320


@pytest.fixture
def bank(g):
    T = 12
    mother = damped_wave_response(0.5, T)
    return make_stvwt(mother, np.linspace(0.2, 2.0, 6), [1.0], g, T,
                      check_admissibility=False)


def test_sparse_code_zero_gamma_tight_bank(g, bank):
    tight = normalize_tight(bank)
    X = default_rng(8).standard_normal((g.N, 12))
    spec = SparseCodingSpec(bank=tight, observation=X, gamma=0.0,
                            max_iters=200, tol=1e-14)
    result = sparse_code(spec, g)
    resid = np.asarray(synthesize(tight, result.coeffs, g,
                                  eig=g.eigensystem())) - X
    assert np.linalg.norm(resid) <= 1e-6


def test_sparse_code_huge_gamma_zero_solution(g, bank):
    X = default_rng(9).standard_normal((g.N, 12))
    C0 = analyze(bank, X, g, eig=g.eigensystem())
    gamma = 2.0 * np.abs(C0).max() * 1.01
    spec = SparseCodingSpec(bank=bank, observation=X, gamma=gamma,
                            max_iters=50, tol=1e-14)
    result = sparse_code(spec, g)
    assert np.abs(result.coeffs).max() == 0.0


def test_sparse_code_objective_never_exceeds_initial(g, bank):
    X = default_rng(10).standard_normal((g.N, 12))
    gamma = 0.1
    spec = SparseCodingSpec(bank=bank, observation=X, gamma=gamma,
                            max_iters=300, tol=1e-12)
    result = sparse_code(spec, g)
    initial = float((X ** 2).sum())  # objective at C = 0
    assert result.objective <= initial + 1e-12


def test_sparse_code_counts_objective_rises_as_restarts(g, bank):
    # a run stopped after k iterations is the first k iterations of a longer
    # one, so the objective trace, and each rise in it, can be read off
    X = default_rng(12).standard_normal((g.N, 12))

    def run(iters):
        return sparse_code(SparseCodingSpec(bank=bank, observation=X,
                                            gamma=2.0, max_iters=iters,
                                            tol=0.0), g)

    result = run(40)
    trace = [float((X ** 2).sum())] + [run(k).objective for k in range(1, 41)]
    rises = sum(b > a for a, b in zip(trace, trace[1:]))
    assert result.iterations == 40 and result.objective == trace[-1]
    assert result.restarts == rises > 0


def test_sparse_code_subgradient_optimality(g, bank):
    eig = g.eigensystem()
    rng = default_rng(11)
    X = rng.standard_normal((g.N, 12))
    C0 = analyze(bank, X, g, eig=eig)
    gamma = 0.2 * np.abs(C0).max()
    spec = SparseCodingSpec(bank=bank, observation=X, gamma=gamma,
                            max_iters=30000, tol=0.0)
    result = sparse_code(spec, g)
    C = result.coeffs
    resid = np.asarray(synthesize(bank, C, g, eig=eig), dtype=complex) - X
    R = 2.0 * analyze(bank, resid, g, eig=eig)
    support = np.abs(C) > 1e-10 * np.abs(C).max()
    assert support.any()
    on_support = np.abs(R[support] + gamma * C[support] / np.abs(C[support]))
    assert on_support.max() <= 1e-4 * gamma
    off = ~support
    assert (np.abs(R[off]) <= gamma * (1 + 1e-4)).all()


def test_sparse_code_planted_source(g):
    T = 12
    eig = g.eigensystem()
    mother = damped_wave_response(0.5, T)
    bank = make_stvwt(mother, np.linspace(0.2, 2.0, 6), [1.0], g, T,
                      check_admissibility=False)
    m_star, tau_star, z_star = 7, 3, 2
    C_true = np.zeros((bank.size, g.N, T), dtype=complex)
    C_true[z_star, m_star, tau_star] = 1.0
    X = np.asarray(synthesize(bank, C_true, g, eig=eig))
    rng = default_rng(12)
    X = X + 0.01 * np.linalg.norm(X) / np.sqrt(X.size) * rng.standard_normal(X.shape)
    C0 = analyze(bank, X, g, eig=eig)
    spec = SparseCodingSpec(bank=bank, observation=X,
                            gamma=0.3 * np.abs(C0).max(),
                            max_iters=2000, tol=1e-12)
    result = sparse_code(spec, g)
    energy = (np.abs(result.coeffs) ** 2).sum(axis=(0, 2))
    assert energy.argmax() == m_star
    est = localize_source(result.coeffs, bank, g, top_k=1)
    assert np.allclose(est, g.coords[m_star])


def test_localize_source_values(g, bank):
    C = np.zeros((bank.size, g.N, 12), dtype=complex)
    C[0, 4, 2] = 2.0
    assert np.allclose(localize_source(C, bank, g, top_k=1), g.coords[4])
    C[1, 9, 5] = 2.0
    est = localize_source(C, bank, g, top_k=2)
    assert np.allclose(est, 0.5 * (g.coords[4] + g.coords[9]))


def test_localize_source_validation(bank):
    g_nocoords = build_graph([(0, 1, 1.0)], 2)
    C = np.zeros((1, 2, 4), dtype=complex)
    with pytest.raises(ValidationError, match="coordinates"):
        localize_source(C, None, g_nocoords, top_k=1)


def test_signal_energy_centroid(g):
    X = np.zeros((g.N, 5))
    X[3] = 2.0
    assert np.allclose(signal_energy_centroid(X, g), g.coords[3])


def test_sparse_code_gamma_validation(g, bank):
    with pytest.raises(ValidationError):
        sparse_code(SparseCodingSpec(bank=bank,
                                     observation=np.ones((g.N, 12)),
                                     gamma=-1.0), g)


def test_regularizer_has_one_constructor():
    """``Regularizer(p=2, q=2, ...)`` is the Tikhonov prior; the alias
    classmethod is gone."""
    assert not hasattr(Regularizer, "tikhonov")
    reg = Regularizer(p=2, q=2, gamma_graph=0.5, gamma_time=0.3)
    assert (reg.p, reg.q, reg.gamma_graph, reg.gamma_time) == (2, 2, 0.5, 0.3)


def _subsampled(bank):
    bank.time_lattice = np.arange(0, bank.T, 2)
    return bank


def _all_zero(bank):
    zero = JointKernel(fn=lambda lam, omega: 0.0)
    return FilterBank(kernels=[zero, zero], lattice=[(0.0, 0.0)] * 2,
                      T=bank.T)


@pytest.mark.parametrize("make_bank, error, match", [
    (_subsampled, ValidationError, "full bank lattices"),
    (_all_zero, NotAFrameError, "zero response everywhere"),
], ids=["subsampled", "all-zero"])
def test_sparse_code_rejects_a_bank_it_cannot_use(g, bank, make_bank, error,
                                                  match):
    spec = SparseCodingSpec(bank=make_bank(bank),
                            observation=np.ones((g.N, 12)), gamma=0.1)
    with pytest.raises(error, match=match):
        sparse_code(spec, g)


@pytest.mark.parametrize("controls, match", [
    ({"gamma": float("inf")}, "gamma=inf is not a finite number"),
    ({"gamma": -1.0}, "must be nonnegative"),
    ({"max_iters": 0}, "max_iters >= 1, got 0"),
    ({"tol": float("nan")}, "tol=nan is not a finite number"),
    ({"max_iters": float("nan")}, "max_iters=nan is not a finite number"),
    ({"max_iters": 2.5}, "max_iters=2.5 is not a positive integer"),
], ids=["gamma-inf", "gamma-negative", "no-iterations", "tol-nan",
        "iterations-nan", "iterations-fractional"])
def test_sparse_code_rejects_bad_controls(g, bank, controls, match):
    spec = SparseCodingSpec(bank=bank, observation=np.ones((g.N, 12)),
                            **{"gamma": 0.1, **controls})
    with pytest.raises(ValidationError, match=match):
        sparse_code(spec, g)


@pytest.mark.parametrize("max_iters, match", [
    (0, "^inpaint needs max_iters >= 1, got 0$"),
    (float("nan"), "^inpaint max_iters=nan is not a finite number$"),
    (2.5, "^inpaint max_iters=2.5 is not a positive integer$"),
], ids=["no-iterations", "iterations-nan", "iterations-fractional"])
def test_inpaint_rejects_a_bad_iteration_cap(g, max_iters, match):
    """A cap that is not a whole number used to raise a raw ``TypeError``
    from ``range``."""
    Y = np.ones((g.N, 4))
    spec = InverseProblemSpec(observation=Y, mask=np.ones_like(Y),
                              regularizer=Regularizer(), max_iters=max_iters)
    with pytest.raises(ValidationError, match=match):
        inpaint(spec, g)


@pytest.mark.parametrize("top_k, match", [
    (1.5, r"^top_k=1\.5 is not a positive integer$"),
    ("abc", "^top_k='abc' is not a finite number$"),
    (float("nan"), "^top_k=nan is not a finite number$"),
    (0, r"^top_k must lie in \[1, 20\]$"),
    (21, r"^top_k must lie in \[1, 20\]$"),
], ids=["fractional", "string", "nan", "zero", "above-n"])
def test_localize_source_names_a_bad_top_k(g, bank, top_k, match):
    """A fractional count used to raise a raw ``TypeError`` on slice
    indices."""
    C = np.ones((bank.size, g.N, 12), dtype=complex)
    with pytest.raises(ValidationError, match=match):
        localize_source(C, bank, g, top_k)


def test_localize_source_checks_a_stack_against_the_time_lattice(g):
    """A subsampled STVFT bank's coefficients have one time sample per
    lattice point; a full-length stack is rejected."""
    h_G, shifts = itersine_graph_design(g.lmax, 3)
    stvft = make_stvft(h_G, time_window("hann", 4), shifts, 2, g, 12)
    C = analyze(stvft, default_rng(4).standard_normal((g.N, 12)), g,
                g.eigensystem())
    assert C.shape == (stvft.size, g.N, 6)
    assert localize_source(C, stvft, g, 2).shape == (2,)
    with pytest.raises(ValidationError,
                       match="coefficient stack has 12 time samples but "
                             "bank has 6"):
        localize_source(np.ones((stvft.size, g.N, 12)), stvft, g, 2)
