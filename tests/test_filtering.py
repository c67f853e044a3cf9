import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgsp import (JointKernel, ValidationError, build_graph,
                   erdos_renyi_graph, filter_cheby2d, filter_exact,
                   filter_ffc, filter_separable, fit_chebyshev,
                   fit_joint_kernel, knn_sensor_graph, named_response,
                   path_graph)
from tvgsp import filtering
from tvgsp.transforms import dft, idft, omega_grid
from tvgsp.rng import default_rng

from oracles import (cheby2d_time_route, chebyshev_analysis, chebyshev_step,
                     chebyshev_synthesis, dense_joint_filter,
                     dense_time_filter_matrix)


IDENTITY = JointKernel(fn=lambda lam, omega: 1.0, name="one")


@pytest.fixture
def fixture_graph():
    return knn_sensor_graph(40, 4, seed=13)


@pytest.fixture
def fixture_signal(fixture_graph):
    return default_rng(42).standard_normal((fixture_graph.N, 16))


def test_identity_kernels(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    assert np.linalg.norm(filter_exact(X, IDENTITY, eig) - X) <= 1e-12 * np.linalg.norm(X)
    for order in (0, 3):
        assert np.linalg.norm(filter_ffc(X, IDENTITY, g, order) - X) <= 1e-10 * np.linalg.norm(X)
    assert np.linalg.norm(filter_cheby2d(X, IDENTITY, g, 2, 2) - X) <= 1e-10 * np.linalg.norm(X)
    both_one = JointKernel(h1=lambda lam: np.ones_like(lam),
                           h2=lambda omega: np.ones_like(omega))
    assert np.linalg.norm(filter_separable(X, both_one, None, g, 3) - X) <= 1e-10 * np.linalg.norm(X)


def test_exact_matches_dense_oracle(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    kernel = named_response("tikhonov", {"tau1": 0.4, "tau2": 0.9})
    mine = filter_exact(X, kernel, eig)
    oracle = dense_joint_filter(X, kernel, eig.vectors, eig.values, X.shape[1])
    assert np.linalg.norm(mine - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_dc_projector_replicates_mean(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    gap = eig.values[1]
    kernel = JointKernel(
        fn=lambda lam, omega: ((lam < gap / 2) & (np.abs(omega) < np.pi / X.shape[1])) * 1.0)
    out = filter_exact(X, kernel, eig)
    assert np.allclose(out, X.mean(), atol=1e-10)


def test_tikhonov_zero_weights_identity(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    kernel = named_response("tikhonov", {"tau1": 0.0, "tau2": 0.0})
    out = filter_exact(X, kernel, g.eigensystem())
    assert np.linalg.norm(out - X) <= 1e-12 * np.linalg.norm(X)


def test_polynomial_kernel_exact_for_ffc(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    kernel = JointKernel(fn=lambda lam, omega: lam ** 2 + 0.0 * omega)
    exact = filter_exact(X, kernel, eig)
    for order in (2, 5):
        fast = filter_ffc(X, kernel, g, order)
        assert np.linalg.norm(fast - exact) <= 1e-9 * np.linalg.norm(exact)


def test_separable_polynomial_exact_for_cheby2d(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    # lambda * (2 - lambda_T(omega)) = 2 lambda cos(omega): degree (1, 1)
    kernel = JointKernel(
        fn=lambda lam, omega: lam * (2.0 - 2.0 * (1.0 - np.cos(omega))))
    exact = filter_exact(X, kernel, eig)
    fast = filter_cheby2d(X, kernel, g, 1, 1)
    assert np.linalg.norm(fast - exact) <= 1e-9 * np.linalg.norm(exact)


def test_ffc_error_decreases_with_order(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    kernel = named_response("lowpass_sigmoid",
                            {"lambda_cut": g.lmax / 4, "omega_cut": np.pi / 2})
    exact = filter_exact(X, kernel, eig)
    errs = []
    for order in (5, 10, 20, 40):
        fast = filter_ffc(X, kernel, g, order)
        errs.append(np.linalg.norm(fast - exact) / np.linalg.norm(exact))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-3
    assert errs[-1] <= 1e-4


def test_ffc_lowpass_convergence_desk_scale():
    g = knn_sensor_graph(200, 10, seed=99)
    eig = g.eigensystem()
    X = default_rng(55).standard_normal((200, 128))
    kernel = named_response("lowpass_sigmoid",
                            {"lambda_cut": g.lmax / 4, "omega_cut": np.pi / 2})
    exact = filter_exact(X, kernel, eig)
    errs = [np.linalg.norm(filter_ffc(X, kernel, g, order) - exact)
            / np.linalg.norm(exact) for order in (5, 10, 20, 40)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-3
    assert errs[-1] <= 1e-4


def test_smooth_kernels_accurate_at_order_40(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    for kernel in (named_response("tikhonov", {"tau1": 0.71, "tau2": 1.78}),
                   named_response("lowpass_sigmoid",
                                  {"lambda_cut": g.lmax / 3, "omega_cut": 1.0})):
        exact = filter_exact(X, kernel, eig)
        fast = filter_ffc(X, kernel, g, 40)
        assert np.linalg.norm(fast - exact) <= 1e-4 * np.linalg.norm(exact)


def test_linearity_of_all_methods(fixture_graph):
    g = fixture_graph
    eig = g.eigensystem()
    rng = default_rng(77)
    X = rng.standard_normal((g.N, 8))
    Y = rng.standard_normal((g.N, 8))
    a, b = 1.7, -0.3
    kernel = named_response("wave_gauss", {"lmax": g.lmax})
    for apply_filter in (
            lambda Z: filter_exact(Z, kernel, eig),
            lambda Z: filter_ffc(Z, kernel, g, 15),
            lambda Z: filter_cheby2d(Z, kernel, g, 10, 10)):
        combined = apply_filter(a * X + b * Y)
        split = a * apply_filter(X) + b * apply_filter(Y)
        assert np.linalg.norm(combined - split) <= 1e-10 * np.linalg.norm(combined)


def test_real_symmetric_kernels_preserve_realness(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    kernel = named_response("wave_gauss", {"lmax": g.lmax})
    for Y in (filter_exact(X, kernel, eig), filter_ffc(X, kernel, g, 20),
              filter_cheby2d(X, kernel, g, 12, 12)):
        assert not np.iscomplexobj(Y)


def test_separable_half_band_matches_dft_masking(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    T = X.shape[1]
    kernel = JointKernel(h1=lambda lam: np.ones_like(lam),
                         h2=lambda omega: (np.abs(omega) <= np.pi / 2) * 1.0)
    out = filter_separable(X, kernel, None, g, 5)
    mask = (np.abs(omega_grid(T)) <= np.pi / 2) * 1.0
    oracle = idft(dft(X) * mask[None, :]).real
    assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_separable_graph_only_matches_exact(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    kernel = JointKernel(h1=lambda lam: np.exp(-lam),
                         h2=lambda omega: np.ones_like(omega))
    out = filter_separable(X, kernel, None, g, 30)
    exact = filter_exact(X, kernel, eig)
    assert np.linalg.norm(out - exact) <= 1e-8 * np.linalg.norm(exact)


def test_separable_equals_ffc_same_order(fixture_graph, fixture_signal):
    g, X = fixture_graph, fixture_signal
    kernel = named_response("lowpass_sigmoid",
                            {"lambda_cut": 1.0, "omega_cut": 1.0})
    sep = filter_separable(X, kernel, None, g, 12)
    ffc = filter_ffc(X, kernel, g, 12)
    assert np.linalg.norm(sep - ffc) <= 1e-10 * max(np.linalg.norm(ffc), 1e-30)


def test_separable_rejects_nonseparable(fixture_graph, fixture_signal):
    kernel = named_response("wave_gauss", {"lmax": 3.0})
    with pytest.raises(ValidationError, match="not separable"):
        filter_separable(fixture_signal, kernel, None, fixture_graph, 10)


def test_edgeless_graph_reduces_to_time_filtering():
    g = build_graph([], 4)
    X = default_rng(5).standard_normal((4, 8))
    kernel = JointKernel(fn=lambda lam, omega: (np.abs(omega) <= 1.0) * 1.0)
    out = filter_ffc(X, kernel, g, 10)
    M = dense_time_filter_matrix((np.abs(omega_grid(8)) <= 1.0) * 1.0)
    assert np.linalg.norm(out - (X @ M).real) <= 1e-10


def test_fit_chebyshev_polynomial_exact():
    coeffs = fit_chebyshev(lambda x: 3.0 * x ** 2 - x + 0.5, 2, (0.0, 4.0))
    probe = np.linspace(0.0, 4.0, 33)
    y = (2 * probe - 4.0) / 4.0
    approx = 0.5 * coeffs[0] + coeffs[1] * y + coeffs[2] * (2 * y * y - 1)
    assert np.abs(approx - (3.0 * probe ** 2 - probe + 0.5)).max() <= 1e-12


def test_fit_joint_kernel_reports_errors(fixture_graph):
    kernel = named_response("tikhonov", {"tau1": 0.3, "tau2": 0.7})
    approx = fit_joint_kernel(kernel, 8, 30, (0.0, fixture_graph.lmax))
    assert approx.coeffs.shape == (8, 31)
    assert approx.fit_errors.shape == (8,)
    assert approx.fit_errors.max() <= 1e-8


def test_ffc_fit_error_bounds_exact_error(fixture_graph, fixture_signal):
    # the DFT is unitary and every bin's graph operator errs by at most
    # the bin's fit error, hence ||Y - Y_exact||_F <= fit_error ||X||_F
    g, X = fixture_graph, fixture_signal
    eig = g.eigensystem()
    for kernel in (named_response("wave_gauss", {"lmax": g.lmax}),
                   named_response("tikhonov", {"tau1": 0.71, "tau2": 1.78}),
                   named_response("heat", {"s": 1.0 / g.lmax, "T": 16})):
        for order in (4, 12, 30):
            info = {}
            fast = filter_ffc(X, kernel, g, order, info=info)
            error = np.linalg.norm(fast - filter_exact(X, kernel, eig))
            assert 0 < error <= info["ffc_fit_error"] * np.linalg.norm(X)


def test_ffc_single_precision_input(fixture_graph, fixture_signal):
    g = fixture_graph
    X32 = fixture_signal.astype(np.float32)
    kernel = named_response("tikhonov", {"tau1": 0.71, "tau2": 1.78})
    for X in (X32, X32 + 1j * X32[::-1]):    # half and full spectrum
        X64 = X.astype(np.result_type(X, np.float64))
        assert np.array_equal(filter_ffc(X, kernel, g, 10),
                              filter_ffc(X64, kernel, g, 10))


def test_filter_dimension_mismatch(fixture_graph):
    with pytest.raises(ValidationError):
        filter_ffc(np.ones((fixture_graph.N + 1, 4)), IDENTITY, fixture_graph, 5)


def test_cheby2d_invalid_inputs(fixture_graph, fixture_signal):
    with pytest.raises(ValidationError):
        filter_cheby2d(fixture_signal, IDENTITY, build_graph([], 40), 3, 3)
    with pytest.raises(ValidationError):
        filter_cheby2d(fixture_signal, IDENTITY, fixture_graph, -1, 3)


def _engine_cases(g, order):
    """The five entry points of the Chebyshev engine on ``g`` at ``order``,
    each as a function of the input array and the shape that input has."""
    from tvgsp import analyze, denoise_tikhonov, synthesize
    from tvgsp.frames import FilterBank
    from tvgsp.kernels import mexican_hat_response, tikhonov_response
    kernel = tikhonov_response(0.5, 0.3)
    bank = FilterBank(kernels=[kernel, mexican_hat_response()],
                      lattice=[(0, 0), (1, 0)], T=12)
    return {
        "filter_ffc": (lambda X: filter_ffc(X, kernel, g, order), (g.N, 12)),
        "filter_separable": (lambda X: filter_separable(
            X, lambda lam: np.exp(-lam), lambda w: np.cos(w / 2) ** 2, g,
            order), (g.N, 12)),
        "analyze": (lambda X: analyze(bank, X, g, order=order), (g.N, 12)),
        "synthesize": (lambda C: synthesize(bank, C, g, order=order),
                       (2, g.N, 12)),
        "denoise_tikhonov": (lambda X: denoise_tikhonov(X, g, 0.5, 0.3,
                                                        order=order),
                             (g.N, 12)),
    }


_ENGINE_ENTRIES = ["filter_ffc", "filter_separable", "analyze", "synthesize",
                   "denoise_tikhonov"]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("name", _ENGINE_ENTRIES)
def test_chebyshev_engine_accepts_any_memory_layout(name, dtype):
    """A transposed view and a Fortran-ordered copy give the bytes of the
    C-ordered input, real or complex."""
    fn, shape = _engine_cases(knn_sensor_graph(30, 4, seed=7), 12)[name]
    rng = default_rng(11)
    X = rng.standard_normal(shape[::-1])
    if dtype is complex:
        X = X + 1j * rng.standard_normal(shape[::-1])
    view = X.T                                   # neither C nor F for 3-D
    ref = fn(np.ascontiguousarray(view))
    for operand in (view, np.asfortranarray(view)):
        out = fn(operand)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("graph", ["edgeless", "path"])
@pytest.mark.parametrize("name", _ENGINE_ENTRIES)
def test_a_negative_order_is_refused_on_any_graph(name, graph):
    """An edgeless graph, whose table is the exact order-0 response, checks
    the order as a graph with an edge does."""
    g = build_graph([], 6) if graph == "edgeless" else path_graph(6)
    fn, shape = _engine_cases(g, -3)[name]
    with pytest.raises(ValidationError, match="order must be nonnegative"):
        fn(np.ones(shape))


@pytest.mark.parametrize("order, match", [
    (float("nan"), "=nan is not a finite number$"),
    (2.5, r"=2\.5 is not a positive integer$"),
], ids=["nan", "fractional"])
@pytest.mark.parametrize("graph", ["edgeless", "path"])
@pytest.mark.parametrize("name", _ENGINE_ENTRIES + ["cheby2d-order_graph",
                                                    "cheby2d-order_time"])
def test_an_order_that_is_not_a_whole_number_is_named(name, graph, order,
                                                      match):
    """A NaN order used to raise a raw ``ValueError`` from ``np.arange``;
    cheby2d names which of its two orders is bad."""
    g = build_graph([], 6) if graph == "edgeless" else path_graph(6)
    if name.startswith("cheby2d"):
        label = name.split("-")[1]
        orders = {"order_graph": 4, "order_time": 4, label: order}
        kernel = named_response("tikhonov", {"tau1": 0.5, "tau2": 0.3})
        fn, shape = (lambda X: filter_cheby2d(X, kernel, g, **orders),
                     (g.N, 12))
    else:
        label, (fn, shape) = "order", _engine_cases(g, order)[name]
    with pytest.raises(ValidationError, match="^" + label + match):
        fn(np.ones(shape))


K = filtering._BLOCK


def _random_stack(rng, Z, kind):
    """A stack function of ``Z`` smooth responses ``exp(-s_z lambda) (1 +
    a_z cos omega + odd_z(omega))``: ``odd`` is 0 (``real``), ``i b_z sin
    omega`` (``hermitian``: complex, conjugate-symmetric) or ``b_z sin
    omega`` (``asymmetric``, as a shifted STVFT window makes a table)."""
    s, a, b = (rng.uniform(0.1, 1.0, Z), rng.uniform(-0.5, 0.5, Z),
               rng.uniform(0.2, 0.5, Z))
    b = {"real": 0.0 * b, "hermitian": 1j * b, "asymmetric": b}[kind]

    def stack(lambdas, omegas):
        lam = np.asarray(lambdas)[None, :, None]
        w = np.asarray(omegas)[None, None, :]
        return (np.exp(-s[:, None, None] * lam)
                * (1.0 + a[:, None, None] * np.cos(w)
                   + b[:, None, None] * np.sin(w)))
    return stack


@settings(derandomize=True, max_examples=80, deadline=None)
@given(n=st.integers(1, 10), p=st.sampled_from([0.0, 0.3, 0.8]),
       Z=st.integers(1, 5),
       order=st.one_of(st.sampled_from([0, 1, K - 1, K, K + 1]),
                       st.integers(0, 40)),
       T=st.integers(1, 9), complex_input=st.booleans(),
       kind=st.sampled_from(["real", "hermitian", "asymmetric"]),
       seed=st.integers(0, 999))
def test_blocked_engine_matches_the_per_term_oracle(n, p, Z, order, T,
                                                    complex_input, kind,
                                                    seed):
    """Analysis and its adjoint, with the terms and Clenshaw coefficients
    formed in blocks of orders, against the per-term oracle on all ``T``
    bins, to 1e-12: full and half spectrum, real and complex input,
    symmetric and asymmetric tables, edgeless graphs included; and
    ``<analyze X, C> = <X, synthesize C>`` to 1e-12."""
    rng = default_rng(seed)
    g = erdos_renyi_graph(n, p, seed=seed)
    stack = _random_stack(rng, Z, kind)
    X, C = rng.standard_normal((n, T)), rng.standard_normal((Z, n, T))
    if complex_input:
        X = X + 1j * rng.standard_normal(X.shape)
        C = C + 1j * rng.standard_normal(C.shape)
    table = filtering._fit_table(stack, T, order, g, None)
    step = chebyshev_step(g) if g.lmax > 0 else None   # edgeless: order 0
    Y = filtering._analysis(X, stack, g, None, order, None)
    S = filtering._synthesis(C, stack, g, None, order, None)
    for got, ref in ((Y, chebyshev_analysis(X, table, step)),
                     (S, chebyshev_synthesis(C, table, step))):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    scale = max(np.linalg.norm(Y) * np.linalg.norm(C),
                np.linalg.norm(X) * np.linalg.norm(S))
    assert abs(np.vdot(Y, C) - np.vdot(X, S)) <= 1e-12 * scale


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 10), order_graph=st.integers(0, 40),
       order_time=st.integers(0, K + 1), T=st.integers(1, 9),
       complex_input=st.booleans(), complex_kernel=st.booleans(),
       seed=st.integers(0, 999))
def test_cheby2d_matches_the_time_recurrence_route(n, order_graph, order_time,
                                                   T, complex_input,
                                                   complex_kernel, seed):
    """``filter_cheby2d``, one table on the DFT bins for the engine, against
    the same expansion applied by a recurrence along time with the dense
    ``L_T`` and a Clenshaw sum in the graph, to 1e-12, with its dtype: real
    and complex input, real and complex (even) responses."""
    rng = default_rng(seed)
    g = path_graph(n)
    s, a, b = rng.uniform(0.1, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(0, 1)
    coef = 1.0 + 0.5j if complex_kernel else 1.0

    def fn(lam, omega):
        return coef * np.exp(-s * lam) * (1 + a * np.cos(omega)
                                          + b * np.abs(omega))
    X = rng.standard_normal((n, T))
    if complex_input:
        X = X + 1j * rng.standard_normal(X.shape)
    got = filter_cheby2d(X, JointKernel(fn=fn), g, order_graph, order_time)
    lam_nodes, QG = filtering._quadrature(order_graph, (0.0, g.lmax))
    mu_nodes, QT = filtering._quadrature(order_time, (0.0, 4.0))
    A = QG @ fn(lam_nodes[:, None], np.arccos(1 - mu_nodes / 2)[None]) @ QT.T
    ref = cheby2d_time_route(X, A, chebyshev_step(g))
    assert got.dtype == ref.dtype
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name,params", [("heat", {"s": 0.5, "T": 8}),
                                         ("damped_wave", {"beta": 0.5,
                                                          "T": 8})])
def test_cheby2d_refuses_a_response_not_even_in_omega(name, params,
                                                      fixture_graph,
                                                      fixture_signal):
    """A 2-D polynomial in ``(L_G, L_T)`` is even in omega; a kernel that is
    not would be filtered by its even part, so it is refused by name."""
    with pytest.raises(ValidationError, match=f"kernel '{name}' is not"):
        filter_cheby2d(fixture_signal, named_response(name, params),
                       fixture_graph, 10, 10)
