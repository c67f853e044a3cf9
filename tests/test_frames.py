import re
import sys
import threading

import numpy as np
import pytest

from tvgsp import (JointKernel, NotAFrameError, ValidationError, analyze,
                   bank_response_energy, canonical_dual, damped_wave_response,
                   filter_exact, frame_bounds, heat_response, itersine,
                   itersine_graph_design, jft, knn_sensor_graph, localize,
                   make_stvft, make_stvwt, mexican_hat_response,
                   normalize_tight, synthesize, tikhonov_response,
                   time_window, time_window_kernel)
from tvgsp.frames import FilterBank, bank_grid
from tvgsp.kernels import grid_eval
from tvgsp.rng import default_rng

from oracles import (dense_joint_filter, dense_time_filter_matrix,
                     stvft_double_sum)

T = 16


@pytest.fixture
def g():
    graph = knn_sensor_graph(24, 4, seed=17)
    assert graph.is_connected()
    return graph


@pytest.fixture
def eig(g):
    return g.eigensystem()


@pytest.fixture
def stvwt_bank(g):
    # damped-wave mother over ten dilations, the seismic-style construction;
    # its DC response is nonzero so the admissibility check is waived
    mother = damped_wave_response(0.5, T)
    scales = np.linspace(0.2, 2.0, 10)
    return make_stvwt(mother, scales, [1.0], g, T, check_admissibility=False)


@pytest.fixture
def signal(g):
    return default_rng(23).standard_normal((g.N, T))


def test_localize_identity_kernel(g, eig):
    k = JointKernel(fn=lambda lam, omega: 1.0)
    atom = localize(k, 5, 3, g, T, eig=eig)
    delta = np.zeros((g.N, T))
    delta[5, 3] = 1.0
    assert np.linalg.norm(atom - delta) <= 1e-10


def test_localize_separable_matches_dense_factorization(g, eig):
    h1 = lambda lam: np.exp(-0.8 * lam)
    h2 = lambda omega: 1.0 / (1.0 + omega ** 2)
    k = JointKernel(h1=h1, h2=h2)
    m, tau = 7, 4
    atom = localize(k, m, tau, g, T, eig=eig)
    # oracle: h1(L) delta_m delta_tau' M_time with dense matrices
    from tvgsp.transforms import omega_grid
    Hg = eig.vectors @ np.diag(h1(eig.values)) @ eig.vectors.T
    Mt = dense_time_filter_matrix(h2(omega_grid(T)))
    delta = np.zeros((g.N, T))
    delta[m, tau] = 1.0
    oracle = Hg @ delta @ Mt
    assert np.linalg.norm(atom - oracle.real) <= 1e-10
    # time factor identity 1 -> column tau only
    k_graph_only = JointKernel(h1=h1, h2=lambda omega: np.ones_like(omega))
    atom2 = localize(k_graph_only, m, tau, g, T, eig=eig)
    off = np.delete(np.arange(T), tau)
    assert np.abs(atom2[:, off]).max() <= 1e-10


def test_localize_translation_covariance(g, eig):
    k = damped_wave_response(0.4, T)
    m = 3
    base = localize(k, m, 5, g, T, eig=eig)
    shifted = localize(k, m, 6, g, T, eig=eig)
    assert np.linalg.norm(shifted - np.roll(base, 1, axis=1)) <= \
        1e-10 * np.linalg.norm(base)


def test_localize_bounds(g, eig):
    k = JointKernel(fn=lambda lam, omega: 1.0)
    with pytest.raises(ValidationError):
        localize(k, g.N, 0, g, T, eig=eig)
    with pytest.raises(ValidationError):
        localize(k, 0, T, g, T, eig=eig)


def test_itersine_partition_of_squares(g):
    h, shifts = itersine_graph_design(g.lmax, 5)
    grid = np.linspace(0.0, g.lmax, 512)
    total = sum(np.asarray(h(grid - z)) ** 2 for z in shifts)
    assert np.abs(total - 1.0).max() <= 1e-12



@pytest.mark.parametrize("build,message", [
    (lambda g: itersine_graph_design(np.nan, 4),
     "lmax=nan is not a finite number"),
    (lambda g: itersine_graph_design(4.0, 2.5),
     "num_translates=2.5 is not a positive integer"),
    (lambda g: itersine_graph_design(4.0, np.nan),
     "num_translates=nan is not a finite number"),
    (lambda g: time_window("hann", 2.5),
     "window length=2.5 is not a positive integer"),
    (lambda g: time_window("hann", np.nan),
     "window length=nan is not a finite number"),
    (lambda g: make_stvwt(mexican_hat_response(), [np.nan], [1.0], g, 4),
     "scales_lambda=nan is not a finite number"),
    (lambda g: make_stvwt(mexican_hat_response(), [1.0], [np.inf], g, 4),
     "scales_omega=inf is not a finite number"),
    (lambda g: make_stvwt(mexican_hat_response(), [1.0], [1.0], g, 4.5),
     "T=4.5 is not a positive integer"),
    (lambda g: make_stvft(lambda lam: 1.0, np.ones(4), [np.nan], 1, g, 8),
     "z_lambda=nan is not a finite number"),
    (lambda g: make_stvft(lambda lam: 1.0, np.ones(4), [0.0], 1, g, 8.5),
     "T=8.5 is not a positive integer"),
], ids=["itersine-lmax", "itersine-fractional-count", "itersine-nan-count",
        "window-fractional-length", "window-nan-length", "stvwt-scale-lambda",
        "stvwt-scale-omega", "stvwt-fractional-T", "stvft-shift",
        "stvft-fractional-T"])
def test_dictionary_factories_name_a_bad_parameter(g, build, message):
    """A non-finite parameter, or a fractional count or length, is a
    :class:`ValidationError` naming it and its value (it used to give NaN
    shifts, a bank of NaN atoms, a window of ``ceil(length)`` samples, or
    a raw ``TypeError`` or ``ValueError``)."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(g)


def test_itersine_window_shape():
    assert itersine(0.0) == pytest.approx(1.0)
    assert itersine(0.5) == pytest.approx(0.0, abs=1e-15)
    assert itersine(0.75) == 0.0
    x = np.linspace(-0.5, 0.5, 101)
    assert np.abs(itersine(x) ** 2 + itersine(x - 0.5) ** 2
                  - np.where(x >= 0, 1.0, itersine(x) ** 2)).max() <= 1e-12


def test_time_window_kernel_matches_direct_sum():
    w = time_window("hann", 6)
    h = time_window_kernel(w)
    offsets = np.arange(6) - 3
    for omega in (0.0, 0.5, -1.3, np.pi):
        direct = np.sum(w * np.exp(-1j * omega * offsets))
        assert complex(np.asarray(h(omega))) == pytest.approx(direct, rel=1e-12)


def test_make_stvft_lattice_arithmetic(g):
    h, shifts = itersine_graph_design(g.lmax, 5)
    T64 = 64
    bank = make_stvft(h, time_window("rectangular", 16), shifts, 8, g, T64)
    assert bank.size == 5 * 16
    assert bank.subsampled and not bank.bounds_certified
    assert bank.time_lattice.tolist() == list(range(0, 64, 8))
    assert len(bank.time_lattice) == 8
    with pytest.raises(ValidationError, match="divide"):
        make_stvft(h, time_window("rectangular", 16), shifts, 7, g, T64)


def test_stvft_subsampled_matches_full(g, eig, signal):
    h, shifts = itersine_graph_design(g.lmax, 3)
    window = time_window("hann", 4)
    full = make_stvft(h, window, shifts, 1, g, T)
    sub = make_stvft(h, window, shifts, 4, g, T)
    C_full = analyze(full, signal, g, eig=eig)
    C_sub = analyze(sub, signal, g, eig=eig)
    assert C_sub.shape == (full.size, g.N, T // 4)
    assert np.linalg.norm(C_sub - C_full[:, :, ::4]) <= 1e-10 * np.linalg.norm(C_full)



def test_stvft_takes_a_whole_hop_of_float_type(g, eig, signal):
    """A hop of ``4.0`` builds the bank a hop of ``4`` does (its time
    lattice used to be a float array, which analysis failed to index with)."""
    h, shifts = itersine_graph_design(g.lmax, 3)
    C, C_float = (analyze(make_stvft(h, time_window("hann", 4), shifts, hop,
                                     g, T), signal, g, eig=eig)
                  for hop in (4, 4.0))
    assert np.array_equal(C, C_float)

def test_stvft_analysis_equals_per_kernel_filtering(g, eig, signal):
    h, shifts = itersine_graph_design(g.lmax, 3)
    bank = make_stvft(h, time_window("hann", 4), shifts, 1, g, T)
    C = analyze(bank, signal, g, eig=eig)
    for z, kernel in enumerate(bank.kernels):
        direct = filter_exact(signal, kernel, eig)
        assert np.linalg.norm(C[z] - direct) <= 1e-10 * max(np.linalg.norm(direct), 1e-30)


def test_stvft_degenerate_reduces_to_joint_filtering(g, eig, signal):
    # single graph shift, full-length rectangular window, hop T: one time
    # lattice point whose coefficients are the joint-filter outputs at t=0
    bank = make_stvft(lambda lam: np.ones_like(lam),
                      time_window("rectangular", T), [0.0], T, g, T)
    C = analyze(bank, signal, g, eig=eig)
    assert C.shape == (T, g.N, 1)
    for z, kernel in enumerate(bank.kernels):
        direct = filter_exact(signal, kernel, eig)
        assert np.linalg.norm(C[z][:, 0] - direct[:, 0]) <= \
            1e-9 * max(np.linalg.norm(direct), 1e-30)


def test_stvft_brute_force_double_sum(g, eig):
    # NT = 24 * 8 <= 256: brute-force the analysis formula
    T8 = 8
    h, shifts = itersine_graph_design(g.lmax, 3)
    window = time_window("hann", 4)
    bank = make_stvft(h, window, shifts, 1, g, T8)
    X = default_rng(31).standard_normal((g.N, T8))
    C = analyze(bank, X, g, eig=eig)
    X_hat = jft(X, eig)
    mother = bank.mother
    for z in (0, 5, 11):
        zl, zw = bank.lattice[z]
        oracle = stvft_double_sum(X_hat, eig.vectors, eig.values,
                                  mother, zl, zw, T8)
        assert np.linalg.norm(C[z] - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1e-30)


def test_make_stvwt_admissibility(g):
    with pytest.raises(ValidationError, match="DC"):
        make_stvwt(damped_wave_response(0.5, T), [1.0], [1.0], g, T)
    # admissible mother passes
    make_stvwt(mexican_hat_response(), [0.5, 1.0], [1.0], g, T)
    # DC-cover kernel waives the check
    make_stvwt(damped_wave_response(0.5, T), [1.0], [1.0], g, T,
               dc_kernel=heat_response(0.1, T))


def test_stvwt_single_scale_is_mother(g, eig, signal):
    mother = damped_wave_response(0.5, T)
    bank = make_stvwt(mother, [1.0], [1.0], g, T, check_admissibility=False)
    assert bank.size == 1
    C = analyze(bank, signal, g, eig=eig)
    direct = dense_joint_filter(signal, mother, eig.vectors, eig.values, T)
    assert np.linalg.norm(C[0] - direct) <= 1e-9 * np.linalg.norm(direct)


def test_frame_bounds_constant_banks(g, eig):
    one = JointKernel(fn=lambda lam, omega: 1.0)
    bank1 = FilterBank(kernels=[one], lattice=[(0.0, 0.0)], T=T)
    assert frame_bounds(bank1, eig) == (1.0, 1.0)
    bank2 = FilterBank(kernels=[one, one], lattice=[(0.0, 0.0)] * 2, T=T)
    assert frame_bounds(bank2, eig) == (2.0, 2.0)


def test_frame_energy_sandwich(g, eig, stvwt_bank):
    A, B = frame_bounds(stvwt_bank, eig)
    assert 0 < A <= B
    rng = default_rng(3)
    for _ in range(100):
        X = rng.standard_normal((g.N, T))
        C = analyze(stvwt_bank, X, g, eig=eig)
        energy = np.linalg.norm(C) ** 2
        nx2 = np.linalg.norm(X) ** 2
        eps = 1e-8 * B * nx2
        assert A * nx2 - eps <= energy <= B * nx2 + eps


def test_analyze_identity_bank(g, eig, signal):
    bank = FilterBank(kernels=[JointKernel(fn=lambda lam, omega: 1.0)],
                      lattice=[(0.0, 0.0)], T=T)
    C = analyze(bank, signal, g, eig=eig)
    assert np.linalg.norm(C[0] - signal) <= 1e-12 * np.linalg.norm(signal)


def test_tight_bank_parseval_and_reconstruction(g, eig, stvwt_bank, signal):
    tight = normalize_tight(stvwt_bank)
    A, B = frame_bounds(tight, eig)
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(1.0, abs=1e-12)
    C = analyze(tight, signal, g, eig=eig)
    assert np.linalg.norm(C) ** 2 == pytest.approx(
        np.linalg.norm(signal) ** 2, rel=1e-8)
    recon = synthesize(tight, C, g, eig=eig)
    assert np.linalg.norm(recon - signal) <= 1e-8 * np.linalg.norm(signal)


def test_analysis_exact_vs_ffc(g, eig, signal):
    bank = make_stvwt(heat_response(0.2 / g.lmax, T).scaled(1.0, 1.0),
                      [0.5, 1.0], [1.0], g, T, check_admissibility=False)
    C_exact = analyze(bank, signal, g, eig=eig)
    C_ffc = analyze(bank, signal, g, order=50)
    assert np.linalg.norm(C_exact - C_ffc) <= 1e-6 * np.linalg.norm(C_exact)


def test_synthesis_is_adjoint_of_analysis(g, eig, stvwt_bank):
    rng = default_rng(4)
    X = rng.standard_normal((g.N, T))
    C = (rng.standard_normal((stvwt_bank.size, g.N, T))
         + 1j * rng.standard_normal((stvwt_bank.size, g.N, T)))
    AX = analyze(stvwt_bank, X, g, eig=eig)
    SC = np.asarray(synthesize(stvwt_bank, C, g, eig=eig), dtype=complex)
    lhs = np.vdot(AX, C)
    rhs = np.vdot(np.asarray(X, dtype=complex), SC)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_synthesize_zero(g, eig, stvwt_bank):
    C = np.zeros((stvwt_bank.size, g.N, T), dtype=complex)
    out = synthesize(stvwt_bank, C, g, eig=eig)
    assert np.abs(np.asarray(out)).max() == 0.0


def test_canonical_dual_roundtrip(g, eig, stvwt_bank, signal):
    dual = canonical_dual(stvwt_bank, eig)
    # duality condition at every grid point
    total = np.zeros((g.N, T), dtype=complex)
    for h_d, h in zip(dual.kernels, stvwt_bank.kernels):
        total += (grid_eval(h_d, eig.values, T)
                  * np.conj(grid_eval(h, eig.values, T)))
    assert np.abs(total - 1.0).max() <= 1e-10
    C = analyze(stvwt_bank, signal, g, eig=eig)
    recon = synthesize(dual, C, g, eig=eig)
    assert np.linalg.norm(recon - signal) <= 1e-8 * np.linalg.norm(signal)


def test_canonical_dual_tight_bank_scales(g, eig):
    one = JointKernel(fn=lambda lam, omega: 1.0)
    bank = FilterBank(kernels=[one, one], lattice=[(0.0, 0.0)] * 2, T=T)
    dual = canonical_dual(bank, eig)
    H = grid_eval(dual.kernels[0], eig.values, T)
    assert np.abs(H - 0.5).max() <= 1e-12


def test_exact_operators_single_precision_input(g, eig, stvwt_bank, signal):
    X32 = signal.astype(np.float32)
    for X in (X32, X32 + 1j * X32[::-1]):    # half and full spectrum
        X64 = X.astype(np.result_type(X, np.float64))
        C = analyze(stvwt_bank, X, g, eig=eig)
        assert np.array_equal(C, analyze(stvwt_bank, X64, g, eig=eig))
        C64 = C.astype(np.complex64)
        assert np.array_equal(synthesize(stvwt_bank, C64, g, eig=eig),
                              synthesize(stvwt_bank, C64.astype(complex), g,
                                         eig=eig))


def test_canonical_dual_single_kernel(g, eig, signal):
    # tikhonov is strictly positive on the whole grid
    from tvgsp import tikhonov_response
    bank = make_stvwt(tikhonov_response(0.5, 0.8), [1.0], [1.0], g, T,
                      check_admissibility=False)
    dual = canonical_dual(bank, eig)
    C = analyze(bank, signal, g, eig=eig)
    recon = synthesize(dual, C, g, eig=eig)
    assert np.linalg.norm(recon - signal) <= 1e-9 * np.linalg.norm(signal)


def test_canonical_dual_rejects_nonframe(g, eig):
    # mexican-hat mother without DC cover has zero response at (0, 0)
    bank = make_stvwt(mexican_hat_response(), [0.5, 1.0], [1.0], g, T)
    with pytest.raises(NotAFrameError, match=r"\(l=0, k=0\)"):
        canonical_dual(bank, eig)


def test_synthesize_rejects_subsampled(g, eig):
    h, shifts = itersine_graph_design(g.lmax, 3)
    bank = make_stvft(h, time_window("hann", 4), shifts, 4, g, T)
    C = np.zeros((bank.size, g.N, T // 4), dtype=complex)
    with pytest.raises(ValidationError, match="subsampled"):
        synthesize(bank, C, g, eig=eig)


def test_bank_energy_shape(g, eig, stvwt_bank):
    E = bank_response_energy(stvwt_bank, eig.values)
    assert E.shape == (g.N, T)
    assert (E >= 0).all()


def test_dual_kernels_concurrent_grids_never_mix(g, eig, stvwt_bank):
    # each dual atom is a pure function: threads evaluating the atoms on
    # different grids must each get their own responses
    dual = canonical_dual(stvwt_bank, eig)
    omega = np.linspace(-np.pi, np.pi, 7)[None, :]
    grids = [np.linspace(0.0, g.lmax * (i + 1) / 4, 6)[:, None]
             for i in range(4)]
    expected = [[np.asarray(k(lam, omega)) for k in dual.kernels]
                for lam in grids]
    errors = []

    def worker(i):
        try:
            for _ in range(100):
                for k, ref in zip(dual.kernels, expected[i]):
                    if not np.array_equal(k(grids[i], omega), ref):
                        errors.append(i)
        except Exception as exc:  # noqa: BLE001 - reported by the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors


@pytest.mark.parametrize("normalize", [canonical_dual,
                                       lambda bank, eig: normalize_tight(bank)],
                         ids=["dual", "tight"])
def test_fit_of_normalized_bank_evaluates_each_kernel_twice(normalize, g, eig):
    # the fit evaluates the bank's stack once on the Chebyshev nodes and
    # once on the probe points, and a normalized bank's stack divides its
    # base bank's stack: each base kernel is evaluated once per point set
    counts = [0, 0, 0]

    def counted(z, s):
        def fn(lam, omega):
            counts[z] += 1
            return np.exp(-s * lam) * (1.0 + 0.1 * np.cos(omega)) + 0.05
        return fn

    bank = FilterBank(kernels=[JointKernel(fn=counted(z, s))
                               for z, s in enumerate((0.5, 1.0, 2.0))],
                      lattice=[(0.0, 0.0)] * 3, T=T)
    normalized = normalize(bank, eig)
    counts[:] = [0, 0, 0]
    synthesize(normalized, default_rng(5).standard_normal((3, g.N, T)), g,
               order=20)
    assert counts == [2, 2, 2]


def test_a_bank_stack_is_its_stacked_grid_responses(g, eig, stvwt_bank):
    assert np.array_equal(bank_grid(stvwt_bank, eig),
                          np.stack([grid_eval(k, eig.values, T)
                                    for k in stvwt_bank.kernels]))


@pytest.mark.parametrize("normalize", [
    canonical_dual, lambda bank, eig: normalize_tight(bank),
    lambda bank, eig: normalize_tight(canonical_dual(bank, eig))],
    ids=["dual", "tight", "tight-of-dual"])
@pytest.mark.parametrize("complex_bank", [True, False],
                         ids=["damped-wave", "mexican-hat"])
def test_a_normalized_bank_stack_is_its_per_atom_evaluation(
        normalize, complex_bank, g, eig, stvwt_bank):
    bank = stvwt_bank if complex_bank else make_stvwt(
        mexican_hat_response(), [0.5, 1.0], [1.0], g, T,
        dc_kernel=tikhonov_response(1.0, 1.0))
    normalized = normalize(bank, eig)
    assert np.array_equal(bank_grid(normalized, eig),
                          np.stack([grid_eval(k, eig.values, T)
                                    for k in normalized.kernels]))


def test_a_bank_is_subsampled_by_its_time_lattice_alone():
    """``FilterBank`` has no vertex lattice (no constructor set one and
    analysis ignored it) and no ``frame_bounds`` method (the module
    function is the one form)."""
    one = JointKernel(fn=lambda lam, omega: 1.0)
    with pytest.raises(TypeError):
        FilterBank(kernels=[one], lattice=[(0.0, 0.0)], T=4,
                   vertex_lattice=np.arange(2))
    assert not hasattr(FilterBank, "frame_bounds")
    bank = FilterBank(kernels=[one], lattice=[(0.0, 0.0)], T=4,
                      time_lattice=np.arange(0, 4, 2))
    assert bank.subsampled and not bank.bounds_certified


def test_analysis_of_a_subsampled_non_stvft_bank_is_rejected(g, signal,
                                                             stvwt_bank):
    stvwt_bank.time_lattice = np.arange(0, T, 2)
    with pytest.raises(ValidationError, match="only supported for STVFT"):
        analyze(stvwt_bank, signal, g)
