import numpy as np
import pytest

from tvgsp import (SingularKernelError, StabilityError, damped_wave_kernel,
                   gft, heat_evolve, heat_joint_spectrum, jft,
                   knn_sensor_graph, wave_evolve, wave_joint_spectrum,
                   wave_kernel, wave_response, wave_tau)
from tvgsp.kernels import stable_geometric_sum
from tvgsp.transforms import omega_grid
from tvgsp.rng import default_rng

from oracles import direct_wave_sum


def test_heat_s_zero_is_identity(p3):
    X = heat_evolve(np.array([1.0, -2.0, 0.5]), p3, 0.0, 5)
    assert np.allclose(X, np.tile([[1.0], [-2.0], [0.5]], (1, 5)))


def test_heat_constant_initial(sensor30):
    X = heat_evolve(np.ones(30), sensor30, 0.3 / sensor30.lmax, 6)
    assert np.allclose(X, 1.0, atol=1e-12)


def test_heat_hand_computed_step(p2):
    # (I - 0.25 L) (1, 0) = (0.75, 0.25)
    X = heat_evolve(np.array([1.0, 0.0]), p2, 0.25, 2)
    assert np.allclose(X[:, 1], [0.75, 0.25], atol=1e-15)


def test_heat_divergence_warning(p2):
    with pytest.warns(UserWarning, match="diverge"):
        heat_evolve(np.array([1.0, 0.0]), p2, 1.5, 3)


def test_heat_spectral_identity_random_instances():
    rng = default_rng(7)
    for i in range(10):
        n = int(rng.integers(10, 50))
        T = int(rng.integers(4, 64))
        g = knn_sensor_graph(n, 4, seed=100 + i)
        eig = g.eigensystem()
        lmax = eig.values[-1]
        s = float(rng.uniform(1e-3, 1.0)) / lmax
        x1 = rng.standard_normal(n)
        closed = heat_joint_spectrum(x1, g, eig, s, T)
        oracle = jft(heat_evolve(x1, g, s, T), eig)
        err = np.linalg.norm(closed - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-8


def test_geometric_sum_matches_direct():
    rng = default_rng(3)
    T = 23
    for a in [1.0, 1.0 + 5e-8, 1.0 - 1e-9 + 1e-9j, 0.5 + 0.2j,
              *(rng.standard_normal(5) + 1j * rng.standard_normal(5))]:
        direct = sum(complex(a) ** t for t in range(T))
        assert abs(stable_geometric_sum(a, T) - direct) <= 1e-10 * max(1, abs(direct))


def test_wave_tau_domain():
    assert wave_tau(2.0, 1.0) == pytest.approx(np.pi / 2)
    assert wave_tau(0.0, 0.7) == 0.0
    with pytest.raises(StabilityError):
        wave_tau(5.0, 1.0)


def test_wave_small_speed_keeps_initial(sensor30):
    eig = sensor30.eigensystem()
    x1 = default_rng(0).standard_normal(30)
    X = wave_evolve(x1, sensor30, eig, 1e-12, 8)
    assert np.allclose(X, x1[:, None], atol=1e-9)


def test_wave_constant_initial(sensor30):
    eig = sensor30.eigensystem()
    X = wave_evolve(np.ones(30), sensor30, eig, 1.0 / sensor30.lmax, 6)
    assert np.allclose(X, 1.0, atol=1e-10)


def test_wave_initial_condition_preserved(sensor30):
    eig = sensor30.eigensystem()
    x1 = default_rng(5).standard_normal(30)
    X = wave_evolve(x1, sensor30, eig, 1.0 / sensor30.lmax, 5)
    assert np.allclose(X[:, 0], x1, atol=1e-12)


def test_wave_per_mode_bound(sensor30):
    eig = sensor30.eigensystem()
    x1 = default_rng(6).standard_normal(30)
    X = wave_evolve(x1, sensor30, eig, 3.0 / eig.values[-1], 32)
    spec = np.abs(gft(X, eig))
    bound = np.abs(eig.vectors.T @ x1)[:, None]
    assert (spec <= bound + 1e-12).all()


def test_wave_spectral_identity_random_instances():
    rng = default_rng(11)
    for i in range(10):
        n = int(rng.integers(10, 50))
        T = int(rng.integers(4, 64))
        g = knn_sensor_graph(n, 4, seed=200 + i)
        eig = g.eigensystem()
        s = float(rng.uniform(1e-3, 3.9)) / eig.values[-1]
        x1 = rng.standard_normal(n)
        closed = wave_joint_spectrum(x1, g, eig, s, T)
        oracle = jft(wave_evolve(x1, g, eig, s, T), eig)
        err = np.linalg.norm(closed - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-8


def test_wave_kernel_matches_direct_sum_random_and_resonant():
    rng = default_rng(21)
    T = 8
    omegas = omega_grid(T, centered=False)
    pairs = [(float(rng.uniform(0, 3.99)), 1.0) for _ in range(20)]
    # resonant pairs: tau = 2 pi r / T exactly, for every integer r
    pairs += [(2.0 * (1.0 - np.cos(2 * np.pi * r / T)), 1.0)
              for r in range(T // 2 + 1)]
    for lam, s in pairs:
        for w in omegas:
            mine = wave_kernel(lam, w, s, T)
            direct = direct_wave_sum(lam, w, s, T)
            assert abs(mine - direct) <= 1e-10 * max(1.0, abs(direct))


def test_wave_kernel_dc_concentration():
    T = 8
    vals = wave_kernel(np.zeros(T), omega_grid(T, centered=False), 1.0, T)
    expected = np.zeros(T)
    expected[0] = T
    assert np.allclose(vals, expected, atol=1e-12)


def test_wave_kernel_quarter_period_time_profile():
    # s = 1, lambda = 2 -> tau = pi/2, cos(t tau) = 1, 0, -1, 0, ...
    tau = wave_tau(2.0, 1.0)
    profile = np.cos(tau * np.arange(8))
    assert np.allclose(profile, [1, 0, -1, 0, 1, 0, -1, 0], atol=1e-12)


def test_wave_response_stability_guard():
    with pytest.raises(StabilityError):
        wave_response(2.5, 2.0, 8)  # s = 2.5 >= 4 / lmax = 2
    wave_response(1.0, 2.0, 8)  # s = 1 < 2: fine


def test_damped_wave_hand_value():
    beta, T = 0.7, 16
    val = damped_wave_kernel(0.0, 0.0, beta, T)
    expected = (np.exp(beta) - 1.0) / (2.0 * (np.cosh(beta) - 1.0)) / np.sqrt(T)
    assert val == pytest.approx(expected, rel=1e-12)


def test_damped_wave_singularity_reported():
    with pytest.raises(SingularKernelError, match="lambda=0"):
        damped_wave_kernel(0.0, 0.0, 0.0, 8)


def _damped_wave_on_broadcast_grid(lam, omega, beta, T):
    """The kernel formula with every factor evaluated on the full grid."""
    lam, omega = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(omega, dtype=float))
    w = beta + 1j * omega
    shift = lam / 2.0 - 1.0
    return (np.exp(w) + shift) / (2.0 * (np.cosh(w) + shift) * np.sqrt(T))


@pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 3.0, 14.0])
def test_damped_wave_matches_the_broadcast_formula(beta):
    rng = default_rng(int(beta * 100))
    for _ in range(5):
        n, T = int(rng.integers(1, 60)), int(rng.integers(1, 70))
        lam = rng.uniform(0.0, 30.0, (n, 1))
        omega = rng.uniform(-np.pi, np.pi, (1, T))
        grids = [(lam, omega), (lam, omega_grid(T)[None, :]),
                 np.broadcast_arrays(lam, omega), (lam[:, 0], omega[0, 0]),
                 (float(lam[0, 0]), omega[0])]
        for lam_g, omega_g in grids:
            got = damped_wave_kernel(lam_g, omega_g, beta, T)
            want = _damped_wave_on_broadcast_grid(lam_g, omega_g, beta, T)
            assert got.shape == want.shape
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


def test_damped_wave_singularity_names_its_grid_point():
    lam = np.array([[2.0], [0.0]])
    omega = np.array([[0.5, 0.0, -0.5]])
    with pytest.raises(SingularKernelError,
                       match=r"lambda=0, omega=0, beta=0\)"):
        damped_wave_kernel(lam, omega, 0.0, 8)


def test_damped_wave_large_beta_asymptote():
    # the finite-beta correction decays like exp(-beta): beta = 14 already
    # sits below 1e-6 and doubling it changes nothing at that scale
    T = 16
    grid_l = np.linspace(0.0, 3.0, 7)[:, None]
    grid_w = np.linspace(-np.pi, np.pi, 9)[None, :]
    v14 = damped_wave_kernel(grid_l, grid_w, 14.0, T)
    v28 = damped_wave_kernel(grid_l, grid_w, 28.0, T)
    assert np.abs(v14 - v28).max() < 1e-6
    # limit of the ratio is 1, so the magnitude tends to 1/sqrt(T)
    assert np.abs(np.abs(v28) - 1.0 / np.sqrt(T)).max() < 1e-6


def test_initial_condition_validation(p3):
    with pytest.raises(Exception):
        heat_evolve(np.ones(2), p3, 0.1, 4)
    with pytest.raises(Exception):
        heat_evolve(np.array([np.inf, 0.0, 0.0]), p3, 0.1, 4)


def test_wave_resonant_instance_spectral_identity():
    # ring graphs have eigenvalues 2(1 - cos(2 pi r / N)); picking s = 1 and
    # T = N makes every tau a grid frequency, exercising the delta branch.
    from tvgsp import ring_graph
    g = ring_graph(8)
    eig = g.eigensystem()
    T = 8
    x1 = default_rng(9).standard_normal(8)
    closed = wave_joint_spectrum(x1, g, eig, 1.0, T)
    oracle = jft(wave_evolve(x1, g, eig, 1.0, T), eig)
    assert np.linalg.norm(closed - oracle) <= 1e-8 * np.linalg.norm(oracle)
