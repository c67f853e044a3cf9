"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import subprocess
import sys
import time
import warnings

import numpy as np

import tvgsp
from tvgsp import (InverseProblemSpec, Regularizer, SparseCodingSpec, analyze,
                   build_graph, canonical_dual, compaction_experiment,
                   damped_wave_response, denoise_tikhonov, erdos_renyi_graph,
                   filter_cheby2d, filter_exact, filter_ffc, frame_bounds,
                   grid2d_graph, grid_eval, heat_evolve, heat_joint_spectrum,
                   inpaint, itersine_graph_design, jft, ijft,
                   joint_laplacian_apply, knn_sensor_graph, localize_source,
                   make_stvft, make_stvwt, named_response, path_graph,
                   ring_graph, signal_energy_centroid, sparse_code,
                   synthesize, time_laplacian_eigenvalues, time_window,
                   unvec, vec, wave_evolve, wave_joint_spectrum, wave_kernel)
from tvgsp.kernels import tikhonov_response
from tvgsp.rng import default_rng
from tvgsp.transforms import omega_grid
from tvgsp import fileio

from oracles import (dense_joint_laplacian, direct_wave_sum,
                     masked_quadratic_objective, masked_quadratic_solve,
                     stvft_double_sum, tikhonov_normal_equations)


def _report(num, message):
    print(f"\n[criterion {num:02d}] PASS - {message}")


def test_criterion_01_unitarity_and_parseval():
    """JFT round-trip and Parseval on 50 random instances, N,T <= 64."""
    rng = default_rng(101)
    start = time.perf_counter()
    worst_rt, worst_pv = 0.0, 0.0
    for i in range(50):
        n = int(rng.integers(2, 65))
        T = int(rng.integers(1, 65))
        g = erdos_renyi_graph(n, 0.25, seed=900 + i)
        eig = g.eigensystem()
        X = rng.standard_normal((n, T))
        norm = np.linalg.norm(X)
        S = jft(X, eig)
        worst_pv = max(worst_pv, abs(np.linalg.norm(S) - norm) / norm)
        worst_rt = max(worst_rt,
                       np.linalg.norm(ijft(S, eig) - X) / norm)
    elapsed = time.perf_counter() - start
    assert worst_rt <= 1e-10
    assert worst_pv <= 1e-10
    assert elapsed < 10.0
    _report(1, f"round-trip {worst_rt:.2e}, Parseval {worst_pv:.2e}, "
               f"{elapsed:.1f}s for 50 instances")


def test_criterion_02_order_independence_and_dc_subspace():
    """GFT/DFT commute to 1e-12; constant signals occupy a single joint
    coefficient."""
    rng = default_rng(102)
    worst = 0.0
    for i in range(10):
        g = knn_sensor_graph(40, 5, seed=300 + i)
        eig = g.eigensystem()
        X = rng.standard_normal((40, 24))
        from tvgsp import dft, gft
        a = gft(dft(X), eig)
        b = dft(gft(X, eig))
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(X))
    assert worst <= 1e-12

    g = ring_graph(16)
    eig = g.eigensystem()
    X = np.full((16, 8), 1.75)
    S = jft(X, eig)
    off = np.abs(S).copy()
    off[0, 0] = 0.0
    assert abs(np.abs(S[0, 0]) - np.linalg.norm(X)) <= 1e-12 * np.linalg.norm(X)
    assert off.max() <= 1e-12 * np.linalg.norm(X)
    _report(2, f"commutation {worst:.2e}; constant signal concentrates "
               f"on (l=1, k=1)")


def test_criterion_03_kronecker_sum_identity():
    """Matrix-free joint Laplacian equals the dense Kronecker sum; joint
    eigenvalues equal all pairwise sums."""
    rng = default_rng(103)
    fixtures = [(path_graph(2), 2), (path_graph(4), 8), (ring_graph(6), 6),
                (grid2d_graph(3, 3), 12), (knn_sensor_graph(16, 3, seed=4), 16)]
    worst = 0.0
    for g, T in fixtures:
        assert g.N * T <= 256
        LJ = dense_joint_laplacian(g.L.toarray(), T)
        for _ in range(5):
            X = rng.standard_normal((g.N, T))
            direct = joint_laplacian_apply(X, g)
            oracle = unvec(LJ @ vec(X), g.N, T)
            scale = max(1.0, np.abs(oracle).max())
            worst = max(worst, np.abs(direct - oracle).max() / scale)
        joint = np.sort(np.linalg.eigvalsh(LJ))
        sums = np.sort(np.add.outer(time_laplacian_eigenvalues(T),
                                    g.eigensystem().values).ravel())
        assert np.abs(joint - sums).max() <= 1e-10 * max(1.0, sums.max())
    assert worst <= 1e-12
    _report(3, f"Kronecker-sum deviation {worst:.2e} over "
               f"{len(fixtures)} fixtures; eigenvalue sums match")


def test_criterion_04_pde_spectral_identities():
    """Heat and wave closed-form joint spectra match the iterated
    evolutions; closed-form wave kernel matches direct summation."""
    rng = default_rng(104)
    worst_heat = worst_wave = 0.0
    for i in range(10):
        n = int(rng.integers(10, 51))
        T = int(rng.integers(4, 65))
        g = knn_sensor_graph(n, 4, seed=500 + i)
        eig = g.eigensystem()
        lmax = eig.values[-1]
        x1 = rng.standard_normal(n)
        s_heat = float(rng.uniform(1e-3, 1.0)) / lmax
        closed = heat_joint_spectrum(x1, g, eig, s_heat, T)
        oracle = jft(heat_evolve(x1, g, s_heat, T), eig)
        worst_heat = max(worst_heat, np.linalg.norm(closed - oracle)
                         / np.linalg.norm(oracle))
        s_wave = float(rng.uniform(1e-3, 3.9)) / lmax
        closed = wave_joint_spectrum(x1, g, eig, s_wave, T)
        oracle = jft(wave_evolve(x1, g, eig, s_wave, T), eig)
        worst_wave = max(worst_wave, np.linalg.norm(closed - oracle)
                         / np.linalg.norm(oracle))
    assert worst_heat <= 1e-8
    assert worst_wave <= 1e-8

    T = 8
    worst_kernel = 0.0
    pairs = [(float(default_rng(31 + i).uniform(0, 3.99)), 1.0)
             for i in range(20)]
    pairs += [(2.0 * (1.0 - np.cos(2 * np.pi * r / T)), 1.0)
              for r in range(T // 2 + 1)]  # integer-resonance branch
    for lam, s in pairs:
        for w in omega_grid(T, centered=False):
            mine = wave_kernel(lam, w, s, T)
            direct = direct_wave_sum(lam, w, s, T)
            worst_kernel = max(worst_kernel,
                               abs(mine - direct) / max(1.0, abs(direct)))
    assert worst_kernel <= 1e-10
    _report(4, f"heat {worst_heat:.2e}, wave {worst_wave:.2e}, "
               f"closed-form kernel {worst_kernel:.2e}")


def test_criterion_05_ffc_beats_cheby2d():
    """Desk-scale filter comparison on the non-separable wave response:
    FFC strictly more accurate at every order, >= 10x at order 20."""
    start = time.perf_counter()
    g = knn_sensor_graph(200, 10, seed=99)
    assert g.is_connected()
    eig = g.eigensystem()
    T = 128
    X = default_rng(5).standard_normal((g.N, T))
    kernel = named_response("wave_gauss", {"lmax": g.lmax})
    reference = filter_exact(X, kernel, eig)
    norm = np.linalg.norm(reference)
    ratios = {}
    for order in (10, 20, 40):
        err_ffc = np.linalg.norm(filter_ffc(X, kernel, g, order)
                                 - reference) / norm
        err_c2d = np.linalg.norm(filter_cheby2d(X, kernel, g, order, order)
                                 - reference) / norm
        assert err_ffc < err_c2d, f"order {order}: {err_ffc} !< {err_c2d}"
        ratios[order] = err_c2d / err_ffc
    assert ratios[20] >= 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, "cheby2d/ffc error ratios "
               + ", ".join(f"M={m}: {r:.0f}x" for m, r in ratios.items())
               + f" ({elapsed:.0f}s)")


def test_criterion_06_ffc_near_linear_in_T():
    """Doubling T at fixed graph and order raises the median FFC wall
    time by at most 2.5x."""
    g = knn_sensor_graph(200, 10, seed=99)
    kernel = named_response("wave_gauss", {"lmax": g.lmax})
    rng = default_rng(6)

    def median_time(T, reps=5):
        X = rng.standard_normal((g.N, T))
        filter_ffc(X, kernel, g, 20)  # warm-up
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            filter_ffc(X, kernel, g, 20)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    base = median_time(512)
    doubled = median_time(1024)
    ratio = doubled / base
    assert ratio <= 2.5
    _report(6, f"median wall time 512->1024 grew {ratio:.2f}x "
               f"({base * 1e3:.0f} -> {doubled * 1e3:.0f} ms)")


def test_criterion_07_frame_machinery():
    """Frame bound sandwich, canonical-dual identity and reconstruction,
    and the brute-force STVFT coefficient formula."""
    g = knn_sensor_graph(24, 4, seed=17)
    eig = g.eigensystem()
    T = 16
    bank = make_stvwt(damped_wave_response(0.5, T),
                      np.linspace(0.2, 2.0, 10), [1.0], g, T,
                      check_admissibility=False)
    A, B = frame_bounds(bank, eig)
    assert 0 < A <= B
    rng = default_rng(107)
    for _ in range(100):
        X = rng.standard_normal((g.N, T))
        energy = np.linalg.norm(analyze(bank, X, g, eig=eig)) ** 2
        nx2 = np.linalg.norm(X) ** 2
        eps = 1e-8 * B * nx2
        assert A * nx2 - eps <= energy <= B * nx2 + eps

    dual = canonical_dual(bank, eig)
    total = np.zeros((g.N, T), dtype=complex)
    for h_d, h in zip(dual.kernels, bank.kernels):
        total += (grid_eval(h_d, eig.values, T)
                  * np.conj(grid_eval(h, eig.values, T)))
    duality_gap = np.abs(total - 1.0).max()
    assert duality_gap <= 1e-10
    X = rng.standard_normal((g.N, T))
    recon = synthesize(dual, analyze(bank, X, g, eig=eig), g, eig=eig)
    rt_err = np.linalg.norm(recon - X) / np.linalg.norm(X)
    assert rt_err <= 1e-8

    # STVFT coefficients against the double-sum formula (N T = 192 <= 256)
    T8 = 8
    h_graph, shifts = itersine_graph_design(g.lmax, 3)
    stvft = make_stvft(h_graph, time_window("hann", 4), shifts, 1, g, T8)
    Xs = default_rng(207).standard_normal((g.N, T8))
    C = analyze(stvft, Xs, g, eig=eig)
    X_hat = jft(Xs, eig)
    worst_stvft = 0.0
    for z in (0, 3, 7, 11):
        zl, zw = stvft.lattice[z]
        oracle = stvft_double_sum(X_hat, eig.vectors, eig.values,
                                  stvft.mother, zl, zw, T8)
        worst_stvft = max(worst_stvft, np.linalg.norm(C[z] - oracle)
                          / max(np.linalg.norm(oracle), 1e-30))
    assert worst_stvft <= 1e-9
    _report(7, f"sandwich held 100x (A={A:.3f}, B={B:.3f}); duality "
               f"{duality_gap:.2e}; reconstruction {rt_err:.2e}; "
               f"STVFT brute force {worst_stvft:.2e}")


def test_criterion_08_solver_optimality():
    """Closed-form denoiser vs normal equations; inpainting vs the dense
    quadratic program; sparse coding subgradient residual."""
    g = knn_sensor_graph(20, 4, seed=29)
    eig = g.eigensystem()
    rng = default_rng(108)
    Y = rng.standard_normal((g.N, 12))  # N T = 240 <= 256
    worst_tik = 0.0
    for tau1, tau2 in [(0.71, 1.78), (0.2, 0.0), (0.0, 1.3)]:
        mine = denoise_tikhonov(Y, g, tau1, tau2, eig=eig)
        oracle = tikhonov_normal_equations(Y, g.L.toarray(), tau1, tau2)
        worst_tik = max(worst_tik, np.linalg.norm(mine - oracle)
                        / np.linalg.norm(oracle))
    assert worst_tik <= 1e-8

    M = (rng.random(Y.shape) > 0.3).astype(float)
    gamma2 = 0.8
    spec = InverseProblemSpec(
        observation=Y, mask=M,
        regularizer=Regularizer(p=2, q=2, gamma_graph=0.0, gamma_time=gamma2),
        max_iters=30000, tol=1e-13)
    result = inpaint(spec, g)
    X_star = masked_quadratic_solve(Y, M, g.L.toarray(), 0.0, gamma2)
    obj_star = masked_quadratic_objective(X_star, Y, M, g, 0.0, gamma2)
    qp_gap = (result.objective - obj_star) / obj_star
    assert qp_gap <= 1e-4

    T = 12
    bank = make_stvwt(damped_wave_response(0.5, T),
                      np.linspace(0.2, 2.0, 6), [1.0], g, T,
                      check_admissibility=False)
    X = rng.standard_normal((g.N, T))
    C0 = analyze(bank, X, g, eig=eig)
    gamma = 0.2 * np.abs(C0).max()
    code = sparse_code(SparseCodingSpec(bank=bank, observation=X, gamma=gamma,
                                        max_iters=30000, tol=0.0), g)
    C = code.coeffs
    resid = np.asarray(synthesize(bank, C, g, eig=eig), dtype=complex) - X
    R = 2.0 * analyze(bank, resid, g, eig=eig)
    support = np.abs(C) > 1e-10 * np.abs(C).max()
    assert support.any()
    residual = np.abs(R[support] + gamma * C[support]
                      / np.abs(C[support])).max() / gamma
    assert residual <= 1e-4
    _report(8, f"tikhonov {worst_tik:.2e}; inpaint QP gap {qp_gap:.2e}; "
               f"sparse-code subgradient {residual:.2e}")


def test_criterion_09a_joint_denoising_wins():
    """Joint Tikhonov beats the best graph-only and the best time-only
    denoiser on a smooth fixture over 20 noise realizations."""
    g = grid2d_graph(6, 6)
    eig = g.eigensystem()
    T = 24
    rng = default_rng(2024)
    smooth = named_response("lowpass_sigmoid",
                            {"lambda_cut": g.lmax / 8, "omega_cut": np.pi / 6})
    X = filter_exact(rng.standard_normal((g.N, T)), smooth, eig)
    X = X / (np.linalg.norm(X) / np.sqrt(X.size))
    S_clean = jft(X, eig)
    taus = np.logspace(-2, 1.5, 10)
    norm_x = np.linalg.norm(X)

    def best_error(Y, tau1s, tau2s):
        # denoising error evaluated in the joint spectral domain
        # (identical to the signal-domain error by Parseval)
        S_noisy = jft(Y, eig)
        best = np.inf
        for t1 in tau1s:
            for t2 in tau2s:
                H = grid_eval(tikhonov_response(t1, t2), eig.values, T)
                best = min(best, np.linalg.norm(H * S_noisy - S_clean))
        return best / norm_x

    errs = {"joint": [], "graph": [], "time": []}
    for i in range(20):
        Y = X + 0.4 * default_rng(3000 + i).standard_normal(X.shape)
        errs["joint"].append(best_error(Y, taus, taus))
        errs["graph"].append(best_error(Y, taus, [0.0]))
        errs["time"].append(best_error(Y, [0.0], taus))
    mean = {k: float(np.mean(v)) for k, v in errs.items()}
    assert mean["joint"] < mean["graph"]
    assert mean["joint"] < mean["time"]
    _report(91, "mean errors: joint "
            f"{mean['joint']:.4f} < graph {mean['graph']:.4f}, "
            f"time {mean['time']:.4f} (20 realizations)")


def test_criterion_09b_mixed_norm_inpainting_ordering():
    """l1-graph / l2-time recovery beats l2/l2 and l1/l1 on the
    missing-frames subset of the two-cluster fixture."""
    rng = default_rng(91)
    n_half, T = 10, 32
    edges = []
    for base in (0, n_half):
        for i in range(n_half):
            for j in range(i + 1, n_half):
                if rng.random() < 0.7:
                    edges.append((base + i, base + j, 1.0))
    edges += [(0, n_half, 0.2), (3, n_half + 4, 0.2)]
    g = build_graph(edges, 2 * n_half)
    assert g.is_connected()
    profile = np.sin(2 * np.pi * np.arange(T) / T)
    X = np.vstack([np.tile(profile, (n_half, 1)),
                   np.tile(-profile, (n_half, 1))])
    M = (rng.random(X.shape) > 0.2).astype(float)
    missing_frames = rng.choice(T, size=T // 5, replace=False)
    M[:, missing_frames] = 0.0
    Y = (X + 0.02 * rng.standard_normal(X.shape)) * M

    def best_recovery(p, q):
        best = np.inf
        for g1 in (0.03, 0.1, 0.3, 1.0):
            for g2 in (0.03, 0.1, 0.3, 1.0):
                spec = InverseProblemSpec(
                    observation=Y, mask=M,
                    regularizer=Regularizer(p=p, q=q, gamma_graph=g1,
                                            gamma_time=g2),
                    max_iters=3000, tol=1e-9)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    res = inpaint(spec, g)
                err = (np.linalg.norm(res.signal[:, missing_frames]
                                      - X[:, missing_frames])
                       / np.linalg.norm(X[:, missing_frames]))
                best = min(best, err)
        return best

    e12 = best_recovery(1, 2)
    e22 = best_recovery(2, 2)
    e11 = best_recovery(1, 1)
    assert e12 < e22
    assert e12 < e11
    _report(92, f"missing-frame errors: l1/l2 {e12:.4f} < l2/l2 {e22:.4f} "
                f"and l1/l1 {e11:.4f}")


def test_criterion_09c_jft_energy_compaction():
    """JFT compaction curve dominates DFT and GFT at p = 90 for a
    wave-evolved signal."""
    g = knn_sensor_graph(40, 5, seed=12)
    eig = g.eigensystem()
    T = 32
    x1 = np.zeros(40)
    x1[7] = 1.0
    x1 = heat_evolve(x1, g, 0.5 / g.lmax, 4)[:, -1]
    X = wave_evolve(x1, g, eig, 2.0 / eig.values[-1], T)
    curve = compaction_experiment(X, g, eig, [90.0])
    jft_err = curve.errors["jft"][0]
    assert jft_err < curve.errors["dft"][0]
    assert jft_err < curve.errors["gft"][0]
    _report(93, f"p=90 errors: jft {jft_err:.3f} < dft "
                f"{curve.errors['dft'][0]:.3f}, gft {curve.errors['gft'][0]:.3f}")


def test_criterion_09d_stvwt_source_localization():
    """STVWT sparse-coding localization beats the energy-centroid baseline
    in at least 80% of 40 planted-source trials."""
    g = knn_sensor_graph(50, 5, seed=777)
    eig = g.eigensystem()
    T = 16
    bank = make_stvwt(damped_wave_response(0.5, T),
                      np.linspace(0.2, 2.0, 10), [1.0], g, T,
                      check_admissibility=False)
    wins = 0
    for trial in range(40):
        rng = default_rng(5000 + trial)
        m_star = int(rng.integers(0, g.N))
        tau_star = int(rng.integers(0, T))
        z_star = int(rng.integers(0, bank.size))
        C_true = np.zeros((bank.size, g.N, T), dtype=complex)
        C_true[z_star, m_star, tau_star] = 1.0
        X = np.asarray(synthesize(bank, C_true, g, eig=eig))
        X = X + (0.01 * np.linalg.norm(X) / np.sqrt(X.size)
                 * rng.standard_normal(X.shape))
        C0 = analyze(bank, X, g, eig=eig)
        spec = SparseCodingSpec(bank=bank, observation=X,
                                gamma=0.3 * np.abs(C0).max(),
                                max_iters=300, tol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = sparse_code(spec, g)
        est = localize_source(code.coeffs, bank, g, top_k=3)
        base = signal_energy_centroid(X, g)
        truth = g.coords[m_star]
        wins += int(np.linalg.norm(est - truth) < np.linalg.norm(base - truth))
    assert wins >= 32  # 80% of 40
    _report(94, f"localization won {wins}/40 trials against the baseline")


def test_criterion_10_determinism(tmp_path, child_env):
    """Identical command + seed at --threads 1 reproduces byte-identical
    numerical outputs (timings in JSON reports are excluded by design)."""
    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "tvgsp._main",
                               *args, "--threads", "1"],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        cli("graph-gen", "--kind", "knn_sensor", "--n", "24", "--k", "4",
            "--seed", "7", "--out", str(d / "g.csv"),
            "--coords-out", str(d / "c.csv"))
        x1 = np.zeros((24, 1))
        x1[3, 0] = 1.0
        fileio.save_signal_csv(d / "x1.csv", x1)
        cli("dynamics", "--kind", "heat", "--s", "0.05", "--T", "16",
            "--graph", str(d / "g.csv"), "--x1", str(d / "x1.csv"),
            "--out", str(d / "X.csv"), "--emit-spectrum", str(d / "S.csv"))
        cli("compaction", "--graph", str(d / "g.csv"),
            "--signal", str(d / "X.csv"), "--percentiles", "50,90",
            "--out", str(d / "curve.csv"))
        outputs[tag] = {name: (d / name).read_bytes()
                        for name in ("g.csv", "c.csv", "X.csv", "S.csv",
                                     "curve.csv")}
    for name in outputs["one"]:
        assert outputs["one"][name] == outputs["two"][name], name
    _report(10, "graph-gen, dynamics, and compaction outputs are "
                "byte-identical across reruns")
