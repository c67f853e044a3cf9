"""Independent references for the output checks.

Nothing here imports the program: files are parsed from their documented
formats and every reference is computed with numpy/scipy directly, so a
defect in the program cannot hide in its own oracle.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


@dataclass
class RefGraph:
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    L: sp.csr_matrix
    degrees: np.ndarray
    coords: np.ndarray


def load_graph(path, n):
    """Edge-list CSV (``src,dst,weight``) plus the ``coords.csv`` beside it."""
    edges = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    src, dst = edges[:, 0].astype(int), edges[:, 1].astype(int)
    w = edges[:, 2]
    W = sp.coo_matrix((np.r_[w, w], (np.r_[src, dst], np.r_[dst, src])),
                      shape=(n, n)).tocsr()
    degrees = np.asarray(W.sum(axis=1)).ravel()
    L = (sp.diags(degrees) - W).tocsr()
    coords = np.loadtxt(os.path.join(os.path.dirname(path), "coords.csv"),
                        delimiter=",", skiprows=1, ndmin=2)
    return RefGraph(src, dst, w, L, degrees, coords)


def load_signal(path):
    if path.endswith(".bin"):
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != b"TVSG":
            raise ValueError(f"{path}: not a binary signal")
        n, t, _ = np.frombuffer(raw[4:16], dtype="<u4")
        return np.frombuffer(raw[16:], dtype="<f8").reshape(n, t).copy()
    return np.loadtxt(path, delimiter=",", ndmin=2)


def load_coefficients(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"TVCF":
        raise ValueError(f"{path}: not a coefficient file")
    z, n, t = np.frombuffer(raw[4:16], dtype="<u4")
    return np.frombuffer(raw[16:], dtype="<c16").reshape(z, n, t).copy()


def rel_err(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(np.linalg.norm(b), 1e-300))


def tikhonov_reference(graph, Y, tau1, tau2):
    """Minimiser of ``||X - Y||^2 + tau1 tr(X^T L X) + tau2 ||diff_T X||^2``.

    The periodic time difference diagonalises under the DFT, so the normal
    equations split into one sparse system ``((1 + tau2 mu_k) I + tau1 L)
    x_k = y_k`` per frequency bin; each is factored with a sparse LU. Real
    input makes bins ``k`` and ``T - k`` conjugate, so only ``T // 2 + 1``
    are solved.
    """
    n, T = Y.shape
    Yf = np.fft.rfft(Y, axis=1)
    mu = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(Yf.shape[1]) / T)
    eye = sp.identity(n, format="csc")
    L = graph.L.tocsc()
    Xf = np.empty_like(Yf)
    for k in range(Yf.shape[1]):
        lu = splu(((1.0 + tau2 * mu[k]) * eye + tau1 * L).tocsc())
        sol = lu.solve(np.column_stack([Yf[:, k].real, Yf[:, k].imag]))
        Xf[:, k] = sol[:, 0] + 1j * sol[:, 1]
    return np.fft.irfft(Xf, n=T, axis=1)


def wave_reference(graph, x0, s, T):
    """Zero-velocity graph wave by its three-term recurrence:
    ``x_{t+1} = (2 I - s L) x_t - x_{t-1}``, ``x_1 = (I - s L / 2) x_0``."""
    X = np.empty((x0.size, T))
    X[:, 0] = x0
    if T > 1:
        X[:, 1] = x0 - 0.5 * s * (graph.L @ x0)
    for t in range(1, T - 1):
        X[:, t + 1] = 2.0 * X[:, t] - X[:, t - 1] - s * (graph.L @ X[:, t])
    return X


def heat_reference(graph, x0, s, T):
    """Explicit heat steps ``x_{t+1} = x_t - s L x_t``."""
    X = np.empty((x0.size, T))
    X[:, 0] = x0
    for t in range(T - 1):
        X[:, t + 1] = X[:, t] - s * (graph.L @ X[:, t])
    return X


def inpaint_objective(graph, X, observed, mask, gamma1, gamma2):
    """``||M o X - Y||^2 + g1 ||grad_G X||_1 + g2 ||diff_T X||_2^2``."""
    r = mask * X - mask * observed
    grad = np.sqrt(graph.weight)[:, None] * (X[graph.src] - X[graph.dst])
    diff = X - np.roll(X, 1, axis=1)
    return float((r * r).sum() + gamma1 * np.abs(grad).sum()
                 + gamma2 * (diff * diff).sum())


def eigensystem(graph):
    """Dense eigendecomposition of the Laplacian: ``(values, vectors)``."""
    values, vectors = np.linalg.eigh(graph.L.toarray())
    return np.maximum(values, 0.0), vectors


def omega_grid(T):
    """Angular frequencies ``2 pi k / T`` wrapped to ``(-pi, pi]``."""
    w = 2.0 * np.pi * np.arange(T) / T
    return np.where(w > np.pi + 1e-15, w - 2.0 * np.pi, w)


def joint_filter(eig, H, X):
    """``U ifft(H fft(U^T X))`` for a response ``H`` of shape ``(N, T)`` or
    a stack ``(Z, N, T)``: exact joint filtering in the joint spectral
    domain (complex result)."""
    _, U = eig
    return np.matmul(U, np.fft.ifft(H * np.fft.fft(np.matmul(U.T, X),
                                                   axis=-1), axis=-1))


def joint_synthesis(eig, H, C):
    """Adjoint of :func:`joint_filter` over a stack:
    ``sum_z conj(h_z) C_z``."""
    return joint_filter(eig, np.conj(H), C).sum(axis=0)


def wave_gauss_grid(lambdas, T, lmax):
    """Gaussian ridge along the graph-wave dispersion curve
    ``pi |omega| = arccos(1 - lambda / (2 lmax))``."""
    ridge = np.arccos(np.clip(1.0 - lambdas[:, None] / (2.0 * lmax), -1, 1))
    return np.exp(-(np.pi * np.abs(omega_grid(T))[None, :] - ridge) ** 2)


def damped_wave_bank_grid(lambdas, T, scales, beta):
    """Damped-wave STVWT responses ``h(z lambda, omega)`` with
    ``h = (e^{beta + j omega} + lambda/2 - 1)
    / (2 sqrt(T) (cosh(beta + j omega) + lambda/2 - 1))``."""
    w = beta + 1j * omega_grid(T)[None, :]
    H = []
    for z in scales:
        shift = z * lambdas[:, None] / 2.0 - 1.0
        H.append((np.exp(w) + shift)
                 / (2.0 * np.sqrt(T) * (np.cosh(w) + shift)))
    return np.stack(H)


def mexican_hat_bank_grid(lambdas, T, scales):
    """Mexican-hat STVWT responses ``z lambda e^{-z lambda} e^{-omega^2}``,
    shape ``(|Z|, N, T)``."""
    lam = lambdas[None, :, None]
    z = np.asarray(scales, dtype=float)[:, None, None]
    return (z * lam) * np.exp(-z * lam) * np.exp(-omega_grid(T) ** 2)


def tikhonov_grid(lambdas, T, tau1, tau2):
    """Tikhonov response ``1 / (1 + tau1 lambda + 2 tau2 (1 - cos omega))``."""
    return 1.0 / (1.0 + tau1 * lambdas[:, None]
                  + 2.0 * tau2 * (1.0 - np.cos(omega_grid(T)))[None, :])


def sparse_code_objective(eig, H, C, X, gamma):
    """``||sum_z conj(h_z)(L_G, L_T) C_z - X||^2 + gamma ||C||_1``."""
    R = joint_synthesis(eig, H, C) - X
    return float((np.abs(R) ** 2).sum() + gamma * np.abs(C).sum())


def fista_reference(eig, H, X, gamma, iters):
    """Objective after ``iters`` FISTA steps on the sparse-code problem.

    Step ``1 / (2 B)`` with ``B = max sum_z |h_z|^2`` (the upper frame
    bound), complex soft thresholding, and a momentum restart whenever the
    objective rises; starts from ``C = 0``. Runs in the joint spectral
    domain, where the bank is diagonal.
    """
    _, U = eig
    T = X.shape[1]

    def jft(A):
        return np.fft.fft(np.matmul(U.T, A), axis=-1) / np.sqrt(T)

    def ijft(S):
        return np.matmul(U, np.fft.ifft(S, axis=-1)) * np.sqrt(T)

    step = 1.0 / (2.0 * float((np.abs(H) ** 2).sum(axis=0).max()))
    Hc = np.conj(H)
    X_hat = jft(X.astype(complex))

    def residual(C):
        return (Hc * jft(C)).sum(axis=0) - X_hat

    def objective(C):
        return float((np.abs(residual(C)) ** 2).sum()
                     + gamma * np.abs(C).sum())

    C = np.zeros(H.shape, dtype=complex)
    Z, t, obj = C, 1.0, objective(C)
    for _ in range(iters):
        V = Z - step * 2.0 * ijft(H * residual(Z)[None])
        mag = np.abs(V)
        C_new = V * np.maximum(1.0 - step * gamma / np.maximum(mag, 1e-300),
                               0.0)
        obj_new = objective(C_new)
        if obj_new > obj:
            t, Z = 1.0, C_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Z = C_new + ((t - 1.0) / t_new) * (C_new - C)
            t = t_new
        C, obj = C_new, obj_new
    return obj


def inpaint_reference(graph, lmax, observed, mask, gamma1, gamma2,
                      max_iters=50000, every=10, window=1000, tol=1e-8):
    """Best objective of :func:`inpaint_objective` (with ``p = 1``, ``q =
    2``) found by a long primal-dual (Chambolle-Pock) run.

    Primal prox on the masked data term, dual proxes on the weighted graph
    gradient (``l1``) and the periodic time difference (squared ``l2``);
    ``sigma = tau = 0.99 / sqrt(lmax + 4)``. The objective is sampled every
    ``every`` iterations; the run stops when the best sample improves by
    less than ``tol`` (relative) over ``window`` iterations.
    """
    n = graph.degrees.size
    root = np.sqrt(graph.weight)
    edges = np.arange(root.size)
    B = sp.csr_matrix((np.r_[root, -root],
                       (np.r_[edges, edges], np.r_[graph.src, graph.dst])),
                      shape=(root.size, n))
    Bt = B.T.tocsr()
    Ym = mask * observed
    step = 0.99 / np.sqrt(lmax + 4.0)
    X = Ym.copy()
    Xbar = X.copy()
    P = np.zeros((root.size, X.shape[1]))
    Q = np.zeros_like(X)
    best = [inpaint_objective(graph, X, observed, mask, gamma1, gamma2)]
    lag = window // every
    for it in range(1, max_iters + 1):
        P = np.clip(P + step * (B @ Xbar), -gamma1, gamma1)
        Q = (Q + step * (Xbar - np.roll(Xbar, 1, axis=1))) / (
            1.0 + step / (2.0 * gamma2))
        V = X - step * (Bt @ P + Q - np.roll(Q, -1, axis=1))
        X_new = np.where(mask > 0, (V + 2.0 * step * Ym) / (1.0 + 2.0 * step),
                         V)
        Xbar = 2.0 * X_new - X
        X = X_new
        if it % every:
            continue
        best.append(min(best[-1], inpaint_objective(
            graph, X, observed, mask, gamma1, gamma2)))
        if len(best) > lag and best[-lag - 1] - best[-1] <= tol * best[-1]:
            break
    return best[-1]


def compaction_reference(X, eig, percentiles, band=1e-9):
    """Energy-compaction errors of the DFT, GFT and JFT of ``X``.

    For each transform and percentile the coefficients of magnitude below
    that percentile are zeroed; the error is ``||X_p - X|| / ||X||``. All
    three transforms are unitary, so the error is the norm of the zeroed
    coefficients. A coefficient within ``band`` (relative) of the threshold
    may fall on either side of it in another implementation (conjugate pairs
    of equal magnitude often straddle the median), so each error is returned
    as the interval ``(low, high)`` that zeroing none or all of them gives.
    Returns ``{(transform, percentile): (low, high)}``.
    """
    _, U = eig
    T = X.shape[1]
    coeffs = {"dft": np.fft.fft(X, axis=1) / np.sqrt(T), "gft": U.T @ X,
              "jft": np.fft.fft(U.T @ X, axis=1) / np.sqrt(T)}
    norm = np.linalg.norm(X)
    out = {}
    for name, S in coeffs.items():
        mags = np.abs(S)
        for p in percentiles:
            threshold = np.percentile(mags, p)
            out[(name, float(p))] = tuple(
                float(np.sqrt((mags[mags < threshold * f] ** 2).sum()) / norm)
                for f in (1.0 - band, 1.0 + band))
    return out


def centroid_reference(C, coords, top_k):
    """Energy-weighted centroid of the ``top_k`` vertices of highest
    coefficient energy (ties to the lower index)."""
    energy = (np.abs(C) ** 2).sum(axis=(0, 2))
    top = sorted(range(energy.size), key=lambda v: (-energy[v], v))[:top_k]
    w = energy[top]
    return (w[:, None] * coords[top]).sum(axis=0) / w.sum()
