"""Independent brute-force reference implementations used by the tests.

Everything here is built from dense matrices and direct summation only,
deliberately avoiding the library's own fast paths so the two sides of
each comparison stay independent.
"""

import numpy as np


def dft_matrix(T):
    """Unitary DFT matrix F with dft(X) == X @ F (0-based convention)."""
    t = np.arange(T)
    return np.exp(-2j * np.pi * np.outer(t, t) / T) / np.sqrt(T)


def dense_jft(X, U, T):
    return U.T @ np.asarray(X) @ dft_matrix(T)


def dense_ijft(S, U, T):
    return U @ np.asarray(S) @ np.conj(dft_matrix(T))


def dense_time_laplacian(T):
    L = np.zeros((T, T))
    for t in range(T):
        L[t, t] = 2.0
        L[(t - 1) % T, t] -= 1.0
        L[(t + 1) % T, t] -= 1.0
    return L


def dense_joint_laplacian(Lg, T):
    """Kronecker-sum operator acting on column-stacked signals."""
    n = Lg.shape[0]
    return (np.kron(dense_time_laplacian(T), np.eye(n))
            + np.kron(np.eye(T), Lg))


def quadratic_form(X, g):
    """sum over edges of w (x_i - x_j)^2, accumulated per column."""
    src, dst, w = g.edges()
    X = np.asarray(X)
    total = 0.0
    for i, j, wij in zip(src, dst, w):
        total += wij * ((X[i] - X[j]) ** 2).sum()
    return total


def dense_joint_filter(X, kernel, U, lambdas, T):
    """Joint filtering through explicit dense transform matrices."""
    from tvgsp.transforms import omega_grid
    H = np.empty((lambdas.size, T), dtype=complex)
    w = omega_grid(T)
    for l, lam in enumerate(lambdas):
        for k in range(T):
            H[l, k] = kernel(np.asarray(lam), np.asarray(w[k]))
    S = dense_jft(X, U, T)
    return dense_ijft(H * S, U, T)


def dense_time_filter_matrix(h_omega_values):
    """Matrix applying a temporal spectral multiplier from the right."""
    T = len(h_omega_values)
    F = dft_matrix(T)
    return F @ np.diag(h_omega_values) @ np.conj(F)


def direct_wave_sum(lam, omega, s, T):
    """Direct summation of the wave kernel DFT (the closed-form oracle)."""
    tau = np.arccos(1.0 - s * lam / 2.0)
    t = np.arange(T)
    return np.sum(np.cos(t * tau) * np.exp(-1j * omega * t))


def stvft_double_sum(X_hat, U, lambdas, kernel, z_lambda, z_omega, T):
    """Brute-force analysis coefficients

    C(m, tau) = 1/sqrt(T) sum_{l,k} h(lambda_l - zl, omega_k - zw)
                X_hat(l, k) u_l(m) e^{j omega_k tau}
    """
    from tvgsp.transforms import omega_grid
    n = U.shape[0]
    w = omega_grid(T)
    C = np.zeros((n, T), dtype=complex)
    for m in range(n):
        for tau in range(T):
            acc = 0.0 + 0.0j
            for l in range(n):
                for k in range(T):
                    h = kernel(np.asarray(lambdas[l] - z_lambda),
                               np.asarray(w[k] - z_omega))
                    acc += (complex(h) * X_hat[l, k] * U[m, l]
                            * np.exp(1j * 2 * np.pi * k * tau / T))
            C[m, tau] = acc / np.sqrt(T)
    return C


def tikhonov_normal_equations(Y, Lg, tau1, tau2):
    """Dense minimizer of the joint Tikhonov objective."""
    n, T = Y.shape
    A = (np.eye(n * T)
         + tau1 * np.kron(np.eye(T), Lg)
         + tau2 * np.kron(dense_time_laplacian(T), np.eye(n)))
    x = np.linalg.solve(A, Y.reshape(-1, order="F"))
    return x.reshape(n, T, order="F")


def masked_quadratic_system(M, Lg, gamma1, gamma2):
    """Dense matrix of the normal equations of the inpainting problem with
    p = q = 2, acting on column-stacked signals."""
    n, T = M.shape
    return (np.diag(M.reshape(-1, order="F"))
            + gamma1 * np.kron(np.eye(T), Lg)
            + gamma2 * np.kron(dense_time_laplacian(T), np.eye(n)))


def masked_quadratic_solve(Y, M, Lg, gamma1, gamma2):
    """Dense minimizer of ||M o X - Y||^2 + g1 x' (I kron L) x
    + g2 x' (L_T kron I) x (the inpainting problem with p = q = 2)."""
    n, T = Y.shape
    rhs = (M * Y).reshape(-1, order="F")
    x = np.linalg.solve(masked_quadratic_system(M, Lg, gamma1, gamma2), rhs)
    return x.reshape(n, T, order="F")


def masked_quadratic_objective(X, Y, M, g, gamma1, gamma2):
    from tvgsp.transforms import joint_gradient
    gpart, tpart = joint_gradient(X, g)
    r = M * X - M * Y
    return ((r * r).sum() + gamma1 * (gpart ** 2).sum()
            + gamma2 * (tpart ** 2).sum())


def chebyshev_recurrence(V, table, step):
    """``Y_z = sum_m c_{z,m,.} o T_m V`` (``c_{z,0}`` halved), term by term:
    the terms ``T_m V`` of the three-term recurrence with ``step(V) = 2 L~
    V``, each weighted elementwise. ``table`` is ``(Z, M + 1, B)`` and
    broadcasts against the columns of ``V``."""
    c = np.moveaxis(table, 1, 0)[:, :, None, :]
    terms = [V]
    for m in range(1, len(c)):
        terms.append(0.5 * step(V) if m == 1
                     else step(terms[-1]) - terms[-2])
    return sum(cm * Tm for cm, Tm in zip(c[1:], terms[1:])) + 0.5 * c[0] * V


def clenshaw_sum(coeffs, step):
    """``sum_m T_m B_m`` (``B_0`` halved) for the list ``B_0, ..., B_M``,
    by Clenshaw's recurrence with ``step`` as in
    :func:`chebyshev_recurrence`."""
    if len(coeffs) == 1:
        return 0.5 * coeffs[0]
    b1, b2 = coeffs[-1], 0.0
    for Bm in coeffs[-2:0:-1]:
        b1, b2 = Bm + step(b1) - b2, b1
    return 0.5 * (coeffs[0] + step(b1)) - b2


def cheby2d_time_route(X, A, step):
    """The 2-D Chebyshev sum ``sum_{i,j} A_ij T_i(L~_G) X T_j(L~_T)``
    (first terms halved along each axis) as a recurrence along time with
    the dense ``S_T = L_T - 2 I``, then a Clenshaw sum in the graph with
    ``step`` (as in :func:`chebyshev_recurrence`)."""
    T = X.shape[-1]
    S_T = dense_time_laplacian(T) - 2.0 * np.eye(T)
    return clenshaw_sum(list(chebyshev_recurrence(X, A[:, :, None],
                                                  lambda V: V @ S_T)), step)


def chebyshev_step(g):
    """``V -> 2 L~ V`` with the dense ``(4 / lmax) L - 2 I`` of a graph."""
    S = (4.0 / g.lmax) * g.laplacian_dense() - 2.0 * np.eye(g.N)
    return lambda V: S @ V


def chebyshev_analysis(X, table, step):
    """The engine's analysis on all ``T`` DFT bins: ``(Z, N, T)``."""
    return np.fft.ifft(chebyshev_recurrence(np.fft.fft(X, axis=-1), table,
                                            step), axis=-1)


def chebyshev_synthesis(C, table, step):
    """The engine's adjoint on all ``T`` bins: one Clenshaw sum over ``B_m =
    sum_z conj(c_{z,m,.}) o F C_z``, each ``B_m`` an elementwise sum."""
    Cf = np.fft.fft(C, axis=-1)
    cc = np.conj(np.moveaxis(table, 1, 0))[:, :, None, :]
    return np.fft.ifft(clenshaw_sum([(cm * Cf).sum(axis=0) for cm in cc],
                                    step), axis=-1)
