"""Linear PDE dynamics on graphs and their joint spectral kernels.

Discrete heat diffusion and wave propagation admit per-step evolution
operators whose joint spectra have closed forms; the iterative evolutions
double as independent oracles for those formulas. Time columns are indexed
``t = 0 .. T-1`` with column 0 holding the initial condition.
"""

import warnings

import numpy as np

from .errors import SingularKernelError, StabilityError, ValidationError
from .kernels import JointKernel, stable_geometric_sum
from .transforms import omega_grid


def _validate_initial(x1, g):
    x1 = np.asarray(x1, dtype=float).ravel()
    if x1.shape[0] != g.N:
        raise ValidationError(
            f"initial condition has {x1.shape[0]} entries, graph has {g.N}")
    if not np.isfinite(x1).all():
        raise ValidationError("initial condition contains NaN or Inf")
    return x1


def heat_evolve(x1, g, s, T):
    """Explicit heat evolution ``x_t = (I - s L)^t x_0`` for ``t < T``.

    Defined for every ``s``; a warning is emitted when the iteration
    matrix has spectral radius above 1 (judged with the lambda_max bound)
    since the evolution then diverges.
    """
    x1 = _validate_initial(x1, g)
    if T < 1:
        raise ValidationError("horizon T must be positive")
    if s * g.lmax > 2.0:
        warnings.warn(
            f"heat evolution with s={s:g} may diverge: |1 - s lambda| "
            f"reaches {abs(1 - s * g.lmax):g} (> 1)", stacklevel=2)
    X = np.empty((g.N, T))
    X[:, 0] = x1
    y = x1
    for t in range(1, T):
        y = y - s * (g.L @ y)
        X[:, t] = y
    return X


def heat_joint_spectrum(x1, g, eig, s, T):
    """Closed-form joint spectrum of :func:`heat_evolve`.

    Each joint coefficient is a geometric sum in ``a = (1 - s lambda)
    e^{-j omega}`` applied to ``Z(l, k) = gft(x_0)(l) / sqrt(T)``; matches
    ``jft(heat_evolve(...))``.
    """
    x1 = _validate_initial(x1, g)
    xt1 = eig.vectors.T @ x1
    a = ((1.0 - s * eig.values)[:, None]
         * np.exp(-1j * omega_grid(T, centered=False))[None, :])
    return stable_geometric_sum(a, T) * (xt1[:, None] / np.sqrt(T))


def wave_tau(lam, s):
    """Dispersion angle ``arccos(1 - s lambda / 2)`` of the graph wave.

    Raises :class:`StabilityError` when ``s lambda`` leaves ``[0, 4]``, the
    arccos domain (the stability region of the discrete wave equation).
    """
    lam = np.asarray(lam, dtype=float)
    arg = 1.0 - s * lam / 2.0
    if np.any(arg < -1.0 - 1e-12) or np.any(arg > 1.0 + 1e-12):
        raise StabilityError(
            f"wave kernel needs s * lambda in [0, 4]; got s={s:g} with "
            f"lambda up to {lam.max():g} (bound 4/lambda_max)")
    return np.arccos(np.clip(arg, -1.0, 1.0))


def _exp_sum(theta, T, tol=1e-9):
    """``sum_{t=0}^{T-1} e^{-j theta t}``, resonance-aware.

    When ``T theta / 2 pi`` is an integer the sum collapses to ``T`` (theta
    itself a multiple of 2 pi) or exactly 0; otherwise the Dirichlet form
    is used.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    cycles = theta / (2 * np.pi)
    full = T * cycles
    resonant = np.abs(full - np.round(full)) < tol
    point = np.abs(cycles - np.round(cycles)) < tol / max(T, 1)
    out = np.empty(theta.shape, dtype=complex)
    out[resonant & point] = T
    out[resonant & ~point] = 0.0
    rest = ~resonant
    th = theta[rest]
    out[rest] = (np.exp(-1j * th * (T - 1) / 2)
                 * np.sin(T * th / 2) / np.sin(th / 2))
    return out


def wave_kernel(lam, omega, s, T):
    """Closed-form joint wave kernel ``sum_t cos(t tau) e^{-j omega t}``.

    ``tau = arccos(1 - s lambda / 2)``; the sum runs over ``t = 0 .. T-1``
    so the kernel is consistent with :func:`wave_evolve`. Handles the
    integer-resonance branch where the spectrum degenerates to deltas at
    ``omega = +-tau``.
    """
    lam, omega = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(omega, dtype=float))
    scalar = lam.ndim == 0
    lam, omega = np.atleast_1d(lam), np.atleast_1d(omega)
    tau = wave_tau(lam, s)
    out = 0.5 * (_exp_sum(omega - tau, T) + _exp_sum(omega + tau, T))
    return out[0] if scalar else out


def wave_response(s, lmax, T):
    """The wave propagator spectrum as a filterable joint kernel."""
    if s >= 4.0 / lmax:
        raise StabilityError(
            f"wave speed s={s:g} violates s < 4/lambda_max = {4.0 / lmax:g}")
    return JointKernel(
        fn=lambda lam, omega: wave_kernel(lam, omega, s, T),
        name="wave_propagator", params={"s": s, "lmax": lmax, "T": T})


def wave_evolve(x1, g, eig, s, T):
    """Wave propagation with vanishing initial velocity.

    Column ``t`` is ``U diag(cos(t tau)) U^T x_0``; column 0 reproduces the
    initial condition.
    """
    x1 = _validate_initial(x1, g)
    if T < 1:
        raise ValidationError("horizon T must be positive")
    tau = wave_tau(eig.values, s)
    xt1 = eig.vectors.T @ x1
    phases = np.cos(np.outer(tau, np.arange(T)))
    return eig.vectors @ (phases * xt1[:, None])


def wave_joint_spectrum(x1, g, eig, s, T):
    """Closed-form joint spectrum of :func:`wave_evolve`:
    ``K_s(lambda_l, omega_k) Z(l, k)``."""
    x1 = _validate_initial(x1, g)
    xt1 = eig.vectors.T @ x1
    K = wave_kernel(eig.values[:, None],
                    omega_grid(T, centered=False)[None, :], s, T)
    return K * (xt1[:, None] / np.sqrt(T))


def damped_wave_kernel(lam, omega, beta, T):
    """Damped-wave mother kernel.

    ``(e^{beta + j omega} + lambda/2 - 1) / (2 sqrt(T) (cosh(beta + j omega)
    + lambda/2 - 1))``. The damping ``beta`` controls the decay envelope.
    Raises :class:`SingularKernelError` when the denominator vanishes
    (e.g. at ``beta = omega = lambda = 0``).
    """
    lam, omega = np.asarray(lam, dtype=float), np.asarray(omega, dtype=float)
    w = beta + 1j * omega
    cosh_w, exp_w = np.cosh(w), np.exp(w)  # on omega's shape, not the grid's
    shift = lam / 2.0 - 1.0
    den = 2.0 * (cosh_w + shift)
    bad = np.abs(den) < 1e-12
    if np.any(bad):
        lam, omega = np.broadcast_arrays(lam, omega)
        idx = np.unravel_index(np.argmax(bad), bad.shape) if bad.ndim else ()
        raise SingularKernelError(
            f"damped wave kernel singular at (lambda={float(lam[idx]):g}, "
            f"omega={float(omega[idx]):g}, beta={beta:g})")
    return (exp_w + shift) / (den * np.sqrt(T))


def damped_wave_response(beta, T):
    """Damped-wave mother as a joint kernel (the seismic dictionary mother)."""
    return JointKernel(
        fn=lambda lam, omega: damped_wave_kernel(lam, omega, beta, T),
        name="damped_wave", params={"beta": beta, "T": T})
