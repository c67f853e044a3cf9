"""Regression with joint variation priors.

* :func:`denoise_tikhonov` applies the closed-form joint Tikhonov filter
  (exact minimizer of the quadratic smoothing objective).
* :func:`inpaint` solves masked recovery with a mixed graph/time
  variation prior by Chambolle-Pock with diagonal steps read off the
  difference operators (no lambda-max bound, no smoothing of the l1).
* :func:`sparse_code` fits sparse synthesis coefficients over a frame by
  FISTA with soft thresholding and adaptive restart, one joint transform
  pair per iteration, the forward one on the iterate's support (half
  spectrum, real iterates for real problems).
"""

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NotAFrameError, ValidationError
from .filtering import _filter
from .frames import DEFAULT_ORDER, bank_grid
from .kernels import tikhonov_response
from .transforms import (_checked, _fft, _ifft, _jft_stack, _matvec,
                         _number, _spectral_bins, time_diff,
                         time_diff_adjoint)


@dataclass
class Regularizer:
    """Mixed variation prior ``g1 ||grad_G X||_p^p + g2 ||diff_T X||_q^q``."""

    p: int = 2
    q: int = 2
    gamma_graph: float = 0.0
    gamma_time: float = 0.0

    def __post_init__(self):
        if self.p not in (1, 2) or self.q not in (1, 2):
            raise ValidationError("regularizer orders must be 1 or 2")
        for name in ("gamma_graph", "gamma_time"):
            weight = _number(name, getattr(self, name))
            if weight < 0:
                raise ValidationError(f"{name}={weight!r} must be nonnegative")


@dataclass
class InverseProblemSpec:
    """Masked observation plus prior and solver controls."""

    observation: np.ndarray
    mask: np.ndarray
    regularizer: Regularizer
    max_iters: int = 2000
    tol: float = 1e-6


@dataclass
class InpaintResult:
    signal: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gap: float
    objective_trace: list = field(default_factory=list)


@dataclass
class SparseCodingSpec:
    """Synthesis sparse coding controls for ``min ||D^H C - X||^2 + gamma ||C||_1``."""

    bank: object
    observation: np.ndarray
    gamma: float
    max_iters: int = 500
    tol: float = 1e-6


@dataclass
class SparseCodeResult:
    coeffs: np.ndarray
    objective: float
    iterations: int
    converged: bool
    restarts: int


def denoise_tikhonov(Y, g, tau1, tau2, eig=None, order=DEFAULT_ORDER,
                     info=None):
    """Joint Tikhonov denoising via its closed-form spectral filter.

    Exactly minimizes ``||X - Y||_F^2 + tau1 ||grad_G X||_F^2 +
    tau2 ||diff_T X||_F^2`` (no mask). Uses the exact filter when ``eig``
    is supplied and Chebyshev filtering of the given order otherwise (a
    dict ``info`` then receives ``ffc_fit_error``, see :func:`filter_ffc`).
    """
    return _filter(_checked(Y, "signal", g=g, eig=eig),
                   tikhonov_response(tau1, tau2), g, eig, order, info)


def _iteration_cap(solver, max_iters):
    """``max_iters`` of ``solver`` as an int: a whole number, at least 1."""
    if _number(f"{solver} max_iters", max_iters) < 1:
        raise ValidationError(
            f"{solver} needs max_iters >= 1, got {max_iters}")
    return _number(f"{solver} max_iters", max_iters, integer=True)


def _validate_mask(mask, shape):
    M = np.asarray(mask, dtype=float)
    if M.shape != shape:
        raise ValidationError(f"mask shape {M.shape} != signal shape {shape}")
    if not np.isin(M, (0.0, 1.0)).all():
        raise ValidationError("mask entries must be 0 or 1")
    if M.sum() == 0:
        raise ValidationError("inpainting needs at least one observed entry")
    return M


def _initial_fill(Y, M):
    # Observed entries kept; missing entries take the vertex's temporal
    # mean of observed samples (global observed mean as fallback).
    counts = M.sum(axis=1)
    sums = (M * Y).sum(axis=1)
    global_mean = (M * Y).sum() / M.sum()
    fill = np.where(counts > 0, sums / np.maximum(counts, 1.0), global_mean)
    return np.where(M > 0, Y, fill[:, None])


def _dual_step(u, v, sigma, gamma, p):
    """The prox of ``sigma F*`` at ``u + sigma v``, for ``F = gamma |.|^p``,
    computed in place on ``v``."""
    v *= sigma
    v += u
    if p == 1:
        return np.clip(v, -gamma, gamma, out=v)
    v /= 1.0 + sigma / (2.0 * gamma)
    return v


def inpaint(spec, g):
    """Masked recovery with a mixed variation prior (Chambolle-Pock).

    Minimizes ``||M o X - Y||_F^2 + g1 ||grad_G X||_p^p +
    g2 ||diff_T X||_q^q``. The returned iterate is the best-objective one;
    its objective trace is non-increasing by construction. Stops when the
    relative objective improvement over a 10-iteration window falls below
    ``spec.tol``, else at ``spec.max_iters`` with a warning. ``gap`` is
    that improvement over the last ``min(10, iterations)`` iterations.

    The steps are diagonal, read off the active blocks of ``K = [B; D_T]``
    (Pock & Chambolle 2011, alpha = 1): ``1 / (sum_e sqrt(w_e) + 2)`` at a
    vertex (1 for an empty column), ``1 / (2 sqrt(w_e))`` on an edge, 1/2
    on a time row. ``K X`` is carried over: it serves the objective and
    the next extrapolation ``2 K X_new - K X``.
    """
    max_iters = _iteration_cap("inpaint", spec.max_iters)
    if _number("inpaint tol", spec.tol) < 0:
        raise ValidationError("inpaint tol must be nonnegative")
    Y = _checked(spec.observation, "observation", g=g)
    M = _validate_mask(spec.mask, Y.shape)
    reg, Ym = spec.regularizer, M * Y
    # (K_i, K_i^T, sigma_i, gamma_i, order_i) of each active block
    blocks, column = [], np.zeros(g.N)
    if reg.gamma_graph > 0:
        src, dst, w = g.edges()
        root = np.sqrt(w)
        column += np.bincount(np.r_[src, dst], np.r_[root, root], g.N)
        blocks.append((partial(g._matmul, "B"), partial(g._matmul, "BT"),
                       (0.5 / root)[:, None], reg.gamma_graph, reg.p))
    if reg.gamma_time > 0 and Y.shape[1] > 1:
        column += 2.0
        blocks.append((time_diff, time_diff_adjoint, 0.5, reg.gamma_time,
                       reg.q))
    tau = 1.0 / np.where(column > 0, column, 1.0)[:, None]
    # the data prox X = argmin ||M o X - Ym||^2 + ||X - V||^2 / (2 tau)
    scale = 1.0 / (1.0 + 2.0 * tau * M)
    shift = 2.0 * tau * Ym * scale

    def objective(X, KX):
        r = M * X - Ym
        val = float(np.vdot(r, r))
        for (_, _, _, gamma, order), G in zip(blocks, KX):
            val += gamma * float(np.abs(G).sum() if order == 1
                                 else np.vdot(G, G))
        return val

    X = _initial_fill(Y, M)
    KX = [K(X) for K, *_ in blocks]
    KXbar, duals = [G.copy() for G in KX], [np.zeros_like(G) for G in KX]
    best_obj, best_X = objective(X, KX), X
    history = [best_obj]
    window = 10
    converged = False
    for iterations in range(1, max_iters + 1):
        step = 0.0   # updates run in place on arrays no longer needed
        for i, (_, KT, sigma, gamma, order) in enumerate(blocks):
            duals[i] = _dual_step(duals[i], KXbar[i], sigma, gamma, order)
            step = step + KT(duals[i])
        X = scale * (X - tau * step) + shift
        for i, (K, *_) in enumerate(blocks):
            G = K(X)
            KXbar[i] = np.subtract(G, KX[i], out=KX[i])
            KXbar[i] += G
            KX[i] = G
        obj = objective(X, KX)
        if obj < best_obj:
            best_obj, best_X = obj, X
        history.append(best_obj)
        gap = ((history[-min(window, iterations) - 1] - best_obj)
               / max(best_obj, 1e-30))
        if iterations >= window and gap < spec.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"inpaint did not converge in {max_iters} iterations "
            f"(relative objective gap {gap:.3e})", stacklevel=2)
    return InpaintResult(signal=best_X, objective=best_obj,
                         iterations=iterations, converged=converged,
                         gap=float(gap), objective_trace=history)


def _soft_threshold(U, thr, shrunk):
    """Shrink ``U``, real or complex, toward 0 by ``thr`` in magnitude, in
    place, through the real work array ``shrunk``; returns the l1 norm."""
    np.abs(U, out=shrunk)
    if np.iscomplexobj(U):
        U /= np.maximum(shrunk, 1e-300)   # the phase, times shrunk below
    np.maximum(np.subtract(shrunk, thr, out=shrunk), 0.0, out=shrunk)
    if np.iscomplexobj(U):
        U *= shrunk
    else:
        np.copysign(shrunk, U, out=U)
    return float(shrunk.sum())


def _support(mask):
    """Indexer of the True entries of a 1-D ``mask``: the full slice when
    all are, so indexing with it gives views and the dense product's
    bits."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def sparse_code(spec, g, eig=None):
    """Sparse synthesis coding over a frame by FISTA.

    Gradient steps use ``1 / (2 B)`` with ``B`` the upper frame bound (the
    Lipschitz constant of the smooth part is ``2 ||D^H||^2 <= 2 B``), read
    off the bank's joint-grid responses, which are evaluated once. Momentum
    restarts whenever the objective increases (adaptive restart, O'Donoghue
    & Candes 2015); ``restarts`` counts them. Stops on relative objective
    change below ``spec.tol``.

    The iterations run in the joint spectral domain, where the bank is
    diagonal. A real observation with a grid conjugate-symmetric in omega
    keeps real iterates and works on the ``T // 2 + 1`` bins of the real
    FFT (Parseval weight 1 for DC and, for even ``T``, Nyquist, 2 for the
    rest); otherwise on the full complex spectrum. The residual spectrum is
    affine in the coefficients, so the momentum point's is
    ``(1 + beta) R(C_new) - beta R(C)`` and each iteration costs one
    adjoint transform of the full ``(|Z|, N, T)`` stack and one forward
    transform of the iterate's support: its graph product and FFT run on
    the atoms with a nonzero coefficient (active) at the vertices where
    any atom has one (live), so their cost scales with active atoms times
    live vertices. Equivalent to composing the public exact
    ``synthesize``/``analyze``; ``coeffs`` are complex ``(|Z|, N, T)``.
    """
    if _number("sparse coding weight gamma", spec.gamma) < 0:
        raise ValidationError("sparse coding weight gamma must be nonnegative")
    max_iters = _iteration_cap("sparse coding", spec.max_iters)
    if _number("sparse coding tol", spec.tol) < 0:
        raise ValidationError("sparse coding tol must be nonnegative")
    bank = spec.bank
    if bank.subsampled:
        raise ValidationError("sparse coding requires full bank lattices")
    X = _checked(spec.observation, "observation", g=g, eig=eig, bank=bank)
    T = bank.T
    if eig is None:
        eig = g.eigensystem()
    H = bank_grid(bank, eig)
    bound_B = float((np.abs(H) ** 2).sum(axis=0).max())
    if bound_B <= 0:
        raise NotAFrameError("bank has zero response everywhere")
    step = 1.0 / (2.0 * bound_B)
    half, H = _spectral_bins(X, H)
    # responses with the gradient step's and the forward map's factors in
    H_grad = H * (2.0 * np.sqrt(T) * step)
    H_fwd = np.conj(H) / np.sqrt(T)
    # Parseval weights: a half-spectrum bin other than DC and (even T)
    # Nyquist also stands for its conjugate mirror
    weights = np.ones(H.shape[-1])
    if half:
        weights[1:(T + 1) // 2] = 2.0
    X_hat = _jft_stack(X, eig, half)
    Q, thr, ones = eig.vectors, step * spec.gamma, np.ones(T)

    def objective(R_hat, l1):
        return float((np.abs(R_hat) ** 2).sum(axis=0) @ weights
                     + spec.gamma * l1)

    # the iterate C, its successor U and the momentum point Z: reused arrays
    C, U, Z = (np.zeros((bank.size, g.N, T), float if half else complex)
               for _ in range(3))
    shrunk = np.empty(C.shape)
    R = R_Z = -X_hat
    t, obj = 1.0, objective(R, 0.0)
    converged = False
    iterations = restarts = 0
    for iterations in range(1, max_iters + 1):
        # U = Z - step * 2 analyze(synthesize(Z) - X), shrunk, and the
        # residual spectrum jft(synthesize(U) - X)
        V = _ifft(H_grad * R_Z, T, half)
        np.subtract(Z, _matvec(Q, V, out=U), out=U)
        l1 = _soft_threshold(U, thr, shrunk)
        # the forward map on the support: shrunk >= 0, so an (atom,
        # vertex) row sums to 0 only when it is all 0
        rows = (shrunk.reshape(-1, T) @ ones).reshape(bank.size, g.N)
        a, v = _support(rows.any(axis=1)), _support(rows.any(axis=0))
        U_sub = U[a][:, v]
        S = _matvec(Q[v].T, U_sub, out=V[:len(U_sub)])
        R_new = (H_fwd[a] * _fft(S, half)).sum(axis=0)
        R_new -= X_hat
        obj_new = objective(R_new, l1)
        if obj_new > obj:
            # adaptive restart: drop the momentum and re-anchor
            restarts += 1
            t, R_Z = 1.0, R_new
            np.copyto(Z, U)
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            np.subtract(U, C, out=Z)    # Z = U + beta (U - C)
            Z *= beta
            Z += U
            R_Z = (1.0 + beta) * R_new - beta * R   # R is affine in C
            t = t_new
        done = abs(obj_new - obj) <= spec.tol * max(obj_new, 1e-30)
        C, U = U, C
        R, obj = R_new, obj_new
        if done:
            converged = True
            break
    return SparseCodeResult(coeffs=C.astype(complex, copy=False),
                            objective=obj, iterations=iterations,
                            converged=converged, restarts=restarts)


def localize_source(C, bank, g, top_k):
    """Energy-weighted centroid of the ``top_k`` highest-energy source
    vertices of a coefficient tensor. Requires vertex coordinates and a
    full vertex lattice."""
    if g.coords is None:
        raise ValidationError("graph has no vertex coordinates")
    C = _checked(C, "coefficient stack", 3, g=g, bank=bank)
    if not 1 <= _number("top_k", top_k) <= g.N:
        raise ValidationError(f"top_k must lie in [1, {g.N}]")
    top_k = _number("top_k", top_k, integer=True)
    energy = (np.abs(C) ** 2).sum(axis=(0, 2))
    order = np.lexsort((np.arange(g.N), -energy))
    sel = order[:top_k]
    weights = energy[sel]
    if weights.sum() == 0:
        weights = np.ones_like(weights)
    return (weights[:, None] * g.coords[sel]).sum(axis=0) / weights.sum()


def signal_energy_centroid(X, g):
    """Baseline source estimate: station coordinates averaged with raw
    signal energies as weights."""
    if g.coords is None:
        raise ValidationError("graph has no vertex coordinates")
    X = _checked(X, "signal", g=g)
    energy = (X * X).sum(axis=1)
    if energy.sum() == 0:
        energy = np.ones_like(energy)
    return (energy[:, None] * g.coords).sum(axis=0) / energy.sum()
