"""Joint time-vertex filtering.

Three interchangeable implementations of ``Y = h(L_G, L_T) X``:

``filter_exact``
    Diagonalize in the joint Fourier basis and multiply pointwise. The
    reference for every accuracy comparison; needs the eigendecomposition.

``filter_ffc``
    Fast Fourier-Chebyshev: FFT along time, then for each angular
    frequency ``omega_k`` filter the graph dimension with a Chebyshev
    approximation of ``h(., omega_k)``, then inverse FFT. No
    eigendecomposition, only the lambda_max bound. Exact in the temporal
    variable, which is where its accuracy edge over 2-D polynomial schemes
    comes from. The largest probed fit error bounds the result:
    ``||Y - Y_exact||_F <= ffc_fit_error * ||X||_F`` (the DFT is unitary).

``filter_cheby2d``
    Baseline: a 2-D Chebyshev expansion in ``(L_G, L_T)``, one table on the
    DFT bins (``L_T`` is circulant). ``lambda_T = 2 (1 - cos omega)`` has an
    inverse map with square-root singularities, so sharp temporal structure
    converges markedly slower than under FFC.

Every joint filter of the package runs through one private analysis/adjoint
pair for a stack function, ``(lambdas, omegas)`` -> the ``(Z, L, W)``
responses of a kernel list or bank (see :func:`tvgsp.kernels._stack`): exact
with an eigensystem (the stack on the joint grid times the joint spectrum of
:mod:`tvgsp.transforms`), else the Chebyshev engine, which needs no
eigendecomposition. The engine fits a ``(Z, M + 1, T)`` coefficient table,
frequency last like the exact grid ``(Z, N, T)``. On the spectrum, analysis is
one three-term recurrence with its terms weighted per kernel, and the adjoint
one Clenshaw loop over blocks of ``B_m = sum_z conj(c_{z,m}) o C_z^``; a block
of :data:`_BLOCK` orders comes from one batched matrix product per bin
(analysis with one kernel, ``filter_cheby2d``'s included, weights each
term elementwise). The fit (``_fit_table``) is the one place that records
``ffc_fit_error`` in a caller's ``info`` dict. Each step multiplies by the
graph's cached step operator ``(4 / lmax) L - 2 I`` through the CSR product
of :mod:`tvgsp.graphs`, which runs scipy's compiled kernels without loading
the ``scipy.sparse`` package; complex operands go through their float64 view,
so ``L`` is never upcast. The operand is made C-contiguous once, at the
FFT, so any memory layout of the input gives the same result. When the
input is real and the table conjugate-symmetric in omega (the operator maps
real signals to real signals) it works on the ``T // 2 + 1`` bins of the
half spectrum, else on all ``T``. A recurrence costs ``O(|E| M T / 2 + N T
log T)`` on the half spectrum, shared by all ``|Z|`` kernels of a bank,
plus ``O(|Z| N M T / 2)`` for the per-kernel weights. Those run in the
batched matrix products; the one elementwise pass left per order copies a
term into its block (analysis) or a coefficient out of it (adjoint).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import JointKernel, _stack
from .transforms import (SYMMETRY_TOL, _checked, _fft, _ifft, _ijft_stack,
                         _jft_stack, _number, _spectral_bins, omega_grid,
                         real_if_close)


# ---------------------------------------------------------------------------
# Chebyshev fitting
# ---------------------------------------------------------------------------

def _nodes(num_points, interval):
    """Chebyshev points of the first kind: angles and points of ``interval``."""
    a, b = interval
    theta = np.pi * (np.arange(num_points) + 0.5) / num_points
    return theta, 0.5 * (b - a) * np.cos(theta) + 0.5 * (b + a)


_PROBE_POINTS = 101  # where the engine measures each fit error


def _check_order(order, label="order"):
    """The check of every Chebyshev order: a whole number, at least 0,
    returned as an int; a NaN or fractional order is an error naming
    ``label``."""
    number = _number(label, order)
    if number < 0:
        raise ValidationError("Chebyshev order must be nonnegative")
    return _number(label, order, integer=True) if number else 0


def _quadrature(order, interval):
    """``2 (order + 1)`` nodes and the cosine-quadrature matrix mapping node
    values to Chebyshev coefficients (constant term halved when applied)."""
    a, b = interval
    if not b > a:
        raise ValidationError("Chebyshev interval must have positive length")
    order = _check_order(order)
    P = 2 * (order + 1)
    theta, nodes = _nodes(P, interval)
    return nodes, (2.0 / P) * np.cos(np.outer(np.arange(order + 1), theta))


def fit_chebyshev(fn, order, interval):
    """Chebyshev coefficients of ``fn`` on ``interval`` by cosine quadrature.

    Uses ``2 (order + 1)`` quadrature points; coefficients follow the
    convention in which the constant term is halved at application time, so
    polynomials of degree <= order are reproduced exactly.
    """
    nodes, Q = _quadrature(order, interval)
    return Q @ np.asarray(fn(nodes))


@dataclass
class ChebyshevApprox:
    """Per-temporal-frequency Chebyshev table for a joint kernel.

    ``coeffs[k]`` approximates ``h(., omega_k)`` on ``interval``;
    ``fit_errors[k]`` is the sup error measured on 101 probe points.
    """

    order: int
    interval: tuple
    coeffs: np.ndarray      # (T, order + 1), complex
    fit_errors: np.ndarray  # (T,)


def _fit_kernels(stack, T, order, interval):
    """``(Z, order + 1, T)`` coefficients of a stack function's ``h_z(.,
    omega_k)`` and their ``(Z, T)`` probed fit errors, from one stack on
    the nodes and one on the probe points."""
    nodes, Q = _quadrature(order, interval)
    w = omega_grid(T)
    fits = Q @ stack(nodes, w)
    theta, probe = _nodes(_PROBE_POINTS, interval)
    basis = np.cos(np.outer(theta, np.arange(order + 1)))
    basis[:, 0] *= 0.5
    return fits, np.abs(basis @ fits - stack(probe, w)).max(axis=1)


def fit_joint_kernel(kernel, T, order, interval):
    """Fit ``h(., omega_k)`` for every DFT frequency at once."""
    coeffs, fit_errors = _fit_kernels(_stack([kernel]), T, order, interval)
    return ChebyshevApprox(order=order, interval=tuple(interval),
                           coeffs=coeffs[0].T, fit_errors=fit_errors[0])


# ---------------------------------------------------------------------------
# Chebyshev engine and the one dispatch between it and the exact grid table
# ---------------------------------------------------------------------------

def _fit_table(stack, T, order, g, info, scale=1.0):
    """``(Z, M + 1, T)`` table of the stack's ``h_z(., omega_k)`` on ``[0,
    lmax]``. A dict ``info`` receives ``ffc_fit_error``, ``scale`` times
    the largest probed fit error over ``z`` and ``k``.

    An edgeless graph has the single eigenvalue 0; its table is the exact
    order-0 response ``h_z(0, omega_k)``, with fit error 0."""
    order = _check_order(order)
    if g.lmax == 0:
        table, fit_errors = 2.0 * stack(np.zeros(1), omega_grid(T)), 0.0
    else:
        table, fit_errors = _fit_kernels(stack, T, order, (0.0, g.lmax))
    if info is not None:
        info["ffc_fit_error"] = float(np.max(fit_errors)) * scale
    return table


#: Chebyshev orders per block of the engine's batched products: a block of
#: terms (analysis) or of the adjoint's ``B_m``, which one Clenshaw loop
#: consumes, is one ``(B, K, N)`` array, 4.2 MB at N = 1000 and B = 33
#: bins. Blocks of 16 or 31 orders were no faster, and took 2-4x the memory.
_BLOCK = 8


def _terms(Vf, order, g):
    """``T_0(L~) Vf, ..., T_order(L~) Vf`` by the three-term recurrence."""
    yield Vf
    if order > 0:
        prev, cur = Vf, 0.5 * g._matmul("step", Vf)
        yield cur
        for _ in range(order - 1):
            prev, cur = cur, g._matmul("step", cur) - prev
            yield cur


def _recurrence(Vf, table, g):
    """``Y_z = sum_m c_{z,m,.} o T_m(L~) Vf`` (``c_{z,0}`` halved) for all z.

    One three-term recurrence ``T_m(L~) Vf`` serves all kernels. ``L~``
    maps ``[0, lmax]`` onto ``[-1, 1]``, and the graph's cached step
    operator ``(4 / lmax) L - 2 I`` is ``2 L~``. ``Vf`` is ``(N, B)`` on
    ``B`` DFT bins, ``table`` ``(Z, M + 1, B)``, the result ``(Z, N, B)``.

    One kernel weights each term elementwise. Several kernels gather
    :data:`_BLOCK` terms into a ``(B, K, N)`` block and weight it with one
    batched product per bin, ``(Z, K) @ (K, N)``."""
    Z, M1, bins = table.shape
    terms = _terms(Vf, M1 - 1, g)
    if Z == 1:
        c = np.moveaxis(table, 1, 0)[:, :, None, :]        # (M+1, Z, 1, B)
        Y = 0.5 * c[0] * next(terms)
        for cm, term in zip(c[1:], terms):
            Y += cm * term
        return Y
    c = table.transpose(2, 0, 1).copy()                    # (B, Z, M+1)
    c[..., 0] *= 0.5
    block = np.empty((bins, min(_BLOCK, M1), Vf.shape[0]),
                     np.result_type(Vf, table))
    Y = 0.0
    for m, term in enumerate(terms):
        k = m % _BLOCK
        block[:, k] = term.T
        if k == _BLOCK - 1 or m == M1 - 1:
            Y += c[..., m - k:m + 1] @ block[:, :k + 1]       # (B, Z, N)
    return Y.transpose(1, 2, 0)


def _clenshaw(Cf, table, g):
    """``sum_m T_m(L~) B_m`` (``B_0`` halved), ``B_m = sum_z conj(c_{z,m,.})
    o Cf_z``: the adjoint of :func:`_recurrence`, on a ``(Z, N, B)``
    spectrum ``Cf``, to ``(N, B)``.

    :data:`_BLOCK` orders of ``B_m`` at a time come from one batched
    product per bin, ``(K, Z) @ (Z, N)``, into one buffer; Clenshaw's
    backward recurrence consumes each block from its top order down,
    ``b_m = B_m - b_{m+2} + 2 L~ b_{m+1}``, adding the step product
    straight into a new C-contiguous ``B_m - b_{m+2}``."""
    cc = np.ascontiguousarray(np.conj(table.transpose(2, 1, 0)))  # (B, M+1, Z)
    Cb = np.ascontiguousarray(Cf.transpose(2, 0, 1))              # (B, Z, N)
    (bins, M1, _), N = cc.shape, Cf.shape[1]
    block = np.empty((bins, min(_BLOCK, M1), N), np.result_type(cc, Cb))
    b1, b2, b3 = 0.0, 0.0, 0.0
    for j in range((M1 - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        k = min(_BLOCK, M1 - j)
        np.matmul(cc[:, j:j + k], Cb, out=block[:, :k])
        for m in range(j + k - 1, j - 1, -1):
            out = np.subtract(block[:, m - j].T, b2,
                              out=np.empty((N, bins), block.dtype))
            if m < M1 - 1:
                out = g._matmul("step", b1, out)
            b1, b2, b3 = out, b1, b2
    return 0.5 * (b1 - b3)                                 # (b_0 - b_2) / 2


def _engine(X, table, g):
    """``(Z, N, T)`` stack of ``sum_m c_{z,m,k} T_m(L~) X`` at each DFT bin
    ``k`` of a ``(Z, M + 1, T)`` table: FFT, :func:`_recurrence`, inverse."""
    half, H = _spectral_bins(X, table)
    return _ifft(_recurrence(_fft(X, half), H, g), X.shape[-1], half)


def _analysis(X, stack, g, eig, order, info, scale=1.0):
    """``(Z, N, T)`` stack of ``h_z(L_G, L_T) X`` for the responses of a
    stack function: with ``eig`` the grid table times the joint spectrum,
    else one engine recurrence for all kernels (``info`` and ``scale`` as
    in :func:`_fit_table`)."""
    T = X.shape[-1]
    if eig is not None:
        half, H = _spectral_bins(X, stack(eig.values, omega_grid(T)))
        return _ijft_stack(H * _jft_stack(X, eig, half), eig, T, half)
    return _engine(X, _fit_table(stack, T, order, g, info, scale), g)


def _synthesis(C, stack, g, eig, order, info):
    """``sum_z conj(h_z)(L_G, L_T) C_z`` (the adjoint of :func:`_analysis`);
    without ``eig`` :func:`_clenshaw` between an FFT and its inverse."""
    T = C.shape[-1]
    if eig is not None:
        half, H = _spectral_bins(C, stack(eig.values, omega_grid(T)))
        S = (np.conj(H) * _jft_stack(C, eig, half)).sum(axis=0)
        return _ijft_stack(S, eig, T, half)
    half, H = _spectral_bins(C, _fit_table(stack, T, order, g, info))
    return _ifft(_clenshaw(_fft(C, half), H, g), T, half)


def _filter(X, kernel, g, eig, order, info=None):
    """``h(L_G, L_T) X``, real when the imaginary part is negligible."""
    return real_if_close(_analysis(X, _stack([kernel]), g, eig, order,
                                   info)[0])


# ---------------------------------------------------------------------------
# Filtering front-ends
# ---------------------------------------------------------------------------

def filter_exact(X, kernel, eig):
    """Reference joint filter: pointwise multiplication in the joint
    spectral domain."""
    return _filter(_checked(X, "signal", eig=eig), kernel, None, eig, None)


def filter_ffc(X, kernel, g, order, info=None):
    """Fast Fourier-Chebyshev joint filtering (no eigendecomposition).

    If ``info`` is a dict it receives ``ffc_fit_error``, the largest
    probed error of the per-frequency fits; ``||Y - Y_exact||_F <=
    ffc_fit_error * ||X||_F``.
    """
    return _filter(_checked(X, "signal", g=g), kernel, g, None, order, info)


def filter_cheby2d(X, kernel, g, order_graph, order_time):
    """2-D Chebyshev polynomial filter in ``(L_G, L_T)`` (baseline).

    The kernel is sampled at ``omega = arccos(1 - lambda_T / 2)``, so at
    ``omega >= 0`` only: a polynomial in ``L_T`` is even in ``omega``. A
    kernel whose response there changes at ``-omega`` by more than
    :data:`SYMMETRY_TOL` of its peak (``heat``, ``damped_wave``) is a
    :class:`ValidationError` naming it. ``T_m(L~_T)`` has the eigenvalue
    ``cos(m (pi - omega_k))`` at DFT bin ``k``, so the expansion is one
    ``(MG + 1, T)`` table for :func:`_engine`."""
    X = _checked(X, "signal", g=g)
    order_graph = _check_order(order_graph, "order_graph")
    order_time = _check_order(order_time, "order_time")
    if g.lmax == 0:
        raise ValidationError("cheby2d requires a graph with at least one edge")
    lam_nodes, QG = _quadrature(order_graph, (0.0, g.lmax))
    mu_nodes, QT = _quadrature(order_time, (0.0, 4.0))
    w = np.arccos(1.0 - mu_nodes / 2.0)
    H, mirror = np.split(_stack([kernel])(lam_nodes, np.r_[w, -w])[0], 2, 1)
    if not np.abs(H - mirror).max() <= SYMMETRY_TOL * np.abs(H).max():
        raise ValidationError("cheby2d needs a response even in omega; "
                              f"kernel '{kernel.name}' is not")
    # the real and imaginary parts as real products: BLAS threads a complex
    # product this small at many times the cost of the work
    A = QG @ np.stack((H.real, H.imag)) @ QT.T
    A = A[0] + 1j * A[1]
    A[:, 0] *= 0.5
    table = A @ np.cos(np.outer(np.arange(order_time + 1),
                                np.pi - omega_grid(X.shape[-1])))
    return real_if_close(_engine(X, table[None], g)[0])


def filter_separable(X, h1, h2, g, order, info=None):
    """:func:`filter_ffc` applied to the product kernel ``h1(lambda)
    h2(omega)``: the same Fourier-Chebyshev engine, with the same result
    and error bound (``info`` as there).

    ``h1``/``h2`` are the factor callables; alternatively pass a separable
    :class:`JointKernel` as ``h1`` (with ``h2=None``).
    """
    if isinstance(h1, JointKernel):
        if h2 is not None:
            raise ValidationError("pass either a kernel or two factors, not both")
        if not h1.separable:
            raise ValidationError(f"kernel {h1.name} is not separable")
        h1, h2 = h1.h1, h1.h2
    return _filter(_checked(X, "signal", g=g), JointKernel(h1=h1, h2=h2), g,
                   None, order, info)
