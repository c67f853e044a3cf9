"""Harmonic transforms and calculus for time-vertex signals.

A time-vertex signal is an N x T array whose column ``t`` is the graph
signal at step ``t``. Conventions used throughout the package:

* temporal frequencies: ``omega_k = 2 pi k / T`` for ``k = 0 .. T-1``
  (no fftshift); kernels are evaluated at these values mapped to
  ``(-pi, pi]``;
* the DFT is unitary (``fft / sqrt(T)``), the GFT uses the orthonormal
  Laplacian eigenbasis, hence the joint transform is unitary and Parseval
  holds exactly;
* the time axis is periodic everywhere (circulant difference operators).

Every public function that takes a time-vertex array (here and in
:mod:`tvgsp.filtering`, :mod:`tvgsp.frames`, :mod:`tvgsp.solvers`,
:mod:`tvgsp.dynamics` and :mod:`tvgsp.reports`) checks it with one private
checker, ``_checked``: the number of axes, the sizes against the graph,
the eigensystem or the filter bank, and finiteness. Each
:class:`~tvgsp.errors.ValidationError` it raises names the input
(``signal``, ``spectrum``, ``coefficient stack``, ``observation``, ``initial
condition``); :func:`validate_signal` is its public form for a signal.
Every public number that must be finite (a weight, a tolerance, a
parameter, a count) is read by one private helper, ``_number``, whose
:class:`~tvgsp.errors.ValidationError` names it.

Every exact path (:func:`jft`/:func:`ijft`, filtering, frames, sparse
coding) runs one private transform pair on ``(..., N, T)`` stacks: the GFT
by the real eigenvectors, never upcast to complex, then the FFT over the
``T // 2 + 1`` half-spectrum bins when the input is real and the response
conjugate-symmetric in omega, else all ``T``; the Chebyshev engine shares
that choice.

:func:`joint_laplacian_apply` multiplies by the graph's cached Laplacian
through the private CSR product of :mod:`tvgsp.graphs`, which loads only
scipy's compiled kernel module. ``scipy.sparse`` is imported only by the
functions that return a scipy matrix (:func:`time_laplacian`,
:func:`graph_incidence`), on first use.
"""

import numpy as np

from .errors import ImaginaryResidueError, ValidationError

#: Relative imaginary mass above which an inverse transform refuses to
#: return a real signal.
IMAG_TOL = 1e-10

#: Relative conjugate asymmetry in omega below which a coefficient table or
#: a joint-grid response is taken to be that of a real operator. The named
#: responses measure <= 2e-15; spectrally shifted (STVFT) atoms measure ~1.
SYMMETRY_TOL = 1e-12


_AXES = {1: "N", 2: "N x T", 3: "|Z| x N x T"}


def _number(label, value, integer=False):
    """``value`` (a number or a numeric string) as a finite float, or with
    ``integer`` a positive int, else a :class:`ValidationError` naming
    ``label``. A boolean (a JSON ``true``) is not a number."""
    try:
        number = np.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not np.isfinite(number) or (integer and (number < 1 or number % 1)):
        kind = "a positive integer" if integer else "a finite number"
        if isinstance(value, np.generic):  # shown as the plain number
            value = value.item()
        raise ValidationError(f"{label}={value!r} is not {kind}")
    return int(number) if integer else number


def _checked(A, name, ndim=2, g=None, eig=None, bank=None):
    """``A`` as an ndarray, checked against the contract of every
    time-vertex input; each :class:`ValidationError` names ``name``.

    ``A`` must have ``ndim`` axes, at least one time sample (the last axis
    of a 2-D or 3-D array), one row per vertex of the graph ``g`` and of the
    eigensystem ``eig`` (axis ``-2``, or the only axis of a 1-D array) and
    only finite entries. Against a ``bank``, a signal has ``bank.T`` time
    samples; a ``(|Z|, N, T)`` coefficient stack has one atom per kernel
    and one time sample per point of the time lattice.
    """
    A = np.asarray(A)
    if A.ndim != ndim:
        raise ValidationError(
            f"{name} must be {ndim}-D ({_AXES[ndim]}), got shape {A.shape}")
    if ndim > 1 and A.shape[-1] == 0:
        raise ValidationError(f"{name} has no time samples")
    rows, unit = A.shape[-min(ndim, 2)], "rows" if ndim > 1 else "entries"
    if g is not None and rows != g.N:
        raise ValidationError(
            f"{name} has {rows} {unit} but graph has {g.N} vertices")
    if eig is not None and rows != eig.n:
        raise ValidationError(
            f"{name} has {rows} {unit} but eigensystem has {eig.n}")
    if bank is not None:
        T = bank.T
        if ndim == 3:
            if A.shape[0] != bank.size:
                raise ValidationError(
                    f"{name} has {A.shape[0]} atoms but bank has {bank.size}")
            if bank.time_lattice is not None:
                T = len(bank.time_lattice)
        if A.shape[-1] != T:
            raise ValidationError(
                f"{name} has {A.shape[-1]} time samples but bank has {T}")
    if not np.isfinite(A).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return A


def validate_signal(X):
    """Coerce to a 2-D ndarray and reject non-finite entries."""
    return _checked(X, "signal")


def vec(X):
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(x, n, t):
    """Inverse of :func:`vec`."""
    return np.asarray(x).reshape((n, t), order="F")


def omega_grid(T, centered=True):
    """Angular frequency grid ``2 pi k / T``, ``k = 0 .. T-1``.

    With ``centered=True`` frequencies above ``pi`` are wrapped to
    ``(-pi, pi]``, the convention kernels are evaluated in.
    """
    w = 2 * np.pi * np.arange(T) / T
    if centered:
        w = np.where(w > np.pi + 1e-15, w - 2 * np.pi, w)
    return w


def time_laplacian(T):
    """Circulant second-difference matrix (the time Laplacian)."""
    import scipy.sparse as sp  # deferred: first sparse use
    shift = sp.eye_array(T, k=1) + sp.eye_array(T, k=1 - T)  # cyclic
    return sp.csr_array(2.0 * sp.eye_array(T) - shift - shift.T)


def time_laplacian_eigenvalues(T):
    """Spectrum ``2 (1 - cos omega_k)`` of the time Laplacian."""
    return 2.0 * (1.0 - np.cos(omega_grid(T, centered=False)))


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

def dft(X):
    """Unitary DFT along the time axis (rows)."""
    X = _checked(X, "signal")
    return np.fft.fft(X, axis=1) / np.sqrt(X.shape[1])


def idft(S):
    """Inverse of :func:`dft`."""
    S = _checked(S, "spectrum")
    return np.fft.ifft(S, axis=1) * np.sqrt(S.shape[1])


def gft(X, eig):
    """Graph Fourier transform: project columns on the Laplacian eigenbasis."""
    return eig.vectors.T @ _checked(X, "signal", eig=eig)


def igft(S, eig):
    """Inverse of :func:`gft`."""
    return eig.vectors @ _checked(S, "spectrum", eig=eig)


def jft(X, eig):
    """Joint time-vertex Fourier transform (GFT over vertices, DFT over time).

    The two transforms commute, so the composition order is immaterial;
    Parseval holds since both factors are unitary.
    """
    return _jft_stack(_checked(X, "signal", eig=eig), eig, False)


def real_if_close(Y, tol=IMAG_TOL, strict=False):
    """Drop a numerically negligible imaginary part.

    With ``strict=True`` a non-negligible imaginary part raises
    :class:`ImaginaryResidueError` instead of being passed through.
    """
    if not np.iscomplexobj(Y):
        return Y
    with np.errstate(over="ignore"):  # an overflow is redone in units below
        scale, residue = np.linalg.norm(Y), np.linalg.norm(Y.imag)
    unit = 1.0
    if np.isinf(scale) and np.isfinite(Y).all():
        unit = max(np.abs(Y.real).max(), np.abs(Y.imag).max())
        scale = np.linalg.norm(Y / unit)
        residue = np.linalg.norm(Y.imag / unit)
    if residue <= tol * max(scale, 1e-300 / unit):
        return np.ascontiguousarray(Y.real)
    if strict:
        raise ImaginaryResidueError(
            f"imaginary residue {residue * unit:.3e} exceeds {tol:.1e} x |Y|; "
            "the spectrum is not consistent with a real signal")
    return Y


def ijft(S, eig, real=None):
    """Inverse joint Fourier transform.

    ``real=None`` returns a real array when the imaginary residue is
    negligible and a complex one otherwise; ``real=True`` additionally
    raises on non-negligible residue; ``real=False`` always returns the
    complex result.
    """
    S = _checked(S, "spectrum", eig=eig)
    Y = _ijft_stack(S, eig, S.shape[-1], False)
    if real is False:
        return Y
    return real_if_close(Y, strict=bool(real))


def _matvec(A, V, out=None):
    """Real dense ``A`` times a C-contiguous float64 or complex128 ``V``
    (broadcast over a stack), computed on the float64 view so ``A`` is never
    upcast to complex; into ``out``, C-contiguous of ``V``'s dtype, if
    given."""
    return np.matmul(A, V.view(np.float64), out=None if out is None
                     else out.view(np.float64)).view(V.dtype)


def _spectral_bins(A, table):
    """``(half, table)``: ``half`` when ``A`` is real and ``table`` is
    conjugate-symmetric in omega, its last axis, to :data:`SYMMETRY_TOL`
    (the output is then real and the ``T // 2 + 1`` bins of ``rfft`` carry
    it all), and ``table`` cut to the bins used: a contiguous copy, since
    solvers multiply by it every iteration."""
    if np.iscomplexobj(A) and A.imag.any():
        return False, table
    # bin k against the conjugate of bin -k: the DC bin against itself,
    # bins 1.. against bins T-1..1, with no mirrored copy of the table
    dc = table[..., :1]
    gap = np.maximum(
        np.abs(dc - np.conj(dc)).max(initial=0.0),
        np.abs(table[..., 1:] - np.conj(table[..., :0:-1])).max(initial=0.0))
    if not gap <= SYMMETRY_TOL * np.abs(table).max(initial=0.0):
        return False, table
    return True, table[..., :table.shape[-1] // 2 + 1].copy()


def _fft(A, half):
    """Unnormalized DFT along the last axis, complex128: the
    ``T // 2 + 1`` bins of the real FFT of ``A.real`` with ``half``, else
    all ``T`` bins. The input is made C-contiguous first, so the result is
    too, whatever the layout of ``A``: the Chebyshev engine's operand."""
    if half:
        return np.fft.rfft(np.ascontiguousarray(np.real(A), np.float64),
                           axis=-1)
    return np.fft.fft(np.ascontiguousarray(A, np.complex128), axis=-1)


def _ifft(S, T, half):
    """Inverse of :func:`_fft` for ``T`` time samples (real with ``half``)."""
    if half:
        return np.fft.irfft(S, n=T, axis=-1)
    return np.fft.ifft(np.asarray(S, dtype=np.complex128), axis=-1)


def _jft_stack(C, eig, half):
    """Unitary joint spectrum of an ``(..., N, T)`` stack: the GFT by the
    real eigenvectors (a real product for real input, else one batched
    product on the float64 view), then :func:`_fft` along time. With
    ``half`` the input is taken as real."""
    if half or not np.iscomplexobj(C):
        S = eig.vectors.T @ np.real(C)
    else:
        S = _matvec(eig.vectors.T, np.ascontiguousarray(C, np.complex128))
    return _fft(S, half) / np.sqrt(C.shape[-1])


def _ijft_stack(S, eig, T, half):
    """Inverse of :func:`_jft_stack` for ``T`` time samples."""
    return _matvec(eig.vectors, _ifft(S, T, half)) * np.sqrt(T)


# ---------------------------------------------------------------------------
# Differential operators and variation norms
# ---------------------------------------------------------------------------

def time_diff(X):
    """Periodic first difference along time: ``x_t - x_{t-1}``, bit for bit
    ``X - np.roll(X, 1, axis=1)`` but by slices, with no rolled copy."""
    X = np.asarray(X)
    D = np.empty_like(X)
    np.subtract(X[:, 1:], X[:, :-1], out=D[:, 1:])
    np.subtract(X[:, :1], X[:, -1:], out=D[:, :1])
    return D


def time_diff_adjoint(V):
    """Adjoint of :func:`time_diff` (so that adjoint(time_diff) = X L_T):
    ``V - np.roll(V, -1, axis=1)``, by slices."""
    V = np.asarray(V)
    A = np.empty_like(V)
    np.subtract(V[:, :-1], V[:, 1:], out=A[:, :-1])
    np.subtract(V[:, -1:], V[:, :1], out=A[:, -1:])
    return A


def graph_incidence(g):
    """Weighted incidence operator B with ``B.T @ B == L``.

    Row ``e`` holds ``sqrt(w_e) (delta_src - delta_dst)`` for the e-th edge
    in the graph's canonical edge order.
    """
    import scipy.sparse as sp  # deferred: first sparse use
    indptr, indices, data, n = g._operator("B")
    return sp.csr_array((data, indices, indptr), shape=(indptr.size - 1, n))


def joint_laplacian_apply(X, g):
    """Apply the joint (Cartesian-product) Laplacian: ``L_G X + X L_T``.

    Computed matrix-free; equals ``unvec((L_T kron I + I kron L_G) vec(X))``.
    """
    X = _checked(X, "signal", g=g)
    time_part = 2.0 * X   # minus x_{t-1}, then x_{t+1}, as the rolled form
    time_part[:, 1:] -= X[:, :-1]
    time_part[:, :1] -= X[:, -1:]
    time_part[:, :-1] -= X[:, 1:]
    time_part[:, -1:] -= X[:, :1]
    return g._matmul("L", X) + time_part


def joint_gradient(X, g):
    """Graph and temporal first differences of a time-vertex signal.

    Returns ``(graph_part, time_part)`` where ``graph_part`` has one row per
    edge with entries ``sqrt(w)(x_src - x_dst)`` and ``time_part`` is the
    periodic difference along time. The squared Frobenius norms of the two
    parts sum to the joint Laplacian quadratic form.
    """
    X = _checked(X, "signal", g=g)
    src, dst, w = g.edges()
    # equal to graph_incidence(g) @ X up to the sign of zero: the sparse
    # product adds onto +0.0 where this difference may give -0.0
    root = np.sqrt(w)[:, None]
    return root * X[src] - root * X[dst], time_diff(X)


def variation_norm(X, g, p=2, q=2, w_graph=1.0, w_time=1.0):
    """Mixed variation ``w_G ||grad_G X||_p^p + w_T ||diff_T X||_q^q``.

    ``p = q = 2`` with unit weights is the joint Laplacian quadratic form;
    ``p = q = 1`` is the joint total-variation norm.
    """
    if p not in (1, 2) or q not in (1, 2):
        raise ValidationError("variation norm orders must be 1 or 2")
    for name, weight in (("w_graph", w_graph), ("w_time", w_time)):
        try:
            valid = _number(name, weight) >= 0
        except ValidationError:  # not a finite number
            valid = False
        if not valid:
            raise ValidationError(f"variation norm weight {name}={weight} "
                                  "must be finite and nonnegative")
    gpart, tpart = joint_gradient(X, g)
    g_term = (np.abs(gpart) ** p).sum()
    t_term = (np.abs(tpart) ** q).sum()
    return float(w_graph * g_term + w_time * t_term)
