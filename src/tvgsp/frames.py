"""Overcomplete time-vertex dictionaries and frame machinery.

A :class:`FilterBank` is a finite family of joint kernels ``{h_z}`` over a
scale/shift lattice. Analysis coefficients are obtained by joint filtering
(``C_z = h_z(L_G, L_T) X``), synthesis is the adjoint, and the canonical
dual bank inverts a frame in a single synthesis pass. Coefficients are
stored as a complex ``(|Z|, N_lattice, T_lattice)`` array. The filters and
the grid read a bank's responses as one stack function; a dual or tight
bank's stack divides its base bank's stack once by ``scale(sum_z |h_z|^2)``.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NotAFrameError, ValidationError
from .kernels import JointKernel, _check_horizon, _stack
from .filtering import _analysis, _filter, _synthesis
from .transforms import _checked, _number, omega_grid, real_if_close

#: Default graph Chebyshev order for eigendecomposition-free analysis.
DEFAULT_ORDER = 50


@dataclass
class FilterBank:
    """Indexed family of joint kernels over a scale/shift lattice.

    ``lattice[z]`` records the ``(z_lambda, z_omega)`` pair that produced
    ``kernels[z]``. ``time_lattice`` is ``None`` for full sampling; frame
    bounds are only certified by Theorem-style grid minima when it is.
    """

    kernels: list
    lattice: list
    kind: str = "custom"
    mother: JointKernel = None
    T: int = 0
    time_lattice: np.ndarray = None
    meta: dict = field(default_factory=dict)

    @property
    def size(self):
        return len(self.kernels)

    @property
    def subsampled(self):
        return self.time_lattice is not None

    @property
    def bounds_certified(self):
        return not self.subsampled

    def _responses(self, lambdas, omegas):
        """The stack of :func:`tvgsp.kernels._stack` of the bank."""
        return _stack(self.kernels)(lambdas, omegas)


def bank_response_energy(bank, lambdas):
    """``sum_z |h_z(lambda_l, omega_k)|^2`` on the joint grid."""
    H = bank._responses(lambdas, omega_grid(bank.T))
    return (np.abs(H) ** 2).sum(axis=0)


def frame_bounds(bank, eig):
    """Frame bounds ``(A, B)``: min/max of the summed squared responses
    over the joint frequency grid. Certified only for full lattices
    (check ``bank.bounds_certified``)."""
    E = bank_response_energy(bank, eig.values)
    return float(E.min()), float(E.max())


def localize(kernel, m, tau, g, T, eig=None, order=DEFAULT_ORDER):
    """Joint localization: filter a Kronecker delta at vertex ``m``,
    time ``tau``. The atom-generation primitive of every dictionary."""
    if not 0 <= m < g.N:
        raise ValidationError(f"vertex index {m} out of range [0, {g.N})")
    if not 0 <= tau < T:
        raise ValidationError(f"time index {tau} out of range [0, {T})")
    delta = np.zeros((g.N, T))
    delta[m, tau] = 1.0
    return _filter(_checked(delta, "Kronecker delta", eig=eig), kernel, g,
                   eig, order)


# ---------------------------------------------------------------------------
# Dictionary constructions
# ---------------------------------------------------------------------------

def itersine(x):
    """Itersine window atom: ``sin(pi/2 cos^2(pi x))`` on ``[-1/2, 1/2]``.

    Shifted copies at half-support spacing satisfy the partition of squares
    ``g(x)^2 + g(x - 1/2)^2 = 1``.
    """
    x = np.asarray(x, dtype=float)
    vals = np.sin(0.5 * np.pi * np.cos(np.pi * x) ** 2)
    return np.where(np.abs(x) <= 0.5, vals, 0.0)


def itersine_graph_design(lmax, num_translates):
    """Uniform itersine design on ``[0, lmax]``.

    Returns the base atom ``h_G`` and the shift list; the translated
    squares sum to one across the whole interval, giving a well
    conditioned STVFT graph axis.
    """
    if _number("num_translates", num_translates) < 2:
        raise ValidationError("itersine design needs at least two translates")
    num_translates = _number("num_translates", num_translates, integer=True)
    if _number("lmax", lmax) <= 0:
        raise ValidationError("itersine design needs a positive lmax")
    delta = lmax / (num_translates - 1)
    shifts = [i * delta for i in range(num_translates)]
    return (lambda lam: itersine(lam / (2.0 * delta))), shifts


def time_window(shape, length):
    """Named time-domain analysis windows."""
    if _number("window length", length) < 1:
        raise ValidationError("window length must be positive")
    length = _number("window length", length, integer=True)
    if shape == "rectangular":
        return np.ones(length)
    if shape == "hann":
        return np.sin(np.pi * (np.arange(length) + 0.5) / length) ** 2
    raise ValidationError(f"unknown time window '{shape}'")


def time_window_kernel(window):
    """Spectral kernel of a time-domain window (2 pi periodic, entire).

    The window is centered so localized atoms cover ``[tau - l/2, tau + l/2)``.
    """
    w = np.asarray(window, dtype=float).ravel()
    offsets = np.arange(w.size) - w.size // 2

    def h_T(omega):
        om = np.asarray(omega, dtype=float)
        return np.exp(-1j * om[..., None] * offsets) @ w

    return h_T


def make_stvft(window_graph, window_time, z_lambda, time_hop, g, T):
    """Short time-vertex Fourier dictionary (spectral-shift atoms).

    ``window_graph`` is the graph-axis atom ``h_G(lambda)`` (see
    :func:`itersine_graph_design`); ``window_time`` a time-domain window of
    length ``l``. The temporal modulation lattice has exactly ``l`` shifts
    ``2 pi i / l`` and the time positions are subsampled with ``time_hop``
    (window length over redundancy). The vertex lattice stays full.
    """
    T, w = _check_horizon(T), np.asarray(window_time, dtype=float).ravel()
    if not 1 <= w.size <= T:
        raise ValidationError(
            f"time window length {w.size} must lie in [1, T={T}]")
    if time_hop < 1 or T % time_hop != 0:
        raise ValidationError(f"time hop {time_hop} must divide T={T}")
    z_lambda = [_number("z_lambda", z) for z in z_lambda]
    if not z_lambda:
        raise ValidationError("empty graph shift list")
    z_omega = 2.0 * np.pi * np.arange(w.size) / w.size
    mother = JointKernel(h1=window_graph, h2=time_window_kernel(w),
                         name="stvft_mother")
    kernels, lattice = [], []
    for zl in z_lambda:
        for zw in z_omega:
            kernels.append(mother.shifted(zl, zw))
            lattice.append((zl, float(zw)))
    time_lattice = None if time_hop == 1 else np.arange(0, T, int(time_hop))
    return FilterBank(
        kernels=kernels, lattice=lattice, kind="stvft", mother=mother, T=T,
        time_lattice=time_lattice,
        meta={"window_time": w, "z_lambda": z_lambda,
              "z_omega": z_omega, "time_hop": int(time_hop)})


def make_stvwt(mother, scales_lambda, scales_omega, g, T,
               dc_kernel=None, check_admissibility=True):
    """Spectral time-vertex wavelet dictionary (spectral-dilation atoms).

    The usual admissibility requirement is a vanishing DC response
    ``h(0, 0) = 0``; a mother violating it needs either an explicit
    scaling-function ``dc_kernel`` or ``check_admissibility=False``
    (the damped-wave mother is used this way). Lattices are full.
    """
    T = _check_horizon(T)
    scales_lambda = [_number("scales_lambda", z) for z in scales_lambda]
    scales_omega = [_number("scales_omega", z) for z in scales_omega]
    if not scales_lambda or not scales_omega:
        raise ValidationError("empty scale list")
    if check_admissibility and dc_kernel is None:
        dc = complex(np.asarray(mother(0.0, 0.0)))
        if abs(dc) > 1e-12:
            raise ValidationError(
                f"mother kernel has nonzero DC response h(0,0) = {dc:.3e}; "
                "supply a dc_kernel or pass check_admissibility=False")
    kernels, lattice = [], []
    for zl in scales_lambda:
        for zw in scales_omega:
            kernels.append(mother.scaled(zl, zw))
            lattice.append((zl, zw))
    if dc_kernel is not None:
        kernels.append(dc_kernel)
        lattice.append((0.0, 0.0))
    return FilterBank(kernels=kernels, lattice=lattice, kind="stvwt",
                      mother=mother, T=T,
                      meta={"scales_lambda": scales_lambda,
                            "scales_omega": scales_omega,
                            "has_dc_kernel": dc_kernel is not None})


# ---------------------------------------------------------------------------
# Analysis / synthesis
# ---------------------------------------------------------------------------

def bank_grid(bank, eig):
    """Stacked joint-grid responses of all bank kernels: ``(|Z|, N, T)``."""
    return bank._responses(eig.values, omega_grid(bank.T))


def _analyze_stvft(bank, X, g, eig, order, info):
    """Shared-graph-filtering STVFT analysis.

    Filters once per graph shift (all shifts in one Chebyshev recurrence
    without ``eig``), then runs the temporal (windowed DFT) axis per
    modulation; with a subsampled time lattice only the lattice columns
    are kept. Equivalent to per-kernel joint filtering.
    """
    T = bank.T
    w_grid = omega_grid(T)
    mother = bank.mother
    tsel = (np.arange(T) if bank.time_lattice is None
            else np.asarray(bank.time_lattice))
    graph = [JointKernel(h1=lambda lam, _zl=zl: mother.h1(lam - _zl),
                         h2=np.ones_like)
             for zl in bank.meta["z_lambda"]]
    windows = [np.broadcast_to(mother.h2(w_grid - zw), T).astype(complex)
               for zw in bank.meta["z_omega"]]
    # an atom's error is its graph factor's times |h_T(omega - z_omega)|
    Yg = _analysis(X, _stack(graph), g, eig, order, info,
                   max(np.abs(hw).max() for hw in windows))
    return np.stack([np.fft.ifft(Fg * hw, axis=-1)[:, tsel]
                     for Fg in np.fft.fft(Yg, axis=-1) for hw in windows])


def analyze(bank, X, g, eig=None, order=DEFAULT_ORDER, info=None):
    """Analysis operator: coefficients of ``X`` against every bank atom.

    With full lattices this is joint filtering by every kernel (exact when
    ``eig`` is given: one joint transform of ``X``, the grid responses, one
    inverse transform of the stack, on the half spectrum for a real ``X``
    and a conjugate-symmetric bank; otherwise FFC of the given order, all
    kernels in one Chebyshev recurrence). The coefficients are complex.
    Subsampled time lattices are supported for STVFT banks via
    graph-filter-then-windowed-DFT. On the FFC path a dict ``info``
    receives ``ffc_fit_error``, which bounds every atom:
    ``||C_z - C_z,exact||_F <= ffc_fit_error * ||X||_F``.
    """
    X = _checked(X, "signal", g=g, eig=eig, bank=bank)
    if bank.kind == "stvft":
        return _analyze_stvft(bank, X, g, eig, order, info)
    if bank.subsampled:
        raise ValidationError(
            "subsampled analysis is only supported for STVFT banks")
    return _analysis(X, bank._responses, g, eig, order,
                     info).astype(complex, copy=False)


def synthesize(bank, C, g, eig=None, order=DEFAULT_ORDER, info=None):
    """Synthesis operator (adjoint of :func:`analyze`):
    ``Y = sum_z conj(h_z)(L_G, L_T) C_z``. Full lattices only. The exact
    path (``eig`` given) runs the transform pair of :func:`analyze`, on
    the half spectrum for a real ``C`` and a conjugate-symmetric bank. On
    the FFC path (one Clenshaw sum for all kernels) a dict ``info``
    receives ``ffc_fit_error``; ``||Y - Y_exact||_F <= ffc_fit_error *
    sum_z ||C_z||_F``."""
    if bank.subsampled:
        raise ValidationError(
            "synthesis from subsampled lattices is not supported")
    C = _checked(C, "coefficient stack", 3, g=g, eig=eig, bank=bank)
    return real_if_close(_synthesis(C, bank._responses, g, eig, order, info))


class _Normalized(FilterBank):
    """Bank of ``h_z / scale(sum_z' |h_z'|^2)`` over a base bank. Its stack
    divides the base bank's stack once; each atom, called alone, evaluates
    every base kernel, so no evaluation depends on another."""

    def __init__(self, bank, scale, tag):
        super().__init__(
            kernels=[JointKernel(fn=partial(self._atom, z),
                                 name=f"{tag}({kz.name})")
                     for z, kz in enumerate(bank.kernels)],
            lattice=list(bank.lattice), T=bank.T,
            time_lattice=bank.time_lattice, meta={f"{tag}_of": bank.kind})
        self._base, self._scale = bank, scale

    def _atom(self, z, lam, omega):
        H = [np.asarray(kernel(lam, omega), dtype=complex)
             for kernel in self._base.kernels]
        return H[z] / self._scale(sum(np.abs(h) ** 2 for h in H))

    def _responses(self, lambdas, omegas):
        H = self._base._responses(lambdas, omegas)
        return H / self._scale((np.abs(H) ** 2).sum(axis=0))


def canonical_dual(bank, eig, tol=1e-12):
    """Canonical dual bank ``h_z / sum_z' |h_z'|^2``.

    One synthesis pass with the dual inverts the analysis operator:
    ``synthesize(dual, analyze(bank, X)) == X``. Raises
    :class:`NotAFrameError` when the lower frame bound vanishes.
    """
    E = bank_response_energy(bank, eig.values)
    A, B = float(E.min()), float(E.max())
    if A <= tol * max(B, 1.0):
        l, k = np.unravel_index(int(np.argmin(E)), E.shape)
        raise NotAFrameError(
            f"lower frame bound {A:.3e} vanishes at grid point "
            f"(l={l}, k={k}) (0-based); the bank is not a frame")
    return _Normalized(bank, lambda energy: energy, "dual")


def normalize_tight(bank):
    """Scale kernels by ``1 / sqrt(sum_z |h_z|^2)`` pointwise, producing a
    tight bank with frame bounds A = B = 1. The bank's summed energy must
    be positive wherever kernels are evaluated."""
    return _Normalized(bank, np.sqrt, "tight")
