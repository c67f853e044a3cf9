"""Joint spectral kernels ``h(lambda, omega)`` and the named responses.

A kernel maps (graph frequency, angular frequency) to a complex gain and
is evaluated on the joint grid ``(lambda_l, omega_k)`` with ``omega_k``
wrapped to ``(-pi, pi]``. Separable kernels carry their two factors so
that fast separable filtering and windowed transforms can exploit them.
"""

import numpy as np

from .errors import ValidationError
from .transforms import omega_grid


def _same(value):
    return value


class JointKernel:
    """Evaluable joint frequency response.

    Construct either from a joint callable ``fn(lam, omega)`` or from two
    factors ``h1(lam)``, ``h2(omega)`` (the kernel is then flagged
    separable). Callables must broadcast over numpy arrays.
    """

    def __init__(self, fn=None, h1=None, h2=None, name="custom", params=None):
        if fn is None and (h1 is None or h2 is None):
            raise ValidationError("kernel needs fn or both factors h1, h2")
        self.h1 = h1
        self.h2 = h2
        self.separable = h1 is not None and h2 is not None
        if fn is None:
            def fn(lam, omega, _h1=h1, _h2=h2):
                return np.asarray(_h1(lam)) * np.asarray(_h2(omega))
        self.fn = fn
        self.name = name
        self.params = dict(params or {})

    def __call__(self, lam, omega):
        return self.fn(np.asarray(lam, dtype=float), np.asarray(omega, dtype=float))

    def __repr__(self):
        sep = "separable" if self.separable else "non-separable"
        return f"JointKernel({self.name}, {sep}, params={self.params})"

    def _mapped(self, name, lam_map=_same, omega_map=_same, out=_same):
        """Kernel ``out(h(lam_map(lambda), omega_map(omega)))``; a separable
        kernel maps each factor and stays separable."""
        if self.separable:
            h1, h2 = self.h1, self.h2
            return JointKernel(h1=lambda lam: out(h1(lam_map(lam))),
                               h2=lambda omega: out(h2(omega_map(omega))),
                               name=name, params=self.params)
        fn = self.fn
        return JointKernel(
            fn=lambda lam, omega: out(fn(lam_map(lam), omega_map(omega))),
            name=name, params=self.params)

    def conj(self):
        """Kernel with complex-conjugated response (used by synthesis)."""
        return self._mapped(f"conj({self.name})", out=np.conj)

    def shifted(self, z_lambda, z_omega):
        """Spectral shift ``h(lambda - z_lambda, omega - z_omega)``."""
        return self._mapped(f"{self.name}@shift({z_lambda:g},{z_omega:g})",
                            lambda lam: lam - z_lambda,
                            lambda omega: omega - z_omega)

    def scaled(self, z_lambda, z_omega):
        """Spectral dilation ``h(z_lambda * lambda, z_omega * omega)``."""
        return self._mapped(f"{self.name}@scale({z_lambda:g},{z_omega:g})",
                            lambda lam: z_lambda * lam,
                            lambda omega: z_omega * omega)


def _product_eval(kernel, lambdas, omegas):
    """Complex ``(len(lambdas), len(omegas))`` responses on the product
    grid, with constant or partial responses broadcast."""
    lam = np.asarray(lambdas, dtype=float).reshape(-1, 1)
    w = np.asarray(omegas, dtype=float).reshape(1, -1)
    out = np.empty((lam.shape[0], w.shape[1]), dtype=complex)
    out[...] = kernel(lam, w)
    return out


def grid_eval(kernel, lambdas, T):
    """Evaluate a kernel on the joint grid, returning a complex N x T array.

    ``lambdas`` are the graph eigenvalues; the temporal axis uses the DFT
    grid wrapped to ``(-pi, pi]``.
    """
    return _product_eval(kernel, lambdas, omega_grid(T))


def stable_geometric_sum(a, length):
    """``sum_{t=0}^{length-1} a**t`` with a series branch near ``a == 1``.

    The closed-form ratio loses all precision as ``a -> 1``; below
    ``|a - 1| < 1e-7`` a three-term Taylor expansion is exact to ~1e-14.
    """
    a = np.asarray(a, dtype=complex)
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    d = a - 1.0
    near = np.abs(d) < 1e-7
    out = np.empty(a.shape, dtype=complex)
    n = float(length)
    ds = d[near]
    out[near] = n + ds * (n * (n - 1) / 2) + ds * ds * (n * (n - 1) * (n - 2) / 6)
    ag = a[~near]
    out[~near] = (ag ** length - 1.0) / (ag - 1.0)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Named responses
# ---------------------------------------------------------------------------

def lowpass_sigmoid_response(lambda_cut, omega_cut):
    """Separable sigmoid lowpass: logistic roll-off past each cutoff.

    Takes the value 1/4 at ``(lambda_cut, omega_cut)``.
    """
    from scipy.special import expit  # deferred: only this kernel needs it
    return JointKernel(
        h1=lambda lam: expit(lambda_cut - lam),
        h2=lambda omega: expit(omega_cut - np.abs(omega)),
        name="lowpass_sigmoid",
        params={"lambda_cut": lambda_cut, "omega_cut": omega_cut})


def wave_gauss_response(lmax):
    """Gaussian ridge along the dispersion curve of a graph wave.

    Equal to 1 where ``pi |omega| = arccos(1 - lambda / (2 lmax))`` and
    decaying with the squared distance from that curve. Non-separable.
    """
    if lmax <= 0:
        raise ValidationError("wave_gauss requires a positive lmax")

    def fn(lam, omega):
        ridge = np.arccos(np.clip(1.0 - lam / (2.0 * lmax), -1.0, 1.0))
        return np.exp(-np.abs(np.pi * np.abs(omega) - ridge) ** 2)

    return JointKernel(fn=fn, name="wave_gauss", params={"lmax": lmax})


def tikhonov_response(tau1, tau2):
    """Closed-form joint Tikhonov denoising filter.

    ``1 / (1 + tau1 * lambda + tau2 * lambda_T(omega))`` with
    ``lambda_T(omega) = 2 (1 - cos omega)``; minimizes the squared-error
    objective with quadratic graph and time variation penalties.
    """
    if tau1 < 0 or tau2 < 0:
        raise ValidationError("tikhonov weights must be nonnegative")

    def fn(lam, omega):
        return 1.0 / (1.0 + tau1 * lam + 2.0 * tau2 * (1.0 - np.cos(omega)))

    return JointKernel(fn=fn, name="tikhonov", params={"tau1": tau1, "tau2": tau2})


def heat_response(s, T):
    """Joint transfer function of the discrete heat evolution over ``T``
    steps, normalized to unit DC gain. Non-separable lowpass.
    """

    def fn(lam, omega):
        a = (1.0 - s * lam) * np.exp(-1j * omega)
        return stable_geometric_sum(a, T) / T

    return JointKernel(fn=fn, name="heat", params={"s": s, "T": T})


def mexican_hat_response():
    """Band-pass mother kernel ``lambda e^{-lambda} e^{-omega^2}`` with a
    zero DC component (admissible wavelet mother)."""

    def fn(lam, omega):
        return lam * np.exp(-lam) * np.exp(-omega ** 2)

    return JointKernel(fn=fn, name="mexican_hat", params={})


def _damped_wave(beta, T):
    from .dynamics import damped_wave_response  # dynamics imports this module
    return damped_wave_response(beta, T)


#: name -> (factory, parameter names); the one table of named kernels.
_NAMED = {
    "lowpass_sigmoid": (lowpass_sigmoid_response, ("lambda_cut", "omega_cut")),
    "wave_gauss": (wave_gauss_response, ("lmax",)),
    "tikhonov": (tikhonov_response, ("tau1", "tau2")),
    "heat": (heat_response, ("s", "T")),
    "mexican_hat": (mexican_hat_response, ()),
    "damped_wave": (_damped_wave, ("beta", "T")),
}


def _number(label, value, integer=False):
    """``value`` (a number or a numeric string) as a finite float, or with
    ``integer`` a positive int, else a :class:`ValidationError` naming
    ``label``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not np.isfinite(number) or (integer and (number < 1 or number % 1)):
        kind = "a positive integer" if integer else "a finite number"
        raise ValidationError(f"{label}={value!r} is not {kind}")
    return int(number) if integer else number


def named_response(name, params, lmax=None, T=None):
    """Build one of the named filter responses from a parameter dict.

    ``lmax`` (the graph's) and ``T`` (the signal's) fill a missing
    parameter of that name; ``lmax_scale`` sets ``lmax`` to
    ``lmax_scale * lmax``. Values may be numbers or numeric strings.
    """
    if name not in _NAMED:
        raise ValidationError(
            f"unknown response '{name}'; available: {sorted(_NAMED)}")
    factory, required = _NAMED[name]
    if not isinstance(params, dict):
        raise ValidationError(f"response '{name}' parameters must be a mapping")
    params = dict(params)
    if "lmax" in required and "lmax_scale" in params:
        if "lmax" in params:
            raise ValidationError(
                f"response '{name}' takes lmax or lmax_scale, not both")
        if lmax is None:
            raise ValidationError("lmax_scale needs the graph's lmax")
        params["lmax"] = _number(f"response '{name}' parameter lmax_scale",
                                 params.pop("lmax_scale")) * lmax
    for key, value in (("lmax", lmax), ("T", T)):
        if key in required and value is not None:
            params.setdefault(key, value)
    missing = [key for key in required if key not in params]
    if missing:
        raise ValidationError(f"response '{name}' misses parameters {missing}")
    extra = [key for key in params if key not in required]
    if extra:
        raise ValidationError(f"response '{name}' got unknown parameters {extra}")
    return factory(**{key: _number(f"response '{name}' parameter {key}",
                                   params[key], integer=key == "T")
                      for key in required})
