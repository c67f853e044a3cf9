import re

import numpy as np
import pytest

from tvgsp import (JointKernel, ValidationError, damped_wave_response,
                   grid_eval, heat_response, make_stvwt, named_response,
                   mexican_hat_response, ring_graph, wave_response)
from tvgsp.kernels import lowpass_sigmoid_response, wave_gauss_response
from tvgsp.transforms import omega_grid


def test_lowpass_sigmoid_center_value():
    k = named_response("lowpass_sigmoid", {"lambda_cut": 1.5, "omega_cut": 0.8})
    assert k.separable
    assert complex(k(1.5, 0.8)) == pytest.approx(0.25, rel=1e-12)
    assert complex(k(1.5, -0.8)) == pytest.approx(0.25, rel=1e-12)


def test_separable_factors_match_joint_eval():
    k = named_response("lowpass_sigmoid", {"lambda_cut": 2.0, "omega_cut": 1.0})
    lam = np.linspace(0, 6, 13)[:, None]
    w = np.linspace(-np.pi, np.pi, 9)[None, :]
    joint = k(lam, w)
    product = np.asarray(k.h1(lam)) * np.asarray(k.h2(w))
    assert np.abs(joint - product).max() <= 1e-14


def test_wave_gauss_ridge():
    k = named_response("wave_gauss", {"lmax": 5.0})
    assert not k.separable
    lam = 3.1
    ridge = np.arccos(1 - lam / 10.0) / np.pi
    assert complex(k(lam, ridge)) == pytest.approx(1.0, rel=1e-12)
    assert complex(k(lam, -ridge)) == pytest.approx(1.0, rel=1e-12)


def test_tikhonov_values():
    k = named_response("tikhonov", {"tau1": 0.5, "tau2": 2.0})
    assert complex(k(0.0, 0.0)) == pytest.approx(1.0)
    lam, w = 1.2, 0.7
    expected = 1.0 / (1.0 + 0.5 * lam + 2 * 2.0 * (1 - np.cos(w)))
    assert complex(k(lam, w)) == pytest.approx(expected, rel=1e-12)
    ident = named_response("tikhonov", {"tau1": 0.0, "tau2": 0.0})
    assert np.allclose(np.asarray(ident(np.linspace(0, 4, 5), 0.3)), 1.0)


def test_heat_response_dc_gain():
    k = named_response("heat", {"s": 0.2, "T": 16})
    assert complex(k(0.0, 0.0)) == pytest.approx(1.0, rel=1e-12)


def test_mexican_hat_admissible():
    k = mexican_hat_response()
    assert complex(k(0.0, 0.0)) == 0.0


def test_named_response_validation():
    with pytest.raises(ValidationError, match="unknown"):
        named_response("nope", {})
    with pytest.raises(ValidationError, match="misses"):
        named_response("tikhonov", {"tau1": 1.0})
    with pytest.raises(ValidationError, match="unknown parameters"):
        named_response("tikhonov", {"tau1": 1.0, "tau2": 1.0, "x": 2.0})


def test_grid_eval_broadcasts_constants():
    k = JointKernel(fn=lambda lam, omega: 1.0, name="one")
    H = grid_eval(k, np.array([0.0, 1.0, 2.0]), 5)
    assert H.shape == (3, 5)
    assert np.all(H == 1.0)


def test_grid_eval_uses_centered_omega():
    k = JointKernel(fn=lambda lam, omega: omega + 0.0j)
    H = grid_eval(k, np.array([0.0]), 4)
    assert np.allclose(H[0].real, omega_grid(4))
    assert omega_grid(4).tolist() == [0.0, np.pi / 2, np.pi, -np.pi / 2]


def test_shift_scale_conj_operations():
    k = named_response("wave_gauss", {"lmax": 3.0})
    lam, w = 1.3, 0.4
    shifted = k.shifted(0.5, 0.1)
    assert complex(shifted(lam, w)) == pytest.approx(
        complex(k(lam - 0.5, w - 0.1)), rel=1e-14)
    scaled = k.scaled(2.0, 0.5)
    assert complex(scaled(lam, w)) == pytest.approx(
        complex(k(2.0 * lam, 0.5 * w)), rel=1e-14)


def test_separable_shift_keeps_factors():
    k = named_response("lowpass_sigmoid", {"lambda_cut": 1.0, "omega_cut": 1.0})
    s = k.shifted(0.7, 0.2)
    assert s.separable
    assert complex(np.asarray(s.h1(1.7))) == pytest.approx(
        complex(np.asarray(k.h1(1.0))), rel=1e-14)


def test_kernel_requires_fn_or_factors():
    with pytest.raises(ValidationError):
        JointKernel()


def test_named_response_context_fills_missing_values():
    wave = named_response("wave_gauss", {}, lmax=4.0, T=8)
    assert wave.params == {"lmax": 4.0}
    assert named_response("wave_gauss", {"lmax": 2.0}, lmax=4.0).params == {
        "lmax": 2.0}
    assert named_response("wave_gauss", {"lmax_scale": 0.5},
                          lmax=4.0).params == {"lmax": 2.0}
    heat = named_response("heat", {"s": "0.2"}, T=16)
    assert heat.params == {"s": 0.2, "T": 16}
    assert isinstance(heat.params["T"], int)
    assert named_response("mexican_hat", {}, lmax=4.0, T=8).params == {}


@pytest.mark.parametrize("name,params,kwargs,match", [
    ("wave_gauss", {"lmax": 2.0, "lmax_scale": 0.5}, {"lmax": 4.0}, "not both"),
    ("wave_gauss", {"lmax_scale": 0.5}, {}, "lmax_scale"),
    ("tikhonov", {"tau1": "abc", "tau2": 1.0}, {}, "finite number"),
    ("tikhonov", {"tau1": float("inf"), "tau2": 1.0}, {}, "finite number"),
    ("tikhonov", {"tau1": None, "tau2": 1.0}, {}, "finite number"),
    ("heat", {"s": 0.1, "T": 3.7}, {}, "positive integer"),
    ("heat", {"s": 0.1}, {"T": 0}, "positive integer"),
    ("damped_wave", {"beta": 0.5}, {}, "misses"),
    ("mexican_hat", {"sigma": 1.0}, {}, "unknown parameters"),
    ("tikhonov", [1.0, 2.0], {}, "mapping"),
    ("wave_gauss", {"lmax": 0.0}, {}, "positive lmax"),
    ("tikhonov", {"tau1": -1.0, "tau2": 1.0}, {}, "nonnegative"),
])
def test_named_response_rejects_bad_values(name, params, kwargs, match):
    with pytest.raises(ValidationError, match=match):
        named_response(name, params, **kwargs)


def test_named_damped_wave_matches_dynamics():
    from tvgsp import damped_wave_response
    k = named_response("damped_wave", {"beta": 0.5}, T=8)
    ref = damped_wave_response(0.5, 8)
    assert (k.name, k.params) == (ref.name, ref.params)
    lam = np.linspace(0, 3, 7)[:, None]
    w = omega_grid(8)[None, :]
    assert np.array_equal(k(lam, w), ref(lam, w))


@pytest.mark.parametrize("op", ["shifted", "scaled"])
def test_spectral_operations_keep_separability(op):
    sep = named_response("lowpass_sigmoid", {"lambda_cut": 1.0, "omega_cut": 1.0})
    joint = JointKernel(fn=lambda lam, omega: sep.h1(lam) * sep.h2(omega))
    a, b = getattr(sep, op)(0.6, 1.5), getattr(joint, op)(0.6, 1.5)
    assert a.separable and not b.separable
    lam = np.linspace(0, 4, 9)[:, None]
    w = omega_grid(8)[None, :]
    assert np.array_equal(a(lam, w), b(lam, w))


@pytest.mark.parametrize("factory", [
    lambda T: heat_response(0.1, T),
    lambda T: damped_wave_response(0.5, T),
    lambda T: wave_response(0.5, 4.0, T),
    lambda T: make_stvwt(mexican_hat_response(), [1.0], [1.0],
                         ring_graph(4), T),
], ids=["heat_response", "damped_wave_response", "wave_response",
        "make_stvwt"])
@pytest.mark.parametrize("T", [0, -3])
def test_kernel_factories_reject_a_horizon_below_one(factory, T):
    """The factories that take ``T`` share the evolutions' horizon check
    (``heat_response(s, 0)`` used to evaluate to NaN, ``wave_response`` to
    zeros, and ``make_stvwt`` built a bank that analysis then failed on)."""
    with pytest.raises(ValidationError, match="horizon T must be positive"):
        factory(T)


@pytest.mark.parametrize("factory,message", [
    (lambda: lowpass_sigmoid_response(np.nan, 1.0),
     "lambda_cut=nan is not a finite number"),
    (lambda: lowpass_sigmoid_response(1.0, np.inf),
     "omega_cut=inf is not a finite number"),
    (lambda: heat_response(np.nan, 8), "s=nan is not a finite number"),
    (lambda: heat_response(0.1, np.nan), "T=nan is not a finite number"),
    (lambda: heat_response(0.1, 2.5), "T=2.5 is not a positive integer"),
    (lambda: damped_wave_response(np.nan, 8),
     "beta=nan is not a finite number"),
    (lambda: damped_wave_response(0.5, 7.5),
     "T=7.5 is not a positive integer"),
    (lambda: wave_gauss_response(np.nan), "lmax=nan is not a finite number"),
    (lambda: wave_response(0.1, np.nan, 8), "lmax=nan is not a finite number"),
    (lambda: wave_response(np.nan, 4.0, 8), "s=nan is not a finite number"),
    (lambda: wave_response(0.1, 4.0, 2.5), "T=2.5 is not a positive integer"),
    (lambda: heat_response(np.float64("nan"), 8),
     "s=nan is not a finite number"),
], ids=["lowpass-lambda-cut", "lowpass-omega-cut", "heat-s", "heat-nan-T",
        "heat-fractional-T", "damped-wave-beta", "damped-wave-fractional-T",
        "wave-gauss-lmax", "wave-lmax", "wave-s", "wave-fractional-T",
        "heat-numpy-scalar-s"])
def test_kernel_factories_name_a_bad_parameter(factory, message):
    """A non-finite parameter or a fractional horizon is a
    :class:`ValidationError` naming it and its value, at construction (the
    kernels used to be built and then failed to filter, or filtered to
    NaN)."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        factory()
