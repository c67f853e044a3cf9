"""The input contract of every public function that takes a time-vertex
array: an array with the wrong number of axes, the wrong row count, a NaN
or an Inf entry, or (on an exact path) the eigensystem of another graph is
a ValidationError that names the input."""

import warnings

import numpy as np
import pytest

from tvgsp import (InverseProblemSpec, Regularizer, SparseCodingSpec,
                   ValidationError, analyze, compaction_experiment,
                   denoise_tikhonov, dft, filter_cheby2d, filter_exact,
                   filter_ffc, filter_separable, gft, heat_evolve,
                   heat_joint_spectrum, idft, igft, ijft, inpaint, jft,
                   joint_gradient, joint_laplacian_apply, localize_source,
                   make_stvwt, mexican_hat_response, ring_graph,
                   signal_energy_centroid, sparse_code, synthesize,
                   tikhonov_response, variation_norm, wave_evolve,
                   wave_joint_spectrum)
from tvgsp.rng import default_rng

N, T = 8, 6  # unequal, so no axis can pass for the other
G = ring_graph(N)
EIG = G.eigensystem()
OTHER_EIG = ring_graph(N + 1).eigensystem()
BANK = make_stvwt(mexican_hat_response(), [0.5, 1.0], [1.0], G, T)
KERNEL = tikhonov_response(0.5, 0.3)

_rng = default_rng(5)
SIGNAL = _rng.standard_normal((N, T))
SPECTRUM = jft(SIGNAL, EIG)
COEFFS = analyze(BANK, SIGNAL, G, EIG)
INITIAL = _rng.standard_normal(N)


def _inpaint(X, g):
    spec = InverseProblemSpec(observation=X, mask=np.ones((N, T)),
                              regularizer=Regularizer(gamma_time=0.5),
                              max_iters=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # three iterations do not converge
        return inpaint(spec, g)


def _sparse_code(X, g, eig):
    spec = SparseCodingSpec(bank=BANK, observation=X, gamma=0.1, max_iters=3)
    return sparse_code(spec, g, eig)


# (entry point, input name, valid input, call(A, g, eig), what the rows
# are checked against: nothing, the graph, or the eigensystem too)
ENTRY_POINTS = [
    ("dft", "signal", SIGNAL, lambda A, g, eig: dft(A), None),
    ("idft", "spectrum", SPECTRUM, lambda A, g, eig: idft(A), None),
    ("gft", "signal", SIGNAL, lambda A, g, eig: gft(A, eig), "eig"),
    ("igft", "spectrum", SPECTRUM, lambda A, g, eig: igft(A, eig), "eig"),
    ("jft", "signal", SIGNAL, lambda A, g, eig: jft(A, eig), "eig"),
    ("ijft", "spectrum", SPECTRUM, lambda A, g, eig: ijft(A, eig), "eig"),
    ("joint_gradient", "signal", SIGNAL,
     lambda A, g, eig: joint_gradient(A, g), "graph"),
    ("joint_laplacian_apply", "signal", SIGNAL,
     lambda A, g, eig: joint_laplacian_apply(A, g), "graph"),
    ("variation_norm", "signal", SIGNAL,
     lambda A, g, eig: variation_norm(A, g), "graph"),
    ("filter_exact", "signal", SIGNAL,
     lambda A, g, eig: filter_exact(A, KERNEL, eig), "eig"),
    ("filter_ffc", "signal", SIGNAL,
     lambda A, g, eig: filter_ffc(A, KERNEL, g, 10), "graph"),
    ("filter_cheby2d", "signal", SIGNAL,
     lambda A, g, eig: filter_cheby2d(A, KERNEL, g, 5, 5), "graph"),
    ("filter_separable", "signal", SIGNAL,
     lambda A, g, eig: filter_separable(A, np.exp, np.cos, g, 10), "graph"),
    ("analyze-exact", "signal", SIGNAL,
     lambda A, g, eig: analyze(BANK, A, g, eig), "eig"),
    ("analyze-ffc", "signal", SIGNAL,
     lambda A, g, eig: analyze(BANK, A, g, order=10), "graph"),
    ("synthesize-exact", "coefficient stack", COEFFS,
     lambda A, g, eig: synthesize(BANK, A, g, eig), "eig"),
    ("synthesize-ffc", "coefficient stack", COEFFS,
     lambda A, g, eig: synthesize(BANK, A, g, order=10), "graph"),
    ("denoise_tikhonov-exact", "signal", SIGNAL,
     lambda A, g, eig: denoise_tikhonov(A, g, 0.5, 0.3, eig=eig), "eig"),
    ("denoise_tikhonov-ffc", "signal", SIGNAL,
     lambda A, g, eig: denoise_tikhonov(A, g, 0.5, 0.3, order=10), "graph"),
    ("inpaint", "observation", SIGNAL, lambda A, g, eig: _inpaint(A, g),
     "graph"),
    ("sparse_code", "observation", SIGNAL,
     lambda A, g, eig: _sparse_code(A, g, eig), "eig"),
    ("localize_source", "coefficient stack", COEFFS,
     lambda A, g, eig: localize_source(A, BANK, g, 2), "graph"),
    ("signal_energy_centroid", "signal", SIGNAL,
     lambda A, g, eig: signal_energy_centroid(A, g), "graph"),
    ("heat_evolve", "initial condition", INITIAL,
     lambda A, g, eig: heat_evolve(A, g, 0.1, T), "graph"),
    ("heat_joint_spectrum", "initial condition", INITIAL,
     lambda A, g, eig: heat_joint_spectrum(A, g, eig, 0.1, T), "eig"),
    ("wave_evolve", "initial condition", INITIAL,
     lambda A, g, eig: wave_evolve(A, g, eig, 0.5, T), "eig"),
    ("wave_joint_spectrum", "initial condition", INITIAL,
     lambda A, g, eig: wave_joint_spectrum(A, g, eig, 0.5, T), "eig"),
    ("compaction_experiment", "signal", SIGNAL,
     lambda A, g, eig: compaction_experiment(A, g, eig, [50.0]), "eig"),
]


def _with_entry(A, value):
    A = np.array(A)
    A.flat[A.size // 2] = value
    return A


# (case, bad input made from a valid one, the eigensystem passed, the
# checks the case needs)
CASES = [
    ("axis-added", lambda A: np.stack([A, A], axis=-1), EIG,
     (None, "graph", "eig")),
    ("axis-dropped", lambda A: A[..., 0], EIG, (None, "graph", "eig")),
    ("rows", lambda A: np.delete(A, 0, axis=-min(A.ndim, 2)), EIG,
     ("graph", "eig")),
    ("nan", lambda A: _with_entry(A, np.nan), EIG, (None, "graph", "eig")),
    ("inf", lambda A: _with_entry(A, np.inf), EIG, (None, "graph", "eig")),
    ("other-eig", lambda A: A, OTHER_EIG, ("eig",)),
    ("empty-time-axis", lambda A: A[..., :0], EIG, (None, "graph", "eig")),
]

TABLE = [pytest.param(call, name, case(valid), eig, id=f"{entry}-{label}")
         for entry, name, valid, call, rows in ENTRY_POINTS
         for label, case, eig, applies in CASES if rows in applies]


@pytest.mark.parametrize("call, valid",
                         [pytest.param(call, valid, id=entry)
                          for entry, _, valid, call, _ in ENTRY_POINTS])
def test_entry_point_accepts_its_valid_input(call, valid):
    """The table's baseline: each row runs on its unmodified input."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(valid, G, EIG)


@pytest.mark.parametrize("call, name, bad, eig", TABLE)
def test_entry_point_rejects_bad_input_naming_it(call, name, bad, eig):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=name):
            call(bad, G, eig)
