import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgsp import (ImaginaryResidueError, ValidationError, build_graph, dft,
                   gft, idft, igft, ijft, jft, joint_gradient,
                   joint_laplacian_apply, knn_sensor_graph, path_graph,
                   ring_graph, time_laplacian, time_laplacian_eigenvalues,
                   unvec, variation_norm, vec)
from tvgsp.transforms import (SYMMETRY_TOL, _spectral_bins, omega_grid,
                              real_if_close, time_diff,
                              time_diff_adjoint)
from tvgsp.transforms import graph_incidence, validate_signal
from tvgsp.rng import default_rng

from oracles import (dense_jft, dense_ijft, dense_joint_laplacian,
                     dense_time_laplacian)


def test_dft_constant_row():
    out = dft(np.ones((1, 4)))
    assert np.allclose(out, [[2.0, 0.0, 0.0, 0.0]], atol=1e-14)


def test_dft_delta_flat():
    X = np.array([[1.0, 0.0]])
    assert np.allclose(dft(X), [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-15)


def test_dft_roundtrip(random_signal):
    X = random_signal(3, 8)
    assert np.linalg.norm(idft(dft(X)) - X) <= 1e-12


def test_dft_matches_dense_matrix(random_signal):
    X = random_signal(4, 6)
    F = np.exp(-2j * np.pi * np.outer(np.arange(6), np.arange(6)) / 6) / np.sqrt(6)
    assert np.allclose(dft(X), X @ F, atol=1e-13)


def test_gft_constant_concentrates(ring8):
    eig = ring8.eigensystem()
    X = np.ones((8, 3))
    S = gft(X, eig)
    assert np.abs(S[1:]).max() <= 1e-12 * np.linalg.norm(X)
    assert S[0, 0] == pytest.approx(np.sqrt(8), rel=1e-12)


def test_gft_eigenvector_delta(sensor30):
    eig = sensor30.eigensystem()
    X = eig.vectors[:, [2]]
    S = gft(X, eig)
    expected = np.zeros((30, 1))
    expected[2, 0] = 1.0
    assert np.abs(S - expected).max() <= 1e-12


def test_gft_roundtrip(sensor30, random_signal):
    eig = sensor30.eigensystem()
    X = random_signal(30, 5)
    assert np.linalg.norm(igft(gft(X, eig), eig) - X) <= 1e-12 * np.linalg.norm(X)


def test_jft_all_ones_single_coefficient():
    g = ring_graph(4)
    eig = g.eigensystem()
    X = np.ones((4, 4))
    S = jft(X, eig)
    assert np.abs(S[0, 0]) == pytest.approx(np.linalg.norm(X), rel=1e-12)
    mask = np.ones_like(S, dtype=bool)
    mask[0, 0] = False
    assert np.abs(S[mask]).max() <= 1e-12 * np.linalg.norm(X)


def test_jft_basis_atom(sensor30):
    eig = sensor30.eigensystem()
    T = 8
    k, l = 3, 5
    atom = np.outer(eig.vectors[:, l],
                    np.exp(1j * omega_grid(T, centered=False)[k] * np.arange(T)))
    S = jft(atom, eig)
    assert np.abs(S[l, k]) == pytest.approx(np.sqrt(T), rel=1e-10)
    mask = np.ones_like(S, dtype=bool)
    mask[l, k] = False
    assert np.abs(S[mask]).max() <= 1e-10


def test_jft_matches_dense(sensor30, random_signal):
    eig = sensor30.eigensystem()
    X = random_signal(30, 12)
    assert np.allclose(jft(X, eig), dense_jft(X, eig.vectors, 12), atol=1e-11)


def test_parseval_all_transforms(sensor30, random_signal):
    eig = sensor30.eigensystem()
    X = random_signal(30, 16)
    n = np.linalg.norm(X)
    for S in (dft(X), gft(X, eig), jft(X, eig)):
        assert abs(np.linalg.norm(S) - n) / n <= 1e-10


def test_order_independence(sensor30, random_signal):
    eig = sensor30.eigensystem()
    X = random_signal(30, 16)
    a = gft(dft(X), eig)
    b = dft(gft(X, eig))
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(X)


def test_ijft_roundtrip_real_and_complex(sensor30, random_signal):
    eig = sensor30.eigensystem()
    X = random_signal(30, 16)
    Y = ijft(jft(X, eig), eig)
    assert not np.iscomplexobj(Y)
    assert np.linalg.norm(Y - X) <= 1e-10 * np.linalg.norm(X)
    Z = random_signal(30, 16, complex_valued=True)
    W = ijft(jft(Z, eig), eig)
    assert np.linalg.norm(W - Z) <= 1e-10 * np.linalg.norm(Z)


def test_jft_of_ijft_is_identity(sensor30, random_signal):
    eig = sensor30.eigensystem()
    S = random_signal(30, 16, complex_valued=True)
    back = jft(ijft(S, eig, real=False), eig)
    assert np.linalg.norm(back - S) <= 1e-10 * np.linalg.norm(S)


def test_ijft_zero():
    g = path_graph(3)
    out = ijft(np.zeros((3, 4), dtype=complex), g.eigensystem())
    assert np.array_equal(out, np.zeros((3, 4)))


def test_ijft_delta_dc():
    g = path_graph(2)
    eig = g.eigensystem()
    S = np.zeros((2, 2), dtype=complex)
    S[0, 0] = 1.0
    out = ijft(S, eig)
    # oracle: apply the dense inverse transform matrices for N = T = 2
    expected = dense_ijft(S, eig.vectors, 2)
    assert np.allclose(out, expected.real, atol=1e-14)
    assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_ijft_strict_rejects_inconsistent_spectrum(sensor30, random_signal):
    eig = sensor30.eigensystem()
    S = jft(random_signal(30, 8), eig)
    S[0, 1] += 1.0  # breaks conjugate symmetry
    with pytest.raises(ImaginaryResidueError):
        ijft(S, eig, real=True)
    # non-strict call returns the complex result instead
    out = ijft(S, eig)
    assert np.iscomplexobj(out)


def test_time_laplacian_matrix_and_spectrum():
    for T in (1, 2, 3, 8, 64):
        dense = time_laplacian(T).toarray()
        assert np.allclose(dense, dense_time_laplacian(T), atol=1e-15)
        mine = np.sort(time_laplacian_eigenvalues(T))
        ref = np.sort(np.linalg.eigvalsh(dense_time_laplacian(T)))
        assert np.allclose(mine, ref, atol=1e-12)


def test_time_laplacian_eigenvalue_invariants():
    lam = time_laplacian_eigenvalues(12)
    assert lam[0] == 0.0
    assert lam.min() >= 0.0 and lam.max() <= 4.0
    assert np.allclose(lam[1:], lam[1:][::-1])  # k <-> T - k symmetry


def test_joint_laplacian_kronecker_equivalence(rng):
    cases = [(path_graph(2), 2), (path_graph(4), 8), (ring_graph(6), 6),
             (knn_sensor_graph(16, 3, seed=2), 16)]
    for g, T in cases:
        assert g.N * T <= 256
        LJ = dense_joint_laplacian(g.L.toarray(), T)
        for _ in range(5):
            X = rng.standard_normal((g.N, T))
            direct = joint_laplacian_apply(X, g)
            oracle = unvec(LJ @ vec(X), g.N, T)
            assert np.abs(direct - oracle).max() <= 1e-12 * max(1, np.abs(oracle).max())


def test_joint_laplacian_annihilates_constants(sensor30):
    X = np.full((30, 7), 3.25)
    assert np.abs(joint_laplacian_apply(X, sensor30)).max() <= 1e-12


def test_joint_eigenvalues_are_pairwise_sums():
    g = path_graph(2)
    T = 2
    LJ = dense_joint_laplacian(g.L.toarray(), T)
    joint = np.sort(np.linalg.eigvalsh(LJ))
    assert np.allclose(joint, [0.0, 2.0, 4.0, 6.0], atol=1e-10)
    sums = np.sort(np.add.outer(time_laplacian_eigenvalues(T),
                                g.eigensystem().values).ravel())
    assert np.allclose(joint, sums, atol=1e-10)


def test_joint_gradient_values():
    g = build_graph([(0, 1, 4.0)], 2)
    X = np.array([[1.0], [0.0]])
    gpart, tpart = joint_gradient(X, g)
    assert gpart.shape == (1, 1)
    assert gpart[0, 0] == pytest.approx(2.0)  # sqrt(4) * (1 - 0)
    assert np.abs(tpart).max() == 0.0  # T = 1: periodic difference vanishes


def test_joint_gradient_constant_zero(sensor30):
    gpart, tpart = joint_gradient(np.ones((30, 6)), sensor30)
    assert np.abs(gpart).max() <= 1e-12
    assert np.abs(tpart).max() == 0.0


def test_joint_gradient_graph_part_is_the_incidence_product(rng):
    """The graph part of ``joint_gradient`` equals ``graph_incidence(g) @ X``
    entry for entry (``array_equal`` takes -0.0 == 0.0) on random graphs,
    with duplicate and isolated vertices, and signals with zero entries."""
    for n in (2, 7, 30):
        for _ in range(20):
            ij = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            ij = ij[ij[:, 0] != ij[:, 1]]
            w = rng.uniform(0.0, 5.0, ij.shape[0])
            g = build_graph(np.column_stack((ij, w)), n)
            X = rng.standard_normal((n, 4))
            X[rng.random(X.shape) < 0.3] = 0.0
            X[rng.random(X.shape) < 0.1] = -0.0
            assert np.array_equal(joint_gradient(X, g)[0],
                                  graph_incidence(g) @ X)


def test_gradient_energy_matches_laplacian_form(sensor30, rng):
    for _ in range(100):
        X = rng.standard_normal((30, 5))
        gpart, tpart = joint_gradient(X, sensor30)
        energy = (gpart ** 2).sum() + (tpart ** 2).sum()
        quad = float(vec(X) @ vec(joint_laplacian_apply(X, sensor30)))
        assert energy == pytest.approx(quad, rel=1e-10, abs=1e-10)


def test_difference_operator_adjoints(sensor30, rng):
    X = rng.standard_normal((30, 9))
    V = rng.standard_normal((30, 9))
    lhs = float((time_diff(X) * V).sum())
    rhs = float((X * time_diff_adjoint(V)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)
    B = graph_incidence(sensor30)
    U = rng.standard_normal((B.shape[0], 9))
    assert float(((B @ X) * U).sum()) == pytest.approx(
        float((X * (B.T @ U)).sum()), rel=1e-12)


@pytest.mark.parametrize("T", [1, 2, 7])
def test_time_differences_equal_the_rolled_form_bit_for_bit(T):
    # the sliced differences compute each entry as the np.roll forms do
    g = ring_graph(5)
    X = default_rng(T).standard_normal((5, T))
    rolled = {
        "diff": X - np.roll(X, 1, axis=1),
        "adjoint": X - np.roll(X, -1, axis=1),
        "laplacian": g.L @ X + (2.0 * X - np.roll(X, 1, axis=1)
                                - np.roll(X, -1, axis=1)),
    }
    sliced = {"diff": time_diff(X), "adjoint": time_diff_adjoint(X),
              "laplacian": joint_laplacian_apply(X, g)}
    for name, expected in rolled.items():
        assert sliced[name].tobytes() == expected.tobytes(), name


def test_incidence_factorizes_laplacian(sensor30):
    B = graph_incidence(sensor30)
    assert np.abs((B.T @ B - sensor30.L).toarray()).max() <= 1e-12


def test_variation_norm_values(sensor30, rng):
    assert variation_norm(np.ones((30, 4)), sensor30, p=1, q=1) == 0.0
    assert variation_norm(np.ones((30, 4)), sensor30, p=2, q=2) == 0.0
    X = rng.standard_normal((30, 4))
    quad = float(vec(X) @ vec(joint_laplacian_apply(X, sensor30)))
    assert variation_norm(X, sensor30, p=2, q=2) == pytest.approx(quad, rel=1e-10)


def test_variation_norm_tv_hand_case():
    g = build_graph([(0, 1, 1.0)], 2)
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    # graph gradient: column 0 entry 1, column 1 entry 0 -> l1 mass 1
    # time differences: row 0 is [1, -1] -> l1 mass 2
    assert variation_norm(X, g, p=1, q=1) == pytest.approx(3.0)


def test_variation_norm_validation(sensor30):
    with pytest.raises(ValidationError):
        variation_norm(np.ones((30, 2)), sensor30, p=3)
    with pytest.raises(ValidationError):
        variation_norm(np.ones((30, 2)), sensor30, w_graph=-1.0)



@pytest.mark.parametrize("weights,name", [
    ((np.nan, 1.0), "w_graph=nan"), ((np.inf, 1.0), "w_graph=inf"),
    ((-1.0, 1.0), "w_graph=-1.0"), ((1.0, np.nan), "w_time=nan"),
    ((1.0, -np.inf), "w_time=-inf"), (("abc", 1.0), "w_graph=abc"),
])
def test_variation_norm_names_a_bad_weight(sensor30, weights, name):
    """A weight that is not finite or is negative is a
    :class:`ValidationError` naming it (a NaN or infinite weight used to
    return NaN, and a string raised a raw ``TypeError``)."""
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        variation_norm(np.ones((30, 2)), sensor30, 2, 2, *weights)

def test_vec_unvec_roundtrip(rng):
    X = rng.standard_normal((5, 7))
    assert np.array_equal(unvec(vec(X), 5, 7), X)
    # column stacking: first N entries are the first column
    assert np.array_equal(vec(X)[:5], X[:, 0])


def test_validate_signal_rejects_nonfinite():
    with pytest.raises(ValidationError):
        validate_signal(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        validate_signal(np.ones(3))


def test_gft_dimension_mismatch(sensor30):
    with pytest.raises(ValidationError):
        gft(np.ones((29, 4)), sensor30.eigensystem())


def test_real_if_close_keeps_an_imaginary_part_whose_norm_overflows():
    """``|Y|`` overflows to inf here; that must not make an imaginary part
    of the same size pass as negligible."""
    Y = np.full((4, 4), 1e200 + 1e200j)
    assert np.iscomplexobj(real_if_close(Y))
    with pytest.raises(ImaginaryResidueError, match=r"residue 4\.000e\+200"):
        real_if_close(Y, strict=True)
    assert not np.iscomplexobj(real_if_close(np.full((4, 4), 1e200 + 0j)))


@pytest.mark.parametrize("fn, X, message", [
    (variation_norm, np.ones((9, 4)), "9 rows but graph has 8 vertices"),
    (joint_gradient, np.ones((7, 4)), "7 rows but graph has 8 vertices"),
    (joint_laplacian_apply, np.ones((7, 4)),
     "7 rows but graph has 8 vertices"),
    (joint_laplacian_apply, np.ones(8), "must be 2-D"),
    (variation_norm, np.full((8, 4), np.nan), "NaN or Inf"),
], ids=["variation_norm-9-rows", "joint_gradient-7-rows",
        "joint_laplacian_apply-7-rows", "joint_laplacian_apply-1-D",
        "variation_norm-nan"])
def test_joint_calculus_validates_its_signal(ring8, fn, X, message):
    """A signal that is not 2-D, not finite or without one row per vertex
    is a ValidationError, as for the filters."""
    with pytest.raises(ValidationError, match=message):
        fn(X, ring8)


def test_joint_laplacian_of_a_complex_signal_is_scipys(sensor30):
    """The complex signal goes through the float64 view of the real
    Laplacian, bit for bit scipy's complex product."""
    rng = default_rng(2)
    X = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
    X[rng.random(X.shape) < 0.2] = -0.0
    time_part = 2.0 * X - np.roll(X, 1, axis=1) - np.roll(X, -1, axis=1)
    expected = sensor30.L @ X + time_part
    assert joint_laplacian_apply(X, sensor30).tobytes() == expected.tobytes()


def test_variation_norm_of_a_complex_signal_sums_squared_moduli(ring8):
    """``p = q = 2`` sums ``|x|^2``: no complex square, so no imaginary
    part for ``float()`` to drop; on a real signal it is bit for bit the
    sum of squares."""
    rng = default_rng(4)
    X = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    gpart, tpart = joint_gradient(X, ring8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = variation_norm(X, ring8, w_graph=0.5)
    expected = (0.5 * (np.abs(gpart) ** 2).sum()
                + (np.abs(tpart) ** 2).sum())
    assert value == pytest.approx(expected, rel=1e-14)
    gpart, tpart = joint_gradient(X.real, ring8)
    assert (variation_norm(X.real, ring8, p=2, q=1)
            == float((gpart ** 2).sum() + np.abs(tpart).sum()))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(T=st.sampled_from([1, 2, 3, 4, 7, 8, 16, 17]),
       symmetric=st.booleans(),
       dc_gap=st.sampled_from([None, 0.0, 0.999, 1.001]),
       seed=st.integers(0, 999))
def test_spectral_bins_decides_as_the_rolled_mirror(T, symmetric, dc_gap,
                                                     seed):
    """The half-spectrum decision compares bin k with conj(bin -k) without
    a mirrored copy, and decides as the rule on ``conj(roll(flip(table),
    1))`` does: on random tables of any T, conjugate-symmetric ones among
    them, whose DC bin has an imaginary part just below or just above the
    tolerance (the gap at DC is twice it)."""
    rng = default_rng(seed)
    table = (rng.standard_normal((2, 3, T))
             + 1j * rng.standard_normal((2, 3, T)))

    def mirror(A):
        return np.conj(np.roll(np.flip(A, -1), 1, axis=-1))

    if symmetric:
        table = 0.5 * (table + mirror(table))
    if dc_gap is not None:
        table[..., 0] = table[..., 0].real + 0.5j * dc_gap * (
            SYMMETRY_TOL * np.abs(table).max())
    rolled = (np.abs(table - mirror(table)).max()
              <= SYMMETRY_TOL * np.abs(table).max())
    half, kept = _spectral_bins(np.ones((3, T)), table)
    assert half == rolled
    if symmetric and dc_gap is not None:
        assert half == (dc_gap < 1.0)
    assert kept.shape[-1] == (T // 2 + 1 if half else T)
