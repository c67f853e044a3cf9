import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tvgsp import (EigendecompositionCapError, Graph, ValidationError,
                   build_graph, eigendecompose, erdos_renyi_graph,
                   estimate_lambda_max, generate_graph, graphs,
                   grid2d_graph, knn_sensor_graph, path_graph, ring_graph)
from tvgsp.rng import default_rng
from oracles import quadratic_form


def test_single_edge_laplacian():
    g = build_graph([(0, 1, 1.0)], 2)
    assert np.array_equal(g.L.toarray(), [[1.0, -1.0], [-1.0, 1.0]])


def test_empty_graph_laplacian():
    g = build_graph([], 3)
    assert np.array_equal(g.L.toarray(), np.zeros((3, 3)))
    assert g.lmax == 0.0


def test_p3_laplacian():
    g = path_graph(3)
    expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    assert np.array_equal(g.L.toarray(), expected)


def test_duplicate_edges_merge_by_summing():
    g = build_graph([(0, 1, 1.0), (1, 0, 2.0)], 2)
    assert g.W[0, 1] == 3.0
    assert g.num_edges == 1


@pytest.mark.parametrize("edges, n", [
    ([(0, 1, -1.0)], 2),        # negative weight
    ([(0, 0, 1.0)], 2),         # self-loop
    ([(0, 3, 1.0)], 2),         # id out of range
])
def test_invalid_edges_rejected(edges, n):
    with pytest.raises(ValidationError):
        build_graph(edges, n)


def test_row_sums_vanish(sensor30):
    ones = np.ones(sensor30.N)
    assert np.abs(sensor30.L @ ones).max() <= 1e-12
    # integer weights: exact zero
    g = grid2d_graph(4, 5)
    assert np.abs(g.L @ np.ones(g.N)).max() == 0.0


def test_quadratic_form_identity(sensor30, rng):
    for _ in range(100):
        x = rng.standard_normal((sensor30.N, 1))
        lhs = float(x.ravel() @ (sensor30.L @ x.ravel()))
        rhs = quadratic_form(x, sensor30)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_p2_eigenvalues(p2):
    eig = p2.eigensystem()
    assert np.allclose(eig.values, [0.0, 2.0], atol=1e-12)


def test_k3_eigenvalues(k3):
    # oracle: brute-force eigensolve of the hand-built Laplacian
    expected = np.sort(np.linalg.eigvalsh(
        np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])))
    eig = k3.eigensystem()
    assert np.allclose(eig.values, expected, atol=1e-12)
    assert np.allclose(eig.values, [0.0, 3.0, 3.0], atol=1e-12)


def test_zero_graph_eigensystem():
    g = build_graph([], 2)
    eig = g.eigensystem()
    assert np.allclose(eig.values, [0.0, 0.0])
    assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(2), atol=1e-12)


def test_eigensystem_reconstruction_and_orthonormality(sensor30):
    eig = sensor30.eigensystem()
    L = sensor30.L.toarray()
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert (np.linalg.norm(recon - L) / np.linalg.norm(L)) <= 1e-10
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(sensor30.N)).max() <= 1e-10
    assert eig.values[0] <= 1e-10
    # connected graph: first eigenvector is the positive constant vector
    const = np.full(sensor30.N, 1 / np.sqrt(sensor30.N))
    assert np.allclose(eig.vectors[:, 0], const, atol=1e-8)


def test_sign_convention(sensor30):
    eig = sensor30.eigensystem()
    for j in range(sensor30.N):
        col = eig.vectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0


def test_eigendecompose_cap(p3):
    with pytest.raises(EigendecompositionCapError, match="fast path"):
        eigendecompose(p3, cap=2)


def test_lambda_max_bounds(p2, k3):
    assert estimate_lambda_max(p2) == 2.0
    b = estimate_lambda_max(k3)
    assert 3.0 <= b <= 4.0
    assert estimate_lambda_max(build_graph([], 4)) == 0.0


def test_ring_degrees():
    g = ring_graph(4)
    assert np.allclose(g.degrees, 2.0)


def test_grid2d_counts():
    g = grid2d_graph(3, 3)
    assert g.N == 9
    assert g.num_edges == 12


def test_knn_sensor_connected_seed7():
    g = knn_sensor_graph(50, 5, seed=7)
    # independent connectivity oracle
    ncomp, _ = csgraph.connected_components(g.W, directed=False)
    assert ncomp == 1
    assert g.is_connected()
    assert g.coords.shape == (50, 2)


def test_is_connected_disjoint_paths_and_trivial_sizes():
    two_paths = build_graph([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)], 5)
    assert not two_paths.is_connected()
    assert build_graph([], 0).is_connected()
    assert build_graph([], 1).is_connected()


def test_knn_sensor_deterministic():
    a = knn_sensor_graph(25, 3, seed=11)
    b = knn_sensor_graph(25, 3, seed=11)
    assert np.array_equal(a.W.toarray(), b.W.toarray())
    assert np.array_equal(a.coords, b.coords)


def test_erdos_renyi_seeded():
    a = erdos_renyi_graph(30, 0.2, seed=5)
    b = erdos_renyi_graph(30, 0.2, seed=5)
    assert np.array_equal(a.W.toarray(), b.W.toarray())
    c = erdos_renyi_graph(30, 0.2, seed=6)
    assert not np.array_equal(a.W.toarray(), c.W.toarray())


def test_generate_graph_dispatch():
    g = generate_graph("grid2d", {"rows": 2, "cols": 3})
    assert g.N == 6
    # a None value counts as unset: sigma falls back to its default
    assert generate_graph("knn_sensor", {"n": 10, "k": 3, "sigma": None}).N == 10
    with pytest.raises(ValidationError):
        generate_graph("unknown", {})
    with pytest.raises(ValidationError):
        generate_graph("knn_sensor", {"n": 10, "k": 10})
    with pytest.raises(ValidationError):
        generate_graph("grid2d", {"rows": 2})
    with pytest.raises(ValidationError, match="ring graph takes no "
                       "parameter 'k'"):
        generate_graph("ring", {"n": 6, "k": 3})


@pytest.mark.parametrize("kind, params, name", [
    ("ring", {"n": "abc"}, "n"),
    ("ring", {"n": 6.5}, "n"),
    ("grid2d", {"rows": 2, "cols": float("nan")}, "cols"),
    ("knn_sensor", {"n": 10, "k": "3x"}, "k"),
    ("knn_sensor", {"n": 10, "k": 3, "sigma": "inf"}, "sigma"),
    ("erdos_renyi", {"n": 6, "p": float("inf")}, "p"),
])
def test_generate_graph_names_a_bad_parameter_value(kind, params, name):
    with pytest.raises(ValidationError, match=f"^{name}="):
        generate_graph(kind, params)


def test_generate_graph_keeps_a_large_seed_exact():
    # 2**53 + 1 would round to 2**53 through a float
    seed = 2 ** 53 + 1
    g = generate_graph("erdos_renyi", {"n": "12", "p": "0.5"}, rng_seed=seed)
    assert g.edges()[0].tolist() == erdos_renyi_graph(
        12, 0.5, seed=seed).edges()[0].tolist()
    assert g.edges()[0].tolist() != erdos_renyi_graph(
        12, 0.5, seed=2 ** 53).edges()[0].tolist()


@pytest.mark.parametrize("seed, shown", [
    (-1, "-1"), (np.int64(-2), "-2"), (1.5, "1.5"), (3.0, "3.0"),
    (True, "True"), (np.bool_(False), "False"), ("abc", "'abc'"),
    (None, "None"),
], ids=["negative", "negative-numpy", "fractional", "float", "boolean",
        "numpy-boolean", "string", "none"])
def test_a_bad_seed_is_named_by_the_one_seed_check(seed, shown):
    """``default_rng`` and ``generate_graph`` (of every kind, even one that
    draws nothing) take a nonnegative int, else a :class:`ValidationError`
    naming the seed; numpy's own ``Philox`` would raise a raw ``ValueError``
    or ``TypeError``, and ``int(1.5)`` would truncate."""
    message = f"^seed={shown} is not a nonnegative integer$"
    with pytest.raises(ValidationError, match=message):
        default_rng(seed)
    for kind, params in (("erdos_renyi", {"n": 6, "p": 0.5}),
                         ("ring", {"n": 6})):
        with pytest.raises(ValidationError, match=message):
            generate_graph(kind, params, rng_seed=seed)


def test_edges_canonical_order():
    g = build_graph([(2, 0, 1.0), (1, 0, 2.0)], 3)
    src, dst, w = g.edges()
    assert src.tolist() == [0, 0]
    assert dst.tolist() == [1, 2]
    assert w.tolist() == [2.0, 1.0]


# SHA-256 over W.indptr, W.indices, W.data and coords (when present),
# recorded from the per-edge loop generators these replaced.
GOLDEN = [
    ("path", {"n": 9}, 0,
     "bb252b12aa811669494e4007be668b4a69dfc860a88dadab90113ca06e5fcb80"),
    ("ring", {"n": 11}, 0,
     "26321bc6bb62d85d777756b34ab9e5b9ae44e0e6ff491bf7c70666467b8f33f1"),
    ("grid2d", {"rows": 4, "cols": 5}, 0,
     "b6cf7838b0d3053443daa20e7121c8fd19f4734256557c550338d56e7014fde6"),
    ("knn_sensor", {"n": 60, "k": 5}, 3,
     "af7d4d66199cad4273f0b8af884afc0f83b1560c701f8601fbecbb56c3e4e561"),
    ("knn_sensor", {"n": 200, "k": 6}, 11,
     "ab77af7d73c93f102ac83538cbb3f58c0fea713ac78662607baa08701789fd4a"),
    ("erdos_renyi", {"n": 30, "p": 0.3}, 5,
     "09d1c34577fa6d693d311f7805d35489aba97c5ffd0db813a71c58f475341738"),
    ("erdos_renyi", {"n": 57, "p": 0.05}, 2,
     "1fbf0d59cfbfdabadda31bab80399e5e0f0b9ef340d3ad3e41a25c05b6af3713"),
]


@pytest.mark.parametrize("kind,params,seed,digest", GOLDEN)
def test_generators_are_byte_identical(kind, params, seed, digest):
    g = generate_graph(kind, params, rng_seed=seed)
    h = hashlib.sha256()
    for a in (g.W.indptr, g.W.indices, g.W.data) + (
            () if g.coords is None else (g.coords,)):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("edges,n,message", [
    ([(0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0)], 3, "self-loop at vertex 2"),
    ([(0, 1, -1.0), (4, 4, 1.0)], 3, r"vertex id out of range: \(4, 4\) with N=3"),
    ([(0, 1, 1.0), (1, 2, -0.5), (0, 2, np.nan)], 3,
     r"negative weight -0.5 on edge \(1, 2\)"),
    (np.array([[0, 1, 1.0], [2, 1, np.inf]]), 3,
     r"non-finite weight inf on edge \(2, 1\)"),
])
def test_build_graph_names_the_first_bad_edge(edges, n, message):
    with pytest.raises(ValidationError, match=message):
        build_graph(edges, n)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_build_graph_sums_duplicates_like_a_loop(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = [(i, j, float(w)) for (i, j), w in data.draw(st.lists(
        st.tuples(pairs, st.integers(0, 9)), max_size=30))]
    dense = np.zeros((n, n))
    for i, j, w in edges:
        dense[i, j] += w
        dense[j, i] += w
    for given_edges in (edges, np.array(edges).reshape(-1, 3)):
        assert np.array_equal(build_graph(given_edges, n).W.toarray(), dense)


def test_knn_sensor_matches_the_pairwise_loop():
    for n, k, seed in [(40, 3, 0), (120, 7, 4)]:
        g = knn_sensor_graph(n, k, seed=seed)
        dist, idx = cKDTree(g.coords).query(g.coords, k=k + 1)
        sigma = float(dist[:, -1].mean())
        merged = {}
        for i in range(n):
            for d, j in zip(dist[i, 1:], idx[i, 1:]):
                w = np.exp(-d * d / (2 * sigma * sigma))
                merged[(min(i, j), max(i, j))] = w
        ref = build_graph([(i, j, w) for (i, j), w in merged.items()], n)
        assert np.array_equal(g.W.toarray(), ref.W.toarray())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 3000), k=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_knn_search_matches_ckdtree_bit_for_bit(n, k, seed):
    m = min(k, n - 1) + 1
    pts = default_rng(seed).random((n, 2))
    d2, idx = graphs._knn(pts, m)
    dist, ref = cKDTree(pts).query(pts, k=m)
    assert _same_bits(np.sqrt(d2).reshape(dist.shape), dist)
    assert np.array_equal(idx.reshape(ref.shape), ref)


def test_knn_search_redoes_uncertified_points_against_all(monkeypatch):
    """With most points in one corner, the scattered rest have their m-th
    neighbour beyond their block of cells; they are searched again among
    all points."""
    pts = default_rng(8).random((1500, 2))
    pts[:1300] *= 0.1
    redone = []

    def spy(xy, rows, block, group, m, _real=graphs._nearest):
        if block.shape[0] == 1 and rows.size < pts.shape[0]:
            redone.extend(rows.tolist())
        return _real(xy, rows, block, group, m)

    monkeypatch.setattr(graphs, "_nearest", spy)
    d2, idx = graphs._knn(pts, 9)
    dist, ref = cKDTree(pts).query(pts, k=9)
    assert len(redone) > 10
    assert _same_bits(np.sqrt(d2), dist) and np.array_equal(idx, ref)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(n=st.integers(0, 40), data=st.data())
def test_component_count_matches_scipy(n, data):
    """Random sparse graphs, with isolated vertices, and shuffled paths
    with one edge cut."""
    pairs = (st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]) if n > 1 else st.nothing())
    edges = [(i, j, 1.0) for i, j in data.draw(st.lists(pairs, max_size=n))]
    perm = default_rng(data.draw(st.integers(0, 99))).permutation(n)
    path = [(i, j, 1.0) for i, j in zip(perm[:-1], perm[1:])]
    cut = data.draw(st.integers(0, max(n - 2, 0)))
    for g in (build_graph(edges, n), build_graph(path, n),
              build_graph(path[:cut] + path[cut + 1:], n)):
        expected = csgraph.connected_components(g.W, directed=False)[0]
        assert g.num_components() == expected
        assert g.is_connected() == (expected <= 1)


def test_component_count_of_a_long_shuffled_path():
    n = 20000
    perm = default_rng(3).permutation(n)
    edges = np.column_stack((perm[:-1], perm[1:], np.ones(n - 1)))
    assert build_graph(edges, n).num_components() == 1
    assert build_graph(np.delete(edges, n // 2, 0), n).num_components() == 2


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_csr(A, B):
    return all(_same_bits(getattr(A, k), getattr(B, k))
               for k in ("indptr", "indices", "data"))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_graph_arrays_match_scipy_bit_for_bit(n, data):
    """On random weighted edge lists with duplicates, zero weights and
    isolated vertices, ``build_graph`` and ``Graph`` of a scipy matrix give
    the ``W``, ``L``, degrees, edges and dense Laplacian that scipy builds.

    At most 16 edges keep every row at 16 stored entries or fewer before
    duplicates are summed: scipy sorts such a row stably (an insertion
    sort) and so sums its duplicates in list order, as the graph does;
    beyond 16 its sort is unstable and its sum order unspecified.
    """
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    drawn = data.draw(st.lists(st.tuples(pairs, weight), max_size=16))
    ij = np.array([p for p, _ in drawn], dtype=np.int64).reshape(-1, 2)
    w = np.array([x for _, x in drawn], dtype=float)
    rows, cols, vals = ij.ravel(), ij[:, ::-1].ravel(), np.repeat(w, 2)
    W = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    W.eliminate_zeros()
    if not drawn:  # scipy's empty CSR has int32 indices, a graph's are int64
        W = sp.csr_array((W.data, W.indices.astype(np.int64),
                          W.indptr.astype(np.int64)), shape=(n, n))
    degrees = np.asarray(W.sum(axis=1)).ravel()
    L = sp.csr_array(sp.diags(degrees) - W)
    upper = sp.triu(W, k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    for g in (build_graph(np.column_stack((ij, w)), n),
              Graph(sp.coo_array((vals, (rows, cols)), shape=(n, n))),
              Graph(W)):
        assert _same_csr(g.W, W) and _same_csr(g.L, L)
        assert _same_bits(g.degrees, degrees)
        assert all(_same_bits(a, b[order]) for a, b in zip(
            g.edges(), (upper.row, upper.col, upper.data)))
        assert _same_bits(g.laplacian_dense(), L.toarray())
        assert g.num_edges == W.nnz // 2


def _scipy_operators(g):
    """The operators of ``Graph._operator`` as scipy builds them: the
    Laplacian, the Chebyshev step ``(4 / lmax) L - 2 I``, the incidence
    ``B`` and ``B.T`` (a CSC view of ``B``'s arrays)."""
    ops = {"L": sp.csr_array(sp.diags(g.degrees) - g.W)}
    if g.lmax:
        ops["step"] = sp.csr_array(4.0 / g.lmax * ops["L"]
                                   - 2.0 * sp.eye_array(g.N))
    src, dst, w = g.edges()
    m, root = src.size, np.sqrt(w)
    ops["B"] = sp.csr_array(sp.coo_array(
        (np.column_stack((root, -root)).ravel(),
         (np.repeat(np.arange(m), 2), np.column_stack((src, dst)).ravel())),
        shape=(m, g.N)))
    ops["BT"] = ops["B"].T
    return ops


def _operands(rng, n, k):
    """Real 1-D, one-column and k-column operands and complex 1-D and
    (k + 1)-column ones, with a tenth of their entries -0.0."""
    real = [rng.standard_normal(n), rng.standard_normal((n, 1)),
            rng.standard_normal((n, k))]
    cplx = (rng.standard_normal((n, k + 1))
            + 1j * rng.standard_normal((n, k + 1)))
    for V in real + [cplx.real, cplx.imag]:
        V[rng.random(V.shape) < 0.1] = -0.0
    return real + [cplx, cplx[:, :1].ravel()]


def _assert_products_match_scipy(g, seed=0, k=5):
    """``g._matmul`` equals scipy's product bit for bit on every operator;
    a complex operand through the float64 view of a (n, cols) block. Added
    into a given output, the product is ``out + A @ V`` to 1e-14, in
    another order of the sums."""
    rng = default_rng(seed)
    for op, A in _scipy_operators(g).items():
        for V in _operands(rng, A.shape[1], k):
            if np.iscomplexobj(V):
                block = V[:, None] if V.ndim == 1 else V
                ref = (A @ block.view(np.float64)).view(np.complex128)
                ref = ref.reshape((A.shape[0],) + V.shape[1:])
            else:
                ref = A @ V
            got = g._matmul(op, V)
            assert got.dtype == ref.dtype and got.shape == ref.shape, op
            assert got.tobytes() == ref.tobytes(), op
            out = rng.standard_normal(ref.shape).astype(ref.dtype)
            if np.iscomplexobj(V):
                out += 1j * rng.standard_normal(ref.shape)
            expected = out + ref
            got = g._matmul(op, V, out=out)
            assert got is out, op
            assert (np.abs(got - expected).max(initial=0.0)
                    <= 1e-14 * np.abs(expected).max(initial=0.0)), op


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(0, 6), seed=st.integers(0, 99),
       data=st.data())
def test_csr_product_matches_scipy_bit_for_bit(n, k, seed, data):
    """On random weighted graphs, edgeless ones included, built by
    ``build_graph`` and by ``Graph(weights)``: 1-D, one-column and
    k-column real operands and complex ones through the float64 view, on
    the square ``L`` and step operator and the rectangular ``B`` and
    ``B.T``."""
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    drawn = data.draw(st.lists(st.tuples(pairs, st.floats(0.0, 1e3)),
                               max_size=60)) if n > 1 else []
    ij = np.array([p for p, _ in drawn], dtype=np.int64).reshape(-1, 2)
    w = np.array([x for _, x in drawn], dtype=float)
    W = sp.coo_array((np.repeat(w, 2), (ij.ravel(), ij[:, ::-1].ravel())),
                     shape=(n, n))
    for g in (build_graph(np.column_stack((ij, w)), n), Graph(W)):
        _assert_products_match_scipy(g, seed, k)


@pytest.mark.parametrize("g", [
    build_graph([], 5), ring_graph(12), grid2d_graph(4, 5),
    knn_sensor_graph(200, 6, seed=3),
], ids=["edgeless", "ring12", "grid4x5", "knn200"])
def test_csr_product_on_fixed_graphs(g):
    _assert_products_match_scipy(g)


def test_ring_step_operator_stores_no_diagonal():
    """Every vertex of a ring has the maximum degree, so the step
    operator's diagonal ``(4 / lmax) 2 - 2`` is 0 throughout and, as in
    scipy's difference, not stored: 24 of the 36 entries of ``L``."""
    g = ring_graph(12)
    indptr, indices, data, n = g._operator("step")
    assert (n, indptr[-1], g._operator("L")[0][-1]) == (12, 24, 36)
    assert not (indices == graphs._row_ids(indptr)).any()
    _assert_products_match_scipy(g)


@pytest.mark.parametrize("shape", [(7,), (9, 3), (8, 2, 2), ()])
def test_csr_product_checks_the_operand_shape(shape):
    """The compiled kernels check nothing; the product refuses an operand
    that does not have one row per column of the operator (8 for ``L``
    of the 8-vertex path, 7 for ``B.T``)."""
    g = path_graph(8)
    with pytest.raises(ValueError, match="dimension mismatch"):
        g._matmul("L", np.ones(shape))
    with pytest.raises(ValueError, match="dimension mismatch"):
        g._matmul("BT", np.ones((g.N,) + shape[1:]))


@pytest.mark.parametrize("out", [
    np.zeros((7, 3)), np.zeros((8, 3), complex), np.zeros((8, 3), np.float32),
    np.zeros((3, 8)).T, np.zeros(8)], ids=[
    "rows", "complex", "float32", "fortran", "rank"])
def test_csr_product_checks_the_output(out):
    """The kernels add into any buffer; the product refuses an output that
    is not a C-contiguous array of the product's shape and type."""
    with pytest.raises(ValueError, match="output must be"):
        path_graph(8)._matmul("L", np.ones((8, 3)), out=out)


@pytest.mark.parametrize("weights,message", [
    (np.ones((2, 3)), "must be square"),
    (np.ones(4), "must be square"),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), "must be symmetric"),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), "self-loop at vertex 0 rejected"),
    (np.array([[0.0, -1.0], [-1.0, 0.0]]), "negative weight -1.0 on edge"),
    (np.array([[0.0, np.inf], [np.inf, 0.0]]),
     r"non-finite weight inf on edge \(0, 1\)"),
    (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, np.nan], [0.0, np.nan, 0.0]]),
     r"non-finite weight nan on edge \(1, 2\)"),
])
def test_graph_rejects_bad_weight_matrices(weights, message):
    for given_weights in (weights, sp.coo_array(np.atleast_2d(weights))):
        with pytest.raises(ValidationError, match=message):
            Graph(given_weights)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 9), data=st.data())
def test_every_constructor_holds_one_weight_contract(n, data):
    """One fault, a self-loop or a negative, NaN or infinite weight, among
    distinct edges ``src < dst``: ``build_graph`` and ``Graph`` of the
    dense or the COO weight matrix raise the same message, naming it."""
    upper = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] < e[1])
    fault = data.draw(st.sampled_from(["self-loop", -0.25, np.nan, np.inf]))
    if fault == "self-loop":
        v = data.draw(st.integers(0, n - 1))
        bad, message = (v, v, 1.0), f"self-loop at vertex {v} rejected"
    else:
        i, j = data.draw(upper)
        kind = "negative" if np.isfinite(fault) else "non-finite"
        bad, message = (i, j, fault), f"{kind} weight {fault} on edge ({i}, {j})"
    pairs = data.draw(st.lists(upper.filter(lambda e: e != bad[:2]),
                               unique=True, max_size=12))
    edges = [(i, j, data.draw(st.floats(0.5, 8.0))) for i, j in pairs]
    edges.insert(data.draw(st.integers(0, len(edges))), bad)
    W = np.zeros((n, n))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    for build in (lambda: build_graph(edges, n), lambda: Graph(W),
                  lambda: Graph(sp.coo_array(W))):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message


def _loop_signs(vectors):
    """The column loop the sign convention was written as: the first entry
    above 1e-12 in magnitude of each column is made positive."""
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            vectors[:, j] = -col
    return vectors


@pytest.mark.parametrize("g", [
    knn_sensor_graph(200, 8, seed=1), knn_sensor_graph(400, 10, seed=2),
    ring_graph(16), grid2d_graph(6, 6), build_graph([], 5), build_graph([], 0),
], ids=["knn200", "knn400", "ring16", "grid6x6", "edgeless5", "empty"])
def test_sign_convention_matches_the_column_loop(g):
    """Rings and grids have repeated eigenvalues; the edgeless graph's
    eigenvectors are unit vectors, the empty graph has none."""
    raw = np.linalg.eigh(g.laplacian_dense())[1]
    vectors = eigendecompose(g).vectors
    assert vectors.tobytes() == _loop_signs(raw).tobytes()  # bitwise, -0.0 too


@pytest.fixture
def counted_eig(monkeypatch):
    """Counts the decompositions made, each as its graph's vertex count."""
    calls = []

    def counted(g, cap=graphs.DEFAULT_EIG_CAP):
        calls.append(g.N)
        return real(g, cap=cap)

    real = graphs.eigendecompose
    monkeypatch.setattr(graphs, "eigendecompose", counted)
    return calls


def test_twins_share_one_eigensystem_and_operators(counted_eig):
    g = knn_sensor_graph(60, 5, seed=4)
    twins = [graphs._twin(g), graphs._twin(g, coords=g.coords + 1.0)]
    eig = twins[0].eigensystem()
    assert twins[1].eigensystem() is eig and g.eigensystem() is eig
    assert counted_eig == [60]
    steps = [h._operator("step") for h in (g, *twins)]
    assert all(a is b for step in steps[1:] for a, b in zip(step, steps[0]))
    assert np.array_equal(eig.vectors, eigendecompose(g).vectors)


def test_graphs_built_separately_each_decompose(counted_eig):
    """Equal edges are no longer looked up across graphs: each graph that
    is not a twin of another decomposes its own Laplacian."""
    base = knn_sensor_graph(60, 5, seed=4)
    src, dst, w = base.edges()
    edges = np.column_stack((src, dst, w))
    first = build_graph(edges, 60).eigensystem()
    second = build_graph(edges[::-1], 60).eigensystem()  # other order
    third = Graph(base.W).eigensystem()
    assert counted_eig == [60, 60, 60]
    assert first is not second and second is not third
    for eig in (second, third):
        assert eig.vectors.tobytes() == first.vectors.tobytes()


def test_cap_is_enforced_on_every_call(counted_eig):
    """Also on a twin whose origin already holds an eigensystem."""
    g = ring_graph(12)
    eig = g.eigensystem()
    twin = graphs._twin(g)
    for h in (twin, g):
        with pytest.raises(EigendecompositionCapError, match="fast path"):
            h.eigensystem(cap=11)
    assert twin.eigensystem(cap=12) is eig and counted_eig == [12]


def test_shared_eigensystem_and_csr_arrays_are_read_only(counted_eig):
    g = ring_graph(8)
    twin = graphs._twin(g)
    eig = twin.eigensystem()
    assert g.eigensystem() is eig
    with pytest.raises(ValueError, match="read-only"):
        eig.vectors[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        eig.values *= 2
    for a in (g._indptr, g._indices, g._data, twin.W.data):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert np.array_equal(eig.vectors, eigendecompose(ring_graph(8)).vectors)
