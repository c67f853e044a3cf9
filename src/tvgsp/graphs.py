"""Weighted undirected graphs, Laplacians, and synthetic generators.

The :class:`Graph` owns the combinatorial Laplacian ``L = D - W`` and a
cheap upper bound on its largest eigenvalue; the dense eigendecomposition
is computed lazily and cached. Graphs are immutable after construction
and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import EigendecompositionCapError, ValidationError
from .rng import default_rng

#: Largest vertex count accepted by the dense eigendecomposition path.
DEFAULT_EIG_CAP = 4096


@dataclass(frozen=True)
class GraphEigensystem:
    """Eigendecomposition of a graph Laplacian.

    ``values`` is nondecreasing with ``values[0] == 0`` (up to rounding) and
    ``vectors`` is orthonormal with columns following the
    first-nonzero-entry-positive sign convention.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]


class Graph:
    """Undirected weighted graph with cached Laplacian.

    Parameters
    ----------
    weights : scipy.sparse matrix
        Symmetric nonnegative N x N weight matrix with zero diagonal.
    coords : ndarray, optional
        N x d vertex coordinates (used by generators and source
        localization).
    """

    def __init__(self, weights, coords=None):
        W = sp.csr_array(weights)
        if W.shape[0] != W.shape[1]:
            raise ValidationError("weight matrix must be square")
        W.eliminate_zeros()
        if (W != W.T).nnz:
            raise ValidationError("weight matrix must be symmetric")
        if W.diagonal().any():
            raise ValidationError("self-loops are not supported")
        if W.nnz and W.data.min() < 0:
            raise ValidationError("edge weights must be nonnegative")
        self.W = W
        self.N = W.shape[0]
        self.degrees = np.asarray(W.sum(axis=1)).ravel()
        self.L = sp.csr_array(sp.diags(self.degrees) - W)
        self.lmax = estimate_lambda_max(self)
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        if self.coords is not None and self.coords.shape[0] != self.N:
            raise ValidationError("coords must have one row per vertex")
        if self.coords is not None and not np.isfinite(self.coords).all():
            raise ValidationError("coords contain NaN or Inf entries")
        self._eigensystem = None
        self._edges = None

    @property
    def num_edges(self):
        return self.W.nnz // 2

    def edges(self):
        """Return (src, dst, weight) arrays, one entry per undirected edge.

        Edges are ordered lexicographically with ``src < dst`` so that
        gradient rows are reproducible across runs.
        """
        if self._edges is None:
            coo = sp.triu(self.W, k=1).tocoo()
            order = np.lexsort((coo.col, coo.row))
            self._edges = (coo.row[order], coo.col[order], coo.data[order])
        return self._edges

    def eigensystem(self, cap=DEFAULT_EIG_CAP):
        """Dense eigendecomposition, computed once and cached."""
        if self._eigensystem is None:
            self._eigensystem = eigendecompose(self, cap=cap)
        return self._eigensystem

    def is_connected(self):
        """Whether the graph has one connected component (True for N <= 1)."""
        if self.N == 0:
            return True
        # imported here: scipy.sparse.csgraph adds ~1 MB of memory and
        # ~4 ms to any process importing it, and only graph-gen asks this
        from scipy.sparse.csgraph import connected_components
        return bool(connected_components(self.W, directed=False)[0] == 1)


def build_graph(edge_list, num_vertices, coords=None):
    """Build a :class:`Graph` from an (E, 3) array of ``(src, dst, weight)``
    rows, or anything ``np.asarray`` turns into one, such as a list of triples.

    Duplicate undirected edges are merged by summing their weights.
    Self-loops and negative or non-finite weights are rejected.
    """
    n = int(num_vertices)
    if n < 0:
        raise ValidationError("num_vertices must be nonnegative")
    edges = np.asarray(edge_list, dtype=float).reshape(len(edge_list), 3)
    (i, j), w = edges[:, :2].astype(np.int64).T, edges[:, 2]
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j))
    if bad.size:
        k = bad[0]
        if i[k] == j[k] and 0 <= i[k] < n:
            raise ValidationError(f"self-loop at vertex {i[k]} rejected")
        raise ValidationError(f"vertex id out of range: ({i[k]}, {j[k]}) with N={n}")
    bad = np.flatnonzero(~((w >= 0) & (w < np.inf)))  # < 0, NaN, inf
    if bad.size:
        k = bad[0]
        kind = "negative" if np.isfinite(w[k]) else "non-finite"
        raise ValidationError(
            f"{kind} weight {w[k]} on edge ({i[k]}, {j[k]})")
    ij = np.column_stack((i, j))  # both directions, summed in list order
    W = sp.coo_array((np.repeat(w, 2), (ij.ravel(), ij[:, ::-1].ravel())),
                     shape=(n, n)).tocsr()
    return Graph(W, coords=coords)


def estimate_lambda_max(g, refine=False):
    """Upper bound on the largest Laplacian eigenvalue.

    The default bound is ``2 * max(degree)``, which is cheap and always
    valid. With ``refine=True`` the dominant eigenvalue is computed by a
    seeded Lanczos iteration (dense for tiny graphs) and inflated by 1% to
    stay an upper bound; the degree bound caps the result.
    """
    if g.N == 0 or g.W.nnz == 0:
        return 0.0
    bound = 2.0 * g.degrees.max()
    if not refine:
        return float(bound)
    if g.N <= 32:
        est = float(np.linalg.eigvalsh(g.L.toarray())[-1])
    else:
        v0 = default_rng(0).standard_normal(g.N)
        est = float(spla.eigsh(g.L, k=1, which="LA", v0=v0,
                               return_eigenvectors=False)[0])
    return float(min(bound, 1.01 * est))


def eigendecompose(g, cap=DEFAULT_EIG_CAP):
    """Full eigendecomposition of the graph Laplacian.

    Eigenvalues are sorted ascending and clipped at zero (the Laplacian is
    positive semidefinite; tiny negative values are rounding noise). Raises
    when the graph exceeds ``cap`` vertices, directing callers to the
    Chebyshev fast path that needs no decomposition.
    """
    if g.N > cap:
        raise EigendecompositionCapError(
            f"graph has {g.N} > {cap} vertices; use the Chebyshev fast path "
            "(filter_ffc) which only needs the lambda_max bound"
        )
    values, vectors = np.linalg.eigh(g.L.toarray())
    values = np.maximum(values, 0.0)
    # Sign convention: first entry above rounding noise is made positive so
    # spectra are reproducible across runs and platforms.
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            vectors[:, j] = -col
    return GraphEigensystem(values=values, vectors=vectors)


def path_graph(n):
    """Path graph P_n with unit weights."""
    if n < 1:
        raise ValidationError("path graph needs at least one vertex")
    edges = np.column_stack((np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
    coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    return build_graph(edges, n, coords=coords)


def ring_graph(n):
    """Cycle graph with unit weights."""
    if n < 3:
        raise ValidationError("ring graph needs at least three vertices")
    edges = np.column_stack((np.arange(n), np.arange(1, n + 1) % n, np.ones(n)))
    theta = 2 * np.pi * np.arange(n) / n
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return build_graph(edges, n, coords=coords)


def grid2d_graph(rows, cols):
    """rows x cols lattice with 4-neighborhood and unit weights."""
    if rows < 1 or cols < 1:
        raise ValidationError("grid dimensions must be positive")
    n = rows * cols
    v = np.arange(n).reshape(rows, cols)
    src = np.concatenate((v[:, :-1].ravel(), v[:-1].ravel()))  # right, down
    dst = np.concatenate((v[:, 1:].ravel(), v[1:].ravel()))
    edges = np.column_stack((src, dst, np.ones(src.size)))
    rr, cc = np.divmod(np.arange(n), cols)
    coords = np.stack([cc.astype(float), rr.astype(float)], axis=1)
    return build_graph(edges, n, coords=coords)


def knn_sensor_graph(n, k, seed=0, sigma=None):
    """Random sensor graph: uniform points in the unit square, k nearest
    neighbors, Gaussian kernel weights ``exp(-d^2 / (2 sigma^2))``.

    ``sigma`` defaults to the mean distance to the k-th neighbor. The kNN
    relation is symmetrized by keeping an edge when either endpoint selects
    the other.
    """
    if not 1 <= k < n:
        raise ValidationError(f"knn_sensor requires 1 <= k < N (got k={k}, N={n})")
    rng = default_rng(seed)
    pts = rng.random((n, 2))
    tree = cKDTree(pts)
    dist, idx = tree.query(pts, k=k + 1)
    dist, idx = dist[:, 1:], idx[:, 1:]  # drop self-match
    if sigma is None:
        sigma = float(dist[:, -1].mean())
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    # one edge per pair; where both ends pick each other the later row wins
    src = np.repeat(np.arange(n), k)
    lo, hi = np.minimum(src, idx.ravel()), np.maximum(src, idx.ravel())
    last = lo.size - 1 - np.unique((lo * n + hi)[::-1], return_index=True)[1]
    d = dist.ravel()[last]
    w = np.exp(-d * d / (2 * sigma * sigma))
    return build_graph(np.column_stack((lo[last], hi[last], w)), n,
                       coords=pts)


def erdos_renyi_graph(n, p, seed=0):
    """G(n, p) with unit weights."""
    if not 0 <= p <= 1:
        raise ValidationError("edge probability must lie in [0, 1]")
    rng = default_rng(seed)
    # one draw per row of the upper triangle keeps memory linear in n
    hits = [np.flatnonzero(rng.random(n - i - 1) < p) for i in range(n - 1)]
    src = np.repeat(np.arange(len(hits)), [h.size for h in hits])
    dst = src + 1 + np.concatenate([np.empty(0, int), *hits])  # n < 2: none
    edges = np.column_stack((src, dst, np.ones(src.size)))
    return build_graph(edges, n)


def generate_graph(kind, params=None, rng_seed=0):
    """Dispatch to a named generator. ``params`` is a dict of keyword
    arguments specific to ``kind``.
    """
    params = dict(params or {})
    try:
        if kind == "path":
            return path_graph(int(params.pop("n")))
        if kind == "ring":
            return ring_graph(int(params.pop("n")))
        if kind == "grid2d":
            return grid2d_graph(int(params.pop("rows")), int(params.pop("cols")))
        if kind == "knn_sensor":
            return knn_sensor_graph(
                int(params.pop("n")), int(params.pop("k")),
                seed=rng_seed, sigma=params.pop("sigma", None))
        if kind == "erdos_renyi":
            return erdos_renyi_graph(
                int(params.pop("n")), float(params.pop("p")), seed=rng_seed)
    except KeyError as exc:
        raise ValidationError(f"generator '{kind}' misses parameter {exc}") from None
    raise ValidationError(f"unknown graph kind '{kind}'")
