"""Weighted undirected graphs, Laplacians, and synthetic generators.

A :class:`Graph` stores its weight matrix as numpy CSR arrays, from which
it derives the degrees, a cheap upper bound on the largest Laplacian
eigenvalue, the edge list, the connected components and the dense
Laplacian ``L = D - W`` handed to the eigendecomposition. Graphs are
immutable after construction and safe to share across threads. What a
graph derives from its CSR arrays on first use (the eigensystem, the
sparse operators, the edge list, ``W`` and ``L``) it keeps in one cache
dict, which the graphs :func:`_twin` builds over the same arrays share:
they decompose the Laplacian once between them.

No scipy package is imported at module level, and the generators and
the component count use numpy alone. Every sparse product of the package
(the Chebyshev recurrences, the heat steps, ``inpaint``'s incidence
operator, :func:`~tvgsp.transforms.joint_laplacian_apply`) is one private
CSR product on operators a graph builds from its own arrays and caches:
scipy's compiled kernel module ``scipy.sparse._sparsetools``, loaded from
its extension file under its own name, which runs no ``scipy`` package
``__init__``, with the dispatch of ``scipy.sparse.csr_array @`` so that
results are bit for bit scipy's. Where that file cannot be loaded alone,
``import scipy.sparse`` loads the module, and the products are still its
kernels', byte for byte. ``scipy.sparse`` is also imported by ``Graph.W``,
``Graph.L`` and ``Graph(weights)``. A process that generates graphs or
works on the eigenbasis alone loads no scipy module, and one on the
Chebyshev or solver paths loads the kernel module alone.
"""

import os
import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

from .errors import EigendecompositionCapError, ValidationError
from .rng import _seed, default_rng
from .transforms import _number

#: Largest vertex count accepted by the dense eigendecomposition path.
DEFAULT_EIG_CAP = 4096


@dataclass(frozen=True)
class GraphEigensystem:
    """Eigendecomposition of a graph Laplacian.

    ``values`` is nondecreasing with ``values[0] == 0`` (up to rounding) and
    ``vectors`` is orthonormal with columns following the
    first-nonzero-entry-positive sign convention. Both are read-only when
    they come from :func:`eigendecompose`.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]


def _canonical_csr(rows, cols, vals, n, n_col=None):
    """CSR arrays ``(indptr, indices, data)`` of the n x n (or n x n_col)
    matrix with COO entries ``(rows, cols, vals)``: entries sorted by row
    then column, duplicates summed in input order, zeros dropped, int64
    indices."""
    n_col = n if n_col is None else n_col
    key = np.asarray(rows, np.int64) * n_col + np.asarray(cols, np.int64)
    order = np.argsort(key, kind="stable")  # equal keys keep input order
    key = key[order]
    first = np.ones(key.size, bool)
    first[1:] = key[1:] != key[:-1]
    # bincount adds in index order, as a loop over the entries would; it
    # returns int64 when there are no entries
    sums = np.bincount(np.cumsum(first) - 1,
                       weights=np.asarray(vals, float)[order]).astype(float)
    keep = sums != 0
    row, col = np.divmod(key[first][keep], max(n_col, 1))
    return np.searchsorted(row, np.arange(n + 1)), col, sums[keep]


def _row_ids(indptr):
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _check_entries(i, j, w, n):
    """The weight contract of every graph on the entries ``(i, j, w)`` of its
    n x n weight matrix: ids in ``[0, n)``, no self-loop, finite nonnegative
    weights. The error names the first bad id, else the first bad weight."""
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
        raise ValidationError(f"{kind} weight {w[k]} on edge ({i[k]}, {j[k]})")


#: scipy's compiled sparse kernels, under the name scipy gives them.
_KERNELS = "scipy.sparse._sparsetools"


def _kernels():
    """The kernel module. It is taken from ``sys.modules`` when already
    loaded (by scipy, or by an earlier call), else loaded from its
    extension file and registered under its own name, so a later ``import
    scipy.sparse`` uses it too. Where that load fails, ``import
    scipy.sparse`` loads the module."""
    module = sys.modules.get(_KERNELS)
    if module is not None:
        return module
    try:
        scipy_dir = util.find_spec("scipy").submodule_search_locations[0]
        base = os.path.join(scipy_dir, "sparse", "_sparsetools")
        path = next(base + suffix for suffix in machinery.EXTENSION_SUFFIXES
                    if os.path.isfile(base + suffix))
        # looked up on each call, so that a patched loader class applies
        loader = machinery.ExtensionFileLoader(_KERNELS, path)
        module = util.module_from_spec(
            util.spec_from_file_location(_KERNELS, path, loader=loader))
        loader.exec_module(module)
    except Exception:  # whatever failed, scipy's own import remains
        import scipy.sparse  # loads the kernel module with the package
        return sys.modules[_KERNELS]
    return sys.modules.setdefault(_KERNELS, module)


class Graph:
    """Undirected weighted graph with cached Laplacian.

    The weights live in numpy CSR arrays. ``W`` and ``L`` are the weight
    matrix and the combinatorial Laplacian as ``scipy.sparse.csr_array``
    (``W`` shares the graph's arrays). :meth:`laplacian_dense`,
    :meth:`edges`, :meth:`num_components` and the sparse products of the
    package work on the arrays, without ``scipy.sparse``. ``W``, ``L``,
    :meth:`edges`, :meth:`eigensystem` and the sparse operators are each
    built on first use and kept in the dict ``_cache``, which holds only
    what the CSR arrays determine, so graphs over the same arrays may share
    it (threads racing on first use build the same value twice).

    Parameters
    ----------
    weights : scipy.sparse matrix or array_like
        Symmetric N x N weight matrix, read by ``scipy.sparse.coo_array``
        as float64 weights. Duplicate entries are summed, then held to the
        weight contract of :func:`build_graph`.
    coords : ndarray, optional
        N x d vertex coordinates (used by generators and source
        localization).
    """

    def __init__(self, weights, coords=None):
        import scipy.sparse as sp  # deferred: build_graph does not need it
        W = sp.coo_array(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValidationError("weight matrix must be square")
        n = W.shape[0]
        csr = _canonical_csr(W.row, W.col, W.data, n)
        _check_entries(_row_ids(csr[0]), csr[1], csr[2], n)
        transposed = _canonical_csr(W.col, W.row, W.data, n)
        if not all(map(np.array_equal, csr, transposed)):
            raise ValidationError("weight matrix must be symmetric")
        self._setup(csr, coords)

    @classmethod
    def _from_csr(cls, csr, coords=None):
        """The graph of canonical CSR arrays (see :func:`_canonical_csr`)
        of a weight matrix that is valid by construction."""
        g = cls.__new__(cls)
        g._setup(csr, coords)
        return g

    def _setup(self, csr, coords):
        indptr, indices, data = csr
        self.N = indptr.size - 1
        self._indptr, self._indices, self._data = indptr, indices, data
        # reduceat over the rows adds as W.sum(axis=1) does, bit for bit
        nonempty = np.flatnonzero(np.diff(indptr))
        self.degrees = np.zeros(self.N)
        self.degrees[nonempty] = np.add.reduceat(data, indptr[nonempty])
        self.lmax = estimate_lambda_max(self)
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        if self.coords is not None and self.coords.shape[0] != self.N:
            raise ValidationError("coords must have one row per vertex")
        if self.coords is not None and not np.isfinite(self.coords).all():
            raise ValidationError("coords contain NaN or Inf entries")
        self._cache = {}

    @property
    def W(self):
        """Weight matrix (``scipy.sparse.csr_array``, int64 indices)."""
        if "W" not in self._cache:
            import scipy.sparse as sp  # deferred: first sparse use
            self._cache["W"] = sp.csr_array(
                (self._data, self._indices, self._indptr),
                shape=(self.N, self.N))
        return self._cache["W"]

    @property
    def L(self):
        """Combinatorial Laplacian ``D - W`` (``scipy.sparse.csr_array``)."""
        if "L" not in self._cache:
            import scipy.sparse as sp  # deferred: first sparse use
            self._cache["L"] = sp.csr_array(sp.diags(self.degrees) - self.W)
        return self._cache["L"]

    def _operator(self, op):
        """CSR arrays ``(indptr, indices, data, n_col)`` of the operator
        ``op``, built on first use and cached in ``_cache["csr"]``: ``"L"``,
        the Laplacian; ``"step"``, the Chebyshev step ``(4 / lmax) L - 2 I``
        (a graph with edges only); ``"B"``, the incidence operator of
        :func:`~tvgsp.transforms.graph_incidence`, and ``"BT"``, its
        transpose. Each is built whole, then stored. As in scipy's sums,
        the entries that come out zero are not stored: on the step
        operator's diagonal ``(4 / lmax) d - 2`` that is every vertex of
        maximum degree."""
        ops = self._cache.setdefault("csr", {})
        if op not in ops:
            n = self.N
            if op in ("B", "BT"):
                src, dst, w = self.edges()
                m, root = src.size, np.sqrt(w)
                edge = np.repeat(np.arange(m), 2)
                ends = np.column_stack((src, dst)).ravel()
                vals = np.column_stack((root, -root)).ravel()
                built = {"B": (*_canonical_csr(edge, ends, vals, m, n), n),
                         "BT": (*_canonical_csr(ends, edge, vals, n, m), m)}
            else:
                # scale * L - shift * I, each entry computed as scipy
                # computes (4 / lmax) * L - 2 * I
                scale, shift = (1.0, 0.0) if op == "L" else (4.0 / self.lmax,
                                                              2.0)
                ids = np.arange(n)
                built = {op: (*_canonical_csr(
                    np.concatenate((_row_ids(self._indptr), ids)),
                    np.concatenate((self._indices, ids)),
                    np.concatenate((scale * -self._data,
                                    scale * self.degrees - shift)), n), n)}
            ops.update(built)
        return ops[op]

    def _matmul(self, op, V, out=None):
        """``A @ V`` for the operator ``A`` named ``op`` (see
        :meth:`_operator`) and a 1-D or 2-D ``V``, bit for bit
        ``scipy.sparse.csr_array @``: a float64 ``V`` goes to ``csr_matvec``
        when it is one column and to ``csr_matvecs`` otherwise, into a
        zero-filled output; a complex ``V`` is multiplied through its
        float64 view, so ``A`` is never upcast. The kernels check nothing,
        so the shape is checked and ``V`` made a C-contiguous float64
        here; the operator's arrays all have int64 indices. Every product
        runs these kernels, whichever way :func:`_kernels` loaded them.

        With ``out``, a C-contiguous array of the product's shape and of
        ``V``'s type (complex128 or float64), the product is added into
        ``out`` (the kernels add into their output), which is returned:
        ``out + A @ V``, up to the order of the sums."""
        indptr, indices, data, n_col = self._operator(op)
        V = np.asarray(V)
        if V.ndim not in (1, 2) or V.shape[0] != n_col:
            raise ValueError(f"matmul: dimension mismatch, {n_col} columns "
                             f"times operand of shape {V.shape}")
        shape, n_row, cplx = V.shape, indptr.size - 1, np.iscomplexobj(V)
        if cplx:
            V = np.ascontiguousarray(V[:, None] if V.ndim == 1 else V,
                                     np.complex128).view(np.float64)
        else:
            V = np.ascontiguousarray(V, np.float64)
        if out is None:
            Y = np.zeros((n_row,) + V.shape[1:])
        else:
            dtype = np.complex128 if cplx else np.float64
            if (out.shape != (n_row,) + shape[1:] or out.dtype != dtype
                    or not out.flags.c_contiguous):
                raise ValueError(f"matmul: output must be a C-contiguous "
                                 f"{np.dtype(dtype)} array of shape "
                                 f"{(n_row,) + shape[1:]}")
            Y = out.view(np.float64).reshape((n_row,) + V.shape[1:])
        kernels = _kernels()
        if V.ndim == 1 or V.shape[1] == 1:
            kernels.csr_matvec(n_row, n_col, indptr, indices, data,
                               V.ravel(), Y.ravel())
        else:
            kernels.csr_matvecs(n_row, n_col, V.shape[1], indptr, indices,
                                data, V.ravel(), Y.ravel())
        if out is not None:
            return out
        if cplx:
            Y = Y.view(np.complex128).reshape((n_row,) + shape[1:])
        return Y

    def laplacian_dense(self):
        """``D - W`` as a new dense array, equal to ``L.toarray()``."""
        L = np.zeros((self.N, self.N))
        L[_row_ids(self._indptr), self._indices] = -self._data
        L.flat[::self.N + 1] = self.degrees
        return L

    @property
    def num_edges(self):
        return self._data.size // 2

    def edges(self):
        """Return (src, dst, weight) arrays, one entry per undirected edge.

        Edges are ordered lexicographically with ``src < dst`` so that
        gradient rows are reproducible across runs.
        """
        if "edges" not in self._cache:
            rows = _row_ids(self._indptr)
            upper = self._indices > rows
            self._cache["edges"] = (rows[upper], self._indices[upper],
                                    self._data[upper])
        return self._cache["edges"]

    def eigensystem(self, cap=DEFAULT_EIG_CAP):
        """Dense eigendecomposition by :func:`eigendecompose`, computed on
        first use and cached; ``cap`` is enforced on every call."""
        _check_cap(self, cap)
        if "eigensystem" not in self._cache:
            self._cache["eigensystem"] = eigendecompose(self, cap=cap)
        return self._cache["eigensystem"]

    def num_components(self):
        """Number of connected components; an isolated vertex is one.

        Min-label hooking with pointer jumping over the CSR arrays: every
        tree root adopts the smallest root adjacent to its tree, then every
        vertex jumps to its root, until each edge joins two vertices of one
        tree. Labels only decrease, so the trees stay acyclic, and each
        round that finds a crossing edge removes at least one root.
        """
        rows, cols = _row_ids(self._indptr), self._indices
        label = np.arange(self.N)
        while True:
            while not np.array_equal(up := label[label], label):
                label = up
            lu, lv = label[rows], label[cols]
            if np.array_equal(lu, lv):
                return int(np.count_nonzero(label == np.arange(self.N)))
            np.minimum.at(label, lu, lv)  # both directions are stored

    def is_connected(self):
        """Whether the graph has one connected component (True for N <= 1)."""
        return self.num_components() <= 1


def build_graph(edge_list, num_vertices, coords=None):
    """Build a :class:`Graph` from an (E, 3) array of ``(src, dst, weight)``
    rows, or anything ``np.asarray`` turns into one, such as a list of triples.

    Duplicate undirected edges are merged by summing their weights in list
    order. Self-loops and negative or non-finite weights are rejected.
    """
    n = int(num_vertices)
    if n < 0:
        raise ValidationError("num_vertices must be nonnegative")
    edges = np.asarray(edge_list, dtype=float).reshape(len(edge_list), 3)
    (i, j), w = edges[:, :2].astype(np.int64).T, edges[:, 2]
    _check_entries(i, j, w, n)
    # both directions with the same weights, summed in list order: the
    # matrix is symmetric, without self-loops or negative weights
    ij = np.column_stack((i, j))
    return Graph._from_csr(_canonical_csr(ij.ravel(), ij[:, ::-1].ravel(),
                                          np.repeat(w, 2), n), coords=coords)


def _twin(g, coords=None):
    """A new graph over the CSR arrays of ``g``, made read-only because
    both graphs hold them, with ``coords``. It shares ``g``'s cache, so the
    two decompose their Laplacian and build each operator once between
    them."""
    csr = (g._indptr, g._indices, g._data)
    for a in csr:
        a.flags.writeable = False
    twin = Graph._from_csr(csr, coords=coords)
    twin._cache = g._cache
    return twin


def estimate_lambda_max(g):
    """Upper bound ``2 * max(degree)`` on the largest Laplacian eigenvalue:
    cheap and always valid, 0 for a graph without edges."""
    return float(2.0 * g.degrees.max()) if g.num_edges else 0.0


def eigendecompose(g, cap=DEFAULT_EIG_CAP):
    """Full eigendecomposition of the graph Laplacian.

    Eigenvalues are sorted ascending and clipped at zero (the Laplacian is
    positive semidefinite; tiny negative values are rounding noise). Both
    arrays are read-only. Raises when the graph exceeds ``cap`` vertices,
    directing callers to the Chebyshev fast path that needs no
    decomposition. Caches nothing: :meth:`Graph.eigensystem` does.
    """
    _check_cap(g, cap)
    values, vectors = np.linalg.eigh(g.laplacian_dense())
    values = np.maximum(values, 0.0)
    # Sign convention: first entry above rounding noise is made positive so
    # spectra are reproducible across runs and platforms.
    if vectors.size:
        big = np.abs(vectors) > 1e-12
        first, cols = big.argmax(axis=0), np.arange(vectors.shape[1])
        flip = big[first, cols] & (vectors[first, cols] < 0)
        vectors *= np.where(flip, -1.0, 1.0)  # exact: a sign flip or a no-op
    # shared through the cache: a write in place would reach other graphs
    values.flags.writeable = vectors.flags.writeable = False
    return GraphEigensystem(values=values, vectors=vectors)


def _check_cap(g, cap):
    if g.N > cap:
        raise EigendecompositionCapError(
            f"graph has {g.N} > {cap} vertices; use the Chebyshev fast path "
            "(filter_ffc) which only needs the lambda_max bound"
        )


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


def _offsets(sizes):
    """``0, 1, ..., s - 1`` for each ``s`` of ``sizes``, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _nearest(xy, rows, block, group, m):
    """Squared distances and indices of the ``m`` nearest candidates of the
    points ``rows``, nearest first, equal distances by index.

    The candidates of ``rows[r]`` are the row ``group[r]`` of ``block``, an
    index array of at least ``m`` columns into ``xy``, the coordinates as
    (2, n + 1) with a last point at infinity that pads ``block``. A squared
    distance is ``dx*dx + dy*dy``, the sum ``cKDTree`` forms.
    """
    bx, by = xy[:, block]
    dx = bx[group] - xy[0, rows, None]
    dy = by[group] - xy[1, rows, None]
    d2 = dx * dx + dy * dy
    near = np.argpartition(d2, m - 1, axis=1)[:, :m]
    # sorted by index, then stably by distance: a lexsort, but faster
    near = np.take_along_axis(
        near, np.argsort(block[group[:, None], near], axis=1), 1)
    d2 = np.take_along_axis(d2, near, 1)
    order = np.argsort(d2, axis=1, kind="stable")
    near = np.take_along_axis(near, order, 1)
    return np.take_along_axis(d2, order, 1), block[group[:, None], near]


def _knn(pts, m):
    """Squared distances and indices of the ``m`` nearest of the (n, 2)
    points ``pts`` in the unit square to each of them, itself included, as
    ``cKDTree(pts).query(pts, m)`` gives them before its square root.

    The points are bucketed into a G x G grid of about ``0.6 m + 2`` points
    per cell, and each is searched among the points of its 3 x 3 block of
    cells. A point is certified when its m-th squared distance lies
    strictly below the squared distance to the nearest edge of its block
    that has points beyond it (less 1e-12, for the rounding of the cell
    assignment); the rest are searched again among all points.
    """
    n = pts.shape[0]
    G = max(1, int(np.sqrt(n / (0.6 * m + 2))))
    cxy = np.minimum((pts * G).astype(np.int64), G - 1)
    cell = cxy[:, 1] * G + cxy[:, 0]
    order = np.argsort(cell, kind="stable")
    start = np.searchsorted(cell[order], np.arange(G * G + 1))
    # a cell's block is three runs of the cell-sorted points, one per grid
    # row; they fill a row of ``block`` one after another, padded with n
    cy, cx = np.divmod(np.arange(G * G), G)
    first, size = [], []
    for ry in (cy - 1, cy, cy + 1):
        row = np.clip(ry, 0, G - 1) * G
        a = start[row + np.maximum(cx - 1, 0)]
        b = start[row + np.minimum(cx + 1, G - 1) + 1]
        first.append(a)
        size.append(np.where((ry >= 0) & (ry < G), b - a, 0))
    runs, count = np.column_stack(size).ravel(), sum(size)
    pos = np.repeat(np.column_stack(first).ravel(), runs) + _offsets(runs)
    block = np.full((G * G, max(count.max(), m)), n)
    block[np.repeat(np.arange(G * G), count), _offsets(count)] = order[pos]
    xy = np.full((2, n + 1), np.inf)
    xy[:, :n] = pts.T
    d2, idx = _nearest(xy, np.arange(n), block, cell, m)
    below = np.where(cxy >= 2, pts - (cxy - 1) / G, np.inf)
    above = np.where(cxy <= G - 3, (cxy + 2) / G - pts, np.inf)
    margin = np.minimum(below, above).min(1) - 1e-12
    redo = np.flatnonzero(~(d2[:, -1] < margin * margin))
    step = max(1, 2 ** 20 // n)  # bounds the (rows, n) arrays to 2^20 entries
    for s in range(0, redo.size, step):
        rows = redo[s:s + step]
        d2[rows], idx[rows] = _nearest(xy, rows, np.arange(n)[None],
                                       np.zeros_like(rows), m)
    return d2, idx


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
    d2, idx = _knn(pts, k + 1)
    dist, idx = np.sqrt(d2[:, 1:]), idx[:, 1:]  # drop self-match
    if sigma is None:
        sigma = float(dist[:, -1].mean())
    if _number("sigma", sigma) <= 0:
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


#: kind -> (generator, parameter names); the one table of graph kinds. ``p``
#: and ``sigma`` are finite floats, the others positive ints (``seed`` an int
#: >= 0, never rounded through a float); a value of None counts as unset.
_KINDS = {
    "path": (path_graph, ("n",)),
    "ring": (ring_graph, ("n",)),
    "grid2d": (grid2d_graph, ("rows", "cols")),
    "knn_sensor": (knn_sensor_graph, ("n", "k", "sigma", "seed")),
    "erdos_renyi": (erdos_renyi_graph, ("n", "p", "seed")),
}


def generate_graph(kind, params=None, rng_seed=0):
    """The graph of the generator of ``kind`` (see :data:`_KINDS`) with the
    arguments ``params`` (``sigma`` optional); ``seed`` is ``rng_seed``."""
    if kind not in _KINDS:
        raise ValidationError(f"unknown graph kind '{kind}'")
    generator, names = _KINDS[kind]
    params = {key: value for key, value in (params or {}).items()
              if value is not None} | {"seed": _seed(rng_seed)}
    for key in params:
        if key not in names and key != "seed":
            raise ValidationError(f"{kind} graph takes no parameter '{key}'")
    for key in names:
        if key not in params and key != "sigma":
            raise ValidationError(f"{kind} graph misses parameter '{key}'")
    return generator(**{
        key: value if key == "seed" else _number(
            key, value, integer=key not in ("p", "sigma"))
        for key, value in params.items() if key in names})
