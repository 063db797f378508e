"""Quadrature rules on the reference n-simplex, exact to a requested degree.

Degrees 0-1 use the centroid.  Higher degrees are collapsed Gauss-Jacobi
product rules: positive weights, any dimension, exactness guaranteed by
construction.  The one-dimensional Gauss-Jacobi rules are computed here, in
numpy (``_gauss_jacobi``), so that the package never imports
``scipy.special``.  Points are stored as barycentric coordinates with respect to
the cell vertex order; weights sum to the reference-simplex volume 1/n!.  A
facet of an n-simplex takes the (n-1)-dimensional rule, in the facet's own
vertex order.

Whole-mesh samples are taken a block of cells at a time: ``cell_blocks``
cuts the cells into consecutive slices, each small enough that one
(cells, width) float array of the block stays within ``BLOCK_BYTES``.  The
point maps and the weights take such a slice (all cells by default), and
each caller reduces a block to per-cell results before the next block is
sampled.  A per-cell result does not depend on the block it was computed
in, so blocking leaves every result bitwise as it is.  ``cell_blocks`` also
bounds the mesh build (``mesh.SimplexMesh``) and the facet averages of
``assembly.sampled_facet_averages``, in blocks of cells or of facets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 30
BLOCK_BYTES = 2 ** 21      # bytes of one (cells, width) float temporary of a cell block


class QuadratureError(ValueError):
    """Raised for unsupported dimension/degree requests."""


@dataclass(frozen=True)
class QuadratureRule:
    dim: int
    exact_degree: int
    points: np.ndarray    # (Q, dim+1) barycentric
    weights: np.ndarray   # (Q,), positive, summing to 1/dim!

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def n_points(self):
        return len(self.weights)


def _gauss_jacobi(k, alpha):
    """The k-point Gauss rule for int_-1^1 (1-t)^alpha f(t) dt, exact to
    degree 2k-1: (nodes ascending, weights).

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the orthonormal Jacobi polynomials p_j (weight
    (1-t)^alpha (1+t)^0), polished by one Newton step on p_k, evaluated
    with p_k' by the three-term recurrence.  Each weight is the Christoffel
    number 1 / sum_{j<k} p_j(t)^2, a sum of positive terms.  Against a
    60-digit evaluation of the same recurrence, for k <= 16 and
    alpha <= 3, the nodes are within 0.6 eps and the weights within 12 ulps
    of the largest weight (``scipy.special.roots_jacobi``: 1.4 eps and
    380 ulps)."""
    j = np.arange(1, k + 1, dtype=float)
    s = 2.0 * j + alpha
    diagonal = np.concatenate([[-alpha / (alpha + 2.0)],
                               -alpha ** 2 / (s[:-1] * (s[:-1] + 2.0))])
    off = 2.0 * j * (j + alpha) / (s * np.sqrt(s * s - 1.0))     # off[j-1] couples p_j-1, p_j
    mu0 = 2.0 ** (alpha + 1) / (alpha + 1)                      # int_-1^1 (1-t)^alpha

    def recurrence(t):
        """p_k(t), p_k'(t) and sum_{j<k} p_j(t)^2."""
        p_old, p = np.zeros_like(t), np.full_like(t, 1.0 / np.sqrt(mu0))
        d_old, d = np.zeros_like(t), np.zeros_like(t)
        total = np.zeros_like(t)
        for i in range(k):
            total += p * p
            back = off[i - 1] if i else 0.0
            p_old, p, d_old, d = (p, ((t - diagonal[i]) * p - back * p_old) / off[i],
                                  d, (p + (t - diagonal[i]) * d - back * d_old) / off[i])
        return p, d, total

    t = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    p, d, _ = recurrence(t)
    t -= p / d
    return t, 1.0 / recurrence(t)[2]


def _gauss_jacobi_01(k, alpha):
    """Nodes/weights for int_0^1 (1-u)^alpha f(u) du, exact to degree 2k-1."""
    t, w = _gauss_jacobi(k, alpha)
    return (t + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def _collapsed_rule(dim, degree):
    k = (degree + 2) // 2
    axes = [_gauss_jacobi_01(k, dim - 1 - j) for j in range(dim)]
    grids_u = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    grids_w = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    u = np.stack([g.ravel() for g in grids_u], axis=1)      # (Q, dim)
    w = np.prod(np.stack([g.ravel() for g in grids_w], axis=1), axis=1)
    x = np.empty_like(u)
    shrink = np.ones(len(u))
    for j in range(dim):
        x[:, j] = u[:, j] * shrink
        shrink = shrink * (1.0 - u[:, j])
    return x, w


def rule_for_degree(dim, degree):
    """A rule on the reference ``dim``-simplex exact for polynomials of total
    degree <= ``degree``.  Rules are built once per (dim, degree) and shared:
    a ``QuadratureRule`` is frozen and its arrays are read-only.

    Raises QuadratureError for dim < 1 or degree outside [0, 30].
    """
    dim, degree = int(dim), int(degree)
    if dim < 1:
        raise QuadratureError(f"dimension must be >= 1, got {dim}")
    if not 0 <= degree <= MAX_DEGREE:
        raise QuadratureError(f"degree {degree} outside supported range [0, {MAX_DEGREE}]")
    return _rule(dim, degree)


@functools.cache
def _rule(dim, degree):
    vol = 1.0 / math.factorial(dim)
    if degree <= 1:
        points = np.full((1, dim + 1), 1.0 / (dim + 1))
        return QuadratureRule(dim, 1, points, np.array([vol]))
    x, w = _collapsed_rule(dim, degree)
    bary = np.column_stack([1.0 - x.sum(axis=1), x])
    return QuadratureRule(dim, degree, bary, w)


def cell_blocks(n_cells, width):
    """Consecutive slices covering range(n_cells), each of as many cells as
    keep a (cells, width) float array within ``BLOCK_BYTES``, and at least
    one cell."""
    size = max(1, BLOCK_BYTES // (8 * width))
    for start in range(0, n_cells, size):
        yield slice(start, min(start + size, n_cells))


def physical_points(mesh, bary, cells=slice(None)):
    """Map barycentric points (Q, n+1) to physical points on the cells
    ``cells`` (a slice, all by default), returning (nc, Q, n)."""
    return np.asarray(bary) @ mesh.vertices[mesh.cells[cells]]


def centred_points(mesh, bary, cells=slice(None)):
    """x - mid K at barycentric points (Q, n+1) on the cells ``cells``:
    (nc, Q, n), as sum_k lam_k (a_k - mid K) over the vertices a_k of K.  At
    the vertices (``bary`` the identity) these are the vertex offsets."""
    return np.asarray(bary) @ (mesh.vertices[mesh.cells[cells]]
                               - mesh.cell_centroids[cells, None])


def cell_weights(mesh, rule, cells=slice(None)):
    """Physical quadrature weights (nc, Q) on the cells ``cells``:
    n! * |K| * w_q."""
    return math.factorial(mesh.dim) * np.multiply.outer(mesh.cell_measures[cells], rule.weights)


def integrate_cellwise(mesh, values, rule, cells=slice(None)):
    """Integral over each cell of ``cells`` of sampled values (nc, Q, ...)
    -> (nc, ...)."""
    w = cell_weights(mesh, rule, cells)
    return np.einsum("cq,cq...->c...", w, values)
