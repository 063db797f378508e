"""Quadrature rules on the reference n-simplex, exact to a requested degree.

Degrees 0-1 use the centroid.  Higher degrees are collapsed Gauss-Jacobi
product rules: positive weights, any dimension, exactness guaranteed by
construction.  Points are stored as barycentric coordinates with respect to
the cell vertex order; weights sum to the reference-simplex volume 1/n!.  A
facet of an n-simplex takes the (n-1)-dimensional rule, in the facet's own
vertex order.

Whole-mesh samples are taken a block of cells at a time: ``cell_blocks``
cuts the cells into consecutive slices, each small enough that one
(cells, width) float array of the block stays within ``BLOCK_BYTES``.  The
point maps and the weights take such a slice (all cells by default), and
each caller reduces a block to per-cell results before the next block is
sampled.  A per-cell result does not depend on the block it was computed
in, so blocking leaves every result bitwise as it is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

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


def _gauss_jacobi_01(k, alpha):
    """Nodes/weights for int_0^1 (1-u)^alpha f(u) du, exact to degree 2k-1."""
    t, w = roots_jacobi(k, alpha, 0.0)
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
