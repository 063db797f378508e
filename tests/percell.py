"""Per-cell geometry and basis evaluation, for tests that check one cell or
one facet at a time against the package's batch arrays.

The basis formulas are the package's own private ones (``elements._cr`` and
friends); only the per-cell plumbing lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from simplexfem import elements
from simplexfem.mesh import MeshError


@dataclass(frozen=True)
class CellGeometry:
    """Geometry of one simplex: measure, centroid, H = sum of squared edge
    lengths, barycentric gradients and the centered second-moment matrix."""

    dim: int
    vertices: np.ndarray          # (n+1, n), cell vertex order
    measure: float
    centroid: np.ndarray          # (n,)
    H: float
    barycentric_gradients: np.ndarray   # (n+1, n)
    second_moment: np.ndarray     # (n, n), integral of (x-mid)(x-mid)^T


@dataclass(frozen=True)
class FacetGeometry:
    """Geometry of one facet: (n-1)-measure, centroid and canonical unit
    normal."""

    dim: int
    vertices: np.ndarray          # (n, n), sorted-index order
    measure: float
    centroid: np.ndarray
    unit_normal: np.ndarray


def cell_geometry(mesh, cell_index):
    """Exact per-cell geometry; raises on an out-of-range index."""
    i = int(cell_index)
    if not 0 <= i < mesh.n_cells:
        raise MeshError(f"cell index {i} out of range")
    return CellGeometry(
        dim=mesh.dim,
        vertices=mesh.vertices[mesh.cells[i]],
        measure=float(mesh.cell_measures[i]),
        centroid=mesh.cell_centroids[i],
        H=float(mesh.cell_H[i]),
        barycentric_gradients=mesh.barycentric_gradients[i],
        second_moment=mesh.cell_second_moments[i],
    )


def facet_geometry(mesh, facet_index):
    """Exact per-facet geometry; raises on an out-of-range index."""
    i = int(facet_index)
    if not 0 <= i < mesh.n_facets:
        raise MeshError(f"facet index {i} out of range")
    return FacetGeometry(
        dim=mesh.dim,
        vertices=mesh.vertices[mesh.facets[i]],
        measure=float(mesh.facet_measures[i]),
        centroid=mesh.facet_centroids[i],
        unit_normal=mesh.facet_normals[i],
    )


# ``points`` may be a single point (n,) or an array (..., n).  The formulas
# are polynomials on all of R^n; no containment check is made.

def _barycentric_at(geom, points):
    return 1.0 / (geom.dim + 1) + (points - geom.centroid) @ geom.barycentric_gradients.T


def ecr_eval(geom, points):
    """ECR basis values/gradients at physical points of one cell."""
    points = np.asarray(points, dtype=float)
    n = geom.dim
    bubble, bubble_grad = elements._bubble(n, points - geom.centroid, geom.H)
    return (elements._ecr_values(n, _barycentric_at(geom, points), bubble),
            elements._ecr_gradients(n, geom.barycentric_gradients, bubble_grad))


def cr_eval(geom, points):
    """CR basis values/gradients at physical points of one cell."""
    points = np.asarray(points, dtype=float)
    values, grads = elements._cr(geom.dim, _barycentric_at(geom, points),
                                 geom.barycentric_gradients)
    return values, np.broadcast_to(grads, values.shape + (geom.dim,)).copy()


def rt0_eval(geom, orientation_signs, points):
    """RT0 basis vectors and divergences at physical points of one cell.

    ``orientation_signs`` is the cell's row of ``mesh.cell_facet_signs``.
    """
    return elements._rt0(np.asarray(points, dtype=float), geom.vertices,
                         np.asarray(orientation_signs, dtype=float), geom.measure)
