"""Per-cell geometry and basis evaluation, for tests that check one cell or
one facet at a time against the package's batch arrays.

The CR and ECR basis formulas are the package's own private ones
(``elements._cr`` and friends); only the per-cell plumbing lives here.  The
RT0 basis, which the package never evaluates pointwise, is written here
(``_rt0``) as the quadrature oracle of its closed-form local matrices, and so
are the helpers that only tests call (``rt0_eval_mesh``, ``facet_averages``).
The facet geometry is computed from the facet's vertices alone, as an oracle
for the mesh's facet arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from simplexfem import elements
from simplexfem.mesh import MeshError, SimplexMesh
from simplexfem.quadrature import physical_points


def reference_monomial_integral(alpha):
    """Exact integral of x^alpha over the reference simplex:
    prod(alpha_i!) / (|alpha| + n)!."""
    alpha = [int(a) for a in alpha]
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + len(alpha))


def translated(mesh, vec):
    """New mesh with all vertices shifted by ``vec``."""
    return SimplexMesh(mesh.dim, mesh.vertices + np.asarray(vec, dtype=float), mesh.cells)


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
    """Per-facet geometry from the facet's vertices p_0..p_{n-1} alone;
    raises on an out-of-range index.  With the edges E = [p_1 - p_0, ...],
    the measure is sqrt(det(E^T E)) / (n-1)!, and the unit normal spans the
    orthogonal complement of E, oriented so that det[nu; E^T] > 0."""
    i = int(facet_index)
    if not 0 <= i < mesh.n_facets:
        raise MeshError(f"facet index {i} out of range")
    p = mesh.vertices[mesh.facets[i]]
    E = (p[1:] - p[0]).T                                  # (n, n-1)
    normal = np.linalg.svd(E)[0][:, -1]
    if np.linalg.det(np.vstack([normal, E.T])) < 0:
        normal = -normal
    return FacetGeometry(
        dim=mesh.dim,
        vertices=p,
        measure=math.sqrt(np.linalg.det(E.T @ E)) / math.factorial(mesh.dim - 1),
        centroid=p.mean(axis=0),
        unit_normal=normal,
    )


# ``points`` may be a single point (n,) or an array (..., n).  The formulas
# are polynomials on all of R^n; no containment check is made.

def _barycentric_at(geom, points):
    return 1.0 / (geom.dim + 1) + (points - geom.centroid) @ geom.barycentric_gradients.T


def ecr_eval(geom, points):
    """ECR basis values/gradients at physical points of one cell."""
    points = np.asarray(points, dtype=float)
    n = geom.dim
    dx = points - geom.centroid
    bubble = elements._bubble_value(n, (dx ** 2).sum(axis=-1), geom.H)
    return (elements._ecr_values(n, _barycentric_at(geom, points), bubble),
            elements._ecr_gradients(n, geom.barycentric_gradients,
                                    elements._bubble_gradient(n, dx, geom.H)))


def cr_eval(geom, points):
    """CR basis values/gradients at physical points of one cell."""
    points = np.asarray(points, dtype=float)
    values, grads = elements._cr(geom.dim, _barycentric_at(geom, points),
                                 geom.barycentric_gradients)
    return values, np.broadcast_to(grads, values.shape + (geom.dim,)).copy()


def _rt0(x, vertices, signs, measure):
    """RT0 values s_i (x - a_i) / (n|K|) (..., n+1, n) and divergences
    s_i / |K| (..., n+1); ``measure`` broadcasts against ``signs``."""
    divs = signs / measure
    return (divs / x.shape[-1])[..., None] * (x[..., None, :] - vertices), divs


def rt0_eval(geom, orientation_signs, points):
    """RT0 basis vectors and divergences at physical points of one cell.

    ``orientation_signs`` is the cell's row of ``mesh.cell_facet_signs``.
    """
    return _rt0(np.asarray(points, dtype=float), geom.vertices,
                np.asarray(orientation_signs, dtype=float), geom.measure)


def rt0_eval_mesh(mesh, bary):
    """RT0 basis on every cell: values (nc, Q, n+1, n) and constant
    divergences (nc, n+1) = s_i / |K|."""
    values, divs = _rt0(physical_points(mesh, bary),
                        mesh.vertices[mesh.cells][:, None],
                        mesh.cell_facet_signs[:, None],
                        mesh.cell_measures[:, None, None])
    return values, divs[:, 0]


def facet_averages(field):
    """Facet-average coefficients of a CR/ECR ``problems.BrokenField``: (nf,)
    or (nf, ncomp), zero on eliminated Dirichlet facets."""
    if field.dofmap.facet_dofs is None:
        raise ValueError("facet averages need a facet-based family")
    coeffs = field.coeffs.reshape(field.ncomp, field.dofmap.n_scalar)
    fd = field.dofmap.facet_dofs
    out = np.where(fd[None, :] >= 0, coeffs[:, np.where(fd >= 0, fd, 0)], 0.0)
    return out[0] if field.ncomp == 1 else out.T


def facet_cells(mesh):
    """The cells of each facet (nf, 2) in cell order, the second -1 on the
    boundary: ``mesh.cell_facets`` inverted one cell at a time."""
    out = np.full((mesh.n_facets, 2), -1)
    for cell, facets in enumerate(mesh.cell_facets):
        for f in facets:
            out[f, int(out[f, 0] >= 0)] = cell
    return out
