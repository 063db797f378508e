"""Basis evaluation and local matrices for the CR, enriched-CR (ECR), RT0 and
P0 element families on n-simplices.

Each basis formula is written once, as a private function that the batch
evaluators (``*_eval_mesh``, ``bubble_values``) call.  Each local matrix is
one batch function, in closed form except the ECR mass (quartic; a degree-4
rule).  The RT0 basis is never evaluated pointwise here: its local matrices
and moments are closed forms in the cell geometry.

Degrees of freedom are *average*-normalized throughout:

* CR: facet averages; local basis ``1 - n*lambda_j`` dual to them.
* ECR: facet averages plus one cell average.  The local basis is the CR-like
  facet family corrected by the radial bubble

      phi_K = (n+2)/2 - n(n+1)^2(n+2)/(2H) * |x - mid(K)|^2,
      phi_j = (1 - n*lambda_j) - phi_K/(n+1),

  with H the sum of squared edge lengths, so that avg_E(phi_j) = delta_ij,
  avg_K(phi_j) = 0, avg_K(phi_K) = 1 and avg_E(phi_K) = 0.
* RT0: total normal flux through each facet with respect to the facet's
  canonical global normal; local basis ``s_i (x - a_i) / (n|K|)`` where a_i is
  the vertex opposite facet i and s_i the cell's orientation sign.
* P0: cell averages.

All evaluation is exact closed-form arithmetic; no reference-to-physical
Piola map is involved.  The RT0 arrays use RT0 geometry only (vertices,
signs, second moments), never an ECR quantity.
"""

from __future__ import annotations

import numpy as np

from .quadrature import cell_weights, centred_points, rule_for_degree

FAMILIES = ("CR", "ECR", "RT0", "P0")


def bubble_strength(dim, H):
    """Coefficient c in grad(phi_K) = -c (x - mid(K))."""
    n = dim
    return n * (n + 1) ** 2 * (n + 2) / H


def bubble_energy(dim, measure, H):
    """Exact ||grad phi_K||^2 over one cell: n^2 (n+1)^2 (n+2) |K| / H."""
    n = dim
    return n ** 2 * (n + 1) ** 2 * (n + 2) * measure / H


def cell_average_row(family, dim):
    """Cell averages of the local basis functions (exact)."""
    n = dim
    if family == "ECR":
        row = np.zeros(n + 2)
        row[-1] = 1.0
        return row
    if family == "CR":
        return np.full(n + 1, 1.0 / (n + 1))
    if family == "P0":
        return np.ones(1)
    raise ValueError(f"no cell-average row for family {family!r}")


# -- basis formulas on arrays broadcasting over leading (cell, point) axes:
# barycentric coordinates lam (..., n+1), their gradients (..., n+1, n) and
# offsets dx = x - mid(K) (..., n)

def _bubble_value(n, sq, H):
    """phi_K = (n+2)/2 - c/2 |x - mid(K)|^2 from ``sq`` = |x - mid(K)|^2;
    ``H`` broadcasts against sq."""
    return -0.5 * bubble_strength(n, H) * sq + (n + 2) / 2.0


def _bubble_gradient(n, dx, H):
    """grad phi_K = -c (x - mid(K)) at offsets ``dx``; ``H`` broadcasts
    against dx[..., 0]."""
    return -np.asarray(bubble_strength(n, H))[..., None] * dx


def _ecr_values(n, lam, bubble):
    """Facet functions 1 - n lam_j - phi_K/(n+1), then phi_K: (..., n+2)."""
    bubble = bubble[..., None]
    return np.concatenate([1.0 - n * lam - bubble / (n + 1), bubble], axis=-1)


def _ecr_gradients(n, grad_lam, bubble_grad):
    """Gradients of the ECR basis: (..., n+2, n)."""
    bubble_grad = bubble_grad[..., None, :]
    return np.concatenate([-n * grad_lam - bubble_grad / (n + 1), bubble_grad],
                          axis=-2)


def _cr(n, lam, grad_lam):
    """CR values 1 - n lam_j and gradients -n grad(lam_j)."""
    return 1.0 - n * lam, -n * grad_lam


# -- batch evaluation over all cells of a mesh ------------------------------

def cr_eval_mesh(mesh, bary):
    """CR basis on every cell at barycentric points.

    Returns (values (Q, n+1), gradients (nc, n+1, n)); values are
    cell-independent, gradients constant per cell.
    """
    return _cr(mesh.dim, np.asarray(bary), mesh.barycentric_gradients)


def bubble_values(mesh, bary, cells=slice(None)):
    """Bubble phi_K at barycentric points on the cells ``cells`` (a slice,
    all by default): (nc, Q).

    With d_i = a_i - mid(K), x - mid(K) = sum_i lam_i d_i, so
    |x - mid(K)|^2 = lam^T G_K lam for the vertex Gram matrix
    G_K[i, j] = d_i . d_j: no (nc, Q, n) point or offset array is formed."""
    d = centred_points(mesh, np.eye(mesh.dim + 1), cells)
    gram = np.einsum("cin,cjn->cij", d, d)
    bary = np.asarray(bary)
    sq = np.einsum("qi,cij,qj->cq", bary, gram, bary)
    return _bubble_value(mesh.dim, sq, mesh.cell_H[cells, None])


def bubble_eval_mesh(mesh, bary, cells=slice(None)):
    """Bubble phi_K on the cells ``cells``: values (nc, Q), gradients
    (nc, Q, n)."""
    dx = centred_points(mesh, bary, cells)
    return (bubble_values(mesh, bary, cells),
            _bubble_gradient(mesh.dim, dx, mesh.cell_H[cells, None]))


def ecr_eval_mesh(mesh, bary, cells=slice(None)):
    """ECR basis on the cells ``cells``: values (nc, Q, n+2), gradients
    (nc, Q, n+2, n); the bubble is slot n+1."""
    n = mesh.dim
    bubble, bubble_grad = bubble_eval_mesh(mesh, bary, cells)
    return (_ecr_values(n, np.asarray(bary), bubble),
            _ecr_gradients(n, mesh.barycentric_gradients[cells, None], bubble_grad))


# -- local matrices, every array with a leading cell axis --------------------

def cr_stiffness(mesh):
    """int_K grad phi_a . grad phi_b = n^2 |K| grad lam_a . grad lam_b:
    (nc, n+1, n+1)."""
    grads = mesh.barycentric_gradients
    return (mesh.dim ** 2 * mesh.cell_measures[:, None, None]
            * np.einsum("can,cbn->cab", grads, grads))


def ecr_stiffness(mesh):
    """ECR stiffness (nc, n+2, n+2) from the CR one and the bubble energy E.

    The bubble gradient integrates to zero on K, so it is orthogonal to
    every P1 gradient: the facet block is K_CR + E/(n+1)^2, the
    facet-bubble entries are -E/(n+1) and the bubble entry is E.  The last
    two are built as minus the row sums, which keeps the constants in the
    kernel to rounding, as the pure-Neumann gauge needs.
    """
    n = mesh.dim
    energy = bubble_energy(n, mesh.cell_measures, mesh.cell_H)[:, None, None]
    facet = cr_stiffness(mesh) + energy / (n + 1) ** 2
    coupling = -facet.sum(axis=2, keepdims=True)
    return np.block([[facet, coupling],
                     [np.swapaxes(coupling, 1, 2), -coupling.sum(axis=1, keepdims=True)]])


def cr_mass(mesh):
    """int_K phi_a phi_b = |K| (2 - n + n^2 delta_ab) / ((n+1)(n+2)):
    (nc, n+1, n+1), exactly diagonal in 2D."""
    n = mesh.dim
    ref = (2 - n + n ** 2 * np.eye(n + 1)) / ((n + 1) * (n + 2))
    return mesh.cell_measures[:, None, None] * ref


def ecr_mass(mesh):
    """int_K phi_a phi_b for ECR (nc, n+2, n+2): phi_K^2 is the only quartic
    integrand, so a degree-4 rule over the basis values is exact."""
    rule = rule_for_degree(mesh.dim, 4)
    vals = _ecr_values(mesh.dim, rule.points, bubble_values(mesh, rule.points))
    return np.einsum("cqa,cqb,cq->cab", vals, vals, cell_weights(mesh, rule))


def rt0_moment(mesh):
    """int_K psi_i = s_i (mid K - a_i) / n: (nc, n+1, n)."""
    offsets = mesh.cell_centroids[:, None, :] - mesh.vertices[mesh.cells]
    return mesh.cell_facet_signs[:, :, None] * offsets / mesh.dim


def _rt0_parts(mesh):
    """u_i = s_i d_i / (n|K|) (nc, n+1, n) and scale_i = s_i / (n|K|)
    (nc, n+1), with d_i = mid K - a_i: on K, psi_i = u_i + scale_i (x - mid K)."""
    meas = mesh.cell_measures
    return (rt0_moment(mesh) / meas[:, None, None],
            mesh.cell_facet_signs / (mesh.dim * meas[:, None]))


def rt0_outer(mesh):
    """int_K psi_i psi_j^T = |K| u_i u_j^T + scale_i scale_j S:
    (nc, n+1, n+1, n, n), with S the centred second moment
    ``cell_second_moments`` and (u, scale) from ``_rt0_parts``."""
    u, scale = _rt0_parts(mesh)
    return (mesh.cell_measures[:, None, None, None, None] * np.einsum("cir,cjs->cijrs", u, u)
            + np.einsum("ci,cj->cij", scale, scale)[:, :, :, None, None]
            * mesh.cell_second_moments[:, None, None])


def rt0_mass(mesh):
    """int_K psi_i . psi_j = |K| u_i . u_j + scale_i scale_j tr S, the trace
    of ``rt0_outer``: (nc, n+1, n+1)."""
    u, scale = _rt0_parts(mesh)
    trace = np.einsum("cii->c", mesh.cell_second_moments)
    return (mesh.cell_measures[:, None, None] * (u @ np.swapaxes(u, 1, 2))
            + np.einsum("ci,cj,c->cij", scale, scale, trace))


def rt0_deviatoric_mass(mesh):
    """int_K dev Psi_(i,r) : dev Psi_(j,s) for the tensor RT0 basis
    Psi_(i,r) = e_r psi_i^T (row r of the tensor is psi_i): delta_rs
    ``rt0_mass``_ij - ``rt0_outer``_ijrs / n, (nc, (n+1) n, (n+1) n) with
    the DOFs in (facet, row) order.  Its kernel on each cell is the
    identity tensor."""
    n = mesh.dim
    local = (np.einsum("rs,cij->cirjs", np.eye(n), rt0_mass(mesh))
             - np.einsum("cijrs->cirjs", rt0_outer(mesh)) / n)
    return local.reshape(mesh.n_cells, (n + 1) * n, (n + 1) * n)


def gradient_integrals(mesh):
    """int_K grad phi_a = -n |K| grad lam_a for the n+1 facet functions of
    CR and of ECR: (nc, n+1, n).  The ECR bubble's integral is zero."""
    return -mesh.dim * mesh.barycentric_gradients * mesh.cell_measures[:, None, None]
