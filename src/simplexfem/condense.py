"""Static condensation for the ECR method: the bubble part decouples exactly
from the CR part of the stiffness, so the global solve splits into a CR solve
plus independent per-cell bubble solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly, elements, linsolve, problems
from .quadrature import cell_weights, rule_for_degree


def solve_bubble_local(geom, f_value):
    """Bubble coefficient of one cell for a cellwise-constant load:
    (f, phi_K)_K / ||grad phi_K||_K^2 = f |K| H / (n^2 (n+1)^2 (n+2) |K|)."""
    energy = elements.bubble_energy(geom.dim, geom.measure, geom.H)
    return float(f_value) * geom.measure / energy


def bubble_coefficients(mesh, f, quad_degree=assembly.DEFAULT_LOAD_DEGREE):
    """Per-cell bubble coefficients (f, phi_K)_K / ||grad phi_K||_K^2 for a
    general load (exact for piecewise-constant loads)."""
    rule = rule_for_degree(mesh.dim, quad_degree)
    bubble, _ = elements.bubble_eval_mesh(mesh, rule.points)
    fv = assembly.load_values(mesh, f, rule)
    moments = np.einsum("cq,cq,cq->c", bubble, fv, cell_weights(mesh, rule))
    energy = elements.bubble_energy(mesh.dim, mesh.cell_measures, mesh.cell_H)
    return moments / energy


def split_basis_stiffness(mesh):
    """ECR stiffness assembled in the split basis (CR hat functions plus
    bubbles), Dirichlet facets eliminated.  The bubble/CR coupling blocks of
    this matrix vanish identically; the bubble block is diagonal.  Both are
    integrated by a degree-4 rule, an independent check of the closed forms."""
    rule = rule_for_degree(mesh.dim, 4)
    dm = assembly.DofMap.build(mesh, "ECR", dirichlet=True)
    n = mesh.dim
    w = cell_weights(mesh, rule)
    _, cr_grads = elements.cr_eval_mesh(mesh, rule.points)
    _, bubble_grads = elements.bubble_eval_mesh(mesh, rule.points)

    local = np.zeros((mesh.n_cells, n + 2, n + 2))
    local[:, : n + 1, : n + 1] = elements.cr_stiffness(mesh)
    cross = np.einsum("can,cqn,cq->ca", cr_grads, bubble_grads, w)
    local[:, : n + 1, n + 1] = cross
    local[:, n + 1, : n + 1] = cross
    local[:, n + 1, n + 1] = np.einsum("cqn,cqn,cq->c", bubble_grads, bubble_grads, w)
    return assembly.scatter_symmetric(dm, local), dm


@dataclass
class CondensedSolution:
    """CR solve + per-cell bubbles, recombined into the standard ECR
    coefficient vector (facet averages then cell averages)."""

    cr_part: problems.BrokenField
    bubble: np.ndarray
    ecr_field: problems.BrokenField


def solve_ecr_condensed(mesh, f, quad_degree=assembly.DEFAULT_LOAD_DEGREE,
                        config=None):
    """Solve the ECR Poisson problem by static condensation.

    The recombined field equals the monolithic ECR solution coefficientwise:
    facet averages are the CR coefficients, cell averages are the bubble
    coefficient plus the mean of the cell's facet coefficients.
    """
    cr = problems.solve_poisson(mesh, f, "CR", quad_degree, config=config)
    bubble = bubble_coefficients(mesh, f, quad_degree)

    dm = assembly.DofMap.build(mesh, "ECR", dirichlet=True)
    n_facet_dofs = dm.n_scalar - mesh.n_cells
    coeffs = np.zeros(dm.n_scalar)
    coeffs[:n_facet_dofs] = cr.coeffs
    local_facets = dm.gather(np.concatenate([cr.coeffs, np.zeros(mesh.n_cells)]))
    cr_cell_avg = local_facets[:, : mesh.dim + 1, 0].sum(axis=1) / (mesh.dim + 1)
    coeffs[n_facet_dofs:] = bubble + cr_cell_avg
    return CondensedSolution(cr, bubble, problems.BrokenField(dm, coeffs))
