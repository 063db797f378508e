"""Global DOF numbering and sparse assembly of every discrete system.

Scalar DOF layouts (deterministic, independent of traversal order):

* CR / ECR: one DOF per facet in facet order (boundary facets dropped when a
  homogeneous Dirichlet condition applies), followed for ECR by one bubble DOF
  per cell in cell order.
* RT0: one flux DOF per facet (value = total normal flux with respect to the
  facet's canonical normal).
* P0: one DOF per cell.

Vector-valued fields stack ``ncomp`` copies component-major: the global index
of (component r, scalar dof a) is ``r * n_scalar + a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from . import elements
from .mesh import MeshError
from .quadrature import (cell_weights, facet_rule_for_degree, integrate_cellwise,
                         physical_points, rule_for_degree)

DEFAULT_LOAD_DEGREE = 8
MATRIX_DEGREE = 4


class DataError(ValueError):
    """Raised for incompatible problem data (e.g. Neumann compatibility)."""


@dataclass(frozen=True)
class DofMap:
    """Global scalar numbering per (cell, local dof); -1 marks eliminated
    boundary DOFs."""

    family: str
    ncomp: int
    mesh: object = field(repr=False)
    cell_dofs: np.ndarray          # (nc, nldof)
    n_scalar: int
    facet_dofs: Optional[np.ndarray] = field(default=None, repr=False)
    dirichlet: bool = False

    @property
    def n_total(self):
        return self.ncomp * self.n_scalar

    @property
    def n_local(self):
        return self.cell_dofs.shape[1]

    def gather(self, coeffs):
        """Per-cell local coefficients (nc, nldof, ncomp); eliminated DOFs
        contribute zero."""
        coeffs = np.asarray(coeffs, dtype=float).reshape(self.ncomp, self.n_scalar)
        safe = np.where(self.cell_dofs >= 0, self.cell_dofs, 0)
        local = coeffs[:, safe]                        # (ncomp, nc, nldof)
        local = np.where(self.cell_dofs[None, :, :] >= 0, local, 0.0)
        return np.moveaxis(local, 0, -1)

    @staticmethod
    def build(mesh, family, dirichlet=False, ncomp=1):
        if family not in elements.FAMILIES:
            raise ValueError(f"unknown element family {family!r}")
        nf, nc = mesh.n_facets, mesh.n_cells
        if family == "P0":
            cell_dofs = np.arange(nc, dtype=np.int64)[:, None]
            return DofMap("P0", ncomp, mesh, cell_dofs, nc)
        if family == "RT0":
            facet_dofs = np.arange(nf, dtype=np.int64)
            cell_dofs = facet_dofs[mesh.cell_facets]
            return DofMap("RT0", ncomp, mesh, cell_dofs, nf, facet_dofs)
        facet_dofs = np.full(nf, -1, dtype=np.int64)
        if dirichlet:
            interior = mesh.interior_facet_indices()
            facet_dofs[interior] = np.arange(len(interior))
            n_facet_dofs = len(interior)
        else:
            facet_dofs[:] = np.arange(nf)
            n_facet_dofs = nf
        if family == "CR":
            cell_dofs = facet_dofs[mesh.cell_facets]
            return DofMap("CR", ncomp, mesh, cell_dofs, n_facet_dofs,
                          facet_dofs, dirichlet)
        bubbles = n_facet_dofs + np.arange(nc, dtype=np.int64)
        cell_dofs = np.hstack([facet_dofs[mesh.cell_facets], bubbles[:, None]])
        return DofMap("ECR", ncomp, mesh, cell_dofs, n_facet_dofs + nc,
                      facet_dofs, dirichlet)


class Constraint(NamedTuple):
    """One scalar gauge condition c . (x, y) = rhs on the primal x and/or
    dual y unknown, with ``k`` the null vector of [[A, B^T], [B, 0]] that
    the condition fixes.

    ``k`` spans the whole unknown (primal then dual).  The solver pins the
    DOF where |k| is largest and re-gauges along ``k`` afterwards, so ``k``
    must satisfy A k_x + B^T k_y = 0 and B k_x = 0 and have c . k != 0.
    """

    primal: Optional[np.ndarray]
    dual: Optional[np.ndarray]
    k: np.ndarray
    rhs: float = 0.0


@dataclass
class SaddleSystem:
    """Symmetric block system [[A, B^T], [B, 0]] with right-hand sides
    ``f`` (primal) and ``g`` (dual), plus scalar constraints that each fix
    one null direction (the gauge) of the block matrix.

    Its meaning is the bordered system with one Lagrange multiplier per
    constraint; ``linsolve.solve_saddle`` solves it without factorising the
    bordered matrix.
    """

    A: sp.csr_matrix
    f: np.ndarray
    B: Optional[sp.csr_matrix] = None
    g: Optional[np.ndarray] = None
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape[1] != n or len(self.f) != n:
            raise ValueError("inconsistent primal block dimensions")
        if (self.B is None) != (self.g is None):
            raise ValueError("B and g must be supplied together")
        if self.B is not None and (self.B.shape[1] != n or self.B.shape[0] != len(self.g)):
            raise ValueError("inconsistent dual block dimensions")
        if any(len(c.k) != n + self.n_dual for c in self.constraints):
            raise ValueError("constraint null vector must span primal and dual")

    @property
    def n_primal(self):
        return self.A.shape[0]

    @property
    def n_dual(self):
        return 0 if self.B is None else self.B.shape[0]


# -- scatter helpers ---------------------------------------------------------

def scatter_matrix(rows, cols, local, shape):
    """COO-accumulate local blocks (nc, a, b) into a csr matrix; negative
    indices are skipped (eliminated DOFs)."""
    nc, a, b = local.shape
    r = np.broadcast_to(rows[:, :, None], (nc, a, b))
    c = np.broadcast_to(cols[:, None, :], (nc, a, b))
    mask = (r >= 0) & (c >= 0)
    mat = sp.coo_matrix((local[mask], (r[mask], c[mask])), shape=shape)
    return mat.tocsr()

def scatter_symmetric(dofmap, local):
    """Assemble identical local blocks for each component of ``dofmap``."""
    n = dofmap.n_total
    blocks = []
    for comp in range(dofmap.ncomp):
        shift = comp * dofmap.n_scalar
        rows = np.where(dofmap.cell_dofs >= 0, dofmap.cell_dofs + shift, -1)
        blocks.append(scatter_matrix(rows, rows, local, (n, n)))
    out = blocks[0]
    for b in blocks[1:]:
        out = out + b
    return out

def scatter_vector(dofmap, local):
    """Accumulate local vectors (nc, nldof[, ncomp]) into a flat rhs."""
    out = np.zeros(dofmap.n_total)
    if local.ndim == 2:
        local = local[:, :, None]
    for comp in range(dofmap.ncomp):
        shift = comp * dofmap.n_scalar
        mask = dofmap.cell_dofs >= 0
        np.add.at(out, dofmap.cell_dofs[mask] + shift, local[:, :, comp][mask])
    return out


# -- local matrices / loads --------------------------------------------------

def stiffness_local(mesh, family):
    if family == "ECR":
        return elements.ecr_stiffness(mesh)
    if family == "CR":
        return elements.cr_stiffness(mesh)
    raise ValueError(f"no stiffness for family {family!r}")

def mass_local(mesh, family):
    if family == "ECR":
        return elements.ecr_mass(mesh)
    if family == "CR":
        return elements.cr_mass(mesh)
    if family == "P0":
        return mesh.cell_measures[:, None, None].copy()
    raise ValueError(f"no mass for family {family!r}")


def load_values(mesh, f, rule, ncomp=1):
    """Sample a load on the quadrature grid: callable, per-cell array,
    constant, (for vector loads) a length-ncomp constant tuple, or values
    already sampled on the points of ``rule``, shape (nc, Q[, ncomp])."""
    nc, q = mesh.n_cells, rule.n_points
    shape = (nc, q) if ncomp == 1 else (nc, q, ncomp)
    if callable(f):
        vals = np.asarray(f(physical_points(mesh, rule.points)), dtype=float)
        if vals.shape != shape:
            raise DataError(f"load callable returned shape {vals.shape}, expected {shape}")
        return vals
    arr = np.asarray(f, dtype=float)
    if arr.shape == shape:
        return arr
    if arr.ndim == 0:
        if ncomp != 1:
            raise DataError("vector load needs ncomp values")
        return np.full(shape, float(arr))
    if ncomp == 1 and arr.shape == (nc,):
        return np.broadcast_to(arr[:, None], shape).copy()
    if ncomp > 1 and arr.shape == (ncomp,):
        return np.broadcast_to(arr[None, None, :], shape).copy()
    if ncomp > 1 and arr.shape == (nc, ncomp):
        return np.broadcast_to(arr[:, None, :], shape).copy()
    raise DataError(f"cannot interpret load of shape {arr.shape}")


def _load_integrals(mesh, f, ncomp=1):
    """Per-cell integrals of a load on the degree-DEFAULT_LOAD_DEGREE rule:
    (nc,) or (nc, ncomp)."""
    rule = rule_for_degree(mesh.dim, DEFAULT_LOAD_DEGREE)
    return integrate_cellwise(mesh, load_values(mesh, f, rule, ncomp), rule)


def piecewise_constant_load(mesh, f, ncomp=1):
    """Per-cell averages of a load: (nc,) or (nc, ncomp)."""
    meas = mesh.cell_measures if ncomp == 1 else mesh.cell_measures[:, None]
    return _load_integrals(mesh, f, ncomp) / meas


def _rhs(mesh, dofmap, f):
    rule = rule_for_degree(mesh.dim, DEFAULT_LOAD_DEGREE)
    w = cell_weights(mesh, rule)
    if dofmap.family == "ECR":
        vals, _ = elements.ecr_eval_mesh(mesh, rule.points)
    elif dofmap.family == "CR":
        cr_vals, _ = elements.cr_eval_mesh(mesh, rule.points)
        vals = np.broadcast_to(cr_vals[None, :, :], (mesh.n_cells,) + cr_vals.shape)
    else:
        raise ValueError(dofmap.family)
    if dofmap.ncomp == 1:
        fv = load_values(mesh, f, rule, 1)
        local = np.einsum("cqa,cq,cq->ca", vals, fv, w)
    else:
        fv = load_values(mesh, f, rule, dofmap.ncomp)
        local = np.einsum("cqa,cqr,cq->car", vals, fv, w)
    return scatter_vector(dofmap, local)


# -- problem systems ---------------------------------------------------------

def assemble_poisson(mesh, f, family="ECR"):
    """Primal Poisson with homogeneous Dirichlet data: SPD stiffness, load
    vector, DOF map.  The `problems` solvers assemble CR only; the
    monolithic ECR system is the oracle for their CR + bubbles solve."""
    dm = DofMap.build(mesh, family, dirichlet=True)
    A = scatter_symmetric(dm, stiffness_local(mesh, family))
    b = _rhs(mesh, dm, f)
    return A, b, dm


def split_basis_stiffness(mesh):
    """ECR stiffness assembled in the split basis (CR hat functions plus
    bubbles), Dirichlet facets eliminated.  The bubble/CR coupling blocks of
    this matrix vanish identically; the bubble block is diagonal.  Both are
    integrated by a degree-4 rule, an independent check of the closed forms
    and of the ECR = CR + bubbles solve in ``problems``."""
    rule = rule_for_degree(mesh.dim, MATRIX_DEGREE)
    dm = DofMap.build(mesh, "ECR", dirichlet=True)
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
    return scatter_symmetric(dm, local), dm


def _rt0_divergence(mesh):
    """RT0 x P0 divergence block (cells x facets): int_K div(psi_i) = s_i."""
    return scatter_matrix(np.arange(mesh.n_cells)[:, None], mesh.cell_facets,
                          mesh.cell_facet_signs[:, None, :].astype(float),
                          (mesh.n_cells, mesh.n_facets))


def assemble_mixed_poisson(mesh, f):
    """RT0 x P0 mixed Poisson; natural u = 0, no essential conditions."""
    rt = DofMap.build(mesh, "RT0")
    p0 = DofMap.build(mesh, "P0")
    A = scatter_symmetric(rt, elements.rt0_mass(mesh))
    B = _rt0_divergence(mesh)
    system = SaddleSystem(A=A, f=np.zeros(rt.n_total), B=B, g=-_load_integrals(mesh, f))
    return system, rt, p0


def assemble_stokes(mesh, f, family="ECR"):
    """Nonconforming Stokes: velocity in n components of CR/ECR, piecewise
    constant pressure with zero mean, gauging the constant pressure.  As
    for Poisson, the ECR system is a test oracle only."""
    n = mesh.dim
    vel = DofMap.build(mesh, family, dirichlet=True, ncomp=n)
    prs = DofMap.build(mesh, "P0")
    A = scatter_symmetric(vel, stiffness_local(mesh, family))

    # the ECR bubble's gradient integrates to zero: only the facet columns,
    # component-major
    facet_dofs = vel.cell_dofs[:, : n + 1]
    cols = np.hstack([np.where(facet_dofs >= 0, facet_dofs + comp * vel.n_scalar, -1)
                      for comp in range(n)])
    d = np.swapaxes(elements.gradient_integrals(mesh), 1, 2).reshape(mesh.n_cells, 1, -1)
    B = scatter_matrix(prs.cell_dofs, cols, d, (prs.n_total, vel.n_total))
    b = _rhs(mesh, vel, f)
    const_pressure = np.concatenate([np.zeros(vel.n_total), np.ones(prs.n_total)])
    system = SaddleSystem(A=A, f=b, B=B, g=np.zeros(prs.n_total),
                          constraints=[Constraint(None, mesh.cell_measures.copy(),
                                                  const_pressure)])
    return system, vel, prs


def assemble_pseudostress(mesh, f):
    """Pseudostress Stokes: tensor RT0 rows against (P0)^n, deviatoric form,
    with the global trace-mean constraint gauging the constant tensor I."""
    n = mesh.dim
    sig = DofMap.build(mesh, "RT0", ncomp=n)     # component r = tensor row r
    upo = DofMap.build(mesh, "P0", ncomp=n)
    nl = n + 1
    local = (np.einsum("rs,cij->crisj", np.eye(n), elements.rt0_mass(mesh))
             - np.einsum("cijrs->crisj", elements.rt0_outer(mesh)) / n)
    local = local.reshape(mesh.n_cells, n * nl, n * nl)
    tensor_dofs = (sig.cell_dofs[:, None, :] + np.arange(n)[None, :, None] * sig.n_scalar)
    tensor_dofs = tensor_dofs.reshape(mesh.n_cells, n * nl)
    A = scatter_matrix(tensor_dofs, tensor_dofs, local, (sig.n_total, sig.n_total))

    B = sp.block_diag([_rt0_divergence(mesh)] * n, format="csr")
    trace = scatter_vector(sig, elements.rt0_moment(mesh))

    g = -_load_integrals(mesh, f, n).T.ravel()

    # the constant tensor I: tensor row r has flux nu_F[r] |F| through facet F
    identity = (mesh.facet_normals * mesh.facet_measures[:, None]).T.ravel()
    const_identity = np.concatenate([identity, np.zeros(upo.n_total)])
    system = SaddleSystem(A=A, f=np.zeros(sig.n_total), B=B, g=g,
                          constraints=[Constraint(trace, None, const_identity)])
    return system, sig, upo


def facet_averages_of(mesh, g):
    """Facet averages of a callable on the degree-MATRIX_DEGREE facet rule
    (or pass-through of a per-facet array)."""
    if callable(g):
        rule = facet_rule_for_degree(mesh.dim, MATRIX_DEGREE)
        pts = np.einsum("qk,fki->fqi", rule.points, mesh.vertices[mesh.facets])
        vals = np.asarray(g(pts), dtype=float)
        fac = math.factorial(mesh.dim - 1)
        return fac * vals @ rule.weights
    arr = np.asarray(g, dtype=float)
    if arr.shape != (mesh.n_facets,):
        raise DataError("per-facet flux data must have one value per facet")
    return arr


def check_neumann_compatibility(mesh, f, g_avg):
    total_f = float(_load_integrals(mesh, f).sum())
    bnd = mesh.boundary_facet_indices()
    total_g = float((g_avg[bnd] * mesh.facet_measures[bnd]).sum())
    scale = max(1.0, abs(total_f), abs(total_g))
    if abs(total_f + total_g) > 1e-10 * scale:
        raise DataError(
            f"incompatible Neumann data: int f + int g = {total_f + total_g:.3e}")
    return total_f, total_g


def assemble_neumann_primal(mesh, f, g, family="ECR"):
    """Pure-Neumann primal problem on the zero-mean subspace (gauging the
    constant); the flux enters through facet averages, exactly for piecewise
    constant g.  As for Poisson, the ECR system is a test oracle only."""
    g_avg = facet_averages_of(mesh, g)
    check_neumann_compatibility(mesh, f, g_avg)
    dm = DofMap.build(mesh, family, dirichlet=False)
    A = scatter_symmetric(dm, stiffness_local(mesh, family))
    b = _rhs(mesh, dm, f)
    bnd = mesh.boundary_facet_indices()
    b[dm.facet_dofs[bnd]] += g_avg[bnd] * mesh.facet_measures[bnd]

    mean = np.zeros(dm.n_total)
    avg_row = elements.cell_average_row(family, mesh.dim)
    np.add.at(mean, dm.cell_dofs.ravel(),
              np.outer(mesh.cell_measures, avg_row).ravel())
    system = SaddleSystem(A=A, f=b,
                          constraints=[Constraint(mean, None, np.ones(dm.n_total))])
    return system, dm


def assemble_neumann_mixed(mesh, f, g):
    """Mixed Neumann problem: boundary fluxes are essential (facet averages
    of g), the test space drops them, and u has zero mean, gauging u = 1.

    Returns (system, rt map, p0 map, interior facet ids, boundary flux
    coefficient vector over all facets)."""
    g_avg = facet_averages_of(mesh, g)
    check_neumann_compatibility(mesh, f, g_avg)
    system_full, rt, p0 = assemble_mixed_poisson(mesh, f)
    A, B, g_vec = system_full.A, system_full.B, system_full.g

    bnd = mesh.boundary_facet_indices()
    interior = mesh.interior_facet_indices()
    sigma_bc = np.zeros(mesh.n_facets)
    sigma_bc[bnd] = mesh.boundary_facet_signs() * g_avg[bnd] * mesh.facet_measures[bnd]

    A_ii = A[interior][:, interior].tocsr()
    A_ib = A[interior][:, bnd].tocsr()
    B_i = B[:, interior].tocsr()
    B_b = B[:, bnd].tocsr()
    f_red = -A_ib @ sigma_bc[bnd]
    g_red = g_vec - B_b @ sigma_bc[bnd]
    const_u = np.concatenate([np.zeros(len(interior)), np.ones(p0.n_total)])
    system = SaddleSystem(A=A_ii, f=f_red, B=B_i, g=g_red,
                          constraints=[Constraint(None, mesh.cell_measures.copy(), const_u)])
    return system, rt, p0, interior, sigma_bc


def assemble_eigen(mesh, family="ECR", mass="full"):
    """Stiffness and mass pair for the Dirichlet eigenproblem.

    ``mass="projected"`` builds the piecewise-constant-projected mass
    (P^T diag|K| P with P the exact cell-average map), which is PSD with a
    nontrivial kernel.
    """
    if family not in ("ECR", "CR"):
        raise ValueError("eigen systems support families ECR and CR")
    if mass not in ("full", "projected"):
        raise ValueError(f"unknown mass treatment {mass!r}")
    dm = DofMap.build(mesh, family, dirichlet=True)
    A = scatter_symmetric(dm, stiffness_local(mesh, family))
    if mass == "full":
        M = scatter_symmetric(dm, mass_local(mesh, family))
    else:
        avg_row = elements.cell_average_row(family, mesh.dim)
        local = np.einsum("a,b,c->cab", avg_row, avg_row, mesh.cell_measures)
        M = scatter_symmetric(dm, local)
    return A, M, dm
