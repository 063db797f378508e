"""Global DOF numbering and sparse assembly of every discrete system.

Scalar DOF layouts (deterministic, independent of traversal order):

* CR / ECR: one DOF per facet in facet order (boundary facets dropped when a
  homogeneous Dirichlet condition applies), followed for ECR by one bubble DOF
  per cell in cell order.
* RT0: one flux DOF per facet (value = total normal flux with respect to the
  facet's canonical normal).
* P0: one DOF per cell.

Vector-valued fields stack ``ncomp`` copies component-major: the global index
of (component r, scalar dof a) is ``r * n_scalar + a``.  ``DofMap.global_dofs``
is the one place that adds these offsets; every gather and scatter, scalar or
vector, reads it.

Zero policy: ``scatter_matrix``, the one sparse scatter, stores no exact
zero; it drops them once duplicates are summed.  A stored zero would still
enter the factorisation's ordering and fill.

A per-cell-constant load f_K is reduced in closed form, with no sample
(``reduce_constant_load``): its integrals are |K| f_K, its CR moments
|K| f_K / (n+1), its ECR moments 0 on the facet functions and |K| f_K on
the bubble.  A callable, or values already sampled on a rule's points, is
sampled and reduced one block of cells at a time (``reduce_load``) on the
degree-``DEFAULT_LOAD_DEGREE`` rule ``load_rule`` (25 points in 2D, 125
in 3D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from . import elements
from .mesh import MeshError
from .quadrature import (cell_blocks, cell_weights, integrate_cellwise, physical_points,
                         rule_for_degree)

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
    def global_dofs(self):
        """Global index of every (cell, local dof, component), (nc, nldof,
        ncomp): ``r * n_scalar + a`` for component r of scalar DOF a, -1 where
        the DOF is eliminated.  For one component that is ``cell_dofs``
        itself, returned as a view."""
        dofs = self.cell_dofs[:, :, None]
        if self.ncomp == 1:
            return dofs
        return np.where(dofs >= 0, dofs + self.n_scalar * np.arange(self.ncomp), -1)

    def gather(self, coeffs):
        """Per-cell local coefficients (nc, nldof, ncomp); eliminated DOFs
        contribute zero: their index -1 reads a zero appended to the
        coefficients."""
        coeffs = np.asarray(coeffs, dtype=float).reshape(self.n_total)
        return np.append(coeffs, 0.0)[self.global_dofs]

    def coefficients(self, local):
        """The coefficient vector whose ``gather`` is ``local`` (nc, nldof[,
        ncomp]) on the kept DOFs: the inverse of ``gather`` for local values
        that agree wherever cells share a DOF."""
        dofs = self.global_dofs
        kept = dofs >= 0
        coeffs = np.zeros(self.n_total)
        coeffs[dofs[kept]] = np.reshape(local, dofs.shape)[kept]
        return coeffs

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
    """The gauge condition c . z = rhs on the whole unknown z = (x, y),
    primal then dual, with ``k`` the null vector of [[A, B^T], [B, 0]] that
    it fixes.

    ``c`` and ``k`` both span z.  The solver pins the DOF where |k| is
    largest and re-gauges along ``k`` afterwards, so ``k`` must satisfy
    A k_x + B^T k_y = 0 and B k_x = 0 and have c . k != 0.
    """

    c: np.ndarray
    k: np.ndarray
    rhs: float = 0.0


@dataclass
class SaddleSystem:
    """Symmetric block system [[A, B^T], [B, 0]] with right-hand sides
    ``f`` (primal) and ``g`` (dual), or A alone, and at most one gauge: a
    scalar condition that fixes the one null direction of the block matrix.

    With a gauge its meaning is the bordered system with one Lagrange
    multiplier; ``linsolve.solve`` solves every system without factorising
    the bordered matrix.
    """

    A: sp.csr_matrix
    f: np.ndarray
    B: Optional[sp.csr_matrix] = None
    g: Optional[np.ndarray] = None
    gauge: Optional[Constraint] = None

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape[1] != n or len(self.f) != n:
            raise ValueError("inconsistent primal block dimensions")
        if (self.B is None) != (self.g is None):
            raise ValueError("B and g must be supplied together")
        if self.B is not None and (self.B.shape[1] != n or self.B.shape[0] != len(self.g)):
            raise ValueError("inconsistent dual block dimensions")
        if self.gauge is not None and (len(self.gauge.c) != n + self.n_dual
                                       or len(self.gauge.k) != n + self.n_dual):
            raise ValueError("gauge row and null vector must span primal and dual")

    @property
    def n_primal(self):
        return self.A.shape[0]

    @property
    def n_dual(self):
        return 0 if self.B is None else self.B.shape[0]


# -- scatter helpers ---------------------------------------------------------

def scatter_matrix(rows, cols, local, shape):
    """COO-accumulate local blocks (nc, a, b) into a csr matrix; negative
    indices are skipped (eliminated DOFs).  Exact zeros of the sum are not
    stored."""
    nc, a, b = local.shape
    r = np.broadcast_to(rows[:, :, None], (nc, a, b))
    c = np.broadcast_to(cols[:, None, :], (nc, a, b))
    mask = (r >= 0) & (c >= 0)
    mat = sp.coo_matrix((local[mask], (r[mask], c[mask])), shape=shape).tocsr()
    mat.eliminate_zeros()
    return mat

def scatter_blocks(row_map, col_map, local):
    """Assemble the local blocks (nc, a, b) once for each component, rows
    and columns of the same component from the maps' ``global_dofs``, in one
    ``scatter_matrix`` over every (component, cell)."""
    def dofs(dm):                                  # (ncomp nc, nldof)
        return np.moveaxis(dm.global_dofs, -1, 0).reshape(-1, dm.cell_dofs.shape[1])
    blocks = np.broadcast_to(local, (row_map.ncomp,) + local.shape)
    return scatter_matrix(dofs(row_map), dofs(col_map), blocks.reshape((-1,) + local.shape[1:]),
                          (row_map.n_total, col_map.n_total))

def scatter_symmetric(dofmap, local):
    """Assemble identical local blocks for each component of ``dofmap``."""
    return scatter_blocks(dofmap, dofmap, local)

def scatter_vector(dofmap, local):
    """Accumulate local vectors (nc, nldof[, ncomp]) into a flat rhs."""
    dofs = dofmap.global_dofs
    kept = dofs >= 0
    return np.bincount(dofs[kept], np.reshape(local, dofs.shape)[kept],
                       minlength=dofmap.n_total)


# -- local matrices / loads --------------------------------------------------

def stiffness_local(mesh, family):
    if family == "ECR":
        return elements.ecr_stiffness(mesh)
    if family == "CR":
        return elements.cr_stiffness(mesh)
    raise ValueError(f"no stiffness for family {family!r}")


class CellLoad(NamedTuple):
    """A load already reduced on each cell: its integrals (nc[, ncomp]) and
    its moments against the CR basis (nc, n+1, ncomp), as
    ``load_integrals`` and the CR ``load_vector`` reduce them.  Both take it
    in place of a load: an ECR solve in ``problems`` reduces its load to it
    together with its bubble moments, so that a sampled load is sampled
    once."""

    integrals: np.ndarray
    cr_moments: np.ndarray


def _sample(mesh, f, rule, ncomp, cells):
    """The load on the quadrature points of the cells ``cells``:
    (b, Q[, ncomp]) for the b cells of the slice (see ``load_values``)."""
    b, q = len(range(mesh.n_cells)[cells]), rule.n_points
    shape = (b, q) if ncomp == 1 else (b, q, ncomp)
    if callable(f):
        vals = np.asarray(f(physical_points(mesh, rule.points, cells)), dtype=float)
        if vals.shape != shape:
            raise DataError(f"load callable returned shape {vals.shape}, expected {shape}")
        return vals
    constant = reduce_constant_load(mesh, f, ncomp, "values")
    if constant is not None:
        return np.repeat(constant[0][cells, None], q, axis=1)
    arr = np.asarray(f, dtype=float)
    if arr.shape != (mesh.n_cells,) + shape[1:]:
        raise DataError(f"cannot interpret load of shape {arr.shape}")
    return arr[cells]


def reduce_load(mesh, f, rule, ncomp, *reductions):
    """Per-cell reductions of a load, sampled one block of cells at a time
    (``quadrature.cell_blocks``, sized by a block's physical points): each
    reduction, called as ``reduce(values, cells)`` with the load on the
    points of the cells ``cells`` (b, Q[, ncomp]), returns those cells' rows
    of one (nc, ...) array.  Returns the list of these arrays.  Only one
    block of the sample exists at a time."""
    out = [None] * len(reductions)
    for cells in cell_blocks(mesh.n_cells, rule.n_points * mesh.dim):
        values = _sample(mesh, f, rule, ncomp, cells)
        for i, reduce in enumerate(reductions):
            rows = reduce(values, cells)
            if out[i] is None:
                out[i] = np.empty((mesh.n_cells,) + rows.shape[1:])
            out[i][cells] = rows
    return out


def load_values(mesh, f, rule, ncomp=1):
    """Sample a load on the quadrature grid: callable, per-cell array,
    constant, (for vector loads) a length-ncomp constant tuple, or values
    already sampled on the points of ``rule``, shape (nc, Q[, ncomp]).  A
    callable is evaluated one block of cells at a time (``reduce_load``),
    so that its points and temporaries never span the mesh."""
    return reduce_load(mesh, f, rule, ncomp, lambda values, cells: values)[0]


def load_rule(mesh):
    """The rule a load that is not per-cell constant (a callable, or values
    already sampled on the points of a rule, (nc, Q[, ncomp])) is reduced
    on: degree ``DEFAULT_LOAD_DEGREE``."""
    return rule_for_degree(mesh.dim, DEFAULT_LOAD_DEGREE)


def reduce_constant_load(mesh, f, ncomp, *reductions):
    """The named reductions, in closed form, of a per-cell-constant load f_K
    (a scalar or an (nc,) array; for ncomp > 1 an (ncomp,) or (nc, ncomp)
    array): a list, or None for any other load.  ``"values"`` f_K (a
    read-only view), ``"integrals"`` |K| f_K and ``"bubbles"`` the bubble
    coefficients |K| f_K / ||grad phi_K||^2 are (nc[, ncomp]); ``"CR"`` and
    ``"ECR"`` are the moments (f, phi_a)_K (nc, nldof, ncomp), |K| f_K
    times the average of phi_a over K: 1/(n+1) for a CR function, 0 for an
    ECR facet function and 1 for the bubble (Marini, SINUM 22, 1985)."""
    nc, n = mesh.n_cells, mesh.dim
    shapes = [(), (nc,)] if ncomp == 1 else [(ncomp,), (nc, ncomp)]
    if callable(f) or np.shape(f) not in shapes:
        return None
    values = np.broadcast_to(np.reshape(np.asarray(f, dtype=float), (-1, ncomp)), (nc, ncomp))

    def reduce(name):
        out = values if name == "values" else mesh.cell_measures[:, None] * values
        if name == "CR":
            return np.repeat(out[:, None] / (n + 1), n + 1, axis=1)
        if name == "ECR":
            return np.concatenate([np.zeros((nc, n + 1, ncomp)), out[:, None]], axis=1)
        if name == "bubbles":
            out /= elements.bubble_energy(n, mesh.cell_measures, mesh.cell_H)[:, None]
        elif name not in ("values", "integrals"):
            raise ValueError(f"unknown load reduction {name!r}")
        return out[:, 0] if ncomp == 1 else out
    return [reduce(name) for name in reductions]


def load_integrals(mesh, f, ncomp=1):
    """Per-cell integrals of a load: (nc,) or (nc, ncomp), in closed form
    for a per-cell-constant load, otherwise on its ``load_rule``, reduced
    one block of cells at a time."""
    if isinstance(f, CellLoad):
        return f.integrals
    rule = load_rule(mesh)
    return (reduce_constant_load(mesh, f, ncomp, "integrals") or reduce_load(
        mesh, f, rule, ncomp,
        lambda values, cells: integrate_cellwise(mesh, values, rule, cells)))[0]


def piecewise_constant_load(mesh, f, ncomp=1):
    """Per-cell averages of a load: (nc,) or (nc, ncomp)."""
    meas = mesh.cell_measures if ncomp == 1 else mesh.cell_measures[:, None]
    return load_integrals(mesh, f, ncomp) / meas


def load_moments(mesh, family, rule, values, cells):
    """The local load vectors (f, phi_a)_K of the CR or ECR basis on the
    cells ``cells``, from the load sampled on their points, values
    (b, Q[, ncomp]): (b, nldof, ncomp)."""
    w = cell_weights(mesh, rule, cells)
    if family == "ECR":
        vals, _ = elements.ecr_eval_mesh(mesh, rule.points, cells)
    elif family == "CR":
        cr_vals, _ = elements.cr_eval_mesh(mesh, rule.points)
        vals = np.broadcast_to(cr_vals[None, :, :], (len(w),) + cr_vals.shape)
    else:
        raise ValueError(family)
    return np.einsum("cqa,cqr,cq->car", vals, values.reshape(w.shape + (-1,)), w)


def load_vector(mesh, dofmap, f):
    """The CR or ECR load vector (f, phi_a) over ``dofmap``: in closed form
    for a per-cell-constant load, otherwise on the load's ``load_rule``,
    reduced one block of cells at a time; a CR map also takes a
    ``CellLoad``."""
    if isinstance(f, CellLoad):
        return scatter_vector(dofmap, f.cr_moments)
    rule = load_rule(mesh)
    moments, = (reduce_constant_load(mesh, f, dofmap.ncomp, dofmap.family) or reduce_load(
        mesh, f, rule, dofmap.ncomp,
        lambda values, cells: load_moments(mesh, dofmap.family, rule, values, cells)))
    return scatter_vector(dofmap, moments)


# -- problem systems ---------------------------------------------------------

def assemble_poisson(mesh, f, family="ECR"):
    """Primal Poisson with homogeneous Dirichlet data: SPD stiffness, load
    vector, DOF map.  The `problems` solvers assemble CR only; the
    monolithic ECR system is the oracle for their CR + bubbles solve."""
    A, dm = poisson_stiffness(mesh, family)
    return A, load_vector(mesh, dm, f), dm


def poisson_stiffness(mesh, family):
    """The load-free half of ``assemble_poisson``: the homogeneous-Dirichlet
    stiffness and its DOF map."""
    dm = DofMap.build(mesh, family, dirichlet=True)
    return scatter_symmetric(dm, stiffness_local(mesh, family)), dm


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


def _rt0_divergence(p0, rt):
    """(RT0)^ncomp x (P0)^ncomp divergence block, each component's cells x
    facets: int_K div(psi_i) = s_i."""
    signs = rt.mesh.cell_facet_signs[:, None, :].astype(float)
    return scatter_blocks(p0, rt, signs)


def assemble_mixed_poisson(mesh, f):
    """RT0 x P0 mixed Poisson; natural u = 0, no essential conditions."""
    rt = DofMap.build(mesh, "RT0")
    p0 = DofMap.build(mesh, "P0")
    A = scatter_symmetric(rt, elements.rt0_mass(mesh))
    B = _rt0_divergence(p0, rt)
    system = SaddleSystem(A=A, f=np.zeros(rt.n_total), B=B, g=-load_integrals(mesh, f))
    return system, rt, p0


def zero_mean_dual(mesh, n_primal):
    """The gauge sum_K |K| y_K = 0 of a cellwise dual y, fixing y = 1."""
    zero = np.zeros(n_primal)
    return Constraint(np.concatenate([zero, mesh.cell_measures]),
                      np.concatenate([zero, np.ones(mesh.n_cells)]))


def assemble_stokes(mesh, f, family="ECR"):
    """Nonconforming Stokes: velocity in n components of CR/ECR, piecewise
    constant pressure with zero mean, gauging the constant pressure.  As
    for Poisson, the ECR system is a test oracle only."""
    vel = DofMap.build(mesh, family, dirichlet=True, ncomp=mesh.dim)
    system, prs = stokes_system(vel, scatter_symmetric(vel, stiffness_local(mesh, family)),
                                load_vector(mesh, vel, f))
    return system, vel, prs


def stokes_system(vel, A, b):
    """The Stokes system of ``assemble_stokes`` on the velocity map ``vel``
    with its velocity block A and load vector b given: the divergence block
    and the zero-mean pressure gauge are added.  Returns (system, pressure
    map).  ``problems.solve_stokes`` passes as A n copies of the factorised
    scalar CR stiffness."""
    mesh = vel.mesh
    prs = DofMap.build(mesh, "P0")
    # the ECR bubble's gradient integrates to zero: only the facet columns
    cols = vel.global_dofs[:, : mesh.dim + 1].reshape(mesh.n_cells, -1)
    d = elements.gradient_integrals(mesh).reshape(mesh.n_cells, 1, -1)
    B = scatter_matrix(prs.cell_dofs, cols, d, (prs.n_total, vel.n_total))
    system = SaddleSystem(A=A, f=b, B=B, g=np.zeros(prs.n_total),
                          gauge=zero_mean_dual(mesh, vel.n_total))
    return system, prs


def assemble_pseudostress(mesh, f):
    """Pseudostress Stokes: tensor RT0 rows against (P0)^n, deviatoric form,
    with the global trace-mean constraint gauging the constant tensor I."""
    n = mesh.dim
    sig = DofMap.build(mesh, "RT0", ncomp=n)     # component r = tensor row r
    upo = DofMap.build(mesh, "P0", ncomp=n)
    tensor_dofs = sig.global_dofs.reshape(mesh.n_cells, -1)
    A = scatter_matrix(tensor_dofs, tensor_dofs, elements.rt0_deviatoric_mass(mesh),
                       (sig.n_total, sig.n_total))

    B = _rt0_divergence(upo, sig)
    trace = scatter_vector(sig, elements.rt0_moment(mesh))

    g = upo.coefficients(-load_integrals(mesh, f, n))

    # the constant tensor I: tensor row r has flux nu_F[r] |F| through facet F
    identity = sig.coefficients((mesh.facet_normals
                                 * mesh.facet_measures[:, None])[mesh.cell_facets])
    zero = np.zeros(upo.n_total)
    system = SaddleSystem(A=A, f=np.zeros(sig.n_total), B=B, g=g,
                          gauge=Constraint(np.concatenate([trace, zero]),
                                           np.concatenate([identity, zero])))
    return system, sig, upo


def facet_averages_of(mesh, g):
    """Facet averages of a callable on the degree-MATRIX_DEGREE facet rule
    (or pass-through of a per-facet array)."""
    if callable(g):
        return sampled_facet_averages(mesh, lambda points, facets: g(points))
    arr = np.asarray(g, dtype=float)
    if arr.shape != (mesh.n_facets,):
        raise DataError("per-facet flux data must have one value per facet")
    return arr


def sampled_facet_averages(mesh, sample):
    """Facet averages on the degree-MATRIX_DEGREE facet rule of
    ``sample(points, facets)``, the values (b, Q) at the rule's points
    (b, Q, n) on the facets ``facets`` (a slice).  Sampled one block of
    facets at a time (``cell_blocks``), so that no sample spans the mesh."""
    rule = rule_for_degree(mesh.dim - 1, MATRIX_DEGREE)
    fac = math.factorial(mesh.dim - 1)
    averages = np.empty(mesh.n_facets)
    for block in cell_blocks(mesh.n_facets, rule.n_points * mesh.dim):
        pts = np.einsum("qk,fki->fqi", rule.points, mesh.vertices[mesh.facets[block]])
        vals = np.asarray(sample(pts, block), dtype=float)
        averages[block] = fac * np.einsum("fq,q->f", vals, rule.weights)
    return averages


def check_neumann_compatibility(mesh, f, g_avg):
    total_f = float(load_integrals(mesh, f).sum())
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
    b = load_vector(mesh, dm, f)
    bnd = mesh.boundary_facet_indices()
    b[dm.facet_dofs[bnd]] += g_avg[bnd] * mesh.facet_measures[bnd]

    avg_row = elements.cell_average_row(family, mesh.dim)
    mean = scatter_vector(dm, np.outer(mesh.cell_measures, avg_row))
    system = SaddleSystem(A=A, f=b, gauge=Constraint(mean, np.ones(dm.n_total)))
    return system, dm


def boundary_fluxes(mesh, f, g):
    """The essential boundary fluxes of the mixed Neumann problem, checked
    for compatibility with the load: the canonical flux of the facet
    average of g on each boundary facet, zero on the interior facets (nf,)."""
    g_avg = facet_averages_of(mesh, g)
    check_neumann_compatibility(mesh, f, g_avg)
    bnd = mesh.boundary_facet_indices()
    sigma_bc = np.zeros(mesh.n_facets)
    sigma_bc[bnd] = mesh.boundary_facet_signs() * g_avg[bnd] * mesh.facet_measures[bnd]
    return sigma_bc


def assemble_neumann_mixed(mesh, f, g):
    """Mixed Neumann problem: boundary fluxes are essential (facet averages
    of g), the test space drops them, and u has zero mean, gauging u = 1.
    The `problems` solver gates its hybridised solve on this system, applied
    from the local blocks; the assembled system is its test oracle.

    Returns (system, rt map, p0 map, interior facet ids, boundary flux
    coefficient vector over all facets)."""
    sigma_bc = boundary_fluxes(mesh, f, g)
    system_full, rt, p0 = assemble_mixed_poisson(mesh, f)
    A, B, g_vec = system_full.A, system_full.B, system_full.g

    bnd = mesh.boundary_facet_indices()
    interior = mesh.interior_facet_indices()

    A_ii = A[interior][:, interior].tocsr()
    A_ib = A[interior][:, bnd].tocsr()
    B_i = B[:, interior].tocsr()
    B_b = B[:, bnd].tocsr()
    f_red = -A_ib @ sigma_bc[bnd]
    g_red = g_vec - B_b @ sigma_bc[bnd]
    system = SaddleSystem(A=A_ii, f=f_red, B=B_i, g=g_red,
                          gauge=zero_mean_dual(mesh, len(interior)))
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
        M = scatter_symmetric(dm, elements.ecr_mass(mesh) if family == "ECR"
                              else elements.cr_mass(mesh))
    else:
        avg_row = elements.cell_average_row(family, mesh.dim)
        local = np.einsum("a,b,c->cab", avg_row, avg_row, mesh.cell_measures)
        M = scatter_symmetric(dm, local)
    return A, M, dm
