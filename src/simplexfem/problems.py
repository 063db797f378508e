"""Discrete fields and end-to-end drivers for the Poisson, Stokes and
Laplace-eigenvalue model problems, plus exact-solution fixtures.

Field values and gradients are closed forms in each cell's affine parts;
no basis function is evaluated for them.  The drivers take a mesh and the
problem data only: loads are sampled on the rule of degree
``assembly.DEFAULT_LOAD_DEGREE`` and every solve is gated at
``linsolve.RESIDUAL_TOL``.  Only ``solve_eigen`` takes a
``linsolve.SolverConfig``, which picks the eigensolver and seeds its start
vector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import assembly, elements, linsolve
from .quadrature import cell_weights, physical_points, rule_for_degree


# -- discrete fields ---------------------------------------------------------

@dataclass
class BrokenField:
    """Coefficient vector over a DofMap for a CR/ECR/P0 (vector) field.

    Coefficients are the average-normalized DOF values: facet averages and,
    for ECR, cell averages (so the piecewise-constant projection of an ECR
    field is exactly its cell-coefficient block).
    """

    dofmap: assembly.DofMap
    coeffs: np.ndarray

    @property
    def mesh(self):
        return self.dofmap.mesh

    @property
    def ncomp(self):
        return self.dofmap.ncomp

    def values(self, bary):
        """(nc, Q) for scalar fields, (nc, Q, ncomp) for vector fields.

        On K, with dx = x - mid K, the cell average m_K and the gradient
        parts (g_K, r_K): u = m_K + g_K . dx + (r_K / 2)(|dx|^2 - tr S_K / |K|),
        and u = m_K for P0.  dx = sum_k lam_k d_k is taken in barycentric
        form, with d_k the vertices of K less mid K."""
        mesh, bary = self.mesh, np.asarray(bary)
        m = self.cell_averages()
        if self.dofmap.family == "P0":
            return np.repeat(m[:, None], len(bary), axis=1)
        g, r = self.gradient_parts()
        dx = bary @ (mesh.vertices[mesh.cells] - mesh.cell_centroids[:, None])
        mean_sq = np.einsum("cii->c", mesh.cell_second_moments) / mesh.cell_measures
        sq = np.einsum("cqn,cqn->cq", dx, dx) - mean_sq[:, None]
        return (m[:, None] + np.einsum("cqn,c...n->cq...", dx, g)
                + 0.5 * np.einsum("c...,cq->cq...", r, sq))

    def gradient_parts(self):
        """Cellwise representation grad u|_K = g_K + r_K (x - mid K) of the
        broken gradient of a CR/ECR field: (g (nc, n), r (nc,)) for a scalar
        field and (g (nc, ncomp, n), r (nc, ncomp)) for an ncomp-component
        one; r = 0 for CR."""
        mesh, n, fam = self.mesh, self.mesh.dim, self.dofmap.family
        if fam not in ("CR", "ECR"):
            raise ValueError(f"gradient parts need a CR or ECR field, not {fam!r}")
        local = self.dofmap.gather(self.coeffs)            # (nc, n+1[+1], ncomp)
        cr_part = local[:, : n + 1]
        g = -n * np.einsum("car,can->crn", cr_part, mesh.barycentric_gradients)
        if fam == "ECR":
            strength = elements.bubble_strength(n, mesh.cell_H)
            r = -(local[:, n + 1] - cr_part.sum(axis=1) / (n + 1)) * strength[:, None]
        else:
            r = np.zeros((mesh.n_cells, self.ncomp))
        return (g[:, 0], r[:, 0]) if self.ncomp == 1 else (g, r)

    def gradients(self, bary):
        """(nc, Q, n) for scalar fields, (nc, Q, ncomp, n) for vector."""
        g, r = self.gradient_parts()
        dx = physical_points(self.mesh, np.asarray(bary)) - self.mesh.cell_centroids[:, None]
        return g[:, None] + np.einsum("c...,cqn->cq...n", r, dx)

    def cell_averages(self):
        """Exact cellwise averages: (nc,) or (nc, ncomp)."""
        local = self.dofmap.gather(self.coeffs)
        row = elements.cell_average_row(self.dofmap.family, self.mesh.dim)
        out = np.einsum("a,car->cr", row, local)
        return out[:, 0] if self.ncomp == 1 else out

    def facet_averages(self):
        """Facet-average coefficients (nf,) or (nf, ncomp); zero on
        eliminated Dirichlet facets."""
        if self.dofmap.facet_dofs is None:
            raise ValueError("facet averages need a facet-based family")
        coeffs = self.coeffs.reshape(self.ncomp, self.dofmap.n_scalar)
        fd = self.dofmap.facet_dofs
        out = np.where(fd[None, :] >= 0, coeffs[:, np.where(fd >= 0, fd, 0)], 0.0)
        return out[0] if self.ncomp == 1 else out.T


@dataclass
class RTField:
    """H(div)-conforming RT0 field (ncomp = 1) or row-wise tensor field
    (ncomp = n): coefficients are canonical facet fluxes per row."""

    dofmap: assembly.DofMap
    coeffs: np.ndarray

    @property
    def mesh(self):
        return self.dofmap.mesh

    @property
    def ncomp(self):
        return self.dofmap.ncomp

    def values(self, bary):
        """(nc, Q, n) for a vector field, (nc, Q, ncomp, n) rows for a
        tensor field: c_K + r_K (x - mid K) from ``affine_parts``."""
        c, r = self.affine_parts()
        dx = physical_points(self.mesh, np.asarray(bary)) - self.mesh.cell_centroids[:, None]
        return c[:, None] + np.einsum("c...,cqn->cq...n", r, dx)

    def cell_divergence(self):
        """Exact cellwise-constant divergence: (nc,) or (nc, ncomp)."""
        local = self.dofmap.gather(self.coeffs)
        signs = self.mesh.cell_facet_signs
        out = np.einsum("ci,cir->cr", signs, local) / self.mesh.cell_measures[:, None]
        return out[:, 0] if self.ncomp == 1 else out

    def affine_parts(self):
        """Cellwise representation field|_K = c_K + r_K (x - mid K) from RT0
        geometry only: c_K = sum_i x_i int_K psi_i / |K| and r_K = div / n.
        (c (nc, n), r (nc,)) for a vector field, (c (nc, ncomp, n),
        r (nc, ncomp)) rows for a tensor field."""
        local = self.dofmap.gather(self.coeffs)        # (nc, n+1, ncomp)
        c = (np.einsum("cir,cin->crn", local, elements.rt0_moment(self.mesh))
             / self.mesh.cell_measures[:, None, None])
        r = self.cell_divergence() / self.mesh.dim
        return (c[:, 0], r) if self.ncomp == 1 else (c, r)


@dataclass(frozen=True)
class ExactSolution:
    """Manufactured solution: value, gradient and load are consistent by
    construction."""

    label: str
    u: Callable
    grad: Callable
    f: Callable


def sine_solution(dim):
    """u = prod sin(pi x_i) on the unit box, f = dim*pi^2*u."""
    def u(x):
        return np.prod(np.sin(np.pi * np.asarray(x)), axis=-1)

    def grad(x):
        x = np.asarray(x)
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        out = np.empty_like(x)
        for i in range(dim):
            others = [s[..., j] for j in range(dim) if j != i]
            out[..., i] = np.pi * c[..., i] * np.prod(others, axis=0)
        return out

    def f(x):
        return dim * np.pi ** 2 * u(x)

    return ExactSolution(f"sine{dim}d", u, grad, f)


def quadratic_neumann_solution(dim):
    """u = sum x_i^2 with f = -2*dim; the outward flux 2 x.nu is constant on
    every straight boundary facet."""
    def u(x):
        return (np.asarray(x) ** 2).sum(axis=-1)

    def grad(x):
        return 2.0 * np.asarray(x)

    def f(x):
        x = np.asarray(x)
        return np.full(x.shape[:-1], -2.0 * dim)

    return ExactSolution(f"quadratic{dim}d", u, grad, f)


def outward_flux_averages(mesh, grad_u):
    """Facet averages of grad_u . nu_out on boundary facets, zero elsewhere;
    signs follow the canonical facet orientation bookkeeping."""
    avg = assembly.facet_averages_of(mesh, lambda x: np.einsum(
        "fqi,fi->fq", np.asarray(grad_u(x), dtype=float), mesh.facet_normals))
    bnd = mesh.boundary_facet_indices()
    out = np.zeros(mesh.n_facets)
    out[bnd] = mesh.boundary_facet_signs() * avg[bnd]
    return out


# -- drivers -----------------------------------------------------------------
#
# ECR = CR + cell bubbles, and the split is exact for every primal problem:
# a bubble's gradient integrates to zero on its cell, so it is
# stiffness-orthogonal to CR and has no column in the Stokes divergence, and
# its facet averages (where Neumann data enter) vanish.  An ECR solution is
# therefore the CR solution of the same load plus one closed-form bubble
# coefficient per cell (Arnold & Brezzi, M2AN 19, 1985); no ECR system is
# factorised.  The monolithic ECR assembly is kept as a test oracle only.

def bubble_coefficients(mesh, f, ncomp=1):
    """Per-cell bubble coefficients (f, phi_K)_K / ||grad phi_K||_K^2 of a
    load: (nc,) or (nc, ncomp)."""
    rule = rule_for_degree(mesh.dim, assembly.DEFAULT_LOAD_DEGREE)
    bubble, _ = elements.bubble_eval_mesh(mesh, rule.points)
    fv = assembly.load_values(mesh, f, rule, ncomp)
    moments = np.einsum("cq,cq...->c...", bubble * cell_weights(mesh, rule), fv)
    energy = elements.bubble_energy(mesh.dim, mesh.cell_measures, mesh.cell_H)
    return moments / (energy if ncomp == 1 else energy[:, None])


def _cr_load(mesh, f, family, ncomp=1):
    """The load for the CR system and, for ECR, the bubble coefficients,
    both from one sample of f (None for CR)."""
    if family == "CR":
        return f, None
    if family != "ECR":
        raise ValueError(f"primal problems support families CR and ECR, not {family!r}")
    rule = rule_for_degree(mesh.dim, assembly.DEFAULT_LOAD_DEGREE)
    fv = assembly.load_values(mesh, f, rule, ncomp)
    return fv, bubble_coefficients(mesh, fv, ncomp)


def _with_bubbles(cr, bubbles):
    """The ECR field CR + bubbles, per component: its facet averages are the
    CR coefficients, its cell averages the bubble coefficient plus the mean
    of the cell's CR facet coefficients.  The CR field itself for CR
    (``bubbles`` None)."""
    if bubbles is None:
        return cr
    mesh, ncomp = cr.mesh, cr.ncomp
    dm = assembly.DofMap.build(mesh, "ECR", cr.dofmap.dirichlet, ncomp)
    cells = bubbles.reshape(mesh.n_cells, ncomp) + cr.dofmap.gather(cr.coeffs).mean(axis=1)
    coeffs = np.hstack([cr.coeffs.reshape(ncomp, -1), cells.T])
    return BrokenField(dm, coeffs.ravel())


def solve_poisson(mesh, f, family="ECR"):
    """Homogeneous-Dirichlet Poisson by the CR or ECR method; ECR is the CR
    solve plus closed-form bubbles."""
    load, bubbles = _cr_load(mesh, f, family)
    A, b, dm = assembly.assemble_poisson(mesh, load, "CR")
    return _with_bubbles(BrokenField(dm, linsolve.solve_spd(A, b)), bubbles)


def solve_poisson_mixed(mesh, f):
    """Mixed Poisson by the RT0 x P0 pair: (flux field, displacement)."""
    system, rt, p0 = assembly.assemble_mixed_poisson(mesh, f)
    x, y, _ = linsolve.solve_saddle(system)
    return RTField(rt, x), BrokenField(p0, y)


def solve_stokes(mesh, f, family="ECR"):
    """Stokes by the (CR/ECR)^n x P0 pair: (velocity, zero-mean pressure).
    ECR is the CR solve plus closed-form bubbles in each velocity component,
    with the CR pressure."""
    load, bubbles = _cr_load(mesh, f, family, mesh.dim)
    system, vel, prs = assembly.assemble_stokes(mesh, load, "CR")
    x, y, _ = linsolve.solve_saddle(system)
    return _with_bubbles(BrokenField(vel, x), bubbles), BrokenField(prs, y)


def solve_stokes_mixed(mesh, f):
    """Pseudostress Stokes by tensor RT0 x (P0)^n: (pseudostress,
    displacement)."""
    system, sig, upo = assembly.assemble_pseudostress(mesh, f)
    x, y, _ = linsolve.solve_saddle(system)
    return RTField(sig, x), BrokenField(upo, y)


def solve_neumann(mesh, f, g, form="ecr"):
    """Pure-Neumann Poisson problem.

    ``form`` selects primal ECR/CR (returns the zero-mean BrokenField) or the
    mixed RT0 method (returns (flux field, zero-mean displacement)).  ECR is
    the zero-mean CR solve plus closed-form bubbles, shifted by a constant
    back to zero mean.
    """
    if form in ("ecr", "cr"):
        load, bubbles = _cr_load(mesh, f, form.upper())
        system, dm = assembly.assemble_neumann_primal(mesh, load, g, "CR")
        x, _, _ = linsolve.solve_saddle(system)
        u = _with_bubbles(BrokenField(dm, x), bubbles)
        if bubbles is not None:
            u.coeffs -= mesh.cell_measures @ u.cell_averages() / mesh.cell_measures.sum()
        return u
    if form == "mixed":
        system, rt, p0, interior, sigma_bc = assembly.assemble_neumann_mixed(mesh, f, g)
        x, y, _ = linsolve.solve_saddle(system)
        sigma = sigma_bc.copy()
        sigma[interior] = x
        return RTField(rt, sigma), BrokenField(p0, y)
    raise ValueError(f"unknown Neumann form {form!r}")


@dataclass
class EigenPair:
    """One discrete eigenpair; which fields are set depends on the family."""

    lam: float
    primal: Optional[BrokenField] = None   # ECR / CR / RT-equiv eigenfunction
    sigma: Optional[RTField] = None        # RT-mixed flux
    u: Optional[BrokenField] = None        # RT-mixed piecewise constant


def solve_eigen(mesh, family="ECR", k=1, config=None):
    """k smallest Dirichlet-Laplacian eigenpairs.

    Families: "ECR"/"CR" (primal, full mass, ||u|| = 1), "RT-mixed" (the
    saddle pencil -[[A, B^T], [B, 0]] (sigma, u) = lam diag(0, |K|) (sigma, u),
    ||u_RT|| = 1) and "RT-equiv" (ECR stiffness against the projected mass,
    ||Pi0 phi|| = 1).  Both RT pencils have one finite eigenvalue per cell.
    ``config`` (a ``linsolve.SolverConfig``) picks the dense or the ARPACK
    eigensolver and seeds ARPACK's start vector.
    """
    if family in ("ECR", "CR", "RT-equiv"):
        fam, mass = ("ECR", "projected") if family == "RT-equiv" else (family, "full")
        A, M, dm = assembly.assemble_eigen(mesh, fam, mass)
        lams, X = linsolve.eig_smallest(A, M, k, config)
        return [EigenPair(lam=float(l), primal=BrokenField(dm, x))
                for l, x in zip(lams, X.T)]
    if family == "RT-mixed":
        system, rt, p0 = assembly.assemble_mixed_poisson(mesh, 0.0)
        M = sp.diags(np.concatenate([np.zeros(rt.n_total), mesh.cell_measures]))
        lams, X = linsolve.eig_smallest(-linsolve.saddle_matrix(system), M, k, config)
        return [EigenPair(lam=float(l), sigma=RTField(rt, x[:rt.n_total]),
                          u=BrokenField(p0, x[rt.n_total:]))
                for l, x in zip(lams, X.T)]
    raise ValueError(f"unknown eigen family {family!r}")
