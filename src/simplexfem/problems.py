"""Discrete fields and end-to-end drivers for the Poisson, Stokes and
Laplace-eigenvalue model problems, plus exact-solution fixtures.

Field values and gradients are closed forms in each cell's affine parts;
no basis function is evaluated for them.  Each field's samplers take a
slice of cells and its parts once, so that ``analysis`` samples a field
one block of cells at a time.  The drivers take a mesh and the problem
data: a per-cell-constant load is reduced in closed form
(``assembly.reduce_constant_load``), any other load is sampled one block
of cells at a time (``assembly.reduce_load``) on the degree
``assembly.DEFAULT_LOAD_DEGREE`` rule, and every solve is gated at
``linsolve.RESIDUAL_TOL``.  Only ``solve_eigen`` takes a
``linsolve.SolverConfig``, which seeds ARPACK's start vector.

Each Dirichlet Poisson solve has a mesh-only half: ``poisson_operator``,
the factorised CR stiffness, and ``hybrid.hybrid_operator``, the local
elimination of the hybridised RT0 solve with its factorised multiplier
matrix S; so has each pure-Neumann one: ``neumann_operator``, the gauged
CR stiffness, and ``hybrid.hybrid_operator(mesh, neumann=True)``.
``solve_poisson`` (CR and ECR alike, since ECR is the CR solve plus
bubbles), ``solve_poisson_mixed``, ``solve_stokes``, ``solve_stokes_mixed``,
``solve_eigen`` and ``solve_neumann`` keep these operators of the last mesh
they solved in one memo (keys "CR", "RT0", "pseudostress", "neumann CR",
"neumann RT0"), each built on first use, so that further loads on that
mesh, the ECR and CR solves of one load included, factorise nothing; the
two pure-Neumann ones are not kept together.  These SPD matrices, each
factorised once per mesh, are all the package factorises: every Poisson,
Stokes and eigen solve of a mesh the same two of one row per interior
facet.  The memo holds that mesh by weak reference: it drops its operators
when the mesh is freed, and when a solve on another mesh starts, before
that mesh's load is sampled, so a sweep over levels holds one mesh's
factors at a time.
Both Stokes solves are saddle systems whose primal block is n copies of
one of these two matrices, and each is solved on its pressure Schur
complement (``linsolve.solve_schur``) with that matrix's factor applied
component by component: ``solve_stokes`` with the CR factor,
``solve_stokes_mixed`` with the factor of S, which the memo's
``hybrid.pseudostress_operator`` takes from the memo's RT0 operator.  The
mixed solves are the RT side of every certificate; ``hybrid`` holds them,
and it reads no CR or ECR code."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import assembly, elements, hybrid, linsolve
from .quadrature import centred_points, integrate_cellwise


# -- discrete fields ---------------------------------------------------------

def _affine_values(mesh, c, r, bary, cells=slice(None)):
    """The cellwise affine field c_K + r_K (x - mid K) at barycentric
    points on the cells ``cells`` (a slice, all by default): (b, Q, n) from
    (c (nc, n), r (nc,)), built in place on the centred points, or
    (b, Q, m, n) rows from (c (nc, m, n), r (nc, m))."""
    dx = centred_points(mesh, bary, cells)
    c, r = c[cells], r[cells]
    if r.ndim == 2:
        return c[:, None] + np.einsum("cm,cqn->cqmn", r, dx)
    dx *= r[:, None, None]
    dx += c[:, None]
    return dx


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

    def values(self, bary, cells=slice(None)):
        """(nc, Q) for scalar fields, (nc, Q, ncomp) for vector fields, on
        the cells ``cells`` (a slice, all by default).

        On K, with dx = x - mid K, the cell average m_K and the gradient
        parts (g_K, r_K): u = m_K + g_K . dx + (r_K / 2)(|dx|^2 - tr S_K / |K|),
        and u = m_K for P0, with dx from ``quadrature.centred_points``."""
        return self.value_sampler()(bary, cells)

    def value_sampler(self):
        """``values`` as a function of (bary, cells) that takes the field's
        cellwise parts once, for sampling one block of cells at a time."""
        mesh = self.mesh
        m = self.cell_averages()
        if self.dofmap.family == "P0":
            return lambda bary, cells=slice(None): np.repeat(m[cells, None], len(bary), axis=1)
        g, r = self.gradient_parts()
        mean_sq = np.einsum("cii->c", mesh.cell_second_moments) / mesh.cell_measures

        def sample(bary, cells=slice(None)):
            dx = centred_points(mesh, np.asarray(bary), cells)
            sq = np.einsum("cqn,cqn->cq", dx, dx) - mean_sq[cells, None]
            return (m[cells, None] + np.einsum("cqn,c...n->cq...", dx, g[cells])
                    + 0.5 * np.einsum("c...,cq->cq...", r[cells], sq))
        return sample

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

    def gradients(self, bary, cells=slice(None)):
        """(nc, Q, n) for scalar fields, (nc, Q, ncomp, n) for vector, on
        the cells ``cells``."""
        return self.gradient_sampler()(bary, cells)

    def gradient_sampler(self):
        """``gradients`` as a function of (bary, cells) that takes the
        gradient parts once."""
        return partial(_affine_values, self.mesh, *self.gradient_parts())

    def cell_averages(self):
        """Exact cellwise averages: (nc,) or (nc, ncomp)."""
        local = self.dofmap.gather(self.coeffs)
        row = elements.cell_average_row(self.dofmap.family, self.mesh.dim)
        out = np.einsum("a,car->cr", row, local)
        return out[:, 0] if self.ncomp == 1 else out


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

    def values(self, bary, cells=slice(None)):
        """(nc, Q, n) for a vector field, (nc, Q, ncomp, n) rows for a
        tensor field, on the cells ``cells``: c_K + r_K (x - mid K) from
        ``affine_parts``."""
        return self.value_sampler()(bary, cells)

    def value_sampler(self):
        """``values`` as a function of (bary, cells) that takes the affine
        parts once."""
        return partial(_affine_values, self.mesh, *self.affine_parts())

    def cell_divergence(self, local=None):
        """Exact cellwise-constant divergence: (nc,) or (nc, ncomp), from
        the ``gather`` of the coefficients, ``local``, if given."""
        if local is None:
            local = self.dofmap.gather(self.coeffs)
        signs = self.mesh.cell_facet_signs
        out = np.einsum("ci,cir->cr", signs, local) / self.mesh.cell_measures[:, None]
        return out[:, 0] if self.ncomp == 1 else out

    def affine_parts(self):
        """Cellwise representation field|_K = c_K + r_K (x - mid K) from RT0
        geometry only: c_K = sum_i x_i int_K psi_i / |K| and r_K = div / n.
        (c (nc, n), r (nc,)) for a vector field, (c (nc, ncomp, n),
        r (nc, ncomp)) rows for a tensor field.  The moments int_K psi_i are
        the mesh's ``cached`` ``elements.rt0_moment``."""
        mesh = self.mesh
        local = self.dofmap.gather(self.coeffs)        # (nc, n+1, ncomp)
        c = (np.einsum("cir,cin->crn", local, mesh.cached(elements.rt0_moment))
             / mesh.cell_measures[:, None, None])
        r = self.cell_divergence(local) / mesh.dim
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
    """u = prod sin(pi x_i) on the unit box, f = dim*pi^2*u.  Each call
    takes one sin (and for grad one cos) of pi x, in place on a new array,
    and writes the products out, so that a sample holds at most two arrays
    of the shape of x; x itself is left as it is."""
    def u(x):
        s = np.multiply(np.pi, x, dtype=float)
        np.sin(s, out=s)
        out = s[..., 0].copy()
        for i in range(1, dim):
            out *= s[..., i]
        return out

    def grad(x):
        s = np.multiply(np.pi, x, dtype=float)
        c = np.cos(s)
        np.sin(s, out=s)
        c *= np.pi
        for i in range(dim):
            others = [s[..., j] for j in range(dim) if j != i]
            if others:
                c[..., i] *= reduce(np.multiply, others)
        return c

    def f(x):
        out = u(x)
        out *= dim * np.pi ** 2
        return out

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
    avg = assembly.sampled_facet_averages(mesh, lambda x, facets: np.einsum(
        "fqi,fi->fq", np.asarray(grad_u(x), dtype=float), mesh.facet_normals[facets]))
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
# factorised.  The ECR eigen solves invert the same way (``bubble_split``);
# the assembled ECR stiffness only gates their residuals, and is otherwise
# a test oracle.

def _bubble_reduction(mesh, rule):
    """The ``assembly.reduce_load`` reduction of a block of cells to its
    bubble coefficients: (b,) or (b, ncomp).  The sum over the points,
    sum_q w_q phi_K(x_q) f(x_q), forms only the (b, Q) bubble values
    besides the load sample; the physical weights n! |K| are applied after
    it, and the bubble energy is divided out."""
    n = mesh.dim
    scale = (math.factorial(n) * mesh.cell_measures
             / elements.bubble_energy(n, mesh.cell_measures, mesh.cell_H))

    def reduce(values, cells):
        moments = np.einsum("cq,q,cq...->c...", elements.bubble_values(mesh, rule.points, cells),
                            rule.weights, values)
        return moments * (scale[cells] if moments.ndim == 1 else scale[cells, None])
    return reduce


def bubble_coefficients(mesh, f, ncomp=1):
    """Per-cell bubble coefficients (f, phi_K)_K / ||grad phi_K||_K^2 of a
    load: (nc,) or (nc, ncomp), in closed form for a per-cell-constant load
    (``assembly.reduce_constant_load``), otherwise reduced one block of
    cells at a time."""
    rule = assembly.load_rule(mesh)
    return (assembly.reduce_constant_load(mesh, f, ncomp, "bubbles")
            or assembly.reduce_load(mesh, f, rule, ncomp, _bubble_reduction(mesh, rule)))[0]


def _cr_system(mesh, f, family, assemble, ncomp=1):
    """``assemble(load)`` of the CR system and, for ECR, the bubble
    coefficients (None for CR).  For ECR the load is reduced to its
    integrals, CR moments and bubble coefficients, in closed form for a
    per-cell-constant load and otherwise in one pass over blocks of cells
    that samples f once; ``assemble`` gets the first two as an
    ``assembly.CellLoad``.  No sample of f outlives its block."""
    if family == "CR":
        return assemble(f), None
    if family != "ECR":
        raise ValueError(f"primal problems support families CR and ECR, not {family!r}")
    rule = assembly.load_rule(mesh)
    integrals, moments, bubbles = (
        assembly.reduce_constant_load(mesh, f, ncomp, "integrals", "CR", "bubbles")
        or assembly.reduce_load(
            mesh, f, rule, ncomp,
            lambda values, cells: integrate_cellwise(mesh, values, rule, cells),
            lambda values, cells: assembly.load_moments(mesh, "CR", rule, values, cells),
            _bubble_reduction(mesh, rule)))
    return assemble(assembly.CellLoad(integrals, moments)), bubbles


def bubble_split(dm):
    """The change of basis of ECR = CR + bubbles on the ECR DOF map ``dm``
    (scalar numbering; each component of a vector map uses it alike):
    x = T (c, b) are the ECR coefficients of the CR field with facet
    coefficients c plus the bubble b_K phi_K of each cell K.  The facet
    rows of x are c; the cell row of K is b_K plus the mean of K's facet
    coefficients, the CR field's cell average.  T^T A_ECR T is
    blockdiag(A_CR, diag(||grad phi_K||^2)): the bubbles are
    stiffness-orthogonal to CR.  Sparse, (n, n)."""
    mesh = dm.mesh
    n, nc = mesh.dim, mesh.n_cells
    n_cr = dm.n_scalar - nc
    mean = assembly.scatter_matrix(np.arange(nc)[:, None], dm.cell_dofs[:, :n + 1],
                                   np.full((nc, 1, n + 1), 1.0 / (n + 1)), (nc, n_cr))
    return sp.bmat([[sp.identity(n_cr), None], [mean, sp.identity(nc)]], format="csr")


def _with_bubbles(cr, bubbles):
    """The ECR field CR + bubbles, per component: its facet averages are the
    CR coefficients, its cell averages the bubble coefficient plus the mean
    of the cell's CR facet coefficients: ``bubble_split`` applied without
    building it, as every ECR solve needs it once.  Each component's ECR
    numbering is its CR one followed by the cells.  The CR field itself for
    CR (``bubbles`` None)."""
    if bubbles is None:
        return cr
    local = cr.dofmap.gather(cr.coeffs)                     # (nc, n+1, ncomp)
    cells = bubbles.reshape(local[:, 0].shape) + local.mean(axis=1)
    dm = assembly.DofMap.build(cr.mesh, "ECR", cr.dofmap.dirichlet, cr.ncomp)
    coeffs = np.concatenate([cr.coeffs.reshape(cr.ncomp, -1), cells.T], axis=1)
    return BrokenField(dm, coeffs.ravel())


def poisson_operator(mesh):
    """The mesh-only half of the homogeneous-Dirichlet CR Poisson solve:
    the CR stiffness, factorised (a ``linsolve.Factor``).  It holds no
    reference to the mesh, so it carries no DOF map (a ``DofMap`` holds its
    mesh); ``solve_poisson`` builds the map, by one indexing of the cells'
    facets."""
    A, dm = assembly.poisson_stiffness(mesh, "CR")
    return linsolve.Factor(assembly.SaddleSystem(A, np.zeros(dm.n_total)))


# -- the Poisson operators of the last mesh solved (see the module doc) ------

_last_mesh = None                  # weak reference to the last mesh solved
_operators = {}                    # its operators, by the keys of ``_operator``


def _forget(ref):
    """Drop the operators when the mesh they belong to is freed."""
    if ref is _last_mesh:
        _operators.clear()


def _remember(mesh):
    """Make ``mesh`` the memo's mesh; the operators of any other mesh are
    dropped first.  Called before a load is sampled."""
    global _last_mesh
    if _last_mesh is None or _last_mesh() is not mesh:
        _operators.clear()
        _last_mesh = weakref.ref(mesh, _forget)


def _operator(mesh, family):
    """The memo's ``family`` operator of ``mesh``, built on first use.  The
    two pure-Neumann operators are not kept together: no solve needs both,
    and building one drops the other first."""
    _remember(mesh)
    if family not in _operators:
        build = {"CR": poisson_operator, "RT0": hybrid.hybrid_operator,
                 "pseudostress": lambda m: hybrid.pseudostress_operator(m, _operator(m, "RT0")),
                 "neumann CR": neumann_operator,
                 "neumann RT0": partial(hybrid.hybrid_operator, neumann=True)}[family]
        _operators.pop({"neumann CR": "neumann RT0", "neumann RT0": "neumann CR"}.get(family), None)
        _operators[family] = build(mesh)
    return _operators[family]


def solve_poisson(mesh, f, family="ECR"):
    """Homogeneous-Dirichlet Poisson by the CR or ECR method; ECR is the CR
    solve plus closed-form bubbles, so both solve with the same factor, the
    memo's ``poisson_operator(mesh)``.  The load is sampled before that
    operator is built and dies before it is used."""
    _remember(mesh)
    dm = assembly.DofMap.build(mesh, "CR", dirichlet=True)
    b, bubbles = _cr_system(mesh, f, family, lambda load: assembly.load_vector(mesh, dm, load))
    operator = _operator(mesh, "CR")
    x, _, _ = linsolve.solve(assembly.SaddleSystem(operator.K, b), operator)
    return _with_bubbles(BrokenField(dm, x), bubbles)


def solve_poisson_mixed(mesh, f):
    """Mixed Poisson by the RT0 x P0 pair: (flux field, displacement).
    Solved hybridised (``hybrid._solve_rt0_hybrid``) with the memo's
    ``hybrid.hybrid_operator(mesh)``, built after the load is sampled, and
    gated on the residual of the unhybridised system."""
    _remember(mesh)
    g = -assembly.load_integrals(mesh, f)
    x, y = hybrid._solve_rt0_hybrid(mesh, g, _operator(mesh, "RT0"))
    return (RTField(assembly.DofMap.build(mesh, "RT0"), x),
            BrokenField(assembly.DofMap.build(mesh, "P0"), y))


def solve_stokes(mesh, f, family="ECR"):
    """Stokes by the (CR/ECR)^n x P0 pair: (velocity, zero-mean pressure).
    ECR is the CR solve plus closed-form bubbles in each velocity component,
    with the CR pressure.

    The CR-Stokes velocity block A is n copies of the CR stiffness, so the
    system is solved on its pressure Schur complement
    (``linsolve.solve_schur``) with A^-1 applied component by component
    by the memo's ``poisson_operator(mesh)``: no saddle matrix is
    factorised, and the Poisson and Stokes solves of a mesh share one
    factor.  A itself is n copies of that operator's stiffness, so the CR
    stiffness is assembled once per mesh.  The load is sampled before that
    operator is built."""
    _remember(mesh)
    n = mesh.dim
    vel = assembly.DofMap.build(mesh, "CR", dirichlet=True, ncomp=n)
    b, bubbles = _cr_system(mesh, f, family, lambda load: assembly.load_vector(mesh, vel, load), n)
    operator = _operator(mesh, "CR")
    system, prs = assembly.stokes_system(vel, sp.block_diag([operator.K] * n, format="csr"), b)
    x, y, _ = linsolve.solve_schur(system, linsolve.componentwise(operator.lu, n))
    return _with_bubbles(BrokenField(vel, x), bubbles), BrokenField(prs, y)


def solve_stokes_mixed(mesh, f):
    """Pseudostress Stokes by tensor RT0 x (P0)^n: (pseudostress,
    displacement), with int tr sigma = 0.  Solved hybridised
    (``hybrid._solve_pseudostress``) with the memo's
    ``hybrid.pseudostress_operator``, built with the memo's RT0 operator
    after the load is sampled, and gated on the residual of the
    unhybridised system; both serve every further load on the mesh."""
    n = mesh.dim
    _remember(mesh)
    g = -assembly.load_integrals(mesh, f, n)                            # (nc, n)
    sigma, u = hybrid._solve_pseudostress(mesh, g, _operator(mesh, "pseudostress"))
    return (RTField(assembly.DofMap.build(mesh, "RT0", ncomp=n), sigma),
            BrokenField(assembly.DofMap.build(mesh, "P0", ncomp=n), u))


def neumann_operator(mesh):
    """The mesh-only half of the pure-Neumann CR solve: the gauged CR
    stiffness without boundary conditions as a SaddleSystem with a zero
    load, and its ``linsolve.Factor``.  It holds no reference to the mesh."""
    A, dm, gauge = assembly.neumann_stiffness(mesh, "CR")
    system = assembly.SaddleSystem(A, np.zeros(dm.n_total), gauge=gauge)
    return system, linsolve.Factor(system)


def solve_neumann(mesh, f, g, form="ecr"):
    """Pure-Neumann Poisson problem.

    ``form`` selects primal ECR/CR (returns the zero-mean BrokenField) or the
    mixed RT0 method (returns (flux field, zero-mean displacement)).  ECR is
    the zero-mean CR solve plus closed-form bubbles, shifted by a constant
    back to zero mean; both solve with the memo's ``neumann_operator``, the
    mixed form with its ``hybrid.hybrid_operator(mesh, neumann=True)``, each
    built after the load is sampled; the memo keeps one of the two.
    """
    _remember(mesh)
    if form in ("ecr", "cr"):
        dm = assembly.DofMap.build(mesh, "CR", dirichlet=False)
        b, bubbles = _cr_system(mesh, f, form.upper(),
                                lambda load: assembly.neumann_load(mesh, dm, load, g))
        system, factor = _operator(mesh, "neumann CR")
        x, _, _ = linsolve.solve(replace(system, f=b), factor)
        u = _with_bubbles(BrokenField(dm, x), bubbles)
        if bubbles is not None:
            mean = np.einsum("c,c->", mesh.cell_measures, u.cell_averages())
            u.coeffs -= mean / mesh.cell_measures.sum()
        return u
    if form == "mixed":
        sigma_bc = assembly.boundary_fluxes(mesh, f, g)
        sigma, y = hybrid._solve_rt0_hybrid(mesh, -assembly.load_integrals(mesh, f),
                                            _operator(mesh, "neumann RT0"), sigma_bc)
        return (RTField(assembly.DofMap.build(mesh, "RT0"), sigma),
                BrokenField(assembly.DofMap.build(mesh, "P0"), y))
    raise ValueError(f"unknown Neumann form {form!r}")


@dataclass
class EigenPair:
    """One discrete eigenpair; which fields are set depends on the family."""

    lam: float
    primal: Optional[BrokenField] = None   # ECR / CR / RT-equiv eigenfunction
    sigma: Optional[RTField] = None        # RT-mixed flux
    u: Optional[BrokenField] = None        # RT-mixed piecewise constant


def _ecr_inverse(mesh, dm, operator):
    """A^-1 of the ECR stiffness over ``dm`` from the CR factor ``operator``:
    T blockdiag(A_CR^-1, D_b^-1) T^T with T = ``bubble_split(dm)``, D_b the
    bubble energies.  The factor alone applies A_CR^-1: shift-invert needs
    no refinement or gate per application, each pair's residual is gated."""
    T = bubble_split(dm)
    T_t = T.T.tocsr()                          # formed once, not on every application
    n_cr = dm.n_scalar - mesh.n_cells
    energy = elements.bubble_energy(mesh.dim, mesh.cell_measures, mesh.cell_H)

    def inverse(r):
        y = T_t @ r
        y[:n_cr] = operator.lu.solve(y[:n_cr])
        y[n_cr:] /= energy.reshape(energy.shape + (1,) * (y.ndim - 1))
        return T @ y
    return inverse


def _on_cells(mesh, inverse, solve, sides):
    """``eig_smallest``'s (inverse, M, pencil) of a pencil A z = lam N z
    whose mass N is diag(|K|) on one unknown u per cell and zero on the
    others, w, and the map from a pair's u to its whole vector: the problem
    is solved on the cells alone, where the Schur complement of A has the
    same finite eigenpairs and the inverse is the u part of A^-1 (0, y).
    ``inverse(y)`` applies that inverse, for y (nc[, r]); ``solve(y)``
    returns the whole (w, u) = A^-1 (0, y).  A pair's vector is the
    purified z = A^-1 N (0, u) from ``solve``, scaled to ||u||_|K| = 1: its
    w rows then hold to rounding, where w recovered beside the Ritz u left
    the residual at 1.1-3.0e-12 on the RT-equiv pencil at 2D L5
    (Nour-Omid, Parlett, Ericsson & Jensen, Math. Comp. 48, 1987).  Each
    pair's residual is gated on ``sides(lam, w, u)``, the two sides
    (A z, lam N z) of the whole pencil."""
    measures = mesh.cell_measures

    def whole(U):
        w, u = solve((measures * U.T).T)
        scale = 1.0 / np.sqrt(np.einsum("c,c...,c...->...", measures, u, u))
        return w * scale, u * scale

    return (inverse, sp.diags(measures),
            (lambda lam, u: sides(lam, *whole(u))), whole)


def _eigen_problem(mesh, family):
    """``linsolve.eig_smallest``'s (inverse, M, pencil) for ``family`` and
    the map from its (lams, X) to EigenPairs (see ``solve_eigen``)."""
    if family == "RT-mixed":
        operator = _operator(mesh, "RT0")

        def sides(lam, sigma, u):              # -K z = lam diag(0, |K|) z, z = (sigma, u)
            product = hybrid._mixed_product(mesh, operator.mass, sigma, u)
            return (-np.concatenate(product),
                    lam * np.concatenate([np.zeros(mesh.n_facets), mesh.cell_measures * u]))

        # -K (sigma, u) = (0, y): the hybrid solve with the load -y, gated
        # for the pairs, a bare map for ARPACK
        *problem, whole = _on_cells(
            mesh, hybrid._hybrid_inverse(mesh, operator),
            lambda y: hybrid._solve_rt0_hybrid(mesh, -y, operator), sides)
        rt, p0 = assembly.DofMap.build(mesh, "RT0"), assembly.DofMap.build(mesh, "P0")

        def pairs(lams, U):
            S, U = whole(U)
            return [EigenPair(lam=float(l), sigma=RTField(rt, s), u=BrokenField(p0, u))
                    for l, s, u in zip(lams, S.T, U.T)]
        return (*problem, pairs)
    if family not in ("ECR", "CR", "RT-equiv"):
        raise ValueError(f"unknown eigen family {family!r}")
    _remember(mesh)
    A, M, dm = assembly.assemble_eigen(mesh, "CR" if family == "CR" else "ECR",
                                       "projected" if family == "RT-equiv" else "full")
    operator = _operator(mesh, "CR")
    inverse = operator.lu.solve if family == "CR" else _ecr_inverse(mesh, dm, operator)
    if family != "RT-equiv":
        return (inverse, M, lambda lam, x: (A @ x, lam * (M @ x)),
                lambda lams, X: [EigenPair(lam=float(l), primal=BrokenField(dm, x))
                                 for l, x in zip(lams, X.T)])
    n_cr = dm.n_scalar - mesh.n_cells

    def solve(y):                              # A_ECR^-1 (0, y): (facets, cells)
        x = inverse(np.concatenate([np.zeros((n_cr,) + y.shape[1:]), y]))
        return x[:n_cr], x[n_cr:]

    def sides(lam, facets, u):
        x = np.concatenate([facets, u])
        return A @ x, lam * (M @ x)

    *problem, whole = _on_cells(mesh, lambda y: solve(y)[1], solve, sides)

    def pairs(lams, U):
        W, U = whole(U)
        return [EigenPair(lam=float(l), primal=BrokenField(dm, np.concatenate([w, u])))
                for l, w, u in zip(lams, W.T, U.T)]
    return (*problem, pairs)


def solve_eigen(mesh, family="ECR", k=1, config=None):
    """k smallest Dirichlet-Laplacian eigenpairs.

    Families: "ECR"/"CR" (primal, full mass, ||u|| = 1), "RT-mixed" (the
    saddle pencil -[[A, B^T], [B, 0]] (sigma, u) = lam diag(0, |K|) (sigma, u),
    ||u_RT|| = 1) and "RT-equiv" (ECR stiffness against the projected mass,
    ||Pi0 phi|| = 1).  Both RT pencils have one finite eigenvalue per cell.

    Every family is solved on the memo's factors of ``mesh``, the ones the
    Poisson solves use, so the four families factorise two matrices of one
    row per interior facet.  CR uses ``poisson_operator``.  ECR and RT-equiv
    use it too: with x = T (c, b) (``bubble_split``),
    A_ECR^-1 = T blockdiag(A_CR^-1, D_b^-1) T^T, D_b the bubble energies
    (Arnold & Brezzi, M2AN 19, 1985).  Both RT pencils are solved on their
    one unknown per cell (``_on_cells``), where the mass is diag(|K|):
    RT-mixed maps u to the P0 part of the hybrid solve (``hybrid``) with
    the load -|K| u, which is self-adjoint in diag(|K|) with
    eigenvalues 1/lam, and RT-equiv maps it to the cell part of
    A_ECR^-1 (0, |K| u).  ARPACK applies the RT-mixed map bare, like the CR
    factor's LU solve: u = d g - R S^-1 L g with g = -|K| u, from the local
    inverses and the LU of S alone (``hybrid._hybrid_inverse``).  The rest
    of each pair, sigma or the facet coefficients, is recovered by one more
    solve, for RT-mixed the gated ``hybrid._solve_rt0_hybrid``.  Each pair is gated on
    the residual of its family's whole pencil, for RT-mixed the
    unhybridised one, applied from the local blocks.  ``config`` (a
    ``linsolve.SolverConfig``) seeds ARPACK's start vector;
    ``linsolve.eig_smallest`` picks the dense or the ARPACK path.
    """
    *problem, pairs = _eigen_problem(mesh, family)
    return pairs(*linsolve.eig_smallest(*problem, k, config))
