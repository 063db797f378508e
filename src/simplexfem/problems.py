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
the factorised CR stiffness, and ``hybrid_operator``, the local elimination
of the hybridised RT0 solve with its multiplier matrix S, factorised
without its rounding-level entries (``_solve_rt0_hybrid``); so has each
pure-Neumann one: ``neumann_operator``, the gauged CR stiffness, and
``hybrid_operator(mesh, neumann=True)``.  ``solve_poisson`` (CR and ECR
alike, since ECR is the CR solve plus bubbles), ``solve_poisson_mixed``,
``solve_stokes``, ``solve_stokes_mixed``, ``solve_eigen`` and
``solve_neumann`` keep these operators of the last mesh they solved in one
memo (keys "CR", "RT0", "pseudostress", "neumann CR", "neumann RT0"), each
built on first use, so that further loads on that mesh, the ECR and CR
solves of one load included, factorise nothing.  These SPD matrices, each
factorised once per mesh, are all the package factorises: every Poisson,
Stokes and eigen solve of a mesh the same two of one row per interior
facet.  The memo holds that mesh by weak reference: it drops its operators
when the mesh is freed, and when a solve on another mesh starts, before
that mesh's load is sampled, so a sweep over levels holds one mesh's
factors at a time.  The RT0 operator is built from the RT0 mass and the
facet signs alone; the CR factor is never used for it, although S equals
the CR stiffness.
Both Stokes solves are saddle systems whose primal block is n copies of
one of these two matrices, and each is solved on its pressure Schur
complement (``linsolve.solve_schur``) with that matrix's factor applied
component by component: ``solve_stokes`` with the CR factor,
``solve_stokes_mixed`` with the factor of S.  The pseudostress Stokes
solve is hybridised, with the same local elimination and recovery as the
RT0 one: ``pseudostress_operator`` is its mesh-only half, kept in the
memo beside the two factors.  Its multiplier block is n copies of the RT0
operator's S itself, not assembled again: cell by cell, the eliminated
block plus a term that vanishes on the solutions is n copies of S_K.
Both hybrid solves are gated on the residual of the unhybridised system,
applied from the local blocks, so that no global RT0 matrix is
assembled."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import assembly, elements, linsolve
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
    """The memo's ``family`` operator of ``mesh``, built on first use."""
    _remember(mesh)
    if family not in _operators:
        build = {"CR": poisson_operator, "RT0": hybrid_operator,
                 "pseudostress": pseudostress_operator, "neumann CR": neumann_operator,
                 "neumann RT0": partial(hybrid_operator, neumann=True)}[family]
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


# an S_K entry at most this times max |S_K| is rounding (see ``_solve_rt0_hybrid``)
_S_ROUNDING = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class HybridOperator:
    """The mesh-only half of a hybridised mixed solve, ``_solve_rt0_hybrid``
    (``hybrid_operator``) or ``solve_stokes_mixed``
    (``pseudostress_operator``): the local elimination and the multiplier
    system, factorised for ``hybrid_operator`` only, whose S the
    pseudostress system takes n copies of.  Built from RT0 data alone
    (``elements.rt0_mass``, ``rt0_outer``, ``rt0_moment``, the facet signs,
    normals and measures); it holds no reference to the mesh.  Each cell
    has p flux unknowns, eliminated with its other unknowns by one (m, m)
    inverse."""

    mass: np.ndarray                   # (nc, p, p) flux blocks A_K of the unhybridised system
    inverse: np.ndarray                # (nc, m, m) inverses of the bordered local blocks
    coupling: np.ndarray               # (nc, p) D_K: the signs, 0 on boundary facets
    dofs: np.ndarray                   # (nc, p) multiplier numbers, -1 on the boundary
    system: assembly.SaddleSystem      # the multiplier system with a zero load: S, E, gauge
    factor: Optional[linsolve.Factor] = None   # of it, for hybrid_operator: its LU leaves
                                               # out S's rounding-level entries


def _multiplier_blocks(inv, coupling):
    """The cell blocks S_K = D_K inverse_K[:p, :p] D_K of the multiplier
    matrix, symmetrised: (nc, p, p)."""
    p = coupling.shape[1]
    S_local = coupling[:, :, None] * (inv[:, :p, :p] * coupling[:, None, :])
    return 0.5 * (S_local + np.swapaxes(S_local, 1, 2))


def _multiplier_matrices(inv, coupling, dofs, size):
    """S = sum_K S_K (``_multiplier_blocks``) and the copy of S that is
    factorised: without the entries of these cell blocks at most
    ``_S_ROUNDING`` times the cell's largest (see ``_solve_rt0_hybrid``),
    formed as S minus a scatter of those entries alone.  Two facets share
    at most one cell, so a dropped entry leaves an exact zero in its slot,
    which is not stored, and the copy is bitwise the blocks' scatter
    without them."""
    S_local = _multiplier_blocks(inv, coupling)
    S = assembly.scatter_matrix(dofs, dofs, S_local, (size, size))
    scale = np.abs(S_local).max(axis=(1, 2), keepdims=True)
    cell, a, b = np.nonzero(np.abs(S_local) <= _S_ROUNDING * scale)
    rows, cols = dofs[cell, a], dofs[cell, b]
    kept = (rows >= 0) & (cols >= 0)
    dropped = sp.csr_matrix((S_local[cell, a, b][kept], (rows[kept], cols[kept])),
                            shape=(size, size))
    return S.tocsc(), S - dropped


def _multiplier_solve(operator, z0, solve, gauge_rhs=0.0):
    """The multiplier solve and recovery of a hybridised system, from the
    local solutions z0_K = inverse_K r_K (nc, m): the multiplier load
    sum_K D_K (z0_K)[:p], ``solve`` (a gated ``linsolve`` solve of a
    SaddleSystem) of ``operator.system`` with it (its gauge, if any, set to
    ``gauge_rhs``), and z_K = z0_K - inverse_K[:, :p] D_K lam_K.  Returns z
    (nc, m) and the dual part of the multiplier solution.  Without dual
    block and gauge, z0 may carry a trailing axis of right-hand sides,
    (nc, m, r)."""
    inv, dofs = operator.inverse, operator.dofs
    p = dofs.shape[1]
    columns = z0.shape[2:]                     # () for one right-hand side
    coupling = operator.coupling.reshape(dofs.shape + (1,) * len(columns))
    inner = dofs >= 0
    system = operator.system
    local = (coupling * z0[:, :p])[inner]
    b = np.stack([np.bincount(dofs[inner], w, minlength=system.n_primal)
                  for w in local.reshape(len(local), -1).T], axis=-1)
    gauge = None if system.gauge is None else system.gauge._replace(rhs=gauge_rhs)
    lam, dual, _ = solve(replace(system, f=b.reshape((system.n_primal,) + columns), gauge=gauge))
    lam = np.concatenate([lam, np.zeros((1,) + columns)])[dofs]           # 0 on the boundary
    return z0 - np.einsum("cab,cb...->ca...", inv[:, :, :p], coupling * lam), dual


def _mean_fluxes(mesh, local):
    """Each facet's flux as the mean of its cells' copies: (nc, n+1[, m])
    -> (nf[, m])."""
    count = np.bincount(mesh.cell_facets.ravel(), minlength=mesh.n_facets)
    sums = mesh.facet_sums(local)
    return sums / count.reshape(count.shape + (1,) * (sums.ndim - 1))


def _interior_numbers(mesh):
    """Each facet's number among the interior facets, -1 on the boundary:
    (nf,), and the number of interior facets."""
    interior = mesh.interior_facet_indices()
    number = np.full(mesh.n_facets, -1)
    number[interior] = np.arange(len(interior))
    return number, len(interior)


def hybrid_operator(mesh, neumann=False):
    """The local elimination of ``_solve_rt0_hybrid`` and its factorised
    multiplier matrix S, for homogeneous Dirichlet data or, with
    ``neumann``, for boundary fluxes fixed to given values (see there)."""
    n, nc = mesh.dim, mesh.n_cells
    signs = mesh.cell_facet_signs.astype(float)
    number, ni = _interior_numbers(mesh)
    dofs = number[mesh.cell_facets]                    # (nc, n+1), -1 on the boundary
    mass = elements.rt0_mass(mesh)
    local = np.zeros((nc, n + 2, n + 2))
    local[:, :n + 1, :n + 1] = mass
    local[:, :n + 1, n + 1] = local[:, n + 1, :n + 1] = signs
    if neumann:
        # boundary fluxes are known: their rows and columns become identity
        fixed = dofs < 0
        keep = np.hstack([~fixed, np.ones((nc, 1), dtype=bool)])
        local *= keep[:, :, None] & keep[:, None, :]
        local[:, :n + 1, :n + 1] += fixed[:, :, None] * np.eye(n + 1)
    inv = np.linalg.inv(local)
    del local                          # freed before S is factorised: lower peak RSS
    coupling = np.where(dofs >= 0, signs, 0.0)         # D_K
    gauge = None
    if neumann:
        # u_K = z0_K - T_K lam_K, T_K = inverse_K[:, :n+1] D_K: zero mean of u
        # is one row on lam
        inner = dofs >= 0
        row = np.bincount(dofs[inner],
                          (mesh.cell_measures[:, None] * (inv[:, n + 1, :n + 1] * coupling))[inner],
                          minlength=ni)
        gauge = assembly.Constraint(row, np.ones(ni))
    S, factorised = _multiplier_matrices(inv, coupling, dofs, ni)
    system = assembly.SaddleSystem(S, np.zeros(ni), gauge=gauge)
    return HybridOperator(mass, inv, coupling, dofs, system, linsolve.Factor(system, factorised))


def _solve_rt0_hybrid(mesh, g, operator, sigma_bc=None):
    """Hybridised RT0 x P0 solve (Arnold & Brezzi, M2AN 19, 1985; Cockburn
    & Gopalakrishnan, SINUM 42, 2004): (facet fluxes (nf,), u (nc,)).

    The normal continuity of sigma is relaxed and restored by one
    multiplier per interior facet.  On K the unknowns (sigma_K, u_K) solve
    [[M_K, s], [s^T, 0]] z_K = r_K - D_K lam, with M_K the RT0 mass, s the
    cell's facet signs and D_K = diag(s) on its interior facets, so each
    cell is eliminated by one (n+2, n+2) inverse.  What remains is the
    multiplier system sum_K D_K (z_K)_sigma = 0: SPD, one row per interior
    facet, coupling the facets of each cell.
    The two copies of an interior flux agree to the accuracy of that
    solve; their mean is returned.

    The mesh-only half, ``operator`` (``hybrid_operator``, with ``neumann``
    when ``sigma_bc`` is given), holds the local inverses, D_K and
    S = sum_K D_K [[M_K, s], [s^T, 0]]^-1_sigma,sigma D_K, factorised; only
    the local right-hand sides, z0_K = inverse r_K, the multiplier load and
    the recovery depend on g.  S_K equals the CR stiffness of K
    (Marini, SINUM 22, 1985), whose right-angle facet pairs are exact
    zeros, but the local inverse leaves rounding there: at most 0.8, 0.3
    and 1.2 eps of the cell's largest entry on the Kuhn meshes 2D L7, 3D
    L3 and 4D box(3), where every other entry is at least a third of it.
    Entries of S_K at most 16 eps times its largest are therefore dropped
    from the copy of S that is factorised, which has the pattern of the CR
    stiffness (at 2D L7 its L+U holds 920,050 entries, against 1,796,422
    with them).  The refinement step and the gate of the multiplier solve
    are taken against S itself: with the entries dropped from S as well,
    the unhybridised residual of a constant load at 2D L7 read 1.3e-12,
    above the gate, against 9.4e-13 this way.

    ``g`` is the right-hand side -int_K f of the divergence rows, (nc,), or
    without ``sigma_bc`` a block (nc, r) of r of them, solved together.
    With ``sigma_bc`` (nf,), zero on the interior facets, the boundary
    fluxes are fixed to it and moved to the right-hand side: the multiplier
    system then has the constant in its kernel, which shifts u, and is
    gauged so that u has zero mean.  The result, (nf[, r]) and (nc[, r]), is
    gated column by column by ``_gate_mixed``, the residual of the
    unhybridised system.
    """
    n, nc = mesh.dim, mesh.n_cells
    mass, inv, dofs = operator.mass, operator.inverse, operator.dofs
    if sigma_bc is None:                       # only the divergence row is loaded
        z0 = np.einsum("ca,c...->ca...", inv[:, :, n + 1], g)
    else:
        rhs = np.zeros((nc, n + 2))
        rhs[:, n + 1] = g
        fixed = dofs < 0
        known = np.where(fixed, sigma_bc[mesh.cell_facets], 0.0)
        rhs[:, :n + 1] = np.where(fixed, known, -np.einsum("cij,cj->ci", mass, known))
        rhs[:, n + 1] -= np.einsum("ci,ci->c", mesh.cell_facet_signs, known)
        z0 = np.einsum("cab,cb->ca", inv, rhs)
    gauge_rhs = (0.0 if operator.system.gauge is None
                 else np.einsum("c,c->", mesh.cell_measures, z0[:, n + 1]))
    z, _ = _multiplier_solve(operator, z0, lambda system: linsolve.solve(system, operator.factor),
                             gauge_rhs)
    sigma, u = _mean_fluxes(mesh, z[:, :n + 1]), z[:, n + 1]
    for column in np.ndindex(np.shape(g)[1:]):     # one pass for a single g
        at = (slice(None),) + column
        _gate_mixed(mesh, mass, g[at], sigma[at], u[at], sigma_bc)
    return sigma, u


def _mixed_product(mesh, mass, sigma, u):
    """The block product [[A, B^T], [B, 0]] (sigma, u) of RT0 x P0, or of
    its tensor version (RT0)^r x (P0)^r, from the local blocks:
    (A sigma + B^T u, B sigma).  A is applied as the cellwise blocks
    ``mass``, (nc, (n+1) r, (n+1) r) in (facet, row) order
    (``elements.rt0_mass`` for r = 1), and B as the facet signs, so that no
    global matrix is assembled.  sigma (r nf,) and u (r nc,) are numbered
    component-major, like their DOF maps."""
    nc, nf = mesh.n_cells, mesh.n_facets
    rows = mass.shape[1] // (mesh.dim + 1)
    signs = mesh.cell_facet_signs.astype(float)
    local = np.moveaxis(sigma.reshape(rows, nf)[:, mesh.cell_facets], 0, -1)   # (nc, n+1, r)
    flux = np.einsum("cij,cj->ci", mass, local.reshape(nc, -1)).reshape(local.shape)
    flux += signs[:, :, None] * u.reshape(rows, nc).T[:, None, :]
    return mesh.facet_sums(flux).T.ravel(), np.einsum("ci,cir->rc", signs, local).ravel()


def _gate_mixed(mesh, mass, g, sigma, u, sigma_bc=None):
    """Gate (fluxes sigma (nf,), u (nc,)) by ``linsolve.gate_residual`` on
    the unhybridised RT0 x P0 system, applied by ``_mixed_product``.

    Without ``sigma_bc`` it is [[A, B^T], [B, 0]] (sigma, u) = (0, g), the
    system the tests assemble as their oracle (``assemble_mixed_poisson``
    in ``tests/oracles.py``).  With it, it is the oracle
    ``assemble_neumann_mixed``'s: the unknowns are the interior fluxes and
    u, the boundary fluxes are fixed to sigma_bc and moved to the
    right-hand side, and u has zero mean."""
    if sigma_bc is None:
        return linsolve.gate_residual(np.concatenate([np.zeros(mesh.n_facets), g]),
                                      np.concatenate([sigma, u]),
                                      np.concatenate(_mixed_product(mesh, mass, sigma, u)))
    interior = mesh.interior_facet_indices()
    inner = np.zeros(mesh.n_facets)
    inner[interior] = sigma[interior]
    flux_bc, div_bc = _mixed_product(mesh, mass, sigma_bc, np.zeros(mesh.n_cells))
    flux, div = _mixed_product(mesh, mass, inner, u)
    return linsolve.gate_residual(np.concatenate([-flux_bc[interior], g - div_bc]),
                                  np.concatenate([sigma[interior], u]),
                                  np.concatenate([flux[interior], div]),
                                  assembly.zero_mean_dual(mesh, len(interior)))


def solve_poisson_mixed(mesh, f):
    """Mixed Poisson by the RT0 x P0 pair: (flux field, displacement).
    Solved hybridised with the memo's ``hybrid_operator(mesh)``, built after
    the load is sampled, and gated on the residual of the unhybridised
    system."""
    _remember(mesh)
    g = -assembly.load_integrals(mesh, f)
    x, y = _solve_rt0_hybrid(mesh, g, _operator(mesh, "RT0"))
    return (RTField(assembly.DofMap.build(mesh, "RT0"), x),
            BrokenField(assembly.DofMap.build(mesh, "P0"), y))


def _componentwise(lu, n):
    """A^-1 of blockdiag(K, ..., K), n copies numbered component-major, from
    the SuperLU factor ``lu`` of K: one column-block solve of the (rows, n)
    block of a vector's components."""
    return lambda r: lu.solve(r.reshape(n, -1).T).T.ravel()


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
    x, y, _ = linsolve.solve_schur(system, _componentwise(operator.lu, n))
    return _with_bubbles(BrokenField(vel, x), bubbles), BrokenField(prs, y)


def _identity_fluxes(mesh):
    """The identity tensor's local fluxes: row r through facet i of K is
    nu_i[r] |F_i| with the facet's canonical normal, (nc, (n+1) n) in
    (facet, row) order."""
    return (mesh.facet_normals * mesh.facet_measures[:, None])[mesh.cell_facets].reshape(
        mesh.n_cells, -1)


def _check_identity_kernel(mass, identity):
    """Raise SolverError unless the identity tensor's fluxes I_K lie in the
    kernel of each local deviatoric mass A_K, to rounding: the elimination
    of ``pseudostress_operator`` takes it there.  |A_K I_K| read at most
    2.6 eps times max |A_K| max |I_K| on 2D L7, 3D box(4) refined once and
    4D box(3), with and without jiggled vertices; the bound is 16 p eps,
    p = n(n+1) the length of the products."""
    p = mass.shape[1]
    defect = np.abs(np.einsum("cij,cj->ci", mass, identity)).max(axis=1)
    bound = _S_ROUNDING * p * np.abs(mass).max(axis=(1, 2)) * np.abs(identity).max(axis=1)
    if not np.all(defect <= bound):
        cell = int(np.argmax(defect / bound))
        raise linsolve.SolverError(f"the identity tensor is not in the kernel of the "
                                   f"deviatoric mass of cell {cell}: |A_K I_K| = "
                                   f"{defect[cell]:.1e} > {bound[cell]:.1e}")


def pseudostress_operator(mesh):
    """The mesh-only half of the hybridised pseudostress solve
    (``solve_stokes_mixed``): the local elimination and the multiplier
    system [[S, E^T], [E, 0]] with its gauge.  S is n copies of the S of
    the memo's RT0 operator (``hybrid_operator``), built first if need be;
    only the rows of E are scattered, and nothing is factorised: the solve
    applies that operator's factor to each component."""
    n, nc = mesh.dim, mesh.n_cells
    p = n * (n + 1)
    number, ni = _interior_numbers(mesh)
    facet = number[mesh.cell_facets][:, :, None]
    dofs = np.where(facet >= 0, facet + ni * np.arange(n), -1).reshape(nc, p)
    signs = np.repeat(mesh.cell_facet_signs.astype(float), n, axis=1)   # (facet, row) order
    mass, identity = elements.rt0_deviatoric_mass(mesh), _identity_fluxes(mesh)
    _check_identity_kernel(mass, identity)
    local = np.zeros((nc, p + n + 1, p + n + 1))
    local[:, :p, :p] = mass
    divergence = signs[:, :, None] * np.tile(np.eye(n), (n + 1, 1))     # B_K^T: (p, n)
    local[:, :p, p:p + n] = divergence
    local[:, p:p + n, :p] = np.swapaxes(divergence, 1, 2)
    local[:, :p, -1] = local[:, -1, :p] = elements.rt0_moment(mesh).reshape(nc, p)
    inv = np.linalg.inv(local)
    del local, divergence
    coupling = np.where(dofs >= 0, signs, 0.0)                          # D_K
    E = assembly.scatter_matrix(np.arange(nc)[:, None], dofs, (coupling * identity)[:, None, :],
                                (nc, n * ni))                           # rows e_K = D_K I_K
    S = sp.block_diag([_operator(mesh, "RT0").system.A] * n, format="csr")
    system = assembly.SaddleSystem(S, np.zeros(n * ni), E, np.zeros(nc),
                                   assembly.zero_mean_dual(mesh, n * ni))
    return HybridOperator(mass, inv, coupling, dofs, system)


def _gate_pseudostress(mesh, mass, g, sigma, u):
    """Gate (tensor fluxes sigma (n nf,), u (n nc,)) by
    ``linsolve.gate_residual`` on the unhybridised pseudostress system,
    [[A, B^T], [B, 0]] (sigma, u) = (0, g) with the trace-mean gauge, that
    the tests assemble as their oracle (``assemble_pseudostress`` in
    ``tests/oracles.py``), applied by ``_mixed_product`` with the local
    deviatoric masses ``mass``."""
    n = mesh.dim
    zero = np.zeros(n * mesh.n_cells)
    trace = mesh.facet_sums(mesh.cached(elements.rt0_moment)).T.ravel()
    identity = (mesh.facet_normals * mesh.facet_measures[:, None]).T.ravel()
    gauge = assembly.Constraint(np.concatenate([trace, zero]), np.concatenate([identity, zero]))
    return linsolve.gate_residual(np.concatenate([np.zeros(n * mesh.n_facets), g]),
                                  np.concatenate([sigma, u]),
                                  np.concatenate(_mixed_product(mesh, mass, sigma, u)), gauge)


def solve_stokes_mixed(mesh, f):
    """Pseudostress Stokes by tensor RT0 x (P0)^n: (pseudostress,
    displacement), with int tr sigma = 0.  Solved hybridised (Cockburn &
    Gopalakrishnan, SINUM 43, 2005), and gated on the residual of the
    unhybridised system.

    The normal continuity of each tensor row is relaxed and restored by an
    n-vector multiplier lam_F on each interior facet, numbered
    component-major like the CR-Stokes velocity.  Each cell's block
    [[A_K, B_K^T], [B_K, 0]], A_K the deviatoric mass
    (``elements.rt0_deviatoric_mass``), is singular along (I_K, 0), the
    identity tensor; bordered with the trace row t_K (``rt0_moment``) it is
    invertible, (n(n+2)+1)^2.  Its solution z_K has zero trace mean on K,
    and sigma_K = z_K - beta_K I_K, with one global unknown beta_K per cell.
    With e_K = D_K I_K the rows of E, what remains is
    [[S, E^T], [E, 0]] (lam, beta) = (sum_K D_K z0_K, 0), gauged by
    sum_K |K| beta_K = 0, the trace-mean condition.  E is the CR-Stokes
    divergence B.  The eliminated cell blocks S_K plus e_K e_K^T / (n |K|),
    a term that leaves the solution unchanged because E lam = 0, equal the
    CR vector stiffness of K, which is n copies of the Poisson multiplier
    block of K (Marini, SINUM 22, 1985).  So the multiplier system has the
    size of CR-Stokes, and its S is n copies of the memo's RT0 S
    (``pseudostress_operator``); the S_K themselves are never formed.  It
    is solved on its Schur complement in beta (``linsolve.solve_schur``),
    S^-1 applied component by component by the memo's factor of that S, and
    refined and gated against S.

    The two copies of an interior flux are averaged.  The load is sampled
    before the memo's operators, the RT0 one and ``pseudostress_operator``,
    are built; both serve every further load on the mesh."""
    n, nc = mesh.dim, mesh.n_cells
    p = n * (n + 1)
    _remember(mesh)
    g = -assembly.load_integrals(mesh, f, n)                            # (nc, n)
    inverse = _componentwise(_operator(mesh, "RT0").factor.lu, n)
    operator = _operator(mesh, "pseudostress")
    rhs = np.zeros((nc, p + n + 1))
    rhs[:, p:p + n] = g
    z, beta = _multiplier_solve(operator, np.einsum("cab,cb->ca", operator.inverse, rhs),
                                lambda system: linsolve.solve_schur(system, inverse))
    sigma = z[:, :p] - beta[:, None] * _identity_fluxes(mesh)
    sigma = _mean_fluxes(mesh, sigma.reshape(nc, n + 1, n)).T.ravel()
    u = z[:, p:p + n].T.ravel()
    _gate_pseudostress(mesh, operator.mass, g.T.ravel(), sigma, u)
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
    mixed form with its ``hybrid_operator(mesh, neumann=True)``, each built
    after the load is sampled.
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
        sigma, y = _solve_rt0_hybrid(mesh, -assembly.load_integrals(mesh, f),
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


def _hybrid_inverse(mesh, operator):
    """The P0 part of the Dirichlet hybrid solve (``_solve_rt0_hybrid``)
    with the load g = -y, as a bare linear map of y (nc[, r]):
    u = d g - R S^-1 L g, with d_K = inverse_K[n+1, n+1], L (interior
    facets x cells) the multiplier load from D_K inverse_K[:p, n+1], R
    (cells x interior facets) the recovery from D_K inverse_K[n+1, :p],
    and S^-1 the LU solve of ``operator``'s factor.  Like the CR factor's
    ``lu.solve`` it takes no refinement step and no gate: ARPACK applies it,
    and each eigenpair is gated on the unhybridised pencil."""
    inv, coupling, dofs = operator.inverse, operator.coupling, operator.dofs
    p, nc = dofs.shape[1], mesh.n_cells
    cells, size = np.arange(nc)[:, None], (operator.system.n_primal, nc)
    L = assembly.scatter_matrix(dofs, cells, (coupling * inv[:, :p, p])[:, :, None], size)
    R = assembly.scatter_matrix(cells, dofs, (inv[:, p, :p] * coupling)[:, None, :], size[::-1])
    d, lu = inv[:, p, p], operator.factor.lu

    def inverse(y):
        g = -y
        return d.reshape(d.shape + (1,) * (g.ndim - 1)) * g - R @ lu.solve(L @ g)
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
            product = _mixed_product(mesh, operator.mass, sigma, u)
            return (-np.concatenate(product),
                    lam * np.concatenate([np.zeros(mesh.n_facets), mesh.cell_measures * u]))

        # -K (sigma, u) = (0, y): the hybrid solve with the load -y, gated
        # for the pairs, a bare map for ARPACK
        *problem, whole = _on_cells(
            mesh, _hybrid_inverse(mesh, operator),
            lambda y: _solve_rt0_hybrid(mesh, -y, operator), sides)
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
    RT-mixed maps u to the P0 part of the hybrid solve (``hybrid_operator``)
    with the load -|K| u, which is self-adjoint in diag(|K|) with
    eigenvalues 1/lam, and RT-equiv maps it to the cell part of
    A_ECR^-1 (0, |K| u).  ARPACK applies the RT-mixed map bare, like the CR
    factor's LU solve: u = d g - R S^-1 L g with g = -|K| u, from the local
    inverses and the LU of S alone (``_hybrid_inverse``).  The rest of each
    pair, sigma or the facet coefficients, is recovered by one more solve,
    for RT-mixed the gated ``_solve_rt0_hybrid``.  Each pair is gated on
    the residual of its family's whole pencil, for RT-mixed the
    unhybridised one, applied from the local blocks.  ``config`` (a
    ``linsolve.SolverConfig``) seeds ARPACK's start vector;
    ``linsolve.eig_smallest`` picks the dense or the ARPACK path.
    """
    *problem, pairs = _eigen_problem(mesh, family)
    return pairs(*linsolve.eig_smallest(*problem, k, config))
