"""The assembled, unhybridised systems and their saddle LU, which only the
tests solve: the oracles of the package's hybridised and Schur-complement
solves.

The package solves every saddle system on its dual Schur complement
(``linsolve.solve_schur``) or hybridised into an SPD multiplier system, and
factorises nothing but SPD matrices (``linsolve.Factor`` refuses a system
with a dual block).  The assemblers here build the systems those solves
eliminate: ``assemble_mixed_poisson`` and ``assemble_neumann_mixed`` (RT0 x
P0), ``assemble_pseudostress`` (tensor RT0 x (P0)^n) and
``assemble_stokes`` ((CR/ECR)^n x P0).  ``solve`` solves any SaddleSystem
with ``linsolve.solve(system, factor)``: a system without dual block on a
``linsolve.Factor``, one with a dual block on a ``SaddleFactor``, which
``linsolve._factorise`` factorises, so that the kappa_1 bound, the pin,
the refinement and the 1e-12 gate are the package's own, and every
factorisation goes through ``linsolve._splu``.

A saddle matrix [[A, B^T], [B, 0]] is factorised in a constrained symmetric
order (``_saddle_order``): the primal DOFs in the minimum-degree order of A,
each dual DOF directly after the last primal DOF it couples to.  With A SPD
and B of full row rank on the kept rows, every leading block is then itself
a nonsingular saddle matrix, so the diagonal pivots exist (Tuma, SIMAX 23,
2002; Benzi, Golub & Liesen, Acta Numerica 14, 2005, sec. 6).  The pinned
systems are of this kind: the CR-Stokes A is the Dirichlet vector Laplacian
and B has lost one pressure row, and so is the hybridised pseudostress
multiplier system, whose blocks are those of CR-Stokes; the unhybridised
pseudostress A, the deviatoric mass, is SPD once one DOF of the tensor I is
removed, and its divergence stays onto.  Minimum degree on the whole matrix
would eliminate the low-degree zero-diagonal dual rows first: with
threshold pivoting it took 52 s on the pinned unhybridised pseudostress
matrix of 12,311 unknowns, at fill 213.  On 3D box(3) refined once (1,296
tets, 1 BLAS thread), COLAMD with partial pivoting took CR-Stokes (8,423
unknowns) to fill 90 in 0.68 s, against 32 in 0.10 s in the constrained
order, found in 0.02 s.  The order of A alone beats that of
|A| + |B|^T|B| there (fill 32 against 51).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from simplexfem import assembly, elements, linsolve

# SuperLU options of the saddle factorisation, whose order ``_saddle_order`` supplies
_SADDLE_ORDER = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}


def block_matrix(system):
    """[[A, B^T], [B, 0]], or A alone when there is no dual block."""
    if system.B is None:
        return sp.csc_matrix(system.A)
    return sp.bmat([[system.A, system.B.T], [system.B, None]], format="csc")


def _saddle_order(system, pinned=None):
    """The DOFs of a saddle system less ``pinned``, in the order they are
    factorised in: the primal DOFs in SuperLU's minimum-degree order of the
    pattern of A on the kept rows, each dual DOF directly after the last
    primal DOF it couples to (see the module doc)."""
    n_primal = system.n_primal
    keep = np.arange(n_primal + system.n_dual)
    if pinned is not None:
        keep = np.delete(keep, pinned)
    primal, dual = keep[keep < n_primal], keep[keep >= n_primal]
    P = sp.csc_matrix(system.A)[primal][:, primal]
    P.data[:] = 1.0
    P += sp.identity(len(primal), format="csc") * (2.0 * len(primal))
    # an ordering call: on a pattern with a dominant diagonal, SuperLU's
    # incomplete factorisation, with as good as everything dropped, returns
    # the postordered MMD_AT_PLUS_A order a full splu of P would use, in a
    # fifth of the time (0.02 against 0.10 s on 3D box(3) refined)
    position = sla.spilu(P, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         drop_tol=0.5, fill_factor=1,
                         options={"SymmetricMode": True}).perm_c
    B = sp.csr_matrix(system.B)[dual - n_primal][:, primal]
    last = np.full(len(dual), -1)              # a dual DOF without neighbours: first
    coupled = np.diff(B.indptr) > 0
    last[coupled] = np.maximum.reduceat(position[B.indices], B.indptr[:-1][coupled])
    key = np.concatenate([2 * position, 2 * last + 1])
    return np.concatenate([primal, dual])[np.argsort(key, kind="stable")]


class SaddleFactor:
    """The factorised block matrix of a SaddleSystem with a dual block, with
    the attributes ``linsolve.solve`` reads from a ``linsolve.Factor``:
    K = [[A, B^T], [B, 0]], the kept DOFs (the pin at argmax |k| and the
    order of ``_saddle_order`` in one index array) and the SuperLU factor
    of K on them, refused by ``linsolve._factorise``'s kappa_1 bound."""

    def __init__(self, system):
        self.K = block_matrix(system)
        pinned = None if system.gauge is None else np.argmax(np.abs(system.gauge.k))
        self.keep = _saddle_order(system, pinned)
        self.lu = linsolve._factorise(self.K[self.keep][:, self.keep], _SADDLE_ORDER)


def factorise(system):
    """A ``linsolve.Factor`` of a system without dual block, a
    ``SaddleFactor`` of one with."""
    return linsolve.Factor(system) if system.B is None else SaddleFactor(system)


def solve(system):
    """``linsolve.solve`` of any SaddleSystem on its ``factorise``."""
    return linsolve.solve(system, factorise(system))


def _rt0_divergence(p0, rt):
    """(RT0)^ncomp x (P0)^ncomp divergence block, each component's cells x
    facets: int_K div(psi_i) = s_i."""
    signs = rt.mesh.cell_facet_signs[:, None, :].astype(float)
    return assembly.scatter_blocks(p0, rt, signs)


def assemble_mixed_poisson(mesh, f):
    """RT0 x P0 mixed Poisson; natural u = 0, no essential conditions."""
    rt = assembly.DofMap.build(mesh, "RT0")
    p0 = assembly.DofMap.build(mesh, "P0")
    A = assembly.scatter_symmetric(rt, elements.rt0_mass(mesh))
    B = _rt0_divergence(p0, rt)
    system = assembly.SaddleSystem(A=A, f=np.zeros(rt.n_total), B=B,
                                   g=-assembly.load_integrals(mesh, f))
    return system, rt, p0


def assemble_stokes(mesh, f, family="ECR"):
    """Nonconforming Stokes: velocity in n components of CR/ECR, piecewise
    constant pressure with zero mean, gauging the constant pressure
    (``assembly.stokes_system``)."""
    vel = assembly.DofMap.build(mesh, family, dirichlet=True, ncomp=mesh.dim)
    system, prs = assembly.stokes_system(
        vel, assembly.scatter_symmetric(vel, assembly.stiffness_local(mesh, family)),
        assembly.load_vector(mesh, vel, f))
    return system, vel, prs


def assemble_pseudostress(mesh, f):
    """Pseudostress Stokes: tensor RT0 rows against (P0)^n, deviatoric form,
    with the global trace-mean constraint gauging the constant tensor I."""
    n = mesh.dim
    sig = assembly.DofMap.build(mesh, "RT0", ncomp=n)     # component r = tensor row r
    upo = assembly.DofMap.build(mesh, "P0", ncomp=n)
    tensor_dofs = sig.global_dofs.reshape(mesh.n_cells, -1)
    A = assembly.scatter_matrix(tensor_dofs, tensor_dofs, elements.rt0_deviatoric_mass(mesh),
                                (sig.n_total, sig.n_total))

    B = _rt0_divergence(upo, sig)
    trace = assembly.scatter_vector(sig, elements.rt0_moment(mesh))

    g = upo.coefficients(-assembly.load_integrals(mesh, f, n))

    # the constant tensor I: tensor row r has flux nu_F[r] |F| through facet F
    identity = sig.coefficients((mesh.facet_normals
                                 * mesh.facet_measures[:, None])[mesh.cell_facets])
    zero = np.zeros(upo.n_total)
    system = assembly.SaddleSystem(A=A, f=np.zeros(sig.n_total), B=B, g=g,
                                   gauge=assembly.Constraint(np.concatenate([trace, zero]),
                                                             np.concatenate([identity, zero])))
    return system, sig, upo


def assemble_neumann_mixed(mesh, f, g):
    """Mixed Neumann problem: boundary fluxes are essential (facet averages
    of g), the test space drops them, and u has zero mean, gauging u = 1.
    The package's hybridised solve is gated on this system, applied from
    the local blocks.

    Returns (system, rt map, p0 map, interior facet ids, boundary flux
    coefficient vector over all facets)."""
    sigma_bc = assembly.boundary_fluxes(mesh, f, g)
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
    system = assembly.SaddleSystem(A=A_ii, f=f_red, B=B_i, g=g_red,
                                   gauge=assembly.zero_mean_dual(mesh, len(interior)))
    return system, rt, p0, interior, sigma_bc
