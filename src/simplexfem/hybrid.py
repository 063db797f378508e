"""The RT side of every certificate: the hybridised RT0 x P0 Poisson solve,
Dirichlet or with its boundary fluxes fixed (pure Neumann), and the
hybridised pseudostress Stokes solve (Arnold & Brezzi, M2AN 19, 1985;
Cockburn & Gopalakrishnan, SINUM 42, 2004 and 43, 2005).

Each relaxes the normal continuity of its r flux rows (r = 1 for Poisson, n
for the pseudostress), restores it by one multiplier per row and interior
facet, and eliminates every cell by one inverse of its bordered block
(``_eliminate``).  A ``HybridOperator`` is the mesh-only half of a solve;
only the local right-hand sides, the multiplier load and the recovery
depend on the load.  Every solve is gated on the residual of its
unhybridised system, applied from the local blocks (``_mixed_residual``),
so no global RT0 matrix is assembled; a Poisson solve is refined on it.
The one multiplier matrix S of an operator (``_multiplier_matrix``) is
factorised, and every multiplier solve is refined and gated against it.
The module reads RT0 data alone: the RT0 functions of ``elements`` and the
facet signs, normals and measures.  S equals the CR stiffness cell by cell
(Marini, SINUM 22, 1985), but is never taken from it.
``tests/test_oracles.py`` checks the module's imports and names."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import assembly, elements, linsolve

_S_ROUNDING = 16.0 * np.finfo(float).eps   # an S_K entry at most this times max |S_K| is rounding
_RT0_STEPS = 2          # refinement steps of a hybrid RT0 solve at most (``_solve_rt0_hybrid``)


@dataclass(frozen=True)
class HybridOperator:
    """The mesh-only half of a hybridised solve (``hybrid_operator``,
    ``pseudostress_operator``): the local elimination, the multiplier
    system and the factor of the Poisson S.  It holds no reference to the
    mesh.  Each cell has p flux unknowns, eliminated with its other
    unknowns by one (m, m) inverse."""

    mass: np.ndarray                   # (nc, p, p) flux blocks A_K of the unhybridised system
    inverse: np.ndarray                # (nc, m, m) inverses of the bordered local blocks
    coupling: np.ndarray               # (nc, p) D_K: the signs, 0 on boundary facets
    dofs: np.ndarray                   # (nc, p) multiplier numbers, -1 on the boundary
    system: assembly.SaddleSystem      # the multiplier system with a zero load: S, E, gauge
    factor: linsolve.Factor            # of the Poisson S, the Poisson system.A uncopied


def _eliminate(mesh, mass, border=None, neumann=False):
    """The local elimination of r flux rows, p = (n+1) r unknowns in
    (facet, row) order: the inverses (nc, m, m) of [[A_K, B_K^T(, t_K)],
    [B_K, 0]], A_K = ``mass`` (nc, p, p), B_K the signed divergence of each
    row and t_K = ``border`` (nc, p), if given.  With ``neumann`` the rows
    and columns of the boundary fluxes, which are known, become identity.
    Returns (inverses, D_K (nc, p), the multiplier numbers (nc, p), -1 on
    the boundary, and the number of interior facets)."""
    n, nc, p = mesh.dim, mesh.n_cells, mass.shape[1]
    r = p // (n + 1)
    interior = mesh.interior_facet_indices()
    number = np.full(mesh.n_facets, -1)
    number[interior] = np.arange(len(interior))
    facet = number[mesh.cell_facets][:, :, None]
    dofs = np.where(facet >= 0, facet + len(interior) * np.arange(r), -1).reshape(nc, p)
    signs = np.repeat(mesh.cell_facet_signs.astype(float), r, axis=1)
    m = p + r + (border is not None)
    local = np.zeros((nc, m, m))
    local[:, :p, :p] = mass
    local[:, :p, p:p + r] = signs[:, :, None] * np.tile(np.eye(r), (n + 1, 1))   # B_K^T
    local[:, p:p + r, :p] = np.swapaxes(local[:, :p, p:p + r], 1, 2)
    if border is not None:
        local[:, :p, -1] = local[:, -1, :p] = border
    if neumann:
        fixed = dofs < 0
        keep = np.hstack([~fixed, np.ones((nc, m - p), dtype=bool)])
        local *= keep[:, :, None] & keep[:, None, :]
        local[:, :p, :p] += fixed[:, :, None] * np.eye(p)
    inverse = np.linalg.inv(local)
    del local                          # freed before S is factorised: lower peak RSS
    return inverse, np.where(dofs >= 0, signs, 0.0), dofs, len(interior)


def _multiplier_blocks(inv, coupling):
    """The cell blocks S_K = D_K inverse_K[:p, :p] D_K of the multiplier
    matrix, symmetrised: (nc, p, p)."""
    p = coupling.shape[1]
    S_local = coupling[:, :, None] * (inv[:, :p, :p] * coupling[:, None, :])
    return 0.5 * (S_local + np.swapaxes(S_local, 1, 2))


def _multiplier_matrix(inv, coupling, dofs, size):
    """S = sum_K S_K (``_multiplier_blocks``) without the entries of each
    S_K at most ``_S_ROUNDING`` times its largest, in CSC, which
    ``linsolve.Factor`` keeps uncopied.  The Poisson S_K is the CR
    stiffness of K, whose right-angle facet pairs are exact zeros; the local
    inverse leaves at most 0.8, 0.3 and 1.2 eps of the cell's largest entry
    there on the Kuhn meshes 2D L7, 3D L3 and 4D box(3), and every other
    entry is at least a third of it.  Without them S has the CR pattern (2D
    L7: L+U of 920,050 entries, against 1,796,422).  Two facets share at
    most one cell, so a dropped entry leaves an exact zero, not stored."""
    S_local = _multiplier_blocks(inv, coupling)
    scale = np.abs(S_local).max(axis=(1, 2), keepdims=True)
    S_local[np.abs(S_local) <= _S_ROUNDING * scale] = 0.0
    return assembly.scatter_matrix(dofs, dofs, S_local, (size, size)).tocsc()


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


def hybrid_operator(mesh, neumann=False):
    """The local elimination of ``_solve_rt0_hybrid`` and its factorised
    multiplier matrix S, for homogeneous Dirichlet data or, with
    ``neumann``, for boundary fluxes fixed to given values (see there)."""
    n = mesh.dim
    mass = elements.rt0_mass(mesh)
    inv, coupling, dofs, ni = _eliminate(mesh, mass, neumann=neumann)
    gauge = None
    if neumann:
        # u_K = z0_K - T_K lam_K, T_K = inverse_K[:, :n+1] D_K: zero mean of u
        # is one row on lam
        inner = dofs >= 0
        row = np.bincount(dofs[inner],
                          (mesh.cell_measures[:, None] * (inv[:, n + 1, :n + 1] * coupling))[inner],
                          minlength=ni)
        gauge = assembly.Constraint(row, np.ones(ni))
    system = assembly.SaddleSystem(_multiplier_matrix(inv, coupling, dofs, ni), np.zeros(ni),
                                   gauge=gauge)
    return HybridOperator(mass, inv, coupling, dofs, system, linsolve.Factor(system))


def _solve_rt0_hybrid(mesh, g, operator, sigma_bc=None):
    """Hybridised RT0 x P0 solve: (facet fluxes (nf,), u (nc,)).

    On K the unknowns (sigma_K, u_K) solve [[M_K, s], [s^T, 0]] z_K =
    r_K - D_K lam, with M_K the RT0 mass, s the cell's facet signs and
    D_K = diag(s) on its interior facets, so each cell is eliminated by one
    (n+2, n+2) inverse.  What remains is the multiplier system
    sum_K D_K (z_K)_sigma = 0: SPD, one row per interior facet, coupling
    the facets of each cell.  The two copies of an interior flux agree to
    the accuracy of that solve; their mean is returned.

    The mesh-only half, ``operator`` (``hybrid_operator``, with ``neumann``
    when ``sigma_bc`` is given), holds the local inverses, D_K and the
    factorised S (``_multiplier_matrix``); only the local right-hand sides,
    z0_K = inverse r_K, the multiplier load and the recovery depend on g.

    ``g`` is the right-hand side -int_K f of the divergence rows, (nc,), or
    without ``sigma_bc`` a block (nc, r) of r of them, solved together.
    With ``sigma_bc`` (nf,), zero on the interior facets, the boundary
    fluxes are fixed to it and moved to the right-hand side: the multiplier
    system then has the constant in its kernel, which shifts u, and is
    gauged so that u has zero mean.  The result, (nf[, r]) and (nc[, r]), is
    gated column by column on the residual of the unhybridised system
    (``_mixed_residual``), formed once per pass.  While it exceeds the gate,
    at most ``_RT0_STEPS`` times, the same elimination and multiplier solve
    of that residual, each flux row's split evenly over its facet's cells,
    with zero boundary data and the same gauge, gives a correction (Skeel,
    Math. Comp. 35, 1980).  Constant loads at 2D L7 read 9.45e-13 and
    1.01e-12 (f = 1, -2.5) unrefined, 2.2e-13 after one step.
    """
    n, nc = mesh.dim, mesh.n_cells
    mass, inv, dofs = operator.mass, operator.inverse, operator.dofs
    if sigma_bc is None:                       # only the divergence row is loaded
        z0 = np.einsum("ca,c...->ca...", inv[:, :, n + 1], g)
    else:
        rhs = np.zeros((nc, n + 2))
        rhs[:, n + 1] = g
        known = np.where(dofs < 0, sigma_bc[mesh.cell_facets], 0.0)
        rhs[:, :n + 1] = np.where(dofs < 0, known, -np.einsum("cij,cj->ci", mass, known))
        rhs[:, n + 1] -= np.einsum("ci,ci->c", mesh.cell_facet_signs, known)
        z0 = np.einsum("cab,cb->ca", inv, rhs)
    sigma = u = None
    for step in range(_RT0_STEPS + 1):
        gauge_rhs = (0.0 if operator.system.gauge is None
                     else np.einsum("c,c->", mesh.cell_measures, z0[:, n + 1]))
        z, _ = _multiplier_solve(operator, z0,
                                 lambda system: linsolve.solve(system, operator.factor), gauge_rhs)
        d_sigma, d_u = _mean_fluxes(mesh, z[:, :n + 1]), z[:, n + 1]
        sigma, u = (d_sigma, d_u) if sigma is None else (sigma + d_sigma, u + d_u)
        load = None                            # the residuals of the columns to refine
        for column in np.ndindex(np.shape(g)[1:]):     # one pass for a single g
            at = (...,) + column
            F, x, Kx, gauge = _mixed_residual(mesh, mass, g[at], sigma[at], u[at], sigma_bc)
            try:
                linsolve.gate_residual(F, x, Kx, gauge)
            except linsolve.SolverError:
                if step == _RT0_STEPS:
                    raise
                rows = slice(None) if sigma_bc is None else mesh.interior_facet_indices()
                r, flux = F - Kx, np.zeros(mesh.n_facets)
                flux[rows] = r[:-nc] / np.bincount(mesh.cell_facets.ravel())[rows]   # per cell
                load = np.zeros(z0.shape) if load is None else load
                load[at] = np.column_stack([flux[mesh.cell_facets], r[-nc:]])
        if load is None:
            return sigma, u
        z0 = np.einsum("cab,cb...->ca...", inv, load)


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


def _mixed_residual(mesh, mass, g, sigma, u, sigma_bc=None, gauge=None):
    """(F, z, K z, gauge) for ``linsolve.gate_residual``: the unhybridised
    system of r flux rows at (fluxes sigma (r nf,), u (r nc,)), flux rows
    first, applied by ``_mixed_product`` with the local blocks ``mass``.

    Without ``sigma_bc`` it is [[A, B^T], [B, 0]] (sigma, u) = (0, g), with
    ``gauge`` if given: the system the tests assemble as their oracle
    (``tests/oracles.py``), ``assemble_mixed_poisson`` for RT0 x P0 and,
    with the trace-mean gauge (``_trace_gauge``), ``assemble_pseudostress``
    for the pseudostress.  With it, r = 1 and it is the oracle
    ``assemble_neumann_mixed``'s: the unknowns are the interior fluxes and
    u, the boundary fluxes are fixed to sigma_bc and moved to the
    right-hand side, and u has zero mean."""
    if sigma_bc is None:
        return (np.concatenate([np.zeros(len(sigma)), g]), np.concatenate([sigma, u]),
                np.concatenate(_mixed_product(mesh, mass, sigma, u)), gauge)
    interior = mesh.interior_facet_indices()
    inner = np.zeros(mesh.n_facets)
    inner[interior] = sigma[interior]
    flux_bc, div_bc = _mixed_product(mesh, mass, sigma_bc, np.zeros(mesh.n_cells))
    flux, div = _mixed_product(mesh, mass, inner, u)
    return (np.concatenate([-flux_bc[interior], g - div_bc]),
            np.concatenate([sigma[interior], u]), np.concatenate([flux[interior], div]),
            assembly.zero_mean_dual(mesh, len(interior)))


def _identity_fluxes(mesh):
    """The identity tensor's local fluxes: row r through facet i of K is
    nu_i[r] |F_i| with the facet's canonical normal, (nc, (n+1) n) in
    (facet, row) order."""
    return (mesh.facet_normals * mesh.facet_measures[:, None])[mesh.cell_facets].reshape(
        mesh.n_cells, -1)


def _trace_gauge(mesh):
    """The trace-mean gauge int tr sigma = 0 of the unhybridised
    pseudostress system, on (sigma (n nf,), u (n nc,)), with the identity
    tensor as its null vector."""
    zero = np.zeros(mesh.dim * mesh.n_cells)
    trace = mesh.facet_sums(mesh.cached(elements.rt0_moment)).T.ravel()
    identity = (mesh.facet_normals * mesh.facet_measures[:, None]).T.ravel()
    return assembly.Constraint(np.concatenate([trace, zero]), np.concatenate([identity, zero]))


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


def pseudostress_operator(mesh, rt0):
    """The mesh-only half of the hybridised pseudostress solve
    (``_solve_pseudostress``): the local elimination and the multiplier
    system [[S, E^T], [E, 0]] with its gauge.  S is n copies of the S of
    ``rt0``, the Poisson ``hybrid_operator`` of the mesh, whose factor it
    keeps; only the rows of E are scattered, and nothing is factorised."""
    n, nc = mesh.dim, mesh.n_cells
    mass, identity = elements.rt0_deviatoric_mass(mesh), _identity_fluxes(mesh)
    _check_identity_kernel(mass, identity)
    inv, coupling, dofs, ni = _eliminate(mesh, mass,
                                         mesh.cached(elements.rt0_moment).reshape(nc, -1))
    E = assembly.scatter_matrix(np.arange(nc)[:, None], dofs, (coupling * identity)[:, None, :],
                                (nc, n * ni))                           # rows e_K = D_K I_K
    S = sp.block_diag([rt0.system.A] * n, format="csr")
    system = assembly.SaddleSystem(S, np.zeros(n * ni), E, np.zeros(nc),
                                   assembly.zero_mean_dual(mesh, n * ni))
    return HybridOperator(mass, inv, coupling, dofs, system, rt0.factor)


def _solve_pseudostress(mesh, g, operator):
    """Hybridised pseudostress solve by tensor RT0 x (P0)^n with
    int tr sigma = 0, for the divergence right-hand sides g (nc, n):
    (tensor fluxes (n nf,), u (n nc,)), numbered component-major.

    The multiplier lam_F on each interior facet is an n-vector, numbered
    like the CR-Stokes velocity.  Each cell's block [[A_K, B_K^T],
    [B_K, 0]], A_K the deviatoric mass, is singular along (I_K, 0), the
    identity tensor; bordered with the trace row t_K (``rt0_moment``) it is
    invertible.  Its solution z_K has zero trace mean on K, and
    sigma_K = z_K - beta_K I_K, with one unknown beta_K per cell.  With
    e_K = D_K I_K the rows of E, what remains is [[S, E^T], [E, 0]]
    (lam, beta) = (sum_K D_K z0_K, 0), gauged by sum_K |K| beta_K = 0.  E
    is the CR-Stokes divergence B, and S_K plus e_K e_K^T / (n |K|), which
    leaves the solution unchanged since E lam = 0, is the CR vector
    stiffness of K, n copies of the Poisson S_K (Marini, SINUM 22, 1985).
    So S is n copies of the Poisson S, and no S_K is formed.  The system
    is solved on its Schur complement in beta (``linsolve.solve_schur``)
    with the factor of the Poisson S applied to each component, and
    refined and gated against S.  The two copies of an interior flux are
    averaged, and the result is gated on ``_mixed_residual``."""
    n, nc = mesh.dim, mesh.n_cells
    p = n * (n + 1)
    rhs = np.zeros((nc, p + n + 1))
    rhs[:, p:p + n] = g
    inverse = linsolve.componentwise(operator.factor.lu, n)
    z, beta = _multiplier_solve(operator, np.einsum("cab,cb->ca", operator.inverse, rhs),
                                lambda system: linsolve.solve_schur(system, inverse))
    sigma = z[:, :p] - beta[:, None] * _identity_fluxes(mesh)
    sigma = _mean_fluxes(mesh, sigma.reshape(nc, n + 1, n)).T.ravel()
    u = z[:, p:p + n].T.ravel()
    linsolve.gate_residual(*_mixed_residual(mesh, operator.mass, g.T.ravel(), sigma, u,
                                            gauge=_trace_gauge(mesh)))
    return sigma, u


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
