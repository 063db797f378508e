"""Numerical certification of the nonconforming/mixed equivalence identities:
piecewise-constant projection, re-expression of broken ECR gradients as RT0
fields, the Poisson and pseudostress identities, the classic 2D pointwise
identities relating CR and RT0, and the eigenvalue equivalence with its
superconvergence diagnostic.

All checks require piecewise-constant loads (cellwise arrays or scalars);
callables must be projected first, see ``require_piecewise_constant``.

Every field an identity compares has the RT0 shape c_K + r_K (x - mid K) on
each cell: ``BrokenField.gradient_parts`` and ``RTField.affine_parts`` give
(c, r) in closed form, each side from its own element.  So no check needs
quadrature: L2 norms are exact closed forms (``_affine_l2``) and the
``pointwise`` residuals and jump-gate scales are exact sups, taken at the
vertices (``_vertex_sup``).  The mesh-only arrays these read, each cell's
facet normals and vertex offsets and the RT0 moments, are formed once per
mesh (``SimplexMesh.cached``).

Both Poisson operators depend on the mesh alone, and the identity is a claim
about every piecewise-constant load, so a caller certifies many loads on
one mesh.  The drivers keep the operators of the last mesh they solved
(see ``problems``), so ``check_poisson_identity`` and
``check_marini_identity`` factorise each mesh's CR stiffness and RT0
multiplier matrix once, however many loads they certify on it; the checks
themselves hold no operator.  The Stokes checks (``check_stokes_identity``,
``check_cgs_identity``) share the same two factors: each Stokes side is
solved on its Schur complement with one of them applied component by
component, so a mesh's Poisson and Stokes certificates together factorise
two SPD matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import analysis, assembly, elements, problems
from .assembly import DataError

IDENTITY_TOL = 1e-9
STOKES_TOL = 1e-8
JUMP_TOL = 1e-10
DIV_TOL = 1e-11
LAMBDA_TOL = 1e-10


@dataclass
class IdentityReport:
    """Residual record of one identity check.

    Relative residuals are measured against the larger of the two compared
    field norms; an exact 0/0 is reported as a pass with a note.
    """

    name: str
    level: int = -1
    residuals: dict = field(default_factory=dict)
    relative: dict = field(default_factory=dict)
    max_normal_jump: float = 0.0
    tolerance: float = IDENTITY_TOL
    passed: bool = True
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def record(self, key, absolute, norm_a, norm_b):
        denom = max(norm_a, norm_b)
        self.residuals[key] = float(absolute)
        if denom == 0.0:
            self.relative[key] = 0.0
            if absolute == 0.0:
                self.notes.append(f"{key}: 0/0 treated as pass")
            else:
                self.relative[key] = np.inf
        else:
            self.relative[key] = float(absolute / denom)
        return self.relative[key]

    def finalize(self):
        self.passed = all(np.isfinite(v) and v <= self.tolerance
                          for v in self.relative.values())
        return self

    def to_dict(self):
        return {
            "identity": self.name,
            "level": self.level,
            "residuals": self.residuals,
            "relative_residuals": self.relative,
            "max_normal_jump": self.max_normal_jump,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "notes": list(self.notes),
            "extra": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                      for k, v in self.extra.items()},
        }


def require_piecewise_constant(mesh, f, ncomp=1):
    """Normalize a piecewise-constant load to a per-cell array, (nc,) or
    (nc, ncomp), by ``assembly.reduce_constant_load``; callables and
    sampled loads are rejected (the equivalence identities assume
    cellwise-constant data)."""
    values = assembly.reduce_constant_load(mesh, f, ncomp, "values")
    if values is None:
        raise DataError("equivalence checks need piecewise-constant loads; "
                        "project callables with project_p0 first")
    return values[0]


def project_p0(source, mesh):
    """Piecewise-constant L2 projection as a P0 BrokenField.

    For ECR fields the projection is the cell-coefficient block itself; CR
    and P0 fields reduce exactly as well; callables/arrays are averaged by
    quadrature.
    """
    if isinstance(source, problems.BrokenField):
        avg, ncomp = source.cell_averages(), source.ncomp
    else:
        avg, ncomp = assembly.piecewise_constant_load(mesh, source), 1
    p0 = assembly.DofMap.build(mesh, "P0", ncomp=ncomp)
    return problems.BrokenField(p0, p0.coefficients(avg))


def _facet_frames(mesh):
    """The canonical normal of each facet of each cell, (nc, n+1, n), and
    (mid F - mid K) . nu_F, (nc, n+1): mesh-only, kept by ``mesh.cached``."""
    normals = mesh.facet_normals[mesh.cell_facets]
    centers = mesh.facet_centroids[mesh.cell_facets]
    return normals, np.einsum("ckn,ckn->ck", centers - mesh.cell_centroids[:, None, :], normals)


def _vertex_offsets(mesh):
    """a_k - mid K of each vertex of each cell, (nc, n+1, n): mesh-only,
    kept by ``mesh.cached``."""
    return mesh.vertices[mesh.cells] - mesh.cell_centroids[:, None]


def _normal_traces(mesh, g, r):
    """Canonical-normal traces of g_K + r_K (x - mid K) on each facet of each
    cell (constant per facet): (nc, n+1) for g (nc, n), r (nc,), and
    (nc, n+1, ncomp) for g (nc, ncomp, n), r (nc, ncomp)."""
    normals, radial = mesh.cached(_facet_frames)
    traces = np.einsum("c...n,ckn->ck...", g, normals)
    traces += np.einsum("ck,c...->ck...", radial, r)
    return traces


def _max_interior_jump(mesh, traces):
    """Largest jump of per-(cell, local facet) traces across interior
    facets, component by component: the two cells of an interior facet
    carry opposite signs, so the jump is the signed sum of its traces."""
    interior = mesh.interior_facet_indices()
    signs = mesh.cell_facet_signs.reshape(traces.shape[:2] + (1,) * (traces.ndim - 2))
    jumps = mesh.facet_sums(signs * traces)[interior]
    return float(np.abs(jumps).max()) if len(interior) else 0.0


def _affine_l2(mesh, c, r):
    """Exact L2 norm of the cellwise affine field c_K + r_K (x - mid K), a
    vector field (c (nc, n), r (nc,)) or tensor rows (c (nc, ncomp, n),
    r (nc, ncomp)).  x - mid K integrates to zero on K, so the square norm
    on K is |K| |c_K|^2 + |r_K|^2 tr S_K, S_K the centred second moment."""
    nc = mesh.n_cells
    trace_s = np.einsum("cii->c", mesh.cell_second_moments)
    sq = (np.einsum("c,c->", mesh.cell_measures, (c ** 2).reshape(nc, -1).sum(axis=1))
          + np.einsum("c,c->", trace_s, (r ** 2).reshape(nc, -1).sum(axis=1)))
    return float(np.sqrt(sq))


def _vertex_sup(mesh, c, r):
    """Exact largest |entry| of the cellwise affine field c_K + r_K (x - mid K)
    (shapes as in ``_affine_l2``): every entry is affine on K, so its sup
    over K is taken at a vertex."""
    values = np.einsum("c...,ckn->ck...n", r, mesh.cached(_vertex_offsets))
    values += c[:, None]
    return float(np.abs(values, out=values).max())


def _compare(mesh, a, b, norm):
    """(norm(a - b), norm(a), norm(b)) for two cellwise affine fields given
    by their (c, r) parts; ``norm`` is ``_affine_l2`` or ``_vertex_sup``."""
    return norm(mesh, a[0] - b[0], a[1] - b[1]), norm(mesh, *a), norm(mesh, *b)


def _normal_jump(mesh, g, r):
    """Max interior jump of the normal traces of the cellwise affine field
    g_K + r_K (x - mid K), and its exact sup norm for scaling."""
    return _max_interior_jump(mesh, _normal_traces(mesh, g, r)), _vertex_sup(mesh, g, r)


def normal_jump_of_gradient(u):
    """Max interior jump of the (constant-per-facet) normal trace of the
    broken gradient, plus the exact sup norm of the gradient for scaling."""
    return _normal_jump(u.mesh, *u.gradient_parts())


def ecr_gradient_as_rt(u):
    """Re-express the broken gradient of an equivalence-mode ECR solution as
    an RT0 field (exact: the gradient is cellwise constant + radial).

    Raises DataError when interior normal jumps exceed ``JUMP_TOL`` relative
    to the gradient sup norm, which signals that ``u`` did not come from a
    piecewise-constant-load solve.
    """
    mesh = u.mesh
    if u.dofmap.family != "ECR" or u.ncomp != 1:
        raise ValueError("ecr_gradient_as_rt expects a scalar ECR field")
    g, r = u.gradient_parts()
    traces = _normal_traces(mesh, g, r)
    max_jump, sup = _max_interior_jump(mesh, traces), _vertex_sup(mesh, g, r)
    if max_jump > JUMP_TOL * max(sup, 1e-300):
        raise DataError(f"normal jump {max_jump:.3e} exceeds {JUMP_TOL:.1e} x "
                        f"sup|grad| = {JUMP_TOL * sup:.3e}; not an "
                        "equivalence-mode solution")
    fluxes = mesh.facet_measures[mesh.cell_facets] * traces
    counts = np.bincount(mesh.cell_facets.ravel(), minlength=mesh.n_facets)
    rt = assembly.DofMap.build(mesh, "RT0")
    return problems.RTField(rt, mesh.facet_sums(fluxes) / counts)


def _pseudostress(g, r, pressure):
    """(c, r) parts of the tensor (g + r (x - mid K)) + p id."""
    return g + pressure.coeffs[:, None, None] * np.eye(g.shape[-1]), r


def _trace_mean_gauge(mesh, parts):
    """Shift a tensor field by the constant s id with int tr(T - s id) = 0,
    where int tr T = sum_K |K| tr c_K; returns (shifted parts, s)."""
    c, r = parts
    n = mesh.dim
    s = float(np.einsum("c,crr->", mesh.cell_measures, c)) / (n * mesh.cell_measures.sum())
    return (c - s * np.eye(n), r), s


def stokes_tensor_normal_jump(vel, pressure):
    """Max interior jump of the row-wise normal traces of
    grad_NC u + p id (constant per facet), plus the exact tensor sup norm."""
    return _normal_jump(vel.mesh, *_pseudostress(*vel.gradient_parts(), pressure))


def _constant(values):
    """(c, r) parts of a piecewise-constant field: r = 0."""
    return values, np.zeros(len(values))


# -- Poisson -----------------------------------------------------------------

def check_poisson_identity(mesh, f_pc, level=-1, tol=IDENTITY_TOL):
    """Certify sigma_RT = grad_NC u_ECR and u_RT = Pi0 u_ECR for a
    piecewise-constant load, including the H(div)-conformity and cellwise
    divergence diagnostics."""
    f = require_piecewise_constant(mesh, f_pc)
    u = problems.solve_poisson(mesh, f, "ECR")
    sigma, u_rt = problems.solve_poisson_mixed(mesh, f)

    report = IdentityReport("poisson", level=level, tolerance=tol)
    grad = u.gradient_parts()
    d, na, nb = _compare(mesh, sigma.affine_parts(), grad, _affine_l2)
    report.record("sigma_vs_grad", d, na, nb)
    report.extra["sigma_norm"] = na
    d, na, nb = _compare(mesh, _constant(u_rt.coeffs), _constant(u.cell_averages()),
                         _affine_l2)
    report.record("u_vs_projection", d, na, nb)
    report.extra["u_rt_norm"] = na

    max_jump, sup = _normal_jump(mesh, *grad)
    report.max_normal_jump = max_jump
    report.extra["grad_sup_norm"] = sup
    report.extra["jump_pass"] = bool(max_jump <= JUMP_TOL * max(sup, 1e-300))

    div_err = float(np.abs(mesh.dim * grad[1] + f).max())
    report.extra["div_plus_f_max"] = div_err
    report.extra["div_pass"] = bool(div_err <= DIV_TOL * max(1.0, np.abs(f).max()))
    return report.finalize()


# -- Stokes ------------------------------------------------------------------

def check_stokes_identity(mesh, f_pc, level=-1, tol=STOKES_TOL):
    """Certify the pseudostress identity sigma_RT = grad_NC u_ECR + p id
    (after trace-mean gauge) and, weakly, u_RT = Pi0 u_ECR + L u_ECR tested
    against every RT tensor basis function."""
    n = mesh.dim
    f = require_piecewise_constant(mesh, f_pc, ncomp=n)
    vel, pressure = problems.solve_stokes(mesh, f, "ECR")
    sigma, u_rt = problems.solve_stokes_mixed(mesh, f)

    report = IdentityReport("stokes", level=level, tolerance=tol)
    g, rad = vel.gradient_parts()
    primal, shift_p = _trace_mean_gauge(mesh, _pseudostress(g, rad, pressure))
    mixed, shift_m = _trace_mean_gauge(mesh, sigma.affine_parts())
    d, na, nb = _compare(mesh, mixed, primal, _affine_l2)
    report.record("tensor_identity", d, na, nb)
    report.extra["sigma_norm"] = na
    report.extra["gauge_shift_primal"] = shift_p
    report.extra["gauge_shift_mixed"] = shift_m

    # weak relation: (u_RT - Pi0 u_ECR, div tau) = (div_NC u_ECR, tr tau / n).
    # On K, div_NC u = delta + rho . (x - mid K) with delta = tr g, rho = rad,
    # and psi_i = int_K psi_i / |K| + s_i (x - mid K) / (n|K|), so
    # int_K div_NC u psi_i = delta int_K psi_i + s_i S_K rho / (n|K|).
    delta = np.einsum("crr->c", g)
    radial = mesh.cell_facet_signs / (n * mesh.cell_measures[:, None])
    contrib = (delta[:, None, None] * mesh.cached(elements.rt0_moment)
               + np.einsum("ci,cmk,ck->cim", radial, mesh.cell_second_moments, rad)) / n
    lhs_cell = u_rt.cell_averages() - vel.cell_averages()
    t_weak = mesh.facet_sums(contrib)
    t_div = mesh.facet_sums(lhs_cell[:, None, :] * mesh.cell_facet_signs[:, :, None])
    scale = max(np.abs(t_div).max(), np.abs(t_weak).max(), 1e-300)
    weak_resid = float(np.abs(t_div - t_weak).max())
    report.record("weak_l_relation", weak_resid, scale, scale)

    report.extra["projected_divergence_max"] = float(np.abs(delta).max())

    max_jump, sup = stokes_tensor_normal_jump(vel, pressure)
    report.max_normal_jump = max_jump
    report.extra["tensor_sup_norm"] = sup
    report.extra["jump_pass"] = bool(max_jump <= JUMP_TOL * max(sup, 1e-300))
    return report.finalize()


# -- 2D pointwise identities ---------------------------------------------------

def check_marini_identity(mesh, f_pc, level=-1, tol=IDENTITY_TOL):
    """2D identity sigma_RT|_K = grad u_CR|_K - (f_K/2)(x - mid K)."""
    if mesh.dim != 2:
        raise ValueError("the Marini identity is two-dimensional")
    f = require_piecewise_constant(mesh, f_pc)
    u_cr = problems.solve_poisson(mesh, f, "CR")
    sigma, _ = problems.solve_poisson_mixed(mesh, f)

    g, r = u_cr.gradient_parts()
    predicted = (g, r - 0.5 * f)
    actual = sigma.affine_parts()

    report = IdentityReport("marini", level=level, tolerance=tol)
    report.record("l2", *_compare(mesh, actual, predicted, _affine_l2))
    report.record("pointwise", *_compare(mesh, actual, predicted, _vertex_sup))
    return report.finalize()


def cgs_displacement_correction(mesh, f_pc):
    """Closed form of (1/4) Pi0[ dev(f_K otimes (x - mid K)) (x - mid K) ]:
    f_K H_K / 144 - Cov_K f_K / 8 with Cov_K the centered second-moment
    average (2D)."""
    f = require_piecewise_constant(mesh, f_pc, ncomp=2)
    cov = mesh.cell_second_moments / mesh.cell_measures[:, None, None]
    return (f * mesh.cell_H[:, None] / 144.0
            - np.einsum("cij,cj->ci", cov, f) / 8.0)


def check_cgs_identity(mesh, f_pc, level=-1, tol=IDENTITY_TOL):
    """2D Stokes identities: the pseudostress line
    sigma_RT = grad u_CR - (f_K/2) otimes (x - mid K) + p_CR id (after
    trace-mean gauge) and the displacement line
    u_RT = Pi0 u_CR + (1/4) Pi0[dev(f_K otimes (x-mid K))(x-mid K)]."""
    if mesh.dim != 2:
        raise ValueError("the CGS identity is two-dimensional")
    f = require_piecewise_constant(mesh, f_pc, ncomp=2)
    vel, pressure = problems.solve_stokes(mesh, f, "CR")
    sigma, u_rt = problems.solve_stokes_mixed(mesh, f)

    g, r = vel.gradient_parts()
    tens, shift_p = _trace_mean_gauge(mesh, _pseudostress(g, r - 0.5 * f, pressure))
    actual, shift_m = _trace_mean_gauge(mesh, sigma.affine_parts())

    report = IdentityReport("cgs", level=level, tolerance=tol)
    report.record("tensor_l2", *_compare(mesh, actual, tens, _affine_l2))
    report.record("tensor_pointwise", *_compare(mesh, actual, tens, _vertex_sup))
    report.extra["gauge_shift_primal"] = shift_p
    report.extra["gauge_shift_mixed"] = shift_m

    predicted_u = vel.cell_averages() + cgs_displacement_correction(mesh, f)
    report.record("displacement_l2", *_compare(
        mesh, _constant(u_rt.cell_averages()), _constant(predicted_u), _affine_l2))
    return report.finalize()


# -- eigenproblems -------------------------------------------------------------

def _align_sign(values, anchor):
    v = values[anchor]
    return 1.0 if v >= 0 else -1.0


def check_eigen_equivalence(mesh, k=3, level=-1, tol=1e-8, config=None):
    """Match the RT-mixed saddle eigenproblem against the projected-mass ECR
    form: identical eigenvalues, and for simple eigenvalues the field
    identities sigma_RT = grad_NC phi and u_RT = Pi0 phi after sign
    alignment.  The mixed side solves one pair beyond k, so that a lambda_k
    repeated in lambda_{k+1} counts as multiple; only k pairs are compared."""
    n_pairs = k + 1 if k < mesh.n_cells else k     # one finite eigenvalue per cell
    mixed = problems.solve_eigen(mesh, "RT-mixed", n_pairs, config=config)
    equiv = problems.solve_eigen(mesh, "RT-equiv", k, config=config)
    lam_all = np.array([p.lam for p in mixed])
    gaps = np.abs(np.diff(lam_all)) / np.abs(lam_all[:-1])

    report = IdentityReport("eigen_equivalence", level=level, tolerance=tol)
    lam_m = lam_all[:k]
    lam_e = np.array([p.lam for p in equiv])
    lam_err = float(np.abs(lam_m - lam_e).max())
    report.record("eigenvalues", lam_err, float(np.abs(lam_m).max()),
                  float(np.abs(lam_e).max()))
    report.extra["lambda_mixed"] = lam_m
    report.extra["lambda_equiv"] = lam_e
    report.extra["lambda_tolerance"] = LAMBDA_TOL
    lam_pass = lam_err <= LAMBDA_TOL * max(np.abs(lam_m).max(), 1e-300)

    for j in range(k):
        simple = ((j == 0 or gaps[j - 1] > 1e-6)
                  and (j == len(gaps) or gaps[j] > 1e-6))
        if not simple:
            report.notes.append(f"eigenvalue {j}: multiplicity detected, "
                                "field comparison skipped")
            continue
        phi = equiv[j].primal
        u_rt = mixed[j].u.coeffs
        proj = phi.cell_averages()
        anchor = int(np.argmax(np.abs(u_rt)))
        s_m = _align_sign(u_rt, anchor)
        s_e = _align_sign(proj, anchor)
        report.record(f"u_identity_{j}", *_compare(
            mesh, _constant(s_m * u_rt), _constant(s_e * proj), _affine_l2))
        d, na, nb = _compare(mesh, [s_m * a for a in mixed[j].sigma.affine_parts()],
                             [s_e * a for a in phi.gradient_parts()], _affine_l2)
        report.record(f"sigma_identity_{j}", d, na, nb)
    report.finalize()
    report.passed = bool(report.passed and lam_pass)
    return report


def eigen_error_comparison(meshes, exact):
    """Superconvergence study for the first eigenvalue: per level the errors
    ||grad u - grad_NC u_ECR||, ||grad u - sigma_RT|| and the difference
    ||grad_NC u_ECR - sigma_RT||, with observed rates.

    ``exact`` supplies (u, grad, lam) of a normalized simple eigenfunction.
    """
    u_exact, grad_exact, lam_exact = exact
    table = analysis.ConvergenceTable(meta={"lambda_exact": lam_exact})
    anchor_point = np.full(meshes[0].dim, 0.49)
    anchor_point[1::2] = 0.51
    for mesh in meshes:
        ecr = problems.solve_eigen(mesh, "ECR", 1)[0]
        mixed = problems.solve_eigen(mesh, "RT-mixed", 1)[0]
        cell = mesh.find_cell(anchor_point)
        centroid = mesh.cell_centroids[cell]
        sign_exact = 1.0 if u_exact(centroid) >= 0 else -1.0
        s_e = sign_exact * _align_sign(ecr.primal.cell_averages(), cell)
        s_m = sign_exact * _align_sign(mixed.u.coeffs, cell)

        # ||grad u - s grad_h|| = ||s grad u - grad_h|| for a sign s
        e_primal = analysis.broken_h1_error(ecr.primal, lambda x: s_e * grad_exact(x))
        e_mixed = analysis.l2_error(mixed.sigma, lambda x: s_m * grad_exact(x))
        e_diff, _, _ = _compare(mesh, [s_e * a for a in ecr.primal.gradient_parts()],
                                [s_m * a for a in mixed.sigma.affine_parts()], _affine_l2)
        table.add_level(mesh.h_max, ecr.primal.dofmap.n_total,
                        ecr_error=e_primal, rt_error=e_mixed,
                        difference=e_diff,
                        lambda_ecr=ecr.lam, lambda_rt=mixed.lam)
    return table


def neumann_counterexample_report(meshes):
    """The pure-Neumann witness that CR and RT are not equivalent: RT (and
    ECR) reproduce u = x1^2 + x2^2 exactly while the CR error is bounded
    below by beta*h; reports per-level exactness residuals and the fitted
    beta = e_h / h.  Each level factorises the memo's two pure-Neumann
    operators (``problems.solve_neumann``), the ECR and CR solves sharing
    one."""
    dim = meshes[0].dim
    fixture = problems.quadratic_neumann_solution(dim)
    table = analysis.ConvergenceTable(meta={"fixture": fixture.label})
    volume = float(meshes[0].cell_measures.sum())
    for mesh in meshes:
        g = problems.outward_flux_averages(mesh, fixture.grad)
        mean = float(assembly.load_integrals(mesh, fixture.u).sum()) / volume

        sigma, _ = problems.solve_neumann(mesh, fixture.f, g, form="mixed")
        u_ecr = problems.solve_neumann(mesh, fixture.f, g, form="ecr")
        u_cr = problems.solve_neumann(mesh, fixture.f, g, form="cr")
        cr_err = analysis.broken_h1_error(u_cr, fixture.grad)
        # the zero-mean L2 error of the ECR field is gauge-free check data
        table.add_level(mesh.h_max, u_cr.dofmap.n_total,
                        rt_flux_error=analysis.l2_error(sigma, fixture.grad),
                        ecr_grad_error=analysis.broken_h1_error(u_ecr, fixture.grad),
                        cr_grad_error=cr_err,
                        ecr_l2_error=analysis.l2_error(u_ecr, lambda x: fixture.u(x) - mean),
                        beta=cr_err / mesh.h_max)
    return table
