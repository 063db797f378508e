import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse.linalg as sla

from simplexfem import analysis, assembly, linsolve, problems
from simplexfem.mesh import build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.problems import (quadratic_neumann_solution, sine_solution,
                                 solve_eigen, solve_neumann, solve_poisson,
                                 solve_poisson_mixed, solve_stokes)
from simplexfem.quadrature import rule_for_degree

EXACT_LAMBDA_2D = 2 * np.pi ** 2


@pytest.mark.parametrize("family", ["ECR", "CR"])
def test_zero_load_zero_field(family):
    mesh = refine_uniform(build_box_mesh(2, 1))
    u = solve_poisson(mesh, 0.0, family)
    assert np.abs(u.coeffs).max() == 0.0


def test_galerkin_orthogonality_residual():
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    fix = sine_solution(2)
    A, b, dm = assembly.assemble_poisson(mesh, fix.f, "ECR")
    u = solve_poisson(mesh, fix.f, "ECR")
    r = A @ u.coeffs - b
    rng = np.random.default_rng(0)
    scale = np.linalg.norm(b)
    for _ in range(50):
        v = rng.standard_normal(dm.n_total)
        assert abs(v @ r) <= 1e-10 * np.linalg.norm(v) * max(scale, 1.0)


def test_sine_rates_2d():
    fix = sine_solution(2)
    meshes = mesh_hierarchy(build_box_mesh(2, 1), 4)[1:]
    errs_h1, errs_l2 = [], []
    for m in meshes:
        u = solve_poisson(m, fix.f, "ECR")
        errs_h1.append(analysis.broken_h1_error(u, fix.grad))
        errs_l2.append(analysis.l2_error(u, fix.u))
    rates_h1, _ = analysis.fit_rate(errs_h1)
    rates_l2, _ = analysis.fit_rate(errs_l2)
    assert 0.9 <= rates_h1[-1] <= 1.1
    assert 1.8 <= rates_l2[-1] <= 2.2


@pytest.mark.parametrize("dim,levels", [(2, 3), (3, 2)])
def test_ecr_beats_cr_on_sine(dim, levels):
    fix = sine_solution(dim)
    for m in mesh_hierarchy(build_box_mesh(dim, 1), levels)[1:]:
        e_ecr = analysis.broken_h1_error(solve_poisson(m, fix.f, "ECR"), fix.grad)
        e_cr = analysis.broken_h1_error(solve_poisson(m, fix.f, "CR"), fix.grad)
        assert e_ecr <= e_cr


def test_mixed_global_balance():
    mesh = refine_uniform(build_box_mesh(2, 1))
    sigma, u = solve_poisson_mixed(mesh, 1.0)
    total = (mesh.cell_measures * sigma.cell_divergence()).sum()
    assert total == pytest.approx(-1.0, abs=1e-12)


def test_mixed_zero_load():
    mesh = build_box_mesh(2, 1)
    sigma, u = solve_poisson_mixed(mesh, 0.0)
    assert np.abs(sigma.coeffs).max() == 0.0 and np.abs(u.coeffs).max() == 0.0


def test_neumann_rt_flux_exact():
    mesh = refine_uniform(build_box_mesh(2, 1))
    fix = quadratic_neumann_solution(2)
    g = problems.outward_flux_averages(mesh, fix.grad)
    sigma, _ = solve_neumann(mesh, fix.f, g, form="mixed")
    rule = rule_for_degree(2, 4)
    from simplexfem.quadrature import physical_points

    x = physical_points(mesh, rule.points)
    err = analysis.l2_norm_of_values(mesh, sigma.values(rule.points) - fix.grad(x), rule)
    assert err < 1e-10


def test_neumann_ecr_exact_in_space():
    mesh = refine_uniform(build_box_mesh(2, 1))
    fix = quadratic_neumann_solution(2)
    g = problems.outward_flux_averages(mesh, fix.grad)
    u = solve_neumann(mesh, fix.f, g, form="ecr")
    err = analysis.broken_h1_error(u, fix.grad)
    assert err < 1e-10


def test_eigen_monotonicity_ecr_below_cr():
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    k = 4
    ecr = [p.lam for p in solve_eigen(mesh, "ECR", k)]
    cr = [p.lam for p in solve_eigen(mesh, "CR", k)]
    for le, lc in zip(ecr, cr):
        assert le <= lc + 1e-12


def test_eigen_lower_bound_and_coarse_bracket():
    # ECR eigenvalues stay below the exact 2*pi^2 on every level; the coarse
    # CR value 24 is an upper bound
    coarse = build_box_mesh(2, 1)
    assert solve_eigen(coarse, "CR", 1)[0].lam == pytest.approx(24.0, abs=1e-10)
    assert solve_eigen(coarse, "ECR", 1)[0].lam == pytest.approx(120 / 7, abs=1e-10)
    for m in mesh_hierarchy(coarse, 3):
        lam = solve_eigen(m, "ECR", 1)[0].lam
        assert lam <= EXACT_LAMBDA_2D + 1e-10


def test_eigen_normalization():
    mesh = refine_uniform(build_box_mesh(2, 1))
    pair = solve_eigen(mesh, "ECR", 1)[0]
    norm = analysis.l2_error(pair.primal, lambda x: np.zeros(np.asarray(x).shape[:-1]))
    assert norm == pytest.approx(1.0, rel=1e-10)
    mixed = solve_eigen(mesh, "RT-mixed", 1)[0]
    assert (mixed.u.coeffs ** 2 * mesh.cell_measures).sum() == pytest.approx(1.0, rel=1e-12)
    equiv = solve_eigen(mesh, "RT-equiv", 1)[0]
    proj = equiv.primal.cell_averages()
    assert (proj ** 2 * mesh.cell_measures).sum() == pytest.approx(1.0, rel=1e-12)


def test_rt_mixed_equals_rt_equiv_eigenvalues():
    for m in mesh_hierarchy(build_box_mesh(2, 1), 2):
        lm = [p.lam for p in solve_eigen(m, "RT-mixed", min(3, m.n_cells))]
        le = [p.lam for p in solve_eigen(m, "RT-equiv", min(3, m.n_cells))]
        assert np.abs(np.array(lm) - le).max() <= 1e-10 * max(lm)


def test_eigen_error_rate_two():
    errs_ecr, errs_cr, errs_rt = [], [], []
    for m in mesh_hierarchy(build_box_mesh(2, 1), 4)[1:]:
        errs_ecr.append(abs(solve_eigen(m, "ECR", 1)[0].lam - EXACT_LAMBDA_2D))
        errs_cr.append(abs(solve_eigen(m, "CR", 1)[0].lam - EXACT_LAMBDA_2D))
        errs_rt.append(abs(solve_eigen(m, "RT-mixed", 1)[0].lam - EXACT_LAMBDA_2D))
    for errs in (errs_ecr, errs_cr, errs_rt):
        rates, _ = analysis.fit_rate(errs)
        assert 1.7 <= rates[-1] <= 2.3


def test_field_evaluation_consistency():
    # Pi0 of an ECR field equals its cell-coefficient block
    mesh = refine_uniform(build_box_mesh(2, 1))
    u = solve_poisson(mesh, 1.0, "ECR")
    rule = rule_for_degree(2, 4)
    from simplexfem.quadrature import integrate_cellwise

    means = integrate_cellwise(mesh, u.values(rule.points), rule) / mesh.cell_measures
    assert np.abs(means - u.cell_averages()).max() < 1e-13
    n_f = u.dofmap.n_scalar - mesh.n_cells
    assert np.array_equal(u.cell_averages(), u.coeffs[n_f:])


def test_facet_averages_match_coefficients():
    mesh = refine_uniform(build_box_mesh(2, 1))
    u = solve_poisson(mesh, 1.0, "ECR")
    fa = u.facet_averages()
    assert fa.shape == (mesh.n_facets,)
    assert np.all(fa[mesh.boundary_facet_indices()] == 0.0)


def _schur_oracle(mesh, family):
    """The RT pencils reduced densely to their cell blocks: B A^-1 B^T for
    RT-mixed and D - C^T F^-1 C for RT-equiv, each against diag(|K|) by dense
    eigh.  Returns all eigenvalues and, per eigenvector, the cell block and
    the eliminated block (sigma, or the ECR facet coefficients)."""
    if family == "RT-mixed":
        system, _, _ = assembly.assemble_mixed_poisson(mesh, 0.0)
        X = sla.splu(system.A.tocsc()).solve(system.B.T.toarray())
        S = system.B @ X
    else:
        A, _, dm = assembly.assemble_eigen(mesh, "ECR", "projected")
        n_f = dm.n_scalar - mesh.n_cells
        C = A[:n_f][:, n_f:]
        X = sla.splu(A[:n_f][:, :n_f].tocsc()).solve(C.toarray())
        S = A[n_f:][:, n_f:].toarray() - C.T @ X
    lams, V = dla.eigh(0.5 * (S + S.T), np.diag(mesh.cell_measures))
    return lams, V, -X @ V


def _sign_to(a, b):
    """The sign that makes a agree with b at b's entry of largest magnitude."""
    i = int(np.argmax(np.abs(b)))
    return 1.0 if a[i] * b[i] >= 0 else -1.0


@pytest.mark.parametrize("family", ["RT-mixed", "RT-equiv"])
@pytest.mark.parametrize("dim, levels", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_rt_eigenpairs_match_dense_schur_oracle(family, dim, levels):
    mesh = mesh_hierarchy(build_box_mesh(dim, 1), levels)[-1]
    k = 5
    pairs = solve_eigen(mesh, family, k)
    lams, V, W = _schur_oracle(mesh, family)
    got = np.array([p.lam for p in pairs])
    assert np.abs(got - lams[:k]).max() <= 1e-12 * lams[k - 1]
    gaps = np.diff(lams[:k + 1]) / lams[1:k + 1]
    for j, pair in enumerate(pairs):
        if (j > 0 and gaps[j - 1] <= 1e-6) or gaps[j] <= 1e-6:
            continue
        if family == "RT-mixed":
            cell, other = pair.u.coeffs, pair.sigma.coeffs
        else:
            n_f = pair.primal.coeffs.size - mesh.n_cells
            cell, other = pair.primal.coeffs[n_f:], pair.primal.coeffs[:n_f]
        sign = _sign_to(cell, V[:, j])
        assert np.abs(sign * cell - V[:, j]).max() <= 1e-10 * np.abs(V[:, j]).max()
        assert np.abs(sign * other - W[:, j]).max() <= 1e-10 * np.abs(W[:, j]).max()


@pytest.mark.parametrize("family", ["RT-mixed", "RT-equiv"])
def test_rt_eigen_dense_and_sparse_paths_agree(family):
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 3)[-1]
    dense = solve_eigen(mesh, family, 3, linsolve.SolverConfig(dense_cutoff=10 ** 6))
    sparse = solve_eigen(mesh, family, 3, linsolve.SolverConfig(dense_cutoff=1))
    lam_d = np.array([p.lam for p in dense])
    assert np.abs(lam_d - [p.lam for p in sparse]).max() <= 1e-12 * lam_d.max()
    # lam_1 is simple: its eigenvector agrees up to sign
    field = (lambda p: p.u.coeffs) if family == "RT-mixed" else (lambda p: p.primal.coeffs)
    a, b = field(dense[0]), field(sparse[0])
    assert np.abs(_sign_to(b, a) * b - a).max() <= 1e-10 * np.abs(a).max()
