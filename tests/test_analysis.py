from pathlib import Path

import numpy as np
import pytest

from simplexfem import analysis
from simplexfem.analysis import ConvergenceTable, fit_rate, osc
from simplexfem.assembly import DofMap
from simplexfem.mesh import build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.problems import BrokenField, sine_solution, solve_poisson


def linear_interpolant(mesh, a, b):
    """ECR coefficients of the global affine function a.x + b."""
    dm = DofMap.build(mesh, "ECR", dirichlet=False)
    coeffs = np.zeros(dm.n_scalar)
    coeffs[dm.facet_dofs] = mesh.facet_centroids @ a + b
    coeffs[mesh.n_facets:] = mesh.cell_centroids @ a + b
    return BrokenField(dm, coeffs)


def test_errors_vanish_for_exact_interpolant():
    mesh = refine_uniform(build_box_mesh(2, 1))
    a, b = np.array([1.5, -0.5]), 0.25
    u = linear_interpolant(mesh, a, b)
    assert analysis.l2_error(u, lambda x: np.asarray(x) @ a + b) < 1e-12
    assert analysis.broken_h1_error(u, lambda x: np.broadcast_to(a, np.asarray(x).shape)) < 1e-12


def test_gradient_norm_of_sine_closed_form():
    # zero field against u = sin(pi x) sin(pi y): error = ||grad u|| = pi/sqrt(2)
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    dm = DofMap.build(mesh, "ECR", dirichlet=True)
    zero = BrokenField(dm, np.zeros(dm.n_total))
    fix = sine_solution(2)
    err = analysis.broken_h1_error(zero, fix.grad)
    assert err == pytest.approx(np.pi / np.sqrt(2), rel=1e-10)


def test_h1_rate_on_sine_fixture():
    fix = sine_solution(2)
    errs = []
    for m in mesh_hierarchy(build_box_mesh(2, 1), 4)[1:]:
        errs.append(analysis.broken_h1_error(solve_poisson(m, fix.f, "ECR"), fix.grad))
    rates, slope = fit_rate(errs)
    assert 0.9 <= rates[-1] <= 1.1
    assert 0.9 <= slope <= 1.1


def test_osc_piecewise_constant_is_zero():
    mesh = refine_uniform(build_box_mesh(2, 1))
    rng = np.random.default_rng(0)
    assert osc(rng.uniform(-1, 1, mesh.n_cells), mesh) < 1e-15


def test_osc_decays_quadratically():
    f = lambda x: np.asarray(x)[..., 0]
    vals = [osc(f, m) for m in mesh_hierarchy(build_box_mesh(2, 1), 3)]
    rates, _ = fit_rate(vals)
    assert np.all(np.abs(rates - 2.0) < 0.05)


def test_osc_invariant_under_constant_shift():
    mesh = refine_uniform(build_box_mesh(2, 1))
    f = lambda x: np.asarray(x)[..., 0] ** 2
    g = lambda x: f(x) + 3.0
    assert osc(f, mesh) == pytest.approx(osc(g, mesh), rel=1e-12)


def test_fit_rate_examples():
    rates, slope = fit_rate([1.0, 0.5, 0.25])
    assert np.allclose(rates, [1.0, 1.0]) and slope == pytest.approx(1.0)
    rates, slope = fit_rate([1.0, 0.25, 0.0625])
    assert np.allclose(rates, [2.0, 2.0]) and slope == pytest.approx(2.0)


def test_fit_rate_noise_robust_slope():
    rng = np.random.default_rng(4)
    clean = 2.0 ** -np.arange(6)
    noisy = clean * (1 + rng.uniform(-0.05, 0.05, 6))
    _, slope_clean = fit_rate(clean)
    _, slope_noisy = fit_rate(noisy)
    assert abs(slope_noisy - slope_clean) < 0.1


def test_fit_rate_zero_flag():
    rates, slope = fit_rate([1.0, 0.0])
    assert np.isinf(rates).any() and np.isinf(slope)


def test_apriori_bound_monitor():
    # ||grad_NC(u - u_h)|| <= C (||grad u - Pi0 grad u|| + osc(f)); the fitted
    # C settles once osc (order h^2) is dominated by the best-approximation
    # term (order h), so compare it on the asymptotic levels
    fix = sine_solution(2)
    consts = []
    for m in mesh_hierarchy(build_box_mesh(2, 1), 5)[3:]:
        u = solve_poisson(m, fix.f, "ECR")
        err = analysis.broken_h1_error(u, fix.grad)
        from simplexfem.quadrature import rule_for_degree, physical_points, integrate_cellwise
        rule = rule_for_degree(2, 8)
        x = physical_points(m, rule.points)
        g = fix.grad(x)
        gbar = integrate_cellwise(m, g, rule) / m.cell_measures[:, None]
        best = analysis.l2_norm_of_values(m, g - gbar[:, None, :], rule)
        consts.append(err / (best + osc(fix.f, m)))
    assert max(consts) / min(consts) < 2.0


def test_convergence_table_csv_and_plots(tmp_path):
    t = ConvergenceTable(meta={"tol": 1e-9})
    t.add_level(0.5, 10, err=1.0)
    t.add_level(0.25, 40, err=0.25)
    csv = t.to_csv()
    assert csv.startswith("# tol=1e-09\nlevel,h,dofs,err\n")
    assert "0.25" in csv
    assert np.allclose(t.rates("err"), [2.0])
    paths = t.write_plot_files(str(tmp_path / "study"))
    assert len(paths) == 1
    content = Path(paths[0]).read_text().strip().splitlines()
    assert len(content) == 2 and len(content[0].split()) == 2
