"""Acceptance suite: every exit criterion at its stated tolerance, printing
one pass/fail line per criterion (run with ``pytest -s`` to stream them).

Criterion 5 checks only eigenvalue bounds that are theorems.  For CR these
are: the upper bound lambda_1(CR) >= 2*pi^2 on the coarse meshes (24 on
both), the min-max order lambda_1(ECR) <= lambda_1(CR) on every level
(V_CR is a subspace of V_ECR, same stiffness, same L2 mass), and Liu's
guaranteed lower bound lambda_CR / (1 + (0.1893 H)^2 lambda_CR) <= 2*pi^2
on every level.  An upper bound from CR on every refined level would be
false: CR eigenvalues are asymptotically *lower* bounds (Armentano & Duran,
ETNA 17, 2004), and on the unit-square hierarchies they converge to 2*pi^2
from below once the mesh is refined.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from simplexfem import analysis, assembly, elements, equivalence, linsolve, problems
from simplexfem.mesh import build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.quadrature import rule_for_degree

from percell import cell_geometry, ecr_eval, reference_monomial_integral

EXACT_LAMBDA = 2 * np.pi ** 2


@contextmanager
def criterion(number, title, budget=None):
    state = {"detail": ""}
    start = time.monotonic()
    try:
        yield state
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} ({title}): FAIL after {elapsed:.1f}s "
              f"{state['detail']}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"
    print(f"ACCEPTANCE {number} ({title}): PASS in {elapsed:.1f}s {state['detail']}")


def _random_loads(mesh, n, seed, ncomp=1):
    rng = np.random.default_rng(seed)
    shape = (mesh.n_cells,) if ncomp == 1 else (mesh.n_cells, ncomp)
    return [rng.uniform(-1.0, 1.0, shape) for _ in range(n)]


@pytest.fixture(scope="module")
def poisson_reports():
    """Criterion-1 sweep, shared with criterion 4."""
    reports = []
    for lvl, mesh in enumerate(mesh_hierarchy(build_box_mesh(2, 1), 4)[1:], start=1):
        for f in _random_loads(mesh, 5, seed=100 + lvl):
            reports.append(equivalence.check_poisson_identity(mesh, f, level=lvl))
    for lvl, mesh in enumerate(mesh_hierarchy(build_box_mesh(3, 1), 2)[1:], start=1):
        for f in _random_loads(mesh, 5, seed=200 + lvl):
            reports.append(equivalence.check_poisson_identity(mesh, f, level=lvl))
    return reports


def test_criterion_1_poisson_equivalence(poisson_reports):
    with criterion(1, "Poisson equivalence", budget=60) as state:
        worst_sigma = worst_u = 0.0
        for rep in poisson_reports:
            sigma_ratio = rep.residuals["sigma_vs_grad"] / rep.extra["sigma_norm"]
            u_ratio = rep.residuals["u_vs_projection"] / rep.extra["u_rt_norm"]
            worst_sigma = max(worst_sigma, sigma_ratio)
            worst_u = max(worst_u, u_ratio)
            assert sigma_ratio <= 1e-9, rep.level
            assert u_ratio <= 1e-9, rep.level
        state["detail"] = (f"worst |sigma-grad|/|sigma| = {worst_sigma:.2e}, "
                           f"worst |u-Pi0 u|/|u| = {worst_u:.2e} over "
                           f"{len(poisson_reports)} runs")


def test_criterion_2_stokes_equivalence():
    with criterion(2, "Stokes equivalence", budget=120) as state:
        worst_t = worst_w = 0.0
        runs = 0
        for lvl, mesh in enumerate(mesh_hierarchy(build_box_mesh(2, 1), 3)[1:], start=1):
            loads = [np.broadcast_to([1.0, 0.0], (mesh.n_cells, 2)).copy()]
            loads += _random_loads(mesh, 3, seed=300 + lvl, ncomp=2)
            for f in loads:
                rep = equivalence.check_stokes_identity(mesh, f, level=lvl)
                t = rep.residuals["tensor_identity"] / max(rep.extra["sigma_norm"], 1e-300)
                w = rep.relative["weak_l_relation"]
                worst_t, worst_w = max(worst_t, t), max(worst_w, w)
                runs += 1
                assert t <= 1e-8, (lvl, t)
                assert w <= 1e-8, (lvl, w)
        mesh3 = refine_uniform(build_box_mesh(3, 1))
        for f in ([1.0, 0.0, 0.0],) + tuple(_random_loads(mesh3, 3, seed=400, ncomp=3)):
            f = np.broadcast_to(np.asarray(f, dtype=float), (mesh3.n_cells, 3)).copy() \
                if np.ndim(f) == 1 else f
            rep = equivalence.check_stokes_identity(mesh3, f, level=1)
            t = rep.residuals["tensor_identity"] / max(rep.extra["sigma_norm"], 1e-300)
            worst_t = max(worst_t, t)
            worst_w = max(worst_w, rep.relative["weak_l_relation"])
            runs += 1
            assert t <= 1e-8
            assert rep.relative["weak_l_relation"] <= 1e-8
        state["detail"] = (f"worst tensor residual {worst_t:.2e}, worst weak-L "
                           f"residual {worst_w:.2e} over {runs} runs")


def test_criterion_3_marini_and_cgs():
    with criterion(3, "Marini and CGS identities", budget=60) as state:
        worst = 0.0
        for lvl, mesh in enumerate(mesh_hierarchy(build_box_mesh(2, 1), 3)[1:], start=1):
            loads = [np.full(mesh.n_cells, 1.0)] + _random_loads(mesh, 2, seed=500 + lvl)
            for f in loads:
                rep = equivalence.check_marini_identity(mesh, f, level=lvl)
                assert rep.relative["pointwise"] <= 1e-9
                worst = max(worst, rep.relative["pointwise"])
            vloads = ([np.broadcast_to([1.0, 0.0], (mesh.n_cells, 2)).copy()]
                      + _random_loads(mesh, 2, seed=600 + lvl, ncomp=2))
            for f in vloads:
                rep = equivalence.check_cgs_identity(mesh, f, level=lvl)
                assert rep.relative["tensor_pointwise"] <= 1e-9
                assert rep.relative["displacement_l2"] <= 1e-9
                worst = max(worst, rep.relative["tensor_pointwise"],
                            rep.relative["displacement_l2"])
        state["detail"] = f"worst pointwise residual {worst:.2e}"


def test_criterion_4_hdiv_conformity(poisson_reports):
    with criterion(4, "H(div) conformity and cellwise divergence") as state:
        worst_jump = worst_div = 0.0
        for rep in poisson_reports:
            assert rep.extra["jump_pass"], rep.level
            assert rep.extra["div_pass"], rep.level
            worst_jump = max(worst_jump,
                             rep.max_normal_jump / max(rep.extra["grad_sup_norm"], 1e-300))
            worst_div = max(worst_div, rep.extra["div_plus_f_max"])
        state["detail"] = (f"worst relative jump {worst_jump:.2e} (tol 1e-10), "
                           f"worst |div grad u + f| {worst_div:.2e} (tol 1e-11)")


def test_criterion_5_eigenvalue_bounds():
    with criterion(5, "eigenvalue bounds and coarse targets") as state:
        # coarse targets first: both supported coarse meshes are checked and
        # the matching one recorded
        matches = []
        for variant in ("diagonal", "crisscross"):
            coarse = build_box_mesh(2, 1, variant)
            lam_cr = problems.solve_eigen(coarse, "CR", 1)[0].lam
            lam_ecr = problems.solve_eigen(coarse, "ECR", 1)[0].lam
            # CR's only upper bound: the coarse meshes lie outside its
            # asymptotic lower-bound regime
            assert lam_cr >= EXACT_LAMBDA - 1e-12, (variant, lam_cr)
            if abs(lam_cr - 24.0) <= 5e-4 and abs(lam_ecr - 17.1429) <= 5e-4:
                matches.append(variant)
        assert matches, "no coarse mesh reproduces lambda_CR=24, lambda_ECR=17.1429"
        state["detail"] = f"coarse targets matched by: {', '.join(matches)}; "

        lams = {"CR": [], "ECR": []}
        h = []
        for mesh in mesh_hierarchy(build_box_mesh(2, 1), 4)[1:]:
            h.append(mesh.h_max)
            for fam in ("CR", "ECR"):
                lams[fam].append(problems.solve_eigen(mesh, fam, 1)[0].lam)
        err_cr = np.abs(np.array(lams["CR"]) - EXACT_LAMBDA)
        err_ecr = np.abs(np.array(lams["ECR"]) - EXACT_LAMBDA)
        for errs in (err_cr, err_ecr):
            rates, _ = analysis.fit_rate(list(errs))
            assert np.all(np.abs(rates - 2.0) <= 0.3), rates
        assert all(l <= EXACT_LAMBDA + 1e-12 for l in lams["ECR"]), \
            "ECR failed to bound from below"
        # Courant-Fischer: V_CR is a subspace of V_ECR and both use the same
        # broken stiffness and the full L2 mass
        assert all(e <= c + 1e-12 for e, c in zip(lams["ECR"], lams["CR"])), \
            f"min-max order lambda_ECR <= lambda_CR violated: {lams}"
        # CR does not bound 2*pi^2 from above on refined levels (it gives
        # asymptotic lower bounds, Armentano & Duran, ETNA 17, 2004).  What
        # it does guarantee is Liu's lower bound (Appl. Math. Comput. 267,
        # 2015): lambda >= lambda_CR / (1 + (C H)^2 lambda_CR) with
        # the CR interpolation constant C = 0.1893 and H the largest cell
        # diameter; Carstensen & Gedicke (Math. Comp. 83, 2014) prove the same
        # form with the larger C = sqrt(1/8 + 1/j_{1,1}^2) ~ 0.4394.
        glb = [l / (1.0 + (0.1893 * hk) ** 2 * l) for l, hk in zip(lams["CR"], h)]
        assert all(g <= EXACT_LAMBDA + 1e-12 for g in glb), \
            f"CR guaranteed lower bound exceeds 2*pi^2: {glb}"
        state["detail"] += (f"rates OK; lambda_CR per level {np.round(lams['CR'], 4)}; "
                            f"CR lower bound per level {np.round(glb, 4)}")


def test_criterion_6_eigen_equivalence():
    with criterion(6, "eigenvalue equivalence") as state:
        worst_lam = worst_field = 0.0
        for lvl, mesh in enumerate(mesh_hierarchy(build_box_mesh(2, 1), 3)[1:], start=1):
            k = min(3, mesh.n_cells)
            rep = equivalence.check_eigen_equivalence(mesh, k=k, level=lvl)
            lam_m = np.asarray(rep.extra["lambda_mixed"])
            lam_e = np.asarray(rep.extra["lambda_equiv"])
            rel = np.abs(lam_m - lam_e).max() / np.abs(lam_m).max()
            worst_lam = max(worst_lam, rel)
            assert rel <= 1e-10
            for key, val in rep.relative.items():
                if key.startswith(("u_identity", "sigma_identity")):
                    worst_field = max(worst_field, val)
                    assert val <= 1e-8, key
        state["detail"] = (f"worst lambda agreement {worst_lam:.2e}, worst field "
                           f"identity {worst_field:.2e}")


def test_criterion_7_superconvergence():
    with criterion(7, "eigenfunction superconvergence") as state:
        meshes = mesh_hierarchy(build_box_mesh(2, 1), 5)[1:]
        fix = problems.sine_solution(2)
        exact = (lambda x: 2.0 * fix.u(x), lambda x: 2.0 * fix.grad(x), EXACT_LAMBDA)
        table = equivalence.eigen_error_comparison(meshes, exact)
        diff_rates = table.rates("difference")[-3:]
        assert np.all((diff_rates >= 1.8) & (diff_rates <= 2.2)), diff_rates
        for name in ("ecr_error", "rt_error"):
            rates = table.rates(name)[-3:]
            assert np.all((rates >= 0.9) & (rates <= 1.1)), (name, rates)
        e1 = table.columns["ecr_error"][-1]
        e2 = table.columns["rt_error"][-1]
        gap = abs(e1 - e2) / e2
        assert gap < 0.05
        ratio = (np.array(table.columns["difference"])
                 / np.array(table.columns["rt_error"]))
        assert np.all(np.diff(ratio[-3:]) < 0)
        state["detail"] = (f"difference rates {np.round(diff_rates, 2)}, final "
                           f"primary-error gap {gap:.2%}")


def test_criterion_7_superconvergence_in_3d():
    # the eigen claim in 3D: four eigen families per level on the two
    # factors the Poisson solves use, so L4 (24,576 cells) fits the budget
    with criterion(7, "eigenfunction superconvergence in 3D", budget=30) as state:
        meshes = mesh_hierarchy(build_box_mesh(3, 1), 4)[1:]
        fix = problems.sine_solution(3)
        amplitude = 2.0 * np.sqrt(2.0)                 # unit L2 norm on the cube
        exact = (lambda x: amplitude * fix.u(x), lambda x: amplitude * fix.grad(x),
                 3 * np.pi ** 2)
        table = equivalence.eigen_error_comparison(meshes, exact)
        diff_rates = table.rates("difference")
        assert np.all((diff_rates >= 1.8) & (diff_rates <= 2.2)), diff_rates
        for name in ("ecr_error", "rt_error"):
            rates = table.rates(name)
            assert np.all((rates >= 0.9) & (rates <= 1.1)), (name, rates)
        state["detail"] = f"difference rates {np.round(diff_rates, 2)}"


def test_criterion_8_neumann_counterexample():
    with criterion(8, "Neumann counterexample") as state:
        meshes = mesh_hierarchy(build_box_mesh(2, 1), 4)[1:]
        table = equivalence.neumann_counterexample_report(meshes)
        rt = max(table.columns["rt_flux_error"])
        ecr = max(table.columns["ecr_grad_error"])
        assert rt <= 1e-9, rt
        assert ecr <= 1e-9, ecr
        betas = np.array(table.columns["beta"])
        assert betas.min() > 0
        spread = betas.max() / betas.min() - 1.0
        assert spread < 0.2, betas
        state["detail"] = (f"RT flux error {rt:.2e}, ECR error {ecr:.2e}, "
                           f"beta = {betas.mean():.4f} (spread {spread:.1%})")


def test_criterion_9_static_condensation():
    with criterion(9, "static condensation") as state:
        worst = 0.0
        for dim, lvl in ((2, 3), (3, 1)):
            mesh = build_box_mesh(dim, 1)
            for _ in range(lvl):
                mesh = refine_uniform(mesh)
            sol = problems.solve_poisson(mesh, 1.0, "ECR")
            A, b, _ = assembly.assemble_poisson(mesh, 1.0, "ECR")
            mono, _, _ = linsolve.solve(assembly.SaddleSystem(A, b))
            agree = np.abs(sol.coeffs - mono).max()
            worst = max(worst, agree)
            assert agree <= 1e-12, (dim, lvl, agree)
            S, dm = assembly.split_basis_stiffness(mesh)
            n_facet = dm.n_scalar - mesh.n_cells
            coupling = S[:n_facet, n_facet:]
            rel = (abs(coupling.toarray()).max() if coupling.nnz else 0.0) / abs(S.data).max()
            assert rel <= 1e-13, rel
        state["detail"] = f"worst coefficient disagreement {worst:.2e} (tol 1e-12)"


def test_criterion_10_convergence_comparison():
    with criterion(10, "ECR vs CR convergence", budget=30) as state:
        summary = []
        for dim, levels in ((2, 4), (3, 4)):
            fix = problems.sine_solution(dim)
            errs = {("ECR", "h1"): [], ("CR", "h1"): [],
                    ("ECR", "l2"): [], ("CR", "l2"): []}
            for mesh in mesh_hierarchy(build_box_mesh(dim, 1), levels)[1:]:
                for fam in ("ECR", "CR"):
                    u = problems.solve_poisson(mesh, fix.f, fam)
                    errs[(fam, "h1")].append(analysis.broken_h1_error(u, fix.grad))
                    errs[(fam, "l2")].append(analysis.l2_error(u, fix.u))
            for e, c in zip(errs[("ECR", "h1")], errs[("CR", "h1")]):
                assert e <= c, (dim, e, c)
            for fam in ("ECR", "CR"):
                r_h1 = analysis.fit_rate(errs[(fam, "h1")])[0][-1]
                r_l2 = analysis.fit_rate(errs[(fam, "l2")])[0][-1]
                assert 0.9 <= r_h1 <= 1.1, (dim, fam, r_h1)
                assert 1.8 <= r_l2 <= 2.2, (dim, fam, r_l2)
                summary.append(f"{dim}D {fam}: H1 {r_h1:.2f} L2 {r_l2:.2f}")
        state["detail"] = "; ".join(summary)


def test_criterion_11_element_property_suite():
    with criterion(11, "element property suite", budget=10) as state:
        import itertools
        from simplexfem.quadrature import cell_weights
        import math

        rng = np.random.default_rng(0)
        for dim in (2, 3):
            # quadrature exactness sweep at the workhorse degrees
            for deg in (4, 8):
                rule = rule_for_degree(dim, deg)
                for alpha in itertools.product(range(deg + 1), repeat=dim):
                    if sum(alpha) <= deg:
                        x = rule.points[:, 1:]
                        val = (np.prod(x ** np.array(alpha), axis=1) * rule.weights).sum()
                        exact = reference_monomial_integral(alpha)
                        assert abs(val - exact) <= 1e-12 * max(abs(exact), 1e-300)

            mesh = refine_uniform(build_box_mesh(dim, 1))
            rule = rule_for_degree(dim, 4)
            w = cell_weights(mesh, rule)
            vals, grads = elements.ecr_eval_mesh(mesh, rule.points)
            # partition identity
            assert np.abs(vals.sum(axis=2) - 1.0).max() <= 1e-13
            # cell-average DOF duality
            avgs = np.einsum("cqa,cq->ca", vals, w) / mesh.cell_measures[:, None]
            target = np.zeros(dim + 2)
            target[-1] = 1.0
            assert np.abs(avgs - target).max() <= 1e-12
            # facet-average DOF duality on a sample of cells
            frule = rule_for_degree(dim - 1, 4)
            fac = math.factorial(dim - 1)
            for c in rng.choice(mesh.n_cells, size=4, replace=False):
                g = cell_geometry(mesh, int(c))
                for local in range(dim + 1):
                    fi = mesh.cell_facets[c, local]
                    pts = np.einsum("qk,ki->qi", frule.points,
                                    mesh.vertices[mesh.facets[fi]])
                    fvals, _ = ecr_eval(g, pts)
                    avg = fac * (fvals * frule.weights[:, None]).sum(axis=0)
                    tgt = np.zeros(dim + 2)
                    tgt[local] = 1.0
                    assert np.abs(avg - tgt).max() <= 1e-12
            # P1-bubble orthogonality
            _, cr_grads = elements.cr_eval_mesh(mesh, rule.points)
            cross = np.einsum("can,cqn,cq->ca", cr_grads, grads[:, :, -1, :], w)
            assert np.abs(cross).max() <= 1e-12
        state["detail"] = "DOF duality, partition, orthogonality, exactness all <= stated tolerances"


@pytest.mark.parametrize("m", [1, 2])
def test_criterion_12_certificates_in_4d(m):
    # the paper's claim holds in any dimension: the Poisson, Stokes and
    # eigen certificates of criteria 1, 2, 4 and 6 on the 4D Kuhn box
    with criterion(12, f"4D certificates, {m}^4 cubes") as state:
        mesh = build_box_mesh(4, m)
        f = _random_loads(mesh, 1, seed=700 + m)[0]
        rep = equivalence.check_poisson_identity(mesh, f)
        sigma_ratio = rep.residuals["sigma_vs_grad"] / rep.extra["sigma_norm"]
        u_ratio = rep.residuals["u_vs_projection"] / rep.extra["u_rt_norm"]
        assert sigma_ratio <= 1e-9 and u_ratio <= 1e-9, (sigma_ratio, u_ratio)
        assert rep.extra["jump_pass"] and rep.extra["div_pass"]

        f = _random_loads(mesh, 1, seed=800 + m, ncomp=4)[0]
        rep = equivalence.check_stokes_identity(mesh, f)
        t = rep.residuals["tensor_identity"] / max(rep.extra["sigma_norm"], 1e-300)
        w = rep.relative["weak_l_relation"]
        assert t <= 1e-8 and w <= 1e-8, (t, w)

        rep = equivalence.check_eigen_equivalence(mesh, k=3)
        lam_m = np.asarray(rep.extra["lambda_mixed"])
        lam_e = np.asarray(rep.extra["lambda_equiv"])
        rel = np.abs(lam_m - lam_e).max() / np.abs(lam_m).max()
        assert rep.passed and rel <= 1e-10, (rel, rep.relative)
        fields = [v for key, v in rep.relative.items()
                  if key.startswith(("u_identity", "sigma_identity"))]
        assert fields and max(fields) <= 1e-8
        state["detail"] = (f"{mesh.n_cells} cells: Poisson {max(sigma_ratio, u_ratio):.2e}, "
                           f"Stokes {max(t, w):.2e}, eigen lambda {rel:.2e}, "
                           f"fields {max(fields):.2e}")


def test_criterion_12_eigenvalue_order_in_4d():
    # lambda_1 = 4 pi^2 on (0,1)^4; ECR bounds it from below on the Kuhn
    # box and, by Courant-Fischer, lies below CR
    with criterion(12, "4D eigenvalue order") as state:
        mesh = build_box_mesh(4, 2)
        lam_ecr = problems.solve_eigen(mesh, "ECR", 1)[0].lam
        lam_cr = problems.solve_eigen(mesh, "CR", 1)[0].lam
        exact = 4 * np.pi ** 2
        assert lam_ecr <= lam_cr + 1e-12, (lam_ecr, lam_cr)
        assert lam_ecr <= exact + 1e-12, lam_ecr
        state["detail"] = (f"{mesh.n_cells} cells: ECR {lam_ecr:.4f} <= CR {lam_cr:.4f}, "
                           f"4 pi^2 = {exact:.4f}")
