"""ECR = CR + closed-form cell bubbles: every primal ECR solve is the CR
solve of the same load plus one bubble coefficient per cell.  The
monolithic ECR assembly is the oracle."""

import numpy as np
import pytest

from simplexfem import assembly, elements, equivalence, linsolve, problems
from simplexfem.mesh import SimplexMesh, build_box_mesh, refine_uniform
from simplexfem.problems import (bubble_coefficients, sine_solution,
                                 solve_neumann, solve_poisson, solve_stokes)

from percell import facet_averages


def level(dim, n, variant="diagonal"):
    m = build_box_mesh(dim, 1, variant)
    for _ in range(n):
        m = refine_uniform(m)
    return m


def reference_triangle(scale=1.0):
    return SimplexMesh(2, scale * np.array([[0, 0], [1, 0], [0, 1]]), [[0, 1, 2]])


def monolithic_poisson(mesh, f):
    A, b, _ = assembly.assemble_poisson(mesh, f, "ECR")
    return linsolve.solve(assembly.SaddleSystem(A, b))[0]


def relative_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_bubble_coefficient_reference_value():
    # f = 1 on the reference triangle: (f, phi_K) = 1/2, energy 18 => 1/36
    mesh = reference_triangle()
    assert bubble_coefficients(mesh, 1.0)[0] == pytest.approx(1 / 36, abs=1e-16)
    assert bubble_coefficients(mesh, 0.0)[0] == 0.0


def test_bubble_coefficient_h2_scaling():
    b1 = bubble_coefficients(reference_triangle(), 1.0)[0]
    b2 = bubble_coefficients(reference_triangle(0.5), 1.0)[0]
    assert b2 == pytest.approx(0.25 * b1, rel=1e-14)


def test_bubble_vector_matches_local_solve():
    # piecewise-constant load: b_K = f_K |K| / ||grad phi_K||^2
    mesh = level(2, 1)
    f = np.linspace(-1, 1, mesh.n_cells)
    vec = bubble_coefficients(mesh, f)
    energy = elements.bubble_energy(2, mesh.cell_measures, mesh.cell_H)
    assert np.allclose(vec, f * mesh.cell_measures / energy, rtol=1e-13, atol=0)


@pytest.mark.parametrize("dim,lvl", [(2, 3), (3, 1)])
def test_condensed_equals_monolithic(dim, lvl):
    mesh = level(dim, lvl)
    sol = solve_poisson(mesh, 1.0, "ECR")
    assert np.abs(sol.coeffs - monolithic_poisson(mesh, 1.0)).max() <= 1e-12


def test_condensed_zero_load():
    sol = solve_poisson(level(2, 1), 0.0, "ECR")
    assert np.abs(sol.coeffs).max() == 0.0


def test_condensed_agrees_for_general_load():
    # the splitting is exact for ECR, so quadrature loads also agree
    mesh = level(2, 2)
    fix = sine_solution(2)
    sol = solve_poisson(mesh, fix.f, "ECR")
    assert np.abs(sol.coeffs - monolithic_poisson(mesh, fix.f)).max() <= 1e-12


def test_recombined_field_invariants():
    mesh = level(2, 2)
    ecr = solve_poisson(mesh, 1.0, "ECR")
    cr = solve_poisson(mesh, 1.0, "CR")
    # facet averages equal the CR solution's facet averages
    assert np.array_equal(facet_averages(ecr), facet_averages(cr))
    # cell averages equal the bubble coefficients plus the CR cell means
    cr_local = cr.dofmap.gather(cr.coeffs)[:, :, 0]
    cr_means = cr_local.sum(axis=1) / (mesh.dim + 1)
    assert np.allclose(ecr.cell_averages(), bubble_coefficients(mesh, 1.0) + cr_means,
                       atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_split_basis_decoupling(dim):
    mesh = level(dim, 1)
    S, dm = assembly.split_basis_stiffness(mesh)
    n_bubble = mesh.n_cells
    n_facet = dm.n_scalar - n_bubble
    scale = max(abs(S.data).max(), 1.0)
    coupling = S[:n_facet, n_facet:]
    max_entry = abs(coupling.toarray()).max() if coupling.nnz else 0.0
    assert max_entry <= 1e-13 * scale
    bubble_block = S[n_facet:, n_facet:].toarray()
    off = bubble_block - np.diag(np.diag(bubble_block))
    assert np.abs(off).max() <= 1e-15 * scale
    assert np.all(np.diag(bubble_block) > 0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bubble_split_block_diagonalises_the_ecr_stiffness(dim):
    # T^T A_ECR T = blockdiag(A_CR, D_b), D_b the bubble energies: what lets
    # the ECR and RT-equiv eigen solves invert A_ECR with the CR factor
    base = build_box_mesh(dim, 2) if dim == 4 else refine_uniform(build_box_mesh(dim, 2))
    rng = np.random.default_rng(dim)
    mesh = SimplexMesh(dim, base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape),
                       base.cells)
    A_ecr, _, dm = assembly.assemble_eigen(mesh, "ECR")
    A_cr, _, _ = assembly.assemble_eigen(mesh, "CR")
    T = problems.bubble_split(dm)
    S = (T.T @ A_ecr @ T).toarray()
    n_cr = A_cr.shape[0]
    energy = elements.bubble_energy(dim, mesh.cell_measures, mesh.cell_H)
    rounding = 16 * np.finfo(float).eps * np.abs(S).max()
    assert np.abs(S[:n_cr, n_cr:]).max() <= rounding
    assert np.abs(S[:n_cr, :n_cr] - A_cr).max() <= rounding
    assert np.abs(S[n_cr:, n_cr:] - np.diag(energy)).max() <= rounding


# -- every primal ECR solve against its monolithic ECR system ---------------

ORACLE_MESHES = [(2, 3), (3, 1)]


@pytest.mark.parametrize("dim,lvl", ORACLE_MESHES)
def test_poisson_matches_monolithic_ecr(dim, lvl):
    mesh = level(dim, lvl)
    f = np.random.default_rng(dim).uniform(-1, 1, mesh.n_cells)
    for load in (f, sine_solution(dim).f):
        sol = solve_poisson(mesh, load, "ECR")
        assert sol.dofmap.family == "ECR"
        assert relative_gap(sol.coeffs, monolithic_poisson(mesh, load)) <= 1e-12


@pytest.mark.parametrize("dim,lvl", ORACLE_MESHES)
def test_stokes_matches_monolithic_ecr(dim, lvl):
    mesh = level(dim, lvl)
    rng = np.random.default_rng(10 + dim)
    f = rng.uniform(-1, 1, (mesh.n_cells, dim))
    vel, prs = solve_stokes(mesh, f, "ECR")
    system, vel_dm, _ = assembly.assemble_stokes(mesh, f, "ECR")
    x, y, _ = linsolve.solve(system)
    assert vel.dofmap.n_total == vel_dm.n_total
    assert relative_gap(vel.coeffs, x) <= 1e-12
    assert relative_gap(prs.coeffs, y) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_stokes_solves_on_copies_of_the_memo_cr_stiffness(monkeypatch, dim):
    # the CR-Stokes system solve_stokes builds equals the assembled oracle's
    mesh = level(dim, 2)
    f = np.random.default_rng(20 + dim).uniform(-1, 1, (mesh.n_cells, dim))
    systems = []
    schur = linsolve.solve_schur

    def recording(system, inverse):
        systems.append(system)
        return schur(system, inverse)
    monkeypatch.setattr(linsolve, "solve_schur", recording)
    solve_stokes(mesh, f, "CR")
    oracle, _, _ = assembly.assemble_stokes(mesh, f, "CR")
    system, = systems
    for name in ("A", "B"):
        ours, theirs = getattr(system, name).tocsr(), getattr(oracle, name)
        assert np.array_equal(ours.indptr, theirs.indptr), name
        assert np.array_equal(ours.indices, theirs.indices), name
        assert ours.data.tobytes() == theirs.data.tobytes(), name
    assert system.f.tobytes() == oracle.f.tobytes()


def test_the_cr_stiffness_is_built_once_per_mesh(monkeypatch):
    built = []
    cr_stiffness = elements.cr_stiffness

    def recording(mesh):
        built.append(mesh.n_cells)
        return cr_stiffness(mesh)
    monkeypatch.setattr(elements, "cr_stiffness", recording)
    for dim in (2, 3):
        mesh = level(dim, 1)
        solve_poisson(mesh, 1.0, "ECR")
        solve_stokes(mesh, np.ones(dim), "ECR")
        solve_stokes(mesh, np.ones(dim), "CR")
        solve_poisson(mesh, 1.0, "CR")
    mesh = level(3, 1)
    solve_stokes(mesh, np.ones(3), "ECR")
    solve_poisson(mesh, 1.0, "ECR")
    assert built == [level(2, 1).n_cells] + [mesh.n_cells] * 2


@pytest.mark.parametrize("dim,lvl", ORACLE_MESHES)
def test_neumann_matches_monolithic_ecr(dim, lvl):
    mesh = level(dim, lvl)
    fix = problems.quadratic_neumann_solution(dim)
    g = problems.outward_flux_averages(mesh, fix.grad)
    sol = solve_neumann(mesh, fix.f, g, form="ecr")
    system, _ = assembly.assemble_neumann_primal(mesh, fix.f, g, "ECR")
    x, _, _ = linsolve.solve(system)
    assert relative_gap(sol.coeffs, x) <= 1e-12
    # zero mean, as the monolithic gauge demands
    mean = mesh.cell_measures @ sol.cell_averages()
    assert abs(mean) <= 1e-14 * np.abs(sol.coeffs).max()


@pytest.mark.parametrize("variant,lvl", [("diagonal", 6), ("crisscross", 5)])
def test_neumann_ecr_reproduces_quadratic_on_fine_meshes(variant, lvl):
    # the monolithic pinned ECR solve failed its 1e-12 residual gate here
    # (1.4e-11 and 9.8e-12); the CR solve passes
    table = equivalence.neumann_counterexample_report([level(2, lvl, variant)])
    assert table.columns["ecr_grad_error"][0] < 1e-9
    assert table.columns["ecr_l2_error"][0] < 1e-9


def test_ecr_solves_factorise_only_cr_sized_matrices(factorised):
    mesh = level(3, 1)
    n_interior = len(mesh.interior_facet_indices())
    solve_poisson(mesh, 1.0, "ECR")
    assert factorised == [(n_interior, "MMD_AT_PLUS_A")]
    factorised.clear()
    solve_stokes(mesh, np.ones(3), "ECR")
    # the velocity block is three copies of the CR stiffness: the Schur
    # complement solve applies the Poisson factor, nothing new is factorised
    assert factorised == []
    factorised.clear()
    fix = problems.quadratic_neumann_solution(3)
    solve_neumann(mesh, fix.f, problems.outward_flux_averages(mesh, fix.grad), form="ecr")
    # the CR facet DOFs less the one pinned by the constant null vector: SPD
    assert factorised == [(mesh.n_facets - 1, "MMD_AT_PLUS_A")]
    factorised.clear()
    solve_stokes(level(3, 1), np.ones(3), "ECR")
    # Stokes first on a mesh: the CR stiffness, as solve_poisson factorises it
    assert factorised == [(n_interior, "MMD_AT_PLUS_A")]


@pytest.mark.parametrize("dim", [2, 3])
def test_mixed_solves_factorise_only_multiplier_sized_matrices(factorised, dim):
    mesh = level(dim, 1)
    n_interior = len(mesh.interior_facet_indices())
    problems.solve_poisson_mixed(mesh, 1.0)
    assert factorised == [(n_interior, "MMD_AT_PLUS_A")]
    factorised.clear()
    fix = problems.quadratic_neumann_solution(dim)
    solve_neumann(mesh, fix.f, problems.outward_flux_averages(mesh, fix.grad), form="mixed")
    # the multiplier system less the DOF pinned by its constant null vector
    assert factorised == [(n_interior - 1, "MMD_AT_PLUS_A")]
    factorised.clear()
    problems.solve_stokes_mixed(mesh, np.ones(dim))
    # hybridised, its multiplier block dim copies of the Poisson S to
    # rounding: the Schur complement solve applies S's factor, nothing new
    # is factorised
    assert factorised == []
    problems.solve_stokes_mixed(level(dim, 1), np.ones(dim))
    # the pseudostress solve first on a mesh: S, as solve_poisson_mixed
    # factorises it
    assert factorised == [(n_interior, "MMD_AT_PLUS_A")]


@pytest.mark.parametrize("cutoff", [1, linsolve.DENSE_CUTOFF], ids=["arpack", "dense"])
def test_rt_side_never_touches_cr_or_ecr(cutoff, monkeypatch):
    # the RT0 side of each certificate must be independent of the ECR side,
    # on either eigen path
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", cutoff)

    def forbidden(*args, **kwargs):
        raise AssertionError("RT0 path called a CR/ECR/bubble function")

    for name in ("cr_eval_mesh", "ecr_eval_mesh", "bubble_eval_mesh", "bubble_values",
                 "bubble_energy", "bubble_strength", "cr_stiffness", "ecr_stiffness",
                 "cr_mass", "ecr_mass", "gradient_integrals", "_cr", "_bubble_value",
                 "_bubble_gradient", "_ecr_values", "_ecr_gradients"):
        monkeypatch.setattr(elements, name, forbidden)
    for dim in (2, 3):
        mesh = level(dim, 1)
        fix = problems.quadratic_neumann_solution(dim)
        g = problems.outward_flux_averages(mesh, fix.grad)
        sigmas = [problems.solve_poisson_mixed(mesh, 1.0)[0],
                  problems.solve_stokes_mixed(mesh, np.ones(dim))[0],
                  solve_neumann(mesh, fix.f, g, form="mixed")[0],
                  problems.solve_eigen(mesh, "RT-mixed", k=2)[0].sigma]
        for sigma in sigmas:
            sigma.affine_parts()
    with pytest.raises(AssertionError):
        solve_poisson(level(2, 1), 1.0, "ECR")
