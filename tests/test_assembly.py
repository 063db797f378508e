import numpy as np
import pytest
import scipy.sparse as sp

from simplexfem import assembly, elements, problems
from simplexfem.assembly import DataError, DofMap
from simplexfem.mesh import SimplexMesh, build_box_mesh, refine_uniform
from simplexfem.problems import (BrokenField, outward_flux_averages,
                                 quadratic_neumann_solution)
from simplexfem.quadrature import rule_for_degree

from percell import cell_geometry, ecr_eval, facet_cells, rt0_eval


def two_triangles():
    return build_box_mesh(2, 1)


def test_ecr_dirichlet_dof_count():
    # interior facets + cells = 1 + 2
    mesh = two_triangles()
    dm = DofMap.build(mesh, "ECR", dirichlet=True)
    assert dm.n_scalar == 3


def test_mixed_system_dimensions():
    mesh = two_triangles()
    system, rt, p0 = assembly.assemble_mixed_poisson(mesh, 1.0)
    assert rt.n_total == 5 and p0.n_total == 2
    assert system.A.shape == (5, 5)
    assert system.B.shape == (2, 5)


def test_shared_interior_facet_dofs():
    mesh = refine_uniform(two_triangles())
    dm = DofMap.build(mesh, "ECR", dirichlet=True)
    interior = mesh.interior_facet_indices()
    cells_of = facet_cells(mesh)
    for f in interior:
        k0, k1 = cells_of[f]
        l0 = int(np.argmax(mesh.cell_facets[k0] == f))
        l1 = int(np.argmax(mesh.cell_facets[k1] == f))
        assert dm.cell_dofs[k0, l0] == dm.cell_dofs[k1, l1] >= 0
    for f in mesh.boundary_facet_indices():
        k0 = cells_of[f, 0]
        l0 = int(np.argmax(mesh.cell_facets[k0] == f))
        assert dm.cell_dofs[k0, l0] == -1


@pytest.mark.parametrize("family", ["ECR", "CR"])
def test_poisson_stiffness_spd(family):
    mesh = refine_uniform(two_triangles())
    A, b, dm = assembly.assemble_poisson(mesh, 1.0, family)
    assert (abs(A - A.T) > 0).nnz == 0
    np.linalg.cholesky(A.toarray())       # factorization oracle


def test_assembly_invariant_under_traversal_order():
    # reversed scatter order must produce a bitwise-identical matrix
    mesh = refine_uniform(two_triangles())
    dm = DofMap.build(mesh, "ECR", dirichlet=True)
    local = assembly.stiffness_local(mesh, "ECR")
    A = assembly.scatter_matrix(dm.cell_dofs, dm.cell_dofs, local,
                                (dm.n_total, dm.n_total))
    A_rev = assembly.scatter_matrix(dm.cell_dofs[::-1], dm.cell_dofs[::-1],
                                    local[::-1], (dm.n_total, dm.n_total))
    assert np.array_equal(A.data, A_rev.data)
    assert np.array_equal(A.indices, A_rev.indices)


def test_zero_load_gives_zero_rhs_and_solution():
    mesh = refine_uniform(two_triangles())
    A, b, dm = assembly.assemble_poisson(mesh, 0.0, "ECR")
    assert np.all(b == 0.0)


def test_load_value_shapes():
    mesh = two_triangles()
    rule = rule_for_degree(2, 2)
    assert assembly.load_values(mesh, 2.5, rule).shape == (2, rule.n_points)
    assert assembly.load_values(mesh, np.array([1.0, 2.0]), rule).shape == (2, rule.n_points)
    vec = assembly.load_values(mesh, (1.0, 0.0), rule, ncomp=2)
    assert vec.shape == (2, rule.n_points, 2)
    with pytest.raises(DataError):
        assembly.load_values(mesh, np.ones(7), rule)


def test_energy_positive_for_unit_load():
    from simplexfem.linsolve import solve

    mesh = refine_uniform(two_triangles())
    A, b, dm = assembly.assemble_poisson(mesh, 1.0, "ECR")
    x, _, _ = solve(assembly.SaddleSystem(A, b))
    assert x @ b > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_random_ecr_field_has_zero_facet_jumps(dim):
    # int_E [v] dE = 0 by construction of the shared facet DOFs
    mesh = refine_uniform(build_box_mesh(dim, 1))
    dm = DofMap.build(mesh, "ECR", dirichlet=False)
    rng = np.random.default_rng(5)
    frule = rule_for_degree(dim - 1, 4)
    import math
    fac = math.factorial(dim - 1)
    cells_of = facet_cells(mesh)
    for _ in range(3):
        v = BrokenField(dm, rng.standard_normal(dm.n_total))
        interior = mesh.interior_facet_indices()
        for f in interior[:: max(1, len(interior) // 10)]:
            k0, k1 = cells_of[f]
            pts = np.einsum("qk,ki->qi", frule.points, mesh.vertices[mesh.facets[f]])
            vals0, _ = ecr_eval(cell_geometry(mesh, k0), pts)
            vals1, _ = ecr_eval(cell_geometry(mesh, k1), pts)
            loc0 = dm.gather(v.coeffs)[k0, :, 0]
            loc1 = dm.gather(v.coeffs)[k1, :, 0]
            jump = fac * ((vals0 @ loc0 - vals1 @ loc1) * frule.weights).sum()
            assert abs(jump) < 1e-12


def test_rt_fields_have_continuous_normal_flux():
    mesh = refine_uniform(two_triangles())
    rt = DofMap.build(mesh, "RT0")
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal(rt.n_total)
    from simplexfem.problems import RTField

    field = RTField(rt, coeffs)
    frule = rule_for_degree(1, 3)
    cells_of = facet_cells(mesh)
    for f in mesh.interior_facet_indices():
        k0, k1 = cells_of[f]
        pts_bary = np.array([[1 / 3, 1 / 3, 1 / 3]])
        # evaluate normal traces at the facet midpoint from both sides
        mid = mesh.facet_centroids[f]
        vals0, _ = rt0_eval(cell_geometry(mesh, k0), mesh.cell_facet_signs[k0], mid)
        vals1, _ = rt0_eval(cell_geometry(mesh, k1), mesh.cell_facet_signs[k1], mid)
        local0 = coeffs[rt.cell_dofs[k0]]
        local1 = coeffs[rt.cell_dofs[k1]]
        nu = mesh.facet_normals[f]
        t0 = (vals0.T @ local0) @ nu
        t1 = (vals1.T @ local1) @ nu
        assert abs(t0 - t1) < 1e-13


def test_mixed_divergence_consistency():
    from simplexfem.problems import solve_poisson_mixed

    mesh = refine_uniform(two_triangles())
    rng = np.random.default_rng(2)
    f = rng.uniform(-1, 1, mesh.n_cells)
    sigma, u = solve_poisson_mixed(mesh, f)
    assert np.abs(sigma.cell_divergence() + f).max() < 1e-12


def test_stokes_residuals():
    from simplexfem.problems import solve_stokes
    from simplexfem.quadrature import integrate_cellwise

    mesh = refine_uniform(two_triangles())
    vel, p = solve_stokes(mesh, (1.0, 0.0))
    rule = rule_for_degree(2, 4)
    div = np.einsum("cqrr->cq", vel.gradients(rule.points))
    proj = integrate_cellwise(mesh, div, rule) / mesh.cell_measures
    q = proj - (proj * mesh.cell_measures).sum()   # zero-mean test residual
    assert np.abs(proj - proj.mean()).max() < 1e-10
    assert abs((p.coeffs * mesh.cell_measures).sum()) < 1e-12


def test_stokes_zero_load():
    from simplexfem.problems import solve_stokes

    mesh = two_triangles()
    vel, p = solve_stokes(mesh, (0.0, 0.0))
    assert np.all(vel.coeffs == 0) and np.all(p.coeffs == 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_ecr_stokes_divergence_has_no_bubble_columns(dim):
    # int_K grad(phi_K) = 0: the bubble columns of B hold no entry, and the
    # facet columns equal the CR divergence block
    mesh = refine_uniform(build_box_mesh(dim, 1))
    ecr, vel, _ = assembly.assemble_stokes(mesh, np.ones(dim), "ECR")
    cr, cr_vel, _ = assembly.assemble_stokes(mesh, np.ones(dim), "CR")
    shifts = np.arange(dim)[:, None] * vel.n_scalar
    bubble_cols = (vel.cell_dofs[:, dim + 1][None, :] + shifts).ravel()
    assert ecr.B[:, bubble_cols].nnz == 0
    n_facet = cr_vel.n_scalar
    facet_cols = (np.arange(n_facet)[None, :] + shifts).ravel()
    assert (ecr.B[:, facet_cols] != cr.B).nnz == 0


def test_pseudostress_constraints():
    from simplexfem.problems import solve_stokes_mixed
    from simplexfem.quadrature import integrate_cellwise

    mesh = refine_uniform(two_triangles())
    f = (1.0, 0.0)
    sigma, u = solve_stokes_mixed(mesh, f)
    div = sigma.cell_divergence()              # (nc, 2)
    assert np.abs(div + np.array(f)).max() < 1e-10
    rule = rule_for_degree(2, 2)
    tr = integrate_cellwise(mesh, np.einsum("cqrr->cq", sigma.values(rule.points)),
                            rule).sum(axis=0)
    assert abs(tr) < 1e-10


def test_pseudostress_zero_load():
    from simplexfem.problems import solve_stokes_mixed

    mesh = two_triangles()
    sigma, u = solve_stokes_mixed(mesh, (0.0, 0.0))
    assert np.abs(sigma.coeffs).max() == 0.0
    assert np.abs(u.coeffs).max() == 0.0


def test_neumann_compatibility_guard():
    mesh = refine_uniform(two_triangles())
    with pytest.raises(DataError):
        assembly.assemble_neumann_primal(mesh, 1.0, np.zeros(mesh.n_facets), "ECR")


def test_neumann_zero_data_zero_solution():
    from simplexfem.problems import solve_neumann

    mesh = refine_uniform(two_triangles())
    u = solve_neumann(mesh, 0.0, np.zeros(mesh.n_facets), form="ecr")
    assert np.abs(u.coeffs).max() == 0.0


def test_neumann_mixed_reproduces_quadratic_flux():
    from simplexfem.problems import solve_neumann

    mesh = refine_uniform(two_triangles())
    fix = quadratic_neumann_solution(2)
    g = outward_flux_averages(mesh, fix.grad)
    sigma, u = solve_neumann(mesh, fix.f, g, form="mixed")
    rule = rule_for_degree(2, 4)
    from simplexfem.quadrature import physical_points

    x = physical_points(mesh, rule.points)
    assert np.abs(sigma.values(rule.points) - 2 * x).max() < 1e-10


def test_projected_mass_structure():
    # only the cell-average mode survives: local |K| outer(avg row)
    mesh = two_triangles()
    A, M, dm = assembly.assemble_eigen(mesh, "ECR", mass="projected")
    M = M.toarray()
    expected = np.zeros_like(M)
    expected[1:, 1:] = np.diag(mesh.cell_measures)   # dof 0 = interior facet
    assert np.abs(M - expected).max() < 1e-15


def test_eigen_stiffness_spd_after_bc():
    mesh = refine_uniform(two_triangles())
    A, M, dm = assembly.assemble_eigen(mesh, "CR", mass="full")
    np.linalg.cholesky(A.toarray())


def _assembled_matrices(mesh):
    """Every matrix the assemblers build on ``mesh``, by name."""
    dim, no_flux = mesh.dim, np.zeros(mesh.n_facets)
    out = {"split basis": assembly.split_basis_stiffness(mesh)[0]}
    for family in ("CR", "ECR"):
        out[f"poisson {family}"] = assembly.assemble_poisson(mesh, 1.0, family)[0]
        stokes = assembly.assemble_stokes(mesh, np.ones(dim), family)[0]
        out[f"stokes A {family}"], out[f"stokes B {family}"] = stokes.A, stokes.B
        out[f"neumann {family}"] = assembly.assemble_neumann_primal(
            mesh, 0.0, no_flux, family)[0].A
        for mass in ("full", "projected"):
            A, M, _ = assembly.assemble_eigen(mesh, family, mass)
            out[f"eigen A {family}"], out[f"eigen M {family} {mass}"] = A, M
    for name, system in (
            ("pseudostress", assembly.assemble_pseudostress(mesh, np.ones(dim))[0]),
            ("mixed", assembly.assemble_mixed_poisson(mesh, 1.0)[0]),
            ("neumann mixed", assembly.assemble_neumann_mixed(mesh, 0.0, no_flux)[0])):
        out[f"{name} A"], out[f"{name} B"] = system.A, system.B
    return out


@pytest.mark.parametrize("dim,m", [(2, 4), (3, 2), (4, 1)])
def test_no_assembled_matrix_stores_an_exact_zero(dim, m):
    # the right-angle facet pairs of a Kuhn mesh give exact zeros in the CR
    # stiffness; the one scatter drops them for scalar and vector maps alike
    matrices = _assembled_matrices(build_box_mesh(dim, m))
    stored = {name: int(np.count_nonzero(M.data == 0)) for name, M in matrices.items()}
    assert all(M.nnz for M in matrices.values())
    assert {name: n for name, n in stored.items() if n} == {}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["CR", "ECR", "RT0"])
def test_vector_scatter_is_the_block_diagonal_of_the_scalar_one(family, dim):
    # a local block with exact zeros in its sums: the CR stiffness on a Kuhn mesh
    mesh = refine_uniform(build_box_mesh(dim, 1))
    dirichlet = family != "RT0"
    scalar_map = DofMap.build(mesh, family, dirichlet=dirichlet)
    vector_map = DofMap.build(mesh, family, dirichlet=dirichlet, ncomp=dim)
    nl = scalar_map.cell_dofs.shape[1]
    local = np.zeros((mesh.n_cells, nl, nl))
    local[:, : dim + 1, : dim + 1] = elements.cr_stiffness(mesh)
    local[:, dim + 1:, dim + 1:] = 1.0
    scalar = assembly.scatter_symmetric(scalar_map, local)
    expected = sp.block_diag([scalar] * dim, format="csr")
    expected.eliminate_zeros()
    vector = assembly.scatter_symmetric(vector_map, local)
    assert vector.shape == expected.shape
    assert np.array_equal(vector.indptr, expected.indptr)
    assert np.array_equal(vector.indices, expected.indices)
    assert vector.data.tobytes() == expected.data.tobytes()


def _jiggled(dim):
    """``build_box_mesh(dim, 1)`` refined twice, every vertex moved a little."""
    mesh = refine_uniform(refine_uniform(build_box_mesh(dim, 1)))
    rng = np.random.default_rng(dim)
    return SimplexMesh(dim, mesh.vertices + rng.uniform(-0.03, 0.03, mesh.vertices.shape),
                       mesh.cells)


def _load_reductions(mesh, f, ncomp):
    """Every reduction of a load: integrals, CR and ECR load vectors, the
    ECR pass's ``CellLoad`` and bubbles, and ``bubble_coefficients``."""
    cell_load, bubbles = problems._cr_system(mesh, f, "ECR", lambda load: load, ncomp)
    return {"load_integrals": assembly.load_integrals(mesh, f, ncomp),
            "CR load_vector": assembly.load_vector(
                mesh, DofMap.build(mesh, "CR", dirichlet=True, ncomp=ncomp), f),
            "ECR load_vector": assembly.load_vector(
                mesh, DofMap.build(mesh, "ECR", dirichlet=True, ncomp=ncomp), f),
            "CellLoad integrals": cell_load.integrals,
            "CellLoad CR moments": cell_load.cr_moments,
            "ECR pass bubbles": bubbles,
            "bubble_coefficients": problems.bubble_coefficients(mesh, f, ncomp)}


@pytest.fixture
def rules_used(monkeypatch):
    """The number of points of the rule of every ``assembly.reduce_load``."""
    used = []
    original = assembly.reduce_load

    def recording(mesh, f, rule, *args):
        used.append(rule.n_points)
        return original(mesh, f, rule, *args)
    monkeypatch.setattr(assembly, "reduce_load", recording)
    return used


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("form", ["scalar", "(nc,)", "(n,)", "(nc, n)"])
def test_a_per_cell_constant_load_is_reduced_in_closed_form(rules_used, dim, form):
    # nothing is sampled; the degree-8 reference is the same load sampled on
    # that rule, which keeps it
    mesh = _jiggled(dim)
    rng = np.random.default_rng(7)
    ncomp, f = {"scalar": (1, -2.5),
                "(nc,)": (1, rng.uniform(-1.0, 1.0, mesh.n_cells)),
                "(n,)": (dim, rng.uniform(-1.0, 1.0, dim)),
                "(nc, n)": (dim, rng.uniform(-1.0, 1.0, (mesh.n_cells, dim)))}[form]
    degree_8 = rule_for_degree(dim, assembly.DEFAULT_LOAD_DEGREE)
    sampled = assembly.load_values(mesh, f, degree_8, ncomp)
    del rules_used[:]
    exact = _load_reductions(mesh, f, ncomp)
    assert rules_used == []
    del rules_used[:]
    reference = _load_reductions(mesh, sampled, ncomp)
    assert rules_used == [degree_8.n_points] * 5
    for name, value in reference.items():
        assert exact[name].shape == value.shape, name
        assert np.abs(exact[name] - value).max() <= 1e-14 * np.abs(value).max(), name


@pytest.mark.parametrize("dim,points", [(2, 25), (3, 125)])
def test_a_callable_load_keeps_the_degree_8_rule(rules_used, dim, points):
    mesh = _jiggled(dim)
    seen = []

    def f(x):
        seen.append(x.shape[1])
        return np.cos(x.sum(axis=-1))
    assert assembly.load_rule(mesh).n_points == points
    _load_reductions(mesh, f, 1)
    assert rules_used == [points] * 5 and set(seen) == {points}
