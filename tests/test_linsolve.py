import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from simplexfem import assembly, linsolve
from simplexfem.linsolve import SolverConfig, SolverError, eig_smallest, solve_saddle, solve_spd
from simplexfem.mesh import SimplexMesh, build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.problems import outward_flux_averages, quadratic_neumann_solution


def test_diagonal_solve():
    d = np.array([1.0, 2.0, 4.0])
    A = sp.diags(d).tocsr()
    b = np.array([3.0, 3.0, 3.0])
    assert np.allclose(solve_spd(A, b), b / d, rtol=1e-15)


def test_random_spd_against_dense_oracle():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((50, 50))
    A = R @ R.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_spd(sp.csr_matrix(A), b)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_singular_matrix_detected():
    # stiffness without boundary conditions has the constant nullspace
    mesh = refine_uniform(build_box_mesh(2, 1))
    dm = assembly.DofMap.build(mesh, "ECR", dirichlet=False)
    local = assembly.stiffness_local(mesh, "ECR")
    A = assembly.scatter_matrix(dm.cell_dofs, dm.cell_dofs, local,
                                (dm.n_total, dm.n_total))
    b = np.ones(dm.n_total)
    with pytest.raises(SolverError):
        solve_spd(A, b)


def test_saddle_zero_rhs():
    mesh = refine_uniform(build_box_mesh(2, 1))
    system, rt, p0 = assembly.assemble_mixed_poisson(mesh, 0.0)
    x, y, mult = solve_saddle(system)
    assert np.all(x == 0) and np.all(y == 0)


def test_saddle_mixed_divergence():
    mesh = build_box_mesh(2, 1)
    system, rt, p0 = assembly.assemble_mixed_poisson(mesh, 1.0)
    x, y, _ = solve_saddle(system)
    div = (system.B @ x) / mesh.cell_measures
    assert np.abs(div + 1.0).max() < 1e-12


def test_saddle_constraint_row():
    mesh = refine_uniform(build_box_mesh(2, 1))
    system, vel, prs = assembly.assemble_stokes(mesh, (1.0, 0.0))
    x, y, mult = solve_saddle(system)
    assert abs((y * mesh.cell_measures).sum()) < 1e-12


def _gauged_system(name, dim):
    """A small system of each assembler that carries a gauge constraint."""
    mesh = refine_uniform(build_box_mesh(dim, 1))
    if dim == 2:
        mesh = refine_uniform(mesh)
    problem, _, family = name.partition("-")
    rng = np.random.default_rng(5)
    load = rng.uniform(-1.0, 1.0, (mesh.n_cells, dim))
    if problem == "stokes":
        return assembly.assemble_stokes(mesh, load, family)[0]
    if problem == "pseudostress":
        return assembly.assemble_pseudostress(mesh, load)[0]
    fix = quadratic_neumann_solution(dim)
    g = outward_flux_averages(mesh, fix.grad)
    if family == "mixed":
        return assembly.assemble_neumann_mixed(mesh, fix.f, g)[0]
    return assembly.assemble_neumann_primal(mesh, fix.f, g, family)[0]


GAUGED = [(name, dim) for name in ("stokes-ECR", "stokes-CR", "pseudostress",
                                   "neumann-ECR", "neumann-CR", "neumann-mixed")
          for dim in (2, 3)]


def _bordered_oracle(system):
    """Factorise the bordered matrix with its dense multiplier rows."""
    K = linsolve.saddle_matrix(system)
    parts = [system.f] + ([system.g] if system.g is not None else [])
    rhs = np.concatenate(parts + [[c.rhs for c in system.constraints]])
    lu = sla.splu(K)
    z = lu.solve(rhs)
    z = z + lu.solve(rhs - K @ z)
    np_, nd = system.n_primal, system.n_dual
    return z[:np_], z[np_:np_ + nd], z[np_ + nd:]


def _perturbed(system):
    """Incompatible data and a nonzero gauge value, so that the multiplier
    and the re-gauge shift are both nonzero."""
    rng = np.random.default_rng(9)
    g = None if system.g is None else system.g + rng.uniform(-1, 1, len(system.g))
    return assembly.SaddleSystem(
        A=system.A, f=system.f + rng.uniform(-1, 1, len(system.f)), B=system.B, g=g,
        constraints=[c._replace(rhs=0.25) for c in system.constraints])


@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("name,dim", GAUGED)
def test_pinned_solve_matches_bordered_oracle(name, dim, perturb):
    system = _gauged_system(name, dim)
    if perturb:
        system = _perturbed(system)
    got = solve_saddle(system)
    want = _bordered_oracle(system)
    con = system.constraints[0]
    c = np.concatenate([np.zeros(system.n_primal) if con.primal is None else con.primal,
                        np.zeros(system.n_dual) if con.dual is None else con.dual])
    F = np.concatenate([system.f] + ([system.g] if system.g is not None else []))
    mult_scale = np.linalg.norm(F) / np.linalg.norm(c)
    for a, b, scale in zip(got, want, (0.0, 0.0, mult_scale)):
        assert a.shape == b.shape
        assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), scale)
    if perturb:
        assert abs(want[2][0]) > 1e-3 * mult_scale


@pytest.mark.parametrize("name,dim", GAUGED)
def test_declared_gauge_is_a_null_vector(name, dim):
    system = _gauged_system(name, dim)
    k = system.constraints[0].k
    A, B = system.A, system.B
    bound = 1e-12 * sp.linalg.norm(A) * np.linalg.norm(k)
    if B is None:
        assert np.linalg.norm(A @ k) <= bound
    else:
        kx, ky = k[:system.n_primal], k[system.n_primal:]
        assert np.linalg.norm(A @ kx + B.T @ ky) <= bound
        assert np.linalg.norm(B @ kx) <= bound


@pytest.mark.parametrize("name,dim", [("stokes-ECR", 2), ("pseudostress", 3)])
@pytest.mark.parametrize("where", ["primal", "dual"])
def test_wrong_gauge_vector_fails(name, dim, where):
    system = _gauged_system(name, dim)
    k = np.zeros(system.n_primal + system.n_dual)
    k[0 if where == "primal" else system.n_primal] = 1.0
    system.constraints = [system.constraints[0]._replace(k=k)]
    with pytest.raises(SolverError):
        solve_saddle(system)


def test_eig_identity_pencil():
    A = sp.identity(6, format="csr")
    lams, X = eig_smallest(A, A, 3)
    assert np.allclose(lams, 1.0, atol=1e-12)


def test_eig_diagonal_hand_problem():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    M = sp.identity(3, format="csr")
    lams, X = eig_smallest(A, M, 3)
    assert np.allclose(lams, [1, 2, 3], atol=1e-12)


def test_eig_m_orthonormality():
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    A, M, dm = assembly.assemble_eigen(mesh, "ECR")
    lams, X = eig_smallest(A, M, 4)
    G = X.T @ (M @ X)
    assert np.abs(G - np.eye(4)).max() < 1e-10
    for lam, x in zip(lams, X.T):
        assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-10 * np.linalg.norm(A @ x)


def test_eig_projected_mass_finite_count():
    # projected mass has rank = #cells; asking for more must fail
    mesh = build_box_mesh(2, 1)
    A, M, dm = assembly.assemble_eigen(mesh, "ECR", mass="projected")
    lams, X = eig_smallest(A, M, 2)
    assert len(lams) == 2
    with pytest.raises(SolverError):
        eig_smallest(A, M, 3)


def test_eigenvalues_invariant_under_vertex_renumbering():
    mesh = refine_uniform(build_box_mesh(2, 1))
    A, M, _ = assembly.assemble_eigen(mesh, "ECR")
    lams, _ = eig_smallest(A, M, 3)

    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_vertices)
    mesh2 = SimplexMesh(2, mesh.vertices[perm], inv[mesh.cells])
    A2, M2, _ = assembly.assemble_eigen(mesh2, "ECR")
    lams2, _ = eig_smallest(A2, M2, 3)
    assert np.abs(lams - lams2).max() < 1e-10 * np.abs(lams).max()


def test_sparse_path_matches_dense_path():
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    A, M, _ = assembly.assemble_eigen(mesh, "CR")
    dense = eig_smallest(A, M, 2, SolverConfig(dense_cutoff=10 ** 6))[0]
    sparse = eig_smallest(A, M, 2, SolverConfig(dense_cutoff=1))[0]
    assert np.abs(dense - sparse).max() < 1e-9 * dense.max()


def test_sparse_path_keeps_a_cut_degenerate_cluster_accurate():
    # k = 2 cuts the pair lam2 = lam3 of CR on 2D L2; with 1e-17 of rounding
    # in the mass off-diagonals ARPACK returned a 3e-9 residual for k pairs
    A, M, _ = assembly.assemble_eigen(mesh_hierarchy(build_box_mesh(2, 1), 2)[-1], "CR")
    coo = M.tocoo()
    off = coo.row != coo.col
    noise = 1e-17 * np.random.default_rng(0).standard_normal(off.sum())
    N = sp.coo_matrix((noise, (coo.row[off], coo.col[off])), shape=M.shape)
    M = (M + N + N.T).tocsr()
    lams, X = eig_smallest(A, M, 2, SolverConfig(seed=1, dense_cutoff=1))
    assert lams[0] < lams[1]
    for lam, x in zip(lams, X.T):
        assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-12 * np.linalg.norm(A @ x)


def _rt_mixed_pencil(mesh):
    system, rt, _ = assembly.assemble_mixed_poisson(mesh, 0.0)
    M = sp.diags(np.concatenate([np.zeros(rt.n_total), mesh.cell_measures]))
    return -linsolve.saddle_matrix(system), M


def _ecr_projected_pencil(mesh):
    A, M, _ = assembly.assemble_eigen(mesh, "ECR", "projected")
    return A, M


@pytest.mark.parametrize("pencil", [_rt_mixed_pencil, _ecr_projected_pencil])
@pytest.mark.parametrize("levels", [0, 1])
@pytest.mark.parametrize("cutoff", [1, 10 ** 6])
def test_finite_eigenvalue_count_is_the_number_of_cells(pencil, levels, cutoff):
    # one finite eigenvalue per cell on either path, and SolverError, never a
    # scipy error, one beyond
    mesh = mesh_hierarchy(build_box_mesh(2, 1), levels)[-1]
    A, M = pencil(mesh)
    config = SolverConfig(dense_cutoff=cutoff)
    lams, X = eig_smallest(A, M, mesh.n_cells, config)
    assert len(lams) == mesh.n_cells and np.all(np.diff(lams) >= 0)
    with pytest.raises(SolverError):
        eig_smallest(A, M, mesh.n_cells + 1, config)


@pytest.mark.parametrize("cutoff", [1, 10 ** 6])
def test_saddle_pencil_vectors_are_m_orthonormal_eigenvectors(cutoff):
    A, M = _rt_mixed_pencil(mesh_hierarchy(build_box_mesh(2, 1), 2)[-1])
    lams, X = eig_smallest(A, M, 4, SolverConfig(dense_cutoff=cutoff))
    assert np.all(lams > 0)
    assert np.abs(X.T @ (M @ X) - np.eye(4)).max() <= 1e-12
    for lam, x in zip(lams, X.T):
        assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-12 * np.linalg.norm(A @ x)
