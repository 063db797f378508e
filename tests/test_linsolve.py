import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

import oracles
import peakrss
from simplexfem import assembly, linsolve, problems
from simplexfem.linsolve import SolverConfig, SolverError, eig_smallest, gate_saddle, solve
from simplexfem.mesh import SimplexMesh, build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.problems import outward_flux_averages, quadratic_neumann_solution, solve_eigen


def solve_matrix(A, b):
    return solve(assembly.SaddleSystem(A, b))[0]


def test_diagonal_solve():
    d = np.array([1.0, 2.0, 4.0])
    A = sp.diags(d).tocsr()
    b = np.array([3.0, 3.0, 3.0])
    assert np.allclose(solve_matrix(A, b), b / d, rtol=1e-15)


def test_random_spd_against_dense_oracle():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((50, 50))
    A = R @ R.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_matrix(sp.csr_matrix(A), b)
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
        solve_matrix(A, b)


def test_saddle_zero_rhs(factorised):
    mesh = refine_uniform(build_box_mesh(2, 1))
    system, rt, p0 = oracles.assemble_mixed_poisson(mesh, 0.0)
    x, y, mult = solve(system)
    assert np.all(x == 0) and np.all(y == 0)
    A, b, _ = assembly.assemble_poisson(mesh, 0.0, "CR")
    assert np.all(solve_matrix(A, b) == 0)
    assert factorised == []


def test_saddle_mixed_divergence():
    mesh = build_box_mesh(2, 1)
    system, rt, p0 = oracles.assemble_mixed_poisson(mesh, 1.0)
    x, y, _ = oracles.solve(system)
    div = (system.B @ x) / mesh.cell_measures
    assert np.abs(div + 1.0).max() < 1e-12


def test_saddle_constraint_row():
    mesh = refine_uniform(build_box_mesh(2, 1))
    system, vel, prs = oracles.assemble_stokes(mesh, (1.0, 0.0))
    x, y, mult = oracles.solve(system)
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
        return oracles.assemble_stokes(mesh, load, family)[0]
    if problem == "pseudostress":
        return oracles.assemble_pseudostress(mesh, load)[0]
    fix = quadratic_neumann_solution(dim)
    g = outward_flux_averages(mesh, fix.grad)
    if family == "mixed":
        return oracles.assemble_neumann_mixed(mesh, fix.f, g)[0]
    return assembly.assemble_neumann_primal(mesh, fix.f, g, family)[0]


GAUGED = [(name, dim) for name in ("stokes-ECR", "stokes-CR", "pseudostress",
                                   "neumann-ECR", "neumann-CR", "neumann-mixed")
          for dim in (2, 3)]


@pytest.mark.parametrize("name", ["stokes-CR", "pseudostress", "neumann-mixed"])
def test_a_saddle_system_is_refused_not_factorised(name, factorised):
    # the package factorises SPD matrices only: a system with a dual block
    # is solved by solve_schur, or by the tests' oracle, never by a Factor
    system = _gauged_system(name, 2)
    with pytest.raises(ValueError, match="solve_schur"):
        linsolve.Factor(system)
    with pytest.raises(ValueError, match="solve_schur"):
        solve(system)
    assert factorised == []


def _saddle_matrix(system):
    """The full bordered symmetric indefinite matrix of a SaddleSystem: the
    block matrix with a multiplier row and column for its gauge."""
    K = oracles.block_matrix(system)
    if system.gauge is None:
        return K
    c = sp.csc_matrix(system.gauge.c[:, None])
    return sp.bmat([[K, c], [c.T, None]], format="csc")


def _bordered_oracle(system):
    """Factorise the bordered matrix with its dense multiplier rows."""
    K = _saddle_matrix(system)
    parts = [system.f] + ([system.g] if system.g is not None else [])
    rhs = np.concatenate(parts + [[system.gauge.rhs]])
    lu = sla.splu(K)
    z = lu.solve(rhs)
    z = z + lu.solve(rhs - K @ z)
    np_, nd = system.n_primal, system.n_dual
    return z[:np_], z[np_:np_ + nd], z[np_ + nd]


def _perturbed(system):
    """Incompatible data and a nonzero gauge value, so that the multiplier
    and the re-gauge shift are both nonzero."""
    rng = np.random.default_rng(9)
    g = None if system.g is None else system.g + rng.uniform(-1, 1, len(system.g))
    return assembly.SaddleSystem(
        A=system.A, f=system.f + rng.uniform(-1, 1, len(system.f)), B=system.B, g=g,
        gauge=system.gauge._replace(rhs=0.25))


@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("name,dim", GAUGED)
def test_pinned_solve_matches_bordered_oracle(name, dim, perturb):
    system = _gauged_system(name, dim)
    if perturb:
        system = _perturbed(system)
    got = oracles.solve(system)
    want = _bordered_oracle(system)
    F = np.concatenate([system.f] + ([system.g] if system.g is not None else []))
    mult_scale = np.linalg.norm(F) / np.linalg.norm(system.gauge.c)
    for a, b, scale in zip(got, want, (0.0, 0.0, mult_scale)):
        assert np.shape(a) == np.shape(b)
        assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), scale)
    if perturb:
        assert abs(want[2]) > 1e-3 * mult_scale


def _schur_problem(name, dim, scale=0.0):
    """A gauged saddle system whose primal block is dim copies of one SPD
    matrix, and the inverse of that block from a factor of the matrix
    times 1 + ``scale``: CR-Stokes with the CR stiffness, or the hybridised
    pseudostress multiplier system, with a random load, against the Poisson
    S of the hybrid RT0 solve."""
    if name == "stokes-CR":
        system = _gauged_system(name, dim)
        m = system.n_primal // dim
        block = system.A[:m, :m]
    else:
        mesh = refine_uniform(build_box_mesh(dim, 1))
        if dim == 2:
            mesh = refine_uniform(mesh)
        system = problems.pseudostress_operator(mesh).system
        f = np.random.default_rng(6).uniform(-1.0, 1.0, system.n_primal)
        system = dataclasses.replace(system, f=f)
        block = problems.hybrid_operator(mesh).system.A
    factor = linsolve.Factor(assembly.SaddleSystem(block * (1.0 + scale), np.zeros(block.shape[0])))
    return system, problems._componentwise(factor.lu, dim)


SCHUR = [(name, dim) for name in ("stokes-CR", "pseudostress-multiplier") for dim in (2, 3)]


@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("name,dim", SCHUR)
def test_schur_solve_matches_bordered_oracle(name, dim, perturb):
    system, inverse = _schur_problem(name, dim)
    if perturb:
        system = _perturbed(system)
    got = linsolve.solve_schur(system, inverse)
    want = _bordered_oracle(system)
    F = np.concatenate([system.f, system.g])
    mult_scale = np.linalg.norm(F) / np.linalg.norm(system.gauge.c)
    for a, b, scale in zip(got, want, (0.0, 0.0, mult_scale)):
        assert np.shape(a) == np.shape(b)
        assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), scale)
    if perturb:
        assert abs(want[2]) > 1e-3 * mult_scale


@pytest.mark.parametrize("scale,passes", [(1e-15, True), (1e-2, False)])
def test_a_schur_inverse_of_a_nearby_matrix_is_refined_and_gated_against_the_system(
        scale, passes):
    # A^-1 applied from a factor `scale` away from A: the refinement and the
    # gate are A's, so an inverse far from A's is refused, not solved
    system, exact = _schur_problem("stokes-CR", 2)
    system, nearby = _schur_problem("stokes-CR", 2, scale)
    if passes:
        x, y, _ = linsolve.solve_schur(system, nearby)
        want_x, want_y, _ = linsolve.solve_schur(system, exact)
        assert np.linalg.norm(x - want_x) <= 1e-12 * np.linalg.norm(want_x)
        assert np.linalg.norm(y - want_y) <= 1e-12 * np.linalg.norm(want_y)
    else:
        with pytest.raises(SolverError):
            linsolve.solve_schur(system, nearby)


def test_schur_solve_raises_once_its_iterations_run_out(monkeypatch):
    system, inverse = _schur_problem("stokes-CR", 2)
    linsolve.solve_schur(system, inverse)
    monkeypatch.setattr(linsolve, "_SCHUR_MAXITER", 2)
    with pytest.raises(SolverError, match="after 2 iterations"):
        linsolve.solve_schur(system, inverse)


@pytest.mark.parametrize("field", ["c", "k"])
def test_schur_solve_refuses_a_gauge_with_a_primal_part(field):
    system, inverse = _schur_problem("stokes-CR", 2)
    entries = getattr(system.gauge, field).copy()
    entries[0] = 1.0
    system.gauge = system.gauge._replace(**{field: entries})
    with pytest.raises(ValueError, match="dual unknowns only"):
        linsolve.solve_schur(system, inverse)


@pytest.mark.parametrize("name,dim", GAUGED)
def test_a_reused_factor_solves_bitwise_like_a_fresh_one(name, dim):
    # solve(system) is a Factor used once: a Factor that has already solved
    # another right-hand side of the same matrix and gauge gives the same bits
    system = _gauged_system(name, dim)
    factor = oracles.factorise(system)
    solve(_perturbed(system), factor)
    for reused, fresh in zip(solve(system, factor), oracles.solve(system)):
        assert np.array_equal(reused, fresh)


@pytest.mark.parametrize("scale,passes", [(1e-15, True), (1e-2, False)])
def test_a_factor_of_a_nearby_matrix_is_refined_and_gated_against_the_system(scale, passes):
    # the factorised copy differs from A by `scale`; K, the refinement and
    # the gate stay A's, so a copy far from A is refused, not solved
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 3)[-1]
    A, b, _ = assembly.assemble_poisson(mesh, 1.0, "CR")
    system = assembly.SaddleSystem(A, b)
    factor = linsolve.Factor(system, factorised=A * (1.0 + scale))
    assert (factor.K != A).nnz == 0
    if passes:
        x, _, _ = solve(system, factor)
        assert np.linalg.norm(x - solve(system)[0]) <= 1e-12 * np.linalg.norm(x)
    else:
        with pytest.raises(SolverError):
            solve(system, factor)


@pytest.mark.parametrize("name,dim", GAUGED)
def test_declared_gauge_is_a_null_vector(name, dim):
    system = _gauged_system(name, dim)
    k = system.gauge.k
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
    system.gauge = system.gauge._replace(k=k)
    with pytest.raises(SolverError):
        oracles.solve(system)


@pytest.mark.parametrize("name", ["stokes-CR", "neumann-CR"])
def test_gauge_orthogonal_to_its_null_vector_fails(name):
    system = _gauged_system(name, 2)
    k = system.gauge.k
    c = np.zeros_like(k)
    i, j = np.flatnonzero(k)[:2]
    c[i], c[j] = k[j], -k[i]                   # k . c = 0 exactly
    system.gauge = assembly.Constraint(c, k)
    with pytest.raises(SolverError):
        oracles.solve(system)
    with pytest.raises(SolverError):
        gate_saddle(system, np.zeros(system.n_primal), np.zeros(system.n_dual))


@pytest.mark.parametrize("name,dim", GAUGED)
def test_undeclared_null_vector_raises(name, dim):
    # the gauge removed, K keeps its null vector: the factorisation must not
    # return a solution with an arbitrary component along it
    system = _gauged_system(name, dim)
    system.gauge = None
    with pytest.raises(SolverError, match="singular"):
        oracles.solve(system)


def _order_test_mesh(dim):
    if dim == 2:
        return mesh_hierarchy(build_box_mesh(2, 1), 2)[-1]
    return refine_uniform(build_box_mesh(3, 1)) if dim == 3 else build_box_mesh(4, 2)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("problem", ["stokes", "pseudostress"])
def test_saddle_order_puts_each_dual_dof_after_its_primal_neighbours(problem, dim):
    mesh = _order_test_mesh(dim)
    load = np.random.default_rng(dim).uniform(-1.0, 1.0, (mesh.n_cells, dim))
    system = (oracles.assemble_stokes(mesh, load, "CR") if problem == "stokes"
              else oracles.assemble_pseudostress(mesh, load))[0]
    n_primal, n = system.n_primal, system.n_primal + system.n_dual
    pinned = np.argmax(np.abs(system.gauge.k))
    order = oracles._saddle_order(system, pinned)
    assert np.array_equal(np.sort(order), np.delete(np.arange(n), pinned))
    assert pinned not in order
    position = np.full(n, -1)
    position[order] = np.arange(len(order))
    B = system.B.tocoo()
    dual, primal = B.row + n_primal, B.col
    kept = (dual != pinned) & (primal != pinned)
    assert np.all(position[dual[kept]] > position[primal[kept]])


def test_pseudostress_factor_is_sparser_than_colamd(factorised):
    # the hybridised solve factorises one SPD matrix of a row per interior
    # facet, the Poisson S, whose three copies are its multiplier block to
    # rounding; even three copies store fewer entries than the unhybridised
    # matrix's factor in either order
    mesh = refine_uniform(build_box_mesh(3, 2))
    problems.solve_stokes_mixed(mesh, np.ones(3))
    system = oracles.assemble_pseudostress(mesh, np.ones(3))[0]
    oracles.factorise(system)                      # unhybridised, constrained order
    keep = np.delete(np.arange(system.n_primal + system.n_dual),
                     np.argmax(np.abs(system.gauge.k)))
    K = oracles.block_matrix(system)[keep][:, keep]
    linsolve._splu(K, permc_spec="COLAMD", diag_pivot_thresh=1.0,
                   options={})                    # the same pinned matrix, COLAMD
    hybrid, saddle, colamd = factorised
    assert hybrid == (len(mesh.interior_facet_indices()), "MMD_AT_PLUS_A")
    assert saddle == (K.shape[0], "NATURAL") and colamd == (K.shape[0], "COLAMD")
    assert 3 * hybrid.lu_nnz < min(saddle.lu_nnz, colamd.lu_nnz)


@pytest.mark.parametrize("problem", ["poisson", "stokes"])
def test_a_factor_stores_its_l_and_u_and_nothing_else(problem, factorised):
    # SuperLU's relaxed supernodes store explicit zeros: 26% more entries
    # than L + U on the 3D L3 CR stiffness, 15% more on 3D L2 CR-Stokes
    if problem == "poisson":
        problems.poisson_operator(mesh_hierarchy(build_box_mesh(3, 1), 3)[-1])
    else:
        mesh = mesh_hierarchy(build_box_mesh(3, 1), 2)[-1]
        load = np.random.default_rng(3).uniform(-1.0, 1.0, (mesh.n_cells, 3))
        oracles.factorise(oracles.assemble_stokes(mesh, load, "CR")[0])
    [entry] = factorised
    assert entry[1] == ("MMD_AT_PLUS_A" if problem == "poisson" else "NATURAL")
    assert entry.stored <= 1.001 * entry.lu_nnz, (entry.stored, entry.lu_nnz)


FACTOR_PEAK_SCRIPT = """
from simplexfem import assembly, linsolve
from simplexfem.mesh import build_box_mesh, mesh_hierarchy


def stiffness(level):
    mesh = mesh_hierarchy(build_box_mesh(2, 1), level)[-1]
    return assembly.poisson_stiffness(mesh, "CR")[0].tocsc()


linsolve._splu(stiffness(2), **linsolve._SPD_ORDER)      # imports and set-up, on a small matrix
K = stiffness(7)
filler = padded()
before = peak_mb()
lu = linsolve._splu(K, **linsolve._SPD_ORDER)
print(json.dumps({"raised_mb": peak_mb() - before, "entries": lu.L.nnz + lu.U.nnz}))
"""


def test_factorising_the_2d_level_7_cr_stiffness_peaks_below_twice_its_factor(tmp_path):
    # 48,896 rows, an L+U of 920,050 entries, 10.5 MB at 12 bytes an entry
    # (value and row index).  It raised the peak by 17.3 MB; SuperLU's
    # default panel of 20 columns, whose work arrays grow with it, by 29.3 MB
    measured = peakrss.run(FACTOR_PEAK_SCRIPT, tmp_path)
    assert measured["raised_mb"] <= 2 * 12 * measured["entries"] / 2.0 ** 20, measured


def test_a_column_block_solves_like_its_columns_and_gates_each():
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 2)[-1]
    A = assembly.assemble_poisson(mesh, 0.0, "CR")[0]
    F = np.random.default_rng(4).standard_normal((A.shape[0], 3))
    F[:, 1] = 0.0
    X = solve(assembly.SaddleSystem(A, F))[0]
    for x, f in zip(X.T, F.T):
        assert np.abs(x - solve_matrix(A, f)).max() <= 1e-15 * max(np.abs(x).max(), 1.0)
    X[:, 2] *= 1.0 + 1e-9                          # one column off: the block fails
    with pytest.raises(SolverError):
        linsolve.gate_residual(F, X, A @ X)


@pytest.mark.parametrize("field", ["c", "k"])
def test_gauge_of_the_wrong_length_is_rejected(field):
    system = _gauged_system("stokes-CR", 2)
    short = system.gauge._replace(**{field: getattr(system.gauge, field)[:-1]})
    with pytest.raises(ValueError):
        assembly.SaddleSystem(system.A, system.f, system.B, system.g, short)


def _assembled(A, M):
    """``eig_smallest``'s (inverse, M, pencil) of an assembled SPD pencil
    (A, M): A^-1 by its factor in the SPD order, and the two sides
    (A x, lam M x)."""
    lu = linsolve._splu(sp.csc_matrix(A), **linsolve._SPD_ORDER)
    return lu.solve, M, lambda lam, x: (A @ x, lam * (M @ x))


def _eig(A, M, k, config=None):
    return eig_smallest(*_assembled(A, M), k, config)


def test_eig_identity_pencil():
    A = sp.identity(6, format="csr")
    lams, X = _eig(A, A, 3)
    assert np.allclose(lams, 1.0, atol=1e-12)


def test_eig_diagonal_hand_problem():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    M = sp.identity(3, format="csr")
    lams, X = _eig(A, M, 3)
    assert np.allclose(lams, [1, 2, 3], atol=1e-12)


def test_eig_m_orthonormality():
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    A, M, dm = assembly.assemble_eigen(mesh, "ECR")
    lams, X = _eig(A, M, 4)
    G = X.T @ (M @ X)
    assert np.abs(G - np.eye(4)).max() < 1e-10
    for lam, x in zip(lams, X.T):
        assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-10 * np.linalg.norm(A @ x)


def test_eig_projected_mass_finite_count():
    # projected mass has rank = #cells; asking for more must fail
    mesh = build_box_mesh(2, 1)
    A, M, dm = assembly.assemble_eigen(mesh, "ECR", mass="projected")
    lams, X = _eig(A, M, 2)
    assert len(lams) == 2
    with pytest.raises(SolverError):
        _eig(A, M, 3)


def test_eigenvalues_invariant_under_vertex_renumbering():
    mesh = refine_uniform(build_box_mesh(2, 1))
    A, M, _ = assembly.assemble_eigen(mesh, "ECR")
    lams, _ = _eig(A, M, 3)

    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_vertices)
    mesh2 = SimplexMesh(2, mesh.vertices[perm], inv[mesh.cells])
    A2, M2, _ = assembly.assemble_eigen(mesh2, "ECR")
    lams2, _ = _eig(A2, M2, 3)
    assert np.abs(lams - lams2).max() < 1e-10 * np.abs(lams).max()


def test_sparse_path_matches_dense_path(monkeypatch):
    mesh = refine_uniform(refine_uniform(build_box_mesh(2, 1)))
    A, M, _ = assembly.assemble_eigen(mesh, "CR")
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 10 ** 6)
    dense = _eig(A, M, 2)[0]
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    sparse = _eig(A, M, 2)[0]
    assert np.abs(dense - sparse).max() < 1e-9 * dense.max()


def test_sparse_path_keeps_a_cut_degenerate_cluster_accurate(monkeypatch):
    # k = 2 cuts the pair lam2 = lam3 of CR on 2D L2; with 1e-17 of rounding
    # in the mass off-diagonals ARPACK returned a 3e-9 residual for k pairs
    A, M, _ = assembly.assemble_eigen(mesh_hierarchy(build_box_mesh(2, 1), 2)[-1], "CR")
    coo = M.tocoo()
    off = coo.row != coo.col
    noise = 1e-17 * np.random.default_rng(0).standard_normal(off.sum())
    N = sp.coo_matrix((noise, (coo.row[off], coo.col[off])), shape=M.shape)
    M = (M + N + N.T).tocsr()
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    lams, X = _eig(A, M, 2, SolverConfig(seed=1))
    assert lams[0] < lams[1]
    for lam, x in zip(lams, X.T):
        assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-12 * np.linalg.norm(A @ x)


def _rt_mixed_pencil(mesh):
    inverse, M, pencil, _ = problems._eigen_problem(mesh, "RT-mixed")
    return inverse, M, pencil


def _ecr_projected_pencil(mesh):
    A, M, _ = assembly.assemble_eigen(mesh, "ECR", "projected")
    return _assembled(A, M)


@pytest.mark.parametrize("pencil", [_rt_mixed_pencil, _ecr_projected_pencil])
@pytest.mark.parametrize("levels", [0, 1])
@pytest.mark.parametrize("cutoff", [1, 10 ** 6])
def test_finite_eigenvalue_count_is_the_number_of_cells(pencil, levels, cutoff,
                                                       monkeypatch):
    # one finite eigenvalue per cell on either path, and SolverError, never a
    # scipy error, one beyond
    mesh = mesh_hierarchy(build_box_mesh(2, 1), levels)[-1]
    problem = pencil(mesh)
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", cutoff)
    lams, X = eig_smallest(*problem, mesh.n_cells)
    assert len(lams) == mesh.n_cells and np.all(np.diff(lams) >= 0)
    with pytest.raises(SolverError):
        eig_smallest(*problem, mesh.n_cells + 1)


@pytest.mark.parametrize("family", ["ECR", "CR", "RT-equiv", "RT-mixed"])
def test_arpack_factorises_through_splu(factorised, family, monkeypatch):
    # ARPACK's shift-invert on one family alone factorises one matrix, in the
    # SPD order, through linsolve._splu: the CR stiffness for CR, ECR and
    # RT-equiv, the hybrid multiplier matrix for RT-mixed
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 2)[-1]
    n_interior = len(mesh.interior_facet_indices())
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    solve_eigen(mesh, family, 1)
    assert factorised == [(n_interior, "MMD_AT_PLUS_A")]


def test_the_four_eigen_families_factorise_two_matrices(factorised, monkeypatch):
    # ARPACK on every family of one mesh: CR, ECR and RT-equiv shift-invert
    # with the CR stiffness's factor, RT-mixed with the hybrid multiplier
    # matrix's; both have one row per interior facet
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 2)[-1]
    n_interior = len(mesh.interior_facet_indices())
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    for family in ("ECR", "CR", "RT-equiv", "RT-mixed"):
        solve_eigen(mesh, family, 1)
    assert factorised == [(n_interior, "MMD_AT_PLUS_A")] * 2


@pytest.mark.parametrize("cutoff", [1, 10 ** 6])
def test_saddle_pencil_vectors_are_m_orthonormal_eigenvectors(cutoff, monkeypatch):
    # RT-mixed solves on P0 and recovers sigma: the pairs (sigma, u) are
    # checked on the assembled saddle pencil -K z = lam diag(0, |K|) z
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 2)[-1]
    system, rt, _ = oracles.assemble_mixed_poisson(mesh, 0.0)
    K = _saddle_matrix(system)
    M = sp.diags(np.concatenate([np.zeros(rt.n_total), mesh.cell_measures]))
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", cutoff)
    pairs = solve_eigen(mesh, "RT-mixed", 4)
    X = np.array([np.concatenate([p.sigma.coeffs, p.u.coeffs]) for p in pairs]).T
    assert all(p.lam > 0 for p in pairs)
    assert np.abs(X.T @ (M @ X) - np.eye(4)).max() <= 1e-12
    for pair, x in zip(pairs, X.T):
        assert np.linalg.norm(-K @ x - pair.lam * (M @ x)) <= 1e-12 * np.linalg.norm(K @ x)


def test_no_factorisation_sees_a_stored_zero(factorised):
    # every certificate and every eigen family on small meshes: a matrix
    # built outside assembly.scatter_matrix would bring its zeros here
    from simplexfem import equivalence

    for dim, levels in ((2, 2), (3, 1)):
        mesh = mesh_hierarchy(build_box_mesh(dim, 1), levels)[-1]
        loads = np.random.default_rng(dim).uniform(-1.0, 1.0, (mesh.n_cells, dim))
        equivalence.check_poisson_identity(mesh, loads[:, 0])
        equivalence.check_stokes_identity(mesh, loads)
        if dim == 2:
            equivalence.check_marini_identity(mesh, loads[:, 0])
            equivalence.check_cgs_identity(mesh, loads)
        equivalence.check_eigen_equivalence(mesh, k=2)
        for family in ("ECR", "CR", "RT-equiv", "RT-mixed"):
            solve_eigen(mesh, family, 2)
        fix = quadratic_neumann_solution(dim)
        g = outward_flux_averages(mesh, fix.grad)
        for form in ("ecr", "cr", "mixed"):
            problems.solve_neumann(mesh, fix.f, g, form)
    # per mesh: the CR stiffness and the hybrid RT0 S, which the Stokes
    # certificates and the eigen families share with the Poisson ones, and
    # the two pure-Neumann operators, the gauged CR stiffness, which the ECR
    # and CR solves share, and the Neumann S
    assert len(factorised) == 8
    assert [(f, f.zeros) for f in factorised if f.zeros] == []
