import tracemalloc

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse.linalg as sla

from simplexfem import analysis, assembly, elements, hybrid, linsolve, problems
from simplexfem.linsolve import SolverError
from simplexfem.mesh import SimplexMesh, build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.problems import (quadratic_neumann_solution, sine_solution,
                                 solve_eigen, solve_neumann, solve_poisson,
                                 solve_poisson_mixed, solve_stokes)
from simplexfem.quadrature import rule_for_degree

import oracles
import peakrss
from meshes import delaunay_box
from percell import facet_averages

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


# -- the hybridised RT0 solve against the unhybridised saddle solve ---------

MIXED_MESHES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]


def mixed_mesh(dim, lvl, jiggle):
    mesh = mesh_hierarchy(build_box_mesh(dim, 1), lvl)[-1]
    if not jiggle:
        return mesh
    rng = np.random.default_rng(10 * dim + lvl)
    moved = mesh.vertices + rng.uniform(-0.1, 0.1, mesh.vertices.shape) / 2 ** lvl
    return SimplexMesh(dim, moved, mesh.cells)


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("jiggle", [False, True])
@pytest.mark.parametrize("dim,lvl", MIXED_MESHES)
def test_hybrid_mixed_poisson_matches_saddle_oracle(dim, lvl, jiggle):
    mesh = mixed_mesh(dim, lvl, jiggle)
    pc = np.random.default_rng(lvl).uniform(-1.0, 1.0, mesh.n_cells)
    for load in (pc, sine_solution(dim).f):
        sigma, u = solve_poisson_mixed(mesh, load)
        system, _, _ = oracles.assemble_mixed_poisson(mesh, load)
        x, y, _ = oracles.solve(system)
        assert relative_gap(sigma.coeffs, x) <= 1e-12
        assert relative_gap(u.coeffs, y) <= 1e-12


@pytest.mark.parametrize("jiggle", [False, True])
@pytest.mark.parametrize("dim,lvl", MIXED_MESHES)
def test_hybrid_mixed_neumann_matches_saddle_oracle(dim, lvl, jiggle):
    mesh = mixed_mesh(dim, lvl, jiggle)
    fix = quadratic_neumann_solution(dim)
    g = problems.outward_flux_averages(mesh, fix.grad)
    sigma, u = solve_neumann(mesh, fix.f, g, form="mixed")
    system, _, _, interior, sigma_bc = oracles.assemble_neumann_mixed(mesh, fix.f, g)
    x, y, _ = oracles.solve(system)
    oracle = sigma_bc.copy()
    oracle[interior] = x
    assert relative_gap(sigma.coeffs, oracle) <= 1e-12
    assert relative_gap(u.coeffs, y) <= 1e-12
    assert np.array_equal(sigma.coeffs[mesh.boundary_facet_indices()],
                          sigma_bc[mesh.boundary_facet_indices()])


@pytest.mark.parametrize("make", [lambda: mesh_hierarchy(build_box_mesh(2, 1), 5)[-1],
                                  lambda: mesh_hierarchy(build_box_mesh(3, 1), 2)[-1],
                                  lambda: build_box_mesh(4, 2)], ids=["2d-L5", "3d-L2", "4d-box2"])
def test_multiplier_matrix_has_the_pattern_of_the_cr_stiffness(monkeypatch, make):
    # S_K is the CR stiffness of K; the local inverse leaves rounding where
    # a right-angle facet pair makes that zero, and those slots are dropped
    mesh = make()
    matrices = []
    splu = linsolve._splu

    def recorded(K, **order):
        matrices.append(K.tocsr())
        return splu(K, **order)

    monkeypatch.setattr(linsolve, "_splu", recorded)
    solve_poisson_mixed(mesh, 1.0)
    (S,) = matrices
    A = assembly.assemble_poisson(mesh, 1.0, "CR")[0]
    for M in (S, A):
        M.sort_indices()
    assert np.array_equal(S.indptr, A.indptr) and np.array_equal(S.indices, A.indices)
    assert np.abs(S - A).max() <= 1e-15 * np.abs(A).max()


def biased(solve):
    """``solve`` with a fixed bias on its primal's first entry, after the
    solve's own gate: 1e-9 of the largest entry of the first primal it
    returns, added to that one and to every later one.  A refinement step
    solves again and meets the same bias, so it cannot remove it."""
    bias = []

    def perturbed(*args):
        out = solve(*args)
        if not bias:
            bias.append(1e-9 * np.abs(out[0]).max())
        out[0][0] += bias[0]
        return out
    return perturbed


def test_hybrid_gate_rejects_a_perturbed_multiplier(monkeypatch):
    for dim, lvl in ((2, 3), (3, 1)):
        mesh = mixed_mesh(dim, lvl, True)
        f = np.random.default_rng(0).uniform(-1.0, 1.0, mesh.n_cells)
        fix = quadratic_neumann_solution(dim)
        g = problems.outward_flux_averages(mesh, fix.grad)
        solve_poisson_mixed(mesh, f)
        solve_neumann(mesh, fix.f, g, form="mixed")
        # the multiplier solves gate their own residual; only the residual of
        # the unhybridised mixed system can see the bias, which the refinement
        # steps of the hybrid solve meet again
        with monkeypatch.context() as patch:
            patch.setattr(linsolve, "solve", biased(linsolve.solve))
            with pytest.raises(SolverError):
                solve_poisson_mixed(mesh, f)
        with monkeypatch.context() as patch:
            patch.setattr(linsolve, "solve", biased(linsolve.solve))
            with pytest.raises(SolverError):
                solve_neumann(mesh, fix.f, g, form="mixed")


def test_hybrid_neumann_solve_is_refined_on_a_delaunay_mesh():
    # 1,577 cells, slivers kept: unrefined, the unhybridised residual read
    # 1.3e-12 against the 1e-12 gate
    mesh = delaunay_box(3, 250, 2)
    fix = quadratic_neumann_solution(3)
    g = problems.outward_flux_averages(mesh, fix.grad)
    sigma, u = solve_neumann(mesh, fix.f, g, form="mixed")
    system, _, _, interior, _ = oracles.assemble_neumann_mixed(mesh, fix.f, g)
    x, y, _ = oracles.solve(system)
    assert relative_gap(sigma.coeffs[interior], x) <= 1e-12
    assert relative_gap(u.coeffs, y) <= 1e-12


def test_hybrid_neumann_zero_data():
    mesh = refine_uniform(build_box_mesh(2, 1))
    sigma, u = solve_neumann(mesh, 0.0, np.zeros(mesh.n_facets), form="mixed")
    assert np.abs(sigma.coeffs).max() == 0.0 and np.abs(u.coeffs).max() == 0.0


# -- the mixed gate, applied from the hybrid's local blocks ------------------

def mixed_case(dim, lvl, kind, scale=1.0):
    """A jiggled mesh and the data of a Dirichlet or pure-Neumann mixed
    solve: (mesh, load, boundary flux data or None), all times ``scale``."""
    mesh = mixed_mesh(dim, lvl, True)
    if kind == "dirichlet":
        return mesh, scale * np.random.default_rng(lvl).uniform(-1.0, 1.0, mesh.n_cells), None
    fix = quadratic_neumann_solution(dim)
    g = problems.outward_flux_averages(mesh, fix.grad)
    return mesh, lambda x: scale * fix.f(x), scale * g


def solve_mixed(mesh, f, g):
    if g is None:
        return solve_poisson_mixed(mesh, f)
    return solve_neumann(mesh, f, g, form="mixed")


def gate_mixed(mesh, f, g, sigma, u):
    """The gate of ``hybrid._mixed_residual`` on (sigma, u), with the data of
    ``mixed_case``."""
    sigma_bc = None if g is None else assembly.boundary_fluxes(mesh, f, g)
    return linsolve.gate_residual(*hybrid._mixed_residual(
        mesh, elements.rt0_mass(mesh), -assembly.load_integrals(mesh, f), sigma, u, sigma_bc))


GATE_CASES = [(2, 4, "dirichlet"), (2, 4, "neumann"), (3, 2, "dirichlet"),
              (3, 2, "neumann")]


@pytest.mark.parametrize("dim,lvl,kind", GATE_CASES)
def test_local_block_gate_matches_the_assembled_gate(monkeypatch, dim, lvl, kind):
    mesh, f, g = mixed_case(dim, lvl, kind)
    residuals = []
    gate = linsolve._gate

    def recorded(residual, what):
        residuals.append(residual)
        return gate(residual, what)

    monkeypatch.setattr(linsolve, "_gate", recorded)
    sigma, u = solve_mixed(mesh, f, g)
    local = residuals[-1]                    # the last gate is the mixed one
    if g is None:
        system, _, _ = oracles.assemble_mixed_poisson(mesh, f)
        linsolve.gate_saddle(system, sigma.coeffs, u.coeffs)
    else:
        system, _, _, interior, _ = oracles.assemble_neumann_mixed(mesh, f, g)
        linsolve.gate_saddle(system, sigma.coeffs[interior], u.coeffs)
    assert 0.0 < local <= linsolve.RESIDUAL_TOL
    assert abs(local - residuals[-1]) <= 1e-16


@pytest.mark.parametrize("dim,lvl,kind", GATE_CASES)
def test_local_block_gate_rejects_a_moved_flux(dim, lvl, kind):
    mesh, f, g = mixed_case(dim, lvl, kind)
    sigma, u = solve_mixed(mesh, f, g)
    gate_mixed(mesh, f, g, sigma.coeffs, u.coeffs)
    moved = sigma.coeffs.copy()
    interior = mesh.interior_facet_indices()
    facet = interior[np.argmax(np.abs(moved[interior]))]
    moved[facet] += 1e-6 * np.abs(moved).max()
    with pytest.raises(SolverError):
        gate_mixed(mesh, f, g, moved, u.coeffs)


@pytest.mark.parametrize("dim,lvl,kind", GATE_CASES)
def test_local_block_gate_passes_a_zero_load(dim, lvl, kind):
    mesh, f, g = mixed_case(dim, lvl, kind, scale=0.0)
    sigma, u = solve_mixed(mesh, f, g)
    assert np.abs(sigma.coeffs).max() == 0.0 and np.abs(u.coeffs).max() == 0.0
    gate_mixed(mesh, f, g, sigma.coeffs, u.coeffs)


@pytest.mark.parametrize("dim,lvl,jiggle", [(2, 5, False), (3, 2, True)],
                         ids=["2D L5", "jiggled 3D L2"])
def test_the_factorised_copy_of_s_is_s_without_its_rounding_level_entries(
        dim, lvl, jiggle, monkeypatch):
    # S itself, the matrix that is refined and gated against and the one
    # SuperLU receives, is its definition: the cell blocks with those
    # entries zeroed, scattered
    received = []
    splu = linsolve._splu

    def recording(K, **order):
        received.append(K.tocsr())
        return splu(K, **order)
    monkeypatch.setattr(linsolve, "_splu", recording)
    operator = hybrid.hybrid_operator(mixed_mesh(dim, lvl, jiggle))
    shape = operator.system.A.shape
    local = hybrid._multiplier_blocks(operator.inverse, operator.coupling)
    scale = np.abs(local).max(axis=(1, 2), keepdims=True)
    local[np.abs(local) <= hybrid._S_ROUNDING * scale] = 0.0
    expected = assembly.scatter_matrix(operator.dofs, operator.dofs, local, shape)
    for S in (operator.system.A.tocsr(), *received):
        for a, b in ((S.indptr, expected.indptr), (S.indices, expected.indices),
                     (S.data, expected.data)):
            assert a.tobytes() == b.tobytes()
    assert len(received) == 1


@pytest.mark.parametrize("neumann", [False, True])
def test_rt0_operator_build_peaks_within_2_2_times_what_it_keeps(neumann):
    # one multiplier matrix, shared by the system and its factor; the full S
    # beside a copy without its rounding-level entries took the peak to 2.61
    # (Dirichlet) and 2.47 (Neumann) times what is kept
    mesh = mesh_hierarchy(build_box_mesh(3, 1), 3)[-1]
    operator = hybrid.hybrid_operator(mesh, neumann=neumann)
    S, K = operator.system.A, operator.factor.K
    assert all(np.shares_memory(getattr(K, name), getattr(S, name))
               for name in ("data", "indices", "indptr"))
    kept, peak = peakrss.traced(lambda: hybrid.hybrid_operator(mesh, neumann=neumann))
    assert peak <= 2.2 * kept, (kept, peak)


@pytest.mark.parametrize("dim,lvl,lu_nnz", [(2, 5, 36108), (3, 3, 268448)])
def test_on_kuhn_meshes_the_s_factor_is_the_size_of_the_cr_factor(dim, lvl, lu_nnz):
    # S equals the CR stiffness, whose right-angle slots are exact zeros;
    # without its rounding-level entries it has that pattern, so both
    # factors store as many entries
    mesh = mesh_hierarchy(build_box_mesh(dim, 1), lvl)[-1]
    s_lu = hybrid.hybrid_operator(mesh).factor.lu
    cr_lu = problems.poisson_operator(mesh).lu
    assert s_lu.nnz == cr_lu.nnz
    assert s_lu.L.nnz + s_lu.U.nnz == lu_nnz


def test_mixed_solves_assemble_no_global_rt0_system(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a mixed solve assembled a global RT0 matrix")

    monkeypatch.setattr(oracles, "assemble_mixed_poisson", forbidden)
    monkeypatch.setattr(assembly, "scatter_symmetric", forbidden)
    for dim in (2, 3):
        for kind in ("dirichlet", "neumann"):
            solve_mixed(*mixed_case(dim, 1, kind))


@pytest.mark.parametrize("dim,lvl", [(2, 6), (3, 3)])
def test_bubble_moments_hold_at_most_four_load_samples(dim, lvl):
    # no (nc, Q, n) point, offset or gradient array: the peak stays within
    # four (nc, Q) arrays of float64, the load sample included.  A callable
    # load is sampled on the degree-8 rule, 25 points in 2D and 125 in 3D
    mesh = mesh_hierarchy(build_box_mesh(dim, 1), lvl)[-1]
    f = sine_solution(dim).f
    n_points = rule_for_degree(dim, assembly.DEFAULT_LOAD_DEGREE).n_points
    assert assembly.load_rule(mesh).n_points == n_points
    tracemalloc.start()
    try:
        problems.bubble_coefficients(mesh, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * mesh.n_cells * n_points * 8


def _sine_by_np_prod(dim):
    """The sine fixture as np.prod formulas: (u, grad, f)."""
    def u(x):
        return np.prod(np.sin(np.pi * np.asarray(x)), axis=-1)

    def grad(x):
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        out = np.empty_like(x)
        for i in range(dim):
            others = [s[..., j] for j in range(dim) if j != i]
            out[..., i] = np.pi * c[..., i] * np.prod(others, axis=0)
        return out

    return u, grad, lambda x: dim * np.pi ** 2 * u(x)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", [(7,), (5, 7)])
def test_sine_fixture_matches_the_np_prod_formulas(dim, lead):
    x = np.random.default_rng(dim).uniform(-0.2, 1.2, lead + (dim,))
    before = x.copy()
    x.flags.writeable = False
    fix = sine_solution(dim)
    for got, oracle in zip((fix.u, fix.grad, fix.f), _sine_by_np_prod(dim)):
        want = oracle(x)
        value = got(x)
        assert value.shape == want.shape
        assert np.all(np.abs(value - want) <= 4 * np.finfo(float).eps * np.abs(want))
    assert np.array_equal(x, before)


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
    fa = facet_averages(u)
    assert fa.shape == (mesh.n_facets,)
    assert np.all(fa[mesh.boundary_facet_indices()] == 0.0)


def _schur_oracle(mesh, family):
    """The RT pencils reduced densely to their cell blocks: B A^-1 B^T for
    RT-mixed and D - C^T F^-1 C for RT-equiv, each against diag(|K|) by dense
    eigh.  Returns all eigenvalues and, per eigenvector, the cell block and
    the eliminated block (sigma, or the ECR facet coefficients)."""
    if family == "RT-mixed":
        system, _, _ = oracles.assemble_mixed_poisson(mesh, 0.0)
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


@pytest.fixture(scope="module")
def mesh_2d_l6():
    return mesh_hierarchy(build_box_mesh(2, 1), 6)[-1]


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="relative eigen residual 2.1-2.4e-12 against the 1e-12 gate, "
                          "which grows like eps cond(A) (ROADMAP item 1)")
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("family", ["ECR", "RT-equiv"])
def test_ecr_eigenpairs_at_2d_l6_pass_the_residual_gate(mesh_2d_l6, family, seed):
    pairs = solve_eigen(mesh_2d_l6, family, 3, linsolve.SolverConfig(seed=seed))
    assert len(pairs) == 3


@pytest.mark.parametrize("family", ["RT-mixed", "RT-equiv"])
def test_rt_eigen_dense_and_sparse_paths_agree(family, monkeypatch):
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 3)[-1]
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 10 ** 6)
    dense = solve_eigen(mesh, family, 3)
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    sparse = solve_eigen(mesh, family, 3)
    lam_d = np.array([p.lam for p in dense])
    assert np.abs(lam_d - [p.lam for p in sparse]).max() <= 1e-12 * lam_d.max()
    # lam_1 is simple: its eigenvector agrees up to sign
    field = (lambda p: p.u.coeffs) if family == "RT-mixed" else (lambda p: p.primal.coeffs)
    a, b = field(dense[0]), field(sparse[0])
    assert np.abs(_sign_to(b, a) * b - a).max() <= 1e-10 * np.abs(a).max()


def test_rt_mixed_arpack_applies_the_bare_hybrid_map(monkeypatch):
    # ARPACK applies the hybrid solve as a bare linear map; the gated solve
    # runs once per pair for its gate and once for all k pairs' vectors
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 3)[-1]
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    calls = []
    gated = hybrid._solve_rt0_hybrid

    def counting(*args, **kwargs):
        calls.append(1)
        return gated(*args, **kwargs)

    monkeypatch.setattr(hybrid, "_solve_rt0_hybrid", counting)
    k = 3
    pairs = solve_eigen(mesh, "RT-mixed", k)
    assert len(pairs) == k
    assert len(calls) == k + 1
