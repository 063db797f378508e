import gc
import itertools
import time
import weakref

import numpy as np
import pytest

from simplexfem import analysis, assembly, elements, equivalence, linsolve, problems
from simplexfem.assembly import DataError, DofMap
from simplexfem.equivalence import (IDENTITY_TOL, STOKES_TOL, check_cgs_identity,
                                    check_eigen_equivalence, check_marini_identity,
                                    check_poisson_identity, check_stokes_identity,
                                    ecr_gradient_as_rt, eigen_error_comparison,
                                    project_p0)
from simplexfem.mesh import SimplexMesh, build_box_mesh, mesh_hierarchy, refine_uniform
from simplexfem.problems import BrokenField, RTField, sine_solution, solve_poisson
from simplexfem.quadrature import integrate_cellwise, physical_points, rule_for_degree

from percell import rt0_eval_mesh, translated


def level(dim, n):
    m = build_box_mesh(dim, 1)
    for _ in range(n):
        m = refine_uniform(m)
    return m


def jiggled(dim, seed=0, n=1):
    """The n-times refined box mesh with every vertex moved a little, so
    that cells differ in shape and measure."""
    base = level(dim, n)
    rng = np.random.default_rng(seed)
    return SimplexMesh(dim, base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape),
                       base.cells)


def affine_at(mesh, c, r, bary):
    """c_K + r_K (x - mid K) sampled at barycentric points: (nc, Q, ..., n)."""
    dx = physical_points(mesh, bary) - mesh.cell_centroids[:, None]
    return c[:, None] + np.einsum("c...,cqn->cq...n", r, dx)


# -- closed-form norms and sups, and the affine parts of each field ----------------

def lattice(dim, m):
    """Barycentric points with coordinates in {0, 1/m, ..., 1}, vertices
    included."""
    return np.array([p for p in itertools.product(range(m + 1), repeat=dim + 1)
                     if sum(p) == m], dtype=float) / m


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("tensor", [False, True])
def test_closed_form_norm_and_sup_match_sampling(dim, tensor):
    mesh = jiggled(dim)
    rng = np.random.default_rng(10 * dim + tensor)
    rows = (mesh.n_cells, dim) if tensor else (mesh.n_cells,)
    c, r = rng.standard_normal(rows + (dim,)), rng.standard_normal(rows)
    rule = rule_for_degree(dim, 4)
    quad = analysis.l2_norm_of_values(mesh, affine_at(mesh, c, r, rule.points), rule)
    assert equivalence._affine_l2(mesh, c, r) == pytest.approx(quad, rel=1e-12)
    sup = equivalence._vertex_sup(mesh, c, r)
    assert np.abs(affine_at(mesh, c, r, lattice(dim, 6))).max() == pytest.approx(sup, rel=1e-14)
    inside = rng.dirichlet(np.ones(dim + 1), 500)
    assert np.abs(affine_at(mesh, c, r, inside)).max() <= sup


@pytest.mark.parametrize("dim", [2, 3])
def test_trace_mean_gauge_matches_quadrature(dim):
    mesh = jiggled(dim)
    rng = np.random.default_rng(dim)
    c = rng.standard_normal((mesh.n_cells, dim, dim))
    r = rng.standard_normal((mesh.n_cells, dim))
    (c0, r0), s = equivalence._trace_mean_gauge(mesh, (c, r))
    rule = rule_for_degree(dim, 1)
    trace = np.einsum("cqrr->cq", affine_at(mesh, c, r, rule.points))
    assert s * dim * mesh.cell_measures.sum() == pytest.approx(
        integrate_cellwise(mesh, trace, rule).sum(axis=0), rel=1e-13)
    assert np.array_equal(c0, c - s * np.eye(dim))
    assert r0 is r


def values_by_basis(field, bary):
    """Field values by the basis sum over ``cr_eval_mesh``, ``ecr_eval_mesh``
    and ``rt0_eval_mesh`` that the closed-form ``values`` replaced, kept as
    its oracle."""
    local = field.dofmap.gather(field.coeffs)          # (nc, nldof, ncomp)
    family = field.dofmap.family
    if family == "RT0":
        vals, _ = rt0_eval_mesh(field.mesh, bary)
        out = np.einsum("cqin,cir->cqrn", vals, local)
        return out[:, :, 0, :] if field.ncomp == 1 else out
    if family == "CR":
        out = np.einsum("qa,car->cqr", elements.cr_eval_mesh(field.mesh, bary)[0], local)
    elif family == "ECR":
        out = np.einsum("cqa,car->cqr", elements.ecr_eval_mesh(field.mesh, bary)[0], local)
    else:
        out = np.repeat(local, len(bary), axis=1)
    return out[:, :, 0] if field.ncomp == 1 else out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["CR", "ECR", "P0", "RT0"])
def test_values_match_basis_oracle(dim, family):
    mesh = jiggled(dim, seed=3)
    rng = np.random.default_rng(dim)
    bary = rule_for_degree(dim, 4).points
    kind = RTField if family == "RT0" else BrokenField
    for ncomp, dirichlet in ((1, True), (dim, False)):
        dm = DofMap.build(mesh, family, dirichlet, ncomp)
        field = kind(dm, rng.standard_normal(dm.n_total))
        got, expected = field.values(bary), values_by_basis(field, bary)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_rt_affine_parts_match_basis_values(dim):
    mesh = jiggled(dim, seed=1)
    rng = np.random.default_rng(dim)
    bary = rule_for_degree(dim, 3).points
    for ncomp in (1, dim):
        dm = DofMap.build(mesh, "RT0", ncomp=ncomp)
        field = RTField(dm, rng.standard_normal(dm.n_total))
        vals = values_by_basis(field, bary)
        diff = affine_at(mesh, *field.affine_parts(), bary) - vals
        assert np.abs(diff).max() <= 1e-12 * np.abs(vals).max()


def gradients_by_basis(u, bary):
    """Broken gradients by the basis-gradient sum that
    ``BrokenField.gradients`` replaced, kept as its oracle."""
    local = u.dofmap.gather(u.coeffs)
    if u.dofmap.family == "CR":
        _, grads = elements.cr_eval_mesh(u.mesh, bary)
        out = np.einsum("can,car->crn", grads, local)
        out = np.broadcast_to(out[:, None], (out.shape[0], len(bary)) + out.shape[1:])
    else:
        _, grads = elements.ecr_eval_mesh(u.mesh, bary)
        out = np.einsum("cqan,car->cqrn", grads, local)
    return out[:, :, 0, :] if u.ncomp == 1 else out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["CR", "ECR"])
def test_broken_gradients_match_basis_oracle(dim, family):
    mesh = jiggled(dim, seed=2)
    rng = np.random.default_rng(dim)
    bary = rule_for_degree(dim, 4).points
    for ncomp, dirichlet in ((1, True), (dim, False)):
        dm = DofMap.build(mesh, family, dirichlet, ncomp)
        u = BrokenField(dm, rng.standard_normal(dm.n_total))
        got, expected = u.gradients(bary), gradients_by_basis(u, bary)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_certificates_need_no_quadrature(monkeypatch):
    # every compared field is cellwise affine: once the solves are done, no
    # identity check and no jump check samples a field at quadrature points
    solves = {}

    def replay(name):
        solve = getattr(problems, name)

        def call(mesh, *args, **kwargs):
            key = (name, id(mesh)) + tuple(a for a in args if isinstance(a, str))
            if key not in solves:
                solves[key] = solve(mesh, *args, **kwargs)
            return solves[key]
        return call

    for name in ("solve_poisson", "solve_poisson_mixed", "solve_stokes",
                 "solve_stokes_mixed", "solve_eigen"):
        monkeypatch.setattr(problems, name, replay(name))
    mesh2, mesh3 = jiggled(2, n=2), jiggled(3)
    rng = np.random.default_rng(5)
    f2, f3 = rng.uniform(-1, 1, mesh2.n_cells), rng.uniform(-1, 1, mesh3.n_cells)
    v2 = rng.uniform(-1, 1, (mesh2.n_cells, 2))
    v3 = rng.uniform(-1, 1, (mesh3.n_cells, 3))
    checks = [lambda: check_poisson_identity(mesh2, f2),
              lambda: check_poisson_identity(mesh3, f3),
              lambda: check_stokes_identity(mesh2, v2),
              lambda: check_stokes_identity(mesh3, v3),
              lambda: check_marini_identity(mesh2, f2),
              lambda: check_cgs_identity(mesh2, v2),
              lambda: check_eigen_equivalence(mesh2, k=2)]
    for check in checks:
        assert check().passed                      # records every solve

    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate comparison used quadrature")

    for module in (equivalence, problems, elements):
        for name in ("rule_for_degree", "physical_points", "cell_weights"):
            if hasattr(module, name):              # the names each module imports
                monkeypatch.setattr(module, name, forbidden)
    for name in ("cr_eval_mesh", "ecr_eval_mesh", "bubble_eval_mesh", "bubble_values"):
        monkeypatch.setattr(elements, name, forbidden)
    for check in checks:
        assert check().passed
    u = problems.solve_poisson(mesh3, f3, "ECR")
    vel, pressure = problems.solve_stokes(mesh3, v3, "ECR")
    for jump, sup in (equivalence.normal_jump_of_gradient(u),
                      equivalence.stokes_tensor_normal_jump(vel, pressure)):
        assert jump <= equivalence.JUMP_TOL * sup


# -- negative controls: a certificate fails when the mixed side is off --------------

def off_by_one_coefficient(field):
    """The RT field with its largest coefficient off by a relative 1e-6."""
    coeffs = field.coeffs.copy()
    coeffs[np.argmax(np.abs(coeffs))] *= 1.0 + 1e-6
    return RTField(field.dofmap, coeffs)


def perturb_mixed_solver(monkeypatch, name):
    solve = getattr(problems, name)

    def perturbed(*args, **kwargs):
        sigma, u = solve(*args, **kwargs)
        return off_by_one_coefficient(sigma), u

    monkeypatch.setattr(problems, name, perturbed)


@pytest.mark.parametrize("check, solver, dim, vector, keys, tol", [
    (check_poisson_identity, "solve_poisson_mixed", 3, False, ["sigma_vs_grad"], IDENTITY_TOL),
    (check_stokes_identity, "solve_stokes_mixed", 3, True, ["tensor_identity"], STOKES_TOL),
    (check_marini_identity, "solve_poisson_mixed", 2, False, ["l2", "pointwise"], IDENTITY_TOL),
    (check_cgs_identity, "solve_stokes_mixed", 2, True, ["tensor_l2", "tensor_pointwise"],
     IDENTITY_TOL),
])
def test_identity_fails_when_one_rt_coefficient_is_off(monkeypatch, check, solver, dim,
                                                        vector, keys, tol):
    mesh = level(dim, 1 if dim == 3 else 2)
    rng = np.random.default_rng(dim)
    f = rng.uniform(-1, 1, (mesh.n_cells, dim) if vector else mesh.n_cells)
    assert check(mesh, f).passed
    perturb_mixed_solver(monkeypatch, solver)
    rep = check(mesh, f)
    assert not rep.passed
    for key in keys:
        assert rep.relative[key] > tol


def test_eigen_equivalence_fails_when_one_rt_coefficient_is_off(monkeypatch):
    mesh = level(2, 2)
    solve = problems.solve_eigen

    def perturbed(mesh, family, *args, **kwargs):
        pairs = solve(mesh, family, *args, **kwargs)
        if family == "RT-mixed":
            for pair in pairs:
                pair.sigma = off_by_one_coefficient(pair.sigma)
        return pairs

    monkeypatch.setattr(problems, "solve_eigen", perturbed)
    rep = check_eigen_equivalence(mesh, k=1)
    assert not rep.passed
    assert rep.relative["sigma_identity_0"] > rep.tolerance


# -- projection -----------------------------------------------------------------

def test_project_constant():
    mesh = level(2, 1)
    p = project_p0(2.5, mesh)
    assert np.allclose(p.coeffs, 2.5)


def test_project_coordinate_on_reference_triangle():
    mesh = SimplexMesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    p = project_p0(lambda x: np.asarray(x)[..., 0], mesh)
    assert p.coeffs[0] == pytest.approx(1 / 3, abs=1e-14)


def test_projection_idempotent():
    mesh = level(2, 1)
    fix = sine_solution(2)
    p1 = project_p0(fix.f, mesh)
    p2 = project_p0(p1, mesh)
    assert np.allclose(p1.coeffs, p2.coeffs, atol=1e-15)


def test_project_ecr_field_is_cell_block():
    mesh = level(2, 2)
    u = solve_poisson(mesh, 1.0, "ECR")
    p = project_p0(u, mesh)
    assert np.array_equal(p.coeffs, u.cell_averages())


# -- gradient re-expression -------------------------------------------------------

def test_global_linear_field_gives_constant_rt():
    mesh = level(2, 1)
    dm = DofMap.build(mesh, "ECR", dirichlet=False)
    a = np.array([0.7, -0.3])
    coeffs = np.zeros(dm.n_scalar)
    coeffs[dm.facet_dofs] = mesh.facet_centroids @ a + 0.2
    coeffs[mesh.n_facets:] = mesh.cell_centroids @ a + 0.2
    u = BrokenField(dm, coeffs)
    rt = ecr_gradient_as_rt(u)
    assert np.abs(rt.affine_parts()[1]).max() < 1e-13
    bary = rule_for_degree(2, 2).points
    assert np.abs(rt.values(bary) - a).max() < 1e-12


def test_single_bubble_radial_field():
    mesh = SimplexMesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    dm = DofMap.build(mesh, "ECR", dirichlet=False)
    coeffs = np.zeros(dm.n_scalar)
    coeffs[-1] = 1.0                        # unit bubble coefficient
    u = BrokenField(dm, coeffs)
    g, r = u.gradient_parts()
    assert np.abs(g[0]).max() < 1e-13        # pure bubble has no constant part
    assert r[0] == pytest.approx(-18.0, rel=1e-14)
    rt = ecr_gradient_as_rt(u)
    rule = rule_for_degree(2, 3)
    x = physical_points(mesh, rule.points)
    expected = -18.0 * (x - np.array([1 / 3, 1 / 3]))
    assert np.abs(rt.values(rule.points) - expected).max() < 1e-12


def test_gradient_roundtrip():
    mesh = level(2, 2)
    u = solve_poisson(mesh, 1.0, "ECR")
    rt = ecr_gradient_as_rt(u)
    rule = rule_for_degree(2, 5)
    diff = rt.values(rule.points) - u.gradients(rule.points)
    assert np.abs(diff).max() < 1e-12


def test_jump_guard_rejects_non_equivalence_solves():
    mesh = level(2, 2)
    fix = sine_solution(2)
    u = solve_poisson(mesh, fix.f, "ECR")     # load not piecewise constant
    with pytest.raises(DataError):
        ecr_gradient_as_rt(u)


def test_callable_load_rejected():
    mesh = level(2, 1)
    with pytest.raises(DataError):
        check_poisson_identity(mesh, sine_solution(2).f)


# -- Poisson identity -------------------------------------------------------------

def test_poisson_identity_unit_load():
    for lvl in (1, 2):
        rep = check_poisson_identity(level(2, lvl), 1.0)
        assert rep.passed
        assert rep.relative["sigma_vs_grad"] <= 1e-10
        assert rep.relative["u_vs_projection"] <= 1e-10


def test_poisson_identity_zero_load_exact():
    rep = check_poisson_identity(level(2, 1), 0.0)
    assert rep.residuals["sigma_vs_grad"] == 0.0
    assert rep.residuals["u_vs_projection"] == 0.0
    assert rep.passed


def test_poisson_identity_3d_random():
    rng = np.random.default_rng(42)
    mesh = level(3, 1)
    rep = check_poisson_identity(mesh, rng.uniform(-1, 1, mesh.n_cells))
    assert rep.passed
    assert max(rep.relative.values()) <= 1e-9


def test_hdiv_conformity_and_divergence():
    mesh = level(2, 3)
    rng = np.random.default_rng(1)
    f = rng.uniform(-1, 1, mesh.n_cells)
    rep = check_poisson_identity(mesh, f)
    assert rep.extra["jump_pass"]
    assert rep.max_normal_jump <= 1e-10 * rep.extra["grad_sup_norm"]
    assert rep.extra["div_pass"]
    assert rep.extra["div_plus_f_max"] <= 1e-11 * max(1.0, np.abs(f).max())


def test_identity_residuals_translation_invariant():
    base = level(2, 2)
    rng = np.random.default_rng(9)
    f = rng.uniform(-1, 1, base.n_cells)
    r1 = check_poisson_identity(base, f)
    r2 = check_poisson_identity(translated(base, [0.3, 0.7]), f)
    # residuals sit at rounding level; compare after flooring at the pass tol
    floor = 1e-12
    for key in r1.relative:
        a = max(r1.relative[key], floor)
        b = max(r2.relative[key], floor)
        assert a / b <= 2.0 and b / a <= 2.0


def test_identity_residuals_relabeling_invariant():
    base = level(2, 2)
    rng = np.random.default_rng(10)
    f = rng.uniform(-1, 1, base.n_cells)
    perm = rng.permutation(base.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(base.n_vertices)
    relabeled = SimplexMesh(2, base.vertices[perm], inv[base.cells])
    # cells keep their order, so the cellwise load carries over directly
    r1 = check_poisson_identity(base, f)
    r2 = check_poisson_identity(relabeled, f)
    floor = 1e-12
    for key in r1.relative:
        a = max(r1.relative[key], floor)
        b = max(r2.relative[key], floor)
        assert a / b <= 2.0 and b / a <= 2.0


# -- the Poisson operators of the last mesh solved ----------------------------------

@pytest.mark.parametrize("check,dim,lvl", [(check_poisson_identity, 2, 4),
                                           (check_poisson_identity, 3, 2),
                                           (check_marini_identity, 2, 4),
                                           (check_stokes_identity, 3, 2)])
def test_loads_on_one_mesh_share_its_factors_and_their_reports(factorised, monkeypatch,
                                                               check, dim, lvl):
    built = []
    pseudostress_operator = problems.pseudostress_operator

    def recording(mesh):
        built.append(mesh)
        return pseudostress_operator(mesh)
    monkeypatch.setattr(problems, "pseudostress_operator", recording)
    mesh = level(dim, lvl)
    shape = (mesh.n_cells, dim) if check is check_stokes_identity else (mesh.n_cells,)
    loads = [np.random.default_rng(seed).uniform(-1, 1, shape) for seed in range(3)]
    reports = [check(mesh, f).to_dict() for f in loads]
    assert len(factorised) == 2                    # the CR stiffness and S, once each
    # and the pseudostress elimination, which factorises nothing, once
    assert len(built) == (check is check_stokes_identity)
    for f, report in zip(loads, reports):
        assert check(level(dim, lvl), f).to_dict() == report


def test_stokes_certificate_at_3d_level_4_runs_on_the_two_poisson_factors(factorised):
    # 24,576 cells: each side solves by Schur complement CG on one SPD
    # factor of a row per interior facet.  A saddle LU per side took 137 s
    # and 2.2 GB on this load, with residuals 2.3e-15 and 6.5e-14
    mesh = mesh_hierarchy(build_box_mesh(3, 1), 4)[-1]
    f = np.random.default_rng(4).uniform(-1, 1, (mesh.n_cells, 3))
    start = time.monotonic()
    report = check_stokes_identity(mesh, f)
    elapsed = time.monotonic() - start
    assert report.passed and elapsed < 30, elapsed
    assert report.relative["tensor_identity"] <= 1e-14
    assert report.relative["weak_l_relation"] <= 5e-13
    assert factorised == [(len(mesh.interior_facet_indices()), "MMD_AT_PLUS_A")] * 2


@pytest.mark.parametrize("check", [check_poisson_identity, check_marini_identity])
def test_constant_load_at_2d_level_7_passes_the_gates(check):
    # every solve of this load sits just under the 1e-12 gate (the mixed
    # residual reads 9.4e-13); S without its rounding-level entries as the
    # refined and gated matrix, not only the factorised one, read 1.3e-12
    mesh = mesh_hierarchy(build_box_mesh(2, 1), 7)[-1]
    assert check(mesh, np.ones(mesh.n_cells)).passed


@pytest.mark.parametrize("dim", [2, 3])
def test_certificates_of_per_cell_constant_loads_sample_no_load(dim, monkeypatch):
    # every reduction of such a load is a closed form
    calls = []
    original = assembly.reduce_load

    def recording(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(assembly, "reduce_load", recording)
    mesh = jiggled(dim, seed=4)
    rng = np.random.default_rng(dim)
    for f in (-2.5, rng.uniform(-1.0, 1.0, mesh.n_cells)):
        assert check_poisson_identity(mesh, f).passed
        if dim == 2:
            assert check_marini_identity(mesh, f).passed
    for f in (rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, (mesh.n_cells, dim))):
        assert check_stokes_identity(mesh, f).passed
    assert calls == []


@pytest.fixture(scope="module")
def mesh_2d_l7():
    return mesh_hierarchy(build_box_mesh(2, 1), 7)[-1]


@pytest.mark.xfail(strict=True, raises=linsolve.SolverError,
                   reason="relative residual 1.011e-12 against the 1e-12 gate, which grows "
                          "like eps cond(A) (ROADMAP item 1)")
@pytest.mark.parametrize("check", [check_poisson_identity, check_marini_identity])
def test_constant_load_minus_2_5_at_2d_level_7_passes_the_gates(mesh_2d_l7, check):
    assert check(mesh_2d_l7, np.full(mesh_2d_l7.n_cells, -2.5)).passed


@pytest.fixture
def factors(monkeypatch):
    """Weak references to every ``linsolve.Factor`` built."""
    made = []

    class Recorded(linsolve.Factor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(linsolve, "Factor", Recorded)
    return made


def alive(refs):
    gc.collect()
    return [ref for ref in refs if ref() is not None]


def test_only_the_last_mesh_certified_keeps_its_factors(factors):
    mesh_a, mesh_b = level(2, 2), level(2, 2)
    check_poisson_identity(mesh_a, np.ones(mesh_a.n_cells))
    assert len(alive(factors)) == 2
    of_a = list(factors)
    check_marini_identity(mesh_b, np.ones(mesh_b.n_cells))
    assert alive(of_a) == [] and len(alive(factors)) == 2
    held_b = weakref.ref(mesh_b)
    del mesh_b
    assert held_b() is None and alive(factors) == []


def test_poisson_solves_on_one_mesh_share_two_factors_until_the_next_mesh(factors):
    mesh, other = level(2, 2), level(2, 2)
    fix = sine_solution(2)
    kept = [solve_poisson(mesh, fix.f, family) for family in ("ECR", "CR")]
    kept.append(problems.solve_poisson_mixed(mesh, fix.f))
    assert len(factors) == 2 and len(alive(factors)) == 2      # the CR stiffness and S
    of_mesh = list(factors)
    alive_while_sampled = []

    def load(x):
        alive_while_sampled.append(len(alive(of_mesh)))
        return fix.f(x)

    kept_other = [solve_poisson(other, load, "ECR"), problems.solve_poisson_mixed(other, load)]
    # the first mesh and its fields live on, but its factors were freed
    # before the second mesh's load was sampled
    assert alive_while_sampled == [0, 0] and alive(of_mesh) == []
    assert len(factors) == 4 and len(alive(factors)) == 2
    held = weakref.ref(other)
    del other, kept_other
    assert held() is None and alive(factors) == []
    assert len(kept) == 3 and kept[0].mesh is mesh


def test_an_ecr_cr_level_sweep_factorises_each_mesh_once(factorised):
    meshes = mesh_hierarchy(build_box_mesh(2, 1), 2)[1:]
    fix = sine_solution(2)
    for mesh in meshes:
        for family in ("ECR", "CR"):
            solve_poisson(mesh, fix.f, family)
    assert factorised == [(len(m.interior_facet_indices()), "MMD_AT_PLUS_A") for m in meshes]


def test_an_eigen_level_sweep_holds_one_meshs_factors_at_a_time(factors, monkeypatch):
    # the four families of a mesh share its CR factor and hybrid RT0
    # operator; the next mesh's first solve frees them
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    meshes = mesh_hierarchy(build_box_mesh(2, 1), 3)[1:]
    for i, mesh in enumerate(meshes):
        for family in ("ECR", "CR", "RT-equiv", "RT-mixed"):
            problems.solve_eigen(mesh, family, 2)
        assert len(factors) == 2 * (i + 1)
        assert alive(factors) == factors[-2:]


# -- Stokes identity ---------------------------------------------------------------

def test_stokes_identity_2d():
    rep = check_stokes_identity(level(2, 2), (1.0, 0.0))
    assert rep.passed
    assert rep.relative["tensor_identity"] <= 1e-9
    assert rep.relative["weak_l_relation"] <= 1e-8
    assert abs(rep.extra["gauge_shift_primal"]) <= 1e-10
    assert abs(rep.extra["gauge_shift_mixed"]) <= 1e-10
    assert rep.extra["projected_divergence_max"] <= 1e-11


def test_stokes_tensor_rows_hdiv_conforming():
    # grad_NC u_ECR + p id has facetwise-constant, jump-free row normal traces
    mesh = level(2, 2)
    rng = np.random.default_rng(12)
    rep = check_stokes_identity(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)))
    assert rep.extra["jump_pass"]
    assert rep.max_normal_jump <= 1e-10 * rep.extra["tensor_sup_norm"]


def test_stokes_identity_zero_load():
    rep = check_stokes_identity(level(2, 1), (0.0, 0.0))
    assert rep.residuals["tensor_identity"] == 0.0
    assert rep.passed


def test_stokes_identity_3d():
    rep = check_stokes_identity(level(3, 1), (1.0, 0.0, 0.0))
    assert rep.passed


# -- 2D pointwise identities ---------------------------------------------------------

def test_marini_identity():
    rep = check_marini_identity(level(2, 3), 1.0)
    assert rep.passed
    assert rep.relative["pointwise"] <= 1e-10


def test_marini_zero_load_pointwise():
    # f = 0: sigma_RT coincides with grad u_CR pointwise (both vanish here,
    # so use a nonzero load and probe the centroid instead)
    mesh = level(2, 2)
    f = np.full(mesh.n_cells, 2.0)
    u_cr = solve_poisson(mesh, f, "CR")
    sigma, _ = problems.solve_poisson_mixed(mesh, f)
    centroid_bary = np.full((1, 3), 1 / 3)
    diff = sigma.values(centroid_bary) - u_cr.gradients(centroid_bary)
    assert np.abs(diff).max() < 1e-11


def test_marini_dimension_guard():
    with pytest.raises(ValueError):
        check_marini_identity(level(3, 1), 1.0)


def test_cgs_identity():
    rep = check_cgs_identity(level(2, 2), (1.0, 0.0))
    assert rep.passed
    assert rep.relative["tensor_pointwise"] <= 1e-9
    assert rep.relative["displacement_l2"] <= 1e-9


def test_cgs_zero_load():
    rep = check_cgs_identity(level(2, 1), (0.0, 0.0))
    assert rep.passed


def test_cgs_correction_closed_form_vs_quadrature():
    mesh = level(2, 2)
    rng = np.random.default_rng(3)
    f = rng.uniform(-1, 1, (mesh.n_cells, 2))
    closed = equivalence.cgs_displacement_correction(mesh, f)
    rule = rule_for_degree(2, 4)
    x = physical_points(mesh, rule.points)
    w = x - mesh.cell_centroids[:, None, :]
    fw = np.einsum("cr,cqs->cqrs", f, w)
    dev = fw - 0.5 * np.einsum("cqrr->cq", fw)[:, :, None, None] * np.eye(2)
    integrand = np.einsum("cqrs,cqs->cqr", dev, w)
    from simplexfem.quadrature import integrate_cellwise

    quad = 0.25 * integrate_cellwise(mesh, integrand, rule) / mesh.cell_measures[:, None]
    assert np.abs(closed - quad).max() < 1e-12


# -- eigen equivalence ------------------------------------------------------------

def test_eigen_equivalence_levels():
    for lvl in (1, 2):
        rep = check_eigen_equivalence(level(2, lvl), k=3)
        assert rep.passed
        assert rep.relative["eigenvalues"] <= 1e-10
        for key, val in rep.relative.items():
            if key.startswith(("u_identity", "sigma_identity")):
                assert val <= 1e-8


@pytest.mark.parametrize("make", [lambda: level(3, 1), lambda: build_box_mesh(4, 1)],
                         ids=["3d-L1", "4d-box1"])
def test_eigen_check_sees_multiplicity_split_by_k(make):
    # lambda_2 = lambda_3: with k = 2 the last reported pair belongs to a
    # double eigenvalue, whose eigenvectors the two solves may rotate apart
    rep = check_eigen_equivalence(make(), k=2)
    assert rep.passed
    assert rep.relative["eigenvalues"] <= 1e-10
    assert len(rep.extra["lambda_mixed"]) == len(rep.extra["lambda_equiv"]) == 2
    assert "u_identity_1" not in rep.relative
    assert rep.notes == ["eigenvalue 1: multiplicity detected, field comparison skipped"]


def test_eigen_check_with_k_equal_to_the_cell_count():
    mesh = build_box_mesh(2, 1)
    rep = check_eigen_equivalence(mesh, k=mesh.n_cells)
    assert rep.passed
    assert len(rep.extra["lambda_mixed"]) == mesh.n_cells


@pytest.mark.parametrize("lvl", [2, 3])
def test_eigen_equivalence_on_the_sparse_path(lvl, monkeypatch):
    monkeypatch.setattr(linsolve, "DENSE_CUTOFF", 1)
    rep = check_eigen_equivalence(level(2, lvl), k=3)
    assert rep.passed
    assert rep.relative["eigenvalues"] <= 1e-10
    assert any(key.startswith("sigma_identity") for key in rep.relative)
    for key, val in rep.relative.items():
        if key.startswith(("u_identity", "sigma_identity")):
            assert val <= 1e-8


def test_eigen_equivalence_small_mesh_dimension():
    # finite-eigenvalue count equals the projected-mass rank (= #cells)
    mesh = build_box_mesh(2, 1)
    rep = check_eigen_equivalence(mesh, k=1)
    assert rep.passed
    pairs = problems.solve_eigen(mesh, "RT-equiv", mesh.n_cells)
    assert len(pairs) == mesh.n_cells
    from simplexfem.linsolve import SolverError
    with pytest.raises(SolverError):
        problems.solve_eigen(mesh, "RT-equiv", mesh.n_cells + 1)


def test_superconvergence_table():
    meshes = mesh_hierarchy(build_box_mesh(2, 1), 4)[1:]
    fix = sine_solution(2)
    exact = (lambda x: 2.0 * fix.u(x), lambda x: 2.0 * fix.grad(x), 2 * np.pi ** 2)
    table = eigen_error_comparison(meshes, exact)
    rates = table.rates("difference")
    assert 1.7 <= rates[-1] <= 2.2
    ratio = np.array(table.columns["difference"]) / np.array(table.columns["rt_error"])
    assert np.all(np.diff(ratio[-3:]) < 0)


def test_neumann_witness_table():
    meshes = mesh_hierarchy(build_box_mesh(2, 1), 2)[1:]
    table = equivalence.neumann_counterexample_report(meshes)
    assert max(table.columns["rt_flux_error"]) < 1e-9
    assert max(table.columns["ecr_grad_error"]) < 1e-9
    betas = np.array(table.columns["beta"])
    assert betas.min() > 0
    assert betas.max() / betas.min() < 1.2


def test_the_neumann_report_factorises_two_operators_per_level(factorised, monkeypatch):
    # per level the memo's pure-Neumann S (interior facets less the pinned
    # DOF) and gauged CR stiffness (facets less the pinned DOF), the latter
    # shared by the ECR and CR solves
    meshes = mesh_hierarchy(build_box_mesh(2, 1), 3)[2:]
    table = equivalence.neumann_counterexample_report(meshes).to_csv()
    assert factorised == [(size, "MMD_AT_PLUS_A") for m in meshes
                          for size in (len(m.interior_facet_indices()) - 1, m.n_facets - 1)]
    # every solve on operators of its own gives the same bits
    solve_neumann = problems.solve_neumann

    def unshared(*args, **kwargs):
        problems._operators.clear()
        return solve_neumann(*args, **kwargs)
    monkeypatch.setattr(problems, "solve_neumann", unshared)
    factorised.clear()
    assert equivalence.neumann_counterexample_report(meshes).to_csv() == table
    assert len(factorised) == 3 * len(meshes)


def test_report_serialization():
    rep = check_poisson_identity(level(2, 1), 1.0)
    d = rep.to_dict()
    assert d["identity"] == "poisson"
    assert isinstance(d["relative_residuals"], dict)
    import json

    json.dumps(d)
