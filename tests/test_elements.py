import math

import numpy as np
import pytest

from simplexfem import elements
from simplexfem.mesh import SimplexMesh, build_box_mesh, refine_uniform
from simplexfem.quadrature import cell_weights, physical_points, rule_for_degree

from percell import cell_geometry, cr_eval, ecr_eval, rt0_eval, rt0_eval_mesh


def reference_triangle():
    return SimplexMesh(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def random_points(dim, n, seed=0):
    rng = np.random.default_rng(seed)
    bary = rng.dirichlet(np.ones(dim + 1), size=n)
    return bary


def facet_points(mesh, fi, rule):
    return np.einsum("qk,ki->qi", rule.points, mesh.vertices[mesh.facets[fi]])


def facet_average(mesh, fi, values, rule):
    # values sampled at the mapped facet rule points; rule weights sum 1/(n-1)!
    return math.factorial(mesh.dim - 1) * (values * rule.weights[:, None]).sum(axis=0)


# -- closed-form spot checks -------------------------------------------------

def test_bubble_value_at_centroid():
    for dim in (2, 3, 4):
        m = build_box_mesh(dim, 1)
        g = cell_geometry(m, 0)
        vals, _ = ecr_eval(g, g.centroid)
        assert vals[-1] == pytest.approx((dim + 2) / 2, abs=1e-14)


def test_bubble_closed_form_on_reference_triangle():
    m = reference_triangle()
    g = cell_geometry(m, 0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 0.5, size=(20, 2))
    vals, grads = ecr_eval(g, pts)
    rho2 = ((pts - 1 / 3) ** 2).sum(axis=1)
    assert np.allclose(vals[:, -1], 2 - 9 * rho2, atol=1e-14)
    assert np.allclose(grads[:, -1, :], -18 * (pts - 1 / 3), atol=1e-13)


def test_bubble_integral_equals_measure():
    # avg_K phi_K = 1, i.e. int_K phi_K = |K|
    m = reference_triangle()
    rule = rule_for_degree(2, 4)
    vals, _ = elements.ecr_eval_mesh(m, rule.points)
    integral = (vals[0, :, -1] * cell_weights(m, rule)[0]).sum()
    assert integral == pytest.approx(0.5, abs=1e-15)


def test_bubble_gradient_energy_reference():
    # ||grad phi_K||^2 = 18 on the reference triangle
    m = reference_triangle()
    g = cell_geometry(m, 0)
    assert elements.bubble_energy(2, g.measure, g.H) == pytest.approx(18.0)
    rule = rule_for_degree(2, 4)
    _, grads = elements.ecr_eval_mesh(m, rule.points)
    energy = ((grads[0, :, -1, :] ** 2).sum(axis=1) * cell_weights(m, rule)[0]).sum()
    assert energy == pytest.approx(18.0, rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_partition_of_unity(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    bary = random_points(dim, 20)
    vals, grads = elements.ecr_eval_mesh(m, bary)
    assert np.abs(vals.sum(axis=2) - 1.0).max() < 1e-13
    assert np.abs(grads.sum(axis=2)).max() < 1e-12
    cr_vals, cr_grads = elements.cr_eval_mesh(m, bary)
    assert np.abs(cr_vals.sum(axis=1) - 1.0).max() < 1e-13
    assert np.abs(cr_grads.sum(axis=1)).max() < 1e-12


def test_cr_value_one_at_own_facet_centroid():
    m = reference_triangle()
    g = cell_geometry(m, 0)
    for local in range(3):
        fi = m.cell_facets[0, local]
        centroid = m.facet_centroids[fi]
        vals, grads = cr_eval(g, centroid)
        assert vals[local] == pytest.approx(1.0, abs=1e-14)
        # gradients are constant per cell
        vals2, grads2 = cr_eval(g, centroid + 0.1)
        assert np.allclose(grads, grads2, atol=1e-15)


# -- DOF duality ---------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_dof_duality_facet_and_cell_averages(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    frule = rule_for_degree(dim - 1, 4)
    crule = rule_for_degree(dim, 4)
    w = cell_weights(m, crule)
    ecr_vals, _ = elements.ecr_eval_mesh(m, crule.points)
    cell_avgs = np.einsum("cqa,cq->ca", ecr_vals, w) / m.cell_measures[:, None]
    expected = np.zeros(dim + 2)
    expected[-1] = 1.0
    assert np.abs(cell_avgs - expected).max() < 1e-12

    for c in (0, m.n_cells - 1):
        g = cell_geometry(m, c)
        for local in range(dim + 1):
            fi = m.cell_facets[c, local]
            pts = facet_points(m, fi, frule)
            vals, _ = ecr_eval(g, pts)
            avg = facet_average(m, fi, vals, frule)
            target = np.zeros(dim + 2)
            target[local] = 1.0
            assert np.abs(avg - target).max() < 1e-12
            cr_vals, _ = cr_eval(g, pts)
            cr_avg = facet_average(m, fi, cr_vals, frule)
            cr_target = np.zeros(dim + 1)
            cr_target[local] = 1.0
            assert np.abs(cr_avg - cr_target).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_dof_duality_rt_fluxes(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    frule = rule_for_degree(dim - 1, 4)
    for c in (0, m.n_cells - 1):
        g = cell_geometry(m, c)
        signs = m.cell_facet_signs[c]
        for local in range(dim + 1):
            fi = m.cell_facets[c, local]
            pts = facet_points(m, fi, frule)
            vecs, _ = rt0_eval(g, signs, pts)
            normal = m.facet_normals[fi]
            fluxes = facet_average(m, fi, vecs @ normal, frule) * m.facet_measures[fi]
            target = np.zeros(dim + 1)
            target[local] = 1.0
            assert np.abs(fluxes - target).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_rt_divergence_theorem(dim):
    # int_K div psi_i = +-1 (the orientation sign)
    m = refine_uniform(build_box_mesh(dim, 1))
    _, divs = rt0_eval_mesh(m, rule_for_degree(dim, 2).points)
    assert np.allclose(divs * m.cell_measures[:, None], m.cell_facet_signs, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_rt_reproduces_constant_vectors(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    rng = np.random.default_rng(3)
    const = rng.standard_normal(dim)
    # coefficients int_E c . nu dE
    coeffs = m.facet_measures * (m.facet_normals @ const)
    bary = random_points(dim, 7, seed=4)
    vals, _ = rt0_eval_mesh(m, bary)
    local = coeffs[m.cell_facets]
    recon = np.einsum("cqin,ci->cqn", vals, local)
    assert np.abs(recon - const).max() < 1e-12


def test_rt_basis_vanishes_at_opposite_vertex():
    m = reference_triangle()
    g = cell_geometry(m, 0)
    signs = m.cell_facet_signs[0]
    for local in range(3):
        vertex = g.vertices[local]
        vecs, _ = rt0_eval(g, signs, vertex)
        assert np.abs(vecs[local]).max() < 1e-15


# -- orthogonality / facet-trace structure ------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_p1_bubble_orthogonality(dim):
    # (grad p, grad phi_K)_K = 0 for all p in P1(K): int_K (x - mid K) dx = 0
    m = refine_uniform(build_box_mesh(dim, 1))
    rule = rule_for_degree(dim, 4)
    w = cell_weights(m, rule)
    _, ecr_grads = elements.ecr_eval_mesh(m, rule.points)
    _, cr_grads = elements.cr_eval_mesh(m, rule.points)
    cross = np.einsum("can,cqn,cq->ca", cr_grads, ecr_grads[:, :, -1, :], w)
    assert np.abs(cross).max() < 1e-12
    x = physical_points(m, rule.points)
    centered = np.einsum("cqi,cq->ci", x - m.cell_centroids[:, None, :], w)
    assert np.abs(centered).max() < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_bubble_normal_derivative_constant_per_facet(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    frule = rule_for_degree(dim - 1, 2)
    for c in (0, m.n_cells // 2):
        g = cell_geometry(m, c)
        for local in range(dim + 1):
            fi = m.cell_facets[c, local]
            pts = facet_points(m, fi, frule)[:5]
            _, grads = ecr_eval(g, pts)
            nd = grads[:, -1, :] @ m.facet_normals[fi]
            assert np.abs(nd - nd[0]).max() < 1e-12


# -- local matrices -------------------------------------------------------------

def disjoint_random_cells(dim, count, seed):
    """Mesh of ``count`` disjoint random cells, each well away from
    degenerate and with canonical facet normals pointing both out and in.

    A cell is kept when |K| / diam^n reaches a fixed fraction of its value
    sqrt(n+1) / (n! 2^(n/2)) on the regular n-simplex, the largest there
    is (0.43 in 2D, 0.12 in 3D, 0.023 in 4D)."""
    regular = math.sqrt(dim + 1) / (math.factorial(dim) * 2 ** (dim / 2))
    rng = np.random.default_rng(seed)
    cells = []
    while len(cells) < count:
        verts = rng.standard_normal((dim + 1, dim))
        m = SimplexMesh(dim, verts, [list(range(dim + 1))])
        if (m.cell_measures[0] > 0.2 * regular * m.cell_diameters[0] ** dim
                and len(set(m.cell_facet_signs[0].tolist())) == 2):
            cells.append(verts)
    conn = np.arange(count * (dim + 1)).reshape(count, dim + 1)
    return SimplexMesh(dim, np.vstack(cells), conn)


def quadrature_oracle(m):
    """The local matrices integrated from the batch evaluators by a rule
    exact to degree 6: every integrand is at most quartic, and the rule is
    not the degree-4 one that ``elements.ecr_mass`` itself uses."""
    n = m.dim
    rule = rule_for_degree(n, 6)
    w = cell_weights(m, rule)
    cr_vals, cr_grads = elements.cr_eval_mesh(m, rule.points)
    ecr_vals, ecr_grads = elements.ecr_eval_mesh(m, rule.points)
    rt_vals, _ = rt0_eval_mesh(m, rule.points)
    return {
        "cr_stiffness": np.einsum("can,cbn,cq->cab", cr_grads, cr_grads, w),
        "ecr_stiffness": np.einsum("cqan,cqbn,cq->cab", ecr_grads, ecr_grads, w),
        "cr_mass": np.einsum("qa,qb,cq->cab", cr_vals, cr_vals, w),
        "ecr_mass": np.einsum("cqa,cqb,cq->cab", ecr_vals, ecr_vals, w),
        "rt0_mass": np.einsum("cqin,cqjn,cq->cij", rt_vals, rt_vals, w),
        "rt0_outer": np.einsum("cqir,cqjs,cq->cijrs", rt_vals, rt_vals, w),
        "rt0_moment": np.einsum("cqin,cq->cin", rt_vals, w),
        "gradient_integrals": np.einsum("cqan,cq->can", ecr_grads[:, :, : n + 1], w),
    }


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["random_cells", "box"])
def test_local_matrices_match_quadrature_oracle(dim, kind):
    if kind == "box":
        m = refine_uniform(build_box_mesh(dim, 2 if dim == 2 else 1))
    else:
        m = disjoint_random_cells(dim, 12, seed=dim)
    for name, expected in quadrature_oracle(m).items():
        actual = getattr(elements, name)(m)
        assert actual.shape == expected.shape, name
        diff = np.abs(actual - expected).reshape(m.n_cells, -1).max(axis=1)
        scale = np.abs(expected).reshape(m.n_cells, -1).max(axis=1)
        assert np.all(diff <= 1e-13 * scale), (name, (diff / scale).max())


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_per_cell_evaluators_match_batch(dim):
    m = disjoint_random_cells(dim, 3, seed=10 + dim)
    bary = random_points(dim, 6, seed=dim)
    x = physical_points(m, bary)
    batch = {"ecr": elements.ecr_eval_mesh(m, bary),
             "cr": elements.cr_eval_mesh(m, bary),
             "rt0": rt0_eval_mesh(m, bary)}
    for c in range(m.n_cells):
        g = cell_geometry(m, c)
        vals, grads = ecr_eval(g, x[c])
        assert np.allclose(vals, batch["ecr"][0][c], rtol=0, atol=1e-13)
        assert np.allclose(grads, batch["ecr"][1][c], rtol=0, atol=1e-12)
        vals, grads = cr_eval(g, x[c])
        assert np.allclose(vals, batch["cr"][0], rtol=0, atol=1e-13)
        assert np.allclose(grads, batch["cr"][1][c], rtol=0, atol=1e-13)
        vecs, divs = rt0_eval(g, m.cell_facet_signs[c], x[c])
        assert np.allclose(vecs, batch["rt0"][0][c], rtol=0, atol=1e-13)
        assert np.array_equal(divs, batch["rt0"][1][c])


@pytest.mark.parametrize("dim", [2, 3])
def test_local_matrices_symmetry_and_blocks(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    for name in ("ecr_stiffness", "ecr_mass", "cr_stiffness", "cr_mass", "rt0_mass"):
        arr = getattr(elements, name)(m)
        assert np.abs(arr - np.swapaxes(arr, 1, 2)).max() == 0.0, name
    ecr_stiffness = elements.ecr_stiffness(m)
    # ECR facet block = CR stiffness + bubble energy / (n+1)^2
    energy = elements.bubble_energy(dim, m.cell_measures, m.cell_H)
    shift = energy / (dim + 1) ** 2
    diff = ecr_stiffness[:, : dim + 1, : dim + 1] - elements.cr_stiffness(m)
    assert np.abs(diff - shift[:, None, None]).max() < 1e-11
    # bubble column: -energy / (n+1)
    col = ecr_stiffness[:, : dim + 1, dim + 1]
    assert np.abs(col + energy[:, None] / (dim + 1)).max() < 1e-11
    assert np.allclose(ecr_stiffness[:, dim + 1, dim + 1], energy, rtol=1e-13)


def test_rt_mass_spd_on_random_cells():
    rng = np.random.default_rng(7)
    for _ in range(10):
        verts = rng.standard_normal((3, 2))
        while abs(np.linalg.det(verts[1:] - verts[0])) < 0.2:
            verts = rng.standard_normal((3, 2))
        m = SimplexMesh(2, verts, [[0, 1, 2]])
        eigvals = np.linalg.eigvalsh(elements.rt0_mass(m)[0])
        assert eigvals.min() > 0


def test_stiffness_psd_with_constant_kernel():
    m = refine_uniform(build_box_mesh(2, 1))
    stiffness = elements.ecr_stiffness(m)
    for c in range(m.n_cells):
        w = np.linalg.eigvalsh(stiffness[c])
        assert w[0] > -1e-12
        assert abs(w[0]) < 1e-12          # constants
        assert w[1] > 1e-10
