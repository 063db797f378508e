import itertools

import numpy as np
import pytest

from simplexfem.mesh import (MeshError, SimplexMesh, build_box_mesh,
                             mesh_hierarchy, read_mesh, refine_uniform,
                             write_mesh)

from percell import cell_geometry, facet_cells, facet_geometry, translated


def test_box_mesh_2d_diagonal_counts():
    m = build_box_mesh(2, 1)
    assert (m.n_vertices, m.n_cells, m.n_facets) == (4, 2, 5)


def test_box_mesh_3d_counts():
    m = build_box_mesh(3, 1)
    assert (m.n_vertices, m.n_cells) == (8, 6)


def test_box_mesh_crisscross_counts():
    # 4 squares x 4 triangles; 9 grid vertices + 4 centers
    m = build_box_mesh(2, 2, "crisscross")
    assert (m.n_vertices, m.n_cells) == (13, 16)


def test_box_mesh_rejects_bad_input():
    with pytest.raises(MeshError):
        build_box_mesh(1, 1)
    with pytest.raises(MeshError):
        build_box_mesh(2, 0)
    with pytest.raises(MeshError):
        build_box_mesh(3, 1, "crisscross")


def test_refine_rejects_dim_above_3():
    with pytest.raises(MeshError, match="dim 2 or 3"):
        refine_uniform(build_box_mesh(4, 1))


def box_loop(dim, m, variant="diagonal"):
    """The box mesh built one grid cube at a time: the oracle for the
    vectorised ``build_box_mesh``.  Kuhn: one simplex per order of the unit
    steps from the cube's low corner to its high corner."""
    grid = np.arange(m + 1) / m
    verts = np.array(list(itertools.product(grid, repeat=dim)))

    def vid(index):
        return int(np.ravel_multi_index(tuple(index), (m + 1,) * dim))

    cells = []
    for corner in itertools.product(range(m), repeat=dim):
        if variant == "crisscross":
            i, j = corner
            c = len(verts) + i * m + j
            ring = [vid((i, j)), vid((i + 1, j)), vid((i + 1, j + 1)), vid((i, j + 1))]
            cells.extend([(a, b, c) for a, b in zip(ring, ring[1:] + ring[:1])])
            continue
        for perm in itertools.permutations(range(dim)):
            path = [np.array(corner)]
            for p in perm:
                path.append(path[-1] + np.eye(dim, dtype=int)[p])
            cells.append([vid(q) for q in path])
    if variant == "crisscross":
        centers = [[(i + 0.5) / m, (j + 0.5) / m] for i in range(m) for j in range(m)]
        verts = np.vstack([verts, centers])
    return verts, np.array(cells)


@pytest.mark.parametrize("dim,variant,m", [(2, "diagonal", 1), (2, "diagonal", 5),
                                           (2, "crisscross", 1), (2, "crisscross", 4),
                                           (3, "diagonal", 1), (3, "diagonal", 3),
                                           (4, "diagonal", 1), (4, "diagonal", 2)])
def test_box_mesh_is_bitwise_the_cube_loop(dim, variant, m):
    verts, cells = box_loop(dim, m, variant)
    mesh = build_box_mesh(dim, m, variant)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.cells, SimplexMesh(dim, verts, cells).cells)


@pytest.mark.parametrize("dim,children", [(2, 4), (3, 8)])
def test_refine_child_counts(dim, children):
    m = build_box_mesh(dim, 1)
    r = refine_uniform(m)
    assert r.n_cells == m.n_cells * children


@pytest.mark.parametrize("dim,variant", [(2, "diagonal"), (2, "crisscross"), (3, "diagonal")])
def test_refine_preserves_volume(dim, variant):
    m = build_box_mesh(dim, 2, variant)
    r = refine_uniform(m)
    assert abs(r.cell_measures.sum() - m.cell_measures.sum()) < 1e-14
    assert abs(m.cell_measures.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_facet_incidence_invariants(dim):
    m = refine_uniform(build_box_mesh(dim, 2))
    counts = np.zeros(m.n_facets, dtype=int)
    sign_sum = np.zeros(m.n_facets)
    np.add.at(counts, m.cell_facets.ravel(), 1)
    np.add.at(sign_sum, m.cell_facets.ravel(), m.cell_facet_signs.ravel())
    interior = ~m.is_boundary_facet
    assert np.all(counts[interior] == 2)
    assert np.all(counts[~interior] == 1)
    assert np.all(sign_sum[interior] == 0)
    assert np.all(np.abs(sign_sum[~interior]) == 1)


def test_4d_mesh_with_60000_vertices_builds():
    # 60,000^4 > 2^63: a facet's 4 vertex ids no longer fit one int64 key
    verts = np.random.default_rng(0).uniform(0.0, 1.0, (60_000, 4))
    verts[0] = 0.5                                  # across the facet e_1..e_4
    verts[-5:] = np.vstack([np.zeros(4), np.eye(4)])
    ids = [59_996, 59_997, 59_998, 59_999]
    m = SimplexMesh(4, verts, [[59_995] + ids, [0] + ids])
    assert m.n_facets == 9
    assert m.facets[~m.is_boundary_facet].tolist() == [ids]
    assert np.array_equal(m.facets, np.unique(m.facets, axis=0))


@pytest.mark.parametrize("dim", [2, 3])
def test_signed_facet_sums_match_side_lookups(dim):
    # oracle: each facet's cells, with its local index found in each of them
    m = refine_uniform(build_box_mesh(dim, 2))
    traces = np.random.default_rng(dim).standard_normal(m.cell_facets.shape + (2,))

    def side(facets, which):
        cells = facet_cells(m)[facets, which]
        local = np.argmax(m.cell_facets[cells] == facets[:, None], axis=1)
        return cells, local

    bnd = m.boundary_facet_indices()
    assert np.array_equal(m.boundary_facet_signs(), m.cell_facet_signs[side(bnd, 0)])
    interior = m.interior_facet_indices()
    jump = traces[side(interior, 0)] - traces[side(interior, 1)]
    signed = m.facet_sums(m.cell_facet_signs[:, :, None] * traces)[interior]
    assert np.array_equal(np.abs(signed), np.abs(jump))


@pytest.mark.parametrize("dim", [2, 3])
def test_positive_volumes_and_unit_normals(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    assert np.all(m.cell_measures > 0)
    assert np.allclose(np.linalg.norm(m.facet_normals, axis=1), 1.0, atol=1e-14)


def test_barycentric_gradients_sum_to_zero():
    m = refine_uniform(build_box_mesh(3, 1))
    assert np.abs(m.barycentric_gradients.sum(axis=1)).max() < 1e-12


def test_reference_triangle_geometry():
    m = SimplexMesh(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    g = cell_geometry(m, 0)
    assert g.measure == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(g.centroid, [1 / 3, 1 / 3])
    assert g.H == pytest.approx(4.0, abs=1e-14)   # 1 + 1 + 2
    # centered second moment: diag 1/36, off-diagonal -1/72
    assert np.allclose(g.second_moment, [[1 / 36, -1 / 72], [-1 / 72, 1 / 36]])


def test_reference_tet_measure():
    m = SimplexMesh(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]])
    assert cell_geometry(m, 0).measure == pytest.approx(1 / 6, abs=1e-15)


def jiggled_mesh(dim):
    """A box mesh with every vertex moved a little: cells and facets of
    differing shape, and canonical normals that point out of some cells and
    into others."""
    m = refine_uniform(build_box_mesh(dim, 2)) if dim < 4 else build_box_mesh(dim, 2)
    rng = np.random.default_rng(dim)
    return SimplexMesh(dim, m.vertices + rng.uniform(-0.05, 0.05, m.vertices.shape), m.cells)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_facet_geometry_matches_an_independent_oracle(dim):
    m = jiggled_mesh(dim)
    geos = [facet_geometry(m, fi) for fi in range(m.n_facets)]
    measures = np.array([geo.measure for geo in geos])
    normals = np.array([geo.unit_normal for geo in geos])
    centroids = np.array([geo.centroid for geo in geos])
    assert np.abs(m.facet_measures / measures - 1.0).max() <= 1e-13
    assert np.abs(m.facet_normals - normals).max() <= 1e-13
    assert np.array_equal(m.facet_centroids, centroids)
    # signs: +1 iff the canonical normal points away from the opposite vertex
    away = np.einsum("cki,cki->ck", normals[m.cell_facets],
                     centroids[m.cell_facets] - m.vertices[m.cells])
    assert np.array_equal(m.cell_facet_signs, np.where(away > 0, 1, -1))
    assert set(m.cell_facet_signs.ravel().tolist()) == {-1, 1}


@pytest.mark.parametrize("dim", [2, 3])
def test_facet_geometry_measure_matches_quadrature(dim):
    import math
    from simplexfem.quadrature import rule_for_degree

    m = refine_uniform(build_box_mesh(dim, 1))
    rule = rule_for_degree(dim - 1, 2)
    for fi in (0, m.n_facets // 2, m.n_facets - 1):
        geo = facet_geometry(m, fi)
        # integral of 1 over the facet via mapped quadrature
        assert math.factorial(dim - 1) * rule.weights.sum() * geo.measure == \
            pytest.approx(geo.measure, rel=1e-14)


def test_normals_point_out_with_positive_sign():
    m = build_box_mesh(2, 2)
    for c in range(m.n_cells):
        for k in range(3):
            f = m.cell_facets[c, k]
            sign = m.cell_facet_signs[c, k]
            outward = m.facet_centroids[f] - m.cell_centroids[c]
            assert sign * np.dot(m.facet_normals[f], outward) > 0


def test_geometry_index_errors():
    m = build_box_mesh(2, 1)
    with pytest.raises(MeshError):
        cell_geometry(m, 99)
    with pytest.raises(MeshError):
        facet_geometry(m, -1)


def test_roundtrip_2d():
    m = build_box_mesh(2, 1)
    m2 = read_mesh(write_mesh(m))
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.cells, m.cells)


def test_roundtrip_3d_after_refinement():
    m = refine_uniform(build_box_mesh(3, 1))
    m2 = read_mesh(write_mesh(m))
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.cells, m.cells)


def test_read_mesh_errors():
    with pytest.raises(MeshError):
        read_mesh("not a header\n")
    with pytest.raises(MeshError):
        read_mesh("2 3 1\n0 0\n1 0\n0 1\n0 1 5\n")          # index out of range
    with pytest.raises(MeshError):
        read_mesh("2 3 1\n0 0\n1 0\n0 1\n0 1 1\n")          # repeated index
    with pytest.raises(MeshError):
        read_mesh("2 3 1\n0 0\n1 0\n2 0\n0 1 2\n")          # collinear = degenerate


def test_negative_orientation_is_fixed():
    m = SimplexMesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    assert m.cell_measures[0] > 0


def test_find_cell_and_translation():
    m = build_box_mesh(2, 2)
    c = m.find_cell([0.49, 0.51])
    assert 0 <= c < m.n_cells
    t = translated(m, [0.3, 0.7])
    assert np.allclose(t.vertices, m.vertices + [0.3, 0.7])
    assert np.array_equal(t.cells, m.cells)


def test_hierarchy_length():
    levels = mesh_hierarchy(build_box_mesh(2, 1), 3)
    assert [m.n_cells for m in levels] == [2, 8, 32, 128]


def test_3d_refinement_shape_regularity():
    # shortest-diagonal octasection keeps the min dihedral quality bounded
    m = build_box_mesh(3, 1)
    quality = []
    for lvl in range(3):
        radii = m.cell_measures ** (1 / 3)
        quality.append((radii / m.cell_diameters).min())
        m = refine_uniform(m)
    assert min(quality) > 0.9 * max(quality)


# -- vectorised construction against the row-loop version ---------------------

def refine_loop(mesh):
    """Uniform refinement written one cell at a time, with row-wise
    ``np.unique`` on the edges: the oracle for ``refine_uniform``."""
    n = mesh.dim
    cells = mesh.cells
    if n == 2:
        pair_cols = [(0, 1), (0, 2), (1, 2)]
    else:
        pair_cols = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    pairs = np.sort(np.stack([cells[:, list(p)] for p in pair_cols], axis=1), axis=2)
    edges, inverse = np.unique(pairs.reshape(-1, 2), axis=0, return_inverse=True)
    mid_ids = inverse.reshape(len(cells), len(pair_cols)) + mesh.n_vertices
    verts = np.vstack([mesh.vertices, mesh.vertices[edges].mean(axis=1)])
    children = []
    for c in range(len(cells)):
        v = cells[c]
        if n == 2:
            m01, m02, m12 = mid_ids[c]
            children.extend([(v[0], m01, m02), (m01, v[1], m12),
                             (m02, m12, v[2]), (m01, m12, m02)])
            continue
        m01, m02, m03, m12, m13, m23 = mid_ids[c]
        children.extend([(v[0], m01, m02, m03), (m01, v[1], m12, m13),
                         (m02, m12, v[2], m23), (m03, m13, m23, v[3])])
        candidates = [(m01, m23, (m02, m03, m13, m12)),
                      (m02, m13, (m01, m03, m23, m12)),
                      (m03, m12, (m01, m02, m23, m13))]
        best = None
        for p, q, ring in candidates:
            key = (float(np.linalg.norm(verts[p] - verts[q])), min(p, q), max(p, q))
            if best is None or key < best[0]:
                best = (key, p, q, ring)
        _, p, q, ring = best
        for a, b in zip(ring, ring[1:] + ring[:1]):
            children.append((p, q, a, b))
    return verts, np.array(children)


def assert_same_mesh(m, verts, cells):
    assert np.array_equal(m.vertices, verts)
    assert np.array_equal(m.cells, SimplexMesh(m.dim, verts, cells).cells)
    n = m.dim
    keep = np.array([[j for j in range(n + 1) if j != i] for i in range(n + 1)])
    local = np.sort(m.cells[:, keep], axis=2).reshape(-1, n)
    facets, inverse = np.unique(local, axis=0, return_inverse=True)
    assert np.array_equal(m.facets, facets)
    assert np.array_equal(m.cell_facets, inverse.reshape(m.cells.shape))


@pytest.mark.parametrize("dim,variant,levels", [(2, "diagonal", 5), (2, "crisscross", 5),
                                                 (3, "diagonal", 3)])
def test_refinement_is_bitwise_the_row_loop(dim, variant, levels):
    m = build_box_mesh(dim, 1, variant)
    for _ in range(levels):
        verts, cells = refine_loop(m)
        m = refine_uniform(m)
        assert_same_mesh(m, verts, cells)


@pytest.mark.parametrize("dim", [2, 3])
def test_refinement_of_a_perturbed_mesh_is_bitwise_the_row_loop(dim):
    # distinct diagonal lengths: the 3D choice is decided by length alone
    m = build_box_mesh(dim, 2)
    rng = np.random.default_rng(dim)
    m = SimplexMesh(dim, m.vertices + rng.uniform(-0.05, 0.05, m.vertices.shape), m.cells)
    for _ in range(2):
        verts, cells = refine_loop(m)
        m = refine_uniform(m)
        assert_same_mesh(m, verts, cells)


def near_tie_tetrahedra(count, seed):
    """Disjoint tetrahedra whose three octahedron diagonals (after one
    refinement) are the component rotations of one vector, so their lengths
    tie up to rounding, and the rounding of the length expression decides
    which diagonal is cut."""
    rng = np.random.default_rng(seed)
    verts = []
    for i in range(count):
        p = rng.uniform(0.5, 2.0, 3)
        q, r = np.roll(p, 1), np.roll(p, 2)
        verts.append(np.array([p + q, p - r, q - r, np.zeros(3)]) + 10.0 * i)
    return SimplexMesh(3, np.vstack(verts), np.arange(4 * count).reshape(count, 4))


def test_near_tie_diagonals_are_chosen_as_the_row_loop_does():
    # sqrt((d * d).sum()) picks another diagonal than the loop's
    # np.linalg.norm on a few percent of these cells
    m = near_tie_tetrahedra(300, seed=0)
    verts, cells = refine_loop(m)
    assert_same_mesh(refine_uniform(m), verts, cells)


def test_repeated_vertex_reports_the_first_bad_cell():
    cells = [[0, 1, 2], [1, 1, 3], [2, 3, 3]]
    verts = [[0, 0], [1, 0], [0, 1], [1, 1]]
    with pytest.raises(MeshError, match=r"repeated vertex index\): \[1, 1, 3\]"):
        SimplexMesh(2, verts, cells)
