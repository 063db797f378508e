"""Simplicial meshes in n dimensions with facet incidence and geometry caches.

A mesh stores vertices, positively oriented cells, and the set of (n-1)-facets
with a canonical global orientation: the vertex tuple (p_0, ..., p_{n-1}) of
every facet is sorted ascending, and the unit normal nu is the one with
det[nu; p_1 - p_0; ...; p_{n-1} - p_0] > 0.  Each cell records, for each of
its facets, a sign telling whether the canonical normal points out of the
cell.  Every formula is the same in each dimension n >= 2; the box generator
works in any dimension and uniform refinement in 2D and 3D.  Meshes are
immutable after construction.

A mesh is built in four stages.  The facets are sorted out of the cells as
given, since a cell's facets do not depend on its orientation.  Then one
pass over blocks of cells checks, orients and measures each cell once and
writes every per-cell array.  Then the facet geometry is formed one block
of facets at a time, and the facet signs one block of cells at a time.
Every block comes from ``quadrature.cell_blocks``, so that no temporary
(cells, width) float array exceeds ``quadrature.BLOCK_BYTES``.  No float
temporary spans the mesh; the integer temporaries of the facet sort are
freed before the cell geometry is allocated.  Each array is bitwise the
same whatever the block size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import quadrature

DEGENERACY_RTOL = 1e-14


class MeshError(ValueError):
    """Raised for malformed mesh input or broken mesh invariants."""


def _lock(a):
    a.flags.writeable = False
    return a


def _unique_rows(rows):
    """``np.unique(rows, axis=0, return_inverse=True)`` for integer rows:
    one ``np.lexsort`` over the columns, first column primary, so the unique
    rows come in lexicographic order, for any number of vertices."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _edges_det_sq(x):
    """Edges x_i - x_0, their determinant and the squared pairwise vertex
    distances of stacked cells x (b, n+1, n)."""
    edges = x[:, 1:, :] - x[:, :1, :]
    diff = x[:, :, None, :] - x[:, None, :, :]               # (b, n+1, n+1, n)
    return edges, np.linalg.det(edges), (diff ** 2).sum(-1)


def _cross(rows):
    """Generalised cross product of stacked rows (..., k-1, k): the vector c
    with det[x; rows] = x . c for every x, so c_j = (-1)^j times the minor
    of the rows without column j.  Expanded by cofactors, it is term by term
    the 2D rotation (t_y, -t_x) for k = 2 and ``np.cross`` for k = 3; an LU
    determinant would round where these are exact."""
    k = rows.shape[-1]
    if k == 1:
        return np.ones(rows.shape[:-2] + (1,))
    c = []
    for j in range(k):
        sub = np.delete(rows, j, axis=-1)                  # (..., k-1, k-1)
        cof = _cross(sub[..., 1:, :])
        minor = sub[..., 0, 0] * cof[..., 0]
        for i in range(1, k - 1):
            minor = minor + sub[..., 0, i] * cof[..., i]
        c.append(minor if j % 2 == 0 else -minor)
    return np.stack(c, axis=-1)


class SimplexMesh:
    """Immutable simplicial complex with oriented facets.

    Attributes
    ----------
    dim : int
        Spatial dimension n >= 2.
    vertices : (nv, n) float array
    cells : (nc, n+1) int array
        Vertex indices; every cell is stored with positive volume.
    facets : (nf, n) int array
        Facet vertex tuples, each sorted ascending (the canonical
        orientation that fixes the global unit normal).
    cell_facets : (nc, n+1) int array
        Facet index opposite local vertex ``i``.
    cell_facet_signs : (nc, n+1) int8 array
        +1 where the canonical facet normal points out of the cell, else -1.
    is_boundary_facet : (nf,) bool array
    cell_measures, cell_H, cell_diameters : (nc,) float arrays
        |K|, the sum of the squared edge lengths, and the longest edge.
    cell_centroids : (nc, n) float array
    barycentric_gradients : (nc, n+1, n) float array
        grad(lambda_i) of local vertex ``i``.
    cell_second_moments : (nc, n, n) float array
        int_K (x - mid K)(x - mid K)^T.
    facet_centroids, facet_normals : (nf, n) float arrays
    facet_measures : (nf,) float array

    The constructor raises MeshError, in this order, for a cell with a
    repeated vertex index (the first such cell), for degenerate cells (all
    their indices), for a facet of more than two cells and for interior
    facet signs that do not cancel.  It orients a cell of negative volume by
    swapping its last two vertices.
    """

    def __init__(self, dim, vertices, cells):
        dim = int(dim)
        if dim < 2:
            raise MeshError(f"mesh dimension must be >= 2, got {dim}")
        vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise MeshError("vertex array must have shape (nv, dim)")
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise MeshError("cell array must have shape (nc, dim+1)")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell vertex index out of range")
        if len(cells) == 0:
            raise MeshError("mesh has no cells")

        self.dim = dim
        self.vertices = _lock(vertices)
        self._cached = {}                  # see ``cached``
        counts = self._build_facets(cells)
        self._build_cells(cells)
        if counts.max() > 2:
            raise MeshError("facet shared by more than two cells")
        self.is_boundary_facet = _lock(counts == 1)
        self._build_facet_geometry()
        self._build_signs()

    # -- construction ------------------------------------------------------

    def _build_facets(self, cells):
        """Facets and ``cell_facets`` of the cells as given, and the number
        of cells of each facet.  A cell's facets do not depend on its
        orientation: ``_build_cells`` swaps the two columns of a cell it
        flips."""
        n = self.dim
        nc = len(cells)
        # local facet i = cell vertices with local vertex i removed
        keep = np.array([[j for j in range(n + 1) if j != i] for i in range(n + 1)])
        local = cells[:, keep]                    # (nc, n+1, n)
        local.sort(axis=2)
        facets, inverse = _unique_rows(local.reshape(nc * (n + 1), n))
        self.facets = _lock(facets)
        self.cell_facets = inverse.reshape(nc, n + 1)
        return np.bincount(inverse, minlength=len(facets))

    def _build_cells(self, cells):
        """Check, orient and measure the cells, one block at a time.  A cell
        of negative volume has its last two vertices swapped, and its
        determinant and pairwise lengths are formed again in that order, so
        that every array is the one of the oriented cell."""
        n, nc = self.dim, len(cells)
        fact = math.factorial(n)
        oriented = cells.copy()
        measures, h, diameters = np.empty(nc), np.empty(nc), np.empty(nc)
        centroids = np.empty((nc, n))
        grads = np.empty((nc, n + 1, n))
        moments = np.empty((nc, n, n))
        repeated, degenerate = [], []
        for block in quadrature.cell_blocks(nc, (n + 1) ** 2 * n):
            ordered = np.sort(cells[block], axis=1)
            repeated.extend(block.start + np.flatnonzero(
                (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)))
            x = self.vertices[cells[block]]                    # (b, n+1, n)
            edges, det, sq = _edges_det_sq(x)
            diam = np.sqrt(sq.max(axis=(1, 2)))
            bad = np.abs(det / fact) < DEGENERACY_RTOL * diam ** n
            degenerate.extend(block.start + np.flatnonzero(bad))
            if repeated or degenerate:
                continue
            flip = np.flatnonzero(det < 0)
            if len(flip):
                for a in (oriented[block], self.cell_facets[block]):
                    a[flip, -2], a[flip, -1] = a[flip, -1], a[flip, -2].copy()
                x[flip] = self.vertices[oriented[block][flip]]
                edges[flip], det[flip], sq[flip] = _edges_det_sq(x[flip])
            measures[block] = det / fact
            centroids[block] = x.mean(axis=1)
            h[block] = sq.sum(axis=(1, 2)) / 2.0               # each pair counted twice
            diameters[block] = diam
            g = grads[block]                                   # rows of inv^T are grad(lambda_1..n)
            g[:, 1:, :] = np.swapaxes(np.linalg.inv(edges), 1, 2)
            g[:, 0, :] = -g[:, 1:, :].sum(axis=1)
            centered = x - centroids[block][:, None, :]
            outer = np.einsum("cki,ckj->cij", centered, centered)
            scale = measures[block] / ((n + 1) * (n + 2))
            moments[block] = outer * scale[:, None, None]
        if repeated:
            raise MeshError("degenerate cell (repeated vertex index): "
                            f"{cells[repeated[0]].tolist()}")
        if degenerate:
            raise MeshError(f"degenerate cell(s) at indices {[int(i) for i in degenerate]}")
        self.cells = _lock(oriented)
        self.cell_facets = _lock(self.cell_facets)
        self.cell_measures = _lock(measures)
        self.cell_centroids = _lock(centroids)
        self.cell_H = _lock(h)
        self.cell_diameters = _lock(diameters)
        self.barycentric_gradients = _lock(grads)
        self.cell_second_moments = _lock(moments)

    def _build_facet_geometry(self):
        """|F| and the canonical normal from the generalised cross product
        of the facet edges, which gives det[nu; p_1 - p_0; ...] = |c| > 0,
        one block of facets at a time."""
        n, nf = self.dim, self.n_facets
        centroids, measures, normals = np.empty((nf, n)), np.empty(nf), np.empty((nf, n))
        for block in quadrature.cell_blocks(nf, n * n):
            p = self.vertices[self.facets[block]]              # (b, n, n)
            centroids[block] = p.mean(axis=1)
            c = _cross(p[:, 1:, :] - p[:, :1, :])
            area = np.linalg.norm(c, axis=1)                   # (n-1)! |F|
            measures[block] = area / math.factorial(n - 1)
            normals[block] = c / area[:, None]
        self.facet_centroids = _lock(centroids)
        self.facet_measures = _lock(measures)
        self.facet_normals = _lock(normals)

    def _build_signs(self):
        """+1 iff the canonical normal points out of the cell, against the
        inward grad(lambda_i); interior facets must get one of each."""
        n, nc = self.dim, self.n_cells
        signs = np.empty((nc, n + 1), dtype=np.int8)
        for block in quadrature.cell_blocks(nc, (n + 1) * n):
            dots = np.einsum("cki,cki->ck", self.facet_normals[self.cell_facets[block]],
                             self.barycentric_gradients[block])
            signs[block] = np.where(dots < 0, 1, -1)
        self.cell_facet_signs = _lock(signs)
        # an interior facet has two cells: its signs sum to 0 iff one is +1
        outward = np.bincount(self.cell_facets[signs > 0], minlength=self.n_facets)
        if np.any(outward[~self.is_boundary_facet] != 1):
            raise MeshError("interior facet signs are not antisymmetric")

    # -- simple queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_facets(self):
        return len(self.facets)

    def interior_facet_indices(self):
        return np.flatnonzero(~self.is_boundary_facet)

    def boundary_facet_indices(self):
        return np.flatnonzero(self.is_boundary_facet)

    def facet_sums(self, values):
        """Per-facet sums of values attached to (cell, local facet):
        (nc, n+1[, m]) -> (nf[, m]), each sum taken in cell order."""
        values = np.asarray(values, dtype=float)
        cols = values.reshape(self.cell_facets.size, -1).T
        sums = [np.bincount(self.cell_facets.ravel(), col, minlength=self.n_facets)
                for col in cols]
        return np.stack(sums, axis=-1).reshape((self.n_facets,) + values.shape[2:])

    def boundary_facet_signs(self):
        """+1 where a boundary facet's canonical normal points outward, -1
        where it points inward; in ``boundary_facet_indices`` order.  It is
        the sum of the signs of the facet's cells, of which it has one."""
        return self.facet_sums(self.cell_facet_signs)[self.is_boundary_facet]

    @property
    def h_max(self):
        return float(self.cell_diameters.max())

    def cached(self, build):
        """``build(mesh)``, an array or a tuple of arrays of the mesh alone,
        formed on the first call and kept, read-only: per-load code takes
        its mesh-only arrays from here instead of forming them every call."""
        if build not in self._cached:
            made = build(self)
            self._cached[build] = (tuple(map(_lock, made)) if isinstance(made, tuple)
                                   else _lock(made))
        return self._cached[build]

    def find_cell(self, point):
        """Index of a cell containing ``point`` (barycentric test)."""
        point = np.asarray(point, dtype=float)
        rel = point[None, :] - self.vertices[self.cells[:, 0]]
        lam = np.einsum("cki,ci->ck", self.barycentric_gradients[:, 1:, :], rel)
        lam0 = 1.0 - lam.sum(axis=1)
        ok = (lam.min(axis=1) >= -1e-12) & (lam0 >= -1e-12)
        hits = np.flatnonzero(ok)
        if len(hits) == 0:
            raise MeshError(f"point {point.tolist()} lies outside the mesh")
        return int(hits[0])


# -- generation ------------------------------------------------------------

def build_box_mesh(dim, subdivisions, variant="diagonal"):
    """Mesh of the unit box (0,1)^dim.

    Each grid cube is split into dim! simplices by the Kuhn rule
    (Freudenthal, Ann. Math. 43, 1942): one simplex per order of the
    coordinate steps from the cube's low corner to its high corner.  That is
    two triangles along the same diagonal in 2D and six tetrahedra in 3D.
    ``variant="crisscross"`` (2D only) instead splits each square into four
    triangles around its center.

    Parameters
    ----------
    dim : int >= 2
    subdivisions : int
        Number of grid intervals per coordinate direction, >= 1.
    variant : "diagonal" or "crisscross"
    """
    dim, m = int(dim), int(subdivisions)
    if dim < 2:
        raise MeshError(f"build_box_mesh needs dim >= 2, got {dim}")
    if m < 1:
        raise MeshError("subdivisions must be >= 1")
    if variant not in ("diagonal", "crisscross"):
        raise MeshError(f"unknown variant {variant!r}")
    if dim != 2 and variant != "diagonal":
        raise MeshError("the crisscross variant is 2D only")

    grid = np.arange(m + 1) / m
    verts = np.stack([g.ravel() for g in np.meshgrid(*[grid] * dim, indexing="ij")], axis=1)
    strides = (m + 1) ** np.arange(dim - 1, -1, -1)           # vertex id = index @ strides
    cubes = np.stack(np.meshgrid(*[np.arange(m)] * dim, indexing="ij"), axis=-1)
    cubes = cubes.reshape(-1, dim)                            # grid index of each cube
    low = cubes @ strides                                     # id of its low corner

    if variant == "crisscross":
        ring = low[:, None] + np.array([0, m + 1, m + 2, 1])  # v00 v10 v11 v01
        centers = np.arange(len(low)) + len(verts)
        verts = np.vstack([verts, (cubes + 0.5) / m])
        cells = np.stack([ring, np.roll(ring, -1, axis=1),
                          np.repeat(centers[:, None], 4, axis=1)], axis=2)
        return SimplexMesh(2, verts, cells.reshape(-1, 3))

    steps = strides[np.array(list(itertools.permutations(range(dim))))]
    paths = np.pad(np.cumsum(steps, axis=1), ((0, 0), (1, 0)))   # low corner first
    cells = low[:, None, None] + paths[None, :, :]
    return SimplexMesh(dim, verts, cells.reshape(-1, dim + 1))


# Children of one cell, as indices into its vertices followed by its edge
# midpoints in lexicographic edge order.  2D: v0 v1 v2 m01 m02 m12.
_CHILDREN_2D = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2], [3, 5, 4]])
# 3D: v0 v1 v2 v3 m01 m02 m03 m12 m13 m23.  Four corner tetrahedra, then the
# octahedron cut along one of three diagonals (p, q): the tetrahedra
# (p, q, a, b) for consecutive midpoints a, b of the ring around it.
_CORNERS_3D = np.array([[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3]])
_DIAGONALS_3D = np.array([[4, 9], [5, 8], [6, 7]])          # m01-m23, m02-m13, m03-m12
_OCTAHEDRA_3D = np.array([[[p, q, a, b] for a, b in zip(ring, np.roll(ring, -1))]
                          for (p, q), ring in zip(_DIAGONALS_3D,
                                                  [[5, 6, 8, 7], [4, 6, 9, 7], [4, 5, 9, 8]])])


def refine_uniform(mesh):
    """One sweep of uniform (red) refinement.

    2D: each triangle becomes 4 similar triangles.  3D: octasection into 8
    tetrahedra; the interior octahedron is cut along its shortest diagonal
    (lexicographic midpoint-index tie-break), which keeps the children
    shape-regular across levels.  The children of cell c are rows
    2^n c .. 2^n (c + 1) - 1.  Raises MeshError for dim > 3.
    """
    return SimplexMesh(mesh.dim, *_refined(mesh))


def _refined(mesh):
    """Vertices and cells of ``refine_uniform(mesh)``, so that the
    temporaries that give them are freed before the refined mesh is built."""
    n = mesh.dim
    if n > 3:
        raise MeshError(f"uniform refinement supports dim 2 or 3, got {n}")
    cells = mesh.cells
    nc = len(cells)
    local_edges = list(itertools.combinations(range(n + 1), 2))
    pairs = np.sort(cells[:, local_edges], axis=2)           # (nc, n_edges, 2)
    edges, inverse = _unique_rows(pairs.reshape(-1, 2))
    mid_ids = inverse.reshape(nc, -1) + mesh.n_vertices
    midpoints = mesh.vertices[edges].mean(axis=1)
    verts = np.vstack([mesh.vertices, midpoints])
    local = np.hstack([cells, mid_ids])

    if n == 2:
        return verts, local[:, _CHILDREN_2D].reshape(-1, 3)
    ends = local[:, _DIAGONALS_3D]                           # (nc, 3, 2)
    d = verts[ends[:, :, 0]] - verts[ends[:, :, 1]]
    # |d| as np.linalg.norm forms it for one vector, sqrt(d.dot(d)); a
    # stacked matmul of vector pairs calls the same dot.  Where diagonals tie
    # up to rounding, the rounding picks one, and sqrt((d * d).sum()) would
    # pick another on a few percent of such cells.
    length = np.sqrt((d[:, :, None, :] @ d[:, :, :, None])[:, :, 0, 0])
    best = np.lexsort((ends.max(axis=2), ends.min(axis=2), length))[:, 0]
    octahedron = local[np.arange(nc)[:, None, None], _OCTAHEDRA_3D[best]]
    children = np.concatenate([local[:, _CORNERS_3D], octahedron], axis=1)
    return verts, children.reshape(-1, 4)


def mesh_hierarchy(coarse, levels):
    """List [coarse, refined once, ...] of length ``levels + 1``."""
    out = [coarse]
    for _ in range(levels):
        out.append(refine_uniform(out[-1]))
    return out


# -- plain-text i/o ---------------------------------------------------------

def write_mesh(mesh):
    """Serialize to the plain-text format ``dim nv nc`` / vertex lines /
    0-based cell lines.  Coordinates carry 17 significant digits so a
    read-back round-trips exactly."""
    lines = [f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in c))
    return "\n".join(lines) + "\n"


def read_mesh(text):
    """Parse the plain-text mesh format; raises MeshError on malformed
    headers, out-of-range indices and degenerate cells."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise MeshError("empty mesh file")
    head = rows[0].split()
    if len(head) != 3:
        raise MeshError(f"malformed header {rows[0]!r} (want 'dim n_vertices n_cells')")
    try:
        dim, nv, nc = (int(t) for t in head)
    except ValueError as exc:
        raise MeshError(f"malformed header {rows[0]!r}") from exc
    if len(rows) != 1 + nv + nc:
        raise MeshError(f"expected {1 + nv + nc} lines, found {len(rows)}")
    try:
        verts = np.array([[float(t) for t in rows[1 + i].split()] for i in range(nv)])
        cells = np.array([[int(t) for t in rows[1 + nv + i].split()] for i in range(nc)])
    except ValueError as exc:
        raise MeshError(f"malformed vertex or cell line: {exc}") from exc
    if verts.shape != (nv, dim):
        raise MeshError("vertex line does not match header dimension")
    if cells.shape != (nc, dim + 1):
        raise MeshError("cell line does not match header dimension")
    return SimplexMesh(dim, verts, cells)
