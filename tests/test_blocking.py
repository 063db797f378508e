"""Cell-blocked sampling: loads and error norms are sampled one block of
cells at a time (``quadrature.cell_blocks``).  Every result is bitwise the
same whatever the block size, and sampling a 3D L4 mesh raises the peak RSS
by about a block's temporaries, not by whole-mesh arrays."""

import numpy as np
import pytest

import peakrss
from simplexfem import analysis, assembly, problems, quadrature
from simplexfem.mesh import MeshError, SimplexMesh, build_box_mesh, refine_uniform
from simplexfem.problems import sine_solution, solve_poisson, solve_poisson_mixed


def jiggled(dim, levels, seed=0):
    """``build_box_mesh(dim, 1)`` refined ``levels`` times, every vertex
    moved a little, so that cells differ in shape and measure, and every
    third cell given in negative orientation."""
    mesh = build_box_mesh(dim, 1)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    rng = np.random.default_rng(seed)
    cells = mesh.cells.copy()
    cells[::3, :2] = cells[::3, 1::-1]
    mesh = SimplexMesh(dim, mesh.vertices + rng.uniform(-0.02, 0.02, mesh.vertices.shape),
                       cells)
    flipped = cells[::3].copy()
    flipped[:, -2:] = flipped[:, :-3:-1]
    assert np.array_equal(mesh.cells[::3], flipped)      # stored with the last two swapped
    return mesh


def mesh_arrays(mesh):
    """Every array of a mesh, by attribute name."""
    return {name: value for name, value in vars(mesh).items()
            if isinstance(value, np.ndarray)}


def sampled_outputs(mesh):
    """Every blocked reduction of the sine load and of the errors of the
    CR, ECR and RT fields it gives, as float arrays by name."""
    fix = sine_solution(mesh.dim)
    out = {}
    for family in ("CR", "ECR"):
        dm = assembly.DofMap.build(mesh, family, dirichlet=True)
        out[f"load_vector {family}"] = assembly.load_vector(mesh, dm, fix.f)
        uh = solve_poisson(mesh, fix.f, family)
        out[f"solve {family}"] = uh.coeffs
        out[f"l2_error {family}"] = analysis.l2_error(uh, fix.u)
        out[f"broken_h1_error {family}"] = analysis.broken_h1_error(uh, fix.grad)
    out["load_integrals"] = assembly.load_integrals(mesh, fix.f)
    out["bubble_coefficients"] = problems.bubble_coefficients(mesh, fix.f)
    sigma, u = solve_poisson_mixed(mesh, fix.f)
    out["l2_error RT"] = analysis.l2_error(sigma, fix.grad)
    out["l2_error P0"] = analysis.l2_error(u, fix.u)
    out["osc"] = analysis.osc(fix.f, mesh)
    out["facet_averages_of"] = assembly.facet_averages_of(mesh, fix.u)
    out["outward_flux_averages"] = problems.outward_flux_averages(mesh, fix.grad)
    return {name: np.asarray(value, dtype=float) for name, value in out.items()}


@pytest.mark.parametrize("dim,levels", [(2, 3), (3, 2)])
@pytest.mark.parametrize("cells", [1, 7])
def test_results_do_not_depend_on_the_block_size(monkeypatch, dim, levels, cells):
    mesh = jiggled(dim, levels)
    default = sampled_outputs(mesh)
    # every blocked call here is sized by Q * n values a cell
    width = quadrature.rule_for_degree(dim, analysis.ERROR_DEGREE).n_points * dim
    assert list(quadrature.cell_blocks(mesh.n_cells, width))[-1].stop == mesh.n_cells
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 8 * width * cells)
    blocks = list(quadrature.cell_blocks(mesh.n_cells, width))
    assert blocks[0] == slice(0, cells)
    assert cells == 1 or mesh.n_cells % cells != 0     # a last block shorter than the others
    # the mesh build, whose widest temporary takes (n+1)^2 n values a cell,
    # now runs in five blocks or more
    assert 5 * quadrature.BLOCK_BYTES <= 8 * (dim + 1) ** 2 * dim * mesh.n_cells
    rebuilt = mesh_arrays(jiggled(dim, levels))
    arrays = mesh_arrays(mesh)
    assert len(arrays) == 15 and rebuilt.keys() == arrays.keys()
    for name, value in arrays.items():
        assert rebuilt[name].dtype == value.dtype, name
        assert rebuilt[name].tobytes() == value.tobytes(), name
    blocked = sampled_outputs(mesh)
    for name, value in default.items():
        assert blocked[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("block_bytes", [None, 8 * 18 * 4])
def test_degenerate_cells_in_different_blocks_are_all_reported(monkeypatch, block_bytes):
    # 2D: blocks of 4 cells, (n+1)^2 n = 18 values a cell
    if block_bytes:
        monkeypatch.setattr(quadrature, "BLOCK_BYTES", block_bytes)
    mesh = build_box_mesh(2, 3)
    cells = mesh.cells.tolist()
    for index in (2, 9, 17):
        cells.insert(index, [0, 1, 2])               # collinear: (0, 0), (0, 1/3), (0, 2/3)
    with pytest.raises(MeshError, match=r"indices \[2, 9, 17\]$"):
        SimplexMesh(2, mesh.vertices, cells)
    cells[20] = [5, 6, 5]                          # a repeated vertex is reported first
    with pytest.raises(MeshError, match=r"repeated vertex index\): \[5, 6, 5\]"):
        SimplexMesh(2, mesh.vertices, cells)


def test_cell_blocks_cover_the_cells_in_order(monkeypatch):
    monkeypatch.setattr(quadrature, "BLOCK_BYTES", 8 * 10 * 4)
    assert list(quadrature.cell_blocks(10, 10)) == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert list(quadrature.cell_blocks(3, 1000)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(quadrature.cell_blocks(0, 1)) == []


PEAK_SCRIPT = """
from simplexfem import analysis, assembly, problems
from simplexfem.mesh import build_box_mesh, mesh_hierarchy


def entry_points(mesh):
    fix = problems.sine_solution(mesh.dim)
    cr = assembly.DofMap.build(mesh, "CR", dirichlet=True)
    ecr = assembly.DofMap.build(mesh, "ECR", dirichlet=True)
    rt = assembly.DofMap.build(mesh, "RT0")
    rng = np.random.default_rng(0)
    uh = problems.BrokenField(ecr, rng.standard_normal(ecr.n_total))
    sigma = problems.RTField(rt, rng.standard_normal(rt.n_total))
    for prop in ("cell_H", "cell_second_moments", "cell_diameters", "barycentric_gradients"):
        getattr(mesh, prop)
    return {
        "load_vector": lambda: assembly.load_vector(mesh, cr, fix.f),
        "load_integrals": lambda: assembly.load_integrals(mesh, fix.f),
        "bubble_coefficients": lambda: problems.bubble_coefficients(mesh, fix.f),
        "ECR load pass": lambda: problems._cr_system(
            mesh, fix.f, "ECR", lambda load: assembly.load_vector(mesh, cr, load)),
        "l2_error ECR": lambda: analysis.l2_error(uh, fix.u),
        "broken_h1_error ECR": lambda: analysis.broken_h1_error(uh, fix.grad),
        "l2_error RT": lambda: analysis.l2_error(sigma, fix.grad),
        "osc": lambda: analysis.osc(fix.f, mesh),
    }


for call in entry_points(mesh_hierarchy(build_box_mesh(3, 1), 1)[-1]).values():
    call()                                   # imports and rules, on a small mesh
hierarchy = mesh_hierarchy(build_box_mesh(3, 1), 4)
raised = {}
for name, call in entry_points(hierarchy[-1]).items():
    filler = padded()
    before = peak_mb()
    call()
    raised[name] = peak_mb() - before
    del filler
print(json.dumps(raised))
"""


def test_sampling_3d_level_4_raises_the_peak_rss_by_a_few_blocks(tmp_path):
    # 3D L4: 24,576 cells, 125 points; one (nc, Q, n) array would be 74 MB
    raised = peakrss.run(PEAK_SCRIPT, tmp_path)
    assert raised and max(raised.values()) <= 16.0, raised


MESH_PEAK_SCRIPT = """
from simplexfem.mesh import build_box_mesh, mesh_hierarchy, refine_uniform

refine_uniform(build_box_mesh(3, 2))           # imports, on a small mesh
coarse = mesh_hierarchy(build_box_mesh(3, 1), 4)[-1]
filler = padded()
before = peak_mb()
fine = refine_uniform(coarse)
raised = peak_mb() - before
arrays = [a for a in vars(fine).values() if isinstance(a, np.ndarray)]
print(json.dumps({"raised_mb": raised, "cells": fine.n_cells,
                  "arrays_mb": sum(a.nbytes for a in arrays) / 2.0 ** 20}))
"""


def test_refining_3d_level_4_raises_the_peak_rss_by_little_more_than_the_new_mesh(tmp_path):
    # 3D L5: 196,608 cells and 90.2 MB of arrays.  Built one block of cells
    # and facets at a time, it raised the peak by 1.21 times that; built on
    # whole-mesh temporaries, by 4.1 times
    measured = peakrss.run(MESH_PEAK_SCRIPT, tmp_path)
    assert measured["cells"] == 196608
    assert measured["raised_mb"] <= 1.5 * measured["arrays_mb"], measured
