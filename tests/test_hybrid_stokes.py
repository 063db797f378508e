"""The hybridised pseudostress Stokes solve (``problems.solve_stokes_mixed``):
its multiplier system is the CR-Stokes matrix, its solution that of the
unhybridised system of ``oracles.assemble_pseudostress``, the oracle, and
its gate is that system's residual."""

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
import peakrss
from simplexfem import assembly, elements, equivalence, linsolve, problems
from simplexfem.linsolve import SolverError
from simplexfem.mesh import build_box_mesh, refine_uniform

MESHES = {"2D L3": (2, 1, 3), "2D L5": (2, 1, 5), "3D box(2)r": (3, 2, 1),
          "3D box(3)r": (3, 3, 1), "3D L3": (3, 1, 3), "4D box(2)": (4, 2, 0)}
ORACLE = ["2D L3", "3D box(2)r", "4D box(2)"]


def mesh_of(name):
    dim, boxes, refinements = MESHES[name]
    mesh = build_box_mesh(dim, boxes)
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    return mesh


def random_load(mesh, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (mesh.n_cells, mesh.dim))


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("name", ["2D L5", "3D box(3)r", "4D box(2)"])
def test_multiplier_system_is_the_cr_stokes_matrix(name):
    # the eliminated S_K = D_K [bordered block]^-1_sigma,sigma D_K satisfies
    # S_K + e_K e_K^T / (n |K|) = the CR vector stiffness of K, and
    # e_K = D_K I_K is the cell's row of the CR-Stokes divergence:
    # sum_K S_K = A_CR - B^T D^-1 B / n with D = diag(|K|)
    mesh = mesh_of(name)
    n = mesh.dim
    operator = problems.pseudostress_operator(mesh)
    system = oracles.assemble_stokes(mesh, np.zeros(n), "CR")[0]
    A, B = system.A, system.B
    S, E = operator.system.A, operator.system.B
    assert abs(S - A).max() <= 1e-14 * abs(A).max()
    assert abs(E - B).max() <= 1e-14 * abs(B).max()
    eliminated, _ = problems._multiplier_matrices(operator.inverse, operator.coupling,
                                                  operator.dofs, A.shape[0])
    schur = A - B.T @ (B / (n * mesh.cell_measures)[:, None])
    assert abs(eliminated - schur).max() <= 1e-14 * abs(A).max()


@pytest.mark.parametrize("name", ["2D L5", "3D box(3)r", "4D box(2)"])
def test_multiplier_block_is_n_copies_of_the_memo_rt0_s(monkeypatch, name):
    # by the identity above, S is n copies of the Poisson multiplier matrix:
    # it is taken from the memo's RT0 operator, and no (nc, p, p) block of it
    # is scattered; the rows of E are the only scatter
    mesh = mesh_of(name)
    n = mesh.dim
    poisson = problems._operator(mesh, "RT0").system.A
    shapes = []
    scatter = assembly.scatter_matrix

    def recording(rows, cols, local, shape):
        shapes.append(local.shape)
        return scatter(rows, cols, local, shape)

    monkeypatch.setattr(assembly, "scatter_matrix", recording)
    S = problems.pseudostress_operator(mesh).system.A.tocsr()
    assert shapes == [(mesh.n_cells, 1, n * (n + 1))]
    expected = sp.block_diag([poisson] * n, format="csr")
    for a, b in ((S.indptr, expected.indptr), (S.indices, expected.indices),
                 (S.data, expected.data)):
        assert a.tobytes() == b.tobytes()


def test_operator_build_peaks_within_1_6_times_what_it_keeps():
    # with the RT0 operator in the memo; the (nc, p, p) multiplier blocks
    # and their scatter took the peak to 1.96 times what is kept
    mesh = mesh_of("3D L3")
    problems._operator(mesh, "RT0")
    kept, peak = peakrss.traced(lambda: problems.pseudostress_operator(mesh))
    assert peak <= 1.6 * kept, (kept, peak)


@pytest.mark.parametrize("load", ["random", "constant"])
@pytest.mark.parametrize("name", ORACLE)
def test_hybrid_solve_matches_the_unhybridised_solve(name, load):
    mesh = mesh_of(name)
    f = random_load(mesh) if load == "random" else np.ones(mesh.dim)
    sigma, u = problems.solve_stokes_mixed(mesh, f)
    x, y, _ = oracles.solve(oracles.assemble_pseudostress(mesh, f)[0])
    assert relative_gap(sigma.coeffs, x) <= 1e-13
    assert relative_gap(u.coeffs, y) <= 1e-13


@pytest.mark.parametrize("name", ORACLE)
def test_zero_load_gives_exact_zeros(name):
    mesh = mesh_of(name)
    sigma, u = problems.solve_stokes_mixed(mesh, np.zeros(mesh.dim))
    assert not sigma.coeffs.any() and not u.coeffs.any()


@pytest.mark.parametrize("name", ["2D L3", "3D box(2)r"])
def test_moved_rt0_outer_entry_fails_the_certificate(monkeypatch, name):
    # one entry off by 1e-10 of its cell's largest takes the identity tensor
    # out of that cell's kernel, which the elimination relies on
    mesh = mesh_of(name)
    f = random_load(mesh, seed=1)
    assert equivalence.check_stokes_identity(mesh, f).passed
    identity = (mesh.facet_normals * mesh.facet_measures[:, None])[mesh.cell_facets[0]]
    j, s = np.unravel_index(np.argmax(np.abs(identity)), identity.shape)
    outer = elements.rt0_outer

    def moved(m):
        out = outer(m)
        out[0, j, j, s, s] += 1e-10 * np.abs(out[0]).max()
        return out

    monkeypatch.setattr(elements, "rt0_outer", moved)
    # on a new mesh of the same shape: the elimination built for the first
    # one is kept with its other operators for every further load on it
    with pytest.raises(SolverError, match="kernel"):
        equivalence.check_stokes_identity(mesh_of(name), f)


def gate_pseudostress(mesh, f, sigma, u):
    """``problems._gate_pseudostress`` on (sigma, u) for the load f."""
    g = -assembly.load_integrals(mesh, f, mesh.dim)
    return problems._gate_pseudostress(mesh, elements.rt0_deviatoric_mass(mesh),
                                       g.T.ravel(), sigma, u)


@pytest.mark.parametrize("name", ["2D L3", "3D box(2)r"])
def test_local_block_gate_matches_the_assembled_gate(monkeypatch, name):
    mesh = mesh_of(name)
    f = random_load(mesh)
    residuals = []
    gate = linsolve._gate

    def recorded(residual, what):
        residuals.append(residual)
        return gate(residual, what)

    monkeypatch.setattr(linsolve, "_gate", recorded)
    sigma, u = problems.solve_stokes_mixed(mesh, f)
    local = residuals[-1]                    # the last gate is the unhybridised one
    linsolve.gate_saddle(oracles.assemble_pseudostress(mesh, f)[0], sigma.coeffs, u.coeffs)
    assert 0.0 < local <= linsolve.RESIDUAL_TOL
    assert abs(local - residuals[-1]) <= 1e-16


@pytest.mark.parametrize("name", ["2D L3", "3D box(2)r"])
def test_local_block_gate_rejects_a_moved_flux(name):
    mesh = mesh_of(name)
    f = random_load(mesh)
    sigma, u = problems.solve_stokes_mixed(mesh, f)
    gate_pseudostress(mesh, f, sigma.coeffs, u.coeffs)
    moved = sigma.coeffs.copy()
    moved[np.argmax(np.abs(moved))] += 1e-9 * np.abs(moved).max()
    with pytest.raises(SolverError):
        gate_pseudostress(mesh, f, moved, u.coeffs)


def test_hybrid_solve_assembles_no_global_pseudostress_system(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pseudostress solve assembled a global RT0 matrix")

    monkeypatch.setattr(oracles, "assemble_pseudostress", forbidden)
    monkeypatch.setattr(assembly, "scatter_blocks", forbidden)
    for name in ("2D L3", "3D box(2)r"):
        mesh = mesh_of(name)
        problems.solve_stokes_mixed(mesh, random_load(mesh))
