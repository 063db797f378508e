import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from simplexfem.mesh import SimplexMesh, build_box_mesh, refine_uniform
from simplexfem.quadrature import (QuadratureError, _gauss_jacobi, cell_weights, centred_points,
                                   integrate_cellwise, physical_points, rule_for_degree)

from percell import reference_monomial_integral


def monomial_error(rule, alpha):
    x = rule.points[:, 1:]
    val = (np.prod(x ** np.array(alpha), axis=1) * rule.weights).sum()
    exact = reference_monomial_integral(alpha)
    return abs(val - exact) / max(abs(exact), 1e-300)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("degree", list(range(0, 11)))
def test_monomial_exactness_sweep(dim, degree):
    rule = rule_for_degree(dim, degree)
    assert rule.exact_degree >= degree
    assert rule.weights.min() > 0
    assert abs(rule.weights.sum() - 1 / math.factorial(dim)) < 1e-14
    for alpha in itertools.product(range(degree + 1), repeat=dim):
        if sum(alpha) <= degree:
            assert monomial_error(rule, alpha) < 1e-12, (alpha, degree)


def test_degree_one_is_centroid_rule():
    rule = rule_for_degree(2, 1)
    assert rule.n_points == 1
    assert rule.weights[0] == pytest.approx(0.5, abs=1e-16)
    assert np.allclose(rule.points, 1 / 3)


def test_named_reference_integrals():
    # int x^2 y^2 over the reference triangle = 2!2!/6! = 1/180
    rule = rule_for_degree(2, 4)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    assert (x ** 2 * y ** 2 * rule.weights).sum() == pytest.approx(1 / 180, abs=1e-14)
    # int x^2 over the reference tet = 2/5! = 1/60
    rule = rule_for_degree(3, 2)
    x = rule.points[:, 1]
    assert (x ** 2 * rule.weights).sum() == pytest.approx(1 / 60, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_physical_points_match_einsum_oracle(dim):
    base = refine_uniform(refine_uniform(build_box_mesh(dim, 1)))
    rng = np.random.default_rng(dim)
    m = SimplexMesh(dim, base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape),
                    base.cells)
    for degree in (1, 4, 8):
        bary = rule_for_degree(dim, degree).points
        oracle = np.einsum("qk,cki->cqi", bary, m.vertices[m.cells])
        got = physical_points(m, bary)
        assert got.shape == oracle.shape
        assert np.abs(got - oracle).max() <= 1e-15 * np.abs(oracle).max()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_centred_points_are_physical_points_less_the_centroid(dim):
    base = build_box_mesh(dim, 2)
    rng = np.random.default_rng(dim)
    m = SimplexMesh(dim, base.vertices + rng.uniform(-0.05, 0.05, base.vertices.shape),
                    base.cells)
    bary = rule_for_degree(dim, 8).points
    oracle = physical_points(m, bary) - m.cell_centroids[:, None]
    assert np.abs(centred_points(m, bary) - oracle).max() <= 1e-15 * np.abs(m.vertices).max()
    offsets = m.vertices[m.cells] - m.cell_centroids[:, None]
    assert np.array_equal(centred_points(m, np.eye(dim + 1)), offsets)


@pytest.mark.parametrize("dim", [2, 3])
def test_mapped_integration_of_one_gives_measure(dim):
    m = refine_uniform(build_box_mesh(dim, 1))
    rule = rule_for_degree(dim, 3)
    w = cell_weights(m, rule)
    assert np.allclose(w.sum(axis=1), m.cell_measures, rtol=1e-14)
    ones = np.ones((m.n_cells, rule.n_points))
    assert integrate_cellwise(m, ones, rule).sum(axis=0) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_facet_rules_are_exact(dim):
    rule = rule_for_degree(dim - 1, 4)
    assert rule.weights.min() > 0
    if dim == 2:
        # segment rule: int_0^1 t^k dt = 1/(k+1)
        t = rule.points[:, 1]
        for k in range(5):
            assert (t ** k * rule.weights).sum() == pytest.approx(1 / (k + 1), rel=1e-14)
    else:
        for alpha in itertools.product(range(5), repeat=dim - 1):
            if sum(alpha) <= 4:
                assert monomial_error(rule, alpha) < 1e-12


def test_unsupported_requests_raise():
    with pytest.raises(QuadratureError):
        rule_for_degree(0, 2)
    with pytest.raises(QuadratureError):
        rule_for_degree(2, 31)


@pytest.mark.parametrize("dim,degree", [(1, 0), (2, 4), (3, 8)])
def test_rules_are_built_once_and_shared_read_only(dim, degree):
    rule = rule_for_degree(dim, degree)
    assert rule_for_degree(np.int64(dim), degree) is rule
    assert rule_for_degree(dim, degree) is rule
    for array in (rule.points, rule.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    # a cached rule does not let a bad request through
    for bad in ((0, degree), (-dim, degree), (dim, -1), (dim, 31)):
        with pytest.raises(QuadratureError):
            rule_for_degree(*bad)


def test_high_degree_available():
    # rhs/error norms rely on degree >= 8 in every dimension
    for dim in (2, 3, 4):
        rule = rule_for_degree(dim, 8)
        assert rule.exact_degree >= 8


ALPHAS = [0, 0.5, 1, 2, 2.5, 3]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gauss_jacobi_matches_roots_jacobi(alpha):
    # roots_jacobi's own weights are off by up to 380 ulps of the largest
    # weight at k = 15 against a 60-digit evaluation, these by at most 12;
    # the moment test below holds these to a few ulps
    eps = np.finfo(float).eps
    for k in range(1, 17):
        t, w = _gauss_jacobi(k, float(alpha))
        t_ref, w_ref = roots_jacobi(k, alpha, 0.0)
        assert np.abs(t - t_ref).max() <= 2 * eps, k
        assert np.abs(w - w_ref).max() <= 512 * np.spacing(w_ref.max()), k


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_gauss_jacobi_integrates_its_moments_exactly(alpha):
    # int_0^1 (1-u)^alpha u^j du = j! alpha! / (j + alpha + 1)!, j < 2k
    eps = np.finfo(float).eps
    for k in range(1, 17):
        t, w = _gauss_jacobi(k, float(alpha))
        u, v = (t + 1.0) / 2.0, w / 2.0 ** (alpha + 1)
        for j in range(2 * k):
            exact = math.factorial(j) * math.factorial(alpha) / math.factorial(j + alpha + 1)
            assert abs(np.sum(v * u ** j) - exact) <= 16 * eps * exact, (k, j)


def test_importing_the_package_leaves_scipy_special_out():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    script = ("import sys, simplexfem\n"
              "simplexfem.rule_for_degree(3, 8)\n"
              "print('scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]
