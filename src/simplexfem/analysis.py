"""Error norms, data oscillation, rate fitting and convergence tables.

Error norms and the oscillation sample their callables and fields one block
of cells at a time (``quadrature.cell_blocks``, under
``quadrature.BLOCK_BYTES``), reduce each block to per-cell squares, and sum
the cells once at the end: no sample spans the mesh, and the result does
not depend on the block size."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import reduce_load
from .quadrature import (cell_blocks, cell_weights, integrate_cellwise, physical_points,
                         rule_for_degree)

ERROR_DEGREE = 8


def _cell_squares(mesh, values, rule, cells=slice(None)):
    """Squared L2 norm on each cell of ``cells`` of sampled (possibly
    vector/tensor valued) data (b, Q, ...): the squares, summed over the
    trailing axes, and the weights are reduced in one einsum."""
    v = values.reshape(values.shape[:2] + (-1,))
    return np.einsum("cqk,cqk,cq->c", v, v, cell_weights(mesh, rule, cells))


def l2_norm_of_values(mesh, values, rule):
    """L2 norm of sampled (possibly vector/tensor valued) data (nc, Q, ...)."""
    return float(np.sqrt(_cell_squares(mesh, values, rule).sum()))


def _error(field, sample, exact):
    """|| exact - sample || on the degree-ERROR_DEGREE rule, ``sample`` a
    sampler of ``field`` taking (barycentric points, cells) and ``exact`` a
    callable.  Both are sampled one block of cells at a time
    (``quadrature.cell_blocks``, sized by n * ncomp values a point, which
    bounds the points, the field's gradients and its values), and each
    block is reduced to its cells' squared errors; the cells are summed
    once at the end.  ``exact`` is evaluated first, so that the points and
    its temporaries are freed before the field is sampled.  The difference
    is formed in the field's own sample; ``exact``'s output may be a
    read-only broadcast, and is only read."""
    mesh = field.mesh
    rule = rule_for_degree(mesh.dim, ERROR_DEGREE)
    squares = np.empty(mesh.n_cells)
    for cells in cell_blocks(mesh.n_cells, rule.n_points * mesh.dim * field.ncomp):
        exact_values = exact(physical_points(mesh, rule.points, cells))
        diff = np.require(sample(rule.points, cells), float, "W")
        diff -= exact_values
        squares[cells] = _cell_squares(mesh, diff, rule, cells)
    return float(np.sqrt(squares.sum()))


def l2_error(field, exact_u):
    """|| u - u_h || by quadrature against a callable exact solution."""
    return _error(field, field.value_sampler(), exact_u)


def broken_h1_error(field, exact_grad):
    """|| grad u - grad_NC u_h || (cellwise gradients)."""
    return _error(field, field.gradient_sampler(), exact_grad)


def osc(f, mesh):
    """Data oscillation (sum_K h_K^2 ||f - Pi0 f||_K^2)^(1/2) against the
    piecewise-constant best approximation, with f sampled and reduced one
    block of cells at a time."""
    rule = rule_for_degree(mesh.dim, ERROR_DEGREE)

    def squares(vals, cells):
        means = integrate_cellwise(mesh, vals, rule, cells) / mesh.cell_measures[cells]
        return integrate_cellwise(mesh, (vals - means[:, None]) ** 2, rule, cells)
    sq, = reduce_load(mesh, f, rule, 1, squares)
    return float(np.sqrt((mesh.cell_diameters ** 2 * sq).sum()))


def fit_rate(errors):
    """Pairwise log2 ratios and a least-squares slope for errors on a
    uniformly halved hierarchy.  Zero errors flag the rate as inf."""
    e = np.asarray(errors, dtype=float)
    if len(e) < 2:
        raise ValueError("need at least two levels to fit a rate")
    with np.errstate(divide="ignore"):
        pairwise = np.log2(e[:-1] / e[1:])
    if np.any(e == 0.0):
        slope = np.inf
    else:
        levels = np.arange(len(e))
        slope = -np.polyfit(levels, np.log2(e), 1)[0]
    return pairwise, float(slope)


@dataclass
class ConvergenceTable:
    """Per-level mesh size, DOF counts and named error/eigenvalue columns."""

    h: list = field(default_factory=list)
    dofs: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def add_level(self, h, dofs, **values):
        self.h.append(float(h))
        self.dofs.append(int(dofs))
        for name, val in values.items():
            self.columns.setdefault(name, []).append(float(val))

    def rates(self, name):
        pairwise, _ = fit_rate(self.columns[name])
        return pairwise

    def column_names(self):
        return sorted(self.columns)

    def to_csv(self):
        names = self.column_names()
        lines = []
        if self.meta:
            packed = " ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            lines.append(f"# {packed}")
        lines.append(",".join(["level", "h", "dofs"] + names))
        for i in range(len(self.h)):
            row = [str(i), f"{self.h[i]:.17g}", str(self.dofs[i])]
            row += [f"{self.columns[n][i]:.17g}" for n in names]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def write_plot_files(self, prefix):
        """Two-column (h, value) text files, one per column, for external
        plotting."""
        paths = []
        for name in self.column_names():
            path = f"{prefix}_{name}.dat"
            with open(path, "w") as fh:
                for h, v in zip(self.h, self.columns[name]):
                    fh.write(f"{h:.17g} {v:.17g}\n")
            paths.append(path)
        return paths
