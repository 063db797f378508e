"""Error norms, data oscillation, rate fitting and convergence tables."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import load_values
from .quadrature import cell_weights, integrate_cellwise, physical_points, rule_for_degree

ERROR_DEGREE = 8


def l2_norm_of_values(mesh, values, rule):
    """L2 norm of sampled (possibly vector/tensor valued) data (nc, Q, ...):
    the squares, summed over the trailing axes, and the weights are reduced
    in one einsum."""
    v = values.reshape(values.shape[:2] + (-1,))
    return float(np.sqrt(np.einsum("cqk,cqk,cq->c", v, v, cell_weights(mesh, rule)).sum()))


def _error(mesh, sample, exact):
    """|| exact - sample || on the degree-ERROR_DEGREE rule, ``sample`` a
    field method taking barycentric points and ``exact`` a callable.
    ``exact`` is evaluated first, so that the points and its temporaries
    are freed before the field is sampled.  The difference is formed in the
    field's own sample; ``exact``'s output may be a read-only broadcast, and
    is only read."""
    rule = rule_for_degree(mesh.dim, ERROR_DEGREE)
    exact_values = exact(physical_points(mesh, rule.points))
    diff = np.require(sample(rule.points), float, "W")
    diff -= exact_values
    return l2_norm_of_values(mesh, diff, rule)


def l2_error(field, exact_u):
    """|| u - u_h || by quadrature against a callable exact solution."""
    return _error(field.mesh, field.values, exact_u)


def broken_h1_error(field, exact_grad):
    """|| grad u - grad_NC u_h || (cellwise gradients)."""
    return _error(field.mesh, field.gradients, exact_grad)


def osc(f, mesh):
    """Data oscillation (sum_K h_K^2 ||f - Pi0 f||_K^2)^(1/2) against the
    piecewise-constant best approximation."""
    rule = rule_for_degree(mesh.dim, ERROR_DEGREE)
    vals = load_values(mesh, f, rule)
    means = integrate_cellwise(mesh, vals, rule) / mesh.cell_measures
    sq = integrate_cellwise(mesh, (vals - means[:, None]) ** 2, rule)
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
