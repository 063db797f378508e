"""Batch command-line front end: reproduces the convergence studies, the
eigenvalue tables and every equivalence identity check, emitting CSV tables,
JSON reports and gnuplot-ready (h, error) data files.

Each subcommand takes the mesh flags and only the flags it honours; a
level, eigenpair or load count it cannot honour is a configuration error.

Exit codes: 0 all requested checks passed, 1 a check failed (failing
residuals are printed), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, assembly, equivalence, mesh as meshmod, problems
from .assembly import DataError
from .linsolve import SolverError
from .mesh import MeshError
from .quadrature import rule_for_degree


class ConfigError(ValueError):
    pass


# the generated coarse mesh's flags, with their defaults
_BOX_DEFAULTS = {"dim": 2, "coarse": "diagonal", "subdivisions": 1}


def _box(args):
    """The generated coarse mesh's flags with the defaults applied; None
    with ``--mesh-file``, which fixes the mesh and refuses them."""
    given = {k: getattr(args, k) for k in _BOX_DEFAULTS if getattr(args, k) is not None}
    if not args.mesh_file:
        return {**_BOX_DEFAULTS, **given}
    if given:
        flags = ", ".join(f"--{k}" for k in given)
        raise ConfigError(f"{flags} cannot be applied to the mesh of --mesh-file")
    return None


def _meshes(args):
    """The coarse mesh and its ``--levels`` uniform refinements."""
    box = _box(args)
    if box is None:
        try:
            with open(args.mesh_file) as fh:
                coarse = meshmod.read_mesh(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read mesh file: {exc}") from exc
    else:
        coarse = meshmod.build_box_mesh(box["dim"], box["subdivisions"], box["coarse"])
    return meshmod.mesh_hierarchy(coarse, args.levels)


def _parse_rhs(spec, dim, ncomp=1):
    """Load spec: const:<c[,c2,...]> or sine."""
    if spec.startswith("const:"):
        try:
            vals = [float(t) for t in spec[len("const:"):].split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse load spec {spec!r}") from exc
        if ncomp == 1:
            if len(vals) != 1:
                raise ConfigError("scalar problem takes a single constant")
            return vals[0]
        if len(vals) == 1:
            vals = vals * ncomp
        if len(vals) != ncomp:
            raise ConfigError(f"vector load needs {ncomp} constants")
        return np.array(vals)
    if spec == "sine":
        if ncomp != 1:
            raise ConfigError("the sine load is scalar")
        return problems.sine_solution(dim).f
    raise ConfigError(f"cannot parse load spec {spec!r}")


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


# -- subcommands -------------------------------------------------------------

def cmd_poisson(args):
    mesh = _meshes(args)[-1]
    f = _parse_rhs(args.rhs, mesh.dim)
    family = args.family.upper()
    u = problems.solve_poisson(mesh, f, family)
    rule = rule_for_degree(mesh.dim, 4)
    norm = analysis.l2_norm_of_values(mesh, u.values(rule.points), rule)
    print(f"{family} Poisson solve: {u.dofmap.n_total} dofs, ||u_h|| = {norm:.8e}")
    if args.rhs == "sine":
        fix = problems.sine_solution(mesh.dim)
        err_l2 = analysis.l2_error(u, fix.u)
        err_h1 = analysis.broken_h1_error(u, fix.grad)
        print(f"errors vs sine solution: L2 = {err_l2:.8e}, broken-H1 = {err_h1:.8e}")
        table = analysis.ConvergenceTable(meta={"family": family})
        table.add_level(mesh.h_max, u.dofmap.n_total, l2=err_l2, h1=err_h1)
        table.write_csv(_out(args, "poisson_table.csv"))
    return 0


def cmd_stokes(args):
    mesh = _meshes(args)[-1]
    f = _parse_rhs(args.rhs, mesh.dim, ncomp=mesh.dim)
    vel, pressure = problems.solve_stokes(mesh, f)
    proj_div = np.einsum("crr->c", vel.gradient_parts()[0])
    p_mean = float((pressure.coeffs * mesh.cell_measures).sum())
    print(f"Stokes solve: {vel.dofmap.n_total} velocity dofs, "
          f"max |Pi0 div u| = {np.abs(proj_div).max():.3e}, "
          f"pressure mean = {p_mean:.3e}")
    failures = []
    if np.abs(proj_div).max() > args.tol:
        failures.append("projected divergence residual")
    if abs(p_mean) > min(args.tol, 1e-12):
        failures.append("pressure mean nonzero")
    for msg in failures:
        print(f"FAIL: {msg}")
    return 1 if failures else 0


def cmd_eigen(args):
    families = [t.strip() for t in args.elements.split(",") if t.strip()]
    alias = {"cr": "CR", "ecr": "ECR", "rt": "RT-mixed",
             "rt-mixed": "RT-mixed", "rt-equiv": "RT-equiv"}
    try:
        families = [alias[t.lower()] for t in families]
    except KeyError as exc:
        raise ConfigError(f"unknown element family {exc.args[0]!r}") from exc
    box = _box(args)
    meta = {"k": args.k} if box is None else {"k": args.k, "coarse": box["coarse"]}
    table = analysis.ConvergenceTable(meta=meta)
    for lvl, mesh in enumerate(_meshes(args)):
        row = {}
        for fam in families:
            pairs = problems.solve_eigen(mesh, fam, args.k)
            for j, p in enumerate(pairs):
                row[f"lambda{j + 1}_{fam.lower().replace('-', '_')}"] = p.lam
        table.add_level(mesh.h_max, mesh.n_cells, **row)
        packed = "  ".join(f"{k}={v:.6f}" for k, v in sorted(row.items()))
        print(f"level {lvl}: {packed}")
    table.write_csv(_out(args, "eigen_table.csv"))
    if args.emit_plot:
        table.write_plot_files(_out(args, "eigen"))
    return 0


def cmd_equiv(args):
    checks = {"poisson": equivalence.check_poisson_identity,
              "stokes": equivalence.check_stokes_identity,
              "marini": equivalence.check_marini_identity,
              "cgs": equivalence.check_cgs_identity,
              "eigen": lambda mesh, _, **kw: equivalence.check_eigen_equivalence(
                  mesh, k=args.k, **kw)}
    meshes = _meshes(args)[1:]
    dim = meshes[0].dim
    if args.problem in ("marini", "cgs") and dim != 2:
        raise ConfigError(f"--problem {args.problem} is a two-dimensional identity; "
                          f"the mesh has dimension {dim}")
    ncomp = dim if args.problem in ("stokes", "cgs") else 1
    # without --tol each check applies its own default tolerance
    tol = {} if args.tol is None else {"tol": args.tol}
    f = None if args.rhs == "random" else _parse_rhs(args.rhs, dim, ncomp)
    if callable(f):
        print("warning: non-piecewise-constant load projected cellwise "
              "for the equivalence check", file=sys.stderr)
    reports = []
    for lvl, mesh in enumerate(meshes, start=1):
        if args.problem == "eigen":
            loads = [None]          # load-independent: one check per level
        elif args.rhs == "random":
            rng = np.random.default_rng(args.seed + lvl)
            shape = (mesh.n_cells,) if ncomp == 1 else (mesh.n_cells, ncomp)
            loads = [rng.uniform(-1.0, 1.0, shape) for _ in range(args.n_loads)]
        elif callable(f):
            loads = [assembly.piecewise_constant_load(mesh, f, ncomp=ncomp)]
        else:
            loads = [f]
        reports += [checks[args.problem](mesh, load, level=lvl, **tol) for load in loads]
    with open(_out(args, f"equiv_{args.problem}_reports.json"), "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in reports:
        worst = max(r.relative.values()) if r.relative else 0.0
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.name} level {r.level}: worst relative residual "
              f"{worst:.3e} (tol {r.tolerance:.1e})")
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL detail {r.name} level {r.level}: {r.relative}")
    return 1 if failed else 0


def cmd_convergence(args):
    families = [t.strip().upper() for t in args.elements.split(",") if t.strip()]
    for fam in families:
        if fam not in ("CR", "ECR"):
            raise ConfigError(f"convergence supports cr/ecr, got {fam!r}")
    meshes = _meshes(args)[1:]
    fix = problems.sine_solution(meshes[0].dim)
    table = analysis.ConvergenceTable(meta={"solution": "sine"})
    for mesh in meshes:
        row = {}
        dofs = 0
        for fam in families:
            u = problems.solve_poisson(mesh, fix.f, fam)
            dofs = u.dofmap.n_total
            row[f"h1_{fam.lower()}"] = analysis.broken_h1_error(u, fix.grad)
            row[f"l2_{fam.lower()}"] = analysis.l2_error(u, fix.u)
        table.add_level(mesh.h_max, dofs, **row)
    table.write_csv(_out(args, "convergence_table.csv"))
    if args.emit_plot:
        table.write_plot_files(_out(args, "convergence"))
    names = table.column_names()
    print(",".join(["h"] + names))
    for i in range(len(table.h)):
        print(",".join([f"{table.h[i]:.6g}"]
                       + [f"{table.columns[n][i]:.8e}" for n in names]))
    return 0


def cmd_neumann(args):
    table = equivalence.neumann_counterexample_report(_meshes(args)[1:])
    table.meta["tol"] = args.tol
    table.write_csv(_out(args, "neumann_table.csv"))
    rt = np.array(table.columns["rt_flux_error"])
    ecr = np.array(table.columns["ecr_grad_error"])
    beta = np.array(table.columns["beta"])
    print("level  h        rt_flux_err  ecr_grad_err  cr_grad_err  beta")
    for i in range(len(table.h)):
        print(f"{i + 1:5d}  {table.h[i]:.5f}  {rt[i]:.3e}    {ecr[i]:.3e}     "
              f"{table.columns['cr_grad_error'][i]:.3e}    {beta[i]:.6f}")
    failures = []
    if rt.max() > args.tol:
        failures.append(f"RT flux not exact: {rt.max():.3e}")
    if ecr.max() > args.tol:
        failures.append(f"ECR gradient not exact: {ecr.max():.3e}")
    if beta.min() <= 0 or beta.max() / beta.min() > 1.2:
        failures.append("CR lower-bound constant unstable")
    for msg in failures:
        print(f"FAIL: {msg}")
    return 1 if failures else 0


# -- argument parsing ----------------------------------------------------------

FORMAT_HELP = (
    "Output files: every command but stokes writes into --out-dir: poisson "
    "(with --rhs sine), eigen, convergence and neumann a CSV table, equiv a "
    "JSON report file. CSV tables start with a '# key=value ...' line "
    "recording the configuration the command applied (tolerances included "
    "only where it checks one), followed by the header row "
    "'level,h,dofs,<columns>' with the remaining columns in sorted name "
    "order; floats carry 17 significant digits. JSON report files hold one "
    "object per check (identity, level, residuals, relative_residuals, "
    "max_normal_jump, tolerance, passed, notes, extra). --emit-plot (eigen, "
    "convergence) writes one two-column (h, value) text file per table "
    "column. Reruns with identical flags (and --seed) are bitwise "
    "reproducible; FEM_THREADS caps BLAS/OpenMP parallelism.")

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="simplexfem",
        description="CR/ECR/RT0 simplicial finite elements: solvers, "
                    "convergence studies and equivalence certification.",
        epilog=FORMAT_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, levels=1, out_dir=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--dim", type=int, choices=(2, 3),
                       help="dimension of the generated mesh (default 2)")
        p.add_argument("--coarse", choices=("diagonal", "crisscross"),
                       help="generated coarse mesh variant (default diagonal)")
        p.add_argument("--subdivisions", type=int,
                       help="generated coarse grid intervals per direction "
                            "(default 1)")
        p.add_argument("--mesh-file", default=None,
                       help="read the coarse mesh from a plain-text file "
                            "(excludes --dim, --coarse, --subdivisions)")
        p.add_argument("--levels", type=int, default=levels,
                       help="uniform refinement levels")
        if out_dir:
            p.add_argument("--out-dir", default=".",
                           help="directory for CSV/JSON artifacts")
        p.set_defaults(func=func)
        return p

    plot_help = "write two-column (h, value) plot data files"
    tol_help = "pass/fail tolerance (default %(default)s)"

    p = command("poisson", cmd_poisson, "single Poisson solve (--rhs sine "
                "also tabulates its errors)")
    p.add_argument("--rhs", default="const:1")
    p.add_argument("--family", choices=("cr", "ecr"), default="ecr")

    p = command("stokes", cmd_stokes, "single Stokes solve with residual checks",
                out_dir=False)
    p.add_argument("--rhs", default="const:1,0")
    p.add_argument("--tol", type=float, default=1e-10, help=tol_help)

    p = command("eigen", cmd_eigen, "eigenvalue tables per level and family",
                levels=3)
    p.add_argument("--k", type=int, default=1, help="number of eigenvalues")
    p.add_argument("--elements", default="cr,ecr",
                   help="comma list from cr,ecr,rt-mixed,rt-equiv")
    p.add_argument("--emit-plot", action="store_true", help=plot_help)

    p = command("equiv", cmd_equiv, "equivalence identity checks", levels=3)
    p.add_argument("--problem", default="poisson",
                   choices=("poisson", "stokes", "marini", "cgs", "eigen"))
    p.add_argument("--rhs", default="const:1",
                   help="const:c[,c...], sine (projected), or random")
    p.add_argument("--n-loads", type=int, default=3,
                   help="number of random loads per level")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random loads")
    p.add_argument("--k", type=int, default=3,
                   help="eigenpairs for --problem eigen")
    p.add_argument("--tol", type=float, default=None,
                   help="pass/fail tolerance (default: each check's own)")

    p = command("convergence", cmd_convergence, "sine manufactured-solution "
                "error table", levels=4)
    p.add_argument("--elements", default="cr,ecr")
    p.add_argument("--emit-plot", action="store_true", help=plot_help)

    p = command("neumann", cmd_neumann, "pure-Neumann exactness counterexample",
                levels=4)
    p.add_argument("--tol", type=float, default=1e-9, help=tol_help)
    return parser


def _check_config(args):
    """Refuse counts and tolerances the command cannot honour."""
    # equiv, convergence and neumann work on the refined levels only
    refined_only = args.command in ("equiv", "convergence", "neumann")
    least = {"levels": int(refined_only), "k": 1, "n_loads": 1}
    for name, low in least.items():
        if getattr(args, name, low) < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {low}")
    if getattr(args, "tol", None) is not None and args.tol <= 0:
        raise ConfigError("--tol must be positive")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_config(args)
        return args.func(args)
    except (ConfigError, MeshError, DataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
