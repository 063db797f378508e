"""Batch command-line front end: reproduces the convergence studies, the
eigenvalue tables and every equivalence identity check, emitting CSV tables,
JSON reports and gnuplot-ready (h, error) data files.

Exit codes: 0 all requested checks passed, 1 a check failed (failing
residuals are printed), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, assembly, equivalence, linsolve, mesh as meshmod, problems
from .assembly import DataError
from .linsolve import SolverError
from .mesh import MeshError
from .quadrature import rule_for_degree


class ConfigError(ValueError):
    pass


def _coarse_mesh(args):
    if getattr(args, "mesh_file", None):
        try:
            with open(args.mesh_file) as fh:
                return meshmod.read_mesh(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read mesh file: {exc}") from exc
    return meshmod.build_box_mesh(args.dim, args.subdivisions, args.coarse)


def _parse_rhs(spec, dim, ncomp=1):
    """Load spec: const:<c[,c2,...]>, sine, or random."""
    if spec.startswith("const:"):
        vals = [float(t) for t in spec[len("const:"):].split(",")]
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
    if spec == "random":
        return "random"
    raise ConfigError(f"cannot parse load spec {spec!r}")


def _random_pc_loads(mesh, n_loads, seed, ncomp=1):
    rng = np.random.default_rng(seed)
    shape = (mesh.n_cells,) if ncomp == 1 else (mesh.n_cells, ncomp)
    return [rng.uniform(-1.0, 1.0, shape) for _ in range(n_loads)]


def _equivalence_load(mesh, f, ncomp=1):
    """Project non-constant loads cellwise, warning once (identity mode)."""
    if callable(f):
        print("warning: non-piecewise-constant load projected cellwise "
              "for the equivalence check", file=sys.stderr)
        from .assembly import piecewise_constant_load
        return piecewise_constant_load(mesh, f, ncomp=ncomp)
    return f


def _write_json(path, reports):
    payload = [r.to_dict() for r in reports]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _meta(args, **extra):
    meta = {"tol_poisson": equivalence.IDENTITY_TOL,
            "tol_stokes": equivalence.STOKES_TOL,
            "seed": args.seed}
    if getattr(args, "tol", None) is not None:
        meta["tol_override"] = args.tol
    meta.update(extra)
    return meta


# -- subcommands -------------------------------------------------------------

def cmd_poisson(args):
    mesh = _coarse_mesh(args)
    for _ in range(args.levels):
        mesh = meshmod.refine_uniform(mesh)
    f = _parse_rhs(args.rhs, args.dim)
    family = args.family.upper()
    table = analysis.ConvergenceTable(meta=_meta(args, family=family))
    failures = []
    if args.condensed and family != "ECR":
        raise ConfigError("--condensed applies to the ECR family")
    u = problems.solve_poisson(mesh, f, family)
    if args.condensed:
        mono, _, _ = linsolve.solve(
            assembly.SaddleSystem(*assembly.assemble_poisson(mesh, f, family)[:2]))
        agree = float(np.abs(u.coeffs - mono).max())
        print(f"condensed vs monolithic max coefficient difference: {agree:.3e}")
        if agree > (args.tol if args.tol is not None else 1e-12):
            failures.append(f"condensed/monolithic disagreement {agree:.3e}")
    rule = rule_for_degree(mesh.dim, 4)
    norm = analysis.l2_norm_of_values(mesh, u.values(rule.points), rule)
    print(f"{family} Poisson solve: {u.dofmap.n_total} dofs, ||u_h|| = {norm:.8e}")
    if args.rhs == "sine":
        fix = problems.sine_solution(args.dim)
        err_l2 = analysis.l2_error(u, fix.u)
        err_h1 = analysis.broken_h1_error(u, fix.grad)
        print(f"errors vs sine solution: L2 = {err_l2:.8e}, broken-H1 = {err_h1:.8e}")
        table.add_level(mesh.h_max, u.dofmap.n_total, l2=err_l2, h1=err_h1)
        table.write_csv(_out(args, "poisson_table.csv"))
    for msg in failures:
        print(f"FAIL: {msg}")
    return 1 if failures else 0


def cmd_stokes(args):
    mesh = _coarse_mesh(args)
    for _ in range(args.levels):
        mesh = meshmod.refine_uniform(mesh)
    f = _parse_rhs(args.rhs, args.dim, ncomp=args.dim)
    vel, pressure = problems.solve_stokes(mesh, f)
    proj_div = np.einsum("crr->c", vel.gradient_parts()[0])
    p_mean = float((pressure.coeffs * mesh.cell_measures).sum())
    print(f"Stokes solve: {vel.dofmap.n_total} velocity dofs, "
          f"max |Pi0 div u| = {np.abs(proj_div).max():.3e}, "
          f"pressure mean = {p_mean:.3e}")
    failures = []
    div_tol = args.tol if args.tol is not None else 1e-10
    if np.abs(proj_div).max() > div_tol:
        failures.append("projected divergence residual")
    if abs(p_mean) > min(div_tol, 1e-12):
        failures.append("pressure mean nonzero")
    for msg in failures:
        print(f"FAIL: {msg}")
    return 1 if failures else 0


def cmd_eigen(args):
    coarse = _coarse_mesh(args)
    families = [t.strip() for t in args.elements.split(",") if t.strip()]
    alias = {"cr": "CR", "ecr": "ECR", "rt": "RT-mixed",
             "rt-mixed": "RT-mixed", "rt-equiv": "RT-equiv"}
    try:
        families = [alias[t.lower()] for t in families]
    except KeyError as exc:
        raise ConfigError(f"unknown element family {exc.args[0]!r}") from exc
    meshes = meshmod.mesh_hierarchy(coarse, args.levels)
    table = analysis.ConvergenceTable(meta=_meta(args, k=args.k, coarse=args.coarse))
    for lvl, mesh in enumerate(meshes):
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
    coarse = _coarse_mesh(args)
    meshes = meshmod.mesh_hierarchy(coarse, args.levels)[1:]
    reports = []
    ncomp = args.dim if args.problem in ("stokes", "cgs") else 1
    if args.tol is not None and args.tol <= 0:
        raise ConfigError("--tol must be positive")
    # without --tol each check applies its own default tolerance
    tol = {} if args.tol is None else {"tol": args.tol}
    tol_field = {} if args.tol is None else {"tol_field": args.tol}
    for lvl, mesh in enumerate(meshes, start=1):
        if args.rhs == "random":
            loads = _random_pc_loads(mesh, args.n_loads, args.seed + lvl, ncomp)
        else:
            loads = [_equivalence_load(mesh, _parse_rhs(args.rhs, args.dim, ncomp),
                                       ncomp)]
        for f in loads:
            if args.problem == "poisson":
                reports.append(equivalence.check_poisson_identity(
                    mesh, f, level=lvl, **tol))
            elif args.problem == "stokes":
                reports.append(equivalence.check_stokes_identity(
                    mesh, f, level=lvl, **tol))
            elif args.problem == "marini":
                reports.append(equivalence.check_marini_identity(
                    mesh, f, level=lvl, **tol))
            elif args.problem == "cgs":
                reports.append(equivalence.check_cgs_identity(
                    mesh, f, level=lvl, **tol))
            elif args.problem == "eigen":
                reports.append(equivalence.check_eigen_equivalence(
                    mesh, k=args.k, level=lvl, **tol_field))
                break  # load-independent
            else:
                raise ConfigError(f"unknown equivalence problem {args.problem!r}")
    _write_json(_out(args, f"equiv_{args.problem}_reports.json"), reports)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        worst = max(r.relative.values()) if r.relative else 0.0
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.name} level {r.level}: worst relative residual "
              f"{worst:.3e} (tol {r.tolerance:.1e})")
    if failed:
        for r in failed:
            print(f"FAIL detail {r.name} level {r.level}: {r.relative}")
        return 1
    return 0


def cmd_convergence(args):
    if args.solution != "sine":
        raise ConfigError(f"unknown manufactured solution {args.solution!r}")
    fix = problems.sine_solution(args.dim)
    families = [t.strip().upper() for t in args.elements.split(",") if t.strip()]
    for fam in families:
        if fam not in ("CR", "ECR"):
            raise ConfigError(f"convergence supports cr/ecr, got {fam!r}")
    meshes = meshmod.mesh_hierarchy(_coarse_mesh(args), args.levels)[1:]
    table = analysis.ConvergenceTable(meta=_meta(args, solution=args.solution))
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
    meshes = meshmod.mesh_hierarchy(_coarse_mesh(args), args.levels)[1:]
    table = equivalence.neumann_counterexample_report(meshes)
    table.meta.update(_meta(args))
    table.write_csv(_out(args, "neumann_table.csv"))
    rt = np.array(table.columns["rt_flux_error"])
    ecr = np.array(table.columns["ecr_grad_error"])
    beta = np.array(table.columns["beta"])
    print("level  h        rt_flux_err  ecr_grad_err  cr_grad_err  beta")
    for i in range(len(table.h)):
        print(f"{i + 1:5d}  {table.h[i]:.5f}  {rt[i]:.3e}    {ecr[i]:.3e}     "
              f"{table.columns['cr_grad_error'][i]:.3e}    {beta[i]:.6f}")
    failures = []
    exact_tol = args.tol if args.tol is not None else 1e-9
    if rt.max() > exact_tol:
        failures.append(f"RT flux not exact: {rt.max():.3e}")
    if ecr.max() > exact_tol:
        failures.append(f"ECR gradient not exact: {ecr.max():.3e}")
    if beta.min() <= 0 or beta.max() / beta.min() > 1.2:
        failures.append("CR lower-bound constant unstable")
    for msg in failures:
        print(f"FAIL: {msg}")
    return 1 if failures else 0


# -- argument parsing ----------------------------------------------------------

FORMAT_HELP = (
    "Output files: CSV tables start with a '# key=value ...' line recording "
    "the run configuration and effective tolerances, followed by the header "
    "row 'level,h,dofs,<columns>' with the remaining columns in sorted name "
    "order; floats carry 17 significant digits. JSON report files hold one "
    "object per check (identity, level, residuals, relative_residuals, "
    "max_normal_jump, tolerance, passed, notes, extra). --emit-plot writes "
    "one two-column (h, value) text file per table column. Reruns with "
    "identical flags and --seed are bitwise reproducible; FEM_THREADS caps "
    "BLAS/OpenMP parallelism.")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="simplexfem",
        description="CR/ECR/RT0 simplicial finite elements: solvers, "
                    "convergence studies and equivalence certification.",
        epilog=FORMAT_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levels_default=1):
        p.add_argument("--dim", type=int, choices=(2, 3), default=2)
        p.add_argument("--coarse", choices=("diagonal", "crisscross"),
                       default="diagonal", help="coarse mesh variant")
        p.add_argument("--subdivisions", type=int, default=1,
                       help="coarse grid intervals per direction")
        p.add_argument("--mesh-file", default=None,
                       help="read the coarse mesh from a plain-text file")
        p.add_argument("--levels", type=int, default=levels_default,
                       help="uniform refinement levels")
        p.add_argument("--out-dir", default=".",
                       help="directory for CSV/JSON artifacts")
        p.add_argument("--emit-plot", action="store_true",
                       help="write two-column (h, value) plot data files")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized load sweeps")
        p.add_argument("--tol", type=float, default=None,
                       help="override the command's pass/fail tolerance")

    p = sub.add_parser("poisson", help="single Poisson solve (ECR optionally "
                                       "checked against its monolithic system)")
    common(p)
    p.add_argument("--rhs", default="const:1")
    p.add_argument("--family", choices=("cr", "ecr"), default="ecr")
    p.add_argument("--condensed", action="store_true",
                   help="compare the ECR solve (CR + bubbles) with the "
                        "monolithic ECR system")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("stokes", help="single Stokes solve with residual checks")
    common(p)
    p.add_argument("--rhs", default="const:1,0")
    p.set_defaults(func=cmd_stokes)

    p = sub.add_parser("eigen", help="eigenvalue tables per level and family")
    common(p, levels_default=3)
    p.add_argument("--k", type=int, default=1, help="number of eigenvalues")
    p.add_argument("--elements", default="cr,ecr",
                   help="comma list from cr,ecr,rt-mixed,rt-equiv")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("equiv", help="equivalence identity checks")
    common(p, levels_default=3)
    p.add_argument("--problem", default="poisson",
                   choices=("poisson", "stokes", "marini", "cgs", "eigen"))
    p.add_argument("--rhs", default="const:1",
                   help="const:c[,c...], sine (projected), or random")
    p.add_argument("--n-loads", type=int, default=3,
                   help="number of random loads per level")
    p.add_argument("--k", type=int, default=3,
                   help="eigenpairs for --problem eigen")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("convergence", help="manufactured-solution error table")
    common(p, levels_default=4)
    p.add_argument("--solution", default="sine")
    p.add_argument("--elements", default="cr,ecr")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("neumann", help="pure-Neumann exactness counterexample")
    common(p, levels_default=4)
    p.set_defaults(func=cmd_neumann)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError, DataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
