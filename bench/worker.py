"""One pass of one benchmark workload, in a process of its own.

Usage (normally started by ``run.py``, which repeats passes and reports):

    python3 bench/worker.py --workload NAME --seed N --spans 0|1
                            [--size full|smoke] [--corrupt-reference]
                            [--setup-only]

The pass imports the package from ``src/`` of the checkout that holds this
file, builds the workload's meshes and loads from the seed (set-up), runs
its operations through the package's public modules, checks every output,
and prints one JSON object on its last line of standard output: the set-up,
first-result and wall times, peak RSS, the outcome of every operation, the
factorisations, and with ``--spans 1`` the span dump and per-layer metrics.
With ``--setup-only`` it stops after set-up and reports only its time.

An operation fails on a ``SolverError``, on a certificate whose ``passed``
is false, or on a value that misses its reference.  Failures are counted,
never retried.  A failure listed as expected in ``references.json`` (a
known defect of the package) is still counted, but does not make the pass
incorrect.  ``--corrupt-reference`` scales every reference value by
1 + 1e-3, so that the reference checks can be seen to fail.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sizes of each workload: "full" is the benchmark, "smoke" a small instance
# of the same code path for the benchmark's own tests.
SIZES = {
    "full": {"poisson_level": 7, "poisson_loads": 2, "stokes_boxes": 3,
             "eigen_level": 5, "conv_levels": {2: 7, 3: 3}},
    "smoke": {"poisson_level": 3, "poisson_loads": 2, "stokes_boxes": 1,
              "eigen_level": 2, "conv_levels": {2: 3, 3: 1}},
}
EIGEN_K = 3
CORRUPTION = 1.0 + 1e-3


class Pass:
    """Times and checks the operations of one pass."""

    def __init__(self, references, corrupt, solver_error):
        self.references = references
        self.scale = CORRUPTION if corrupt else 1.0
        self.solver_error = solver_error
        self.ops = []
        self.setup_end = None
        self.expected = {e["op"] for e in references["expected_failures"]}

    def reference(self, key):
        return self.scale * self.references["values"][key]

    def check_close(self, problems, what, value, key, rtol):
        ref = self.reference(key)
        if not abs(value - ref) <= rtol * abs(ref):
            problems.append(f"{what} = {value!r} misses reference {ref!r} (rtol {rtol:g})")

    def run(self, name, compute, verify):
        """Run one operation; ``verify(result)`` returns a list of problems."""
        t0 = time.perf_counter()
        try:
            problems = verify(compute())
        except self.solver_error as exc:
            problems = [f"SolverError: {exc}"]
        t1 = time.perf_counter()
        self.ops.append({"op": name, "ok": not problems,
                         "expected_failure": name in self.expected,
                         "start_s": t0 - self.setup_end, "end_s": t1 - self.setup_end,
                         "problems": problems})


def certificate_problems(report, extras=()):
    """Problems of an equivalence certificate: ``passed`` and the named
    boolean diagnostics in ``report.extra``."""
    problems = [] if report.passed else [f"{report.name}: passed is False "
                                         f"(relative {report.relative})"]
    problems += [f"{report.name}: {key} is False" for key in extras
                 if not report.extra.get(key, False)]
    return problems


def certify_poisson_2d(sf, seed, size, p):
    """check_poisson_identity on 2D level L, several seeded random
    piecewise-constant loads sharing one mesh."""
    import numpy as np

    level = size["poisson_level"]
    mesh = sf.mesh.mesh_hierarchy(sf.mesh.build_box_mesh(2, 1), level)[-1]
    rng = np.random.default_rng(seed)
    loads = [rng.uniform(-1.0, 1.0, mesh.n_cells) for _ in range(size["poisson_loads"])]
    yield {"dim": 2, "level": level, "cells": mesh.n_cells, "loads": len(loads)}
    for i, f in enumerate(loads):
        p.run(f"poisson-load{i}",
              lambda: sf.equivalence.check_poisson_identity(mesh, f, level=level),
              lambda r: certificate_problems(r, ("jump_pass", "div_pass")))


def certify_stokes_3d(sf, seed, size, p):
    """check_stokes_identity with one seeded random piecewise-constant
    vector load on the 3D box mesh refined once."""
    import numpy as np

    mesh = sf.mesh.refine_uniform(sf.mesh.build_box_mesh(3, size["stokes_boxes"]))
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, (mesh.n_cells, 3))
    yield {"dim": 3, "level": 1, "boxes": size["stokes_boxes"], "cells": mesh.n_cells}
    p.run("stokes-load0",
          lambda: sf.equivalence.check_stokes_identity(mesh, f, level=1),
          lambda r: certificate_problems(r, ("jump_pass",)))


def eigen_2d(sf, seed, size, p):
    """check_eigen_equivalence and the CR and ECR eigensolves on 2D level
    L; the seed sets the solver's start vector."""
    level = size["eigen_level"]
    mesh = sf.mesh.mesh_hierarchy(sf.mesh.build_box_mesh(2, 1), level)[-1]
    config = sf.linsolve.SolverConfig(seed=seed)
    yield {"dim": 2, "level": level, "cells": mesh.n_cells, "k": EIGEN_K}

    def verify_check(r):
        problems = certificate_problems(r)
        lam_m, lam_e = r.extra["lambda_mixed"], r.extra["lambda_equiv"]
        gap = max(abs(a - b) for a, b in zip(lam_m, lam_e))
        if not gap <= r.extra["lambda_tolerance"] * max(abs(lam_m)):
            problems.append(f"RT-mixed and RT-equiv eigenvalues differ by {gap!r}")
        p.check_close(problems, "lambda_1(RT)", float(lam_m[0]), f"eigen/L{level}/RT", 1e-9)
        return problems

    p.run("eigen-equivalence",
          lambda: sf.equivalence.check_eigen_equivalence(mesh, k=EIGEN_K, level=level,
                                                         config=config),
          verify_check)
    for family in ("CR", "ECR"):
        def verify_family(pairs, family=family):
            problems = []
            p.check_close(problems, f"lambda_1({family})", pairs[0].lam,
                          f"eigen/L{level}/{family}", 1e-9)
            return problems

        p.run(f"eigen-{family}",
              lambda family=family: sf.problems.solve_eigen(mesh, family, EIGEN_K, config),
              verify_family)


def convergence_sine(sf, seed, size, p):
    """Sine-load ECR and CR Poisson on the 2D and 3D hierarchies, each
    solve followed by its L2 and broken-H1 errors.  Finest level first, so
    that the first result is a full-size solve and not a 10 ms one.

    The seed picks the load amplitude 2**(seed % 5 - 2).  A power of two
    scales every solve and error exactly, so the errors are checked
    against the reference values times the amplitude, and the residual
    gates see the same numbers on every seed.
    """
    amplitude = 2.0 ** (seed % 5 - 2)
    levels = size["conv_levels"]
    hierarchies = {dim: sf.mesh.mesh_hierarchy(sf.mesh.build_box_mesh(dim, 1), top)
                   for dim, top in levels.items()}
    yield {"amplitude": amplitude,
           "levels": {f"{dim}d": [1, top] for dim, top in levels.items()},
           "cells": {f"{dim}d": h[-1].n_cells for dim, h in hierarchies.items()}}
    for dim in sorted(levels, reverse=True):
        exact = sf.problems.sine_solution(dim)

        def f(x, exact=exact):
            return amplitude * exact.f(x)

        def u(x, exact=exact):
            return amplitude * exact.u(x)

        def grad(x, exact=exact):
            return amplitude * exact.grad(x)

        for level in range(levels[dim], 0, -1):
            mesh = hierarchies[dim][level]
            for family in ("ECR", "CR"):
                key = f"sine/{dim}d/L{level}/{family}"

                def compute(mesh=mesh, family=family):
                    uh = sf.problems.solve_poisson(mesh, f, family)
                    return (sf.analysis.l2_error(uh, u), sf.analysis.broken_h1_error(uh, grad))

                def verify(errors, key=key):
                    problems = []
                    for name, value in zip(("l2", "h1"), errors):
                        p.check_close(problems, f"{key} {name}", value / amplitude,
                                      f"{key}/{name}", 1e-8)
                    return problems

                p.run(key, compute, verify)


WORKLOADS = {
    "certify-poisson-2d": certify_poisson_2d,
    "certify-stokes-3d": certify_stokes_3d,
    "eigen-2d": eigen_2d,
    "convergence-sine": convergence_sine,
}


def environment(np, scipy, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import simplexfem
    import simplexfem.analysis
    import simplexfem.equivalence
    import simplexfem.linsolve
    import simplexfem.mesh
    import simplexfem.problems

    if Path(simplexfem.__file__).resolve().parent != ROOT / "src" / "simplexfem":
        sys.exit(f"simplexfem imported from {simplexfem.__file__}, not from this checkout")
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, layer_metrics

    references = json.loads((HERE / "references.json").read_text())
    tracer = Tracer(spans_on=bool(args.spans))
    tracer.install("simplexfem")
    traced_from = tracer.now()
    p = Pass(references, args.corrupt_reference, simplexfem.SolverError)
    steps = WORKLOADS[args.workload](simplexfem, args.seed, SIZES[args.size], p)
    described = next(steps)
    p.setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": p.setup_end - T_START}))
        return
    for _ in steps:
        pass
    t_end = time.perf_counter()
    traced_s = tracer.now() - traced_from
    tracer.uninstall()

    ok_ends = [op["end_s"] for op in p.ops if op["ok"]]
    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "spans_on": bool(args.spans),
        "setup_s": p.setup_end - T_START,
        "wall_s": t_end - p.setup_end,
        "first_result_s": min(ok_ends) if ok_ends else t_end - p.setup_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workload_shape": described,
        "ops": p.ops,
        "factors": tracer.factors,
        "env": environment(np, scipy, int(os.environ.get("FEM_THREADS", 0))),
    }
    if args.spans:
        result["spans"] = tracer.spans
        result["traced_s"] = traced_s
        result["layers"] = layer_metrics(tracer.spans, traced_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
