"""Simplicial CR / enriched-CR / RT0 / P0 finite elements with certified
equivalence between the enriched nonconforming and mixed methods."""

import os as _os

# FEM_THREADS caps BLAS/OpenMP parallelism; must be set before numpy loads.
if "FEM_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["FEM_THREADS"])

from .analysis import ConvergenceTable, broken_h1_error, fit_rate, l2_error, osc
from .assembly import (Constraint, DataError, DofMap, SaddleSystem, assemble_eigen,
                       assemble_neumann_primal, assemble_poisson)
from .equivalence import (IdentityReport, check_cgs_identity,
                          check_eigen_equivalence, check_marini_identity,
                          check_poisson_identity, check_stokes_identity,
                          ecr_gradient_as_rt, eigen_error_comparison,
                          neumann_counterexample_report, project_p0)
from .linsolve import SolverConfig, SolverError, eig_smallest, solve
from .mesh import (MeshError, SimplexMesh, build_box_mesh, mesh_hierarchy,
                   read_mesh, refine_uniform, write_mesh)
from .problems import (BrokenField, EigenPair, ExactSolution, RTField,
                       bubble_coefficients, quadratic_neumann_solution,
                       sine_solution, solve_eigen, solve_neumann, solve_poisson,
                       solve_poisson_mixed, solve_stokes, solve_stokes_mixed)
from .quadrature import QuadratureRule, rule_for_degree

__version__ = "0.1.0"
