"""The oracle code lives in ``tests/oracles.py`` alone: no package module
defines or names it, the package exports none of its assemblers, and the
package's only factorisation order is the SPD one.  The RT side lives in
``simplexfem.hybrid`` alone, which imports and names no CR, ECR or bubble
code."""

import ast
from pathlib import Path

import simplexfem
from simplexfem import hybrid, linsolve, problems

import oracles

MOVED = ("_saddle_order", "_SADDLE_ORDER", "_rt0_divergence", "assemble_mixed_poisson",
         "assemble_stokes", "assemble_pseudostress", "assemble_neumann_mixed")
SOURCES = sorted(Path(simplexfem.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _identifiers(tree):
    """Every name a module binds or reads: names, attributes, definitions,
    imports, arguments and keywords."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from (node.name, node.asname)
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg


def test_no_package_module_defines_or_names_the_oracle_code():
    assert len(SOURCES) >= 10
    named = {path.name: sorted(set(_identifiers(_tree(path))) & set(MOVED))
             for path in SOURCES}
    assert {name: found for name, found in named.items() if found} == {}
    assert all(hasattr(oracles, name) for name in MOVED)


def test_the_package_exports_none_of_the_oracle_assemblers():
    assert [name for name in MOVED if name in vars(simplexfem)] == []


def test_the_spd_order_is_the_only_factorisation_order_in_linsolve():
    # an order is a dict of SuperLU options with a column order; every call
    # passes its caller's order on, none names one of its own
    tree = _tree(Path(simplexfem.linsolve.__file__))
    orders = [target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Dict)
              and any(isinstance(k, ast.Constant) and k.value == "permc_spec"
                      for k in node.value.keys)
              for target in node.targets]
    assert orders == ["_SPD_ORDER"]
    literal = [node.value.value for node in ast.walk(tree)
               if isinstance(node, ast.keyword) and node.arg == "permc_spec"
               and isinstance(node.value, ast.Constant)]
    assert literal == []


# -- the RT side lives in ``hybrid`` and reads RT0 code alone ------------------

HYBRID = Path(hybrid.__file__)
PROBLEMS = Path(problems.__file__)
HYBRID_IMPORTS = {"assembly", "elements", "linsolve", "mesh", "quadrature"}
RT0_FUNCTIONS = {"rt0_mass", "rt0_moment", "rt0_outer", "rt0_deviatoric_mass", "_rt0_parts"}
# the elements functions that ``test_rt_side_never_touches_cr_or_ecr`` forbids
CR_ECR = ("cr_eval_mesh", "ecr_eval_mesh", "bubble_eval_mesh", "bubble_values", "bubble_energy",
          "bubble_strength", "cr_stiffness", "ecr_stiffness", "cr_mass", "ecr_mass",
          "gradient_integrals", "_cr", "_bubble_value", "_bubble_gradient", "_ecr_values",
          "_ecr_gradients")
MOVED_TO_HYBRID = ("HybridOperator", "_S_ROUNDING", "_multiplier_blocks", "_multiplier_matrix",
                   "_multiplier_solve", "_mean_fluxes", "_interior_numbers", "_mixed_product",
                   "hybrid_operator", "_solve_rt0_hybrid", "pseudostress_operator",
                   "_identity_fluxes", "_check_identity_kernel", "_mixed_residual",
                   "_gate_pseudostress", "_hybrid_inverse", "_componentwise")


def _bound(tree):
    """The names a module binds at its top level: definitions, assignment
    targets and imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name for alias in node.names)


def test_the_hybrid_module_imports_only_rt0_code():
    tree = _tree(HYBRID)
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # package modules come in whole, as ``from . import module``
            package += [(node.module, alias.name, alias.asname) for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert not any(name.split(".")[0] == "simplexfem" for name in names)
    assert package and all(module is None and asname is None and name in HYBRID_IMPORTS
                           for module, name, asname in package), package
    taken = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "elements"}
    assert taken and taken <= RT0_FUNCTIONS, taken - RT0_FUNCTIONS


def test_the_hybrid_module_names_no_cr_ecr_or_bubble_function():
    assert sorted(set(_identifiers(_tree(HYBRID))) & set(CR_ECR)) == []


def test_problems_defines_none_of_the_hybrid_code():
    assert sorted(set(_bound(_tree(PROBLEMS))) & set(MOVED_TO_HYBRID)) == []
    # two were folded into ``_eliminate`` and ``_mixed_residual``, one moved to linsolve
    assert [name for name in MOVED_TO_HYBRID if not hasattr(hybrid, name)] == [
        "_interior_numbers", "_gate_pseudostress", "_componentwise"]
    assert callable(linsolve.componentwise)
