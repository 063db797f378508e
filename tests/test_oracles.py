"""The oracle code lives in ``tests/oracles.py`` alone: no package module
defines or names it, the package exports none of its assemblers, and the
package's only factorisation order is the SPD one."""

import ast
from pathlib import Path

import simplexfem

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
