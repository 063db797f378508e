"""Span recording for the benchmark, installed from outside the package.

The package's modules call each other through module attributes
(``linsolve.solve_spd``, ``elements.ecr_eval_mesh``) and through their own
module globals, so replacing those attributes with recording wrappers sees
every internal call without editing the package.  Names a module imports
with ``from .x import f`` are bound at import time and are not seen; in
particular ``quadrature`` is never wrapped and its time lands in the self
time of its callers.

A span records its name, layer, start, end (seconds since the tracer was
created), its parent span and a few counts taken from the returned value.
Spans stay in memory; the caller writes them out at the end of the pass.

Three scipy entry points are wrapped as well: ``scipy.sparse.linalg.splu``
(the factorisations, and through a proxy the triangular solves of each
factor) and ``scipy.linalg.eigh``.  Their spans belong to the layer of the
calling span.  ``splu`` is always wrapped, also with spans off, to record
the size and fill of each factorisation; that costs a few attribute reads
per factorisation.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("mesh", "elements", "assembly", "linsolve", "problems",
          "equivalence", "analysis")

SPLU = "scipy.sparse.linalg.splu"
LU_SOLVE = "SuperLU.solve"
EIGH = "scipy.linalg.eigh"


class _TracedLU:
    """SuperLU factor whose ``solve`` records a span; everything else is
    passed through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _walk(value, depth=2):
    """The value and, down to ``depth`` levels, the items of tuples and
    lists and the fields of dataclass instances."""
    yield value
    if depth == 0:
        return
    if isinstance(value, (tuple, list)):
        items = value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        return
    for item in items:
        yield from _walk(item, depth - 1)


def _counts(result, np, sp):
    """Counts taken from a returned value: cells of a mesh, computed bytes
    of arrays, nonzeros of sparse matrices, and the outcome of a report."""
    out = {}
    if hasattr(result, "n_cells") and hasattr(result, "cells"):
        out["cells"] = int(result.n_cells)
    if hasattr(result, "relative") and hasattr(result, "passed"):
        out["passed"] = bool(result.passed)
        out["worst_rel"] = max((float(v) for v in result.relative.values()),
                               default=0.0)
        return out
    nbytes = nnz = 0
    for item in _walk(result):
        if isinstance(item, np.ndarray):
            nbytes += item.nbytes
        elif sp.issparse(item):
            nnz += int(item.nnz)
    if nbytes:
        out["bytes"] = nbytes
    if nnz:
        out["nnz"] = nnz
    return out


class Tracer:
    """Wraps the package's layer functions and records spans and
    factorisations for one pass.  ``install`` patches, ``uninstall``
    restores."""

    def __init__(self, spans_on):
        import numpy as np
        import scipy.sparse as sp

        self.spans_on = spans_on
        self.spans = []
        self.factors = []
        self._stack = []
        self._patches = []
        self._np, self._sp = np, sp
        self._t0 = time.perf_counter()

    def now(self):
        return time.perf_counter() - self._t0

    def install(self, package):
        import scipy.linalg
        import scipy.sparse.linalg

        self._patch(scipy.sparse.linalg, "splu",
                    self._wrap_splu(scipy.sparse.linalg.splu))
        if not self.spans_on:
            return
        self._patch(scipy.linalg, "eigh", self._wrap(None, EIGH, scipy.linalg.eigh))
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self._patch(module, name, self._wrap(layer, f"{layer}.{name}", obj))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "name": name,
                    "layer": layer or (parent["layer"] if parent else "scipy"),
                    "parent": parent["id"] if parent else None,
                    "start": self.now(), "end": None}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.now()
                self._stack.pop()
            span.update(_counts(result, self._np, self._sp))
            return result
        return traced

    def _wrap_splu(self, splu):
        factor = self._wrap(None, SPLU, splu) if self.spans_on else splu

        @functools.wraps(splu)
        def counted(A, *args, **kwargs):
            lu = factor(A, *args, **kwargs)
            record = {"n": int(A.shape[0]), "nnz": int(A.nnz),
                      "lu_nnz": int(lu.nnz)}
            record["fill"] = record["lu_nnz"] / max(record["nnz"], 1)
            self.factors.append(record)
            if self.spans_on:
                self.spans[-1].update(record)      # the span ``factor`` just closed
                return _TracedLU(lu, self._wrap(None, LU_SOLVE, lu.solve))
            return lu
        return counted


def layer_unit(name):
    """Unit of a per-layer metric."""
    if name.endswith("_s"):
        return "s"
    return {"elements.bytes": "bytes", "linsolve.fill": "ratio",
            "equivalence.worst_rel_residual": "ratio"}.get(name, "count")


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans, traced_s):
    """Per-layer self times and counts of one traced pass.

    A span's self time is its duration minus that of its direct children;
    ``traced_s`` is the whole traced interval, and the part of it that no
    top-level span covers is reported as ``unspanned.busy_s``.  Counts are
    taken at the entries into a layer (spans whose parent is in another
    layer), so nested calls inside one layer are not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += _duration(s)
    busy = defaultdict(float)
    for s in spans:
        busy[s["layer"]] += _duration(s) - child_s[s["id"]]

    def entries(layer):
        for s in spans:
            parent = by_id.get(s["parent"])
            if s["layer"] == layer and (parent is None or parent["layer"] != layer):
                yield s

    factors = [s for s in spans if s["name"] == SPLU]
    checks = [s for s in entries("equivalence")
              if s["name"].startswith("equivalence.check_")]
    metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    a_nnz = sum(s.get("nnz", 0) for s in factors)
    metrics.update({
        "mesh.cells": sum(s.get("cells", 0) for s in spans if s["layer"] == "mesh"),
        "elements.calls": sum(1 for _ in entries("elements")),
        "elements.bytes": sum(s.get("bytes", 0) for s in entries("elements")),
        "assembly.calls": sum(1 for _ in entries("assembly")),
        "assembly.nnz": sum(s.get("nnz", 0) for s in entries("assembly")),
        "linsolve.factor_s": sum(_duration(s) for s in factors),
        "linsolve.factors": len(factors),
        "linsolve.n": sum(s.get("n", 0) for s in factors),
        "linsolve.fill": sum(s.get("lu_nnz", 0) for s in factors) / a_nnz if a_nnz else 0.0,
        "linsolve.failed": sum(1 for s in entries("linsolve")
                               if s.get("error") == "SolverError"),
        "problems.dense_eigh_s": sum(_duration(s) for s in spans
                                     if s["layer"] == "problems"
                                     and s["name"] in (LU_SOLVE, EIGH)),
        "equivalence.checks": len(checks),
        "equivalence.failed": sum(1 for s in checks
                                  if "error" in s or not s.get("passed", False)),
        "equivalence.worst_rel_residual": max((s.get("worst_rel", 0.0) for s in checks),
                                              default=0.0),
        "analysis.calls": sum(1 for _ in entries("analysis")),
        "unspanned.busy_s": traced_s - sum(_duration(s) for s in spans
                                           if s["parent"] is None),
    })
    return metrics
