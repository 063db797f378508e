import numpy as np
import pytest
import scipy.sparse.linalg as sla
from scipy.sparse.linalg._eigen.arpack import arpack

from simplexfem import linsolve


class Factorisation(tuple):
    """(size, SuperLU column order) of one factorisation, and equal to that
    pair; ``lu_nnz`` is the number of nonzeros of its L + U
    (``lu.L.nnz + lu.U.nnz``), ``stored`` the number of entries the SuperLU
    factor stores (``lu.nnz``, padding of merged supernodes included) and
    ``zeros`` the number of exact zeros its matrix stores."""

    lu_nnz = None
    stored = None
    zeros = None


@pytest.fixture
def factorised(monkeypatch):
    """A ``Factorisation`` of every factorisation, in order.  A SuperLU
    factorisation that does not come through ``linsolve._splu``, ARPACK's
    shift-invert included, fails the test."""
    record = []
    depth = []
    original = linsolve._splu

    def recording(K, **order):
        entry = Factorisation((K.shape[0], order["permc_spec"]))
        entry.zeros = int(np.count_nonzero(K.data == 0))
        record.append(entry)
        depth.append(K.shape[0])
        try:
            lu = original(K, **order)
        finally:
            depth.pop()
        entry.lu_nnz, entry.stored = lu.L.nnz + lu.U.nnz, lu.nnz
        return lu

    def guarded(splu):
        def factorise(A, *args, **kwargs):
            assert depth, f"SuperLU factorisation of size {A.shape[0]} outside linsolve._splu"
            return splu(A, *args, **kwargs)
        return factorise

    monkeypatch.setattr(linsolve, "_splu", recording)
    monkeypatch.setattr(sla, "splu", guarded(sla.splu))
    monkeypatch.setattr(arpack, "splu", guarded(arpack.splu))
    return record
