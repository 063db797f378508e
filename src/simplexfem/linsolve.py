"""Direct sparse solvers and generalized symmetric eigensolvers at desk scale.

Linear systems go through a sparse LU factorization with one step of
iterative refinement and a verified residual.

Saddle systems carry constraints that each fix a gauge, a null vector k of
the block matrix.  They are solved by pinning, never by factorising the
bordered matrix: the multiplier follows in closed form from k, the DOF where
|k| is largest is removed before factorising, and the solution is re-gauged
along k afterwards.  No dense constraint row reaches SuperLU, whose fill it
would multiply.  The residual of the full bordered system is the gate.

Eigenproblems A x = lam M x (A SPD, M symmetric PSD) use a dense
Cholesky-congruence solve below ``dense_cutoff`` rows and ARPACK
shift-invert above it; PSD mass matrices are handled by working on A^-1 M,
whose nonzero eigenvalues are the reciprocals of the finite pencil
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla


class SolverError(RuntimeError):
    """Factorization breakdown or residual above tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-12
    max_iterations: int = 2000
    shift: float = 0.0
    dense_cutoff: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT = SolverConfig()


def _lu_solve_refined(K, rhs):
    try:
        lu = sla.splu(K.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"factorization breakdown: {exc}") from exc
    x = lu.solve(rhs)
    x = x + lu.solve(rhs - K @ x)
    return x


def solve_spd(A, b, config=None):
    """Solve SPD A x = b to a verified relative residual."""
    config = config or DEFAULT
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    x = _lu_solve_refined(sp.csc_matrix(A), b)
    residual = np.linalg.norm(A @ x - b) / norm_b
    if not np.isfinite(residual) or residual > config.tolerance:
        raise SolverError(f"linear solve residual {residual:.3e} exceeds "
                          f"tolerance {config.tolerance:.1e}", residual)
    return x


def _block_matrix(system):
    """[[A, B^T], [B, 0]], or A alone when there is no dual block."""
    if system.B is None:
        return sp.csc_matrix(system.A)
    return sp.bmat([[system.A, system.B.T], [system.B, None]], format="csc")


def _constraint_columns(system):
    """Constraint rows c_i and their null vectors k_i as the columns of two
    (n_primal + n_dual, n_constraints) arrays."""
    np_ = system.n_primal
    C = np.zeros((np_ + system.n_dual, len(system.constraints)))
    N = np.zeros_like(C)
    for i, con in enumerate(system.constraints):
        if con.primal is not None:
            C[:np_, i] = con.primal
        if con.dual is not None:
            C[np_:, i] = con.dual
        N[:, i] = con.k
    return C, N


def saddle_matrix(system):
    """The full bordered symmetric indefinite matrix of a SaddleSystem: the
    block matrix with one multiplier row and column per constraint."""
    K = _block_matrix(system)
    if not system.constraints:
        return K
    C = sp.csc_matrix(_constraint_columns(system)[0])
    return sp.bmat([[K, C], [C.T, None]], format="csc")


def solve_saddle(system, config=None):
    """Solve a SaddleSystem; returns (primal, dual, multipliers).

    The bordered matrix is never factorised.  With K the block matrix, F its
    right-hand side and (c_i, k_i) the constraints:

    1. the multipliers follow from k_i^T K = 0: (k^T c) mult = k^T F;
    2. K z = F - c mult is solved with the DOF at argmax |k_i| removed, so
       the factorised matrix is K less one row and column per constraint;
    3. the removed DOFs are set to 0 and z is re-gauged along k so that
       c^T z = rhs;
    4. the residual of the full bordered system is gated at
       ``config.tolerance``.

    A declared k that is not a null vector of K breaks the dropped row or
    the re-gauge, and the gate raises SolverError.  K must have no null
    vector besides the declared ones: the pinned matrix is then singular,
    which SuperLU reports only when the breakdown is exact.
    """
    config = config or DEFAULT
    np_, nd = system.n_primal, system.n_dual
    F = system.f if system.g is None else np.concatenate([system.f, system.g])
    rhs_c = np.array([c.rhs for c in system.constraints], dtype=float)
    norm_rhs = np.linalg.norm(np.concatenate([F, rhs_c]))
    C, N = _constraint_columns(system)
    if norm_rhs == 0.0:
        z, mult = np.zeros(np_ + nd), np.zeros(len(rhs_c))
    else:
        K = _block_matrix(system)
        try:
            mult = np.linalg.solve(N.T @ C, N.T @ F)
            pinned = np.ones(np_ + nd, dtype=bool)
            pinned[np.argmax(np.abs(N), axis=0)] = False
            z = np.zeros(np_ + nd)
            z[pinned] = _lu_solve_refined(K[pinned][:, pinned], (F - C @ mult)[pinned])
            z -= N @ np.linalg.solve(C.T @ N, C.T @ z - rhs_c)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"constraint row orthogonal to its null vector: {exc}") from exc
        bordered = np.concatenate([K @ z + C @ mult - F, C.T @ z - rhs_c])
        residual = np.linalg.norm(bordered) / norm_rhs
        if not np.isfinite(residual) or residual > config.tolerance:
            raise SolverError(f"saddle solve residual {residual:.3e} exceeds "
                              f"tolerance {config.tolerance:.1e}", residual)
    return z[:np_], z[np_:], mult


def _eig_dense(A, M, k, config):
    A_d = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    M_d = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    try:
        L = dla.cholesky(A_d, lower=True)
    except dla.LinAlgError as exc:
        raise SolverError(f"stiffness matrix not SPD: {exc}") from exc
    Y = dla.solve_triangular(L, M_d, lower=True)
    C = dla.solve_triangular(L, Y.T, lower=True).T
    C = 0.5 * (C + C.T)
    mu, vecs = dla.eigh(C)
    cut = max(mu.max(), 0.0) * 1e-8
    finite = np.flatnonzero(mu > cut)
    if k > len(finite):
        raise SolverError(f"requested {k} eigenpairs but only {len(finite)} "
                          "finite eigenvalues exist")
    sel = finite[::-1][:k]                     # largest mu = smallest lambda
    lams = 1.0 / mu[sel]
    X = np.empty((A_d.shape[0], k))
    for j, idx in enumerate(sel):
        x = dla.solve_triangular(L, vecs[:, idx], lower=True, trans="T")
        X[:, j] = x / np.sqrt(mu[idx])
    return lams, X


def _eig_sparse(A, M, k, config):
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(A.shape[0])
    try:
        lams, X = sla.eigsh(A, k=k, M=M, sigma=config.shift, which="LM",
                            v0=v0, maxiter=config.max_iterations)
    except sla.ArpackNoConvergence as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(lams)
    return lams[order], X[:, order]


def eig_smallest(A, M, k, config=None):
    """k smallest finite eigenvalues of A x = lam M x, ascending, with
    M-orthonormal eigenvectors.

    A must be SPD and M symmetric positive semi-definite.
    """
    config = config or DEFAULT
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    A = sp.csr_matrix(A)
    M = sp.csr_matrix(M)
    if A.shape[0] <= config.dense_cutoff:
        lams, X = _eig_dense(A, M, k, config)
    else:
        lams, X = _eig_sparse(A, M, k, config)
    # verify: M-orthonormality and eigen residuals
    G = X.T @ (M @ X)
    if np.abs(G - np.eye(k)).max() > 1e-10:
        raise SolverError("eigenvectors are not M-orthonormal")
    for lam, x in zip(lams, X.T):
        r = np.linalg.norm(A @ x - lam * (M @ x))
        denom = np.linalg.norm(A @ x)
        if denom > 0 and r / denom > config.tolerance:
            raise SolverError(f"eigen residual {r / denom:.3e} exceeds "
                              f"tolerance {config.tolerance:.1e}", r / denom)
    return lams, X
