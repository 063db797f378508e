"""Direct sparse solvers and generalized symmetric eigensolvers at desk scale.

Linear systems go through a sparse LU factorization with one step of
iterative refinement and a verified residual.

Saddle systems carry constraints that each fix a gauge, a null vector k of
the block matrix.  They are solved by pinning, never by factorising the
bordered matrix: the multiplier follows in closed form from k, the DOF where
|k| is largest is removed before factorising, and the solution is re-gauged
along k afterwards.  No dense constraint row reaches SuperLU, whose fill it
would multiply.  The residual of the full bordered system is the gate.

Eigenproblems A x = lam M x (A symmetric nonsingular, SPD or a negated
saddle matrix; M symmetric PSD with an SPD block on its nonzero rows J) work
on A^-1 M, whose nonzero eigenvalues are the reciprocals of the |J| finite
pencil eigenvalues: ARPACK shift-invert above ``dense_cutoff`` rows, and a
dense congruence on J below it or when ARPACK cannot deliver the pairs.
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
    dense_cutoff: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT = SolverConfig()


def _splu(K):
    try:
        return sla.splu(K.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"factorization breakdown: {exc}") from exc


def _lu_solve_refined(K, rhs):
    lu = _splu(K)
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


_EXTRA_PAIRS = 3                # pairs ARPACK computes beyond the k returned
_EIG_SHIFT = 0.0                # shift-invert target: the smallest eigenvalues
_EIG_MAXITER = 2000             # ARPACK restart limit


def _eig_dense(A, M, J, k):
    """Congruence on the nonzero rows J of M: with M_JJ = L L^T and
    T = L^T (A^-1)_JJ L, the finite eigenvalues are 1/mu for the eigenvalues
    mu of T, with x = A^-1[:, J] L y / mu.

    M_JJ is factorised in a bandwidth-reducing order, so that L is banded,
    kept sparse, and free of the subnormal tail a mass matrix's factor has
    in its natural order."""
    # imported here: csgraph stays out of processes that never come here
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    M_JJ = M[J][:, J]
    order = reverse_cuthill_mckee(M_JJ, symmetric_mode=True)
    try:
        L = dla.cholesky(M_JJ[order][:, order].toarray(), lower=True)
    except dla.LinAlgError as exc:
        raise SolverError(f"mass matrix block on its nonzero rows not SPD: {exc}") from exc
    L = sp.csr_matrix(L)[np.argsort(order)]
    R = np.zeros((A.shape[0], len(J)), order="F")
    R[J] = L.toarray()
    W = _splu(A).solve(R)
    T = L.T @ W[J]
    mu, Y = dla.eigh(0.5 * (T + T.T), subset_by_index=[len(J) - k, len(J) - 1])
    mu, Y = mu[::-1], Y[:, ::-1]               # largest mu = smallest lambda
    if mu[-1] <= 0.0:
        raise SolverError("pencil has a non-positive eigenvalue")
    return 1.0 / mu, (W @ Y) / mu


def _eig_sparse(A, M, k, n_pairs, ncv, config):
    """ARPACK shift-invert for n_pairs pairs, of which the k smallest are
    kept: asking for more than k keeps a degenerate cluster cut at k from
    stalling the convergence of its wanted half."""
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(A.shape[0])
    try:
        lams, X = sla.eigsh(A, k=n_pairs, M=M, sigma=_EIG_SHIFT, which="LM",
                            v0=v0, ncv=ncv, maxiter=_EIG_MAXITER)
    except RuntimeError as exc:        # ARPACK failure or a singular factor
        raise SolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(lams)[:k]
    return lams[order], X[:, order]


def eig_smallest(A, M, k, config=None):
    """k smallest finite eigenvalues of A x = lam M x, ascending, with
    M-orthonormal eigenvectors.

    A must be symmetric and nonsingular, M symmetric positive semi-definite
    with an SPD block on its nonzero rows J, and the finite eigenvalues
    positive: an SPD A, or a negated saddle matrix -[[A, B^T], [B, 0]]
    against a mass on the dual block.  There are |J| finite eigenvalues.
    Above ``dense_cutoff`` rows ARPACK shift-invert is used whenever it can
    deliver the pairs; otherwise a dense congruence on J.
    """
    config = config or DEFAULT
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    A = sp.csr_matrix(A)
    M = sp.csr_matrix(M)
    J = np.flatnonzero(abs(M) @ np.ones(M.shape[1]))
    if k > len(J):
        raise SolverError(f"requested {k} eigenpairs but only {len(J)} "
                          "finite eigenvalues exist")
    # Lanczos breaks down once its basis spans range(A^-1 M), of dimension
    # |J|, and converges poorly with fewer than 2 n_pairs + 1 vectors
    n_pairs = k + _EXTRA_PAIRS
    ncv = min(max(2 * n_pairs + 1, 20), len(J) - 1)
    if A.shape[0] > config.dense_cutoff and ncv > 2 * n_pairs:
        lams, X = _eig_sparse(A, M, k, n_pairs, ncv, config)
    else:
        lams, X = _eig_dense(A, M, J, k)
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
