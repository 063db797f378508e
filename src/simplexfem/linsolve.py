"""Direct sparse solvers and generalized symmetric eigensolvers at desk scale.

Linear systems go through a sparse LU factorization with one step of
iterative refinement and a verified relative residual: every solve, and
every eigenpair, is gated at ``RESIDUAL_TOL``.  ``SolverConfig`` carries
only what the eigensolver needs: the dense/ARPACK switch and the start
vector's seed.

SPD solves: symmetric minimum-degree order, no pivoting.  ``solve_spd``
factorises in the minimum-degree order of A^T + A with the diagonal as
pivots, which keeps the factor of a 3D CR stiffness at a third of the fill
COLAMD gives (3D L4, 47,616 unknowns: fill 34 against 105).  Saddle
systems and the eigensolver keep SuperLU's default, COLAMD with partial
pivoting: an indefinite matrix has zero diagonal blocks, and on the pinned
pseudostress matrix of 12,311 unknowns the symmetric order took 80 s on
2 vCPUs, at fill 227, and reached a relative residual of 82.

Saddle systems carry constraints that each fix a gauge, a null vector k of
the block matrix.  They are solved by pinning, never by factorising the
bordered matrix: the multiplier follows in closed form from k, the DOF where
|k| is largest is removed before factorising, and the solution is re-gauged
along k afterwards.  No dense constraint row reaches SuperLU, whose fill it
would multiply.  The residual of the full bordered system is the gate;
``gate_saddle`` applies it to a solution found by any other route.

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


RESIDUAL_TOL = 1e-12            # relative residual gate of every solve


@dataclass(frozen=True)
class SolverConfig:
    dense_cutoff: int = 2000
    seed: int = 0


DEFAULT = SolverConfig()


def _gate(residual, what):
    """Raise SolverError unless the relative residual is finite and at most
    RESIDUAL_TOL."""
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise SolverError(f"{what} residual {residual:.3e} exceeds "
                          f"tolerance {RESIDUAL_TOL:.1e}", residual)


# SuperLU options of the SPD factorisation: symmetric order, diagonal pivots
_SPD_ORDER = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}


def _splu(K, **order):
    """The one factorisation entry: SuperLU of K with the ``order`` options
    (SuperLU's COLAMD default when none are given)."""
    try:
        return sla.splu(K.tocsc(), **order)
    except RuntimeError as exc:
        raise SolverError(f"factorization breakdown: {exc}") from exc


def solve_spd(A, b):
    """Solve SPD A x = b to a verified relative residual."""
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    A = sp.csc_matrix(A)
    lu = _splu(A, **_SPD_ORDER)
    x = lu.solve(b)
    x = x + lu.solve(b - A @ x)                # one step of refinement
    _gate(np.linalg.norm(A @ x - b) / norm_b, "linear solve")
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


def _block_apply(system, z):
    """[[A, B^T], [B, 0]] z by matvecs with A and B."""
    x, y = z[:system.n_primal], z[system.n_primal:]
    if system.B is None:
        return system.A @ x
    return np.concatenate([system.A @ x + system.B.T @ y, system.B @ x])


def _multipliers(N, C, F):
    """Closed-form multipliers (k^T c) mult = k^T F, exact because
    k^T K = 0."""
    try:
        return np.linalg.solve(N.T @ C, N.T @ F)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"constraint row orthogonal to its null vector: {exc}") from exc


def _saddle_rhs(system):
    F = system.f if system.g is None else np.concatenate([system.f, system.g])
    return F, np.array([c.rhs for c in system.constraints], dtype=float)


def gate_saddle(system, primal, dual):
    """Gate a solution (primal, dual) of a SaddleSystem at ``RESIDUAL_TOL``
    on the relative residual of the full bordered system, with A and B
    applied by matvec only and the multipliers in closed form from the null
    vectors k.  A zero right-hand side admits only the zero solution.
    Returns the multipliers."""
    F, rhs_c = _saddle_rhs(system)
    C, N = _constraint_columns(system)
    mult = _multipliers(N, C, F)
    z = np.concatenate([primal, dual])
    bordered = np.concatenate([_block_apply(system, z) + C @ mult - F, C.T @ z - rhs_c])
    norm_r = np.linalg.norm(bordered)
    norm_rhs = np.linalg.norm(np.concatenate([F, rhs_c]))
    _gate(norm_r / norm_rhs if norm_rhs > 0.0 else (0.0 if norm_r == 0.0 else np.inf),
          "saddle solve")
    return mult


def solve_saddle(system):
    """Solve a SaddleSystem; returns (primal, dual, multipliers).

    The bordered matrix is never factorised.  With K the block matrix, F its
    right-hand side and (c_i, k_i) the constraints:

    1. the multipliers follow from k_i^T K = 0: (k^T c) mult = k^T F;
    2. K z = F - c mult is solved with the DOF at argmax |k_i| removed, so
       the factorised matrix is K less one row and column per constraint;
    3. the removed DOFs are set to 0 and z is re-gauged along k so that
       c^T z = rhs;
    4. z is refined once by the residual of all rows less its components
       along the k_i, and re-gauged again.  The removed rows then share
       the rounding of the others instead of collecting its sum, and the
       rounding that step 3 adds (K k vanishes only to rounding) is
       corrected.  On the pure-Neumann RT0 multiplier systems the first
       exceeded the gate from 2D L6 (12k unknowns) and the second at L8
       (196k);
    5. ``gate_saddle`` gates the residual of the full bordered system at
       ``RESIDUAL_TOL``.

    A declared k that is not a null vector of K breaks the dropped row or
    the re-gauge, and the gate raises SolverError.  K must have no null
    vector besides the declared ones: the pinned matrix is then singular,
    which SuperLU reports only when the breakdown is exact.
    """
    np_, nd = system.n_primal, system.n_dual
    F, rhs_c = _saddle_rhs(system)
    C, N = _constraint_columns(system)
    z = np.zeros(np_ + nd)
    if F.any() or rhs_c.any():
        K = _block_matrix(system)
        rhs = F - C @ _multipliers(N, C, F)
        pinned = np.ones(np_ + nd, dtype=bool)
        pinned[np.argmax(np.abs(N), axis=0)] = False
        lu = _splu(K[pinned][:, pinned])
        z[pinned] = lu.solve(rhs[pinned])
        try:
            gauge = np.linalg.inv(C.T @ N)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"constraint row orthogonal to its null vector: {exc}") from exc
        z -= N @ (gauge @ (C.T @ z - rhs_c))
        r = K @ z - rhs
        r -= N @ np.linalg.solve(N.T @ N, N.T @ r)
        z[pinned] -= lu.solve(r[pinned])
        z -= N @ (gauge @ (C.T @ z - rhs_c))
    return z[:np_], z[np_:], gate_saddle(system, z[:np_], z[np_:])


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
        if denom > 0:
            _gate(r / denom, "eigen")
    return lams, X
