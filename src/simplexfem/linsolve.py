"""Direct sparse solvers and generalized symmetric eigensolvers at desk scale.

Every linear system is an ``assembly.SaddleSystem``.  One without a dual
block goes through ``solve``: a sparse LU factorization with one step of
iterative refinement and a verified relative residual.  A saddle system,
whose primal block the caller can already invert, goes through
``solve_schur`` (below); none is factorised.  Every solve, and every
eigenpair, is gated at ``RESIDUAL_TOL``.  The factorization is a
``Factor``: the matrix, its kept DOFs and their SuperLU factor, which
depend on the matrix and the gauge's null vector only.  ``solve(system)``
builds one and uses it once; ``solve(system, factor)`` reuses one for
another right-hand side of the same matrix, with the same refinement,
re-gauge and gate on every solve.  A caller that solves many loads of one
matrix factorises it once.
A Factor may factorise a copy of A without its rounding-level entries
(``Factor(system, factorised=...)``); the refinement and the gate are
still taken against the system's own matrix.
``solve`` also takes a column block of right-hand sides (f of shape
(n, m)) for a system without dual block or gauge, and gates each column.
``SolverConfig`` carries only the seed of ARPACK's start vector; the
dense/ARPACK switch is the constant ``DENSE_CUTOFF``.
``_splu`` is the one factorisation entry (no relaxed supernodes, panels of
4 columns), reached through ``_factorise`` with its caller's order.

A factorised matrix is SPD, or SPD once its gauge DOF is pinned, and every
pivot is diagonal: ``_SPD_ORDER``, the minimum-degree order of A^T + A,
keeps the factor of a 3D CR stiffness at a third of the fill COLAMD gives
(3D L4, 47,616 unknowns: fill 30 against 91, fill being the entries of
L + U over those of the matrix).  The tests' saddle oracle
(``tests/oracles.py``) factorises its matrices in its own order.

Both Stokes solves go through ``solve_schur``.  Their primal block
A is n copies of one SPD matrix of a row per interior facet (the CR
stiffness, or the hybrid RT0 multiplier matrix S), which the
caller has factorised already, so ``solve_schur`` takes A^-1 as a bare map
and runs CG on the dual Schur complement B A^-1 B^T.  CR-P0 is inf-sup
stable, so that complement is spectrally equivalent to the P0 mass with
h-independent bounds (Verfuerth, IMA J. Numer. Anal. 4, 1984; Benzi, Golub
& Liesen, Acta Numerica 14, 2005, sec. 5), and CG preconditioned by
diag(B diag(A)^-1 B^T)^-1 takes an almost constant number of steps: 35,
46 and 49 at 2D L3, L5 and L6, 43, 51 and 57 at 3D L2, box(3) refined
once and L3.  It stops when its recursive residual reaches eps times the
right-hand side's norm, a few steps past 1e-14 relative; a stop at 1e-14
raised the weak-L residual of the 3D L3 Stokes certificate from 3.9e-14
to 5.5e-14 and from 3.4e-14 to 8.7e-14 (two loads).  The gauge's
multiplier is taken first, as in ``solve``, each iterate is re-gauged
along k, the primal part is recovered with one refinement step against A,
and ``gate_saddle`` gates the result.

A system carries at most one gauge: a null vector k of the block matrix K
and a row c that fixes it, c . z = rhs.  It is solved by pinning, never by
factorising the bordered matrix:

1. the multiplier follows from k^T K = 0: mu = k . F / k . c;
2. K z = F - c mu is solved with the DOF at argmax |k| removed;
3. the removed DOF is set to 0 and z is re-gauged along k so that
   c . z = rhs;
4. z is refined once by the residual of all rows less its component along
   k, and re-gauged again.  The removed row then shares the rounding of the
   others instead of collecting its sum, and the rounding that step 3 adds
   (K k vanishes only to rounding) is corrected.  On the pure-Neumann RT0
   multiplier systems the first exceeded the gate from 2D L6 (12k
   unknowns) and the second at L8 (196k).

No dense constraint row reaches SuperLU, whose fill it would multiply.  A
declared k that is not a null vector of K breaks the dropped row or the
re-gauge, and the gate raises SolverError.  K must have no null vector
besides the declared one, or the factorised matrix is singular: each
factorisation is refused once a lower bound on its condition number
exceeds 1/(n eps) (``_factorise``).  The bound is taken once per
``Factor``, when it is built, not on each solve with it.  The residual of
the full bordered system is the gate, taken on every solve;
``gate_saddle`` applies it to a solution found by any other route, and
``gate_residual`` to one whose block product the caller forms itself.

Reductions over mesh-sized vectors (the gauge multiplier and re-gauge, the
projection in the refinement, the gate norms, the eigen residuals and
M-orthonormality) are taken with ``np.einsum``, which never enters BLAS, not
with ``@`` or ``np.linalg.norm``.  OpenBLAS threads ddot, dnrm2 and dgemv
from about 10k entries.  With ``OPENBLAS_NUM_THREADS=2`` on 2 vCPUs, while
the other vCPU is busy, such calls on 20k-100k entries took up to 8 ms
(the helper thread waits for a time slice), against 0.01 ms single-threaded
when warm and at most 0.3 ms cold; on an idle machine the two cost the same.
The package's other mesh-sized reductions follow the same rule.

Eigenproblems A x = lam M x (A SPD; M symmetric PSD with an SPD block on
its nonzero rows J) work on A^-1 M, whose nonzero eigenvalues are the
reciprocals of the |J| finite pencil eigenvalues.  ``eig_smallest`` never
sees A: it takes A^-1 as a callable, which the caller builds from factors
it already holds, and each pair's residual on the pencil the caller
states, which may be a larger one that A is a Schur complement of.  ARPACK
shift-invert needs only the action of A^-1 (Ericsson & Ruhe, Math. Comp.
35, 1980) and runs above ``DENSE_CUTOFF`` rows; below it, or when ARPACK
cannot deliver the pairs, a dense congruence on J applies A^-1 to one
column block.
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
DENSE_CUTOFF = 2000             # eig_smallest uses ARPACK above this many rows


@dataclass(frozen=True)
class SolverConfig:
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


def _splu(K, *, permc_spec, diag_pivot_thresh, options):
    """The one factorisation entry: SuperLU of K in the order its caller
    gives (``_SPD_ORDER`` in the package), without relaxed supernodes, on
    panels of 4 columns.

    SuperLU's default relaxation (``relax`` = 10 in scipy's build) merges
    every elimination subtree of up to that many columns into one dense
    supernode and stores its explicit zeros.  ``relax=1`` merges none, so
    the factor stores its L and U and nothing else: on the 3D L4 CR
    stiffness 6.46M entries in 0.78 s, against 22.2M in 9.3 s relaxed
    (1 BLAS thread).  Other ``relax`` values are not a tuning knob here:
    ``relax=4`` stored 8.6M entries for the 0.92M of the 2D L7 CR factor.

    SuperLU factorises a panel of ``panel_size`` consecutive columns at a
    time (Demmel, Eisenstat, Gilbert, Li & Liu, SIMAX 20, 1999), with work
    arrays of n x panel doubles and about (2 panel + 6) n ints; scipy's
    default panel is 20.  Without relaxed supernodes few supernodes are that
    wide, so the wide panel mostly costs memory and page faults.  A sweep of
    the CR stiffness, each factorisation the first call of a fresh process
    (2 BLAS threads, 2 vCPUs), gave its time (median of 3 runs, of 6-8 at
    2D L7 and 3D L4) and the rise of the peak RSS from a heap released by
    ``malloc_trim`` and padded up to the peak so far (so that every page
    the call touches counts; L+U in MB at 12 bytes an entry):

        mesh    rows     L+U entries (MB)   panel 20         panel 4          panel 8
        2D L5    3,008     36,108  (0.4)     3 ms  +1.8 MB    2 ms  +1.0 MB    4 ms  +1.1 MB
        2D L6   12,160    182,384  (2.1)    20 ms  +6.9 MB    9 ms  +3.9 MB   11 ms  +4.9 MB
        2D L7   48,896    920,050 (10.5)    75 ms +29.3 MB   49 ms +17.3 MB   51 ms +20.2 MB
        3D L2      672     11,580  (0.1)     1 ms  +0.4 MB    1 ms  +0.1 MB    1 ms  +0.2 MB
        3D L3    5,760    268,450  (3.1)    15 ms  +5.1 MB   14 ms  +3.6 MB   17 ms  +3.9 MB
        3D L4   47,616  6,455,612 (73.9)   625 ms +82.2 MB  627 ms +70.2 MB  616 ms +75.0 MB

    The hybrid RT0 multiplier matrix S, which has the same pattern, read
    the same to within 0.5 MB and the runs' spread in time (3D L4: 610,
    624 and 617 ms).  The L+U does not depend on the panel.  A panel of 1
    took 3D L4 to 849 ms.  A panel of 4 leaves 3D L4 within the spread of
    the default (623-667 ms over 8 runs, against 612-667 ms), and it holds
    the peak of every factorisation above 2D L5 to less than twice its
    L+U; 8 left the 2D L7 peak 3 MB higher."""
    try:
        return sla.splu(K.tocsc(), relax=1, panel_size=4, permc_spec=permc_spec,
                        diag_pivot_thresh=diag_pivot_thresh, options=options)
    except RuntimeError as exc:
        raise SolverError(f"factorization breakdown: {exc}") from exc


def _block_apply(system, z):
    """[[A, B^T], [B, 0]] z by matvecs with A and B."""
    x, y = z[:system.n_primal], z[system.n_primal:]
    if system.B is None:
        return system.A @ x
    return np.concatenate([system.A @ x + system.B.T @ y, system.B @ x])


def _rhs(system):
    """The right-hand side (f, g) of the block matrix."""
    return system.f if system.g is None else np.concatenate([system.f, system.g])


def _dot(a, b):
    """a . b of two mesh-sized vectors, by einsum, outside BLAS (see the
    module doc); column by column for two (n, m) blocks."""
    return np.einsum("i...,i...->...", a, b)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _multiplier(gauge, F):
    """The gauge's multiplier k . F / k . c, exact because k^T K = 0; None
    without a gauge."""
    if gauge is None:
        return None
    c, k, _ = gauge
    kc = _dot(k, c)
    if kc == 0.0:
        raise SolverError("gauge row orthogonal to its null vector")
    return _dot(k, F) / kc


def gate_residual(F, z, Kz, gauge=None):
    """Gate a solution z of a block system K z = F, given its product
    Kz = K z, at ``RESIDUAL_TOL`` on the relative residual of the system
    bordered by ``gauge`` (an ``assembly.Constraint`` or None), with the
    multiplier in closed form.  A zero right-hand side admits only the zero
    solution.  Without a gauge F, z and Kz may be (n, m) column blocks,
    each column gated.  Returns the multiplier."""
    mu = _multiplier(gauge, F)
    if mu is not None:
        c, _, rhs_c = gauge
        Kz, F = np.append(Kz + c * mu, _dot(c, z)), np.append(F, rhs_c)
    norm_r, norm_rhs = _norm(Kz - F), _norm(F)
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(norm_rhs > 0.0, norm_r / norm_rhs,
                            np.where(norm_r == 0.0, 0.0, np.inf))
    _gate(np.max(relative), "linear solve")
    return mu


def gate_saddle(system, primal, dual):
    """``gate_residual`` of a solution (primal, dual) of a SaddleSystem,
    with A and B applied by matvec only.  Returns the multiplier."""
    z = np.concatenate([primal, dual])
    return gate_residual(_rhs(system), z, _block_apply(system, z), system.gauge)


def _factorise(K, order):
    """``_splu`` of K, refused when kappa_1(K) provably exceeds 1/(n eps).

    One solve x = K^-1 b with a fixed-seed random b gives the lower bound
    ||K||_1 ||x||_1 / ||b||_1 <= kappa_1(K).  A null vector K carries beyond
    its declared gauge shows as a pivot at rounding level: the bound read
    3.9e17 and 1.2e18 on the 2D L2 and L5 Stokes systems without their
    gauge, against at most 1.5e5 on the healthy systems measured (Stokes and
    pseudostress at 2D L6 and 3D box(3) refined, CR Poisson and the Poisson
    multiplier systems at 2D L7), where 1/(n eps) is 9e10-5e11.  The solve
    costs 2-13 ms on those systems."""
    norm = sla.norm(K, 1)          # before the factor exists: |K| adds nothing to the peak
    lu = _splu(K, **order)
    n = K.shape[0]
    b = np.random.default_rng(0).standard_normal(n)
    with np.errstate(over="ignore"):
        kappa = norm * np.abs(lu.solve(b)).sum() / np.abs(b).sum()
    if not kappa <= 1.0 / (n * np.finfo(float).eps):
        raise SolverError(f"matrix of {n} unknowns numerically singular: "
                          f"kappa_1 >= {kappa:.1e}")
    return lu


class Factor:
    """The factorised matrix A of a SaddleSystem without dual block, for
    every right-hand side of that matrix and gauge.

    Holds K = A, the kept DOFs (all, or all but the pinned one) and the
    SuperLU factor of K on them in ``_SPD_ORDER``, refused by
    ``_factorise``'s kappa_1 bound.  It depends on A and the gauge's null
    vector k only: ``solve(system, factor)`` takes f and the gauge row and
    value from the system.  A system with a dual block raises ValueError:
    it is solved by ``solve_schur`` (the tests' oracle,
    ``tests/oracles.py``, factorises it in its own order).

    ``factorised``, if given, is factorised in A's place: a matrix within
    rounding of A that stores fewer entries.  The refinement step and the
    gate of every solve are still taken against A."""

    def __init__(self, system, factorised=None):
        if system.B is not None:
            raise ValueError("a system with a dual block is not factorised: "
                             "solve it by linsolve.solve_schur")
        K = sp.csc_matrix(system.A)
        M = K if factorised is None else sp.csc_matrix(factorised)
        if system.gauge is None:
            keep = slice(None)
        else:                                      # the pin at argmax |k|
            keep = np.delete(np.arange(K.shape[0]), np.argmax(np.abs(system.gauge.k)))
            M = M[keep][:, keep]
        self.K, self.keep, self.lu = K, keep, _factorise(M, _SPD_ORDER)


def solve(system, factor=None):
    """Solve a SaddleSystem to a gated residual: (primal, dual, multiplier),
    the multiplier None without a gauge.

    ``factor`` is a ``Factor`` of the system's matrix and gauge, or any
    object with its ``K``, ``keep`` and ``lu`` (the tests' saddle oracle);
    without one, a Factor is built for this system and dropped.  A zero right-hand
    side is solved by zero, and then nothing is factorised.  Without dual
    block and gauge, f may be an (n, m) block of right-hand sides."""
    F, gauge = _rhs(system), system.gauge
    z = np.zeros(F.shape)
    if F.any() or (gauge is not None and gauge.rhs):
        if factor is None:
            factor = Factor(system)
        K, keep, lu = factor.K, factor.keep, factor.lu
        if gauge is None:
            z[keep] = lu.solve(F[keep])
            z[keep] -= lu.solve((K @ z - F)[keep])    # one step of refinement
        else:                                      # steps 1-4 of the module doc
            c, k, rhs_c = gauge
            rhs = F - c * _multiplier(gauge, F)
            z[keep] = lu.solve(rhs[keep])
            z -= k * ((_dot(c, z) - rhs_c) / _dot(c, k))
            r = K @ z - rhs
            r -= k * (_dot(k, r) / _dot(k, k))
            z[keep] -= lu.solve(r[keep])
            z -= k * ((_dot(c, z) - rhs_c) / _dot(c, k))
    np_ = system.n_primal
    return z[:np_], z[np_:], gate_saddle(system, z[:np_], z[np_:])


_SCHUR_TOL = np.finfo(float).eps   # CG stop: ||r|| <= this times ||rhs||
_SCHUR_MAXITER = 500               # CG iteration cap, beyond it SolverError (3D L4 takes 68)


def solve_schur(system, inverse):
    """Solve a saddle SaddleSystem on its dual Schur complement to a gated
    residual: (primal, dual, multiplier), like ``solve``.

    ``inverse`` applies to a vector the inverse of A, or of a matrix within
    rounding of A (see the module doc); nothing is factorised here.  The gauge, if any,
    must act on the dual unknowns only.  Its multiplier is taken first,
    mu = k . F / k . c, then CG preconditioned by diag(B diag(A)^-1 B^T)^-1
    solves B A^-1 B^T y = B A^-1 f - (g - c_y mu), each iterate re-gauged
    along k_y onto c_y . y = rhs, until the recursive residual reaches
    ``_SCHUR_TOL`` relative; after ``_SCHUR_MAXITER`` iterations it raises
    SolverError.  Then x = A^-1 (f - B^T y), refined once against A, and
    (x, y) is gated by ``gate_saddle``."""
    n_primal, gauge = system.n_primal, system.gauge
    A, B, B_t = system.A, system.B, system.B.T        # B^T formed once per solve
    if gauge is not None and (gauge.c[:n_primal].any() or gauge.k[:n_primal].any()):
        raise ValueError("the Schur-complement solve needs a gauge on the dual unknowns only")
    mu = _multiplier(gauge, _rhs(system))
    y = np.zeros(system.n_dual)
    g = system.g
    if gauge is not None:
        c, k = gauge.c[n_primal:], gauge.k[n_primal:]
        g = g - c * mu
        y += k * (gauge.rhs / _dot(c, k))

    def schur(v):
        return B @ inverse(B_t @ v)

    diagonal = B.multiply(B) @ (1.0 / A.diagonal())
    rhs = B @ inverse(system.f) - g
    r = rhs - schur(y) if y.any() else rhs
    z = r / diagonal
    p, rz = z, _dot(r, z)
    stop, steps = _SCHUR_TOL * _norm(rhs), 0
    while _norm(r) > stop:
        if steps == _SCHUR_MAXITER:
            raise SolverError(f"Schur-complement CG: residual {_norm(r) / _norm(rhs):.3e} "
                              f"after {steps} iterations", _norm(r) / _norm(rhs))
        steps += 1
        q = schur(p)
        alpha = rz / _dot(p, q)
        y += alpha * p
        if gauge is not None:
            y -= k * ((_dot(c, y) - gauge.rhs) / _dot(c, k))
        r = r - alpha * q
        z = r / diagonal
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
    f = system.f - B_t @ y
    x = inverse(f)
    x += inverse(f - A @ x)                      # one step of refinement against A
    return x, y, gate_saddle(system, x, y)


_EXTRA_PAIRS = 3                # pairs ARPACK computes beyond the k returned
_EIG_SHIFT = 0.0                # shift-invert target: the smallest eigenvalues
_EIG_MAXITER = 2000             # ARPACK restart limit


def _eig_dense(inverse, M, J, k):
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
    R = np.zeros((M.shape[0], len(J)), order="F")
    R[J] = L.toarray()
    W = inverse(R)
    T = L.T @ W[J]
    mu, Y = dla.eigh(0.5 * (T + T.T), subset_by_index=[len(J) - k, len(J) - 1])
    mu, Y = mu[::-1], Y[:, ::-1]               # largest mu = smallest lambda
    if mu[-1] <= 0.0:
        raise SolverError("pencil has a non-positive eigenvalue")
    return 1.0 / mu, (W @ Y) / mu


def _eig_sparse(inverse, M, k, n_pairs, ncv, config):
    """ARPACK shift-invert for n_pairs pairs, of which the k smallest are
    kept: asking for more than k keeps a degenerate cluster cut at k from
    stalling the convergence of its wanted half."""
    n = M.shape[0]
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(n)
    # (A - sigma M)^-1 is A^-1 at the zero shift; in shift-invert mode eigsh
    # reads only the shape and dtype of its first argument, never applies it.
    # M goes in as a product on vectors: eigsh's own wrapper of a sparse M
    # takes the slower one-column-block product
    op = sla.LinearOperator((n, n), matvec=inverse, dtype=float)
    mass = sla.LinearOperator((n, n), matvec=lambda x: M @ x, dtype=float)
    try:
        lams, X = sla.eigsh(op, k=n_pairs, M=mass, sigma=_EIG_SHIFT, which="LM",
                            v0=v0, ncv=ncv, maxiter=_EIG_MAXITER, OPinv=op)
    except RuntimeError as exc:        # ARPACK failure
        raise SolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(lams)[:k]
    return lams[order], X[:, order]


def eig_smallest(inverse, M, pencil, k, config=None):
    """k smallest finite eigenvalues of A x = lam M x, ascending, with
    M-orthonormal eigenvectors, from the action of A^-1 alone.

    A must be SPD, M symmetric positive semi-definite with an SPD block on
    its nonzero rows J; there are |J| finite eigenvalues.  ``inverse``
    applies A^-1 to a vector (n,) and to a column block (n, m).
    ``pencil(lam, x)`` returns the two sides (P z, lam N z) of the pencil
    the caller gates each pair on, at the pair's full vector z: (A x,
    lam M x) itself, or a larger pencil whose Schur complement A is, with
    the eliminated unknowns of z recovered from x.  Above ``DENSE_CUTOFF``
    rows ARPACK shift-invert is used whenever it can deliver the pairs;
    otherwise a dense congruence on J.
    """
    config = config or DEFAULT
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    M = sp.csr_matrix(M)
    J = np.flatnonzero(abs(M) @ np.ones(M.shape[1]))
    if k > len(J):
        raise SolverError(f"requested {k} eigenpairs but only {len(J)} "
                          "finite eigenvalues exist")
    # Lanczos breaks down once its basis spans range(A^-1 M), of dimension
    # |J|, and converges poorly with fewer than 2 n_pairs + 1 vectors
    n_pairs = k + _EXTRA_PAIRS
    ncv = min(max(2 * n_pairs + 1, 20), len(J) - 1)
    if M.shape[0] > DENSE_CUTOFF and ncv > 2 * n_pairs:
        lams, X = _eig_sparse(inverse, M, k, n_pairs, ncv, config)
    else:
        lams, X = _eig_dense(inverse, M, J, k)
    # verify: M-orthonormality and eigen residuals
    G = np.einsum("ik,il->kl", X, M @ X)
    if np.abs(G - np.eye(k)).max() > 1e-10:
        raise SolverError("eigenvectors are not M-orthonormal")
    for lam, x in zip(lams, X.T):
        Pz, lam_Nz = pencil(lam, x)
        denom = _norm(Pz)
        if denom > 0:
            _gate(_norm(Pz - lam_Nz) / denom, "eigen")
    return lams, X
