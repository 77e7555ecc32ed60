"""Dense reference solvers used for verification and as paper-style baselines.

Everything here is dense-scale only (hundreds of unknowns).  The null-space
basis Z comes from an independent full pivoted QR of B^T (library routine,
not the package's own factorization), so oracle and production paths stay
separate.  The caller supplies the numerical rank, and for the projected
MINRES baseline the independent rows of B and x_p, from the run's own QRCP,
so q is the same on both paths and B^T is factored once per run.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import krylov
from ._lapack import lu_factor
from .operators import LinearOperator

__all__ = ["null_basis", "explicit_nullspace_solve", "tsvd_solve",
           "constraint_preconditioned", "pminres_constraint"]


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


def null_basis(b, rank):
    """Orthonormal basis Z of null(B) from a full pivoted QR of B^T: the
    trailing n - ``rank`` columns of Q."""
    q_full, _, _ = sla.qr(_dense(b).T, pivoting=True, mode="full")
    return q_full[:, rank:]


def explicit_nullspace_solve(sys, rank):
    """Classic dense null-space method: assemble Z^T A Z and factor it.

    ``rank`` is the numerical rank of B.  Raises ``np.linalg.LinAlgError``
    when the reduced matrix is singular to working precision (use
    ``tsvd_solve`` semantics for those systems).  Returns (x, y).
    """
    a = _dense(sys.a)
    b = _dense(sys.b)
    x_p, *_ = np.linalg.lstsq(b, sys.g, rcond=None)
    z = null_basis(b, rank)
    if z.shape[1] == 0:
        x = x_p
    else:
        reduced = z.T @ a @ z
        cond = np.linalg.cond(reduced)
        if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
            raise np.linalg.LinAlgError("null-space equation is numerically singular")
        v = np.linalg.solve(reduced, z.T @ (sys.f - a @ x_p))
        x = x_p + z @ v
    y, *_ = np.linalg.lstsq(b.T, sys.f - a @ x, rcond=None)
    return x, y


def tsvd_solve(k, rhs, trunc_tol):
    """Minimum-norm least-squares solve by truncated SVD.

    Singular values at or below ``trunc_tol`` times the largest are
    discarded.
    """
    k = np.asarray(k, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    u, s, vt = np.linalg.svd(k)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(k.shape[1])
    keep = s > trunc_tol * s[0]
    return vt[keep].T @ ((u[:, keep].T @ rhs) / s[keep])


def constraint_preconditioned(sys, g_matrix, rows, ir_steps):
    """The KKT matrix on the rows ``rows`` of B and its constraint
    preconditioner, as ``(op, precond)`` LinearOperators.

    With B_r = B[rows], ``op`` applies [[A, B_r^T], [B_r, 0]] and ``precond``
    solves with [[G, B_r^T], [B_r, 0]], LU-factored once, plus ``ir_steps``
    rounds of iterative refinement (residuals in working precision).  Raises
    ``np.linalg.LinAlgError`` when the preconditioner matrix is singular by
    the relative pivot test of ``_lapack.lu_factor``, as it is when B_r has
    dependent rows.
    """
    b_red = _dense(sys.b)[rows]
    n, q = sys.n, len(rows)
    kmat = np.block([[_dense(sys.a), b_red.T], [b_red, np.zeros((q, q))]])
    mprec = kmat.copy()
    mprec[:n, :n] = np.asarray(g_matrix, dtype=float)
    lu = lu_factor(mprec, "constraint preconditioner matrix")

    def psolve(r):
        s = sla.lu_solve(lu, r)
        for _ in range(ir_steps):
            s = s + sla.lu_solve(lu, r - mprec @ s)
        return s

    return (LinearOperator(dim=n + q, apply=lambda v: kmat @ v),
            LinearOperator(dim=n + q, apply=psolve))


def pminres_constraint(sys, g_matrix, ir_steps, tol, maxit, rows, x_p, callback=None):
    """MINRES on the modified saddle-point system with the constraint
    preconditioner of ``constraint_preconditioned``.

    This is the projected-Krylov baseline: solve

        [A    B_r^T] [x_n]   [f - A x_p]
        [B_r   0   ] [ y ] = [    0    ]

    preconditioned by [[G, B_r^T], [B_r, 0]], factored once, with
    ``ir_steps`` rounds of iterative refinement per application.  ``rows``
    are the sorted independent rows of B (B_r = B[rows]) and ``x_p`` a
    particular solution of B x = g; the caller derives both.
    ``callback(it, z_k, relres)`` goes to MINRES unchanged; z_k stacks
    (x_n, y_reduced), so a caller that tracks the drift ||B x_n|| computes
    it from ``z_k[:n]``.

    Returns the MINRES outcome; ``outcome.solution`` stacks (x_n, y_reduced).
    """
    op, precond = constraint_preconditioned(sys, g_matrix, rows, ir_steps)
    rhs = np.concatenate([sys.f - _dense(sys.a) @ x_p, np.zeros(len(rows))])
    return krylov.minres(op, rhs, tol, maxit, precond=precond, callback=callback)
