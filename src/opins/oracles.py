"""Dense reference solvers used for verification and as paper-style baselines.

Everything here is dense-scale only (hundreds of unknowns).  The null-space
basis Z comes from an independent full pivoted QR of B^T (library routine,
not the package's own factorization), so oracle and production paths stay
separate; the numerical rank is taken from the shared QRCP to keep q
consistent between the two.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import krylov
from .operators import LinearOperator
from .qrcp import qrcp_factor

__all__ = ["null_basis", "explicit_nullspace_solve", "tsvd_solve",
           "dense_kkt_solve", "nonzero_spectrum", "constraint_preconditioned",
           "pminres_constraint"]


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


def null_basis(b, rank=None, rank_tol=1e-12):
    """Orthonormal basis Z of null(B) from a full pivoted QR of B^T.

    ``rank`` overrides the rank estimate (pass the shared QRCP rank); the
    trailing n - rank columns of Q span null(B).
    """
    bt = _dense(b).T
    q_full, r_full, _ = sla.qr(bt, pivoting=True, mode="full")
    if rank is None:
        diag = np.abs(np.diagonal(r_full))
        if diag.size == 0 or diag[0] == 0.0:
            rank = 0
        else:
            above = diag > rank_tol * diag[0]
            rank = int(np.argmin(above)) if not above.all() else len(diag)
    return q_full[:, rank:]


def explicit_nullspace_solve(sys, rank_tol=1e-12, rcond=None):
    """Classic dense null-space method: assemble Z^T A Z and factor it.

    Raises ``np.linalg.LinAlgError`` when the reduced matrix is singular to
    working precision (use ``tsvd_solve`` semantics for those systems).
    Returns (x, y).
    """
    a = _dense(sys.a)
    b = _dense(sys.b)
    fact = qrcp_factor(b.T, rank_tol)
    x_p, *_ = np.linalg.lstsq(b, sys.g, rcond=rcond)
    z = null_basis(b, rank=fact.rank)
    if z.shape[1] == 0:
        x = x_p
    else:
        reduced = z.T @ a @ z
        cond = np.linalg.cond(reduced)
        if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
            raise np.linalg.LinAlgError("null-space equation is numerically singular")
        v = np.linalg.solve(reduced, z.T @ (sys.f - a @ x_p))
        x = x_p + z @ v
    y, *_ = np.linalg.lstsq(b.T, sys.f - a @ x, rcond=rcond)
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


def dense_kkt_solve(sys):
    """LU solve of the assembled KKT system; errors if singular.

    Returns (x, y).  Verification oracle for unique-solution recovery.
    """
    k = sys.kkt_matrix()
    rhs = sys.rhs_full()
    cond = np.linalg.cond(k)
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise np.linalg.LinAlgError("KKT matrix is singular to working precision")
    z = np.linalg.solve(k, rhs)
    return z[:sys.n], z[sys.n:]


def nonzero_spectrum(op_dense, zero_tol):
    """Sorted eigenvalues of a symmetric dense matrix above the zero cutoff."""
    mat = np.asarray(op_dense, dtype=float)
    vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    if vals.size == 0:
        return vals
    cutoff = zero_tol * np.abs(vals).max()
    return np.sort(vals[np.abs(vals) > cutoff])


def constraint_preconditioned(sys, g_matrix, rows, ir_steps):
    """The KKT matrix on the rows ``rows`` of B and its constraint
    preconditioner, as ``(op, precond)`` LinearOperators.

    With B_r = B[rows], ``op`` applies [[A, B_r^T], [B_r, 0]] and ``precond``
    solves with [[G, B_r^T], [B_r, 0]], LU-factored once, plus ``ir_steps``
    rounds of iterative refinement (residuals in working precision).  Raises
    ``np.linalg.LinAlgError`` when the preconditioner matrix is singular,
    as it is when B_r has dependent rows.
    """
    b_red = _dense(sys.b)[rows]
    n = sys.n
    dim = n + len(rows)
    kmat = np.zeros((dim, dim))
    kmat[:n, :n] = _dense(sys.a)
    kmat[:n, n:] = b_red.T
    kmat[n:, :n] = b_red
    mprec = kmat.copy()
    mprec[:n, :n] = np.asarray(g_matrix, dtype=float)
    lu = sla.lu_factor(mprec)
    udiag = np.abs(np.diagonal(lu[0]))
    if udiag.size and udiag.min() <= np.finfo(float).eps * max(udiag.max(), 1.0):
        raise np.linalg.LinAlgError("constraint preconditioner matrix is singular")

    def psolve(r):
        s = sla.lu_solve(lu, r)
        for _ in range(ir_steps):
            s = s + sla.lu_solve(lu, r - mprec @ s)
        return s

    return (LinearOperator(dim=dim, apply=lambda v: kmat @ v),
            LinearOperator(dim=dim, apply=psolve))


def pminres_constraint(sys, g_matrix, ir_steps, tol, maxit, callback=None,
                       rank_tol=1e-12, rows=None, x_p=None):
    """MINRES on the modified saddle-point system with the constraint
    preconditioner of ``constraint_preconditioned``.

    This is the projected-Krylov baseline: solve

        [A  B^T] [x_n]   [f - A x_p]
        [B   0 ] [ y ] = [    0    ]

    preconditioned by [[G, B^T], [B, 0]], factored once, with ``ir_steps``
    rounds of iterative refinement per application.  Rank-deficient B is
    reduced to its independent rows first.
    ``callback(it, z_k, relres)`` goes to MINRES unchanged; z_k stacks
    (x_n, y_reduced), so a caller that tracks the drift ||B x_n|| computes
    it from ``z_k[:n]``.

    ``rows`` (the sorted independent rows of B) and ``x_p`` come from a
    caller that has factored B already; when omitted they are taken from a
    QRCP of B^T with ``rank_tol`` and from a least-squares solve of B x = g.

    Returns (outcome, x_p); ``outcome.solution`` stacks (x_n, y_reduced).
    """
    if rows is None:
        fact = qrcp_factor(_dense(sys.b).T, rank_tol)
        rows = np.sort(fact.permutation[:fact.rank])
    if x_p is None:
        x_p, *_ = np.linalg.lstsq(_dense(sys.b), sys.g, rcond=None)
    op, precond = constraint_preconditioned(sys, g_matrix, rows, ir_steps)
    rhs = np.concatenate([sys.f - _dense(sys.a) @ x_p, np.zeros(len(rows))])
    outcome = krylov.minres(op, rhs, tol, maxit, precond=precond, callback=callback)
    return outcome, x_p
