"""Householder QR with column pivoting for the transposed constraint matrix.

``qrcp_factor`` is the one place where B^T, dense or ``scipy.sparse``, is
turned into a dense n-by-m working copy.  LAPACK ``geqp3`` computes
``B^T P = Q R`` on it, pivoting greedily on the largest remaining column
norm and downdating the norms with the Drmac-Bujanovic safeguard (LAPACK
Working Note 176); ties go to the lowest column index.  The numerical rank
``q`` is the largest ``k`` with ``|R_kk| > rank_tol * |R_11|``.

The factorization keeps only what the solve reads: the pivot order, the
q-by-q triangle R_11, and one of two representations of U, the leading q
columns of Q (an orthonormal basis of range(B^T)):

* U itself, formed once by LAPACK ``orgqr``, so applying U or U^T is one
  n-by-q matrix-vector product;
* or, when B^T arrives sparse and the gate below holds, B_q, the q pivoted
  rows of B, as CSR.  ``U = B_q^T R_11^{-1}`` holds exactly, so U^T v is
  ``R_11^{-T} (B_q v)`` and U c is ``B_q^T (R_11^{-1} c)``: O(nnz(B_q) + q^2)
  per product instead of O(n q), and U is never formed.  This is the
  projector of the seminormal equations (Bjorck, LAA 88/89, 1987).

The gate takes B_q when both hold: it is cheaper, ``nnz(B_q) + q^2 < n q``
(a dense B stored sparse fails it), and the LAPACK ``trcon`` estimate of
``kappa_1(R_11)`` is at most ``SEMINORMAL_MAX_COND``.
The working copy and its reflectors are dropped when the factorization
returns, and the n-by-(n-q) null-space basis is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dorgqr, dtrcon

__all__ = ["RangeBasisFactorization", "qrcp_factor", "apply_q_block"]

# Largest LAPACK trcon estimate of kappa_1(R_11) at which sparse B^T keeps
# B_q and R_11 instead of the formed U (the other half of the gate is
# nnz(B_q) + q^2 < n q).  The seminormal projector's error grows with
# kappa(R_11); the formed U's stays at rounding level.  Measured on a sparse
# averaging B (n = 300, 31 rows, the last row 0 plus delta times a fresh
# row), max over 30 vectors, with kappa_2(R_11) = 2e3, 2e4, 2e7 and 2e9
# (trcon 5e3, 5e4, 5e7, 5e9):
#   purity ||B P v|| / (||B||_F ||v||)     9e-15, 7e-14, 1e-10, 2e-8
#   ||P v - P_U v|| / ||v|| (orthogonality) 6e-14, 5e-13, 7e-10, 8e-8
# against ~2e-17 purity for the formed U throughout.  Projecting twice
# restores the purity but not the orthogonality the minimum-norm solution
# needs, so the gate keeps the error ~100 times under the 1e-12 purity
# bound of the acceptance suite; the benchmark's averaging B has kappa ~ 20.
SEMINORMAL_MAX_COND = 1e4


@dataclass(frozen=True)
class RangeBasisFactorization:
    """Range basis of an n-by-m matrix from its pivoted QR.

    ``permutation[k]`` is the original column placed at position k and
    ``r_block`` the rank-by-rank upper triangle R_11.  Exactly one of ``u``
    (the formed n-by-rank orthonormal range basis, with the leading ``rank``
    pivoted columns equal to ``u @ r_block``) and ``b_q`` (those pivoted
    columns transposed, the rank-by-n rows B_q as CSR, equal to
    ``(U R_11)^T``) is set; ``apply_q_block`` reads whichever it is.
    Immutable after construction.
    """

    nrows: int
    ncols: int
    permutation: np.ndarray
    rank: int
    u: Optional[np.ndarray] = field(repr=False)
    r_block: np.ndarray = field(repr=False)
    b_q: Optional[sp.csr_matrix] = field(default=None, repr=False)
    # B_q^T as a CSC view of b_q's arrays, made once: transposing on every
    # call costs about as much as the product it feeds
    b_q_t: Optional[sp.csc_matrix] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b_q_t", None if self.b_q is None else self.b_q.T)


def qrcp_factor(bt, rank_tol):
    """Factor the n-by-m matrix ``bt`` (= B^T) by Householder QRCP.

    Parameters
    ----------
    bt : array_like or scipy.sparse matrix, shape (n, m)
        A dense working copy is taken; the input is not modified.  With no
        rows or no columns the rank is 0.  Sparse input that passes the gate
        in the module docstring keeps B_q instead of forming U.
    rank_tol : float
        Relative diagonal threshold for the numerical rank (q = 0 for a zero
        matrix).

    Returns
    -------
    RangeBasisFactorization
    """
    if sp.issparse(bt):
        a = bt.toarray(order="F").astype(float, copy=False)
    else:
        a = np.array(bt, dtype=float, order="F")
    if a.ndim != 2:
        raise ValueError("qrcp_factor expects a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("qrcp_factor: non-finite input entries")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    n, m = a.shape
    if min(n, m) == 0:
        return RangeBasisFactorization(nrows=n, ncols=m, permutation=np.arange(m), rank=0,
                                       u=np.zeros((n, 0)), r_block=np.zeros((0, 0)))
    (work, taus), _, perm = sla.qr(a, mode="raw", pivoting=True,
                                   overwrite_a=True, check_finite=False)
    # the leading run of diagonal entries above the threshold (none for a zero matrix)
    diag = np.abs(np.diagonal(work))
    rank = int(np.cumprod(diag > rank_tol * diag[0]).sum())
    r_block = np.triu(work[:rank, :rank])
    if sp.issparse(bt):
        b = bt.T.tocsr()  # no copy for the CSC transpose of a CSR B
        # stored entries of the pivoted rows, counted before any slicing
        cheaper = np.diff(b.indptr)[perm[:rank]].sum() + rank * rank < n * rank
        # 1 / kappa_1(R_11), estimated as 1 / kappa_inf of R_11^T, which is
        # Fortran-ordered as it stands and so reaches LAPACK without a copy
        if cheaper and dtrcon(r_block.T, norm="I", uplo="L")[0] >= 1.0 / SEMINORMAL_MAX_COND:
            return RangeBasisFactorization(nrows=n, ncols=m, permutation=perm, rank=rank,
                                           u=None, r_block=r_block,
                                           b_q=b[perm[:rank]].astype(float, copy=False))
    lwork = dorgqr(work[:, :rank], taus[:rank], lwork=-1)[1][0]
    u, _, info = dorgqr(work[:, :rank], taus[:rank], lwork=int(lwork))
    if info != 0:
        raise ValueError(f"orgqr failed with info={info}")
    return RangeBasisFactorization(nrows=n, ncols=m, permutation=perm, rank=rank,
                                   u=u, r_block=r_block)


def apply_q_block(fact, v, transpose=False):
    """Apply U (the leading-rank block of Q) or U^T.

    ``transpose=True`` maps a length-n vector to the length-q coordinates
    ``U^T v``; ``transpose=False`` maps length-q coordinates back to
    ``U c``.  With a formed U either way is one product with it; with B_q
    and R_11 it is ``R_11^{-T} (B_q v)`` or ``B_q^T (R_11^{-1} c)``.
    """
    v = np.asarray(v, dtype=float)
    if transpose:
        if v.shape != (fact.nrows,):
            raise ValueError(f"apply_q_block: expected length {fact.nrows}, got {v.shape}")
        if fact.u is None:
            return sla.solve_triangular(fact.r_block, fact.b_q @ v, trans="T",
                                        check_finite=False)
        return fact.u.T @ v
    if v.shape != (fact.rank,):
        raise ValueError(f"apply_q_block: expected length {fact.rank}, got {v.shape}")
    if fact.u is None:
        return fact.b_q_t @ sla.solve_triangular(fact.r_block, v, check_finite=False)
    return fact.u @ v
