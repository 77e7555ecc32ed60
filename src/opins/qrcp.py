"""Householder QR with column pivoting for the transposed constraint matrix.

``qrcp_factor`` is the one place where B^T, dense or ``scipy.sparse``, is
turned into a dense n-by-m working copy.  LAPACK ``geqp3`` computes
``B^T P = Q R`` on it, pivoting greedily on the largest remaining column
norm and downdating the norms with the Drmac-Bujanovic safeguard (LAPACK
Working Note 176); ties go to the lowest column index.  The numerical rank
``q`` is the largest ``k`` with ``|R_kk| > rank_tol * |R_11|``.

The factorization keeps only what the solve reads: the pivot order, the
q-by-q triangle R_11, and U, the leading q columns of Q (an orthonormal basis
of range(B^T)), formed once by LAPACK ``orgqr``, so applying U or U^T is a
single n-by-q matrix-vector product.  The working copy and its reflectors
are dropped when the factorization returns, and the n-by-(n-q) null-space
basis is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dorgqr

__all__ = ["RangeBasisFactorization", "qrcp_factor", "apply_q_block"]


@dataclass(frozen=True)
class RangeBasisFactorization:
    """Range basis of an n-by-m matrix from its pivoted QR.

    ``permutation[k]`` is the original column placed at position k; ``u`` is
    the n-by-rank orthonormal range basis and ``r_block`` the rank-by-rank
    upper triangle R_11, so the leading ``rank`` pivoted columns equal
    ``u @ r_block``.  Immutable after construction.
    """

    nrows: int
    ncols: int
    permutation: np.ndarray
    rank: int
    u: np.ndarray = field(repr=False)
    r_block: np.ndarray = field(repr=False)


def qrcp_factor(bt, rank_tol):
    """Factor the n-by-m matrix ``bt`` (= B^T) by Householder QRCP.

    Parameters
    ----------
    bt : array_like or scipy.sparse matrix, shape (n, m)
        A dense working copy is taken; the input is not modified.  With no
        rows or no columns the rank is 0.
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
    lwork = dorgqr(work[:, :rank], taus[:rank], lwork=-1)[1][0]
    u, _, info = dorgqr(work[:, :rank], taus[:rank], lwork=int(lwork))
    if info != 0:
        raise ValueError(f"orgqr failed with info={info}")
    return RangeBasisFactorization(nrows=n, ncols=m, permutation=perm, rank=rank,
                                   u=u, r_block=np.triu(work[:rank, :rank]))


def apply_q_block(fact, v, transpose=False):
    """Apply U (the leading-rank block of Q) or U^T.

    ``transpose=True`` maps a length-n vector to the length-q coordinates
    ``U^T v``; ``transpose=False`` maps length-q coordinates back to
    ``U c``.  Either way it is one product with the formed n-by-q U.
    """
    v = np.asarray(v, dtype=float)
    if transpose:
        if v.shape != (fact.nrows,):
            raise ValueError(f"apply_q_block: expected length {fact.nrows}, got {v.shape}")
        return fact.u.T @ v
    if v.shape != (fact.rank,):
        raise ValueError(f"apply_q_block: expected length {fact.rank}, got {v.shape}")
    return fact.u @ v
