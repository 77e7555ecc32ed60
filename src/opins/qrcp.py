"""Householder QR with column pivoting for the transposed constraint matrix.

The factorization ``B^T P = Q R`` is computed by LAPACK ``geqp3`` on a dense
n-by-m working copy of ``B^T`` (cheap when m is small compared to n).
``geqp3`` pivots greedily on the largest remaining column norm, downdating the
norms with the Drmac-Bujanovic safeguard (LAPACK Working Note 176); ties go
to the lowest column index.  The numerical rank ``q`` is the largest ``k``
with ``|R_kk| > rank_tol * |R_11|``.

The leading ``q`` columns of Q -- U, an orthonormal basis of range(B^T) -- are
formed once per factorization by LAPACK ``orgqr``, so applying U or U^T is a
single n-by-q matrix-vector product.  Only this n-by-q range basis is formed,
never the n-by-(n-q) null-space basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dorgqr

__all__ = ["RangeBasisFactorization", "qrcp_factor", "apply_q_block", "solve_r"]


@dataclass(frozen=True)
class RangeBasisFactorization:
    """QRCP of an n-by-m matrix with the range basis U formed once.

    ``work`` holds R in its upper triangle and the reflector vectors (scaled
    to unit leading entry) below the diagonal; ``taus`` are the reflector
    coefficients.  ``permutation[k]`` is the original column placed at
    position k.  ``u`` is the n-by-rank matrix of the leading columns of Q,
    built from ``work`` and ``taus`` at construction.  Immutable after
    construction.
    """

    nrows: int
    ncols: int
    work: np.ndarray = field(repr=False)
    taus: np.ndarray = field(repr=False)
    permutation: np.ndarray
    rank: int
    tol_used: float
    u: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u", _leading_q(self.work, self.taus, self.rank))

    @property
    def r_block(self):
        """Leading rank-by-rank upper-triangular block of R."""
        q = self.rank
        return np.triu(self.work[:q, :q])

    def r_full(self):
        """Full min(n,m)-by-m upper-trapezoidal R (for reconstruction checks)."""
        k = min(self.nrows, self.ncols)
        return np.triu(self.work[:k, :])

    def dense_q(self, ncols=None):
        """Explicitly reconstruct the leading columns of Q (test/oracle use)."""
        return _leading_q(self.work, self.taus, self.rank if ncols is None else ncols)


def _leading_q(work, taus, k):
    """The first k columns of Q from the reflectors, by LAPACK ``orgqr``."""
    if k == 0:
        return np.zeros((work.shape[0], 0), order="F")
    lwork = dorgqr(work[:, :k], taus[:k], lwork=-1)[1][0]
    q, _, info = dorgqr(work[:, :k], taus[:k], lwork=int(lwork))
    if info != 0:
        raise ValueError(f"orgqr failed with info={info}")
    return q


def qrcp_factor(bt, rank_tol):
    """Factor the n-by-m matrix ``bt`` (= B^T) by Householder QRCP.

    Parameters
    ----------
    bt : array_like, shape (n, m)
        Dense working copy is taken; the input is not modified.
    rank_tol : float
        Relative diagonal threshold for the numerical rank (q = 0 for a zero
        matrix).

    Returns
    -------
    RangeBasisFactorization
    """
    a = np.array(bt, dtype=float)
    if a.ndim != 2:
        raise ValueError("qrcp_factor expects a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("qrcp_factor: non-finite input entries")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    n, m = a.shape
    if n < 1 or m < 1:
        raise ValueError("qrcp_factor expects at least one row and column")
    (work, taus), _, perm = sla.qr(a, mode="raw", pivoting=True,
                                   overwrite_a=True, check_finite=False)
    diag = np.abs(np.diagonal(work))
    if diag[0] <= 0.0:
        rank = 0
    else:
        above = diag > rank_tol * diag[0]
        rank = diag.size if above.all() else int(np.argmin(above))
    return RangeBasisFactorization(nrows=n, ncols=m, work=work, taus=taus,
                                   permutation=perm, rank=rank, tol_used=rank_tol)


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


def solve_r(fact, rhs, mode):
    """Triangular solve with the leading q-by-q block of R.

    ``mode='forward-transpose'`` solves R^T t = rhs by forward substitution;
    ``mode='back'`` solves R t = rhs by back substitution.  A rank-zero
    factorization yields an empty solution.
    """
    rhs = np.asarray(rhs, dtype=float)
    q = fact.rank
    if rhs.shape != (q,):
        raise ValueError(f"solve_r: expected length {q}, got {rhs.shape}")
    if q == 0:
        return np.zeros(0)
    if mode == "forward-transpose":
        return sla.solve_triangular(fact.r_block, rhs, trans="T", lower=False)
    if mode == "back":
        return sla.solve_triangular(fact.r_block, rhs, lower=False)
    raise ValueError(f"solve_r: unknown mode {mode!r}")
