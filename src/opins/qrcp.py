"""Householder QR with column pivoting for the transposed constraint matrix.

``qrcp_factor`` computes ``B^T P = Q R`` in three steps:

1. B^T's rows are folded ``STREAM_ROWS`` at a time into a running m-by-m
   triangle R with ``R^T R = B B^T`` by LAPACK ``tpqrt`` (TSQR: Demmel,
   Grigori, Hoemmen & Langou, SISC 34, 2012).  Dense B^T is folded in row
   order at the full width m.  Sparse B^T is folded as in sparse QR by rows
   (George & Heath, LAA 34, 1980), from one CSR of B^T:

   * its columns (B's rows) are pre-ordered from the pattern alone, by the
     weight ``sum 1 / nnz(row i of B^T)`` over the rows i that store the
     column, repeated rows included, ascending and stable, so the columns
     that carry many short rows come last (equal weights, as for a dense B
     stored as CSR, keep B's order);
   * its nonzero rows that are equal in every column and value are folded
     once, as the first of the k copies scaled by sqrt(k), which adds the
     same ``k r^T r`` to ``R^T R`` (the repeated-row case of sparse QR by
     rows): rows whose lengths and two probe keys agree are compared
     entry by entry with the earliest of them, and only rows found equal
     merge;
   * the rows kept, sorted stably by their leading column under that
     order, are densified one block at a time and folded panel by panel,
     nb columns to a panel (the ``tpqrt`` block size, a quarter of m, at
     most 32): the rows leading in columns j to j + nb - 1 are zero left
     of j, so they are folded into the trailing triangle ``R[j:, j:]``
     alone, at width m - j;
   * R's columns are put back in B's row order before step 2, which keeps
     ``R^T R = B B^T``.
2. LAPACK ``geqp3`` pivots on that R: greedily on the largest remaining
   column norm, with the norms downdated by the Drmac-Bujanovic safeguard
   (LAPACK Working Note 176) and ties to the lowest column index.
   ``B^T = Q_1 R`` and ``R P = Q_2 R'`` give ``B^T P = (Q_1 Q_2) R'``, so the
   pivots, rank and R_11 are those of a pivoted QR of B^T itself; only ties
   among equal column norms may break otherwise, on rounding.  The
   numerical rank ``q`` is the largest ``k`` with
   ``|R_kk| > rank_tol * |R_11|``.
3. The factorization keeps only what the solve reads: the pivot order, the
   q-by-q triangle R_11, and one of two representations of U, the leading q
   columns of Q (an orthonormal basis of range(B^T)):

   * when B^T arrives sparse and both hold, ``nnz(B_q) + q^2 < n q`` and the
     LAPACK ``trcon`` estimate of ``kappa_1(R_11)`` is at most
     ``SEMINORMAL_MAX_COND``, B_q, the q pivoted rows of B, as CSR.
     ``U = B_q^T R_11^{-1}`` holds exactly, so U^T v is ``R_11^{-T} (B_q v)``
     and U c is ``B_q^T (R_11^{-1} c)``: O(nnz(B_q) + q^2) per product
     instead of O(n q), and U is never formed.  This is the projector of
     the seminormal equations (Bjorck, LAA 88/89, 1987).
   * otherwise U itself, so applying U or U^T is one n-by-q matrix-vector
     product.  U and R_11 come from one unpivoted Householder QR (LAPACK
     ``geqrf``, then ``orgqr`` on its reflectors) of the n-by-q block of the
     q pivoted columns of B^T, factored in place.

No step holds an n-by-m array beyond the caller's own, and the
n-by-(n-q) null-space basis is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dgeqrf, dorgqr, dtpqrt, dtrcon

from ._lapack import solve_triangular

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

# Rows of B^T folded per ``tpqrt`` step: a block of at most 1024-by-m (1.6 MB
# at m = 200), the only dense block the fold holds.  Sparse B^T's nonzero
# rows are densified per block at the width m - j of their panel j, after
# the pre-order by column weight, the merge of repeated rows and the sort by
# leading column; blocks never straddle two panels.  On the benchmark's
# averaging B (m = 200, n = 8000 and 91 125) 512 to 2048 rows took within
# 20% of each other at the full width; at n = 8000 the panels fold 87 M rows
# times width^2 against 209 M at the full width, and folding only the 1 498
# distinct rows of 5 229 brings that to 34 M (at n = 91 125, 456 of 9 223
# rows and 7.6 M).
STREAM_ROWS = 1024
# LAPACK block size.  ``geqrf`` and ``orgqr`` get workspace for blocks of it
# (with their default workspace both fall back to unblocked, level-2 loops:
# 1.56 s against 1.10 s at n = 91 125, q = 181).  The compact-WY T factor
# inside ``tpqrt`` is a quarter of m wide, at most _NB: folding 3312 rows at
# m = 20, 64 and 100 took 0.12, 1.1 and 2.6 ms against 0.22, 1.6 and 2.7 ms
# at min(_NB, m) (one BLAS thread).  The sparse fold's panels are as wide.
_NB = 32


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
        Real; not modified.  Both arguments are checked before anything is
        copied.  With no rows or no columns the rank is 0.  Sparse input
        that passes the gate in the module docstring keeps B_q instead of
        forming U.
    rank_tol : float
        Relative diagonal threshold for the numerical rank (q = 0 for a zero
        matrix).

    Returns
    -------
    RangeBasisFactorization
    """
    if not rank_tol > 0:
        raise ValueError("rank_tol must be positive")
    sparse = sp.issparse(bt)
    if not sparse:
        bt = np.asarray(bt)
    if bt.ndim != 2:
        raise ValueError("qrcp_factor expects a 2-d matrix")
    if np.iscomplexobj(bt):
        raise ValueError("qrcp_factor expects real entries")
    if sparse:
        b = bt.T.tocsr()  # no copy for the CSC transpose of a CSR B
        values = b.data
    else:
        values = bt = bt.astype(float, copy=False)
    if not np.all(np.isfinite(values)):
        raise ValueError("qrcp_factor: non-finite input entries")
    n, m = bt.shape
    if min(n, m) == 0:
        return _empty(n, m, np.arange(m))
    nb = max(1, min(_NB, m // 4))
    if sparse:
        r = _sparse_triangle(b, nb)
    else:
        r = np.zeros((m, m), order="F")
        for start in range(0, n, STREAM_ROWS):
            r = _fold(r, np.array(bt[start:start + STREAM_ROWS], order="F"), nb)
    # geqp3 in place on R; q is the leading run of |R'_kk| above the
    # threshold (none for a zero matrix)
    (r, _), _, perm = sla.qr(r, mode="raw", pivoting=True, overwrite_a=True,
                             check_finite=False)
    diag = np.abs(np.diagonal(r))
    rank = int(np.cumprod(diag > rank_tol * diag[0]).sum())
    if rank == 0:
        return _empty(n, m, perm)
    cols = perm[:rank]
    if sparse:
        b_q = b[cols].astype(float, copy=False)
        r_block = np.triu(r[:rank, :rank])
        # 1 / kappa_1(R_11), estimated as 1 / kappa_inf of R_11^T, which is
        # Fortran-ordered as it stands and so reaches LAPACK without a copy
        if (b_q.nnz + rank * rank < n * rank
                and dtrcon(r_block.T, norm="I", uplo="L")[0] >= 1.0 / SEMINORMAL_MAX_COND):
            return RangeBasisFactorization(nrows=n, ncols=m, permutation=perm, rank=rank,
                                           u=None, r_block=r_block, b_q=b_q)
        a = b_q.T.toarray(order="F")
    else:
        a = np.empty((n, rank), order="F")
        # rows of the C-ordered a^T; mode "clip" writes them in place, where
        # the default mode fills a temporary and copies it
        np.take(bt.T, cols, axis=0, out=a.T, mode="clip")
    a, taus, _, info = dgeqrf(a, lwork=_NB * rank, overwrite_a=1)
    if info != 0:
        raise ValueError(f"geqrf failed with info={info}")
    r_block = np.triu(a[:rank])
    u, _, info = dorgqr(a, taus, lwork=_NB * rank, overwrite_a=1)
    if info != 0:
        raise ValueError(f"orgqr failed with info={info}")
    return RangeBasisFactorization(nrows=n, ncols=m, permutation=perm, rank=rank,
                                   u=u, r_block=r_block)


def _fold(r, block, nb):
    """Fold ``block`` into the triangle ``r`` (LAPACK ``tpqrt`` with a T
    factor ``nb`` wide, in ``r``'s memory when ``r`` is Fortran-contiguous,
    otherwise in a copy): the R returned has
    ``R^T R = r^T r + block^T block``."""
    r, _, _, info = dtpqrt(0, nb, r, block, overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"tpqrt failed with info={info}")
    return r


def _sparse_triangle(b, nb):
    """The m-by-m R with ``R^T R = B B^T`` for the m-by-n CSR ``b``, folded
    panel by panel into the trailing triangle (step 1 of the module
    docstring); nothing in it is n-by-m."""
    m = b.shape[0]
    # CSR of B^T: a new copy, so summing its duplicates leaves B alone
    rows = b.T.tocsr()
    rows.sum_duplicates()
    count = np.diff(rows.indptr)
    touched = np.flatnonzero(count)
    start, count = rows.indptr[touched], count[touched]
    # B's rows, lightest first: a row weighs 1/nnz of each row of B^T it is
    # stored in, so rows that share many short rows of B^T come last
    weight = np.bincount(rows.indices, weights=np.repeat(1.0 / count, count), minlength=m)
    pos = np.empty(m, dtype=np.intp)
    pos[np.argsort(weight, kind="stable")] = np.arange(m)
    lead = np.minimum.reduceat(pos[rows.indices], start)
    # each distinct row once, the first of its copies, folded at sqrt(k)
    keep, copies = _distinct_rows(rows, touched, start, count)
    root = np.sqrt(copies)
    # the kept rows by leading column under that order
    by_lead = np.flatnonzero(keep)[np.argsort(lead[keep], kind="stable")]
    lead, start, count, root = lead[by_lead], start[by_lead], count[by_lead], root[by_lead]
    # panel j takes the rows that lead in columns j to j + nb - 1; they are
    # zero left of j, so they change only R[j:, j:] (for j > 0 a strided
    # view, which tpqrt gets as a copy that is then written back)
    r = np.zeros((m, m), order="F")
    # every block is zeroed and scattered into this one buffer: a new
    # array per block costs its page faults again
    buf = np.empty(min(STREAM_ROWS, lead.size) * m)
    first = np.searchsorted(lead, np.arange(0, m, nb))
    for j, lo, hi in zip(range(0, m, nb), first, np.append(first[1:], lead.size)):
        for s in range(lo, hi, STREAM_ROWS):
            e = min(s + STREAM_ROWS, hi)
            # the block's entries, gathered from the CSR and scattered once
            # by flat index into a C-ordered (m - j)-by-rows array, whose
            # transpose is the Fortran-ordered block tpqrt takes
            k = count[s:e]
            src = np.repeat(start[s:e] - np.cumsum(k) + k, k) + np.arange(k.sum())
            block = buf[:(m - j) * (e - s)]
            block.fill(0.0)
            block[(pos[rows.indices[src]] - j) * (e - s) + np.repeat(np.arange(e - s), k)] = \
                rows.data[src] * np.repeat(root[s:e], k)
            r[j:, j:] = _fold(r[j:, j:], block.reshape(m - j, e - s).T, min(nb, m - j))
    # R of B^T with its columns in B's own row order: R^T R = B B^T
    return np.asfortranarray(r[:, pos])


def _row_keys(rows):
    """Two keys for each row of the CSR ``rows``, products with a fixed
    probe: a CSR product sums each row in its stored order, so rows that
    store the same columns and values in the same order share both keys
    bit for bit."""
    return rows @ np.random.default_rng(0).uniform(1.0, 2.0, (rows.shape[1], 2))


def _distinct_rows(rows, touched, start, count):
    """Which of the nonzero rows ``touched`` of the canonical CSR ``rows``
    (``count`` entries from ``start`` each) to fold, as a mask over them,
    and how many copies each stands for: a row equal to an earlier one in
    every column and value is folded as part of that one.  Keys only pick
    the candidates, so equal keys alone merge nothing."""
    # the keys live only inside _candidates, so they are freed before the
    # entries are gathered: kept alive here, they raise the traced peak of
    # TestRepeatedRows' 1e5-unknown fold from 11.4 MB to 15.0 MB
    cand, head = _candidates(rows, touched, count)
    # their entries side by side, candidate against head, in start's dtype
    # (4 bytes an entry for an int32 CSR)
    k = count[cand]
    ofs = np.cumsum(k, dtype=start.dtype) - k
    at = np.repeat(start[cand] - ofs, k) + np.arange(k.sum(), dtype=start.dtype)
    shift = np.repeat(start[head] - start[cand], k)
    equal = rows.indices[at] == rows.indices[at + shift]
    equal &= rows.data[at] == rows.data[at + shift]
    equal = np.logical_and.reduceat(equal, ofs)
    keep = np.ones(touched.size, dtype=bool)
    keep[cand[equal]] = False
    return keep, np.bincount(head[equal], minlength=touched.size) + 1


def _candidates(rows, touched, count):
    """(candidate, head) pairs among the nonzero rows ``touched`` of
    ``rows``, ``count`` entries each: sorted stably by length and keys,
    equal rows sit in runs of equal length and keys, and every row of a run
    but its first, the earliest in B^T, is a candidate to merge into that
    one."""
    key = _row_keys(rows)[touched]
    order = np.lexsort((key[:, 1], key[:, 0], count))
    key, length = key[order], count[order]
    run = np.arange(order.size)
    run[1:][(length[1:] == length[:-1]) & (key[1:, 0] == key[:-1, 0])
            & (key[1:, 1] == key[:-1, 1])] = 0
    head = order[np.maximum.accumulate(run)]
    cand = order != head
    return order[cand], head[cand]


def _empty(n, m, perm):
    """Rank 0: an n-by-0 U and a 0-by-0 R_11."""
    return RangeBasisFactorization(nrows=n, ncols=m, permutation=perm, rank=0,
                                   u=np.zeros((n, 0)), r_block=np.zeros((0, 0)))


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
            return solve_triangular(fact.r_block, fact.b_q @ v, trans=True,
                                    check_finite=False, overwrite_b=True)
        return fact.u.T @ v
    if v.shape != (fact.rank,):
        raise ValueError(f"apply_q_block: expected length {fact.rank}, got {v.shape}")
    if fact.u is None:
        return fact.b_q_t @ solve_triangular(fact.r_block, v, check_finite=False)
    return fact.u @ v
