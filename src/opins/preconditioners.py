"""Preconditioner building blocks: G operators and the projected operator.

``build_g`` returns an invertible operator exposing the solve ``G^{-1} v``
(nothing needs the forward product ``G v``).  ``ProjectedPreconditioner``
turns such a G into the null-space-restricted operator

    P_G b = Z (Z^T G Z)^{-1} Z^T b,

evaluated without Z through the range-space sequence: solve G r = b, solve
the small dense block (U^T G^{-1} U) t = U^T r, then take s = r - W t with
W = G^{-1} U.  W is formed once at construction by q G-solves, so an
application costs one G-solve; on the B_q path, where W is not kept, the
last step is the G-solve s = G^{-1} (b - U t).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._lapack import lu_solve
from .qrcp import apply_q_block

__all__ = ["InvertibleOperator", "build_g", "jacobi_diagonal", "ilu0_factor",
           "ProjectedPreconditioner"]


@dataclass(frozen=True)
class InvertibleOperator:
    """An approximation G of A, given by its ``solve`` (G^{-1} v).

    ``spd`` declares G symmetric positive definite, which preconditioned
    MINRES needs; a G that does not declare it is preconditioned through
    GMRES (the solver rule in ``opins.driver``).
    """

    dim: int
    solve: Callable[[np.ndarray], np.ndarray]
    spd: bool = False


def ilu0_factor(a):
    """Zero-fill incomplete LU of a sparse square matrix.

    Returns (L, U) in CSR: L unit lower triangular with its unit diagonal
    stored, U upper triangular, both on A's own pattern (explicit zeros
    kept).  Raises ``ValueError`` on a non-square matrix, and
    ``ZeroDivisionError`` naming the row on a structurally missing or
    exactly zero pivot, or on a pivot or entry that overflowed to inf or
    nan.

    The IKJ elimination is level scheduled (Saad, *Iterative Methods for
    Sparse Linear Systems*, 2nd ed., sections 10.3 and 11.6) in two phases.
    The symbolic phase reads only A's pattern: a row's level is one more
    than the highest level among the rows of its strictly lower pattern, so
    the rows of one level depend only on finished rows; each strictly lower
    entry (i, k) is keyed by (level of row i, position within row i); and
    every update a_ij -= l_ik u_kj with (k, j) in the pattern is listed as
    (target position, source position) in one pass.  The numeric phase then
    walks the groups of equal key, each one vectorized divide and one
    gather-multiply-scatter: a group holds one entry per row, so its targets
    are distinct.  Every entry receives the same updates in the same order
    as the row-by-row IKJ loop, so the factors are bit-identical to it.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"ilu0: matrix must be square, got shape {a.shape}")
    a = a.tocsr().astype(float)  # a copy, eliminated in place
    a.sum_duplicates()
    n = a.shape[0]
    indptr, indices, data = a.indptr, a.indices, a.data
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    diag_pos = np.flatnonzero(indices == rows)
    if len(diag_pos) < n:
        missing = np.setdiff1d(np.arange(n), indices[diag_pos])[0]
        raise ZeroDivisionError(f"ilu0: missing diagonal entry in row {missing}")
    nlower = diag_pos - indptr[:-1]
    strict = np.flatnonzero(indices < rows)
    lower_rows = rows[strict]

    # the strictly lower entries in elimination order, cut into groups
    key = _levels(lower_rows, indices[strict], nlower)[lower_rows].astype(np.int64)
    key *= nlower.max(initial=0)
    key += strict - indptr[lower_rows]
    del lower_rows
    order = np.argsort(key, kind="stable")
    elim = strict[order]
    group_ptr = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))
    del key, order
    pivot = diag_pos[indices[elim]]

    # the updates of each eliminated entry, in the same order: the entry
    # (i, k) at elim[e] subtracts data[elim[e]] * u_kj from every a_ij right
    # of it whose (k, j) is in row k's pattern
    lens = indptr[rows[elim] + 1] - elim - 1
    target = _ranges(elim + 1, lens)
    source = np.empty(0, dtype=indices.dtype)
    if target.size:
        # position + 1 of each stored entry, so that 0 reads "not stored"
        where = sp.csr_matrix((np.arange(1, len(indices) + 1, dtype=indices.dtype),
                               indices, indptr), shape=a.shape)
        source = np.asarray(where[np.repeat(indices[elim], lens), indices[target]]).ravel()
        del where
    # the schedule kept for the numeric phase is intp: NumPy gathers and
    # scatters through narrower index arrays cast them on every call
    hit = np.flatnonzero(source)
    target = target[hit]
    source = source[hit].astype(np.intp)
    source -= 1
    owner = np.repeat(elim, lens)[hit]
    # the first update of each group: the hits before its first candidate
    update_ptr = np.searchsorted(hit, np.concatenate(([0], np.cumsum(lens)))[group_ptr])
    del lens, hit

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start, stop, ustart, ustop in zip(group_ptr[:-1].tolist(), group_ptr[1:].tolist(),
                                              update_ptr[:-1].tolist(), update_ptr[1:].tolist()):
            pk = elim[start:stop]
            data[pk] = data[pk] / data[pivot[start:stop]]
            us = slice(ustart, ustop)
            data[target[us]] -= data[owner[us]] * data[source[us]]
    del elim, pivot, target, owner, source, group_ptr, update_ptr
    _check_pivots(indices[strict], data, diag_pos)
    _check_finite(data, rows, diag_pos)
    del strict

    in_lower, in_upper = indices <= rows, indices >= rows
    del rows
    lower_ptr = np.concatenate(([0], np.cumsum(nlower + 1)))
    lower_data = data[in_lower]
    lower_data[lower_ptr[1:] - 1] = 1.0
    lower = sp.csr_matrix((lower_data, indices[in_lower], lower_ptr), shape=a.shape)
    upper_ptr = np.concatenate(([0], np.cumsum(np.diff(indptr) - nlower)))
    upper = sp.csr_matrix((data[in_upper], indices[in_upper], upper_ptr), shape=a.shape)
    return lower, upper


def _levels(lower_rows, lower_cols, nlower):
    """Each row's level: 0 for a row without strictly lower entries, else one
    more than the highest level among the rows k of its entries (i, k).

    Kahn's algorithm, one front of rows per level, so the work of a level is
    proportional to its front and to the entries that use it.
    """
    n = len(nlower)
    # rows that use row k in their strictly lower pattern, grouped by k
    used_by = lower_rows[np.argsort(lower_cols, kind="stable")].astype(np.intp)
    used_ptr = np.concatenate(([0], np.cumsum(np.bincount(lower_cols, minlength=n))))
    used_lo, used_hi = used_ptr[:-1], used_ptr[1:]
    waiting = nlower.copy()
    level = np.empty(n, dtype=lower_rows.dtype)
    front = np.flatnonzero(waiting == 0)
    depth = 0
    while front.size:
        level[front] = depth
        depth += 1
        # the next front: the rows whose last unfinished dependency was in
        # this one, listed once each
        starts = used_lo[front]
        users = used_by[_ranges(starts, used_hi[front] - starts)]
        times = 1
        if users.size > 1:  # np.unique is the identity on fewer entries
            users, times = np.unique(users, return_counts=True)
        waiting[users] -= times
        front = users[waiting[users] == 0]
    return level


def _ranges(starts, lens):
    """The concatenation of ``arange(s, s + l)`` over ``zip(starts, lens)``."""
    return np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)


def _check_pivots(lower_cols, data, diag_pos):
    """Raise on a zero pivot, naming the row the row-by-row loop would.

    ``lower_cols`` are the columns of the strictly lower entries in
    row-major order.  That loop stops at the first of them whose pivot is
    zero; the rows before it were factored without dividing by zero, so
    their pivots are exact here.  A zero pivot that no later row uses is
    reported after that, at the first such row.
    """
    pivots = data[diag_pos]
    zero = lower_cols[pivots[lower_cols] == 0.0]
    if not zero.size:
        zero = np.flatnonzero(pivots == 0.0)
    if zero.size:
        raise ZeroDivisionError(f"ilu0: zero pivot in row {zero[0]}")


def _check_finite(data, rows, diag_pos):
    """Raise on the first row holding an inf or nan, which finite input
    reaches by overflow; SuperLU would reject such a factor as singular
    without naming the row."""
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        row = rows[bad[0]]
        what = "entry" if np.isfinite(data[diag_pos[row]]) else "pivot"
        raise ZeroDivisionError(f"ilu0: non-finite {what} in row {row}")


def jacobi_diagonal(a):
    """The diagonal of the Jacobi G: A's absolute diagonal, so that G stays
    positive definite for indefinite A, with zero entries replaced by 1."""
    diag = np.abs(np.asarray(a.diagonal(), dtype=float))
    diag[diag == 0.0] = 1.0
    return diag


def build_g(a, kind):
    """Build an invertible approximation G of A.

    ``kind`` is one of ``identity``, ``jacobi`` (see ``jacobi_diagonal``),
    ``ilu0``.  The first two are SPD; ILU(0) is not in general, and reports
    zero pivots with the offending row.
    """
    n = a.shape[0]
    if kind == "identity":
        ident = lambda v: np.asarray(v, dtype=float)
        return InvertibleOperator(dim=n, solve=ident, spd=True)
    if kind == "jacobi":
        diag = jacobi_diagonal(a)
        return InvertibleOperator(dim=n, solve=lambda v: v / diag, spd=True)
    if kind == "ilu0":
        mat = a if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=float))
        lower, upper = ilu0_factor(mat)
        # SuperLU in natural order without pivoting leaves a triangular
        # factor as it is: splu(L) has factors (L, I) and splu(U) has (I, U).
        # Unit panels and no relaxed supernodes keep its dense work panel,
        # which a triangular matrix has no use for, out of the peak memory.
        lower_lu, upper_lu = (
            splu(t.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                 relax=1, panel_size=1, options=dict(SymmetricMode=True))
            for t in (lower, upper))

        def solve(v):
            return upper_lu.solve(lower_lu.solve(v))

        return InvertibleOperator(dim=n, solve=solve)
    raise ValueError(f"build_g: unknown kind {kind!r}")


class ProjectedPreconditioner:
    """P_G as an operator, built from G and the range-basis factorization.

    With a formed U, ``apply`` computes r = G^{-1} b, t = S^{-1} U^T r with
    S = U^T W, and s = r - W t, where W = G^{-1} U is filled by q G-solves
    at construction and kept (n-by-q, the size of U).  With B_q and R_11 in
    place of U, W is not kept and ``apply`` ends with the G-solve
    s = G^{-1} (b - U t).  S is rejected as singular when a pivot of its LU
    factorization is at most machine epsilon times the largest, a test that
    does not depend on the scale of G.
    """

    def __init__(self, g, fact):
        self.g = g
        self.fact = fact
        q = fact.rank
        self._w = None
        if fact.u is not None:
            self._w = np.empty((fact.nrows, q), order="F")
            for i in range(q):
                self._w[:, i] = g.solve(fact.u[:, i])
            schur = fact.u.T @ self._w
        else:
            schur = np.empty((q, q))
            for i in range(q):
                coord = np.zeros(q)
                coord[i] = 1.0
                col = g.solve(apply_q_block(fact, coord))
                schur[:, i] = apply_q_block(fact, col, transpose=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._schur_lu = sla.lu_factor(schur, check_finite=True)
        udiag = np.abs(np.diagonal(self._schur_lu[0]))
        if udiag.size and udiag.min() <= np.finfo(float).eps * udiag.max():
            raise ValueError("projected preconditioner: singular U^T G^{-1} U block")

    def apply(self, b):
        """Evaluate s = P_G b via the cached range-space solve."""
        b = np.asarray(b, dtype=float)
        r = self.g.solve(b)
        t = lu_solve(self._schur_lu, apply_q_block(self.fact, r, transpose=True),
                     overwrite_b=True)
        if self._w is not None:
            return r - self._w @ t
        return self.g.solve(b - apply_q_block(self.fact, t))
