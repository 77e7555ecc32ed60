"""Preconditioner building blocks: G operators and the projected operator.

``build_g`` returns an invertible operator exposing the solve ``G^{-1} v``
(nothing needs the forward product ``G v``).  ``ProjectedPreconditioner``
turns such a G into the null-space-restricted operator

    P_G b = Z (Z^T G Z)^{-1} Z^T b,

evaluated without Z through the range-space sequence: solve G r = b, solve
the small dense block (U^T G^{-1} U) t = U^T r, then solve G s = b - U t.
The q-by-q block is assembled with q applications of G^{-1} to the columns
of U and factored once at construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .qrcp import apply_q_block

__all__ = ["InvertibleOperator", "build_g", "ilu0_factor", "ProjectedPreconditioner"]


@dataclass(frozen=True)
class InvertibleOperator:
    """An approximation G of A, given by its ``solve`` (G^{-1} v)."""

    dim: int
    solve: Callable[[np.ndarray], np.ndarray]


def ilu0_factor(a):
    """Zero-fill incomplete LU of a sparse square matrix.

    Returns (L, U) in CSR: L unit lower triangular with its unit diagonal
    stored, U upper triangular, both on A's own pattern (explicit zeros
    kept).  Raises ``ZeroDivisionError`` naming the row on a structurally
    missing or exactly zero pivot.

    The IKJ elimination is level scheduled (Saad, *Iterative Methods for
    Sparse Linear Systems*, 2nd ed., section 11.6): a row's level is one more
    than the highest level among the rows of its strictly lower pattern, so
    the rows of one level depend only on finished rows.  Lower entries are
    eliminated in groups of (row level, position within the row), each group
    one vectorized gather-divide-scatter.  Every entry receives the same
    updates in the same order as the row-by-row loop, so the factors are
    bit-identical to it.
    """
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

    # rows that use row k in their strictly lower pattern, grouped by k
    strict = np.flatnonzero(indices < rows)
    used_by = rows[strict[np.argsort(indices[strict], kind="stable")]]
    used_ptr = np.concatenate(([0], np.cumsum(np.bincount(indices[strict], minlength=n))))
    waiting = nlower.copy()
    keys = rows.astype(np.int64)  # row * n + col, sorted as CSR is
    keys *= n
    keys += indices
    front = np.flatnonzero(waiting == 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while front.size:
            # the longest lower parts first, so that the rows still
            # eliminating their p-th lower entry are a prefix of the front
            front = front[np.argsort(-nlower[front], kind="stable")]
            for p in range(nlower[front[0]]):
                r = front[:np.count_nonzero(nlower[front] > p)]
                pk = indptr[r] + p
                k = indices[pk]
                lik = data[pk] / data[diag_pos[k]]
                data[pk] = lik
                # subtract lik * row_k from row_i on row_i's own pattern, j > k
                lens = indptr[r + 1] - pk - 1
                owner = np.repeat(np.arange(len(r)), lens)
                pj = _ranges(pk + 1, lens)
                sought = k[owner].astype(np.int64) * n + indices[pj]
                q = np.minimum(np.searchsorted(keys, sought), len(keys) - 1)
                hit = keys[q] == sought
                data[pj[hit]] -= lik[owner[hit]] * data[q[hit]]
            # the next front: the rows whose last unfinished dependency was
            # in this one
            users, times = np.unique(
                used_by[_ranges(used_ptr[front], used_ptr[front + 1] - used_ptr[front])],
                return_counts=True)
            waiting[users] -= times
            front = users[waiting[users] == 0]
    del keys, used_by, used_ptr, waiting
    _check_pivots(indices[strict], data, diag_pos)
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


def build_g(a, kind):
    """Build an invertible approximation G of A.

    ``kind`` is one of ``identity``, ``jacobi``, ``ilu0``.  Jacobi uses the
    absolute diagonal so the operator stays positive definite for indefinite
    A, with zero entries replaced by 1.  ILU(0) reports zero pivots with the
    offending row.
    """
    n = a.shape[0]
    if kind == "identity":
        ident = lambda v: np.asarray(v, dtype=float)
        return InvertibleOperator(dim=n, solve=ident)
    if kind == "jacobi":
        diag = np.abs(np.asarray(a.diagonal(), dtype=float)).copy()
        diag[diag == 0.0] = 1.0
        return InvertibleOperator(dim=n, solve=lambda v: v / diag)
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
    """P_G as an operator, built from G and the range-basis factorization."""

    def __init__(self, g_op, fact):
        self.g_op = g_op
        self.fact = fact
        q = fact.rank
        schur = np.empty((q, q))
        for i in range(q):
            coord = np.zeros(q)
            coord[i] = 1.0
            col = g_op.solve(apply_q_block(fact, coord))
            schur[:, i] = apply_q_block(fact, col, transpose=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._schur_lu = sla.lu_factor(schur, check_finite=True)
        udiag = np.abs(np.diagonal(self._schur_lu[0]))
        if udiag.size and udiag.min() <= np.finfo(float).eps * max(udiag.max(), 1.0):
            raise ValueError("projected preconditioner: singular U^T G^{-1} U block")

    def apply(self, b):
        """Evaluate s = P_G b via the cached range-space solve."""
        b = np.asarray(b, dtype=float)
        r = self.g_op.solve(b)
        t = sla.lu_solve(self._schur_lu, apply_q_block(self.fact, r, transpose=True))
        return self.g_op.solve(b - apply_q_block(self.fact, t))
