"""Preconditioner building blocks: G operators and the projected operator.

``build_g`` returns an invertible operator exposing the solve ``G^{-1} v``
(nothing needs the forward product ``G v``).  ``ProjectedPreconditioner``
turns such a G into the null-space-restricted operator

    P_G b = Z (Z^T G Z)^{-1} Z^T b,

evaluated without Z through the range-space sequence: solve G r = b, solve
the small dense block (U^T G^{-1} U) t = U^T r, then take s = r - W t with
W = G^{-1} U.  W is formed once at construction by one block solve of the
n-by-q U (``InvertibleOperator.solve_columns``), so an application costs one
G-solve; on the B_q path, where W is not kept, the last step is the G-solve
s = G^{-1} (b - U t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._lapack import lu_factor, lu_solve
from .qrcp import _ranges, apply_q_block

__all__ = ["InvertibleOperator", "build_g", "jacobi_diagonal", "ilu0_factor",
           "ProjectedPreconditioner"]


@dataclass(frozen=True)
class InvertibleOperator:
    """An approximation G of A, given by its ``solve`` (G^{-1} v).

    ``spd`` declares G symmetric positive definite, which preconditioned
    MINRES needs; a G that does not declare it is preconditioned through
    GMRES (the solver rule in ``opins.driver``).  ``solve_block``, when
    given, maps an n-by-k array V to G^{-1} V column by column: each column
    of its result must have the bits ``solve`` gives that column of V.
    ``build_g`` sets it for each of its kinds; without it ``solve_columns``
    calls ``solve`` once per column, so a user's ``solve`` need not take a
    2-d array (``lambda v: v / d`` would broadcast along the wrong axis).
    """

    dim: int
    solve: Callable[[np.ndarray], np.ndarray]
    spd: bool = False
    solve_block: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def solve_columns(self, v):
        """G^{-1} V for an n-by-k V, Fortran-ordered: one ``solve_block``
        call, or one ``solve`` per column without it."""
        if self.solve_block is not None:
            return np.asfortranarray(self.solve_block(v))
        w = np.empty(v.shape, order="F")
        for i in range(v.shape[1]):
            w[:, i] = self.solve(v[:, i])
        return w


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
    every update a_ij -= l_ik u_kj with (i, j) and (k, j) in the pattern is
    listed as (target position, source position), in bounded chunks
    (``_updates``).  The numeric phase then walks the groups of equal key,
    each one vectorized divide and one gather-multiply-scatter: a group
    holds one entry per row, so its targets are distinct.  Every entry receives the same updates in the same order
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
    order = _stable_argsort(key)
    elim = strict[order]
    group_ptr = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))
    del key, order
    pivot = diag_pos[indices[elim]]

    # the updates of each eliminated entry, in the same order
    entry, target, source = _updates(a, rows, elim, pivot)
    owner = elim[entry]
    # where each group's updates start: at the first update of an entry in it
    update_ptr = np.searchsorted(entry, group_ptr)
    del entry

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


# how many candidate updates ilu0_factor's symbolic phase lists at a time; the
# lookup keeps few of them, and chunking bounds their lists whatever A's size
_CANDIDATE_CHUNK = 1 << 16


def _updates(a, rows, elim, pivot):
    """The updates of the strictly lower entries at ``elim``, as intp rows
    (entry, target, source) in the order of ``elim``: the entry (i, k) at
    elim[e] subtracts data[elim[e]] * data[source] (that is, l_ik u_kj) from
    data[target] (a_ij) for every j > k with (k, j) and (i, j) both stored.

    The candidates j, row k's strictly upper pattern, are listed a chunk of
    entries at a time, about ``_CANDIDATE_CHUNK`` per chunk, and one sparse
    lookup per chunk finds which (i, j) are stored.
    """
    indptr, indices = a.indptr, a.indices
    lens = indptr[indices[elim] + 1] - pivot - 1
    cuts = np.searchsorted(np.cumsum(lens), np.arange(_CANDIDATE_CHUNK, lens.sum(),
                                                      _CANDIDATE_CHUNK), side="right")
    # position + 1 of each stored entry, so that 0 reads "not stored"
    where = sp.csr_matrix((np.arange(1, len(indices) + 1, dtype=indices.dtype),
                           indices, indptr), shape=a.shape)
    parts = [np.empty((3, 0), dtype=indices.dtype)]
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(elim)]):
        chunk = slice(lo, hi)
        source = _ranges(pivot[chunk] + 1, lens[chunk])
        if not source.size:
            continue
        target = np.asarray(where[np.repeat(rows[elim[chunk]], lens[chunk]),
                                  indices[source]]).ravel()
        hit = np.flatnonzero(target)
        parts.append(np.stack((np.repeat(np.arange(lo, hi), lens[chunk])[hit],
                               target[hit] - 1, source[hit]), dtype=indices.dtype))
    del where, lens
    # the schedule is intp: NumPy gathers and scatters through narrower index
    # arrays cast them on every call
    return np.concatenate(parts, axis=1, dtype=np.intp)


def _levels(lower_rows, lower_cols, nlower):
    """Each row's level: 0 for a row without strictly lower entries, else one
    more than the highest level among the rows k of its entries (i, k).

    Kahn's algorithm, one front of rows per level, so the work of a level is
    proportional to its front and to the entries that use it.
    """
    n = len(nlower)
    # rows that use row k in their strictly lower pattern, grouped by k
    used_by = lower_rows[_stable_argsort(lower_cols)].astype(np.intp)
    used_ptr = np.concatenate(([0], np.cumsum(np.bincount(lower_cols, minlength=n))))
    used_lo, used_hi = used_ptr[:-1], used_ptr[1:]
    waiting = nlower.copy()
    level = np.empty(n, dtype=lower_rows.dtype)
    slot = np.empty(n, dtype=np.intp)
    front = np.flatnonzero(waiting == 0)
    depth = 0
    while front.size:
        level[front] = depth
        depth += 1
        # the next front: the rows whose last unfinished dependency was in
        # this one, listed once each
        starts = used_lo[front]
        users = used_by[_ranges(starts, used_hi[front] - starts)]
        if users.size > 1:
            np.subtract.at(waiting, users, 1)
            ready = users[waiting[users] == 0]
            # a row listed more than once keeps the one copy whose index
            # its slot holds, without sorting
            slot[ready] = position = np.arange(ready.size)
            front = ready[slot[ready] == position]
        else:  # a chain: one user, counted and listed once
            waiting[users] -= 1
            front = users[waiting[users] == 0]
    return level


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")`` of nonnegative integer keys, sorted
    in the narrowest dtype that holds them: the order is the same, and NumPy
    radix-sorts keys of up to 16 bits."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0)), copy=False),
                      kind="stable")


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
        # a copy: NumPy takes U^T @ U of one buffer to syrk, whose bits
        # differ from the gemm of U^T @ W
        return InvertibleOperator(dim=n, solve=ident, spd=True,
                                  solve_block=lambda v: np.array(v, dtype=float))
    if kind == "jacobi":
        diag = jacobi_diagonal(a)
        return InvertibleOperator(dim=n, solve=lambda v: v / diag, spd=True,
                                  solve_block=lambda v: (v.T / diag).T)
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
            # SuperLU takes an n-by-k right-hand side too
            return upper_lu.solve(lower_lu.solve(v))

        return InvertibleOperator(dim=n, solve=solve, solve_block=solve)
    raise ValueError(f"build_g: unknown kind {kind!r}")


class ProjectedPreconditioner:
    """P_G as an operator, built from G and the range-basis factorization.

    With a formed U, ``apply`` computes r = G^{-1} b, t = S^{-1} U^T r with
    S = U^T W, and s = r - W t, where W = G^{-1} U is filled by one
    ``solve_columns`` call at construction and kept (n-by-q, the size of
    U).  With B_q and R_11 in place of U, W is not kept, S is assembled by
    q G-solves and ``apply`` ends with the G-solve s = G^{-1} (b - U t).
    S is rejected as singular (``LinAlgError``) by the relative pivot test
    of ``_lapack.lu_factor``, which does not depend on the scale of G.
    """

    def __init__(self, g, fact):
        self.g = g
        self.fact = fact
        q = fact.rank
        self._w = None
        if fact.u is not None:
            self._w = g.solve_columns(fact.u)
            schur = fact.u.T @ self._w
        else:
            schur = np.empty((q, q))
            for i in range(q):
                coord = np.zeros(q)
                coord[i] = 1.0
                col = g.solve(apply_q_block(fact, coord))
                schur[:, i] = apply_q_block(fact, col, transpose=True)
        self._schur_lu = lu_factor(schur, "projected preconditioner: U^T G^{-1} U block")

    def apply(self, b):
        """Evaluate s = P_G b via the cached range-space solve."""
        b = np.asarray(b, dtype=float)
        r = self.g.solve(b)
        t = lu_solve(self._schur_lu, apply_q_block(self.fact, r, transpose=True),
                     overwrite_b=True)
        if self._w is not None:
            return r - self._w @ t
        return self.g.solve(b - apply_q_block(self.fact, t))
