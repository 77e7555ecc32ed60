"""Preconditioner building blocks: G operators and the projected operator.

``build_g`` returns an invertible operator exposing both the forward product
``G v`` and the solve ``G^{-1} v``.  ``ProjectedPreconditioner`` turns such a
G into the null-space-restricted operator

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
from scipy.sparse.linalg import spsolve_triangular

from .operators import LinearOperator
from .qrcp import RangeBasisFactorization, apply_q_block

__all__ = ["InvertibleOperator", "build_g", "ilu0_factor",
           "ProjectedPreconditioner", "projected_precond_apply"]


@dataclass(frozen=True)
class InvertibleOperator:
    """Operator with both ``apply`` (G v) and ``solve`` (G^{-1} v)."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    solve: Callable[[np.ndarray], np.ndarray]
    symmetric: bool = False
    kind: str = "user-operator"

    def as_solver_operator(self):
        """The inverse as a LinearOperator (what the solvers consume)."""
        return LinearOperator(dim=self.dim, apply=self.solve, symmetric=self.symmetric)


def ilu0_factor(a):
    """Zero-fill incomplete LU of a sparse square matrix.

    Returns (L, U) in CSR with unit diagonal kept implicit in L.  Raises
    ``ZeroDivisionError`` naming the row on a structurally missing or exactly
    zero pivot.
    """
    a = a.tocsr().copy()
    a.sort_indices()
    n = a.shape[0]
    indptr, indices, data = a.indptr, a.indices, a.data
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]]
        pos = int(np.searchsorted(row, i))
        if pos >= len(row) or row[pos] != i:
            raise ZeroDivisionError(f"ilu0: missing diagonal entry in row {i}")
        diag_pos[i] = indptr[i] + pos
    for i in range(n):
        for pk in range(indptr[i], diag_pos[i]):
            k = indices[pk]
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise ZeroDivisionError(f"ilu0: zero pivot in row {k}")
            lik = data[pk] / pivot
            data[pk] = lik
            # subtract lik * row_k from row_i on row_i's own pattern, j > k
            row_k = indices[indptr[k]:indptr[k + 1]]
            tail = slice(pk + 1, indptr[i + 1])
            match = np.searchsorted(row_k, indices[tail]) + indptr[k]
            for offset, pj in enumerate(range(tail.start, tail.stop)):
                q = match[offset]
                if q < indptr[k + 1] and indices[q] == indices[pj]:
                    data[pj] -= lik * data[q]
    factored = sp.csr_matrix((data, indices, indptr), shape=a.shape)
    lower = sp.tril(factored, -1).tocsr() + sp.eye(n, format="csr")
    upper = sp.triu(factored, 0).tocsr()
    return lower, upper


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
        return InvertibleOperator(dim=n, apply=ident, solve=ident,
                                  symmetric=True, kind="identity")
    if kind == "jacobi":
        diag = np.abs(np.asarray(a.diagonal(), dtype=float)).copy()
        diag[diag == 0.0] = 1.0
        return InvertibleOperator(dim=n, apply=lambda v: diag * v,
                                  solve=lambda v: v / diag,
                                  symmetric=True, kind="jacobi")
    if kind == "ilu0":
        mat = a if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=float))
        lower, upper = ilu0_factor(mat)

        def solve(v):
            t = spsolve_triangular(lower, np.asarray(v, dtype=float),
                                   lower=True, unit_diagonal=True)
            return spsolve_triangular(upper, t, lower=False)

        return InvertibleOperator(dim=n, apply=lambda v: lower @ (upper @ v),
                                  solve=solve, symmetric=False, kind="ilu0")
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
        if q:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(schur, check_finite=True)
            udiag = np.abs(np.diagonal(lu))
            if udiag.min() <= np.finfo(float).eps * max(udiag.max(), 1.0):
                raise ValueError("projected preconditioner: singular U^T G^{-1} U block")
            self._schur_lu = (lu, piv)
        else:
            self._schur_lu = None

    def apply(self, b):
        """Evaluate s = P_G b via the cached range-space solve."""
        b = np.asarray(b, dtype=float)
        if self.fact.rank == 0:
            return self.g_op.solve(b)
        r = self.g_op.solve(b)
        t = sla.lu_solve(self._schur_lu, apply_q_block(self.fact, r, transpose=True))
        return self.g_op.solve(b - apply_q_block(self.fact, t))

    def as_solver_operator(self):
        return LinearOperator(dim=self.fact.nrows, apply=self.apply,
                              symmetric=self.g_op.symmetric)


def projected_precond_apply(g_op, fact, b):
    """One-shot ``P_G b`` (constructs the operator; prefer caching it)."""
    return ProjectedPreconditioner(g_op, fact).apply(b)
