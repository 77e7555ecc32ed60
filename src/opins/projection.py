"""Orthogonal projection onto null(B) and the outer solve steps built on it.

The projector is ``v - U (U^T v)`` where U is the n-by-q orthonormal basis of
range(B^T) from the pivoted QR.  Every product with U or U^T goes through
``qrcp.apply_q_block``: with a formed U it is one n-by-q matrix-vector
product; with sparse B that passes the factorization's gate it is a product
with the pivoted rows B_q and a triangular solve with R_11, and U is never
formed.  The n-by-n projector itself and the null-space basis are never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import solve_triangular
from .qrcp import RangeBasisFactorization, apply_q_block

__all__ = ["Projector", "particular_solution", "recover_multipliers"]


@dataclass(frozen=True)
class Projector:
    """Complementary orthogonal projector onto null(B).

    Idempotent and symmetric; annihilates range(B^T).  Stateless over the
    immutable factorization, so shareable across threads.
    """

    basis: RangeBasisFactorization

    def complement(self, v):
        """Project ``v`` onto null(B): returns ``v - U (U^T v)``, or exact
        zeros when rank B = n (null(B) = {0}), where that is rounding noise."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.basis.nrows,):
            raise ValueError(f"projector: expected length {self.basis.nrows}, got {v.shape}")
        if self.basis.rank == self.basis.nrows:
            return np.zeros(self.basis.nrows)
        return v - apply_q_block(self.basis, apply_q_block(self.basis, v, transpose=True))


def particular_solution(p, g):
    """Minimum-norm least-squares solution of ``B x = g`` within range(B^T).

    Computes ``U R^{-T} (P^T g)_{1:q}``.  For rank-deficient B or an
    incompatible right-hand side this minimizes ``||g - B x||``; a zero-rank
    factorization gives x_p = 0.
    """
    fact = p.basis
    g = np.asarray(g, dtype=float)
    if g.shape != (fact.ncols,):
        raise ValueError(f"particular_solution: expected length {fact.ncols}, got {g.shape}")
    t = solve_triangular(fact.r_block, g[fact.permutation[:fact.rank]], trans=True,
                         overwrite_b=True)
    return apply_q_block(fact, t)


def recover_multipliers(p, residual):
    """Least-squares solve of ``B^T y = residual`` for the multipliers.

    ``residual`` is ``f - A x`` for the converged primal solution.  Computes
    ``P_{:,1:q} R^{-1} U^T residual``; entries eliminated by pivoting (beyond
    the numerical rank) are zero-padded.  For rank-deficient B the result is
    a valid least-squares y but not necessarily the minimum-norm one.
    """
    fact = p.basis
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (fact.nrows,):
        raise ValueError(f"recover_multipliers: expected length {fact.nrows}, got {residual.shape}")
    y = np.zeros(fact.ncols)
    t = apply_q_block(fact, residual, transpose=True)
    y[fact.permutation[:fact.rank]] = solve_triangular(fact.r_block, t, overwrite_b=True)
    return y
