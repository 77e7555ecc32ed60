"""Orthogonally projected implicit null-space solvers for saddle-point systems.

The block system

    [A  B^T] [x]   [f]
    [B   0 ] [y] = [g]

is solved for x first by splitting it into a particular part in range(B^T)
and a null-space part, with the null-space part obtained from a projected,
singular-but-compatible inner equation solved by a Krylov method.  The
orthonormal basis U of range(B^T) comes from a rank-revealing pivoted QR of
B^T (LAPACK ``geqp3``): for sparse B on the m-by-m R that LAPACK ``tpqrt``
folds B^T's nonzero rows into, block by block, otherwise on one dense n-by-m
working copy.  The factorization keeps the q-by-q triangle R_11, the pivot order and one of two
representations of U, from which x_p, the projector and y are built: U
formed once as an n-by-q matrix, or, for sparse B with nnz(B_q) + q^2 < n q
and a well-conditioned R_11 (``qrcp.SEMINORMAL_MAX_COND``), the q pivoted
rows B_q, with U = B_q^T R_11^{-1} applied without being formed.  The method
pays O(m^2 n) setup when the number of constraints m is small against n, and
each projection costs two products with U, or O(nnz(B_q) + q^2) without it.
Nonsingular systems recover the unique x; compatible singular systems
recover the x of minimum norm.
"""

from .driver import OpinsError, OpinsOptions, OpinsReport, OpinsSetup, SaddleSystem, opins_solve
from .krylov import IterationRecord, SolveOutcome, cg, gmres, minres
from .operators import LinearOperator
from .preconditioners import (InvertibleOperator, ProjectedPreconditioner,
                              build_g, ilu0_factor)
from .projection import Projector, particular_solution, recover_multipliers
from .qrcp import RangeBasisFactorization, apply_q_block, qrcp_factor

__all__ = [
    "OpinsError", "OpinsOptions", "OpinsReport", "OpinsSetup", "SaddleSystem", "opins_solve",
    "IterationRecord", "SolveOutcome", "cg", "gmres", "minres",
    "LinearOperator",
    "InvertibleOperator", "ProjectedPreconditioner", "build_g", "ilu0_factor",
    "Projector", "particular_solution", "recover_multipliers",
    "RangeBasisFactorization", "apply_q_block", "qrcp_factor",
]

__version__ = "0.1.0"
