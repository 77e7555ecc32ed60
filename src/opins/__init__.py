"""Orthogonally projected implicit null-space solvers for saddle-point systems.

The block system

    [A  B^T] [x]   [f]
    [B   0 ] [y] = [g]

is solved for x first by splitting it into a particular part in range(B^T)
and a null-space part, with the null-space part obtained from a projected,
singular-but-compatible inner equation solved by a Krylov method.  The
orthonormal basis U of range(B^T) comes from one rank-revealing pivoted QR
of B^T (``opins.qrcp``), which x_p, the projector and the multiplier
recovery all read.  Nonsingular systems recover the unique x; compatible
singular systems recover the x of minimum norm.
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
