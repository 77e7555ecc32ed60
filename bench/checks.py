"""Answer checks computed by the benchmark itself.

Each check works from the benchmark's own copy of (A, B, f, g) and the x, y
(and null-space part x_n with the inner solution w) that a solve returned;
none reads a metric the library reported.  The projector onto null(B) comes
from LAPACK's pivoted QR (``scipy.linalg.qr``), not from ``opins.qrcp``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

RANK_TOL = 1e-12
SOLVE_TOL = 1e-10
RELRES_FULL_MAX = 1e-8
# relative size of rounding-level quantities, as in the README's purity bound
ROUNDING = 1e-12
MIN_NORM_MAX = 1e-10


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


class AnswerChecker:
    """Independent checks of one saddle-point problem's answers."""

    def __init__(self, a, b, f, g, kernel=None):
        self.a, self.b, self.f, self.g = a, b, f, g
        self.kernel = kernel
        b_dense = _dense(b)
        q_mat, r_mat, perm = sla.qr(b_dense.T, mode="economic", pivoting=True)
        diag = np.abs(np.diagonal(r_mat))
        rank = int(np.sum(diag > RANK_TOL * diag[0]))
        self.basis = q_mat[:, :rank]
        t = sla.solve_triangular(r_mat[:rank, :rank], g[perm[:rank]], trans="T")
        self.x_p = self.basis @ t
        self.b_frob = np.linalg.norm(b_dense)
        self.lead_norm = np.linalg.norm(self.complement(f - a @ self.x_p))
        self.rhs_norm = np.linalg.norm(np.concatenate([f, g]))

    def complement(self, v):
        return v - self.basis @ (self.basis.T @ v)

    def failures(self, x, y, x_n, w):
        """Names of the checks that (x, y, x_n, w) fails; empty when all pass."""
        failed = []
        relres_x = np.linalg.norm(self.complement(self.f - self.a @ x)) / self.lead_norm
        if not relres_x <= SOLVE_TOL:
            failed.append("relres_x")
        residual = np.concatenate([self.f - self.a @ x - self.b.T @ y, self.g - self.b @ x])
        if not np.linalg.norm(residual) / self.rhs_norm <= RELRES_FULL_MAX:
            failed.append("relres_full")
        scale = self.b_frob * np.linalg.norm(x) + np.linalg.norm(self.g)
        if not np.linalg.norm(self.g - self.b @ x) <= ROUNDING * scale:
            failed.append("constraint")
        if not np.linalg.norm(self.b @ x_n) <= ROUNDING * self.b_frob * np.linalg.norm(w):
            failed.append("purity")
        if self.kernel is not None:
            # x must be orthogonal to the kernel direction shared by A and B
            along = abs(self.kernel @ x) / np.linalg.norm(self.kernel)
            if not along <= MIN_NORM_MAX * np.linalg.norm(x):
                failed.append("min_norm")
        return failed
