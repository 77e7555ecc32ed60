"""Krylov solvers for compatible, possibly singular systems.

All solvers start from the zero vector, which is what makes the minimum-norm
results for compatible singular systems hold.  Each iteration records the
recurrence residual (preconditioned when a preconditioner is present).  The
explicitly recomputed true residual costs one more operator application, so
it is computed only where it is observed: at every step when a callback is
given, otherwise only at a step whose recurrence residual meets the
tolerance.  A run is reported ``converged`` only when both are at or below
the tolerance, so a converged status always certifies the true relative
residual, and a run stops at the same step with or without a callback.

Preconditioning contract:

* ``minres`` takes the preconditioner through the standard preconditioned
  Lanczos recurrence (the operator supplies an approximate inverse applied
  once per iteration; no symmetric factor is ever formed).
* ``gmres`` applies the preconditioner from the left to the residuals.
* ``cg`` uses the standard PCG recurrence and reports indefinite breakdown
  (non-positive curvature, or a residual that stops decreasing) as an
  outcome, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .operators import LinearOperator

__all__ = ["IterationRecord", "SolveOutcome", "minres", "gmres", "cg"]

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
BREAKDOWN = "breakdown"
STAGNATION = "stagnation"

# relative improvement over one full restart cycle below which GMRES gives up
_STAGNATION_FACTOR = 1e-3
_EPS = np.finfo(float).eps


@dataclass
class IterationRecord:
    """One solver iteration: recurrence relres plus named auxiliary norms."""

    iter: int
    relres: float
    aux_norms: dict = field(default_factory=dict)


@dataclass
class SolveOutcome:
    solution: np.ndarray
    status: str
    iterations: int
    history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == CONVERGED


def _observed(callback, relres, tol):
    """Whether a step needs its true residual: a callback sees every step,
    otherwise only a recurrence residual at the tolerance can converge."""
    return callback is not None or relres <= tol


def _record(history, callback, it, relres, tol, x, true_relres_of):
    """Append the record of step ``it`` and return whether it converged.

    ``aux_norms["true_relres"]`` is set exactly where ``_observed`` holds.
    """
    rec = IterationRecord(iter=it, relres=relres)
    history.append(rec)
    if not _observed(callback, relres, tol):
        return False
    true_relres = true_relres_of(x)
    rec.aux_norms["true_relres"] = true_relres
    if callback is not None:
        callback(it, x, true_relres)
    return relres <= tol and true_relres <= tol


def minres(op, b, tol, maxit, precond=None, callback=None):
    """MINRES for symmetric (possibly singular, compatible) systems.

    Started from zero and unpreconditioned, the iterates stay in range(op),
    so a compatible singular solve returns the minimum-norm solution.  A
    preconditioner enters through the preconditioned Lanczos recurrence and
    must act positive definitely on the residual space; a nonpositive inner
    product is reported as ``breakdown``.

    Parameters
    ----------
    op : LinearOperator
        Symmetric operator (caller-declared).
    b : ndarray
        Right-hand side; must lie in range(op) for min-norm guarantees.
    tol : float
        Relative residual tolerance (applied to both the recurrence residual
        and the recomputed true residual).
    maxit : int
        Iteration cap.
    precond : LinearOperator, optional
        Approximate inverse, applied once per iteration.
    callback : callable, optional
        Invoked as ``callback(iter, x_candidate, true_relres)`` each step;
        without one the true residual is computed only at steps whose
        recurrence residual meets ``tol``.
    """
    b = np.asarray(b, dtype=float)
    n = op.dim
    x = np.zeros(n)
    history = []
    normb = np.linalg.norm(b)
    if normb == 0.0:
        return SolveOutcome(x, CONVERGED, 0, history)

    true_relres_of = lambda cand: np.linalg.norm(b - op(cand)) / normb
    r1 = b.copy()
    y = precond(r1) if precond is not None else r1
    beta1 = float(r1 @ y)
    if beta1 < 0.0:
        return SolveOutcome(x, BREAKDOWN, 0, history)
    if beta1 == 0.0:
        return SolveOutcome(x, CONVERGED, 0, history)
    beta1 = np.sqrt(beta1)

    oldb, beta = 0.0, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    status = MAX_ITERATIONS
    it = 0
    while it < maxit:
        it += 1
        v = y / beta
        y = op(v)
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = precond(r2) if precond is not None else r2
        oldb = beta
        beta = float(r2 @ y)
        if beta < 0.0:
            status = BREAKDOWN
            break
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        relres = phibar / beta1
        if _record(history, callback, it, relres, tol, x, true_relres_of):
            status = CONVERGED
            break
        if beta <= np.finfo(float).eps * beta1:
            # Lanczos space exhausted without reaching the tolerance: stop at
            # the least-squares point (incompatible right-hand side) instead
            # of dividing by the vanishing beta next iteration
            status = BREAKDOWN
            break
    return SolveOutcome(x, status, it, history)


def gmres(op, b, restart, tol, maxit, left_precond=None, callback=None):
    """Restarted GMRES with classical Gram-Schmidt applied twice (CGS2).

    The basis is kept as rows and each Arnoldi step orthogonalizes with two
    unconditional BLAS-2 passes ("twice is enough").  A step is lucky when
    the orthogonalized vector is at rounding level of ``op`` applied to the
    basis vector, and breaks down (Brown & Walker 1997) when the rotated
    diagonal is at rounding level of its Hessenberg column; the iterate of
    the last completed step is then returned.  For singular operators the
    caller asserts range(op) = range(op^T) and compatibility; started from
    zero and unpreconditioned the converged solution is then minimum-norm.
    ``left_precond`` is applied to the residuals.  A restart cycle that
    improves the (preconditioned) residual by less than a factor of
    ``1 - 1e-3`` reports ``stagnation``.
    """
    b = np.asarray(b, dtype=float)
    n = op.dim
    x = np.zeros(n)
    history = []
    normb = np.linalg.norm(b)
    if normb == 0.0:
        return SolveOutcome(x, CONVERGED, 0, history)
    pb = left_precond(b) if left_precond is not None else b
    normpb = np.linalg.norm(pb)
    if normpb == 0.0:
        return SolveOutcome(x, BREAKDOWN, 0, history)
    true_relres_of = lambda cand: np.linalg.norm(b - op(cand)) / normb

    def solution_at(j):
        """Iterate of the current cycle after its step ``j``."""
        yk = sla.solve_triangular(H[:j + 1, :j + 1], g[:j + 1], lower=False)
        return x + yk @ V[:j + 1]

    it = 0
    status = None
    prev_cycle = None
    while status is None:
        r = b - op(x)
        pr = left_precond(r) if left_precond is not None else r
        beta = np.linalg.norm(pr)
        if beta / normpb <= tol and np.linalg.norm(r) / normb <= tol:
            status = CONVERGED
            break
        if it >= maxit:
            status = MAX_ITERATIONS
            break
        V = np.zeros((restart + 1, n))
        H = np.zeros((restart, restart))
        rotations = []
        g = [float(beta)]
        V[0] = pr / beta
        xk = x
        # steps of this cycle: k is the current one, done the last whose
        # Givens update completed, formed the one whose iterate xk holds
        k = done = formed = -1
        while k + 1 < restart and it < maxit and status is None:
            k += 1
            it += 1
            w = op(V[k])
            if left_precond is not None:
                w = left_precond(w)
            norm_before = np.linalg.norm(w)
            h = V[:k + 1] @ w
            w -= h @ V[:k + 1]
            h2 = V[:k + 1] @ w
            w -= h2 @ V[:k + 1]
            # Hessenberg column in Python floats; its norm is norm_before
            col = (h + h2).tolist() + [float(np.linalg.norm(w))]
            lucky = col[k + 1] <= _EPS * norm_before
            if lucky:
                col[k + 1] = 0.0
            else:
                V[k + 1] = w / col[k + 1]
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            denom = float(np.hypot(col[k], col[k + 1]))
            if denom <= _EPS * norm_before:
                status = BREAKDOWN
                break
            c, s = col[k] / denom, col[k + 1] / denom
            rotations.append((c, s))
            H[:k + 1, k] = col[:k] + [denom]
            g.append(-s * g[k])
            g[k] = c * g[k]
            done = k

            relres = abs(g[k + 1]) / normpb
            if _observed(callback, relres, tol):
                xk = solution_at(k)
                formed = k
            if _record(history, callback, it, relres, tol, xk, true_relres_of):
                status = CONVERGED
            elif lucky:
                # invariant subspace reached without meeting the tolerance
                status = BREAKDOWN
        # the triangle and g[:done + 1] are final once step done completes,
        # so forming the iterate here gives the same x as forming it then
        x = xk if formed == done else solution_at(done)
        cycle_res = abs(g[-1]) / normpb
        full_cycle = k + 1 == restart
        if status is None and full_cycle and prev_cycle is not None \
                and cycle_res > (1.0 - _STAGNATION_FACTOR) * prev_cycle:
            status = STAGNATION
        if full_cycle:
            prev_cycle = cycle_res
    return SolveOutcome(x, status, it, history)


def cg(op, b, tol, maxit, precond=None, callback=None):
    """Conjugate gradients for SPD-restricted operators.

    On indefinite operators CG is expected to fail; a non-positive curvature
    ``p^T op p`` or ten consecutive iterations without residual decrease is
    reported as ``breakdown``.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros(op.dim)
    history = []
    normb = np.linalg.norm(b)
    if normb == 0.0:
        return SolveOutcome(x, CONVERGED, 0, history)
    true_relres_of = lambda cand: np.linalg.norm(b - op(cand)) / normb
    r = b.copy()
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    best = np.inf
    flat = 0
    status = MAX_ITERATIONS
    it = 0
    while it < maxit:
        it += 1
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            status = BREAKDOWN
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        relres = np.linalg.norm(r) / normb
        if _record(history, callback, it, relres, tol, x, true_relres_of):
            status = CONVERGED
            break
        if relres >= best:
            flat += 1
            if flat >= 10:
                status = BREAKDOWN
                break
        else:
            best = relres
            flat = 0
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return SolveOutcome(x, status, it, history)
