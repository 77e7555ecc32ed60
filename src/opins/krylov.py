"""Krylov solvers for compatible, possibly singular systems.

All solvers start from the zero vector, which is what makes the minimum-norm
results for compatible singular systems hold; a zero right-hand side is
``converged`` after 0 steps, and a nonzero one whose norm underflows to 0
``breakdown`` after 0 steps: no residual can be measured relative to it.
Each completed step records the recurrence residual (preconditioned when a
preconditioner is present).  The explicitly recomputed true residual costs
one more operator application, so it is computed only where it is observed:
at every step when a callback is given, otherwise only at a step whose
recurrence residual meets the tolerance.  A run is reported ``converged``
only when both are at or below the tolerance, so a converged status always
certifies the true relative residual, and a run stops at the same step with
or without a callback.

Each solver takes an optional ``residual(x)`` that returns ``b - op(x)``,
which is also what it computes without one.  A caller that observes the
iterates passes its own, to keep what the residual computes on the way
(the driver keeps the projected iterate): a step's ``callback(iter, x,
true_relres)`` runs right after ``residual`` of the same ``x``.

``iterations`` counts completed, recorded steps: it equals ``len(history)``
for every status, and the returned solution is the iterate of the last
record.  A step that breaks down before its record is not counted.

Preconditioning contract:

* ``minres`` takes the preconditioner through the standard preconditioned
  Lanczos recurrence (the operator supplies an approximate inverse applied
  once per iteration; no symmetric factor is ever formed).
* ``gmres`` applies the preconditioner from the left to the residuals.
* ``cg`` takes no preconditioner; it reports indefinite breakdown
  (non-positive curvature, or a residual that stops decreasing) as an
  outcome, not an exception.

Vector work: ``minres`` updates vectors it allocates once per solve, in
place, with BLAS level-1 (``daxpy``, ``ddot``) and NumPy multiplications
into those vectors, in the order of the textbook recurrences.  Two rules
keep that safe for any operator:

* what ``op`` or ``precond`` returns is only read, never written into or
  kept across a call, so an operator may hand back its argument, a view, a
  buffer of its own that it reuses, or another dtype;
* an iterate handed to ``residual`` or to the callback is never written
  again: the step after an observed one updates a fresh copy, with the same
  ``daxpy`` as in place, so an observed run and an unobserved one give the
  same x bit for bit.

``gmres`` orthogonalizes in the output of the operator (or left
preconditioner), first copied to float64 when it shares memory with the
basis or has another dtype.  ``daxpy`` rounds once (FMA) where ``y + a * x``
rounds twice, so the bits of x hold per BLAS build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.blas import daxpy, ddot

from ._lapack import solve_triangular

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
    """One completed step: its recurrence relres and, where the step was
    observed, its true relres."""

    iter: int
    relres: float
    true_relres: Optional[float] = None


@dataclass
class SolveOutcome:
    solution: np.ndarray
    status: str
    iterations: int
    history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.status == CONVERGED


class _Steps:
    """The ledger of one run: ||b||, one record per completed step, the
    true residual where a step is observed, and the returned outcome."""

    def __init__(self, op, b, tol, callback, residual):
        self.op, self.tol, self.callback, self._residual = op, tol, callback, residual
        self.b = np.asarray(b, dtype=float)
        self.normb = np.linalg.norm(self.b)
        self.history = []

    def residual(self, x):
        """b - op(x), or the caller's ``residual(x)``.  (Dispatched here,
        not stored as a closure over the ledger: that cycle would keep every
        run's history alive until the collector's oldest generation runs.)"""
        if self._residual is None:
            return self.b - self.op(x)
        return self._residual(x)

    def __len__(self):
        return len(self.history)

    def observed(self, relres):
        """Whether a step needs its true residual: a callback sees every
        step, otherwise only a recurrence residual at the tolerance can
        converge."""
        return self.callback is not None or relres <= self.tol

    def record(self, relres, x):
        """Record the next step, whose iterate ``x`` is read only where the
        step is observed, and return whether it converged."""
        rec = IterationRecord(iter=len(self.history) + 1, relres=relres)
        self.history.append(rec)
        if not self.observed(relres):
            return False
        rec.true_relres = np.linalg.norm(self.residual(x)) / self.normb
        if self.callback is not None:
            self.callback(rec.iter, x, rec.true_relres)
        return relres <= self.tol and rec.true_relres <= self.tol

    def outcome(self, status, x):
        return SolveOutcome(x, status, len(self.history), self.history)


def minres(op, b, tol, maxit, precond=None, callback=None, residual=None):
    """MINRES for symmetric (possibly singular, compatible) systems.

    ``op`` is symmetric (caller-declared).  Started from zero and
    unpreconditioned, the iterates stay in range(op), so for ``b`` in
    range(op) a compatible singular solve returns the minimum-norm solution.
    Unpreconditioned, both statements need hold only on a subspace that
    holds ``b`` and that ``op`` maps into itself, where every Lanczos vector
    then lies: the driver's P A, symmetric on null(B) as P A P.
    ``tol`` bounds both the recurrence and the true relative residual, and
    ``maxit`` the steps.  ``precond``, an approximate inverse applied once
    per step, enters through the preconditioned Lanczos recurrence and must
    act positive definitely on the residual space; a nonpositive inner
    product is reported as ``breakdown``.  ``callback(iter, x, true_relres)``
    sees every step, and ``residual`` is as in the module docstring.  Every
    test is relative, the floor on the rotation's gamma to a running
    estimate of ||T_k|| (as MINRES-QLP keeps), so scaling ``op`` and ``b``
    together leaves the steps unchanged.
    """
    steps = _Steps(op, b, tol, callback, residual)
    n = op.dim
    x = np.zeros(n)
    if steps.normb == 0.0:
        return steps.outcome(BREAKDOWN if steps.b.any() else CONVERGED, x)

    r1 = steps.b.copy()
    y = precond(r1) if precond is not None else r1
    beta1 = ddot(r1, y)
    if beta1 <= 0.0:
        # b is nonzero, so rᵀM⁻¹r <= 0 only where the preconditioner is not
        # positive definite on it, or where rᵀr underflows
        return steps.outcome(BREAKDOWN, x)
    beta1 = np.sqrt(beta1)

    oldb, beta = 0.0, beta1
    # tnorm: a running estimate of ||T_k||, the scale of the floor on gamma
    dbar, epsln, phibar, tnorm = 0.0, 0.0, beta1, 0.0
    cs, sn = -1.0, 0.0
    # the solver's own vectors, updated in place; r2 starts as r1 itself,
    # and each step's residual goes to the buffer of the r1 it retires
    v, w, w1, w2 = np.empty(n), np.zeros(n), np.zeros(n), np.zeros(n)
    r2, r1 = r1, np.empty(n)
    shared = False
    status = MAX_ITERATIONS
    while len(steps) < maxit:
        np.multiply(y, 1.0 / beta, out=v)
        y = op(v)
        # r1 <- y - (beta / oldb) r1, read from op's output, never written
        # into it
        if len(steps) >= 1:
            np.multiply(r1, -(beta / oldb), out=r1)
            r1 = daxpy(y, r1, a=1.0)
        else:
            np.copyto(r1, y)
        alfa = ddot(v, r1)
        r1 = daxpy(r2, r1, a=-(alfa / beta))
        r1, r2 = r2, r1
        y = precond(r2) if precond is not None else r2
        oldb = beta
        beta = ddot(r2, y)
        if beta < 0.0:
            status = BREAKDOWN
            break
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        tnorm = max(tnorm, np.hypot(np.hypot(alfa, beta), oldb))
        gamma = max(np.hypot(gbar, beta), _EPS * tnorm)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w <- (v - oldeps w1 - delta w2) / gamma, after w1 <- w2 <- w, into
        # the buffer of the w1 it retires
        w1, w2, w = w2, w, w1
        np.copyto(w, v)
        w = daxpy(w1, w, a=-oldeps)
        w = daxpy(w2, w, a=-delta)
        np.multiply(w, 1.0 / gamma, out=w)
        x = daxpy(w, x.copy() if shared else x, a=phi)

        relres = phibar / beta1
        shared = steps.observed(relres)
        if steps.record(relres, x):
            status = CONVERGED
            break
        if beta <= _EPS * beta1:
            # Lanczos space exhausted without reaching the tolerance: stop at
            # the least-squares point (incompatible right-hand side) instead
            # of dividing by the vanishing beta next iteration
            status = BREAKDOWN
            break
    return steps.outcome(status, x)


def gmres(op, b, restart, tol, maxit, left_precond=None, callback=None, residual=None):
    """Restarted GMRES with classical Gram-Schmidt applied twice (CGS2).

    The basis is kept as rows, in one array that every restart cycle
    reuses, and each Arnoldi step orthogonalizes with two unconditional
    BLAS-2 passes ("twice is enough") through one work vector.  A step is lucky when
    the orthogonalized vector is at rounding level of ``op`` applied to the
    basis vector, and breaks down (Brown & Walker 1997) when the rotated
    diagonal is at rounding level of its Hessenberg column; the iterate of
    the last completed step is then returned.  For singular operators the
    caller asserts range(op) = range(op^T) and compatibility; started from
    zero and unpreconditioned the converged solution is then minimum-norm.
    Unpreconditioned, these need hold only on a subspace that holds ``b``
    and that ``op`` and ``residual`` map into, where every Arnoldi vector,
    each restart's included, then lies: the driver's P A on null(B).
    ``left_precond`` is applied to the residuals, each restart's included,
    which ``residual`` (module docstring) computes; the first cycle starts
    at x = 0 from ``b`` itself, with no operator application.  A restart
    cycle that improves the (preconditioned) residual by less than a factor
    of ``1 - 1e-3`` reports ``stagnation``.
    """
    steps = _Steps(op, b, tol, callback, residual)
    b, n = steps.b, op.dim
    x = np.zeros(n)
    if steps.normb == 0.0:
        return steps.outcome(BREAKDOWN if steps.b.any() else CONVERGED, x)
    pb = left_precond(b) if left_precond is not None else b
    normpb = np.linalg.norm(pb)
    if normpb == 0.0:
        return steps.outcome(BREAKDOWN, x)

    def solution_at(j):
        """Iterate of the current cycle after its step ``j``."""
        yk = solve_triangular(H[:j + 1, :j + 1], np.array(g[:j + 1]), overwrite_b=True)
        return x + yk @ V[:j + 1]

    # the basis, reused by every restart cycle (a cycle reads only the rows
    # it wrote), and the work vector of the Gram-Schmidt updates
    V = np.empty((restart + 1, n))
    update = np.empty(n)
    status = None
    prev_cycle = None
    while status is None:
        if len(steps):
            r = steps.residual(x)
            pr = left_precond(r) if left_precond is not None else r
        else:
            # x is still zero before the first record, and b - op(0) is b
            r, pr = b, pb
        beta = np.linalg.norm(pr)
        if beta / normpb <= tol and np.linalg.norm(r) / steps.normb <= tol:
            status = CONVERGED
            break
        if len(steps) >= maxit:
            status = MAX_ITERATIONS
            break
        H = np.zeros((restart, restart))
        rotations = []
        g = [float(beta)]
        np.divide(pr, beta, out=V[0])
        xk = x
        # steps of this cycle: k is the current one, done the last whose
        # Givens update completed, formed the one whose iterate xk holds
        k = done = formed = -1
        while k + 1 < restart and len(steps) < maxit and status is None:
            k += 1
            w = op(V[k])
            if left_precond is not None:
                w = left_precond(w)
            if np.may_share_memory(w, V) or w.dtype != np.float64:
                # an output that is its argument, or of another dtype: the
                # in-place float64 updates below must not reach the basis
                w = np.array(w, dtype=float)
            norm_before = np.linalg.norm(w)
            h = V[:k + 1] @ w
            w -= np.matmul(h, V[:k + 1], out=update)
            h2 = V[:k + 1] @ w
            w -= np.matmul(h2, V[:k + 1], out=update)
            # Hessenberg column in Python floats; its norm is norm_before
            col = (h + h2).tolist() + [float(np.linalg.norm(w))]
            lucky = col[k + 1] <= _EPS * norm_before
            if lucky:
                col[k + 1] = 0.0
            else:
                np.divide(w, col[k + 1], out=V[k + 1])
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
            if steps.observed(relres):
                xk = solution_at(k)
                formed = k
            if steps.record(relres, xk):
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
    return steps.outcome(status, x)


def cg(op, b, tol, maxit, callback=None, residual=None):
    """Conjugate gradients for SPD-restricted operators.

    On indefinite operators CG is expected to fail; a non-positive curvature
    ``p^T op p`` or ten consecutive iterations without residual decrease is
    reported as ``breakdown``.  ``callback`` and ``residual`` are as in the
    module docstring.
    """
    steps = _Steps(op, b, tol, callback, residual)
    x = np.zeros(op.dim)
    if steps.normb == 0.0:
        return steps.outcome(BREAKDOWN if steps.b.any() else CONVERGED, x)
    r = steps.b.copy()
    p = r.copy()
    rr = float(r @ r)
    best = np.inf
    flat = 0
    status = MAX_ITERATIONS
    while len(steps) < maxit:
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            status = BREAKDOWN
            break
        alpha = rr / pap
        x = x + alpha * p
        r = r - alpha * ap
        relres = np.linalg.norm(r) / steps.normb
        if steps.record(relres, x):
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
        rr_new = float(r @ r)
        beta = rr_new / rr
        rr = rr_new
        p = r + beta * p
    return steps.outcome(status, x)
