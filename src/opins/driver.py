"""OPINS driver: split x into a particular part in range(B^T) and a
null-space part obtained from the projected, singular-but-compatible inner
equation, then recover the multipliers.

The inner coefficient operator is the projected map v -> P(A(Pv)) with P the
orthogonal projector onto null(B); it is applied, never assembled.  Inner
solves always start from zero, which is what the uniqueness and minimum-norm
results rely on.

Singular-system guard: when the caller declares the null-space equation
singular, only an unpreconditioned solve or the projected preconditioner
applied from the LEFT is accepted.  Applying a preconditioner through the
symmetric recurrence can move iterates out of null(B)-consistent subspaces
and silently lose the minimum-norm property, so that combination is rejected
with a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import krylov
from .operators import LinearOperator
from .preconditioners import InvertibleOperator, ProjectedPreconditioner, build_g
from .projection import Projector, particular_solution, recover_multipliers
from .qrcp import qrcp_factor

__all__ = ["SaddleSystem", "OpinsOptions", "OpinsSetup", "OpinsReport", "OpinsError",
           "opins_solve"]


class OpinsError(ValueError):
    """Invalid solver configuration or system."""


# relative asymmetry |u^T A v - v^T A u| / ||A||_F above which a declared
# symmetric A is rejected; rounding in the two products stays far below it
_SYMMETRY_TOL = np.sqrt(np.finfo(float).eps)


def _frobenius_norm(mat):
    if sp.issparse(mat):
        return float(spla.norm(mat))
    return float(np.linalg.norm(np.asarray(mat)))


def _real(name, values):
    """``values`` as an array, rejected unless its entries are real numbers
    (not complex, strings or objects)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise OpinsError(f"{name} must have real entries, got dtype {values.dtype}")
    return values


def _check_matrix(name, mat):
    """Reject a block that is not a real 2-d array or sparse matrix, or not
    finite."""
    if sp.issparse(mat):
        values = mat.data
    elif isinstance(mat, np.ndarray):
        values = mat
    else:
        raise OpinsError(f"{name} must be a numpy array or a scipy.sparse matrix, "
                         f"got {type(mat).__name__}")
    if mat.ndim != 2:
        raise OpinsError(f"{name} must be 2-d, got shape {mat.shape}")
    _real(name, values)
    if not np.all(np.isfinite(values)):
        raise OpinsError(f"{name} has non-finite entries")


@dataclass
class SaddleSystem:
    """Blocks of the saddle-point system: A (n x n), B (m x n), f, g.

    Compatibility of f (f in range(A) + range(B^T)) is assumed, not checked.
    ``a_symmetric`` selects the symmetric inner solver; ``opins_solve``
    probes it once and raises ``OpinsError`` when A is plainly nonsymmetric.
    A and B must be numpy arrays or scipy.sparse matrices; a block of another
    type, of the wrong shape, or with a complex, non-numeric or non-finite
    entry raises ``OpinsError`` naming it.
    """

    a: object
    b: object
    f: np.ndarray
    g: np.ndarray
    a_symmetric: bool = False

    def __post_init__(self):
        _check_matrix("A", self.a)
        _check_matrix("B", self.b)
        self.f = _real("f", self.f).astype(float, copy=False)
        self.g = _real("g", self.g).astype(float, copy=False)
        n_a, n_a2 = self.a.shape
        m_b, n_b = self.b.shape
        if n_a != n_a2:
            raise OpinsError(f"A must be square, got {self.a.shape}")
        if n_b != n_a:
            raise OpinsError(f"B has {n_b} columns but A is {n_a} x {n_a}")
        if self.f.shape != (n_a,):
            raise OpinsError(f"f has shape {self.f.shape}, expected ({n_a},)")
        if self.g.shape != (m_b,):
            raise OpinsError(f"g has shape {self.g.shape}, expected ({m_b},)")
        for name, vec in (("f", self.f), ("g", self.g)):
            if not np.all(np.isfinite(vec)):
                raise OpinsError(f"{name} has non-finite entries")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[0]

    def kkt_matrix(self):
        """Dense assembled KKT matrix (oracle/metric use only)."""
        a = self.a.toarray() if sp.issparse(self.a) else np.asarray(self.a, float)
        b = self.b.toarray() if sp.issparse(self.b) else np.asarray(self.b, float)
        k = np.zeros((self.n + self.m, self.n + self.m))
        k[:self.n, :self.n] = a
        k[:self.n, self.n:] = b.T
        k[self.n:, :self.n] = b
        return k

    def rhs_full(self):
        return np.concatenate([self.f, self.g])


def relres_full(sys, x, y):
    """Relative residual of the whole system for the pair (x, y); a zero
    right-hand side falls back to the absolute residual norm."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = sys.rhs_full() - np.concatenate([sys.a @ x + sys.b.T @ y, sys.b @ x])
    denom = np.linalg.norm(sys.rhs_full())
    if denom == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r) / denom)


@dataclass
class OpinsOptions:
    """Solver configuration.

    ``precond`` is one of ``none``, ``simple`` (G^{-1} directly), or
    ``projected`` (P_G).  ``g_kind`` picks the G builder; ``user-operator``
    takes ``g_op``.  ``precond_side='auto'`` resolves to the symmetric
    recurrence for symmetric nonsingular problems and to left application
    otherwise.  ``declared_singular`` is caller-supplied problem metadata;
    singularity of the null-space equation is never detected automatically.
    ``maxit=0`` means 10 * n.  Both tolerances must be positive and finite,
    ``maxit`` at least 0 and ``restart`` at least 1, or construction raises
    ``OpinsError``.  ``rank_tol`` is the numerical-rank threshold of
    the QRCP of B^T; when ``opins_solve`` is given an ``OpinsSetup`` the
    factorization comes from it, and its ``rank_tol`` must equal this one.

    ``inner_callback(it, w_k, true_relres)``, when set, sees every inner
    iterate.  It is also what turns on per-iteration observation: the inner
    solver then recomputes the true residual at every step, and the driver
    measures the null-space purity of every iterate.  Without it the true
    residual is computed only where the recurrence residual meets
    ``solve_tol``, and the purity only of the final iterate.
    """

    rank_tol: float = 1e-12
    solve_tol: float = 1e-10
    maxit: int = 0
    restart: int = 50
    precond: str = "none"
    g_kind: str = "identity"
    g_op: Optional[InvertibleOperator] = None
    precond_side: str = "auto"
    declared_singular: bool = False
    inner_callback: Optional[Callable] = None

    def __post_init__(self):
        if not (0 < self.rank_tol < np.inf and 0 < self.solve_tol < np.inf):
            raise OpinsError("tolerances must be positive and finite")
        if self.maxit < 0:
            raise OpinsError(f"maxit must be at least 0 (0 means 10 n), got {self.maxit}")
        if self.restart < 1:
            raise OpinsError(f"restart must be at least 1, got {self.restart}")
        if self.precond not in ("none", "simple", "projected"):
            raise OpinsError(f"unknown precond {self.precond!r}")
        if self.g_kind not in ("identity", "jacobi", "ilu0", "user-operator"):
            raise OpinsError(f"unknown g_kind {self.g_kind!r}")
        if self.precond_side not in ("auto", "left", "symmetric"):
            raise OpinsError(f"unknown precond_side {self.precond_side!r}")


@dataclass(frozen=True, eq=False)
class OpinsSetup:
    """The state before the first inner iteration, shared by the solve, its
    metrics and the multiplier recovery: the projector over the QRCP of B^T
    computed with ``rank_tol``, x_p, and, derived on construction, the
    projected right-hand side ``rhs`` = P(f - A x_p) and the projected
    ``operator`` v -> P(A(Pv)).
    """

    system: SaddleSystem
    rank_tol: float
    projector: Projector
    x_p: np.ndarray
    rhs: np.ndarray = field(init=False, repr=False)
    operator: LinearOperator = field(init=False, repr=False)

    def __post_init__(self):
        a, p = self.system.a, self.projector
        object.__setattr__(self, "rhs", p.complement(self.system.f - a @ self.x_p))
        object.__setattr__(self, "operator", LinearOperator(
            dim=self.system.n, apply=lambda v: p.complement(a @ p.complement(v))))

    @classmethod
    def build(cls, system, rank_tol):
        """Factor B^T with ``rank_tol`` (rank 0 when m = 0) and derive the rest."""
        projector = Projector(qrcp_factor(system.b.T, rank_tol))
        return cls(system, rank_tol, projector, particular_solution(projector, system.g))

    @property
    def fact(self):
        """The range-basis factorization of B^T."""
        return self.projector.basis

    def relres_x(self, x_n):
        """||rhs - P A x_n|| / ||rhs||: 0.0 for 0/0, inf when only ||rhs|| is 0."""
        ax_n = self.system.a @ np.asarray(x_n, dtype=float)
        num = np.linalg.norm(self.rhs - self.projector.complement(ax_n))
        denom = np.linalg.norm(self.rhs)
        if denom == 0.0:
            return 0.0 if num == 0.0 else np.inf
        return float(num / denom)


@dataclass
class OpinsReport:
    """Solution and diagnostics: x = x_p + x_n with x_n the projected inner w.

    ``metrics["null_space_purity_max"]`` is ||B P w|| / (||B||_F ||w||) for
    an inner iterate w: its maximum over every iterate when
    ``OpinsOptions.inner_callback`` is set, otherwise its value at the final
    iterate (0 for a zero w).
    """

    x: np.ndarray
    y: np.ndarray
    x_p: np.ndarray
    x_n: np.ndarray
    rank_b: int
    inner: krylov.SolveOutcome
    metrics: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.inner.status == krylov.CONVERGED


def _check_declared_symmetry(a):
    """Two-probe check that a declared symmetric A is symmetric: compare
    u^T A v with v^T A u for fixed-seed unit vectors, relative to ||A||_F."""
    n = a.shape[0]
    if n == 0:
        return
    u, v = np.random.default_rng(0).standard_normal((2, n))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    gap = abs(float(u @ (a @ v)) - float(v @ (a @ u)))
    if gap > _SYMMETRY_TOL * _frobenius_norm(a):
        raise OpinsError(
            f"A was declared symmetric but |u^T A v - v^T A u| = {gap:.3e} "
            f"exceeds {_SYMMETRY_TOL:.1e} * ||A||_F; pass a_symmetric=False")


def _resolve_side(sys, opts):
    if opts.precond == "none":
        return None
    side = opts.precond_side
    if side == "auto":
        if opts.declared_singular:
            side = "left"
        elif sys.a_symmetric:
            side = "symmetric"
        else:
            side = "left"
    if opts.declared_singular:
        if opts.precond == "simple":
            raise OpinsError(
                "singular systems accept only precond='none' or the projected "
                "preconditioner applied from the left")
        if side == "symmetric":
            raise OpinsError(
                "symmetric preconditioner application can alter the null space "
                "of the projected operator; use precond_side='left' (or no "
                "preconditioner) for singular systems")
    if not sys.a_symmetric and side == "symmetric":
        raise OpinsError("symmetric preconditioner application requires a symmetric system")
    return side


def _build_precond(sys, opts, fact):
    if opts.precond == "none":
        return None
    if opts.g_kind == "user-operator":
        if opts.g_op is None:
            raise OpinsError("g_kind='user-operator' requires g_op")
        g_op = opts.g_op
    else:
        g_op = build_g(sys.a, opts.g_kind)
    apply = g_op.solve if opts.precond == "simple" else ProjectedPreconditioner(g_op, fact).apply
    return LinearOperator(dim=sys.n, apply=apply)


def opins_solve(sys, opts=None):
    """Solve the saddle-point system for x and y.

    ``sys`` is a ``SaddleSystem``, whose B^T is factored here, or an
    ``OpinsSetup``, which is used as it is; a setup whose ``rank_tol`` is
    not ``opts.rank_tol`` raises ``OpinsError``.  Returns an OpinsReport.
    For a nonsingular null-space equation the x recovered is the unique
    primal solution; for compatible singular systems solved without a
    preconditioner (or with the projected preconditioner from the left) the
    computed x has minimum norm among all solutions that minimize
    ||g - B x||.  Inner-solver failures surface in the report status, never
    as exceptions.
    """
    opts = opts or OpinsOptions()
    setup = sys if isinstance(sys, OpinsSetup) else None
    if setup is not None and setup.rank_tol != opts.rank_tol:
        raise OpinsError(f"setup has rank_tol={setup.rank_tol!r}, options have {opts.rank_tol!r}")
    sys = setup.system if setup is not None else sys
    maxit = opts.maxit if opts.maxit > 0 else 10 * max(sys.n, 1)
    side = _resolve_side(sys, opts)
    if sys.a_symmetric:
        _check_declared_symmetry(sys.a)
    if setup is None:
        setup = OpinsSetup.build(sys, opts.rank_tol)
    projector, rhs = setup.projector, setup.rhs

    b_norm_frob = _frobenius_norm(sys.b)

    def purity_of(x_n_k, w_k):
        denom = b_norm_frob * np.linalg.norm(w_k)
        drift = np.linalg.norm(sys.b @ x_n_k)
        return drift / denom if denom > 0 else 0.0

    purity = []
    inner_cb = None
    if opts.inner_callback is not None:
        def inner_cb(it, w_k, relres):
            purity.append(purity_of(projector.complement(w_k), w_k))
            opts.inner_callback(it, w_k, relres)

    precond = _build_precond(sys, opts, setup.fact)
    if sys.a_symmetric and not (side == "left" and precond is not None):
        inner = krylov.minres(setup.operator, rhs, opts.solve_tol, maxit,
                              precond=precond, callback=inner_cb)
    else:
        inner = krylov.gmres(setup.operator, rhs, opts.restart, opts.solve_tol, maxit,
                             left_precond=precond, callback=inner_cb)

    x_n = projector.complement(inner.solution)
    if inner_cb is None:
        purity.append(purity_of(x_n, inner.solution))
    x = setup.x_p + x_n
    y = recover_multipliers(projector, sys.f - sys.a @ x)

    metrics = {
        "relres_x": setup.relres_x(x_n),
        "constraint_residual": float(np.linalg.norm(sys.g - sys.b @ x)),
        "norm_x": float(np.linalg.norm(x)),
        "null_space_purity_max": float(max(purity)) if purity else 0.0,
        "relres_full": relres_full(sys, x, y),
        "norm_y": float(np.linalg.norm(y)),
    }
    return OpinsReport(x=x, y=y, x_p=setup.x_p, x_n=x_n, rank_b=setup.fact.rank,
                       inner=inner, metrics=metrics)
