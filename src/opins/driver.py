"""OPINS driver: split x into a particular part in range(B^T) and a
null-space part obtained from the projected, singular-but-compatible inner
equation, then recover the multipliers.

The inner equation is P A P w = P(f - A x_p), with P the orthogonal
projector onto null(B); the projected map v -> P(A(Pv)) is applied, never
assembled.  Inner solves always start from zero, which is what the
uniqueness and minimum-norm results rely on.  The true residual that
certifies convergence applies P A P to the iterate on every path; the
Krylov steps apply the cheapest operator that agrees with P A P on the
vectors they apply it to:

* no preconditioner: v -> P(A v).  The Krylov space starts at the projected
  right-hand side and every step ends in P, so each vector lies in null(B),
  where P A P v = P A v.
* P_G with GMRES: v -> A v.  Left-preconditioned GMRES applies its operator
  only to combinations of P_G outputs, which lie in null(B), and
  P_G P = P_G, so P_G A and P_G P A P agree there.  They differ by the
  rounding that leaves P_G's outputs out of null(B), which grows with the
  conditioning of the small block U^T G^{-1} U, and which A and the
  Arnoldi normalization can amplify: for a nearly diagonal A graded over
  six orders of magnitude, with B's rows on its extreme entries, the steps
  on A stagnate where those on P A P converge.  So a run on A that ends in
  ``stagnation`` with steps left (after a full restart cycle or, in a cycle
  longer than 50 steps, a stall window: ``krylov.gmres``) is run again from
  zero on P A P with the steps left; the report counts both runs' steps.
  (Going on from the stalled iterate instead fails: its residual there is
  10^3 to 10^12 times ||rhs||.)
* G^{-1} (``precond='simple'``): P A P, because G^{-1} maps out of null(B).
* P_G with MINRES: P A P.  The preconditioned Lanczos recurrence carries
  the unpreconditioned vectors A v themselves, not their P_G images; with
  A v in their place the acceptance suite's indefinite problem
  (criterion 9) stops unconverged at a full relative residual of 5e-7.

Solver rule: MINRES when A is declared symmetric and either no
preconditioner is applied or G is SPD (``InvertibleOperator.spd``) on a
system not declared singular; restarted GMRES with the preconditioner
applied from the left otherwise.  Preconditioned MINRES needs a symmetric
positive definite preconditioner, which ILU(0) of an indefinite A is not.
G^{-1} alone does not map into null(B) as P_G does, so ``precond='simple'``
on a system declared singular raises ``OpinsError``.  On a compatible
singular system an unpreconditioned solve returns the minimum-norm x; the
projected preconditioner returns a solution, but not in general that one.

Observation: one ``InnerObserver`` per solve forms every true residual the
Krylov solver asks for, computing x_n = P w on the way; with
``OpinsOptions.inner_callback`` set it is every run's callback too, and it
alone numbers the inner steps and keeps their maximum null-space purity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dnrm2

from . import krylov
from .operators import LinearOperator
from .preconditioners import InvertibleOperator, ProjectedPreconditioner, build_g
from .projection import Projector, particular_solution, recover_multipliers
from .qrcp import qrcp_factor

__all__ = ["SaddleSystem", "OpinsOptions", "OpinsSetup", "OpinsReport", "OpinsError",
           "InnerObserver", "opins_solve"]


class OpinsError(ValueError):
    """Invalid solver configuration or system."""


# relative asymmetry |u^T A v - v^T A u| / ||A||_F above which a declared
# symmetric A is rejected; rounding in the two products stays far below it
_SYMMETRY_TOL = np.sqrt(np.finfo(float).eps)


def _frobenius_norm(mat):
    """||mat||_F by BLAS dnrm2 over the stored entries (0.0 for none), which
    scales as it sums: no overflow or underflow unless the norm itself does.
    A non-canonical sparse ``mat`` has its duplicates summed on a copy."""
    if sp.issparse(mat):
        csr = mat.tocsr()
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        entries = csr.data
    else:
        entries = np.asarray(mat).ravel(order="K")
    return float(dnrm2(entries)) if entries.size else 0.0


def _real(name, values):
    """``values`` as an array, rejected unless its entries are finite real
    numbers (not complex, strings or objects)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise OpinsError(f"{name} must have real entries, got dtype {values.dtype}")
    if not np.all(np.isfinite(values)):
        raise OpinsError(f"{name} has non-finite entries")
    return values


def _check_matrix(name, mat):
    """Reject a block that is not a real, finite 2-d array or sparse
    matrix; return it, an ``np.matrix`` (2-d products) as an ndarray."""
    if sp.issparse(mat):
        values = mat.data
    elif isinstance(mat, np.ndarray):
        values = mat = np.asarray(mat)
    else:
        raise OpinsError(f"{name} must be a numpy array or a scipy.sparse matrix, "
                         f"got {type(mat).__name__}")
    if mat.ndim != 2:
        raise OpinsError(f"{name} must be 2-d, got shape {mat.shape}")
    _real(name, values)
    return mat


@dataclass
class SaddleSystem:
    """Blocks of the saddle-point system: A (n x n), B (m x n), f, g.

    Compatibility of f (f in range(A) + range(B^T)) is assumed, not checked.
    ``a_symmetric`` selects MINRES as the inner solver, by the rule of the
    module docstring; ``opins_solve`` probes it once and raises
    ``OpinsError`` when A is plainly nonsymmetric.
    A and B must be numpy arrays (an ``np.matrix`` is taken as its ndarray)
    or scipy.sparse matrices; a block of another type or shape, or with a
    complex, non-numeric or non-finite entry, raises ``OpinsError`` naming it.
    """

    a: object
    b: object
    f: np.ndarray
    g: np.ndarray
    a_symmetric: bool = False

    def __post_init__(self):
        self.a = _check_matrix("A", self.a)
        self.b = _check_matrix("B", self.b)
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
        return np.block([[a, b.T], [b, np.zeros((self.m, self.m))]])

    def rhs_full(self):
        return np.concatenate([self.f, self.g])


def relres_full(sys, x, y, ax=None):
    """Relative residual of the whole system for the pair (x, y); a zero
    right-hand side falls back to the absolute residual norm.  ``ax``, when
    given, is the caller's A x, which is then not formed again."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ax = sys.a @ x if ax is None else ax
    rhs = sys.rhs_full()
    r = rhs - np.concatenate([ax + sys.b.T @ y, sys.b @ x])
    denom = np.linalg.norm(rhs)
    if denom == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r) / denom)


@dataclass
class OpinsOptions:
    """Solver configuration; construction raises ``OpinsError`` on a value
    outside these rules.

    ``precond`` is one of ``none``, ``simple`` (G^{-1} directly), or
    ``projected`` (P_G).  Only a preconditioner reads ``g_kind``, the name
    of a G to build from A (``identity``, ``jacobi`` or ``ilu0``) or an
    ``InvertibleOperator`` that is G itself, so ``precond='none'`` keeps it
    at its default.  ``declared_singular`` is caller-supplied problem
    metadata; singularity of the null-space equation is never detected
    automatically, and ``precond='simple'`` with it raises.  Whether the
    solve runs MINRES or GMRES follows from these and
    ``SaddleSystem.a_symmetric`` (module docstring).  Both tolerances must
    be positive and finite, ``maxit`` at least 0 (0 means 10 * n) and
    ``restart`` (read by GMRES only) None or at least 1.  None, the default,
    runs cycles as long as a 32 MiB basis allows, at least 50 steps and at
    most the iteration cap (``krylov.gmres_restart``): the whole solve in
    one cycle on a problem of a few thousand unknowns, and 50 from about
    82000 on.  ``rank_tol`` is the numerical-rank threshold of the
    QRCP of B^T; when ``opins_solve`` is given an ``OpinsSetup`` the
    factorization comes from it, and its ``rank_tol`` must equal this one.

    ``inner_callback(it, x_n_k, true_relres)``, when set, sees every inner
    step: its null-space part x_n_k = P w_k of the inner iterate w_k, and
    the true relative residual ||rhs - P A x_n_k|| / ||rhs||.  It is also
    what turns on per-iteration observation: the inner solver then
    recomputes the true residual at every step, and the driver measures the
    null-space purity of every iterate, both from the one x_n_k
    (``InnerObserver``).  Without it the true residual is computed only
    where the recurrence residual meets ``solve_tol``, and the purity only
    of the final iterate.
    """

    rank_tol: float = 1e-12
    solve_tol: float = 1e-10
    maxit: int = 0
    restart: Optional[int] = None
    precond: str = "none"
    g_kind: Union[str, InvertibleOperator] = "identity"
    declared_singular: bool = False
    inner_callback: Optional[Callable] = None

    def __post_init__(self):
        if not (0 < self.rank_tol < np.inf and 0 < self.solve_tol < np.inf):
            raise OpinsError("tolerances must be positive and finite")
        if self.maxit < 0:
            raise OpinsError(f"maxit must be at least 0 (0 means 10 n), got {self.maxit}")
        if self.restart is not None and self.restart < 1:
            raise OpinsError(f"restart must be at least 1, got {self.restart}")
        if self.precond not in ("none", "simple", "projected"):
            raise OpinsError(f"unknown precond {self.precond!r}")
        if not (isinstance(self.g_kind, InvertibleOperator)
                or isinstance(self.g_kind, str) and self.g_kind in ("identity", "jacobi", "ilu0")):
            raise OpinsError(f"unknown g_kind {self.g_kind!r}")
        if self.precond == "none" and self.g_kind != "identity":
            raise OpinsError(f"precond='none' reads no g_kind, got {self.g_kind!r}")
        if self.declared_singular and self.precond == "simple":
            raise OpinsError("singular systems accept only precond='none' or the projected "
                             "preconditioner applied from the left")

    def iteration_cap(self, dim):
        """``maxit``, or 10 * max(``dim``, 1) when it is 0."""
        return self.maxit if self.maxit > 0 else 10 * max(dim, 1)


@dataclass(frozen=True, eq=False)
class OpinsSetup:
    """The state before the first inner iteration, shared by the solve, its
    metrics and the recovery of (x, y): the projector over the QRCP of B^T
    computed with ``rank_tol``, x_p, and, derived on construction, the
    projected right-hand side ``rhs`` = P(f - A x_p), the projected
    ``operator`` v -> P(A(Pv)) and ``b_norm`` = ||B||_F.  The operator is
    that of the true residual rhs - P A P w, and the Krylov steps of a solve
    with G^{-1} or of preconditioned MINRES apply it; an unpreconditioned
    solve's steps apply P A and projected-preconditioned GMRES's apply A,
    which agree with it on the vectors they are applied to (module
    docstring).  ``purity`` and ``final_metrics`` form what a solve reports,
    for ``opins_solve`` and the harness alike.
    """

    system: SaddleSystem
    rank_tol: float
    projector: Projector
    x_p: np.ndarray
    rhs: np.ndarray = field(init=False, repr=False)
    operator: LinearOperator = field(init=False, repr=False)
    b_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        a, p = self.system.a, self.projector
        object.__setattr__(self, "rhs", p.complement(self.system.f - a @ self.x_p))
        object.__setattr__(self, "operator", LinearOperator(
            dim=self.system.n, apply=lambda v: p.complement(a @ p.complement(v))))
        object.__setattr__(self, "b_norm", _frobenius_norm(self.system.b))

    @classmethod
    def build(cls, system, rank_tol):
        """Factor B^T with ``rank_tol`` (rank 0 when m = 0) and derive the rest."""
        projector = Projector(qrcp_factor(system.b.T, rank_tol))
        return cls(system, rank_tol, projector, particular_solution(projector, system.g))

    def recover(self, x_n):
        """(x, y, A x) of a null-space part x_n: x = x_p + x_n, B^T y = f - A x."""
        x = self.x_p + x_n
        ax = self.system.a @ x
        return x, recover_multipliers(self.projector, self.system.f - ax), ax

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

    def purity(self, x_n, w):
        """Null-space purity ||B x_n|| / (||B||_F ||w||) of an inner iterate
        w with x_n = P w; 0.0 for a zero w or B."""
        denom = self.b_norm * np.linalg.norm(w)
        return np.linalg.norm(self.system.b @ x_n) / denom if denom > 0 else 0.0

    def final_metrics(self, x, y, x_n=None, ax=None):
        """The final metrics of a whole-space (x, y): ``relres_x`` of x_n,
        by default P(x - x_p); ``relres_full``, from the caller's A x when
        ``ax`` is given; ||g - B x||, ||x|| and ||y||."""
        system = self.system
        if x_n is None:
            x_n = self.projector.complement(x - self.x_p)
        return dict(relres_x=self.relres_x(x_n), relres_full=relres_full(system, x, y, ax),
                    constraint_residual=float(np.linalg.norm(system.g - system.b @ x)),
                    norm_x=float(np.linalg.norm(x)), norm_y=float(np.linalg.norm(y)))


class InnerObserver:
    """The observation of one inner solve, made per solve.

    Passed to a Krylov solver as its ``residual``, ``residual(w)`` computes
    x_n = P w, keeps it, and returns ``rhs - P(A x_n)``: the operations of
    ``rhs - operator(w)``, so the same bits.  Passed as its callback, which
    runs right after the residual of the same iterate, the observer folds
    the purity of that x_n into ``purity_max`` and calls ``callback(done +
    it, x_n, true_relres)``, ``done`` being the steps of earlier runs.
    """

    def __init__(self, setup, callback):
        self.setup, self.callback = setup, callback
        self.w = self.x_n = None
        self.done, self.purity_max = 0, 0.0

    def residual(self, w):
        projector = self.setup.projector
        self.w, self.x_n = w, projector.complement(w)
        return self.setup.rhs - projector.complement(self.setup.system.a @ self.x_n)

    def __call__(self, it, w, relres):
        if w is not self.w:
            raise RuntimeError("an inner step was observed without its residual")
        self.purity_max = max(self.purity_max, self.setup.purity(self.x_n, w))
        self.callback(self.done + it, self.x_n, relres)


@dataclass
class OpinsReport:
    """Solution and diagnostics: x = x_p + x_n with x_n the projected inner w.

    ``metrics`` holds ``OpinsSetup.final_metrics`` of (x, y) and, as
    ``null_space_purity_max``, the observer's ``purity_max`` when
    ``OpinsOptions.inner_callback`` is set, otherwise the final iterate's
    ``OpinsSetup.purity`` (0 for a zero w).
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
    u^T A v with v^T A u for fixed-seed unit vectors, relative to ||A||_F.
    The probes are drawn uniform in [-1, 1), four times cheaper than normal
    draws.  A is only read, never written."""
    n = a.shape[0]
    if n == 0:
        return
    u, v = np.random.default_rng(0).uniform(-1.0, 1.0, (2, n))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    gap = abs(float(u @ (a @ v)) - float(v @ (a @ u)))
    if gap > _SYMMETRY_TOL * _frobenius_norm(a):
        raise OpinsError(
            f"A was declared symmetric but |u^T A v - v^T A u| = {gap:.3e} "
            f"exceeds {_SYMMETRY_TOL:.1e} * ||A||_F; pass a_symmetric=False")


def _build_precond(sys, opts, fact):
    """The inner preconditioner, None for ``precond='none'``, and whether
    its G is SPD; a failed ILU(0), a G of the wrong dim or a singular
    U^T G^{-1} U block is an OpinsError."""
    if opts.precond == "none":
        return None, False
    g = opts.g_kind
    if isinstance(g, str):
        try:
            g = build_g(sys.a, g)
        except ZeroDivisionError as exc:
            raise OpinsError(str(exc)) from exc
    if g.dim != sys.n:
        raise OpinsError(f"G has dim {g.dim}, but A is {sys.n} x {sys.n}")
    if opts.precond == "simple":
        return LinearOperator(dim=sys.n, apply=g.solve), g.spd
    try:
        projected = ProjectedPreconditioner(g, fact)
    except LinAlgError as exc:
        raise OpinsError(str(exc)) from exc
    return LinearOperator(dim=sys.n, apply=projected.apply), g.spd


def _rerun_on_p_a_p(setup, opts, precond, maxit, first, observer, callback):
    """GMRES on P A P from zero, with the steps that ``first``, a run on A
    that stagnated, left; its steps are numbered on from those of
    ``first``, and the outcome counts both runs'."""
    observer.done = done = first.iterations
    rerun = krylov.gmres(setup.operator, setup.rhs, opts.restart, opts.solve_tol, maxit - done,
                         left_precond=precond, callback=callback, residual=observer.residual)
    for record in rerun.history:
        record.iter += done
    return krylov.SolveOutcome(rerun.solution, rerun.status, done + rerun.iterations,
                               first.history + rerun.history)


def opins_solve(sys, opts=None):
    """Solve the saddle-point system for x and y.

    ``sys`` is a ``SaddleSystem``, whose B^T is factored here, or an
    ``OpinsSetup``, which is used as it is; a setup whose ``rank_tol`` is
    not ``opts.rank_tol`` raises ``OpinsError``.  Returns an OpinsReport.
    For a nonsingular null-space equation the x recovered is the unique
    primal solution; for compatible singular systems solved without a
    preconditioner the computed x has minimum norm among all solutions that
    minimize ||g - B x||.  Inner-solver failures surface in the report status, never
    as exceptions.
    """
    opts = opts or OpinsOptions()
    setup = sys if isinstance(sys, OpinsSetup) else None
    if setup is not None and setup.rank_tol != opts.rank_tol:
        raise OpinsError(f"setup has rank_tol={setup.rank_tol!r}, options have {opts.rank_tol!r}")
    sys = setup.system if setup is not None else sys
    maxit = opts.iteration_cap(sys.n)
    if sys.a_symmetric:
        _check_declared_symmetry(sys.a)
    if setup is None:
        setup = OpinsSetup.build(sys, opts.rank_tol)
    projector, rhs = setup.projector, setup.rhs

    observer = InnerObserver(setup, opts.inner_callback)
    callback = None if opts.inner_callback is None else observer
    precond, g_spd = _build_precond(sys, opts, setup.fact)
    use_minres = sys.a_symmetric and (precond is None or g_spd and not opts.declared_singular)
    on_a = opts.precond == "projected" and not use_minres
    # the Krylov steps' operator (module docstring); the true residual, which
    # certifies convergence, applies P A P on every path
    if precond is None:
        # every Krylov vector lies in null(B), where P A P v = P A v
        operator = LinearOperator(dim=sys.n, apply=lambda v: projector.complement(sys.a @ v))
    elif on_a:
        # every vector lies in range(P_G), within null(B), and P_G P = P_G
        operator = LinearOperator(dim=sys.n, apply=lambda v: sys.a @ v)
    else:
        operator = setup.operator
    if use_minres:
        inner = krylov.minres(operator, rhs, opts.solve_tol, maxit,
                              precond=precond, callback=callback, residual=observer.residual)
    else:
        inner = krylov.gmres(operator, rhs, opts.restart, opts.solve_tol, maxit,
                             left_precond=precond, callback=callback,
                             residual=observer.residual)
        if on_a and inner.status == krylov.STAGNATION and inner.iterations < maxit:
            inner = _rerun_on_p_a_p(setup, opts, precond, maxit, inner, observer, callback)

    x_n = projector.complement(inner.solution)
    x, y, ax = setup.recover(x_n)
    metrics = setup.final_metrics(x, y, x_n=x_n, ax=ax)
    metrics["null_space_purity_max"] = float(
        observer.purity_max if callback is not None else setup.purity(x_n, inner.solution))
    return OpinsReport(x=x, y=y, x_p=setup.x_p, x_n=x_n, rank_b=setup.fact.rank,
                       inner=inner, metrics=metrics)
