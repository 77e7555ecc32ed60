"""Experiment runner: one (problem, solver configuration) pair per call.

``run_case`` executes the requested solver, writes one CSV row per
iteration (``iter,relres_x,relres_full,norm_Bxn``) when a history path is
set, and writes a JSON report with the final metrics.  The rows are
computed only for a history file; without one the solvers run unobserved
and the final metrics are the same.  For solvers that split x into
particular and null-space parts (the opins family, pcg, and the
constraint-preconditioned MINRES baseline) ``norm_Bxn`` is ||B x_n|| at
that iteration; for whole-system solvers (pgmres, tsvd, nullspace-oracle)
it is the constraint violation ||g - B x||.  Direct solvers emit a single
summary row.  The opins family and pcg write ``_Case.projected_row``, which
reads the solver's own true residual and makes one product with B; every
other row is ``_Case.row`` of a whole-space (x, y), whose ``relres_x`` is
that of P (x - x_p).  An opins variant's record takes its five final
metrics from its ``opins_solve`` report, every other solver's from
``OpinsSetup.final_metrics`` of its (x, y), whose ``relres_x`` is also that
of P (x - x_p).

Every solver reads the run's one ``OpinsSetup.build`` and its QRCP of B^T.
The constraint-preconditioned baselines, pminres-ir* and pgmres, share
``oracles.constraint_preconditioned`` on the rows of B that it keeps; the
multipliers of the rows pivoted out are zero.  nullspace-oracle takes its
rank.

CSV content depends only on (problem, config), so identical inputs give
bit-identical files; wall time goes to the JSON report only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .. import krylov, oracles
from ..driver import InnerObserver, OpinsOptions, OpinsSetup, opins_solve, relres_full
from ..preconditioners import jacobi_diagonal
# only bench/tracing.py reads these; opins.driver calls them
from ..projection import particular_solution, recover_multipliers  # noqa: F401
from ..qrcp import qrcp_factor  # noqa: F401
from .problems import build_system

__all__ = ["MetricsRecord", "RunConfig", "run_case", "SOLVER_NAMES"]

SCHEMA_VERSION = 1

_OPINS_VARIANTS = {
    "opins": ("none", "identity"),
    "opins-j": ("simple", "jacobi"),
    "opins-p": ("projected", "jacobi"),
    "opins-ilu": ("simple", "ilu0"),
}


@dataclass
class MetricsRecord:
    """Final metrics of one run; ``relres_x`` and ``relres_full`` as in the
    history rows."""

    relres_x: float
    relres_full: float
    constraint_residual: float
    norm_x: float
    norm_y: float
    iterations: int
    wall_time: float
    status: str

    def as_dict(self):
        return asdict(self)


@dataclass
class RunConfig:
    """Solver selection plus tolerances and output paths.

    ``tol``, ``qrcp_tol``, ``maxit`` and ``restart`` are ``OpinsOptions``'
    ``solve_tol``, ``rank_tol``, ``maxit`` and ``restart``, defaults
    included; construction checks them through the ``OpinsOptions`` of the
    run, before any problem is loaded, and raises ``ValueError`` on a
    setting that ``_UNREAD`` lists for the solver.  ``g_kind`` is read by
    opins-j, opins-p, opins-ilu and pminres-ir* (identity or jacobi there).
    An opins variant reads ``restart`` only when the loaded system takes
    GMRES, so that one is not checked.
    """

    solver: str
    tol: float = OpinsOptions.solve_tol
    qrcp_tol: float = OpinsOptions.rank_tol
    maxit: int = OpinsOptions.maxit
    restart: int = OpinsOptions.restart
    g_kind: Optional[str] = None
    history_path: Optional[str] = None
    report_path: Optional[str] = None

    def __post_init__(self):
        name = self.solver
        if name.startswith("pminres-ir(") and name.endswith(")"):
            name = "pminres-ir" + name[len("pminres-ir("):-1]
            self.solver = name
        if name not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {name!r}; choose from {SOLVER_NAMES}")
        unread = [s for s in _UNREAD.get(name, ()) if getattr(self, s) != getattr(RunConfig, s)]
        if unread:
            raise ValueError(f"solver {name!r} takes no {', '.join(unread)}")
        if name.startswith("pminres-ir") and self.g_kind not in (None, "identity", "jacobi"):
            raise ValueError("pminres baseline supports g_kind identity or jacobi")
        _opins_options(self)


def _opins_options(config, **problem):
    """The ``OpinsOptions`` an opins variant solves with, given the problem's
    ``declared_singular`` and ``inner_callback``; for another solver, those
    of plain opins, which hold the settings it shares."""
    precond, g_kind = _OPINS_VARIANTS.get(config.solver, _OPINS_VARIANTS["opins"])
    if precond != "none" and config.g_kind is not None:
        g_kind = config.g_kind
    return OpinsOptions(rank_tol=config.qrcp_tol, solve_tol=config.tol, maxit=config.maxit,
                        restart=config.restart, precond=precond, g_kind=g_kind, **problem)


class _HistoryWriter:
    header = "iter,relres_x,relres_full,norm_Bxn"

    def __init__(self, path):
        self.rows = []
        self.path = path

    def add(self, it, rx, rfull, bxn):
        self.rows.append(f"{it},{rx:.17g},{rfull:.17g},{bxn:.17g}")

    def flush(self):
        if self.path is not None:
            with open(self.path, "w") as fh:
                fh.writelines(f"{line}\n" for line in [self.header, *self.rows])


@dataclass
class _Case:
    """Shared per-run state: the OPINS setup and the history writer."""

    setup: OpinsSetup
    writer: _HistoryWriter
    # the opins family's final metrics, from its own report; empty otherwise
    final: dict = field(default_factory=dict)

    def relres_x(self, x):
        """relres_x of the null-space part P (x - x_p) of a whole-space x."""
        setup = self.setup
        return setup.relres_x(setup.projector.complement(x - setup.x_p))

    def row(self, it, x, y, bxn):
        """History row for a whole-space iterate (x, y); ``bxn`` is the
        drift the solver reports."""
        self.writer.add(it, self.relres_x(x), relres_full(self.setup.system, x, y), bxn)

    @cached_property
    def _row_terms(self):
        system = self.setup.system
        return (np.linalg.norm(self.setup.rhs), system.g - system.b @ self.setup.x_p,
                np.linalg.norm(system.rhs_full()))

    def projected_row(self, it, x_n_k, relres):
        """History row for the null-space part x_n_k = P w_k of a
        projected-space iterate, as an ``InnerObserver`` hands it on.
        ``relres`` is the solver's true residual ||rhs - P A x_n_k|| / ||rhs||:
        relres_x(x_n_k), and ||f - A x_k - B^T y_k|| / ||rhs|| for x_k = x_p +
        x_n_k and the y_k of ``OpinsSetup.recover``.  So one B product gives
        relres_full, hypot(relres ||rhs||, ||g - B x_k||) / ||[f; g]||."""
        norm_rhs, g_res_p, norm_full = self._row_terms
        b_xn = self.setup.system.b @ x_n_k
        full = float(np.hypot(relres * norm_rhs, np.linalg.norm(g_res_p - b_xn)))
        self.writer.add(it, relres, full / norm_full if norm_full else full,
                        float(np.linalg.norm(b_xn)))

    def observer(self, callback):
        """``callback`` when a history file will be written, else None."""
        return callback if self.writer.path is not None else None


def _independent_rows(setup):
    """B's rows that the QRCP of B^T kept, in their original order."""
    return np.sort(setup.fact.permutation[:setup.fact.rank])


def _pad(system, rows, y_rows):
    """Multipliers for all of B's rows from those for ``rows``: zero on the
    rows pivoted out."""
    y = np.zeros(system.m)
    y[rows] = y_rows
    return y


def _opins_case(case, spec, config):
    system = case.setup.system
    callback = case.observer(case.projected_row)
    report = opins_solve(case.setup, _opins_options(
        config, declared_singular=spec.declared_singular, inner_callback=callback))
    if callback is not None and not report.inner.history and report.converged:
        # projected right-hand side was zero: single summary row
        case.row(0, report.x, report.y, float(np.linalg.norm(system.b @ report.x_n)))
    case.final = report.metrics
    return report.x, report.y, report.inner.status, report.inner.iterations


def _pminres_case(case, spec, config):
    system = case.setup.system
    ir_steps = int(config.solver[-1])
    n = system.n
    g_matrix = np.diag(jacobi_diagonal(system.a) if config.g_kind == "jacobi" else np.ones(n))
    rows = _independent_rows(case.setup)
    x_p = case.setup.x_p

    def on_iter(it, z_k, relres):
        case.row(it, x_p + z_k[:n], _pad(system, rows, z_k[n:]),
                 float(np.linalg.norm(system.b @ z_k[:n])))

    outcome = oracles.pminres_constraint(system, g_matrix, ir_steps, config.tol,
                                         _opins_options(config).iteration_cap(n), rows, x_p,
                                         callback=case.observer(on_iter))
    return (x_p + outcome.solution[:n], _pad(system, rows, outcome.solution[n:]),
            outcome.status, outcome.iterations)


def _pcg_case(case, spec, config):
    setup = case.setup
    observer = InnerObserver(setup, case.projected_row)
    maxit = _opins_options(config).iteration_cap(setup.system.n)
    outcome = krylov.cg(setup.operator, setup.rhs, config.tol, maxit,
                        callback=case.observer(observer), residual=observer.residual)
    x, y, _ = setup.recover(setup.projector.complement(outcome.solution))
    return x, y, outcome.status, outcome.iterations


def _pgmres_case(case, spec, config):
    system = case.setup.system
    n = system.n
    rows = _independent_rows(case.setup)
    op, prec = oracles.constraint_preconditioned(system, np.eye(n), rows, 0)

    def on_iter(it, z_k, relres):
        x_k = z_k[:n]
        case.row(it, x_k, _pad(system, rows, z_k[n:]),
                 float(np.linalg.norm(system.g - system.b @ x_k)))

    outcome = krylov.gmres(op, np.concatenate([system.f, system.g[rows]]), config.restart,
                           config.tol, _opins_options(config).iteration_cap(op.dim),
                           left_precond=prec, callback=case.observer(on_iter))
    return (outcome.solution[:n], _pad(system, rows, outcome.solution[n:]),
            outcome.status, outcome.iterations)


def _direct_case(case, spec, config):
    system = case.setup.system
    if config.solver == "tsvd":
        z = oracles.tsvd_solve(system.kkt_matrix(), system.rhs_full(), config.qrcp_tol)
        x, y = z[:system.n], z[system.n:]
    else:
        x, y = oracles.explicit_nullspace_solve(system, case.setup.fact.rank)
    case.row(0, x, y, float(np.linalg.norm(system.g - system.b @ x)))
    return x, y, "converged", 0


_CASES = {**dict.fromkeys(_OPINS_VARIANTS, _opins_case),
          "nullspace-oracle": _direct_case, "tsvd": _direct_case,
          **{f"pminres-ir{k}": _pminres_case for k in range(3)},
          "pcg": _pcg_case, "pgmres": _pgmres_case}
SOLVER_NAMES = tuple(_CASES)
# the RunConfig settings each solver never reads
_UNREAD = {"opins": ("g_kind",), "pcg": ("restart", "g_kind"), "pgmres": ("g_kind",),
           **dict.fromkeys(("tsvd", "nullspace-oracle"), ("tol", "maxit", "restart", "g_kind")),
           **{f"pminres-ir{k}": ("restart",) for k in range(3)}}


def run_case(spec, config):
    """Execute one solver on one problem; returns the final MetricsRecord.

    Writes the iteration-history CSV and the JSON report when paths are set
    in the config.  Solver failures are captured in the record's status.
    """
    system = build_system(spec)
    if _CASES[config.solver] in (_pcg_case, _pminres_case) and not system.a_symmetric:
        raise ValueError(f"solver {config.solver!r} requires a symmetric system")
    writer = _HistoryWriter(config.history_path)
    case = _Case(setup=OpinsSetup.build(system, config.qrcp_tol), writer=writer)
    started = time.perf_counter()
    x, y, status, iterations = _CASES[config.solver](case, spec, config)
    elapsed = time.perf_counter() - started
    writer.flush()

    final = case.final or case.setup.final_metrics(x, y)
    record = MetricsRecord(**{key: final[key] for key in (
        "relres_x", "relres_full", "constraint_residual", "norm_x", "norm_y")},
        iterations=iterations, wall_time=elapsed, status=status)
    if config.report_path is not None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "problem": spec.name,
            "solver": config.solver,
            "declared_singular": spec.declared_singular,
            "rank_b": int(case.setup.fact.rank),
            "metrics": record.as_dict(),
        }
        with open(config.report_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return record
