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
summary row.  Every row but the projected-space rows of the opins family
and pcg goes through ``_Case.row``, whose ``relres_x`` is that of
P (x - x_p), as in the final record.

Every solver reads the setup's one QRCP of B^T.  The two
constraint-preconditioned baselines, pminres-ir* and pgmres, share
``oracles.constraint_preconditioned`` and work on the rows of B that it
keeps; the multipliers of the rows pivoted out are zero.  nullspace-oracle
takes its rank.

CSV content depends only on (problem, config), so identical inputs give
bit-identical files; wall time goes to the JSON report only.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .. import krylov, oracles
from ..driver import OpinsOptions, OpinsSetup, opins_solve, relres_full
from ..projection import Projector, particular_solution, recover_multipliers
from ..qrcp import qrcp_factor
from .problems import build_system

__all__ = ["MetricsRecord", "RunConfig", "run_case", "SOLVER_NAMES"]

SCHEMA_VERSION = 1

SOLVER_NAMES = ("opins", "opins-j", "opins-p", "opins-ilu", "nullspace-oracle",
                "tsvd", "pminres-ir0", "pminres-ir1", "pminres-ir2", "pcg", "pgmres")

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

    ``g_kind`` overrides the G of the opins family and of pminres-ir*
    (identity or jacobi there); the other solvers take none.
    """

    solver: str
    tol: float = 1e-10
    qrcp_tol: float = 1e-12
    maxit: int = 0
    restart: int = 50
    precond_side: str = "auto"
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
        if not (0 < self.tol < np.inf and 0 < self.qrcp_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.maxit < 0:
            raise ValueError(f"maxit must be at least 0 (0 means 10 n), got {self.maxit}")
        if self.restart < 1:
            raise ValueError(f"restart must be at least 1, got {self.restart}")
        if self.g_kind is not None and name not in _OPINS_VARIANTS:
            if not name.startswith("pminres-ir"):
                raise ValueError(f"solver {name!r} takes no g_kind")
            if self.g_kind not in ("identity", "jacobi"):
                raise ValueError("pminres baseline supports g_kind identity or jacobi")


class _HistoryWriter:
    header = "iter,relres_x,relres_full,norm_Bxn"

    def __init__(self, path):
        self.rows = []
        self.path = path

    def add(self, it, rx, rfull, bxn):
        self.rows.append(f"{it},{rx:.17g},{rfull:.17g},{bxn:.17g}")

    def flush(self):
        if self.path is None:
            return
        with open(self.path, "w") as fh:
            fh.write(self.header + "\n")
            for row in self.rows:
                fh.write(row + "\n")


@dataclass
class _Case:
    """Shared per-run state: the OPINS setup and the history writer."""

    setup: OpinsSetup
    writer: _HistoryWriter

    def relres_x(self, x):
        """relres_x of the null-space part P (x - x_p) of a whole-space x."""
        setup = self.setup
        return setup.relres_x(setup.projector.complement(x - setup.x_p))

    def row(self, it, x, y, bxn):
        """History row for a whole-space iterate (x, y); ``bxn`` is the
        drift the solver reports."""
        self.writer.add(it, self.relres_x(x), relres_full(self.setup.system, x, y), bxn)

    def projected_row(self, it, w_k, relres):
        """History row for a projected-space iterate: x_n = P w_k and the
        multipliers recovered from it.  ``relres`` is the solver's true
        residual ||rhs - P A P w_k|| / ||rhs||, which is relres_x(P w_k)."""
        setup, system = self.setup, self.setup.system
        x_n_k = setup.projector.complement(w_k)
        x_k = setup.x_p + x_n_k
        y_k = recover_multipliers(setup.projector, system.f - system.a @ x_k)
        self.writer.add(it, relres, relres_full(system, x_k, y_k),
                        float(np.linalg.norm(system.b @ x_n_k)))

    def observer(self, callback):
        """``callback`` when a history file will be written, else None: each
        history row costs multipliers, a full residual and a projection."""
        return callback if self.writer.path is not None else None


def _make_case(system, config, writer):
    # OpinsSetup.build's steps, through the names bench/tracing.py wraps here
    projector = Projector(qrcp_factor(system.b.T, config.qrcp_tol))
    setup = OpinsSetup(system, config.qrcp_tol, projector,
                       particular_solution(projector, system.g))
    return _Case(setup=setup, writer=writer)


def _independent_rows(setup):
    """B's rows that the QRCP of B^T kept, in their original order."""
    return np.sort(setup.fact.permutation[:setup.fact.rank])


def _pad(system, rows, y_rows):
    """Multipliers for all of B's rows from those for ``rows``: zero on the
    rows pivoted out."""
    y = np.zeros(system.m)
    y[rows] = y_rows
    return y


def _maxit(config, dim):
    return config.maxit if config.maxit > 0 else 10 * max(dim, 1)


def _opins_case(case, spec, config):
    system = case.setup.system
    precond, default_g = _OPINS_VARIANTS[config.solver]
    callback = case.observer(case.projected_row)
    opts = OpinsOptions(rank_tol=config.qrcp_tol, solve_tol=config.tol,
                        maxit=config.maxit, restart=config.restart,
                        precond=precond, g_kind=config.g_kind or default_g,
                        precond_side=config.precond_side,
                        declared_singular=spec.declared_singular,
                        inner_callback=callback)
    report = opins_solve(case.setup, opts)
    if callback is not None and not report.inner.history and report.converged:
        # projected right-hand side was zero: single summary row
        case.row(0, report.x, report.y, float(np.linalg.norm(system.b @ report.x_n)))
    return report.x, report.y, report.inner.status, report.inner.iterations


def _pminres_case(case, spec, config):
    system = case.setup.system
    ir_steps = int(config.solver[-1])
    n = system.n
    if config.g_kind == "jacobi":
        g_matrix = np.diag(np.abs(np.asarray(system.a.diagonal(), dtype=float)))
    else:
        g_matrix = np.eye(n)
    rows = _independent_rows(case.setup)
    # the baseline's own x_p solves B x = g by least squares; the setup's
    # agrees to rounding on compatible or full-rank constraints, but whether
    # the indefinite preconditioned recurrence converges hinges on that rounding
    b = system.b.toarray() if sp.issparse(system.b) else np.asarray(system.b, dtype=float)
    x_p = np.linalg.lstsq(b, system.g, rcond=None)[0]

    def on_iter(it, z_k, relres):
        case.row(it, x_p + z_k[:n], _pad(system, rows, z_k[n:]),
                 float(np.linalg.norm(system.b @ z_k[:n])))

    outcome = oracles.pminres_constraint(system, g_matrix, ir_steps, config.tol,
                                         _maxit(config, n), rows, x_p,
                                         callback=case.observer(on_iter))
    return (x_p + outcome.solution[:n], _pad(system, rows, outcome.solution[n:]),
            outcome.status, outcome.iterations)


def _pcg_case(case, spec, config):
    setup, system = case.setup, case.setup.system
    outcome = krylov.cg(setup.operator, setup.rhs, config.tol, _maxit(config, system.n),
                        callback=case.observer(case.projected_row))
    x = setup.x_p + setup.projector.complement(outcome.solution)
    y = recover_multipliers(setup.projector, system.f - system.a @ x)
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
                           config.tol, _maxit(config, op.dim), left_precond=prec,
                           callback=case.observer(on_iter))
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


def run_case(spec, config):
    """Execute one solver on one problem; returns the final MetricsRecord.

    Writes the iteration-history CSV and the JSON report when paths are set
    in the config.  Solver failures are captured in the record's status.
    """
    system = build_system(spec)
    needs_symmetry = config.solver in ("pcg", "pminres-ir0", "pminres-ir1", "pminres-ir2")
    if needs_symmetry and not system.a_symmetric:
        raise ValueError(f"solver {config.solver!r} requires a symmetric system")
    writer = _HistoryWriter(config.history_path)
    case = _make_case(system, config, writer)
    started = time.perf_counter()
    if config.solver in _OPINS_VARIANTS:
        x, y, status, iterations = _opins_case(case, spec, config)
    elif config.solver.startswith("pminres-ir"):
        x, y, status, iterations = _pminres_case(case, spec, config)
    elif config.solver == "pcg":
        x, y, status, iterations = _pcg_case(case, spec, config)
    elif config.solver == "pgmres":
        x, y, status, iterations = _pgmres_case(case, spec, config)
    else:
        x, y, status, iterations = _direct_case(case, spec, config)
    elapsed = time.perf_counter() - started
    writer.flush()

    record = MetricsRecord(
        relres_x=case.relres_x(x),
        relres_full=relres_full(system, x, y),
        constraint_residual=float(np.linalg.norm(system.g - system.b @ x)),
        norm_x=float(np.linalg.norm(x)),
        norm_y=float(np.linalg.norm(y)),
        iterations=iterations,
        wall_time=elapsed,
        status=status,
    )
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
