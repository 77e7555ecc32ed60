"""Experiment harness: Matrix Market ingestion, problem generators, metrics,
and the solver-comparison runner behind the ``opins-run`` CLI."""

from ..driver import relres_full
from .mmio import MatrixMarketError, load_matrix_market, load_vector, save_matrix_market
from .problems import ProblemSpec, build_system, generate_problem, problem_from_files
from .runner import MetricsRecord, RunConfig, run_case

__all__ = [
    "MetricsRecord", "relres_full",
    "MatrixMarketError", "load_matrix_market", "load_vector", "save_matrix_market",
    "ProblemSpec", "build_system", "generate_problem", "problem_from_files",
    "RunConfig", "run_case",
]
