"""The benchmark's workloads: seeded problems, how one is solved, and how its
answers are checked.

A unit is one problem.  ``run()`` is the timed call (``maxit=1`` gives the
set-up call), ``outcome()`` checks what it returned, outside the timing.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

import opins.driver
import opins.harness
import opins.harness.runner
from opins.driver import OpinsOptions, SaddleSystem
from opins.harness import ProblemSpec, RunConfig

from checks import AnswerChecker
from problems import (RHS_SEED, nonsym_blocks, reservoir_standin,
                      singular_wide_system)

MAXIT = 500
# problems per workload seed: enough that the summed iteration count and the
# median solve time move little from one workload seed to the next
NONSYM_PROBLEMS = 6
SINGULAR_PROBLEMS = 3
CLI_PROBLEMS = 6
CLI_SOLVERS = ("opins-ilu", "opins-p")


@dataclass
class Outcome:
    """What one full solve of a unit returned, and which checks it failed."""

    iterations: int
    xs: list
    failures: list
    histories: list = field(default_factory=list)

    def differs_from(self, other):
        """Names of the ways this outcome is not an exact repeat of ``other``."""
        diffs = []
        if self.iterations != other.iterations:
            diffs.append("repeat_iterations")
        if not all(np.array_equal(a, b) for a, b in zip(self.xs, other.xs)):
            diffs.append("repeat_x")
        if self.histories != other.histories:
            diffs.append("repeat_history")
        return diffs


def _report_failures(report, checker):
    failures = [] if report.converged else [f"status_{report.inner.status}"]
    return failures + checker.failures(report.x, report.y, report.x_n,
                                       report.inner.solution)


class SolveUnit:
    """One problem solved through ``opins.driver.opins_solve``."""

    def __init__(self, a, b, f, g, symmetric, options, kernel=None):
        self.a, self.b, self.f, self.g = a, b, f, g
        self.symmetric = symmetric
        self.options = options
        self.checker = AnswerChecker(a, b, f, g, kernel)

    def run(self, maxit=MAXIT, tracer=None):
        a = tracer.counting_matrix(self.a) if tracer is not None else self.a
        system = SaddleSystem(a=a, b=self.b, f=self.f, g=self.g,
                              a_symmetric=self.symmetric)
        return opins.driver.opins_solve(system, OpinsOptions(maxit=maxit, **self.options))

    def outcome(self, report):
        return Outcome(report.inner.iterations, [report.x],
                       _report_failures(report, self.checker))


class CliUnit:
    """One problem run through ``opins.harness.run_case`` as ``opins-run``
    does, once per solver in CLI_SOLVERS, writing a history and a report."""

    def __init__(self, path, seed, outdir, a, reports):
        self.spec = ProblemSpec(name="reservoir-standin",
                                source={"path_a": str(path), "m": 20,
                                        "seed": RHS_SEED + seed})
        self.paths = [(outdir / f"cli-{seed}-{s}.csv", outdir / f"cli-{seed}-{s}.json")
                      for s in CLI_SOLVERS]
        self.checker = AnswerChecker(a, *nonsym_blocks(a, seed))
        self.reports = reports

    def run(self, maxit=MAXIT, tracer=None):
        # a tracer counts A products through its wrapper of the runner's
        # build_system, so it needs nothing from this call
        del self.reports[:]
        return [opins.harness.run_case(self.spec, RunConfig(
                    solver=solver, g_kind="ilu0", maxit=maxit,
                    history_path=str(history), report_path=str(report)))
                for solver, (history, report) in zip(CLI_SOLVERS, self.paths)]

    def outcome(self, records):
        failures = [f"status_{r.status}" for r in records if r.status != "converged"]
        for report in self.reports:
            failures += _report_failures(report, self.checker)
        return Outcome(sum(r.iterations for r in records),
                       [report.x for report in self.reports], failures,
                       [history.read_bytes() for history, _ in self.paths])


@contextlib.contextmanager
def captured_reports(reports):
    """Keep the OpinsReport of every ``opins_solve`` the runner makes, so the
    CLI workload can check the x and y behind each ``run_case`` record."""
    runner = opins.harness.runner
    solve = runner.__dict__["opins_solve"]

    def capture(system, opts=None):
        report = solve(system, opts)
        reports.append(report)
        return report

    runner.opins_solve = capture
    try:
        yield
    finally:
        runner.opins_solve = solve


def nonsym_ilu(seed):
    a = reservoir_standin(seed=0)
    options = dict(precond="projected", g_kind="ilu0", restart=50)
    return [SolveUnit(a, *nonsym_blocks(a, NONSYM_PROBLEMS * seed + k),
                      symmetric=False, options=options)
            for k in range(NONSYM_PROBLEMS)]


def singular_wide(seed):
    units = []
    for k in range(SINGULAR_PROBLEMS):
        a, b, f, g = singular_wide_system(SINGULAR_PROBLEMS * seed + k)
        units.append(SolveUnit(a, b, f, g, symmetric=True,
                               options=dict(declared_singular=True),
                               kernel=np.ones(a.shape[0])))
    return units


def cli_run(seed, outdir, reports):
    a = reservoir_standin(seed=0)
    path = outdir / "reservoir-standin.mtx"
    opins.harness.save_matrix_market(path, a)
    return [CliUnit(path, CLI_PROBLEMS * seed + k, outdir, a, reports)
            for k in range(CLI_PROBLEMS)]
