"""The library names the benchmark's tracer patches still resolve, are called
by a solve, and are restored when the tracer is removed.

``bench/tracing.py`` wraps public names where their callers look them up, so
a renamed or deleted name would break only the benchmark, which is not part
of this suite.
"""

import pathlib

import numpy as np
import scipy.sparse as sp

import opins.driver
import opins.harness
import opins.harness.runner
import opins.krylov
import opins.operators
import opins.preconditioners
import opins.projection
from opins.harness import ProblemSpec, RunConfig, save_matrix_market

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# every module or class whose namespace the tracer may patch
OWNERS = (opins.driver, opins.harness, opins.harness.runner, opins.krylov,
          opins.preconditioners, opins.projection, opins.projection.Projector,
          opins.preconditioners.ProjectedPreconditioner, opins.operators.LinearOperator)


def test_tracer_hooks_are_called_and_restored(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    n = 20
    a = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    save_matrix_market(tmp_path / "a.mtx", a)
    spec = ProblemSpec(name="tridiagonal", source={"path_a": str(tmp_path / "a.mtx"),
                                                   "m": 3, "seed": 0}, a_symmetric=True)
    config = RunConfig(solver="opins-p", history_path=str(tmp_path / "h.csv"))

    before = [(owner, name, value) for owner in OWNERS for name, value in vars(owner).items()]

    def replaced():
        return [(owner, name) for owner, name, value in before
                if vars(owner).get(name) is not value]

    tracer = tracing.Tracer()
    with tracer.installed():
        assert len(replaced()) == 20
        record = opins.harness.run_case(spec, config)
    assert replaced() == []
    assert record.status == "converged"

    names = [span[0] for span in tracer.spans]
    assert set(names) == {
        tracing.FACTOR, tracing.SWEEP, tracing.COMPLEMENT, tracing.PARTICULAR,
        tracing.MULTIPLIERS, tracing.BUILD_G, tracing.SCHUR, tracing.G_SOLVE,
        tracing.PRECOND_APPLY, tracing.KRYLOV, tracing.OP_APPLY, tracing.A_PRODUCT,
        tracing.OPINS_SOLVE, tracing.LOAD, tracing.RELRES_FULL, tracing.RUN_CASE}
    # the runner factors B and forms x_p once; the driver reuses its setup
    assert names.count(tracing.FACTOR) == names.count(tracing.PARTICULAR) == 1


def test_runner_solve_is_captured_by_the_bench_workload(monkeypatch):
    # bench/workloads.py checks each run_case's answer by wrapping the
    # runner's opins_solve with a (system, opts=None) signature
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    spec = ProblemSpec(name="random", source={"kind": "random", "seed": 0}, a_symmetric=True)
    reports = []
    with workloads.captured_reports(reports):
        record = opins.harness.run_case(spec, RunConfig(solver="opins-p"))
    assert record.status == "converged"
    assert len(reports) == 1
    assert float(np.linalg.norm(reports[0].x)) == record.norm_x
    assert reports[0].inner.iterations == record.iterations
