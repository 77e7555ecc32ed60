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
        # the opins-p history rows form no full residual; a whole-space
        # solver's rows and final metrics still call the runner's relres_full
        whole = opins.harness.run_case(spec, RunConfig(solver="tsvd"))
    assert replaced() == []
    assert record.status == whole.status == "converged"

    names = [span[0] for span in tracer.spans]
    assert set(names) == {
        tracing.FACTOR, tracing.SWEEP, tracing.COMPLEMENT, tracing.PARTICULAR,
        tracing.MULTIPLIERS, tracing.BUILD_G, tracing.SCHUR, tracing.G_SOLVE,
        tracing.PRECOND_APPLY, tracing.KRYLOV, tracing.OP_APPLY, tracing.A_PRODUCT,
        tracing.OPINS_SOLVE, tracing.LOAD, tracing.RELRES_FULL, tracing.RUN_CASE}
    # each run_case factors B and forms x_p once; the driver reuses its setup
    assert names.count(tracing.FACTOR) == names.count(tracing.PARTICULAR) == \
        names.count(tracing.RUN_CASE) == 2


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


def test_tracer_sees_every_projection_on_the_sparse_path(monkeypatch):
    # a well-conditioned sparse B keeps B_q and R_11 in place of a formed U;
    # the projections still go through the apply_q_block names the tracer
    # wraps, in the projection module and in the projected preconditioner
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    from test_qrcp import averaging_b

    b = averaging_b(0)
    n = b.shape[1]
    a = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    rng = np.random.default_rng(0)
    system = opins.driver.SaddleSystem(a, b, rng.standard_normal(n),
                                       b @ rng.standard_normal(n), a_symmetric=True)
    tracer = tracing.Tracer()
    with tracer.installed():
        setup = opins.driver.OpinsSetup.build(system, 1e-12)
        report = opins.driver.opins_solve(setup, opins.driver.OpinsOptions(
            precond="projected", g_kind="jacobi"))
    assert setup.fact.u is None
    assert report.converged

    names = [span[0] for span in tracer.spans]
    sweeps_under = {}
    for span in tracer.spans:
        if span[0] == tracing.SWEEP:
            parent = names[span[3]]
            sweeps_under[parent] = sweeps_under.get(parent, 0) + 1
    # two per projection and per preconditioner application, two per column
    # of the q-by-q Schur block, one per particular solution and multiplier
    # recovery; no sweep happens outside these layers
    assert sweeps_under == {
        tracing.COMPLEMENT: 2 * names.count(tracing.COMPLEMENT),
        tracing.PRECOND_APPLY: 2 * names.count(tracing.PRECOND_APPLY),
        tracing.SCHUR: 2 * setup.fact.rank,
        tracing.PARTICULAR: 1,
        tracing.MULTIPLIERS: 1,
    }
    assert names.count(tracing.PRECOND_APPLY) > 0
