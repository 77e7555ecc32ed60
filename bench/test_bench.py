"""Tests of the benchmark's own code.  Run from the repository root with

    PYTHONPATH=src python3 -m pytest bench -q
"""

import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "bench", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import opins.driver  # noqa: E402
import workloads  # noqa: E402
from problems import reservoir_standin  # noqa: E402
from run import Tally  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def anchor():
    """The nonsym-ilu workload's first problem at workload seed 0, solved."""
    unit = workloads.nonsym_ilu(0)[0]
    return unit, unit.run()


def test_standin_copy_matches_acceptance_suite():
    from test_acceptance import _reservoir_standin
    ours, theirs = reservoir_standin(seed=0), _reservoir_standin(seed=0)
    assert ours.shape == theirs.shape == (3312, 3312)
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(ours.data, theirs.data)


def test_anchor_reproduces_baseline_iterations(anchor):
    unit, report = anchor
    outcome = unit.outcome(report)
    assert report.inner.status == "converged"
    assert report.inner.iterations == 71
    assert outcome.failures == []


def test_perturbed_x_counts_as_failure(anchor):
    unit, report = anchor
    tally = Tally()
    tally.add(0, unit.outcome(report))
    x = report.x.copy()
    x[0] += 1e-6 * np.linalg.norm(x)
    failures = unit.checker.failures(x, report.y, report.x_n, report.inner.solution)
    assert "relres_full" in failures and "constraint" in failures
    tally.add(1, workloads.Outcome(report.inner.iterations, [x], failures))
    assert (tally.attempted, len(tally.failures)) == (2, 1)


def test_traced_solve_repeats_untraced_exactly(anchor):
    unit, report = anchor
    solve = opins.driver.opins_solve
    tracer = Tracer()
    with tracer.installed():
        traced = unit.run(tracer=tracer)
    assert opins.driver.opins_solve is solve
    assert traced.inner.iterations == report.inner.iterations
    assert np.array_equal(traced.x, report.x)
    assert unit.outcome(traced).differs_from(unit.outcome(report)) == []
    names = {span[0] for span in tracer.spans}
    assert {"qrcp.factor", "qrcp.sweep", "krylov", "preconditioners.g_solve",
            "operators.a_product", "driver.opins_solve"} <= names
