"""Span tracing from outside the library, and the per-layer metrics it gives.

``Tracer.installed()`` replaces public names at the place their caller looks
them up (``opins.driver.qrcp_factor``, ``opins.projection.apply_q_block``,
``Projector.complement``, ...) with wrappers that record one span each:
name, start, end, parent span and solve id.  Spans stay in memory until the
run ends.  A layer's self time is its span's duration minus its child spans.
Nothing inside ``src/`` changes, and the wrappers pass every argument and
result through untouched, so a traced solve computes the same numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time

import numpy as np
import scipy.sparse as sp

import opins.driver
import opins.harness
import opins.harness.runner
import opins.krylov
import opins.operators
import opins.preconditioners
import opins.projection

# span names; the metric names in BENCHMARK.json are built from these
FACTOR = "qrcp.factor"
SWEEP = "qrcp.sweep"
COMPLEMENT = "projection.complement"
PARTICULAR = "projection.particular"
MULTIPLIERS = "projection.multipliers"
BUILD_G = "preconditioners.build_g"
SCHUR = "preconditioners.schur"
G_SOLVE = "preconditioners.g_solve"
PRECOND_APPLY = "preconditioners.apply"
KRYLOV = "krylov"
OP_APPLY = "operators.apply"
A_PRODUCT = "operators.a_product"
OPINS_SOLVE = "driver.opins_solve"
LOAD = "harness.load"
RELRES_FULL = "harness.relres_full"
RUN_CASE = "harness.run_case"

# per-layer metric name -> unit
PER_LAYER = {
    "qrcp.factor_s": "s",
    "qrcp.factor_calls": "count",
    "qrcp.sweeps_per_iter": "count",
    "qrcp.sweep_ms": "ms",
    "qrcp.sweep_gbps_computed": "GB/s",
    "projection.complement_calls_per_iter": "count",
    "projection.complement_s": "s",
    "projection.particular_s": "s",
    "projection.multipliers_calls": "count",
    "projection.multipliers_s": "s",
    "preconditioners.build_g_s": "s",
    "preconditioners.schur_s": "s",
    "preconditioners.g_solves_per_iter": "count",
    "preconditioners.g_solve_ms": "ms",
    "preconditioners.apply_s": "s",
    "krylov.iter_ms": "ms",
    "krylov.self_s": "s",
    "operators.applies_per_iter": "count",
    "operators.a_products_per_iter": "count",
    "driver.self_s": "s",
    "harness.load_s": "s",
    "harness.relres_full_calls": "count",
    "harness.relres_full_s": "s",
    "harness.run_case_self_s": "s",
    "trace.overhead_frac": "ratio",
}


def reflector_bytes(n, q):
    """Bytes of reflector storage one sweep reads: columns k < q of the
    n-by-m work array, rows k..n-1 (computed from n and q, not measured)."""
    return 8 * (q * n - q * (q - 1) // 2)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, solve,
    extra]; ``parent`` is the index of the enclosing span or -1, ``extra`` a
    number the wrapper attaches (reflector bytes of a sweep, iterations of a
    Krylov call)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1

    def span(self, name, fn, extra=None, result_extra=None):
        """Wrap ``fn`` so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id,
                      extra(*args, **kwargs) if extra is not None else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if result_extra is not None:
                record[5] = result_extra(result)
            return result

        return traced

    def counting_matrix(self, mat):
        """A CSR view of ``mat`` (same data, index and pointer arrays) whose
        matrix-vector products are recorded as spans."""
        matvec = self.span(A_PRODUCT, sp.csr_matrix._matmul_vector)

        class CountedCSR(sp.csr_matrix):
            def _matmul_vector(self, other):
                return matvec(self, other)

        csr = mat.tocsr()
        return CountedCSR((csr.data, csr.indices, csr.indptr), shape=csr.shape)

    def _traced_build_g(self, build_g):
        traced_build = self.span(BUILD_G, build_g)

        def build(a, kind):
            g_op = traced_build(a, kind)
            return dataclasses.replace(g_op, solve=self.span(G_SOLVE, g_op.solve))

        return build

    def _traced_build_system(self, build_system):
        traced_load = self.span(LOAD, build_system)

        def build(spec, *args, **kwargs):
            system = traced_load(spec, *args, **kwargs)
            system.a = self.counting_matrix(system.a)
            return system

        return build

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original names on exit."""
        driver, runner = opins.driver, opins.harness.runner
        sweep_bytes = lambda fact, v, transpose=False: reflector_bytes(fact.nrows, fact.rank)
        iterations = lambda outcome: outcome.iterations
        targets = [
            (driver, "qrcp_factor", lambda f: self.span(FACTOR, f)),
            (runner, "qrcp_factor", lambda f: self.span(FACTOR, f)),
            (opins.projection, "apply_q_block", lambda f: self.span(SWEEP, f, sweep_bytes)),
            (opins.preconditioners, "apply_q_block",
             lambda f: self.span(SWEEP, f, sweep_bytes)),
            (opins.projection.Projector, "complement", lambda f: self.span(COMPLEMENT, f)),
            (driver, "particular_solution", lambda f: self.span(PARTICULAR, f)),
            (runner, "particular_solution", lambda f: self.span(PARTICULAR, f)),
            (driver, "recover_multipliers", lambda f: self.span(MULTIPLIERS, f)),
            (runner, "recover_multipliers", lambda f: self.span(MULTIPLIERS, f)),
            (driver, "build_g", self._traced_build_g),
            (driver, "ProjectedPreconditioner", lambda f: self.span(SCHUR, f)),
            (opins.preconditioners.ProjectedPreconditioner, "apply",
             lambda f: self.span(PRECOND_APPLY, f)),
            (opins.krylov, "gmres", lambda f: self.span(KRYLOV, f, None, iterations)),
            (opins.krylov, "minres", lambda f: self.span(KRYLOV, f, None, iterations)),
            (opins.operators.LinearOperator, "__call__", lambda f: self.span(OP_APPLY, f)),
            (driver, "opins_solve", lambda f: self.span(OPINS_SOLVE, f)),
            (runner, "opins_solve", lambda f: self.span(OPINS_SOLVE, f)),
            (runner, "build_system", self._traced_build_system),
            (runner, "relres_full", lambda f: self.span(RELRES_FULL, f)),
            (opins.harness, "run_case", lambda f: self.span(RUN_CASE, f)),
        ]
        # read every original before replacing any, so that two targets that
        # share a function each wrap the original once
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for (owner, attr, make), (_, _, original) in zip(targets, originals):
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON: field names plus one list per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve", "extra"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, untraced_solve_s, traced_solve_s):
    """Per-layer metrics from the spans of the traced solves.

    Times ending in ``_s`` are per top-level call (one ``opins_solve``, or one
    ``run_case`` on the CLI workload), except ``qrcp.factor_s``,
    ``krylov.self_s`` and ``driver.self_s``, which are per call of that
    function; ``_ms`` times are per call of that layer, and ``_per_iter``
    counts are taken inside the Krylov call over its inner iterations.  A
    layer that never ran on the workload reports 0.
    """
    names = np.array([s[0] for s in spans])
    duration = np.array([s[2] - s[1] for s in spans])
    child_time = np.zeros(len(spans))
    in_krylov = np.zeros(len(spans), dtype=bool)
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            child_time[parent] += duration[i]
            in_krylov[i] = in_krylov[parent] or names[parent] == KRYLOV
    self_time = duration - child_time

    def select(name, inner=False):
        return (names == name) & in_krylov if inner else names == name

    def ratio(num, den):
        return float(num / den) if den else 0.0

    top = sum(1 for s in spans if s[3] == -1)
    run_cases = int(select(RUN_CASE).sum())
    krylov = select(KRYLOV)
    iterations = sum(spans[i][5] for i in np.flatnonzero(krylov))
    sweeps = select(SWEEP)
    sweep_bytes = sum(spans[i][5] for i in np.flatnonzero(sweeps))
    factor, g_solve = select(FACTOR), select(G_SOLVE)

    def per_top(name):
        return ratio(duration[select(name)].sum(), top)

    def per_iter(name):
        return ratio(select(name, inner=True).sum(), iterations)

    def per_run_case(values):
        return ratio(values, run_cases)

    return {
        "qrcp.factor_s": ratio(duration[factor].sum(), factor.sum()),
        "qrcp.factor_calls": ratio(factor.sum(), top),
        "qrcp.sweeps_per_iter": per_iter(SWEEP),
        "qrcp.sweep_ms": 1e3 * ratio(duration[sweeps].sum(), sweeps.sum()),
        "qrcp.sweep_gbps_computed": 1e-9 * ratio(sweep_bytes, duration[sweeps].sum()),
        "projection.complement_calls_per_iter": per_iter(COMPLEMENT),
        "projection.complement_s": per_top(COMPLEMENT),
        "projection.particular_s": per_top(PARTICULAR),
        "projection.multipliers_calls": ratio(select(MULTIPLIERS).sum(), top),
        "projection.multipliers_s": per_top(MULTIPLIERS),
        "preconditioners.build_g_s": per_top(BUILD_G),
        "preconditioners.schur_s": per_top(SCHUR),
        "preconditioners.g_solves_per_iter": per_iter(G_SOLVE),
        "preconditioners.g_solve_ms": 1e3 * ratio(duration[g_solve].sum(), g_solve.sum()),
        "preconditioners.apply_s": per_top(PRECOND_APPLY),
        "krylov.iter_ms": 1e3 * ratio(duration[krylov].sum(), iterations),
        "krylov.self_s": ratio(self_time[krylov].sum(), krylov.sum()),
        "operators.applies_per_iter": per_iter(OP_APPLY),
        "operators.a_products_per_iter": per_iter(A_PRODUCT),
        "driver.self_s": ratio(self_time[select(OPINS_SOLVE)].sum(),
                               select(OPINS_SOLVE).sum()),
        "harness.load_s": per_run_case(duration[select(LOAD)].sum()),
        "harness.relres_full_calls": per_run_case(select(RELRES_FULL).sum()),
        "harness.relres_full_s": per_run_case(duration[select(RELRES_FULL)].sum()),
        "harness.run_case_self_s": per_run_case(self_time[select(RUN_CASE)].sum()),
        "trace.overhead_frac": traced_solve_s / untraced_solve_s - 1.0,
    }
