"""Layered solve benchmark for opins.

Run from the repository root:

    python3 bench/run.py --workload nonsym-ilu --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``nonsym-ilu``     3312-dof reservoir stand-in, dense B (m = 20),
                     ``opins_solve`` with projected ILU(0) and GMRES(50);
* ``singular-wide``  8000-unknown pure-Neumann Laplacian, sparse rank-180
                     B (m = 200), compatible and singular, unpreconditioned
                     MINRES;
* ``cli-run``        the README's paper experiment through
                     ``opins.harness.run_case`` (opins-ilu, then opins-p).

With ``--trace 0`` the run alternates, on the workload's problems in turn,
one full solve (tol 1e-10, maxit 500) and one set-up call (the same call with
maxit = 1) until ``--seconds`` have passed and every problem was solved, and
reports the end-to-end metrics.  With ``--trace 1`` it alternates untraced
and traced full solves instead, until ``--seconds`` have passed, and reports
the per-layer metrics from the spans.  Every full solve's answers are checked by the benchmark; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and CLI outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

# one BLAS thread, set before numpy loads, so runs compare like with like
BLAS_THREADS = "1"
ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("nonsym-ilu", "singular-wide", "cli-run")
END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "iterations": "count",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Put this checkout's ``src`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "opins" / "__init__.py").is_file():
        sys.exit(f"bench: no opins sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "bench"))


def environment(args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Attempted and failed full solves; a failed solve counts once however
    many of its checks fail."""

    def __init__(self):
        self.first = {}
        self.attempted = 0
        self.failures = []

    def add(self, key, outcome, extra=()):
        failures = list(outcome.failures) + list(extra)
        if key in self.first:
            failures += outcome.differs_from(self.first[key])
        else:
            self.first[key] = outcome
        self.attempted += 1
        if failures:
            self.failures.append((key, failures))

    def iterations(self):
        return sum(outcome.iterations for outcome in self.first.values())


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def warm_up(unit):
    """One untimed full solve: the first solves in a process run slower
    while imports settle and the allocator grows its heap."""
    unit.run()


def measure(units, seconds, tally):
    """Full solves and set-up calls, alternating, over the units in turn."""
    warm_up(units[0])
    solve_times, setup_times = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(units) or time.perf_counter() < deadline:
        unit = units[i % len(units)]
        result, elapsed = timed(unit.run)
        solve_times.append(elapsed)
        tally.add(i % len(units), unit.outcome(result))
        setup_times.append(timed(unit.run, maxit=1)[1])
        i += 1
    return {
        "solve_s": statistics.median(solve_times),
        "setup_s": statistics.median(setup_times),
        "iterations": tally.iterations(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(units, seconds, tally, tracer):
    """Untraced and traced full solves, alternating which goes first; the
    traced one must repeat the untraced one exactly."""
    from tracing import layer_metrics
    warm_up(units[0])
    plain_times, traced_times = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        unit = units[i % len(units)]
        outcomes = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.solve_id = i
                with tracer.installed():
                    result, elapsed = timed(unit.run, tracer=tracer)
                traced_times.append(elapsed)
            else:
                result, elapsed = timed(unit.run)
                plain_times.append(elapsed)
            outcomes[traced] = unit.outcome(result)
        tally.add(i % len(units), outcomes[False])
        parity = [f"traced_{d}" for d in outcomes[True].differs_from(outcomes[False])]
        tally.add(i % len(units), outcomes[True], parity)
        i += 1
    return layer_metrics(tracer.spans, statistics.median(plain_times),
                         statistics.median(traced_times))


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads
    from tracing import PER_LAYER, Tracer

    env = environment(args)
    print(json.dumps({"environment": env}))
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)

    reports = []
    with workloads.captured_reports(reports):
        if args.workload == "nonsym-ilu":
            units = workloads.nonsym_ilu(args.seed)
        elif args.workload == "singular-wide":
            units = workloads.singular_wide(args.seed)
        else:
            units = workloads.cli_run(args.seed, outdir, reports)
        tally = Tally()
        if args.trace:
            tracer = Tracer()
            metrics = measure_traced(units, args.seconds, tally, tracer)
            tracer.write(outdir / f"spans-{args.workload}-{args.seed}.json")
            units_of = PER_LAYER
        else:
            metrics = measure(units, args.seconds, tally)
            units_of = END_TO_END_UNITS

    for key, failures in tally.failures:
        print(f"FAILED problem {key}: {', '.join(failures)}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
