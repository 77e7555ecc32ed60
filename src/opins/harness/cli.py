"""Command-line entry point.

Examples::

    opins-run --problem random --seed 3 --solver opins-j --report out.json
    opins-run --problem random-s --seed 0 --solver tsvd --history h.csv
    opins-run --matrix-a A.mtx --solver opins-ilu --seed 7 --singular no

Exit code is 0 only when the run reports status ``converged``; 1 when the
solver finishes without converging; 2 for configuration or input errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .problems import GENERATOR_KINDS, ProblemSpec
from .runner import SOLVER_NAMES, RunConfig, run_case


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opins-run",
        description="Solve a saddle-point test problem and report residual metrics.")
    src = parser.add_argument_group("problem source")
    src.add_argument("--problem", metavar="NAME",
                     help=f"generator kind, one of {GENERATOR_KINDS}")
    src.add_argument("--matrix-a", metavar="PATH", help="Matrix Market file for A")
    src.add_argument("--matrix-b", metavar="PATH", help="Matrix Market file for B")
    src.add_argument("--rhs-f", metavar="PATH", help="Matrix Market vector f")
    src.add_argument("--rhs-g", metavar="PATH", help="Matrix Market vector g")
    src.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    src.add_argument("--n", type=int, default=100, help="generated problem size")
    src.add_argument("--m", type=int, default=20, help="number of constraints")
    src.add_argument("--a-rank", type=int, default=50,
                     help="rank of A for random-s (default 50)")
    src.add_argument("--b-rank", type=int, default=None,
                     help="row rank of B for random-s (default full)")
    src.add_argument("--sigma", type=float, default=None,
                     help="scale factor: wraps the generated problem as scaled(sigma)")
    src.add_argument("--symmetric", choices=("yes", "no"), default=None,
                     help="declare A symmetric (default: per generator)")
    src.add_argument("--singular", choices=("yes", "no"), default="no",
                     help="declare the null-space equation singular")

    run = parser.add_argument_group("solver")
    run.add_argument("--solver", required=True,
                     help=f"one of {', '.join(SOLVER_NAMES)} (pminres-ir(k) accepted)")
    run.add_argument("--tol", type=float, default=1e-10, help="convergence tolerance")
    run.add_argument("--qrcp-tol", type=float, default=1e-12, help="rank tolerance")
    run.add_argument("--maxit", type=int, default=0, help="iteration cap (0 = auto)")
    run.add_argument("--restart", type=int, default=50, help="GMRES restart length")
    run.add_argument("--precond-side", choices=("auto", "left", "symmetric"),
                     default="auto")
    run.add_argument("--g-kind", choices=("identity", "jacobi", "ilu0"), default=None,
                     help="override the G builder for the chosen solver")

    out = parser.add_argument_group("output")
    out.add_argument("--history", metavar="PATH.csv", help="per-iteration history CSV")
    out.add_argument("--report", metavar="PATH.json", help="final metrics JSON")
    return parser


def spec_from_args(args):
    if (args.problem is None) == (args.matrix_a is None):
        raise SystemExit("specify exactly one of --problem or --matrix-a")
    declared_singular = args.singular == "yes"
    if args.matrix_a is not None:
        symmetric = args.symmetric == "yes"
        return ProblemSpec(
            name=args.matrix_a,
            source={"path_a": args.matrix_a, "path_b": args.matrix_b,
                    "path_f": args.rhs_f, "path_g": args.rhs_g,
                    "m": args.m, "seed": args.seed},
            declared_singular=declared_singular,
            a_symmetric=symmetric)
    params = {"n": args.n, "m": args.m}
    kind = args.problem
    if kind == "random-s":
        params["a_rank"] = args.a_rank
        if args.b_rank is not None:
            params["b_rank"] = args.b_rank
    if args.sigma is not None:
        params = {"sigma": args.sigma, "base": (kind, params)}
        kind = "scaled"
    symmetric = (args.symmetric == "yes") if args.symmetric is not None else True
    return ProblemSpec(
        name=f"{args.problem}(seed={args.seed})",
        source={"kind": kind, "seed": args.seed, "params": params},
        declared_singular=declared_singular,
        a_symmetric=symmetric)


def main(argv=None):
    args = build_parser().parse_args(argv)
    spec = spec_from_args(args)
    try:
        config = RunConfig(solver=args.solver, tol=args.tol, qrcp_tol=args.qrcp_tol,
                           maxit=args.maxit, restart=args.restart,
                           precond_side=args.precond_side, g_kind=args.g_kind,
                           history_path=args.history, report_path=args.report)
        record = run_case(spec, config)
    except (ValueError, ZeroDivisionError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"problem={spec.name} solver={config.solver} status={record.status} "
          f"iterations={record.iterations}")
    print(f"relres_x={record.relres_x:.3e} relres_full={record.relres_full:.3e} "
          f"constraint_residual={record.constraint_residual:.3e}")
    print(f"norm_x={record.norm_x:.6g} norm_y={record.norm_y:.6g} "
          f"wall_time={record.wall_time:.3f}s")
    return 0 if record.status == "converged" else 1


if __name__ == "__main__":
    sys.exit(main())
