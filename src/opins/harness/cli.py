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
from argparse import SUPPRESS

import numpy as np

from .problems import A_RANK, GENERATOR_KINDS, M, N, ProblemSpec
from .runner import SOLVER_NAMES, RunConfig, run_case


# "scaled" needs a base problem, which --sigma supplies
_PROBLEMS = tuple(kind for kind in GENERATOR_KINDS if kind != "scaled")


def build_parser():
    # settings not given stay absent (SUPPRESS): RunConfig and the generators default them
    parser = argparse.ArgumentParser(
        prog="opins-run",
        description="Solve a saddle-point test problem and report residual metrics.")
    src = parser.add_argument_group("problem source")
    src.add_argument("--problem", choices=_PROBLEMS,
                     help="generator kind (--sigma wraps it as scaled)")
    src.add_argument("--matrix-a", metavar="PATH", help="Matrix Market file for A")
    src.add_argument("--matrix-b", metavar="PATH", help="Matrix Market file for B")
    src.add_argument("--rhs-f", metavar="PATH", help="Matrix Market vector f")
    src.add_argument("--rhs-g", metavar="PATH", help="Matrix Market vector g")
    src.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    src.add_argument("--n", type=int, default=SUPPRESS, help=f"generated size (default {N})")
    src.add_argument("--m", type=int, default=SUPPRESS, help=f"generated rows of B (default {M})")
    src.add_argument("--a-rank", type=int, default=SUPPRESS,
                     help=f"rank of A for random-s (default {A_RANK})")
    src.add_argument("--b-rank", type=int, default=SUPPRESS,
                     help="row rank of B for random-s (default full)")
    src.add_argument("--sigma", type=float, default=None,
                     help="scale factor: wraps the generated problem as scaled(sigma)")
    src.add_argument("--symmetric", choices=("yes", "no"), default=None,
                     help="declare A symmetric or not (default: yes for --problem, "
                          "no for --matrix-a)")
    src.add_argument("--singular", choices=("yes", "no"), default="no",
                     help="declare the null-space equation singular")

    run = parser.add_argument_group("solver")
    run.add_argument("--solver", required=True,
                     help=f"one of {', '.join(SOLVER_NAMES)} (pminres-ir(k) accepted)")
    run.add_argument("--tol", type=float, default=SUPPRESS,
                     help=f"convergence tolerance (default {RunConfig.tol:g})")
    run.add_argument("--qrcp-tol", type=float, default=SUPPRESS,
                     help=f"rank tolerance (default {RunConfig.qrcp_tol:g})")
    run.add_argument("--maxit", type=int, default=SUPPRESS,
                     help=f"iteration cap (default {RunConfig.maxit}: 10 n)")
    run.add_argument("--restart", type=int, default=SUPPRESS,
                     help="GMRES restart length (default: as long as a 32 MiB basis "
                          "allows, at least 50 and at most the iteration cap)")
    run.add_argument("--g-kind", default=SUPPRESS,
                     help="identity, jacobi or ilu0: the G of opins-j, -p, -ilu or pminres-ir*")

    out = parser.add_argument_group("output")
    out.add_argument("--history", metavar="PATH.csv", help="per-iteration history CSV")
    out.add_argument("--report", metavar="PATH.json", help="final metrics JSON")
    return parser


def _given(args, *names):
    """The options among ``names`` that the command line gives."""
    return {name: value for name, value in vars(args).items() if name in names}


def spec_from_args(args):
    if args.matrix_a is not None:
        name = args.matrix_a
        source = {"path_a": args.matrix_a, "path_b": args.matrix_b, "path_f": args.rhs_f,
                  "path_g": args.rhs_g, "seed": args.seed, **_given(args, "m")}
    else:
        name = f"{args.problem}(seed={args.seed})"
        kind, params = args.problem, _given(args, "n", "m", "a_rank", "b_rank")
        if args.sigma is not None:
            kind, params = "scaled", {"sigma": args.sigma, "base": (kind, params)}
        source = {"kind": kind, "seed": args.seed, "params": params}
    return ProblemSpec(name=name, source=source, declared_singular=args.singular == "yes",
                       a_symmetric=None if args.symmetric is None else args.symmetric == "yes")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.problem is None) == (args.matrix_a is None):
        parser.error("specify exactly one of --problem or --matrix-a")
    if args.problem is not None:
        for flag in ("matrix_b", "rhs_f", "rhs_g"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag.replace('_', '-')} needs --matrix-a, not --problem")
    elif args.sigma is not None:
        parser.error("--sigma scales a generated problem, not --matrix-a")
    elif _given(args, "n"):
        parser.error("--n sizes a generated problem, not --matrix-a")
    elif _given(args, "m") and args.matrix_b is not None:
        parser.error("--m sizes a generated B, not --matrix-b")
    for flag in _given(args, "a_rank", "b_rank"):
        if args.problem != "random-s":
            parser.error(f"--{flag.replace('_', '-')} applies only to --problem random-s")
    spec = spec_from_args(args)
    try:
        config = RunConfig(solver=args.solver, history_path=args.history,
                           report_path=args.report,
                           **_given(args, "tol", "qrcp_tol", "maxit", "restart", "g_kind"))
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
