"""Command line front end: `jordal verify ...` and `jordal dims ...`.

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 for configuration errors (including argparse rejections).
"""

from __future__ import annotations

import argparse
import sys

from .report import emit_report
from .runner import (FORMATS, MODES, SUITES, RunConfig, default_seed,
                     dimension_table, run_suite)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordal",
        description="verify Hermitian Jordan algebra identities and "
                    "norm-form geometry at a chosen shape (k, delta)")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--k", type=int, required=True,
                        help="matrix size is k+1 (k >= 2)")
    verify.add_argument("--delta", type=int, required=True, choices=(1, 2, 4, 8),
                        help="dimension of the coordinate algebra")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    verify.add_argument("--trials", type=int, default=50,
                        help="randomized trials per check (default 50)")
    verify.add_argument("--seed", type=int, default=None,
                        help="64-bit seed; default from JORDAL_SEED or 0")
    verify.add_argument("--mode", default="exact", choices=MODES)
    verify.add_argument("--tol", type=float, default=1e-8,
                        help="tolerance for float mode")
    verify.add_argument("--report", default=None, metavar="PATH",
                        help="write the report to this file")
    verify.add_argument("--format", default="json", choices=FORMATS)
    verify.add_argument("--threads", type=int, default=1,
                        help="has no effect: trials run one after another")

    dims = sub.add_parser("dims", help="print the dimension table")
    dims.add_argument("--k", type=int, required=True)
    dims.add_argument("--delta", type=int, required=True, choices=(1, 2, 4, 8))
    return parser


def _print_dims(table: dict, out) -> None:
    out.write("k={k} delta={delta}: dim V = {dim_v}, n = {n}\n".format(**table))
    for l, d in enumerate(table["secant_projective_dims"]):
        out.write(f"  l={l}: dim S^{l} X = {d}\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dims":
            _print_dims(dimension_table(args.k, args.delta), sys.stdout)
            return 0
        seed = args.seed if args.seed is not None else default_seed()
        config = RunConfig(k=args.k, delta=args.delta, suite=args.suite,
                           trials=args.trials, seed=seed, mode=args.mode,
                           tol=args.tol, report=args.report, format=args.format)
        report = run_suite(config)
    except ValueError as exc:  # InvalidConfig is a ValueError
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    if args.report:
        summary = report.summary
        sys.stdout.write(f"report written to {args.report} "
                         f"(passed={summary['passed']} failed={summary['failed']} "
                         f"skipped={summary['skipped']})\n")
    else:
        sys.stdout.write(emit_report(report, args.format).decode("utf-8"))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
