"""Command-line entry point.

Exit codes: 0 on success, 1 when ``--fail-under`` is given and the estimate
falls below it (the report is still printed), 2 on any analysis error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import TruckFactorError
from .pipeline import AnalysisConfig, run
from .report import emit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truckfactor",
        description=(
            "Estimate how many developers a Git repository can lose before "
            "most of its files are left without an author."
        ),
    )
    parser.add_argument(
        "repo_path",
        help="path to a local Git repository (nothing is fetched; no network access)",
    )
    parser.add_argument(
        "--branch",
        default=None,
        help="branch or revision to analyze (default: HEAD)",
    )
    parser.add_argument(
        "--ignore-file",
        default=None,
        metavar="FILE",
        help="file listing repository paths to exclude, one per line",
    )
    parser.add_argument(
        "--patterns",
        default=None,
        metavar="FILE",
        help="file of additional exclusion globs, one per line",
    )
    parser.add_argument(
        "--alias-file",
        default=None,
        metavar="FILE",
        help=(
            "developer alias overrides, one '<email-or-name> => <canonical "
            "name>' rule per line"
        ),
    )
    parser.add_argument(
        "--k",
        type=float,
        default=0.75,
        help="normalized authorship threshold, exclusive (default: 0.75)",
    )
    parser.add_argument(
        "--m",
        type=float,
        default=3.293,
        help="absolute authorship floor, inclusive (default: 3.293)",
    )
    parser.add_argument(
        "--coverage",
        type=float,
        default=0.5,
        help="fraction of files that must stay covered (default: 0.5)",
    )
    parser.add_argument(
        "--universe",
        choices=("authored", "all-files"),
        default="authored",
        help="coverage denominator: authored files only, or every analyzed file",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--blame-compare",
        action="store_true",
        help="sample files and report agreement between authors and blame rankings",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for --blame-compare sampling (default: 0)",
    )
    parser.add_argument(
        "--alias-report",
        action="store_true",
        help="list similar-name merge candidates instead of applying them",
    )
    parser.add_argument(
        "--no-migration-check",
        action="store_true",
        help="skip the bulk-import heuristic",
    )
    parser.add_argument(
        "--fail-under",
        type=int,
        default=None,
        metavar="N",
        help="exit with status 1 when the truck factor is below N",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = AnalysisConfig(
        repo_path=args.repo_path,
        branch=args.branch,
        ignore_file=args.ignore_file,
        patterns_file=args.patterns,
        alias_file=args.alias_file,
        k=args.k,
        m=args.m,
        coverage=args.coverage,
        universe=args.universe,
        blame_compare=args.blame_compare,
        seed=args.seed,
        alias_report=args.alias_report,
        migration_check=not args.no_migration_check,
    )
    try:
        report = run(config)
    except (TruckFactorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit(report, args.output_format))
    sys.stdout.buffer.flush()
    if args.fail_under is not None and report.truck_factor < args.fail_under:
        print(
            f"truck factor {report.truck_factor} is below the required "
            f"minimum {args.fail_under}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
