"""Command-line entry point.

Exit codes: 0 on success, 1 when ``--fail-under`` is given and the estimate
falls below it (the report is still printed), 2 on any analysis error or
when the report cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import TruckFactorError
from .pipeline import AnalysisConfig, run
from .report import emit


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. Every destination other than ``output_format`` and
    ``fail_under`` is the name of an :class:`AnalysisConfig` field."""
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
        help="branch or revision to analyze (default: HEAD)",
    )
    parser.add_argument(
        "--ignore-file",
        metavar="FILE",
        help="file listing repository paths to exclude, one per line",
    )
    parser.add_argument(
        "--patterns",
        dest="patterns_file",
        metavar="FILE",
        help="file of additional exclusion globs, one per line",
    )
    parser.add_argument(
        "--alias-file",
        metavar="FILE",
        help=(
            "developer alias overrides, one '<email-or-name> => <canonical "
            "name>' rule per line"
        ),
    )
    parser.add_argument(
        "--k",
        type=float,
        default=AnalysisConfig.k,
        help="normalized authorship threshold, exclusive (default: %(default)s)",
    )
    parser.add_argument(
        "--m",
        type=float,
        default=AnalysisConfig.m,
        help="absolute authorship floor, inclusive (default: %(default)s)",
    )
    parser.add_argument(
        "--coverage",
        type=float,
        default=AnalysisConfig.coverage,
        help="fraction of files that must stay covered (default: %(default)s)",
    )
    parser.add_argument(
        "--universe",
        choices=("authored", "all-files"),
        default=AnalysisConfig.universe,
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
        default=AnalysisConfig.seed,
        help="RNG seed for --blame-compare sampling (default: %(default)s)",
    )
    parser.add_argument(
        "--alias-report",
        action="store_true",
        help="list similar-name merge candidates instead of applying them",
    )
    parser.add_argument(
        "--no-migration-check",
        action="store_false",
        dest="migration_check",
        help="skip the bulk-import heuristic",
    )
    parser.add_argument(
        "--fail-under",
        type=int,
        metavar="N",
        help="exit with status 1 when the truck factor is below N",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    output_format = args.pop("output_format")
    fail_under = args.pop("fail_under")
    try:
        report = run(AnalysisConfig(**args))
    except (TruckFactorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.buffer.write(emit(report, output_format))
        sys.stdout.buffer.flush()
    except OSError as exc:
        # The unwritten bytes stay buffered; with stdout on the null device,
        # the interpreter's last flush cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    if fail_under is not None and report.truck_factor < fail_under:
        print(
            f"truck factor {report.truck_factor} is below the required "
            f"minimum {fail_under}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
