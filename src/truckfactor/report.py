"""Report assembly and rendering.

The report is a flat, serialization-friendly snapshot of one analysis:
plain strings, numbers, lists, and small nested records. Three renderings
are offered — human-readable text, JSON (machine-readable, key-sorted so
identical analyses produce byte-identical output), and a compact CSV of
the removal order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


@dataclass
class RemovedAuthor:
    developer: str
    authored_files: int
    coverage_after: float


@dataclass
class MigrationSummary:
    checked: bool
    suspicious: bool = False
    fraction_covered: float = 0.0
    adding_commits: int = 0


@dataclass
class BlameAgreement:
    """How often the change-based authors match the blame-based ranking."""

    files_sampled: int
    pairs_compared: int
    top1_pct: float
    top3_pct: float
    none_pct: float
    blame_failures: int
    seed: int


@dataclass
class AliasCandidate:
    name_a: str
    email_a: str
    name_b: str
    email_b: str


@dataclass
class Report:
    """Everything one analysis produced."""

    schema_version: int
    repository: str
    branch: str | None
    head_commit: str
    thresholds: dict[str, float]
    universe: str
    truck_factor: int
    initial_coverage: float
    file_universe_size: int
    low_initial_coverage: bool
    removed: list[RemovedAuthor]
    author_ratio: float
    totals: dict[str, int]
    migration: MigrationSummary
    blame_agreement: BlameAgreement | None = None
    alias_candidates: list[AliasCandidate] | None = None
    warnings: list[str] = field(default_factory=list)


def emit(report: Report, format: str = "text") -> bytes:
    """Render a report as UTF-8 bytes in the requested format.

    A name git gave as bytes that are not UTF-8 reaches the report as lone
    surrogates (see :func:`truckfactor.history.run_git`); text and CSV write
    its original bytes back, and JSON escapes it.
    """
    if format == "text":
        rendered = _emit_text(report)
    elif format == "json":
        rendered = _emit_json(report)
    elif format == "csv":
        rendered = _emit_csv(report)
    else:
        raise ValueError(f"unknown report format: {format!r}")
    return rendered.encode("utf-8", "surrogateescape")


def _emit_json(report: Report) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def _emit_csv(report: Report) -> str:
    """Header, one row per removed author, then a summary row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["developer", "authored_files", "coverage_after"])
    for row in report.removed:
        writer.writerow([row.developer, row.authored_files, f"{row.coverage_after:.6f}"])
    writer.writerow(
        ["truck_factor", report.truck_factor, f"{report.initial_coverage:.6f}"]
    )
    return buf.getvalue()


def _emit_text(report: Report) -> str:
    lines = [f"Truck factor report for {report.repository}"]
    lines.append(f"revision: {report.branch or 'HEAD'} ({report.head_commit[:12]})")
    for warning in report.warnings:
        lines.append(f"WARNING: {warning}")
    lines.append("")
    lines.append(f"truck factor: {report.truck_factor}")
    if report.low_initial_coverage:
        lines.append(
            "note: authored-file coverage starts below the threshold, so no "
            "author removal was possible"
        )
    if report.removed:
        lines.append("")
        lines.append("removal order:")
        for i, row in enumerate(report.removed, start=1):
            lines.append(
                f"  {i}. {row.developer}  ({row.authored_files} authored files, "
                f"coverage after {row.coverage_after:.1%})"
            )
    lines.append("")
    lines.append(
        f"initial coverage: {report.initial_coverage:.1%} of "
        f"{report.file_universe_size} files ({report.universe} universe)"
    )
    totals = report.totals
    lines.append(
        f"developers: {totals['developers']}  authors: {totals['authors']}  "
        f"files: {totals['files']}  commits: {totals['commits']}"
    )
    lines.append(f"author ratio: {report.author_ratio:.3f}")
    thresholds = report.thresholds
    lines.append(
        f"thresholds: k={thresholds['k']} m={thresholds['m']} "
        f"coverage={thresholds['coverage']}"
    )
    if report.migration.checked:
        verdict = "suspicious" if report.migration.suspicious else "ok"
        lines.append(
            f"migration check: {verdict} "
            f"({report.migration.fraction_covered:.0%} of files added in "
            f"{report.migration.adding_commits} commits)"
        )
    if report.blame_agreement is not None:
        blame = report.blame_agreement
        lines.append("")
        lines.append(
            f"blame agreement (seed {blame.seed}): {blame.files_sampled} files "
            f"sampled, {blame.pairs_compared} author/file pairs"
        )
        lines.append(
            f"  top-1 match: {blame.top1_pct:.1f}%  top-3 match: "
            f"{blame.top3_pct:.1f}%  no match: {blame.none_pct:.1f}%"
        )
        if blame.blame_failures:
            lines.append(f"  blame failures: {blame.blame_failures}")
    if report.alias_candidates is not None:
        lines.append("")
        if report.alias_candidates:
            lines.append("similar-name merge candidates (not applied):")
            for cand in report.alias_candidates:
                lines.append(
                    f"  {cand.name_a} <{cand.email_a}>  ~  "
                    f"{cand.name_b} <{cand.email_b}>"
                )
        else:
            lines.append("similar-name merge candidates: none")
    return "\n".join(lines) + "\n"
