"""Truck-factor estimation for Git repositories.

The truck factor is the number of developers a project can lose before at
least half of its files are left without anyone who authored them. This
package computes it from commit history alone: per-file degree-of-authorship
scores, thresholded into an author -> files map, reduced by greedy removal
of the strongest authors.

Typical library use::

    from truckfactor import AnalysisConfig, run

    report = run(AnalysisConfig(repo_path="/path/to/repo"))
    print(report.truck_factor)

The same pipeline is available on the command line as ``truckfactor``.
Its stages are exported here too; every other name is importable from its
own module. The stages that read git take the revision that
``resolve_revision`` resolves once, so they all read the same commit::

    from truckfactor import list_snapshot_files, read_log, resolve_revision, trace_files

    rev = resolve_revision("/path/to/repo")
    traces = trace_files(read_log(rev), list_snapshot_files(rev))
"""

from .authorship import blame_rank, score_trace, select_authors
from .errors import TruckFactorError
from .estimate import truck_factor
from .history import (
    collect_history,
    list_snapshot_files,
    read_log,
    resolve_revision,
    trace_files,
)
from .identity import resolve_aliases
from .pipeline import AnalysisConfig, run
from .report import Report, emit

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "run",
    "Report",
    "emit",
    "TruckFactorError",
    "resolve_revision",
    "list_snapshot_files",
    "read_log",
    "collect_history",
    "trace_files",
    "resolve_aliases",
    "score_trace",
    "select_authors",
    "truck_factor",
    "blame_rank",
    "__version__",
]
