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
"""

from .authorship import (
    AuthorFileMap,
    AuthorshipRecord,
    Thresholds,
    accumulate,
    author_ratio,
    blame_rank,
    doa,
    normalize,
    score_trace,
    select_authors,
)
from .errors import (
    BlameFailed,
    DivisionUndefined,
    EmptyRepository,
    GitInvocationFailed,
    NotARepository,
    TruckFactorError,
)
from .estimate import RemovalStep, TruckFactorResult, truck_factor
from .filters import FilterRules, builtin_patterns, compile_glob
from .history import (
    ChangeEvent,
    ChangeKind,
    FileTrace,
    MigrationVerdict,
    check_migration,
    collect_history,
    list_snapshot_files,
    trace_files,
)
from .identity import (
    DeveloperId,
    RawUser,
    levenshtein,
    load_alias_overrides,
    name_merge_candidates,
    resolve_aliases,
)
from .pipeline import AnalysisConfig, run
from .report import Report, emit, parse_json

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AuthorFileMap",
    "AuthorshipRecord",
    "BlameFailed",
    "ChangeEvent",
    "ChangeKind",
    "DeveloperId",
    "DivisionUndefined",
    "EmptyRepository",
    "FileTrace",
    "FilterRules",
    "GitInvocationFailed",
    "MigrationVerdict",
    "NotARepository",
    "RawUser",
    "RemovalStep",
    "Report",
    "Thresholds",
    "TruckFactorError",
    "TruckFactorResult",
    "accumulate",
    "author_ratio",
    "blame_rank",
    "builtin_patterns",
    "check_migration",
    "collect_history",
    "compile_glob",
    "doa",
    "emit",
    "levenshtein",
    "list_snapshot_files",
    "load_alias_overrides",
    "name_merge_candidates",
    "normalize",
    "parse_json",
    "resolve_aliases",
    "run",
    "score_trace",
    "select_authors",
    "trace_files",
    "truck_factor",
    "__version__",
]
