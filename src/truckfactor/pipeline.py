"""End-to-end orchestration: snapshot -> traces -> aliases -> scores -> TF.

:func:`run` wires the stages together and assembles a :class:`Report`.
Everything it does is also reachable piecemeal through the individual
modules; this is just the one honest path from a repository on disk to a
finished estimate.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping

from . import authorship, estimate, history, identity
from .errors import BlameFailed
from .filters import FilterRules, load_path_file, load_pattern_file
from .report import SCHEMA_VERSION, BlameAgreement, MigrationSummary, Report

BLAME_SAMPLE_SIZE = 120


@dataclass
class AnalysisConfig:
    """Knobs for one analysis run; defaults match the calibrated setup."""

    repo_path: str
    branch: str | None = None
    ignore_file: str | None = None
    patterns_file: str | None = None
    alias_file: str | None = None
    k: float = 0.75
    m: float = authorship.DOA_INTERCEPT
    coverage: float = 0.5
    universe: str = "authored"  # or "all-files"
    blame_compare: bool = False
    seed: int = 0
    alias_report: bool = False
    migration_check: bool = True


def _validate(config: AnalysisConfig) -> None:
    if config.universe not in ("authored", "all-files"):
        raise ValueError(f"unknown universe: {config.universe!r}")
    if not 0.0 < config.k <= 1.0:
        raise ValueError("k must be in (0, 1]")
    if not math.isfinite(config.m):
        raise ValueError("m must be a finite number")
    if not 0.0 < config.coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")


def _build_rules(config: AnalysisConfig) -> FilterRules:
    globs = load_pattern_file(config.patterns_file) if config.patterns_file else []
    paths = load_path_file(config.ignore_file) if config.ignore_file else []
    return FilterRules(ignore_globs=globs, ignore_paths=paths)


def _counting(
    commits: Iterable[history.Commit], counts: Counter[identity.RawUser]
) -> Iterator[history.Commit]:
    """Pass ``commits`` on, counting each author's commits in ``counts``."""
    for commit in commits:
        counts[commit.author] += 1
        yield commit


def _blame_workers() -> int:
    """How many blame processes run at once: one per available CPU, at most 4."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


def _alternate(path: str) -> str:
    """``path`` as one entry of ``GIT_ALTERNATE_OBJECT_DIRECTORIES``, quoted
    as git unquotes it when it would otherwise be split at a separator."""
    if os.pathsep not in path:
        return path
    return '"' + path.replace("\\", "\\\\").replace('"', '\\"') + '"'


@contextmanager
def _changed_path_graph(
    revision: history.Revision,
) -> Iterator[Callable[[], dict[str, str]]]:
    """Start writing a commit-graph of the resolved commit's history, with
    changed-path Bloom filters, and yield a function that waits for the
    write and returns the environment in which git reads the graph.

    The write runs while the caller works, such as while ``git log`` runs.
    With the filters, ``git blame`` skips the tree lookup at every commit
    that did not touch the blamed path. Blame looks up only the full path,
    while every changed path also puts its directories into its commit's
    filter, so at git's default of 10 bits per entry a small commit's
    filter answers "maybe" often. The filters get 32 bits per entry, with
    any other ``GIT_TEST_BLOOM_SETTINGS_*`` removed, and the write reads
    no filters of the repository's own graph, whose width git would keep.
    Readers take the width from the graph, and filters have no false
    negatives at any width, so blame prints the same bytes.

    The graph is written into a temporary directory, never into the
    repository. The write and the blames run in one environment, which
    names that directory as the object directory and the repository's
    objects as the first alternate, ahead of any alternates already set:
    git writes the graph into the object directory and reads the first
    graph it finds. In a shallow clone git writes no graph, under grafts
    or replace refs it reads none, and a failed write leaves none. Blames
    then read the graph they would read without this environment, if any,
    and no graph changes what blame prints. On exit, however it comes,
    git is stopped and the directory removed.
    """
    objects = _alternate(os.path.join(revision.git_dir, "objects"))
    env = {
        key: value
        for key, value in history.git_env().items()
        if not key.startswith("GIT_TEST_BLOOM_SETTINGS_")
    }
    env["GIT_TEST_BLOOM_SETTINGS_BITS_PER_ENTRY"] = "32"
    env["GIT_ALTERNATE_OBJECT_DIRECTORIES"] = os.pathsep.join(
        filter(None, [objects, env.get("GIT_ALTERNATE_OBJECT_DIRECTORIES")])
    )
    args = [
        "-c",  # after the pinned settings: the last -c wins
        "commitGraph.readChangedPaths=false",
        "commit-graph",
        "write",
        "--stdin-commits",
        "--changed-paths",
        "--max-new-filters=-1",
        "--no-progress",
    ]
    commit = f"{revision.commit}\n".encode()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "wb") as devnull:
        env["GIT_OBJECT_DIRECTORY"] = os.path.abspath(tmp)  # git runs elsewhere
        with history.start_git(revision.git_dir, args, devnull, env, commit) as proc:

            def graph() -> dict[str, str]:
                proc.wait()
                return env

            yield graph


def _blame_agreement(
    revision: history.Revision,
    targets: list[str],
    author_map: Mapping[identity.DeveloperId, AbstractSet[str]],
    alias_map: dict[identity.RawUser, identity.DeveloperId],
    seed: int,
    graph: Callable[[], dict[str, str]],
) -> BlameAgreement:
    """Sample the sorted ``targets`` and compare their authors with blame.

    The sampled files are blamed at the resolved commit on a pool of
    :func:`_blame_workers` threads, each waiting on one ``git blame``
    process in the environment that ``graph`` returns, as the function
    that :func:`_changed_path_graph` yields does. A file that blame cannot
    rank counts as one failure.
    """
    # Imported here so that runs without a blame sample do not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    sample = targets
    if len(targets) > BLAME_SAMPLE_SIZE:
        sample = sorted(random.Random(seed).sample(targets, BLAME_SAMPLE_SIZE))

    def rank(file: str) -> list[identity.DeveloperId] | None:
        try:
            ranking = authorship.blame_rank(revision, file, alias_map, env=env)
        except BlameFailed:
            return None
        return [dev for dev, _ in ranking]

    env = graph()
    with ThreadPoolExecutor(max_workers=_blame_workers()) as executor:
        rankings = zip(sample, executor.map(rank, sample))
        ranked = {file: devs for file, devs in rankings if devs is not None}
    top1 = top3 = none = pairs = 0
    for author, files in author_map.items():
        for file in files & ranked.keys():
            pairs += 1
            top1 += author in ranked[file][:1]
            top3 += author in ranked[file][:3]
            none += author not in ranked[file]

    def pct(n: int) -> float:
        return 100.0 * n / pairs if pairs else 0.0

    return BlameAgreement(
        files_sampled=len(sample),
        pairs_compared=pairs,
        top1_pct=pct(top1),
        top3_pct=pct(top3),
        none_pct=pct(none),
        blame_failures=len(sample) - len(ranked),
        seed=seed,
    )


def run(config: AnalysisConfig) -> Report:
    """Analyze one repository and return the full report."""
    _validate(config)
    rules = _build_rules(config)
    overrides = (
        identity.load_alias_overrides(config.alias_file) if config.alias_file else None
    )
    revision = history.resolve_revision(config.repo_path, config.branch)
    commit_counts: Counter[identity.RawUser] = Counter()
    graph_cm = _changed_path_graph(revision) if config.blame_compare else nullcontext()
    # git log runs from here on, while the snapshot is listed and filtered,
    # and so does the write of the graph that blames read.
    with history.read_log(revision) as log, graph_cm as graph:
        targets = history.list_snapshot_files(revision, rules)
        traces = history.trace_files(_counting(log, commit_counts), targets)
        users = commit_counts.keys()
        candidates = (
            identity.name_merge_candidates(users) if config.alias_report else None
        )
        alias_map = identity.resolve_aliases(
            users,
            commit_counts=commit_counts,
            overrides=overrides,
            merge_similar_names=not config.alias_report,
        )

        author_map = authorship.select_authors(
            traces, alias_map, k=config.k, m=config.m
        )

        universe = targets if config.universe == "all-files" else None
        result = estimate.truck_factor(
            author_map, threshold=config.coverage, universe=universe
        )
        low_initial = result.initial_coverage < config.coverage

        warnings: list[str] = []
        migration = (
            history.check_migration(traces)
            if config.migration_check
            else MigrationSummary(checked=False)
        )
        if migration.suspicious:
            warnings.append(
                f"possible history migration: {migration.fraction_covered:.0%} of "
                f"files were added in only {migration.adding_commits} commit(s); "
                "authorship may be unreliable"
            )
        if not targets:
            warnings.append(
                "no file to analyze: the revision holds no file that the built-in "
                "patterns, --patterns and --ignore-file keep; the estimate is 0"
            )
        elif low_initial:
            warnings.append(
                "authored-file coverage starts below the coverage threshold; "
                "the estimate is 0 by construction"
            )
        if revision.shallow:
            warnings.append(
                "shallow clone: history is truncated, so files added before the "
                "cut get no first author and early contributors are missing"
            )

        blame = None
        if graph is not None:
            blame = _blame_agreement(
                revision, targets, author_map, alias_map, config.seed, graph
            )

    developers = set(alias_map.values())  # resolve_aliases raises on none
    totals = {
        "developers": len(developers),
        "authors": len(author_map),
        "files": len(targets),
        "commits": sum(commit_counts.values()),
    }
    return Report(
        schema_version=SCHEMA_VERSION,
        repository=str(config.repo_path),
        branch=config.branch,
        head_commit=revision.commit,
        thresholds={"k": config.k, "m": config.m, "coverage": config.coverage},
        universe=config.universe,
        truck_factor=len(result.removed),
        initial_coverage=result.initial_coverage,
        file_universe_size=result.file_universe_size,
        low_initial_coverage=low_initial,
        removed=result.removed,
        author_ratio=len(author_map) / len(developers),
        totals=totals,
        migration=migration,
        blame_agreement=blame,
        alias_candidates=candidates,
        warnings=warnings,
    )
