"""Traced runs of the truckfactor CLI, in process, with spans around each layer.

Usage: python3 perfbench/tracer.py REPO SECONDS OUT.json -- CLI-ARGS...

The package must be importable (``run.py`` puts ``src`` on PYTHONPATH).
Nothing under ``src`` is edited: the public functions the pipeline reaches
through module attributes (``history.*``, ``identity.*``, ``authorship.*``,
``estimate.*``, ``FilterRules.matches``, both bindings of ``run_git``) are
replaced by wrappers that record a span per call, and ``cli.main`` then runs
the unchanged ``pipeline.run``.  Untraced and traced calls alternate for
SECONDS after one discarded warm-up; the untraced ones time only
``pipeline.run``, which gives the tracing overhead.  Spans stay in memory;
OUT.json receives, per call, the SHA-256 of the report the CLI printed; per
traced call, the per-layer metrics; and the per-span summary of the traced
call with the median ``pipeline.run`` time.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from truckfactor import authorship, cli, estimate, history, identity
from truckfactor.errors import BlameFailed
from truckfactor.filters import FilterRules

Note = Callable[[tuple, Any], Any]


class Recorder:
    """Collects spans as ``[name, start, end, parent index, note, error]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Note | None = None) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced


def _install(recorder: Recorder) -> list[tuple[object, str, Callable, Callable]]:
    """(owner, attribute, original, wrapped) for every traced entry point."""
    git_subcommand: Note = lambda args, _: args[1][0]
    plan: list[tuple[object, str, str, Note | None]] = [
        (cli, "run", "pipeline.run", None),
        (cli, "emit", "report.emit", None),
        (history, "run_git", "history.run_git", git_subcommand),
        (authorship, "run_git", "history.run_git", git_subcommand),
        (history, "list_snapshot_files", "history.list_snapshot_files", None),
        (FilterRules, "matches", "filters.matches", lambda _, dropped: dropped),
        (history, "collect_history", "history.collect_history", lambda _, r: len(r)),
        (history, "trace_files", "history.trace_files",
         lambda _, traces: sum(not t.complete for t in traces)),
        (history, "check_migration", "history.check_migration", None),
        (history, "resolve_commit", "history.resolve_commit", None),
        (identity, "resolve_aliases", "identity.resolve_aliases",
         lambda args, r: (len(set(args[0])), len(set(r.values())))),
        (identity, "name_merge_candidates", "identity.name_merge_candidates",
         lambda _, r: len(r)),
        (authorship, "score_trace", "authorship.score_trace", None),
        (authorship, "select_authors", "authorship.select_authors",
         lambda _, r: len(r.all_files())),
        (authorship, "blame_rank", "authorship.blame_rank", None),
        (estimate, "truck_factor", "estimate.truck_factor", lambda _, r: len(r.removed)),
    ]
    patches = []
    for owner, attr, name, note in plan:
        original = getattr(owner, attr)
        patches.append((owner, attr, original, recorder.wrap(name, original, note)))
    return patches


def _switch(patches, traced: bool) -> None:
    for owner, attr, original, wrapped in patches:
        setattr(owner, attr, wrapped if traced else original)


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds (self excludes child
    spans), and the median call in milliseconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        durations[name].append(end - start)
        self_s[name] += end - start - child_time[i]
    return {
        name: {
            "calls": len(times),
            "s": sum(times),
            "self_s": self_s[name],
            "p50_ms": 1000 * statistics.median(times),
        }
        for name, times in durations.items()
    }


def layer_metrics(spans: list[list[Any]], table: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced ``pipeline.run`` (see README.md)."""

    def total(name: str, key: str = "s") -> float:
        return table.get(name, {}).get(key, 0)

    def notes(name: str) -> list[Any]:
        return [span[4] for span in spans if span[0] == name]

    log_s = sum(
        span[2] - span[1]
        for span in spans
        if span[0] == "history.run_git"
        and span[4] == "log"
        and spans[span[3]][0] == "history.collect_history"
    )
    aliases = notes("identity.resolve_aliases") or [(0, 0)]
    return {
        "history.collect_history.s": total("history.collect_history", "self_s"),
        "history.collect_history.git_s": log_s,
        "history.collect_history.events": sum(notes("history.collect_history")),
        "history.list_snapshot_files.s": total("history.list_snapshot_files", "self_s"),
        "filters.matches.s": total("filters.matches"),
        "filters.paths_checked": total("filters.matches", "calls"),
        "filters.paths_dropped": sum(notes("filters.matches")),
        "history.trace_files.s": total("history.trace_files"),
        "history.traces_incomplete": sum(notes("history.trace_files")),
        "authorship.score_trace.s": total("authorship.score_trace"),
        "authorship.score_trace.calls": total("authorship.score_trace", "calls"),
        "authorship.select_authors.s": total("authorship.select_authors"),
        "authorship.authored_files": sum(notes("authorship.select_authors")),
        "history.check_migration.s": total("history.check_migration"),
        "report.emit.s": total("report.emit"),
        "identity.resolve_aliases.s": total("identity.resolve_aliases"),
        "identity.raw_users": sum(n[0] for n in aliases),
        "identity.developers": sum(n[1] for n in aliases),
        "estimate.truck_factor.s": total("estimate.truck_factor"),
        "estimate.removal_steps": sum(notes("estimate.truck_factor")),
        "authorship.blame_rank.calls": total("authorship.blame_rank", "calls"),
        "authorship.blame_rank.failures": sum(
            1 for span in spans
            if span[0] == "authorship.blame_rank" and span[5] == BlameFailed.__name__
        ),
        "identity.candidates": sum(notes("identity.name_merge_candidates")),
        "history.run_git.calls": total("history.run_git", "calls"),
        "history.run_git.s": total("history.run_git"),
        "pipeline.run.s": total("pipeline.run"),
        "pipeline.run.self_s": total("pipeline.run", "self_s"),
    }


def _call_cli(argv: list[str]) -> str:
    """Run ``cli.main`` with stdout captured; the SHA-256 of what it printed."""
    real_stdout = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = cli.main(argv)
        sys.stdout.flush()
        printed = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = real_stdout
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256(printed).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    repo, seconds, out_path, cli_args = argv[0], float(argv[1]), argv[2], argv[4:]
    cli_argv = [repo, *cli_args]

    timer = Recorder()  # the untraced calls time pipeline.run and nothing else
    untraced_run = timer.wrap("pipeline.run", cli.run)
    recorder = Recorder()
    patches = _install(recorder)

    outputs = [_call_cli(cli_argv)]  # warm-up, discarded from the timings
    untraced_s: list[float] = []
    traced: list[dict[str, float]] = []
    summaries: list[dict[str, dict[str, float]]] = []
    started = time.monotonic()
    while time.monotonic() - started < seconds or not traced:
        cli.run = untraced_run
        outputs.append(_call_cli(cli_argv))
        untraced_s.append(timer.spans[-1][2] - timer.spans[-1][1])

        recorder.spans.clear()
        _switch(patches, True)
        try:
            outputs.append(_call_cli(cli_argv))
        finally:
            _switch(patches, False)
        table = summarize(recorder.spans)
        traced.append(layer_metrics(recorder.spans, table))
        summaries.append(table)

    by_run_time = sorted(range(len(traced)), key=lambda i: traced[i]["pipeline.run.s"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "outputs": outputs,
                "untraced_pipeline_s": untraced_s,
                "traced": traced,
                "spans": summaries[by_run_time[len(traced) // 2]],
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
