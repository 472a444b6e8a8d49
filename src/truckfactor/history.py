"""Git history extraction: snapshot listing, change events, file traces.

All repository access goes through the ``git`` executable; nothing here
mutates the repository. Merge commits are suppressed so every change is
counted once, on the branch where it was made, and renames are detected so
a file's history survives being moved.
"""

from __future__ import annotations

import re
import subprocess
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import EmptyRepository, GitInvocationFailed, NotARepository
from .filters import FilterRules
from .identity import RawUser


class ChangeKind(Enum):
    ADDITION = "A"
    MODIFICATION = "M"
    RENAME = "R"


_STATUS_KINDS = {
    "A": ChangeKind.ADDITION,
    "M": ChangeKind.MODIFICATION,
    "R": ChangeKind.RENAME,
}

_COMMIT_LINE = re.compile(r"^[0-9a-f]{40}\t")


@dataclass(frozen=True)
class ChangeEvent:
    """One (commit, file) change. ``order`` increases with commit order,
    oldest first, so events can be compared across files."""

    commit_id: str
    author: RawUser
    path: str
    kind: ChangeKind
    order: int
    old_path: str | None = None


@dataclass
class FileTrace:
    """The ordered change history of one snapshot file, renames followed."""

    current_path: str
    events: list[ChangeEvent]

    @property
    def complete(self) -> bool:
        """True when the trace reaches back to the file's original addition."""
        return bool(self.events) and self.events[0].kind is ChangeKind.ADDITION


@dataclass(frozen=True)
class MigrationVerdict:
    """Outcome of the botched-migration heuristic (see :func:`check_migration`)."""

    suspicious: bool
    fraction_covered: float
    adding_commits: int


def run_git(repo_path: str | Path, args: Sequence[str]) -> str:
    """Run one git command in ``repo_path`` and return its stdout.

    The output is decoded as UTF-8 with no newline translation: git ends
    its lines with ``\n`` alone, and a ``\r`` inside a file's content (as
    ``git blame`` prints it) must not become a line break.
    """
    command = ["git", *args]
    try:
        proc = subprocess.run(command, cwd=str(repo_path), capture_output=True)
    except OSError as exc:
        raise GitInvocationFailed(" ".join(command), str(exc)) from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace").strip()
        raise GitInvocationFailed(" ".join(command), stderr)
    return proc.stdout.decode("utf-8", "replace")


@dataclass(frozen=True)
class Revision:
    """The analyzed revision resolved to one commit object id."""

    commit: str
    shallow: bool


def resolve_revision(repo_path: str | Path, branch: str | None = None) -> Revision:
    """Check the repository and resolve ``branch`` (default ``HEAD``) once.

    One ``git rev-parse`` opens the repository, reports whether it is a
    shallow clone and peels the revision to a commit id. Passing that id to
    every later git command keeps them on one commit even if the ref moves
    meanwhile. Raises :class:`NotARepository`, :class:`EmptyRepository`
    (``HEAD`` has no commit) or :class:`GitInvocationFailed` (the revision
    does not name a commit).
    """
    if not Path(repo_path).is_dir():
        raise NotARepository(f"{repo_path}: no such directory")
    revision = branch or "HEAD"
    try:
        out = run_git(
            repo_path,
            [
                "rev-parse",
                "--is-shallow-repository",
                "--verify",
                "--quiet",
                revision + "^{commit}",
            ],
        )
    except GitInvocationFailed as exc:
        # --quiet keeps an unknown revision silent, so anything on stderr
        # means git could not open the repository at all.
        if exc.stderr:
            raise NotARepository(f"{repo_path}: not a Git repository") from exc
        if revision == "HEAD":
            raise EmptyRepository(f"{repo_path}: no commits on HEAD") from exc
        raise GitInvocationFailed(
            f"git rev-parse --verify {revision}", f"revision '{revision}' not found"
        ) from exc
    shallow, commit = out.split()
    return Revision(commit=commit, shallow=shallow == "true")


def resolve_commit(repo_path: str | Path, branch: str | None = None) -> str:
    """The commit id the analyzed revision points at."""
    return resolve_revision(repo_path, branch).commit


def _run_at_revision(
    repo_path: str | Path, branch: str | None, args: Sequence[str]
) -> str:
    """Run a git command that reads ``branch``. When it fails, resolving the
    revision again raises the specific error for a missing repository, an
    empty one or an unknown revision; otherwise git's own error stands."""
    try:
        return run_git(repo_path, args)
    except GitInvocationFailed:
        resolve_revision(repo_path, branch)
        raise


_UNQUOTE_ESCAPES = {
    "a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r",
    "t": "\t", "v": "\v", '"': '"', "\\": "\\",
}


def _unquote(path: str) -> str:
    """Undo git's C-style quoting of unusual path names."""
    if len(path) < 2 or not (path.startswith('"') and path.endswith('"')):
        return path
    body = path[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.extend(ch.encode("utf-8"))
            i += 1
            continue
        nxt = body[i + 1] if i + 1 < len(body) else ""
        if nxt in _UNQUOTE_ESCAPES:
            out.extend(_UNQUOTE_ESCAPES[nxt].encode("utf-8"))
            i += 2
        elif nxt.isdigit():
            out.append(int(body[i + 1 : i + 4], 8))
            i += 4
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return out.decode("utf-8", errors="replace")


def list_snapshot_files(
    repo_path: str | Path,
    rules: FilterRules | None = None,
    branch: str | None = None,
) -> list[str]:
    """Every file tracked at the snapshot, minus whatever the rules exclude.

    Only blob entries count: regular files and symlinks, not the gitlinks
    that record submodules. Returned sorted, as repository-relative paths.
    """
    rules = rules if rules is not None else FilterRules()
    out = _run_at_revision(repo_path, branch, ["ls-tree", "-r", branch or "HEAD"])
    entries = (line.partition("\t") for line in out.splitlines())
    files = (
        _unquote(path) for meta, _, path in entries if meta.split(" ")[1] == "blob"
    )
    return sorted(path for path in files if not rules.matches(path))


def collect_history(
    repo_path: str | Path, branch: str | None = None
) -> list[ChangeEvent]:
    """One ChangeEvent per (commit, file) change, oldest commit first.

    Merge commits are excluded; deletions, copies, and type changes carry no
    authorship signal and are dropped. Rename events keep the old path so
    traces can follow the chain backwards.
    """
    out = _run_at_revision(
        repo_path,
        branch,
        [
            "log",
            branch or "HEAD",
            "--no-merges",
            "--find-renames",
            "--name-status",
            "--pretty=format:%H%x09%an%x09%ae",
        ],
    )
    # git log prints newest first; gather blocks, then reverse.
    blocks: list[tuple[str, RawUser, list[tuple[ChangeKind, str, str | None]]]] = []
    changes: list[tuple[ChangeKind, str, str | None]] | None = None
    for line in out.splitlines():
        if not line:
            continue
        if _COMMIT_LINE.match(line):
            commit_id, name, email = line.split("\t", 2)
            changes = []
            blocks.append((commit_id, RawUser(name, email), changes))
            continue
        if changes is None:
            raise GitInvocationFailed("git log", f"unparseable line: {line!r}")
        fields = line.split("\t")
        kind = _STATUS_KINDS.get(fields[0][:1])
        if kind is None:
            continue
        if kind is ChangeKind.RENAME:
            if len(fields) != 3:
                raise GitInvocationFailed("git log", f"malformed rename: {line!r}")
            changes.append((kind, _unquote(fields[2]), _unquote(fields[1])))
        else:
            if len(fields) != 2:
                raise GitInvocationFailed("git log", f"malformed change: {line!r}")
            changes.append((kind, _unquote(fields[1]), None))
    events: list[ChangeEvent] = []
    order = 0
    for commit_id, author, commit_changes in reversed(blocks):
        for kind, path, old_path in commit_changes:
            events.append(ChangeEvent(commit_id, author, path, kind, order, old_path))
            order += 1
    return events


def trace_files(
    events: Iterable[ChangeEvent], targets: Iterable[str]
) -> list[FileTrace]:
    """Reconstruct each target's history by walking its rename chain backwards.

    Starting from the newest event at the target path, a rename jumps the
    walk to the old path, bounded to events older than the rename so an
    unrelated file later created at the old path is not absorbed. The same
    boundary applies in the other direction: a path's current identity
    reaches back only to its latest rename-away, because everything earlier
    belongs to the file that moved. Traces come back in target order, each
    with events oldest first.
    """
    by_path: dict[str, list[ChangeEvent]] = defaultdict(list)
    renamed_away: dict[str, list[int]] = defaultdict(list)
    for event in events:
        by_path[event.path].append(event)
        if event.kind is ChangeKind.RENAME and event.old_path is not None:
            renamed_away[event.old_path].append(event.order)
    traces = []
    for target in targets:
        collected: list[ChangeEvent] = []
        needle: str | None = target
        horizon: int | None = None  # exclusive upper bound on event order
        while needle is not None:
            floor: int | None = None  # latest rename-away below the horizon
            for order in renamed_away.get(needle, ()):
                if horizon is None or order < horizon:
                    floor = order if floor is None else max(floor, order)
            chain = by_path.get(needle, ())
            needle = None
            for event in reversed(chain):
                if horizon is not None and event.order >= horizon:
                    continue
                if floor is not None and event.order < floor:
                    break
                collected.append(event)
                if event.kind is ChangeKind.RENAME and event.old_path is not None:
                    needle, horizon = event.old_path, event.order
                    break
        collected.reverse()
        traces.append(FileTrace(current_path=target, events=collected))
    return traces


def check_migration(traces: Sequence[FileTrace]) -> MigrationVerdict:
    """Flag histories where most files appeared in just a few commits.

    Repositories imported from another VCS (or squashed) credit whole code
    bases to whoever ran the import, making authorship meaningless. The
    heuristic: take adding commits in decreasing order of files added until
    more than half of the traced files are covered; needing fewer than 20
    commits for that is suspicious.
    """
    total = len(traces)
    adders: Counter[str] = Counter()
    for trace in traces:
        first = next(
            (e for e in trace.events if e.kind is ChangeKind.ADDITION), None
        )
        if first is not None:
            adders[first.commit_id] += 1
    if total == 0 or not adders:
        return MigrationVerdict(False, 0.0, 0)
    covered = 0
    chosen = 0
    fraction = 0.0
    for commit_id, count in sorted(adders.items(), key=lambda kv: (-kv[1], kv[0])):
        covered += count
        chosen += 1
        fraction = covered / total
        if fraction > 0.5:
            break
    return MigrationVerdict(fraction > 0.5 and chosen < 20, fraction, chosen)
