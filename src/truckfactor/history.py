"""Git history extraction: snapshot listing, change events, file traces.

All repository access goes through the ``git`` executable; nothing here
mutates the repository. Merge commits are suppressed so every change is
counted once, on the branch where it was made, and renames are detected so
a file's history survives being moved.
"""

from __future__ import annotations

import subprocess
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyRepository, GitInvocationFailed, NotARepository
from .filters import FilterRules
from .identity import RawUser
from .report import MigrationSummary


class ChangeKind(Enum):
    ADDITION = "A"
    MODIFICATION = "M"
    RENAME = "R"


_STATUS_KINDS = {
    "A": ChangeKind.ADDITION,
    "M": ChangeKind.MODIFICATION,
    "R": ChangeKind.RENAME,
}


@dataclass(frozen=True)
class ChangeEvent:
    """One (commit, file) change."""

    commit_id: str
    author: RawUser
    path: str
    kind: ChangeKind
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


# Settings that would change what git prints, pinned on every command so a
# user's or system's git config cannot change the answer: log lists the root
# commit's additions, prints no signature verdicts and names authors in
# UTF-8; rename detection is never skipped for a large change; and blame
# reads no mailmap, since log's %an never does (a bare repository would
# otherwise read HEAD:.mailmap).
_PINNED_CONFIG = (
    "-c", "log.showRoot=true",
    "-c", "log.showSignature=false",
    "-c", "i18n.logOutputEncoding=UTF-8",
    "-c", "diff.renameLimit=0",
    "-c", "mailmap.file=",
    "-c", "mailmap.blob=",
)


def run_git(repo_path: str | Path, args: Sequence[str]) -> str:
    """Run one git command in ``repo_path`` and return its stdout.

    Every output is decoded here, once, as UTF-8 with ``surrogateescape``:
    bytes that are not UTF-8 (a Latin-1 path or author name) become lone
    surrogates, so distinct names stay distinct, and such a string passed
    back to git as an argument is encoded to the original bytes. There is
    no newline translation: a ``\r`` inside a file's content (as ``git
    blame`` prints it) must not become a line break.
    """
    command = ["git", *args]
    try:
        proc = subprocess.run(
            ["git", *_PINNED_CONFIG, *args], cwd=str(repo_path), capture_output=True
        )
    except OSError as exc:
        raise GitInvocationFailed(" ".join(command), str(exc)) from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace").strip()
        raise GitInvocationFailed(" ".join(command), stderr)
    return proc.stdout.decode("utf-8", "surrogateescape")


@dataclass(frozen=True)
class Revision:
    """The analyzed revision resolved to one commit object id, and the
    absolute git directory that later git commands run in."""

    commit: str
    shallow: bool
    git_dir: str


def resolve_revision(repo_path: str | Path, branch: str | None = None) -> Revision:
    """Check the repository and resolve ``branch`` (default ``HEAD``) once.

    One ``git rev-parse`` opens the repository, finds its git directory,
    reports whether it is a shallow clone and peels the revision to a commit
    id. Passing that id to every later git command keeps them on one commit
    even if the ref moves meanwhile, and running them in the git directory
    makes every path repository-relative, even when ``repo_path`` is a
    subdirectory of the work tree. Raises :class:`NotARepository`,
    :class:`EmptyRepository` (``HEAD`` has no commit) or
    :class:`GitInvocationFailed` (the revision does not name a commit).
    """
    if not Path(repo_path).is_dir():
        raise NotARepository(f"{repo_path}: no such directory")
    revision = branch or "HEAD"
    try:
        out = run_git(
            repo_path,
            [
                "rev-parse",
                "--absolute-git-dir",
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
    git_dir, shallow, commit = out[:-1].rsplit("\n", 2)
    return Revision(commit=commit, shallow=shallow == "true", git_dir=git_dir)


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


def list_snapshot_files(
    repo_path: str | Path,
    rules: FilterRules | None = None,
    branch: str | None = None,
) -> list[str]:
    """Every file tracked at the snapshot, minus whatever the rules exclude.

    Only blob entries count: regular files and symlinks, not the gitlinks
    that record submodules. Returned sorted, as paths relative to the
    repository root even when ``repo_path`` is a subdirectory of it.
    """
    rules = rules if rules is not None else FilterRules()
    out = _run_at_revision(
        repo_path, branch, ["ls-tree", "-r", "-z", "--full-tree", branch or "HEAD"]
    )
    # Each entry is "<mode> <type> <object>\t<path>", ended by a NUL.
    entries = (entry.partition("\t") for entry in out.split("\0")[:-1])
    files = (path for meta, _, path in entries if meta.split(" ")[1] == "blob")
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
            "-z",
            branch or "HEAD",
            "--no-merges",
            "--find-renames",
            "--name-status",
            "--pretty=format:%x00%H%x00%an%x00%ae",
        ],
    )
    # Split at NUL, the output is a run of commits: an empty token, then the
    # commit's id, name and email. When the commit changed anything, the email token also carries
    # "\n" and the first status. Each status is followed by its paths (two
    # for R and C, one otherwise), then by the next status or by the empty
    # token that ends the commit. git prints newest first; gather blocks,
    # then reverse.
    tokens = out.split("\0")
    end = len(tokens)
    blocks: list[tuple[str, RawUser, list[tuple[ChangeKind, str, str | None]]]] = []
    i = 0
    while i < end:
        commit_id = tokens[i]
        if not commit_id:
            i += 1
            continue
        if i + 2 >= end:
            raise GitInvocationFailed("git log", f"truncated commit {commit_id!r}")
        email, _, status = tokens[i + 2].partition("\n")
        changes: list[tuple[ChangeKind, str, str | None]] = []
        blocks.append((commit_id, RawUser(tokens[i + 1], email), changes))
        i += 3
        while status:
            width = 2 if status[0] in "RC" else 1
            paths = tokens[i : i + width]
            if len(paths) < width or not all(paths):
                raise GitInvocationFailed(
                    "git log", f"malformed change {status!r} in {commit_id}"
                )
            kind = _STATUS_KINDS.get(status[0])
            if kind is ChangeKind.RENAME:
                changes.append((kind, paths[1], paths[0]))
            elif kind is not None:
                changes.append((kind, paths[0], None))
            i += width
            status = tokens[i] if i < end else ""
            i += 1
    return [
        ChangeEvent(commit_id, author, path, kind, old_path)
        for commit_id, author, commit_changes in reversed(blocks)
        for kind, path, old_path in commit_changes
    ]


def trace_files(
    events: Sequence[ChangeEvent], targets: Iterable[str]
) -> list[FileTrace]:
    """Reconstruct each target's history in one newest-first replay.

    ``live`` maps each path to the trace of the file found there at the
    current point of the replay, starting from the targets. An event at a
    live path joins that trace. An addition means the path was absent
    before, so it ends the tracking there: an older file at the same path
    is a different file. A rename ``X -> Y`` ends the tracking of both
    paths, since older events at ``X`` belong to the file that moved, and
    carries ``Y``'s trace, if any, back to ``X``. Traces come back in target
    order, one per distinct target, each with events oldest first.
    """
    traces = {target: FileTrace(target, []) for target in targets}
    live = dict(traces)
    for event in reversed(events):
        trace = live.get(event.path)
        if trace is not None:
            trace.events.append(event)
        if event.kind is ChangeKind.ADDITION:
            live.pop(event.path, None)
        elif event.kind is ChangeKind.RENAME and event.old_path is not None:
            live.pop(event.path, None)
            live.pop(event.old_path, None)
            if trace is not None:
                live[event.old_path] = trace
    for trace in traces.values():
        trace.events.reverse()
    return list(traces.values())


def check_migration(traces: Sequence[FileTrace]) -> MigrationSummary:
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
        return MigrationSummary(checked=True)
    covered = 0
    chosen = 0
    fraction = 0.0
    for commit_id, count in sorted(adders.items(), key=lambda kv: (-kv[1], kv[0])):
        covered += count
        chosen += 1
        fraction = covered / total
        if fraction > 0.5:
            break
    return MigrationSummary(
        checked=True,
        suspicious=fraction > 0.5 and chosen < 20,
        fraction_covered=fraction,
        adding_commits=chosen,
    )
