"""Git history extraction: snapshot listing, the commit log, file traces.

All repository access goes through the ``git`` executable; nothing here
mutates the repository, and no git fetches: a partial clone that lacks
objects git needs raises :class:`PartialClone`. Merge commits are
suppressed so every change is counted once, on the branch where it was
made, and renames are detected so a file's history survives being moved.
:func:`read_log` starts ``git log`` as soon as it is called, so git can
compute its diffs while the caller lists the snapshot.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import (
    IO,
    Generator,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
    cast,
)

from .errors import (
    EmptyRepository,
    GitInvocationFailed,
    NotARepository,
    PartialClone,
    TruckFactorError,
)
from .filters import FilterRules
from .identity import RawUser
from .report import MigrationSummary

try:
    import fcntl
except ImportError:  # not a POSIX system
    fcntl = None  # type: ignore[assignment]


class ChangeKind(Enum):
    ADDITION = "A"
    MODIFICATION = "M"
    RENAME = "R"


@dataclass(frozen=True)
class ChangeEvent:
    """One (commit, file) change."""

    commit_id: str
    author: RawUser
    path: str
    kind: ChangeKind
    old_path: str | None = None


class Commit(NamedTuple):
    """One non-merge commit as ``git log`` prints it: its id, its author and
    its A/M/R changes in git's order, each as (kind, path, old path). Only a
    rename has an old path."""

    commit_id: str
    author: RawUser
    changes: list[tuple[ChangeKind, str, str | None]]


@dataclass
class FileTrace:
    """What the history says about one snapshot file, renames followed:
    the number of changes each user made to it, and the user and commit
    that created it (``None`` when its addition predates the history)."""

    current_path: str
    deliveries: dict[RawUser, int] = field(default_factory=dict)
    creator: RawUser | None = None
    creating_commit: str | None = None

    # Read only by perfbench/tracer.py; see ROADMAP item 5.
    @property
    def complete(self) -> bool:
        """True when the trace reaches back to the file's original addition."""
        return self.creating_commit is not None


# Settings that would change what git prints, pinned on every command so a
# user's or system's git config cannot change the answer: log lists the root
# commit's additions, prints no signature verdicts and names authors in
# UTF-8; rename detection is never skipped for a large change; and blame
# reads no mailmap, since log's %an never does (a bare repository would
# otherwise read HEAD:.mailmap). The last two change only speed: git reads
# a commit-graph and its changed-path Bloom filters, such as the one that
# --blame-compare writes, even where the config turns them off.
_PINNED_CONFIG = (
    "-c", "log.showRoot=true",
    "-c", "log.showSignature=false",
    "-c", "i18n.logOutputEncoding=UTF-8",
    "-c", "diff.renameLimit=0",
    "-c", "mailmap.file=",
    "-c", "mailmap.blob=",
    "-c", "core.commitGraph=true",
    "-c", "commitGraph.readChangedPaths=true",
)

# Set in every git's environment. A partial clone then fails on a missing
# object instead of fetching it from its promisor remote. And git fills its
# stdout buffer before writing it, where git log on a pipe would otherwise
# write and wake its reader once per commit.
_GIT_ENV = {"GIT_NO_LAZY_FETCH": "1", "GIT_FLUSH": "0"}

# How much of git's output one read may return.
_CHUNK_BYTES = 1 << 16

# The size asked for git log's stdout pipe: with Linux's default 64 KiB,
# git blocks within milliseconds while the snapshot is still being listed.
# 1 MiB is Linux's default limit for an unprivileged process (pipe-max-size).
_LOG_PIPE_BYTES = 1 << 20


def start_git(
    repo_path: str | Path,
    args: Sequence[str],
    stderr: int | IO[bytes],
    env: Mapping[str, str] | None = None,
    stdin: int | None = None,
) -> subprocess.Popen[bytes]:
    """Start one git command in ``repo_path``, with the pinned config, its
    stdout a pipe and its stderr going to ``stderr``. ``env`` replaces this
    process's environment when given, and ``stdin`` is passed to
    :class:`subprocess.Popen` as it is. Either environment gets
    ``GIT_NO_LAZY_FETCH=1``, so git never fetches a missing object, and
    ``GIT_FLUSH=0``."""
    try:
        return subprocess.Popen(
            ["git", *_PINNED_CONFIG, *args],
            cwd=str(repo_path),
            env={**(os.environ if env is None else env), **_GIT_ENV},
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
    except OSError as exc:
        raise GitInvocationFailed(" ".join(["git", *args]), str(exc)) from exc


def _failure(
    repo_path: str | Path, args: Sequence[str], stderr: str
) -> TruckFactorError:
    """The error for a git command that exited non-zero with ``stderr``:
    :class:`PartialClone` when git needed an object it was not allowed to
    fetch, :class:`GitInvocationFailed` otherwise."""
    if "lazy fetching disabled" not in stderr:
        return GitInvocationFailed(" ".join(["git", *args]), stderr)
    reason = stderr.splitlines()[-1]
    return PartialClone(
        f"{repo_path}: a partial clone lacks objects that git needs ({reason}); "
        "analyze a full clone, or fetch every object first with "
        "'git fetch --refetch --no-filter'"
    )


def run_git(
    repo_path: str | Path,
    args: Sequence[str],
    *,
    env: Mapping[str, str] | None = None,
    input: bytes | None = None,
) -> str:
    """Run one git command in ``repo_path`` and return its stdout.

    ``env``, when given, is git's whole environment, and ``input``, when
    given, is written to git's stdin. Raises :class:`PartialClone` or
    :class:`GitInvocationFailed` when git fails.

    Every output is decoded here, once, as UTF-8 with ``surrogateescape``:
    bytes that are not UTF-8 (a Latin-1 path or author name) become lone
    surrogates, so distinct names stay distinct, and such a string passed
    back to git as an argument is encoded to the original bytes. There is
    no newline translation: a ``\r`` inside a file's content (as ``git
    blame`` prints it) must not become a line break.
    """
    stdin = None if input is None else subprocess.PIPE
    with start_git(repo_path, args, subprocess.PIPE, env, stdin) as proc:
        out, err = proc.communicate(input)
    if proc.returncode != 0:
        raise _failure(repo_path, args, err.decode("utf-8", "replace").strip())
    return out.decode("utf-8", "surrogateescape")


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
    subdirectory of the work tree. Raises :class:`NotARepository`, with
    git's first line of stderr, such as its refusal of a repository that
    another user owns; :class:`EmptyRepository` (``HEAD`` has no commit); or
    :class:`GitInvocationFailed` (the revision does not name a commit, or
    git cannot be started).
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
        if isinstance(exc.__cause__, OSError):
            raise  # git itself could not be started; its error names why
        # --quiet keeps an unknown revision silent, so anything on stderr
        # means git could not open the repository at all.
        if exc.stderr:
            reason = exc.stderr.splitlines()[0]
            raise NotARepository(
                f"{repo_path}: not a Git repository: {reason}"
            ) from exc
        if revision == "HEAD":
            raise EmptyRepository(f"{repo_path}: no commits on HEAD") from exc
        raise GitInvocationFailed(
            f"git rev-parse --verify {revision}", f"revision '{revision}' not found"
        ) from exc
    git_dir, shallow, commit = out[:-1].rsplit("\n", 2)
    return Revision(commit=commit, shallow=shallow == "true", git_dir=git_dir)


# Kept only because perfbench/tracer.py wraps it; see ROADMAP item 5.
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


_STATUS_KINDS = {"A": ChangeKind.ADDITION, "M": ChangeKind.MODIFICATION}


def _fields(chunks: Iterable[bytes]) -> Iterator[list[str]]:
    """The NUL-separated fields of a byte stream arriving in chunks cut
    anywhere. Each chunk is cut at its last NUL, where no UTF-8 character
    can be split, and decoded once, with ``surrogateescape`` like
    :func:`run_git`; the bytes after the cut open the next chunk's first
    field. The last field is whatever follows the stream's last NUL."""
    rest = b""
    for chunk in chunks:
        cut = chunk.rfind(b"\0")
        if cut < 0:
            rest += chunk
            continue
        yield (rest + chunk[:cut]).decode("utf-8", "surrogateescape").split("\0")
        rest = chunk[cut + 1 :]
    yield [rest.decode("utf-8", "surrogateescape")]


def parse_log(chunks: Iterable[bytes]) -> Iterator[Commit]:
    """The commits in the output of :func:`read_log`'s ``git log``, in the
    order git prints them, as the output arrives.

    Split at NUL, the output is a run of commits: an empty field, then the
    commit's id, name and email. When the commit changed anything, the email
    field also carries "\n" and the first status. Each status is followed
    by its paths (two for R and C, one otherwise), then by the next status
    or by the empty field that ends the commit. Deletions, copies and type
    changes carry no authorship signal and are dropped. Raises
    :class:`GitInvocationFailed` on a truncated or malformed record.
    """
    fields = chain.from_iterable(_fields(chunks))
    users: dict[tuple[str, str], RawUser] = {}  # one object per distinct author
    for commit_id in fields:
        if not commit_id:
            continue
        name = next(fields, None)
        email = next(fields, None)
        if email is None:
            raise GitInvocationFailed("git log", f"truncated commit {commit_id!r}")
        email, _, status = email.partition("\n")
        changes: list[tuple[ChangeKind, str, str | None]] = []
        while status:
            path = next(fields, "")
            new_path = next(fields, "") if status[0] in "RC" else path
            if not (path and new_path):
                raise GitInvocationFailed(
                    "git log", f"malformed change {status!r} in {commit_id}"
                )
            if status[0] == "R":
                changes.append((ChangeKind.RENAME, new_path, path))
            elif kind := _STATUS_KINDS.get(status[0]):
                changes.append((kind, path, None))
            status = next(fields, "")
        author = users.get((name, email))
        if author is None:
            author = users[name, email] = RawUser(name, email)
        yield Commit(commit_id, author, changes)


def read_log(
    repo_path: str | Path, branch: str | None = None
) -> Generator[Commit, None, None]:
    """Every non-merge commit reachable from ``branch``, newest first, parsed
    while ``git log`` is still running.

    Merge commits are excluded, so every change is counted once, on the
    branch where it was made, and renames are detected, so a file's history
    survives being moved. git starts when this function is called, not at
    the first commit read, so it computes its diffs while the caller does
    other work, such as listing the snapshot; its stdout pipe is widened
    where the system allows, so git is not stopped by a full pipe meanwhile.
    git's stderr goes to a temporary file, so it can never fill up while its
    stdout is being read. Closing or dropping the generator, read or not,
    or an error while reading, stops git. When git fails, resolving the
    revision again raises the specific error for a missing repository, an
    empty one or an unknown revision; otherwise :class:`PartialClone` or
    :class:`GitInvocationFailed` carries git's stderr.
    """
    log = _log(repo_path, branch)
    next(log)  # runs up to the first yield, just after git started
    return cast(Generator[Commit, None, None], log)


def _log(
    repo_path: str | Path, branch: str | None
) -> Generator[Commit | None, None, None]:
    """:func:`read_log`'s generator: ``None`` once git has started, then the
    commits. Closing it at that first yield stops git too."""
    args = [
        "log",
        "-z",
        branch or "HEAD",
        "--no-merges",
        "--find-renames",
        "--name-status",
        "--pretty=format:%x00%H%x00%an%x00%ae",
    ]
    with tempfile.TemporaryFile() as errors:
        try:
            proc = start_git(repo_path, args, errors)
        except GitInvocationFailed:
            resolve_revision(repo_path, branch)
            raise
        stdout = proc.stdout
        at_end = False

        def chunks() -> Iterator[bytes]:
            nonlocal at_end
            while chunk := stdout.read1(_CHUNK_BYTES):
                yield chunk
            at_end = True

        try:
            _widen(stdout)
            yield None
            yield from parse_log(chunks())
        except GitInvocationFailed:
            # git's output can end inside a record when git itself failed.
            if not at_end or proc.wait() == 0:
                raise
        finally:
            if not at_end:
                proc.kill()
            stdout.close()
            proc.wait()
        if proc.returncode != 0:
            errors.seek(0)
            message = errors.read().decode("utf-8", "replace").strip()
            resolve_revision(repo_path, branch)
            raise _failure(repo_path, args, message)


def _widen(pipe: IO[bytes]) -> None:
    """Ask for ``pipe`` to hold :data:`_LOG_PIPE_BYTES`. Where the system has
    no such request (it is Linux's), or refuses the size (above its
    ``pipe-max-size``, or over the user's pipe quota), the pipe keeps the
    size it has."""
    set_size = getattr(fcntl, "F_SETPIPE_SZ", None)
    if set_size is not None:
        with suppress(OSError):
            fcntl.fcntl(pipe, set_size, _LOG_PIPE_BYTES)


def collect_history(
    repo_path: str | Path, branch: str | None = None
) -> list[ChangeEvent]:
    """One ChangeEvent per A/M/R change, oldest commit first: the commits of
    :func:`read_log` in one list."""
    commits = list(read_log(repo_path, branch))
    return [
        ChangeEvent(commit_id, author, path, kind, old_path)
        for commit_id, author, changes in reversed(commits)
        for kind, path, old_path in changes
    ]


def trace_files(commits: Iterable[Commit], targets: Iterable[str]) -> list[FileTrace]:
    """Fold each target's history out of one replay of ``commits``, newest
    first, as :func:`read_log` yields them.

    ``live`` maps each path to the trace of the file found there at the
    current point of the replay, starting from the targets. A change at a
    live path is one delivery by its author. An addition means the path was
    absent before, so it names the file's creator and ends the tracking
    there: an older file at the same path is a different file. A rename
    ``X -> Y`` ends the tracking of both paths, since older changes at ``X``
    belong to the file that moved, and carries ``Y``'s trace, if any, back
    to ``X``. Traces come back in target order, one per distinct target.
    """
    traces = {target: FileTrace(target) for target in targets}
    live = dict(traces)
    for commit_id, author, changes in commits:
        for kind, path, old_path in changes:
            trace = live.get(path)
            if trace is not None:
                deliveries = trace.deliveries
                deliveries[author] = deliveries.get(author, 0) + 1
                if kind is ChangeKind.ADDITION:
                    trace.creator = author
                    trace.creating_commit = commit_id
                    del live[path]
            if kind is ChangeKind.RENAME:
                if trace is not None:
                    del live[path]
                    live[old_path] = trace
                else:
                    live.pop(old_path, None)
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
    adders = Counter(
        trace.creating_commit for trace in traces if trace.creating_commit is not None
    )
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
