"""Git history extraction: snapshot listing, the commit log, file traces.

All repository access goes through the ``git`` executable; nothing here
mutates the repository, and no git fetches: a partial clone that lacks
objects git needs raises :class:`PartialClone`. Merge commits are
suppressed so every change is counted once, on the branch where it was
made, and renames are detected so a file's history survives being moved.
:func:`read_log` is a ``with`` block: ``git log`` starts as the block is
entered, so git can compute its diffs while the block lists the snapshot,
and is stopped as the block is left. git's failure is raised where git's
output ends, after the commits read before it. Every reader takes the
:class:`Revision` that :func:`resolve_revision` returns, and runs git in
its git directory at its commit.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence, cast

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


class Commit(NamedTuple):
    """One non-merge commit as ``git log`` prints it: its id, its author and
    its changes in git's order, each as (kind, path, old path). The kind is
    git's status letter: "A" (added), "M" (modified) or "R" (renamed). Only
    a rename has an old path."""

    commit_id: str
    author: RawUser
    changes: list[tuple[str, str, str | None]]


@dataclass
class FileTrace:
    """What the history says about one snapshot file, renames followed:
    the number of changes each user made to it, and the user and commit
    that created it (``None`` when its addition predates the history)."""

    current_path: str
    deliveries: dict[RawUser, int] = field(default_factory=dict)
    creator: RawUser | None = None
    creating_commit: str | None = None

    # Read only by perfbench/tracer.py; see ROADMAP item 3.
    @property
    def complete(self) -> bool:
        """True when the trace reaches back to the file's original addition."""
        return self.creating_commit is not None


# Settings that would change what git prints, pinned on every command so a
# user's or system's git config cannot change the answer: log lists the root
# commit's additions, prints no signature verdicts and names authors in
# UTF-8; rename detection is never skipped for a large change; and blame
# reads no mailmap, since log's %an never does (a bare repository would
# otherwise read HEAD:.mailmap). The last three change only speed and
# memory: git reads a commit-graph and its changed-path Bloom filters, such
# as the one that --blame-compare writes, even where the config turns them
# off; and git keeps at most 32 MiB of inflated delta bases, not its default
# 96 MiB. git log and the commit-graph write walk every commit's tree once,
# newest first, and reuse few of them. With git 2.39.5 the cap lowered git
# log's peak RSS from 80.7 to 65.0 MiB on the deep-history benchmark, and
# from 175.9 to 102.0 MiB on a 60,000-commit history, with its CPU time
# within noise; 48 MiB saved nothing on deep-history. Other commands hold
# less: each blame of the audit benchmark peaked at 17.2 MiB, so the cap did
# not bind there (see the README's caveats). start_git adds one more,
# core.useReplaceRefs, which follows GIT_NO_REPLACE_OBJECTS.
_PINNED_CONFIG = (
    "-c", "log.showRoot=true",
    "-c", "log.showSignature=false",
    "-c", "i18n.logOutputEncoding=UTF-8",
    "-c", "diff.renameLimit=0",
    "-c", "mailmap.file=",
    "-c", "mailmap.blob=",
    "-c", "core.commitGraph=true",
    "-c", "commitGraph.readChangedPaths=true",
    "-c", "core.deltaBaseCacheLimit=32m",
)

# Set in every git's environment. A partial clone then fails on a missing
# object instead of fetching it from its promisor remote. And git fills its
# stdout buffer before writing it, where git log on a pipe would otherwise
# write and wake its reader once per commit.
_GIT_ENV = {"GIT_NO_LAZY_FETCH": "1", "GIT_FLUSH": "0"}

# Variables that point git at a repository other than the one it runs in.
# git exports GIT_DIR and GIT_WORK_TREE to its hooks, and GIT_OBJECT_DIRECTORY
# to pre-receive and update hooks while it quarantines a push (githooks(5)),
# so a run started from a hook would otherwise read the hook's repository.
_REPOSITORY_VARIABLES = (
    "GIT_DIR", "GIT_WORK_TREE", "GIT_COMMON_DIR", "GIT_OBJECT_DIRECTORY"
)


def git_env() -> dict[str, str]:
    """A copy of this process's environment without the variables that would
    point git at another repository."""
    return {k: v for k, v in os.environ.items() if k not in _REPOSITORY_VARIABLES}


# How much of git's output one read may return.
_CHUNK_BYTES = 1 << 16

# The size asked for git log's stdout pipe: with Linux's default 64 KiB,
# git blocks within milliseconds while the snapshot is still being listed.
# 1 MiB is Linux's default limit for an unprivileged process (pipe-max-size).
_LOG_PIPE_BYTES = 1 << 20


@contextmanager
def start_git(
    repo_path: str | Path,
    args: Sequence[str],
    stderr: int | IO[bytes],
    env: Mapping[str, str] | None = None,
    input: bytes | None = None,
) -> Iterator[subprocess.Popen[bytes]]:
    """Start one git command in ``repo_path``, with the pinned config, its
    stdout a pipe and its stderr going to ``stderr``, and yield it. However
    the block ends, git is killed if it still runs, its stdout closed and
    the process reaped. ``env`` replaces this process's environment when
    given; otherwise git gets :func:`git_env`. Either environment gets
    ``GIT_NO_LAZY_FETCH=1``, so git never fetches a missing object, and
    ``GIT_FLUSH=0``. git follows replace refs unless that environment sets
    ``GIT_NO_REPLACE_OBJECTS``: ``core.useReplaceRefs`` is pinned to match,
    since a user's ``false`` would otherwise change the answer, and a
    pinned ``true`` alone would override the variable. ``input``, when
    given, is written to git's stdin, which is then closed; it must fit in
    the pipe (64 KiB on Linux), since git may read it only later. A git
    that exits before reading it fails its wait, not this call."""
    env = {**(git_env() if env is None else env), **_GIT_ENV}
    replace_refs = "false" if "GIT_NO_REPLACE_OBJECTS" in env else "true"
    pinned = (*_PINNED_CONFIG, "-c", f"core.useReplaceRefs={replace_refs}")
    try:
        proc = subprocess.Popen(
            ["git", *pinned, *args],
            cwd=str(repo_path),
            env=env,
            stdin=None if input is None else subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
    except OSError as exc:
        raise GitInvocationFailed(" ".join(["git", *args]), str(exc)) from exc
    with proc:  # closes the pipes and reaps git
        try:
            if proc.stdin is not None:
                with suppress(BrokenPipeError), proc.stdin:
                    proc.stdin.write(cast(bytes, input))
            yield proc
        finally:
            proc.kill()  # does nothing once git has been reaped


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
) -> str:
    """Run one git command in ``repo_path`` and return its stdout.

    ``env``, when given, is git's whole environment. Raises
    :class:`PartialClone` or :class:`GitInvocationFailed` when git fails.

    Every output is decoded here, once, as UTF-8 with ``surrogateescape``:
    bytes that are not UTF-8 (a Latin-1 path or author name) become lone
    surrogates, so distinct names stay distinct, and such a string passed
    back to git as an argument is encoded to the original bytes. There is
    no newline translation: a ``\r`` inside a path (as ``ls-tree -z``
    prints it) or an author name must not become a line break.
    """
    with start_git(repo_path, args, subprocess.PIPE, env) as proc:
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise _failure(repo_path, args, err.decode("utf-8", "replace").strip())
    return out.decode("utf-8", "surrogateescape")


@dataclass(frozen=True)
class Revision:
    """The analyzed revision resolved to one commit object id, and the
    repository's absolute common git directory, which holds its objects in
    ``objects`` and where later git commands run."""

    commit: str
    shallow: bool
    git_dir: str


def resolve_revision(repo_path: str | Path, branch: str | None = None) -> Revision:
    """Check the repository and resolve ``branch`` (default ``HEAD``) once.

    One ``git rev-parse`` opens the repository, finds its common git
    directory, reports whether it is a shallow clone and peels the revision
    to a commit id. Passing that id to every later git command keeps them on
    one commit even if the ref moves meanwhile, and running them in the
    common directory makes every path repository-relative, even when
    ``repo_path`` is a subdirectory or a linked worktree, whose own git
    directory gives only the ``HEAD`` that this call reads. Raises
    :class:`NotARepository`, with git's first line of stderr, such as its
    refusal of a repository that another user owns; :class:`EmptyRepository`
    (``HEAD`` has no commit); or :class:`GitInvocationFailed` (the revision
    does not name a commit, or git cannot be started).
    """
    if not Path(repo_path).is_dir():
        raise NotARepository(f"{repo_path}: no such directory")
    revision = branch or "HEAD"
    try:
        out = run_git(
            repo_path,
            [
                "rev-parse",
                "--path-format=absolute",
                "--git-common-dir",
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


# Kept only because perfbench/tracer.py wraps it; see ROADMAP item 3.
def resolve_commit(repo_path: str | Path, branch: str | None = None) -> str:
    """The commit id the analyzed revision points at."""
    return resolve_revision(repo_path, branch).commit


def list_snapshot_files(
    revision: Revision, rules: FilterRules | None = None
) -> list[str]:
    """Every file tracked at ``revision``, minus whatever the rules exclude.

    Only blob entries count: regular files and symlinks, not the gitlinks
    that record submodules. Returned sorted, as paths relative to the
    repository root.
    """
    rules = rules if rules is not None else FilterRules()
    out = run_git(
        revision.git_dir, ["ls-tree", "-r", "-z", "--full-tree", revision.commit]
    )
    # Each entry is "<mode> <type> <object>\t<path>", ended by a NUL.
    entries = (entry.partition("\t") for entry in out.split("\0")[:-1])
    files = (path for meta, _, path in entries if meta.split(" ")[1] == "blob")
    return sorted(path for path in files if not rules.matches(path))


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
        changes: list[tuple[str, str, str | None]] = []
        while status:
            kind = status[0]
            path = next(fields, "")
            new_path = next(fields, "") if kind in "RC" else path
            if not (path and new_path):
                raise GitInvocationFailed(
                    "git log", f"malformed change {status!r} in {commit_id}"
                )
            if kind in "AMR":
                changes.append((kind, new_path, path if kind == "R" else None))
            status = next(fields, "")
        author = users.get((name, email))
        if author is None:
            author = users[name, email] = RawUser(name, email)
        yield Commit(commit_id, author, changes)


@contextmanager
def read_log(revision: Revision) -> Iterator[Iterator[Commit]]:
    """Start ``git log`` and yield an iterator over every non-merge commit
    reachable from ``revision``, newest first, parsed while git still runs::

        with read_log(revision) as commits:
            traces = trace_files(commits, list_snapshot_files(revision))

    Merge commits are excluded, so every change is counted once, on the
    branch where it was made, and renames are detected, so a file's history
    survives being moved. git starts when the block is entered, not at the
    first commit read, so it computes its diffs while the block does other
    work, such as listing the snapshot; its stdout pipe is widened where
    the system allows, so git is not stopped by a full pipe meanwhile.
    git's stderr goes to a temporary file, so it can never fill up while
    its stdout is being read. Leaving the block, read or not, by return or
    by exception, stops git, so the commits are read inside it; reading on
    after the block has been left raises :class:`TruckFactorError`, which
    says so. When git fails, :class:`PartialClone` or
    :class:`GitInvocationFailed`, carrying git's stderr, is raised where
    git's output ends; the commits yielded before it stay valid.
    """
    args = [
        "log",
        "-z",
        revision.commit,
        "--no-merges",
        "--find-renames",
        "--name-status",
        "--pretty=format:%x00%H%x00%an%x00%ae",
    ]
    with tempfile.TemporaryFile() as errors, start_git(
        revision.git_dir, args, errors
    ) as proc:

        def chunks() -> Iterator[bytes]:
            while not proc.stdout.closed:  # closed once the block is left
                chunk = proc.stdout.read1(_CHUNK_BYTES)
                if not chunk:
                    # raised here, before the parser sees a failed git's cut-off end
                    if proc.wait() != 0:
                        errors.seek(0)
                        message = errors.read().decode("utf-8", "replace").strip()
                        raise _failure(revision.git_dir, args, message)
                    return
                yield chunk
            raise TruckFactorError(
                "read_log's commits were read after its with block was left; "
                "read them inside the block"
            )

        _widen(proc.stdout)
        yield parse_log(chunks())


def _widen(pipe: IO[bytes]) -> None:
    """Ask for ``pipe`` to hold :data:`_LOG_PIPE_BYTES`. Where the system has
    no such request (it is Linux's), or refuses the size (above its
    ``pipe-max-size``, or over the user's pipe quota), the pipe keeps the
    size it has."""
    set_size = getattr(fcntl, "F_SETPIPE_SZ", None)
    if set_size is not None:
        with suppress(OSError):
            fcntl.fcntl(pipe, set_size, _LOG_PIPE_BYTES)


# Kept only because perfbench/tracer.py wraps it; see ROADMAP item 3.
def collect_history(revision: Revision) -> list[Commit]:
    """The commits of :func:`read_log` in one list."""
    with read_log(revision) as commits:
        return list(commits)


def trace_files(commits: Iterable[Commit], targets: Iterable[str]) -> list[FileTrace]:
    """Fold each target's history out of one replay of ``commits``, newest
    first, as the block of :func:`read_log` gets them.

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
                if kind == "A":
                    trace.creator = author
                    trace.creating_commit = commit_id
                    del live[path]
            if kind == "R":
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
    for count in sorted(adders.values(), reverse=True):
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
