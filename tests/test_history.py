import ast
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import repo_fixtures as rf
from truckfactor import history
from truckfactor.errors import (
    EmptyRepository,
    GitInvocationFailed,
    NotARepository,
    TruckFactorError,
)
from truckfactor.filters import FilterRules
from truckfactor.history import (
    Commit,
    FileTrace,
    Revision,
    check_migration,
    list_snapshot_files,
    parse_log,
    read_log,
    resolve_revision,
    trace_files,
)
from truckfactor.identity import RawUser
from truckfactor.pipeline import AnalysisConfig, run
from truckfactor.report import MigrationSummary


_DEV = RawUser("Dev", "dev@example.com")


def _trace_of(path, *commit_kind_pairs):
    """The trace folded from (commit_id, kind) changes to ``path``, oldest
    first, one commit each."""
    commits = [
        Commit(commit_id, _DEV, [(kind, path, None)])
        for commit_id, kind in commit_kind_pairs
    ]
    (trace,) = trace_files(reversed(commits), [path])
    return trace


def _commits(revision):
    """The commits of :func:`read_log`, newest first, in one list."""
    with read_log(revision) as commits:
        return list(commits)


# --- list_snapshot_files ---------------------------------------------------


def test_snapshot_lists_tracked_files_sorted(single_author_repo):
    revision = resolve_revision(single_author_repo.path)
    files = list_snapshot_files(revision, FilterRules(builtin_vendored=[]))
    assert files == ["src/f1.py", "src/f2.py", "src/f3.py"]


def test_snapshot_applies_filter_rules(vendored_repo):
    revision = resolve_revision(vendored_repo.path)
    everything = list_snapshot_files(revision, FilterRules(builtin_vendored=[]))
    assert len(everything) == 4
    filtered = list_snapshot_files(revision)
    assert filtered == ["src/app.py"]


def test_snapshot_honors_branch(branched_repo):
    on_head = resolve_revision(branched_repo.path)
    assert list_snapshot_files(on_head, FilterRules(builtin_vendored=[])) == ["m.txt"]
    on_dev = resolve_revision(branched_repo.path, "dev")
    assert list_snapshot_files(on_dev, FilterRules(builtin_vendored=[])) == ["d.txt", "m.txt"]


def test_snapshot_decodes_quoted_unicode_paths(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "uni")
    builder.commit_file("naïve.py", "x = 1\n", "add unicode name", rf.ALICE)
    revision = resolve_revision(builder.path)
    assert list_snapshot_files(revision, FilterRules(builtin_vendored=[])) == ["naïve.py"]


def test_snapshot_keeps_blobs_and_symlinks_but_not_gitlinks(gitlink_repo):
    files = list_snapshot_files(resolve_revision(gitlink_repo.path), FilterRules(builtin_vendored=[]))
    assert files == ["src/app.py", "src/link.py"]


def test_library_traces_are_the_same_from_a_subdirectory(single_author_repo):
    def traces(path):
        revision = resolve_revision(path)
        with read_log(revision) as commits:
            rules = FilterRules(builtin_vendored=[])
            return trace_files(commits, list_snapshot_files(revision, rules))

    from_root = traces(single_author_repo.path)
    assert [t.current_path for t in from_root] == ["src/f1.py", "src/f2.py", "src/f3.py"]
    assert all(t.creating_commit is not None for t in from_root)
    assert traces(single_author_repo.path / "src") == from_root


# --- resolve_revision ------------------------------------------------------


def test_resolve_revision_peels_to_the_full_commit_id(branched_repo):
    dev_head = branched_repo.git("rev-parse", "dev").strip()
    branched_repo.git("tag", "-a", "v1", "-m", "annotated", "dev")
    git_dir = str((branched_repo.path / ".git").resolve())
    revision = resolve_revision(branched_repo.path, "v1")
    assert revision == Revision(dev_head, False, git_dir)
    assert resolve_revision(branched_repo.path, "dev").commit == dev_head
    assert resolve_revision(branched_repo.path).commit == branched_repo.head()


def test_resolve_revision_keeps_its_errors_apart(tmp_path, single_author_repo):
    with pytest.raises(NotARepository):
        resolve_revision(tmp_path / "missing")
    plain_dir = tmp_path / "plain"
    plain_dir.mkdir()
    with pytest.raises(NotARepository):
        resolve_revision(plain_dir)
    with pytest.raises(EmptyRepository):
        resolve_revision(rf.RepoBuilder(tmp_path / "fresh").path)
    with pytest.raises(GitInvocationFailed, match="'no-such-branch' not found"):
        resolve_revision(single_author_repo.path, "no-such-branch")


def test_snapshot_rejects_a_regular_file(tmp_path):
    not_a_directory = tmp_path / "file.txt"
    not_a_directory.write_text("x\n", encoding="utf-8")
    with pytest.raises(NotARepository):
        list_snapshot_files(resolve_revision(not_a_directory))


def test_a_revision_shaped_like_an_option_never_reaches_git_as_one(
    tmp_path, single_author_repo
):
    written = tmp_path / "log.txt"
    with pytest.raises(GitInvocationFailed, match="not found"):
        resolve_revision(single_author_repo.path, f"--output={written}")
    assert not written.exists()


def test_a_repository_of_another_owner_is_refused_with_gits_reason(
    monkeypatch, single_author_repo
):
    # git then treats the repository as if another user owned it.
    monkeypatch.setenv("GIT_TEST_ASSUME_DIFFERENT_OWNER", "1")
    with pytest.raises(NotARepository) as failure:
        resolve_revision(single_author_repo.path)
    assert "not a Git repository: fatal: detected dubious ownership" in str(
        failure.value
    )
    assert "\n" not in str(failure.value)


def test_resolve_revision_detects_shallow_clones(tmp_path, two_author_repo):
    assert not resolve_revision(two_author_repo.path).shallow
    clone = rf.shallow_clone(two_author_repo, tmp_path / "shallow")
    git_dir = str((clone / ".git").resolve())
    assert resolve_revision(clone) == Revision(two_author_repo.head(), True, git_dir)


# --- read_log --------------------------------------------------------------


def test_history_yields_additions_oldest_first(single_author_repo):
    commits = _commits(resolve_revision(single_author_repo.path))[::-1]
    assert [c.changes for c in commits] == [
        [("A", f"src/f{i}.py", None)] for i in (1, 2, 3)
    ]
    assert [c.commit_id for c in commits] == single_author_repo.git(
        "rev-list", "--reverse", "HEAD"
    ).split()
    assert commits[0].author == RawUser("Alice", "alice@example.com")


def test_history_records_renames_with_old_path(rename_repo):
    rename, addition = _commits(resolve_revision(rename_repo.path))
    assert addition.changes == [("A", "src/original.py", None)]
    assert rename.changes == [("R", "src/renamed.py", "src/original.py")]
    assert rename.author == RawUser("Dave", "dave@example.com")


def test_history_excludes_merge_commits(merge_repo):
    commits = _commits(resolve_revision(merge_repo.path))
    assert len(commits) == 3
    merge_sha = resolve_revision(merge_repo.path).commit
    assert merge_sha not in {c.commit_id for c in commits}


def test_history_drops_deletions(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "deleting")
    builder.commit_file("f.txt", "v1\n", "add", rf.ALICE)
    builder.git("rm", "-q", "f.txt")
    builder.git("commit", "-q", "-m", "remove", user=rf.ALICE)
    builder.commit_file("f.txt", "v2\n", "re-add", rf.BOB)
    commits = _commits(resolve_revision(builder.path))
    assert [(c.author.name, c.changes) for c in commits] == [
        ("Bob", [("A", "f.txt", None)]),
        ("Alice", []),
        ("Alice", [("A", "f.txt", None)]),
    ]


def test_history_counts_modifications(two_author_repo):
    commits = _commits(resolve_revision(two_author_repo.path))
    f3 = [kind for c in commits for kind, path, _ in c.changes if path == "f3.py"]
    assert f3 == ["M", "M", "M", "A"]


def test_a_git_that_cannot_start_is_named_as_such(
    tmp_path, monkeypatch, single_author_repo
):
    repo = single_author_repo.path
    revision = resolve_revision(repo)
    no_git = tmp_path / "no-git"
    no_git.mkdir()
    monkeypatch.setenv("PATH", str(no_git))
    calls = [
        lambda: resolve_revision(repo),
        lambda: _commits(revision),
        lambda: run(AnalysisConfig(repo_path=str(repo))),
    ]
    for call in calls:
        with pytest.raises(GitInvocationFailed) as failure:
            call()
        assert isinstance(failure.value.__cause__, FileNotFoundError)
        assert str(failure.value.__cause__) in str(failure.value)
    with pytest.raises(NotARepository):
        resolve_revision(tmp_path / "missing")


def test_every_git_runs_without_lazy_fetching_or_per_commit_flushes(
    monkeypatch, single_author_repo
):
    monkeypatch.setenv("GIT_NO_LAZY_FETCH", "0")
    monkeypatch.setenv("GIT_FLUSH", "1")
    show = ["-c", "alias.show-env=!printenv GIT_NO_LAZY_FETCH GIT_FLUSH", "show-env"]
    repo = single_author_repo.path
    assert history.run_git(repo, show) == "1\n0\n"
    assert history.run_git(repo, show, env={"PATH": os.environ["PATH"]}) == "1\n0\n"


def test_a_log_that_fails_partway_raises_with_gits_stderr(tmp_path):
    # Telling the rename from a delete and an add needs both blobs; with
    # the old one gone, git fails after printing the newer commits.
    builder = rf.RepoBuilder(tmp_path / "broken")
    lines = [f"line {i}\n" for i in range(21)]
    builder.commit_file("a.txt", "".join(lines[:20]), "add", rf.ALICE)
    lost = builder.git("rev-parse", "HEAD:a.txt").strip()
    builder.move("a.txt", "b.txt", "move", rf.BOB)
    builder.commit_file("b.txt", "".join(lines), "edit", rf.BOB)
    builder.git("reset", "-q", "--soft", "HEAD~2")
    builder.git("commit", "-q", "-m", "move and edit", user=rf.BOB)
    for i in range(50):
        builder.commit_file(f"later{i}.txt", f"{i}\n", f"later {i}", rf.CAROL)
    (builder.path / ".git" / "objects" / lost[:2] / lost[2:]).unlink()
    seen = []
    with pytest.raises(GitInvocationFailed) as failure:
        with read_log(resolve_revision(builder.path)) as commits:
            for commit in commits:
                seen.append(commit)
    assert failure.value.command.startswith("git log")
    assert lost in failure.value.stderr
    assert 0 < len(seen) <= 50


# A git that runs the real one, except that "log" runs BODY.
_FAKE_GIT = """#!{python}
import os, signal, sys, time
signal.alarm(20)
if "log" not in sys.argv:
    os.execv({git!r}, [{git!r}, *sys.argv[1:]])
{body}
"""
_RECORD = "\\0" + "c" * 40 + "\\0Cy\\0c@x\\nA\\0a.py\\0\\0"


@pytest.fixture
def fake_git(tmp_path, monkeypatch, started_git):
    """A function that puts a fake git first on PATH, one that runs BODY
    for "log", and returns the list of the processes start_git starts."""

    def install(body):
        script = tmp_path / "bin" / "git"
        script.parent.mkdir()
        git = shutil.which("git")
        script.write_text(_FAKE_GIT.format(python=sys.executable, git=git, body=body))
        script.chmod(0o755)
        monkeypatch.setenv("PATH", f"{script.parent}{os.pathsep}{os.environ['PATH']}")
        return started_git

    return install


def _log_process(started):
    (log,) = [proc for proc in started if "log" in proc.args]
    return log


def test_a_full_stderr_does_not_stall_the_log(fake_git, single_author_repo):
    revision = resolve_revision(single_author_repo.path)
    fake_git(
        f'sys.stderr.write("x" * 1_000_000); sys.stderr.flush()\n'
        f'sys.stdout.write("{_RECORD}")'
    )
    began = time.monotonic()
    (commit,) = _commits(revision)
    assert time.monotonic() - began < 10  # git was never blocked on stderr
    addition = ("A", "a.py", None)
    assert commit == Commit("c" * 40, RawUser("Cy", "c@x"), [addition])


def test_a_malformed_record_stops_git(fake_git, single_author_repo):
    revision = resolve_revision(single_author_repo.path)
    started = fake_git(
        f'sys.stdout.write("{_RECORD}\\0" + "d" * 40 + "\\0Dee\\0d@x\\nM\\0\\0\\0"); '
        "sys.stdout.flush(); time.sleep(30)"
    )
    began = time.monotonic()
    with pytest.raises(GitInvocationFailed, match="malformed change 'M'"):
        _commits(revision)
    assert time.monotonic() - began < 10  # git was stopped, not waited for
    assert _log_process(started).poll() is not None


@pytest.mark.parametrize(
    "out",
    ["\\0" + "d" * 40 + "\\0Dee", _RECORD],
    ids=["truncated-record", "complete-record"],
)
def test_a_git_that_fails_raises_its_stderr_where_its_output_ends(
    fake_git, single_author_repo, out
):
    revision = resolve_revision(single_author_repo.path)
    started = fake_git(
        f'sys.stdout.write("{out}"); sys.stderr.write("fatal: lost"); sys.exit(1)'
    )
    with pytest.raises(GitInvocationFailed) as failure:
        _commits(revision)
    assert failure.value.command.startswith("git log")
    assert failure.value.stderr == "fatal: lost"
    assert _log_process(started).poll() is not None


def test_a_consumer_that_raises_stops_git(fake_git, monkeypatch, single_author_repo):
    started = fake_git(
        f'sys.stdout.write("{_RECORD}"); sys.stdout.flush(); time.sleep(30)'
    )

    def failing_trace_files(commits, targets):
        next(iter(commits))
        raise RuntimeError("consumer failed")

    monkeypatch.setattr(history, "trace_files", failing_trace_files)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="consumer failed"):
        run(AnalysisConfig(repo_path=str(single_author_repo.path)))
    assert time.monotonic() - began < 10  # git was stopped, not waited for
    assert [proc for proc in started if "log" in proc.args]
    assert all(proc.poll() is not None for proc in started)


def test_a_listing_that_fails_stops_the_early_log(
    fake_git, monkeypatch, single_author_repo
):
    started = fake_git(
        f'sys.stdout.write("{_RECORD}"); sys.stdout.flush(); time.sleep(30)'
    )

    def failing_listing(*args, **kwargs):
        assert _log_process(started).poll() is None  # git log already runs
        raise RuntimeError("listing failed")

    monkeypatch.setattr(history, "list_snapshot_files", failing_listing)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="listing failed"):
        run(AnalysisConfig(repo_path=str(single_author_repo.path)))
    assert time.monotonic() - began < 10  # git was stopped, not waited for
    assert _log_process(started).poll() is not None


def test_a_log_closed_unread_stops_git(fake_git, single_author_repo):
    # Entering the block starts git; leaving it stops and reaps git, whether
    # the block read nothing or one commit, and whether it returned or raised.
    revision = resolve_revision(single_author_repo.path)
    started = fake_git(
        f'sys.stdout.write("{_RECORD}"); sys.stdout.flush(); time.sleep(30)'
    )
    began = time.monotonic()
    with read_log(revision):
        assert _log_process(started).poll() is None  # started on entering
    with pytest.raises(RuntimeError, match="left unread"):
        with read_log(revision):
            raise RuntimeError("left unread")
    with read_log(revision) as commits:
        assert next(commits).commit_id == "c" * 40
    assert time.monotonic() - began < 10  # git was stopped, not waited for
    logs = [proc for proc in started if "log" in proc.args]
    assert len(logs) == 3
    assert all(proc.returncode is not None for proc in logs)  # reaped


@pytest.mark.parametrize("read_inside", [0, 1])
def test_commits_read_after_the_block_raise_an_error_that_names_it(
    two_author_repo, read_inside
):
    revision = resolve_revision(two_author_repo.path)
    with read_log(revision) as commits:
        inside = [next(commits) for _ in range(read_inside)]
    assert inside == _commits(revision)[:read_inside]
    with pytest.raises(TruckFactorError, match="after its with block was left"):
        list(commits)


@pytest.mark.skipif(
    not hasattr(history.fcntl, "F_SETPIPE_SZ"), reason="pipes cannot be resized here"
)
def test_a_pipe_that_cannot_be_widened_reads_the_same_log(
    monkeypatch, two_author_repo
):
    revision = resolve_revision(two_author_repo.path)
    commits = _commits(revision)
    refused = []

    def refuse(*args):
        refused.append(args)
        raise PermissionError("pipe quota reached")

    monkeypatch.setattr(history.fcntl, "fcntl", refuse)
    assert _commits(revision) == commits
    assert len(commits) == 7
    assert len(refused) == 1


def test_history_reads_a_sha256_repository(tmp_path):
    builder = rf.rename_repo(tmp_path / "sha256", object_format="sha256")
    commits = _commits(resolve_revision(builder.path))
    assert [c.changes for c in commits] == [
        [("R", "src/renamed.py", "src/original.py")],
        [("A", "src/original.py", None)],
    ]
    assert commits[0].commit_id == builder.head()
    assert len(builder.head()) == 64


def test_history_keeps_an_author_name_with_a_line_separator(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "u2028")
    builder.commit_file("a.py", "a\n", "add", ("Ann\u2028Lee", "ann@example.com"))
    (commit,) = _commits(resolve_revision(builder.path))
    assert commit.author == RawUser("Ann\u2028Lee", "ann@example.com")


def test_non_utf8_names_stay_distinct(latin1_repo):
    names = list(rf.LATIN1_FILES)
    revision = resolve_revision(latin1_repo.path)
    assert list_snapshot_files(revision, FilterRules(builtin_vendored=[])) == names
    commits = _commits(revision)
    assert sorted(path for c in commits for _, path, _ in c.changes) == names
    assert {c.author for c in commits} == {RawUser(*rf.LATIN1_AUTHOR)}


def test_history_reads_the_record_grammar():
    a, b, c = "a" * 64, "b" * 40, "c" * 64
    # Newest first: a copy and a rename, an empty commit by an unnamed
    # author, then an addition, a deletion, a type change and a
    # modification. Only A, M and R are kept. "Zo\u00eb" is two bytes in
    # UTF-8; "\udce9" stands for the lone byte 0xE9.
    out = (
        f"\0{c}\0Zo\u00eb\0c@x\nC075\0src.py\0copy.py\0R100\0old.py\0new.py\0"
        f"\0\0{b}\0\0b@x"
        f"\0\0{a}\0An\0a@x\nA\0caf\udce9.py\0D\0gone.py\0T\0link.py\0M\0src.py\0"
    ).encode("utf-8", "surrogateescape")
    want = [
        Commit(c, RawUser("Zo\u00eb", "c@x"), [("R", "new.py", "old.py")]),
        Commit(b, RawUser("", "b@x"), []),
        Commit(
            a,
            RawUser("An", "a@x"),
            [
                ("A", "caf\udce9.py", None),
                ("M", "src.py", None),
            ],
        ),
    ]
    assert list(parse_log([out])) == want
    # Read chunks may end anywhere, even inside a character.
    for cut in range(len(out) + 1):
        assert list(parse_log([out[:cut], out[cut:]])) == want
    assert list(parse_log(out[i : i + 1] for i in range(len(out)))) == want


@pytest.mark.parametrize(
    "out",
    [
        "\0" + "c" * 40,
        "\0" + "c" * 40 + "\0Cy",
        "\0" + "c" * 40 + "\0Cy\0c@x\nM\0",
        "\0" + "c" * 40 + "\0Cy\0c@x\nR100\0old.py\0",
        "\0" + "c" * 40 + "\0Cy\0c@x\nA\0new.py\0R100\0old.py",
    ],
    ids=["id", "name", "change", "rename", "last-rename"],
)
def test_history_rejects_a_truncated_record(out):
    with pytest.raises(GitInvocationFailed):
        list(parse_log([out.encode()]))


# --- round trip through git fast-import --------------------------------------

_COMMITS = rf.planned_commits(len(rf.ODD_AUTHORS))


@settings(max_examples=40, deadline=None)
@given(_COMMITS)
@example(
    [
        (0, [("add", 0, 0), ("add", 0, 5), ("add", 0, 8), ("add", 0, 9)]),
        (1, []),
        (1, [("modify", 0, 0), ("rename", 1, 7), ("add", 0, 1)]),
        (2, [("delete", 0, 0)]),
        (0, [("rename", 0, 6), ("add", 0, 2), ("add", 0, 3), ("add", 0, 4)]),
    ]
)
def test_history_and_snapshot_round_trip_through_fast_import(commits):
    with tempfile.TemporaryDirectory() as scratch:
        repo = Path(scratch) / "repo.git"
        planned, final = rf.import_plan(repo, commits)
        ids = rf.commit_ids(repo)
        revision = resolve_revision(repo)
        log = _commits(revision)[::-1]
        snapshot = list_snapshot_files(revision, FilterRules(builtin_vendored=[]))
    position = {commit_id: i for i, commit_id in enumerate(ids)}
    got = [
        (position[commit_id], author, kind, path, old_path)
        for commit_id, author, changes in log
        for kind, path, old_path in changes
    ]
    want = [
        (i, author, kind, path, old_path)
        for i, (_, changes) in enumerate(planned)
        for author, kind, path, old_path, _ in changes
    ]
    assert sorted(got) == sorted(want)
    assert [g[0] for g in got] == sorted(g[0] for g in got)
    assert snapshot == sorted(final)


@settings(max_examples=40, deadline=None)
@given(_COMMITS)
@example(  # delete a file, then add a new one under the same name
    [
        (0, [("add", 0, 9)]),
        (1, [("modify", 0, 0)]),
        (1, [("delete", 0, 0)]),
        (2, [("add", 0, 9)]),
    ]
)
@example(  # rename a file away, then reuse its old name
    [
        (0, [("add", 0, 9)]),
        (1, [("rename", 0, 3)]),
        (2, [("add", 0, 9)]),
        (0, [("modify", 1, 0)]),
    ]
)
@example(  # rename one file twice
    [
        (0, [("add", 0, 9), ("add", 0, 0)]),
        (1, [("rename", 0, 3)]),
        (2, [("modify", 0, 0)]),
        (0, [("rename", 0, 8)]),
    ]
)
def test_traces_hold_exactly_the_changes_of_each_file(commits):
    with tempfile.TemporaryDirectory() as scratch:
        repo = Path(scratch) / "repo.git"
        planned, final = rf.import_plan(repo, commits)
        ids = rf.commit_ids(repo)
        revision = resolve_revision(repo)
        snapshot = list_snapshot_files(revision, FilterRules(builtin_vendored=[]))
        with read_log(revision) as commits:
            traces = trace_files(commits, snapshot)
    assert [trace.current_path for trace in traces] == sorted(final)
    for trace in traces:
        changes = [
            (ids[i], author, kind)
            for i, (_, planned_changes) in enumerate(planned)
            for author, kind, _, _, identity in planned_changes
            if identity == final[trace.current_path]
        ]
        (creation,) = [c for c in changes if c[2] == "A"]
        assert trace.deliveries == Counter(author for _, author, _ in changes)
        assert (trace.creating_commit, trace.creator) == creation[:2]
        assert trace.creating_commit is not None


# --- trace_files -----------------------------------------------------------


def test_trace_follows_rename_chain(rename_repo):
    log = _commits(resolve_revision(rename_repo.path))
    (trace,) = trace_files(log, ["src/renamed.py"])
    assert trace.current_path == "src/renamed.py"
    carol, dave = RawUser(*rf.CAROL), RawUser(*rf.DAVE)
    assert trace.deliveries == {carol: 1, dave: 1}
    assert trace.creator == carol
    assert trace.creating_commit == rename_repo.git("rev-parse", "HEAD~").strip()


def test_trace_does_not_absorb_a_reused_old_path(tmp_path):
    # a.txt becomes b.txt; a brand-new a.txt appears later. The trace of
    # b.txt must stop at the rename and ignore the newcomer entirely.
    builder = rf.RepoBuilder(tmp_path / "reuse")
    builder.commit_file("a.txt", "alpha content here\n" * 3, "add a", rf.ALICE)
    builder.move("a.txt", "b.txt", "rename a to b", rf.ALICE)
    builder.commit_file("a.txt", "completely different\n", "new a", rf.BOB)
    builder.commit_file("a.txt", "completely different\nplus\n", "touch new a", rf.BOB)
    log = _commits(resolve_revision(builder.path))
    b_trace, a_trace = trace_files(log, ["b.txt", "a.txt"])
    alice, bob = RawUser(*rf.ALICE), RawUser(*rf.BOB)
    assert b_trace.deliveries == {alice: 2}
    assert b_trace.creator == alice
    assert a_trace.deliveries == {bob: 2}
    assert a_trace.creator == bob
    assert a_trace.creating_commit == builder.git("rev-parse", "HEAD~").strip()


def test_a_rename_to_a_path_that_is_not_live_ends_the_old_paths_trace(tmp_path):
    # Bob renames Alice's X.py to Y.py; a merge commit, which the log skips,
    # adds a new X.py; Carol deletes Y.py. Alice's X.py is not today's.
    builder = rf.RepoBuilder(tmp_path / "repo")
    builder.commit_file("X.py", "x = 1\n" * 3, "add X", rf.ALICE)
    builder.move("X.py", "Y.py", "rename X to Y", rf.BOB)
    builder.git("checkout", "-q", "-b", "side")
    builder.commit_file("side.py", "side\n", "add side", rf.DAVE)
    builder.git("checkout", "-q", "main")
    builder.git("merge", "-q", "--no-ff", "--no-commit", "side")
    builder.commit_file("X.py", "new\n", "merge side with a new X", rf.DAVE)
    builder.git("rm", "-q", "Y.py")
    builder.git("commit", "-q", "-m", "drop Y", user=rf.CAROL)
    (trace,) = trace_files(_commits(resolve_revision(builder.path)), ["X.py"])
    assert trace.deliveries == {}
    assert trace.creator is None


def test_trace_of_unknown_target_is_empty_and_incomplete():
    (trace,) = trace_files([], ["ghost.py"])
    assert trace == FileTrace("ghost.py")
    assert trace.creating_commit is None


def test_traces_come_back_in_target_order(two_author_repo):
    targets = ["f4.py", "f1.py", "f3.py"]
    traces = trace_files(_commits(resolve_revision(two_author_repo.path)), targets)
    assert [t.current_path for t in traces] == targets


def test_each_change_is_delivered_to_one_trace(two_author_repo):
    revision = resolve_revision(two_author_repo.path)
    changes = [(c.author, path) for c in _commits(revision) for _, path, _ in c.changes]
    targets = ["f1.py", "f2.py", "f3.py", "f4.py"]
    traces = trace_files(_commits(revision), targets)
    for trace in traces:
        at_path = [author for author, path in changes if path == trace.current_path]
        assert trace.deliveries == Counter(at_path)
    assert sum(sum(t.deliveries.values()) for t in traces) == len(changes)


# --- check_migration -------------------------------------------------------


def test_single_import_commit_is_suspicious():
    traces = [_trace_of(f"f{i}.py", ("c0", "A")) for i in range(10)]
    verdict = check_migration(traces)
    assert verdict.suspicious
    assert verdict.fraction_covered == 1.0
    assert verdict.adding_commits == 1


def test_organic_growth_is_not_suspicious():
    traces = [
        _trace_of(f"f{i}.py", (f"c{i}", "A")) for i in range(100)
    ]
    verdict = check_migration(traces)
    assert not verdict.suspicious
    assert verdict.fraction_covered == pytest.approx(0.51)
    assert verdict.adding_commits == 51


def test_concentrated_additions_are_suspicious():
    traces = []
    for commit in range(5):  # five commits add 12 files each
        for i in range(12):
            traces.append(_trace_of(f"big{commit}_{i}.py", (f"c{commit}", "A")))
    for i in range(40):  # forty more files, one commit each
        traces.append(_trace_of(f"slow{i}.py", (f"s{i}", "A")))
    verdict = check_migration(traces)
    assert verdict.suspicious
    assert verdict.fraction_covered == pytest.approx(0.6)
    assert verdict.adding_commits == 5


@pytest.mark.parametrize(
    "files, commits, suspicious", [(37, 19, True), (38, 20, False)]
)
def test_migration_is_suspected_below_20_adding_commits(files, commits, suspicious):
    traces = [_trace_of(f"f{i}.py", (f"c{i}", "A")) for i in range(files)]
    verdict = check_migration(traces)
    assert verdict.adding_commits == commits
    assert verdict.suspicious is suspicious


def test_migration_check_handles_no_traces_and_no_additions():
    assert check_migration([]) == MigrationSummary(checked=True)
    assert check_migration([FileTrace("f.py")]) == MigrationSummary(checked=True)
    incomplete = [_trace_of("f.py", ("c1", "M"))]
    verdict = check_migration(incomplete)
    assert not verdict.suspicious
    assert verdict.adding_commits == 0


def test_only_history_starts_processes():
    # Every git process then goes through start_git and gets the pinned config.
    package = Path(history.__file__).parent
    importers = []
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "subprocess" for name in names):
                importers.append(module.relative_to(package).as_posix())
    assert importers == ["history.py"]
