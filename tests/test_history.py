import os
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repo_fixtures as rf
from truckfactor import history
from truckfactor.errors import EmptyRepository, GitInvocationFailed, NotARepository
from truckfactor.filters import FilterRules
from truckfactor.history import (
    ChangeEvent,
    ChangeKind,
    FileTrace,
    Revision,
    check_migration,
    collect_history,
    list_snapshot_files,
    resolve_commit,
    resolve_revision,
    trace_files,
)
from truckfactor.identity import RawUser
from truckfactor.report import MigrationSummary


def _trace_of(path, *commit_kind_pairs):
    """Build a synthetic FileTrace: (commit_id, kind) tuples, oldest first."""
    events = [
        ChangeEvent(commit_id, RawUser("Dev", "dev@example.com"), path, kind)
        for commit_id, kind in commit_kind_pairs
    ]
    return FileTrace(current_path=path, events=events)


# --- list_snapshot_files ---------------------------------------------------


def test_snapshot_lists_tracked_files_sorted(single_author_repo):
    files = list_snapshot_files(single_author_repo.path, FilterRules.none())
    assert files == ["src/f1.py", "src/f2.py", "src/f3.py"]


def test_snapshot_applies_filter_rules(vendored_repo):
    everything = list_snapshot_files(vendored_repo.path, FilterRules.none())
    assert len(everything) == 4
    filtered = list_snapshot_files(vendored_repo.path)
    assert filtered == ["src/app.py"]


def test_snapshot_honors_branch(branched_repo):
    assert list_snapshot_files(branched_repo.path, FilterRules.none()) == ["m.txt"]
    on_dev = list_snapshot_files(branched_repo.path, FilterRules.none(), branch="dev")
    assert on_dev == ["d.txt", "m.txt"]


def test_snapshot_rejects_non_repository(tmp_path):
    with pytest.raises(NotARepository):
        list_snapshot_files(tmp_path / "nothing-here")
    plain_dir = tmp_path / "plain"
    plain_dir.mkdir()
    with pytest.raises(NotARepository):
        list_snapshot_files(plain_dir)


def test_snapshot_rejects_a_regular_file(tmp_path):
    not_a_directory = tmp_path / "file.txt"
    not_a_directory.write_text("x\n", encoding="utf-8")
    with pytest.raises(NotARepository):
        list_snapshot_files(not_a_directory)


def test_snapshot_rejects_repository_without_commits(tmp_path):
    bare = rf.RepoBuilder(tmp_path / "fresh")
    with pytest.raises(EmptyRepository):
        list_snapshot_files(bare.path)


def test_snapshot_rejects_unknown_branch(single_author_repo):
    with pytest.raises(GitInvocationFailed):
        list_snapshot_files(single_author_repo.path, branch="no-such-branch")


def test_snapshot_decodes_quoted_unicode_paths(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "uni")
    builder.commit_file("naïve.py", "x = 1\n", "add unicode name", rf.ALICE)
    assert list_snapshot_files(builder.path, FilterRules.none()) == ["naïve.py"]


def test_snapshot_keeps_blobs_and_symlinks_but_not_gitlinks(gitlink_repo):
    files = list_snapshot_files(gitlink_repo.path, FilterRules.none())
    assert files == ["src/app.py", "src/link.py"]


def test_library_traces_are_the_same_from_a_subdirectory(single_author_repo):
    def traces(path):
        return trace_files(
            collect_history(path), list_snapshot_files(path, FilterRules.none())
        )

    from_root = traces(single_author_repo.path)
    assert [t.current_path for t in from_root] == ["src/f1.py", "src/f2.py", "src/f3.py"]
    assert all(t.complete for t in from_root)
    assert traces(single_author_repo.path / "src") == from_root


# --- resolve_revision ------------------------------------------------------


def test_resolve_revision_peels_to_the_full_commit_id(branched_repo):
    dev_head = branched_repo.git("rev-parse", "dev").strip()
    branched_repo.git("tag", "-a", "v1", "-m", "annotated", "dev")
    git_dir = str((branched_repo.path / ".git").resolve())
    revision = resolve_revision(branched_repo.path, "v1")
    assert revision == Revision(dev_head, False, git_dir)
    assert resolve_commit(branched_repo.path, "dev") == dev_head
    assert resolve_commit(branched_repo.path) == branched_repo.head()


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


def test_resolve_revision_detects_shallow_clones(tmp_path, two_author_repo):
    assert not resolve_revision(two_author_repo.path).shallow
    clone = rf.shallow_clone(two_author_repo, tmp_path / "shallow")
    git_dir = str((clone / ".git").resolve())
    assert resolve_revision(clone) == Revision(two_author_repo.head(), True, git_dir)


# --- collect_history -------------------------------------------------------


def test_history_yields_additions_oldest_first(single_author_repo):
    events = collect_history(single_author_repo.path)
    assert [e.path for e in events] == ["src/f1.py", "src/f2.py", "src/f3.py"]
    assert all(e.kind is ChangeKind.ADDITION for e in events)
    assert [e.commit_id for e in events] == single_author_repo.git(
        "rev-list", "--reverse", "HEAD"
    ).split()
    assert events[0].author == RawUser("Alice", "alice@example.com")
    assert len({e.commit_id for e in events}) == 3


def test_history_records_renames_with_old_path(rename_repo):
    events = collect_history(rename_repo.path)
    assert len(events) == 2
    addition, rename = events
    assert addition.kind is ChangeKind.ADDITION
    assert addition.path == "src/original.py"
    assert rename.kind is ChangeKind.RENAME
    assert rename.path == "src/renamed.py"
    assert rename.old_path == "src/original.py"
    assert rename.author == RawUser("Dave", "dave@example.com")


def test_history_excludes_merge_commits(merge_repo):
    events = collect_history(merge_repo.path)
    assert len({e.commit_id for e in events}) == 3
    merge_sha = resolve_commit(merge_repo.path)
    assert merge_sha not in {e.commit_id for e in events}


def test_history_drops_deletions(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "deleting")
    builder.commit_file("f.txt", "v1\n", "add", rf.ALICE)
    builder.git("rm", "-q", "f.txt")
    builder.git("commit", "-q", "-m", "remove", user=rf.ALICE)
    builder.commit_file("f.txt", "v2\n", "re-add", rf.BOB)
    events = collect_history(builder.path)
    assert [e.kind for e in events] == [ChangeKind.ADDITION, ChangeKind.ADDITION]
    assert [e.author.name for e in events] == ["Alice", "Bob"]


def test_history_counts_modifications(two_author_repo):
    events = collect_history(two_author_repo.path)
    f3 = [e for e in events if e.path == "f3.py"]
    assert [e.kind for e in f3] == [
        ChangeKind.ADDITION,
        ChangeKind.MODIFICATION,
        ChangeKind.MODIFICATION,
        ChangeKind.MODIFICATION,
    ]


def test_history_requires_a_repository(tmp_path):
    with pytest.raises(NotARepository):
        collect_history(tmp_path / "missing")


def test_history_reads_a_sha256_repository(tmp_path):
    builder = rf.rename_repo(tmp_path / "sha256", object_format="sha256")
    events = collect_history(builder.path)
    assert [(e.kind, e.path, e.old_path) for e in events] == [
        (ChangeKind.ADDITION, "src/original.py", None),
        (ChangeKind.RENAME, "src/renamed.py", "src/original.py"),
    ]
    assert events[1].commit_id == builder.head()
    assert len(builder.head()) == 64


def test_history_keeps_an_author_name_with_a_line_separator(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "u2028")
    builder.commit_file("a.py", "a\n", "add", ("Ann\u2028Lee", "ann@example.com"))
    (event,) = collect_history(builder.path)
    assert event.author == RawUser("Ann\u2028Lee", "ann@example.com")


def test_non_utf8_names_stay_distinct(latin1_repo):
    names = list(rf.LATIN1_FILES)
    assert list_snapshot_files(latin1_repo.path, FilterRules.none()) == names
    events = collect_history(latin1_repo.path)
    assert sorted(e.path for e in events) == names
    assert {e.author for e in events} == {RawUser(*rf.LATIN1_AUTHOR)}


def test_history_reads_the_record_grammar(monkeypatch):
    a, b, c = "a" * 64, "b" * 40, "c" * 64
    # Newest first: a copy and a rename, an empty commit by an unnamed
    # author, then an addition, a deletion and a modification.
    out = (
        f"\0{c}\0Cy\0c@x\nC075\0src.py\0copy.py\0R100\0old.py\0new.py\0"
        f"\0\0{b}\0\0b@x"
        f"\0\0{a}\0An\0a@x\nA\0old.py\0D\0gone.py\0M\0src.py\0"
    )
    monkeypatch.setattr(history, "run_git", lambda *_: out)
    events = collect_history("unused")
    assert events == [
        ChangeEvent(a, RawUser("An", "a@x"), "old.py", ChangeKind.ADDITION),
        ChangeEvent(a, RawUser("An", "a@x"), "src.py", ChangeKind.MODIFICATION),
        ChangeEvent(c, RawUser("Cy", "c@x"), "new.py", ChangeKind.RENAME, "old.py"),
    ]


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
def test_history_rejects_a_truncated_record(monkeypatch, out):
    monkeypatch.setattr(history, "run_git", lambda *_: out)
    with pytest.raises(GitInvocationFailed):
        collect_history("unused")


# --- round trip through git fast-import --------------------------------------

# File names that a line-based or quoted reading of git's output can mangle.
# "caf\udce9.py" stands for the lone byte 0xE9, which is not UTF-8.
_ODD_NAMES = (
    "tab\there.py",
    "new\nline.py",
    'quote".py',
    "back\\slash.py",
    " leading space.py",
    "caf\udce9.py",
    "line\u2028sep.py",
    "0123456789abcdef0123456789abcdef01234567",
    "R100",
    "dir/plain.py",
)
_ODD_AUTHORS = (
    RawUser("Ann\u2028Lee", "ann@example.com"),
    RawUser(*rf.LATIN1_AUTHOR),
    RawUser("Bo", "bo@example.com"),
)
# One commit: an author index and operations (op, file index, name index)
# applied to the files present before it.
_COMMITS = st.lists(
    st.tuples(
        st.integers(0, len(_ODD_AUTHORS) - 1),
        st.lists(
            st.tuples(
                st.sampled_from(("add", "modify", "rename", "delete")),
                st.integers(0, 9),
                st.integers(0, len(_ODD_NAMES) - 1),
            ),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=6,
)


def _quoted(path: str) -> bytes:
    """``path`` in fast-import's C-style quoting, every byte kept."""
    out = bytearray(b'"')
    for byte in os.fsencode(path):
        if byte in b'"\\':
            out += b"\\" + bytes([byte])
        elif 0x20 <= byte < 0x7F:
            out.append(byte)
        else:
            out += b"\\%03o" % byte
    return bytes(out + b'"')


def _import_plan(repo: Path, commits) -> tuple[list[list[tuple]], dict[str, int]]:
    """Write ``commits`` into a new bare repository with ``git fast-import``.

    Returns the planned events of each commit, as (author, kind, path,
    old_path, identity), and the paths present at the end mapped to their
    identities. A file keeps its identity through renames; a file added at
    a path gets a new one, even where an earlier file was deleted or moved
    away. Every file gets lines no other file has, so git pairs a rename
    only with its own source.
    """
    present: dict[str, int] = {}  # path -> id of the file's content
    edits: dict[int, int] = {}
    stream = bytearray()
    planned = []
    for tick, (who, operations) in enumerate(commits):
        author = _ODD_AUTHORS[who]
        ident = b"%s <%s> %d +0000" % (
            os.fsencode(author.name), author.email.encode(), 1577836800 + tick
        )
        stream += b"commit refs/heads/main\nauthor %s\ncommitter %s\ndata 2\nc\n" % (
            ident,
            ident,
        )
        touched: set[str] = set()
        changes = []
        for op, pick, name_index in operations:
            name = _ODD_NAMES[name_index]
            existing = sorted(path for path in present if path not in touched)
            if op == "add" and name not in present and name not in touched:
                present[name] = len(edits)
                edits[present[name]] = 0
            elif op == "modify" and existing:
                name = existing[pick % len(existing)]
                edits[present[name]] += 1
            elif op == "rename" and existing and name not in present.keys() | touched:
                old = existing[pick % len(existing)]
                present[name] = present.pop(old)
                touched.update((old, name))
                stream += b"R %s %s\n" % (_quoted(old), _quoted(name))
                changes.append((author, ChangeKind.RENAME, name, old, present[name]))
                continue
            elif op == "delete" and existing:
                name = existing[pick % len(existing)]
                del present[name]
                touched.add(name)
                stream += b"D %s\n" % _quoted(name)
                continue
            else:
                continue
            touched.add(name)
            uid = present[name]
            content = "".join(f"file {uid} edit {n}\n" for n in range(edits[uid] + 1))
            stream += b"M 100644 inline %s\ndata %d\n%s\n" % (
                _quoted(name),
                len(content),
                content.encode(),
            )
            kind = ChangeKind.ADDITION if edits[uid] == 0 else ChangeKind.MODIFICATION
            changes.append((author, kind, name, None, uid))
        planned.append(changes)
    for command, data in (
        (["git", "init", "-q", "--bare", "-b", "main", str(repo)], None),
        (["git", "-C", str(repo), "fast-import", "--quiet"], bytes(stream)),
    ):
        subprocess.run(command, input=data, capture_output=True, check=True)
    return planned, present


def _commit_ids(repo: Path) -> list[str]:
    """The repository's commit ids, oldest first."""
    return subprocess.run(
        ["git", "-C", str(repo), "rev-list", "--reverse", "HEAD"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


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
        planned, final = _import_plan(repo, commits)
        ids = _commit_ids(repo)
        events = collect_history(repo)
        snapshot = list_snapshot_files(repo, FilterRules.none())
    position = {commit_id: i for i, commit_id in enumerate(ids)}
    got = [
        (position[e.commit_id], e.author, e.kind.value, e.path, e.old_path)
        for e in events
    ]
    want = [
        (i, author, kind.value, path, old_path)
        for i, changes in enumerate(planned)
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
        planned, final = _import_plan(repo, commits)
        ids = _commit_ids(repo)
        traces = trace_files(
            collect_history(repo), list_snapshot_files(repo, FilterRules.none())
        )
    assert [trace.current_path for trace in traces] == sorted(final)
    for trace in traces:
        got = [
            (e.commit_id, e.author, e.kind, e.path, e.old_path) for e in trace.events
        ]
        want = [
            (ids[i], author, kind, path, old_path)
            for i, changes in enumerate(planned)
            for author, kind, path, old_path, identity in changes
            if identity == final[trace.current_path]
        ]
        assert got == want


# --- trace_files -----------------------------------------------------------


def test_trace_follows_rename_chain(rename_repo):
    events = collect_history(rename_repo.path)
    (trace,) = trace_files(events, ["src/renamed.py"])
    assert trace.current_path == "src/renamed.py"
    assert [e.kind for e in trace.events] == [ChangeKind.ADDITION, ChangeKind.RENAME]
    assert trace.complete


def test_trace_does_not_absorb_a_reused_old_path(tmp_path):
    # a.txt becomes b.txt; a brand-new a.txt appears later. The trace of
    # b.txt must stop at the rename and ignore the newcomer entirely.
    builder = rf.RepoBuilder(tmp_path / "reuse")
    builder.commit_file("a.txt", "alpha content here\n" * 3, "add a", rf.ALICE)
    builder.move("a.txt", "b.txt", "rename a to b", rf.ALICE)
    builder.commit_file("a.txt", "completely different\n", "new a", rf.BOB)
    builder.commit_file("a.txt", "completely different\nplus\n", "touch new a", rf.BOB)
    events = collect_history(builder.path)
    b_trace, a_trace = trace_files(events, ["b.txt", "a.txt"])
    assert [e.author.name for e in b_trace.events] == ["Alice", "Alice"]
    assert b_trace.complete
    assert [e.author.name for e in a_trace.events] == ["Bob", "Bob"]
    assert a_trace.events[0].kind is ChangeKind.ADDITION


def test_trace_of_unknown_target_is_empty_and_incomplete():
    (trace,) = trace_files([], ["ghost.py"])
    assert trace.events == []
    assert not trace.complete


def test_traces_come_back_in_target_order(two_author_repo):
    events = collect_history(two_author_repo.path)
    targets = ["f4.py", "f1.py", "f3.py"]
    traces = trace_files(events, targets)
    assert [t.current_path for t in traces] == targets


def test_trace_events_are_ordered_and_disjoint(two_author_repo):
    events = collect_history(two_author_repo.path)
    traces = trace_files(events, ["f1.py", "f2.py", "f3.py", "f4.py"])
    position = {event: i for i, event in enumerate(events)}
    seen = set()
    for trace in traces:
        positions = [position[e] for e in trace.events]
        assert positions == sorted(positions)
        assert not (set(positions) & seen)
        seen |= set(positions)


# --- check_migration -------------------------------------------------------


def test_single_import_commit_is_suspicious():
    traces = [_trace_of(f"f{i}.py", ("c0", ChangeKind.ADDITION)) for i in range(10)]
    verdict = check_migration(traces)
    assert verdict.suspicious
    assert verdict.fraction_covered == 1.0
    assert verdict.adding_commits == 1


def test_organic_growth_is_not_suspicious():
    traces = [
        _trace_of(f"f{i}.py", (f"c{i}", ChangeKind.ADDITION)) for i in range(100)
    ]
    verdict = check_migration(traces)
    assert not verdict.suspicious
    assert verdict.fraction_covered == pytest.approx(0.51)
    assert verdict.adding_commits == 51


def test_concentrated_additions_are_suspicious():
    traces = []
    for commit in range(5):  # five commits add 12 files each
        for i in range(12):
            traces.append(_trace_of(f"big{commit}_{i}.py", (f"c{commit}", ChangeKind.ADDITION)))
    for i in range(40):  # forty more files, one commit each
        traces.append(_trace_of(f"slow{i}.py", (f"s{i}", ChangeKind.ADDITION)))
    verdict = check_migration(traces)
    assert verdict.suspicious
    assert verdict.fraction_covered == pytest.approx(0.6)
    assert verdict.adding_commits == 5


def test_migration_check_handles_no_traces_and_no_additions():
    assert check_migration([]) == MigrationSummary(checked=True)
    assert check_migration([FileTrace("f.py", [])]) == MigrationSummary(checked=True)
    incomplete = [
        FileTrace(
            "f.py",
            [ChangeEvent("c1", RawUser("D", "d@x"), "f.py", ChangeKind.MODIFICATION)],
        )
    ]
    verdict = check_migration(incomplete)
    assert not verdict.suspicious
    assert verdict.adding_commits == 0
