import pytest

import repo_fixtures as rf
from truckfactor.errors import EmptyRepository, GitInvocationFailed, NotARepository
from truckfactor.filters import FilterRules
from truckfactor.history import (
    ChangeEvent,
    ChangeKind,
    FileTrace,
    MigrationVerdict,
    Revision,
    check_migration,
    collect_history,
    list_snapshot_files,
    resolve_commit,
    resolve_revision,
    trace_files,
)
from truckfactor.identity import RawUser


def _trace_of(path, *commit_kind_pairs):
    """Build a synthetic FileTrace: (commit_id, kind) tuples, oldest first."""
    events = [
        ChangeEvent(commit_id, RawUser("Dev", "dev@example.com"), path, kind, order)
        for order, (commit_id, kind) in enumerate(commit_kind_pairs)
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


# --- resolve_revision ------------------------------------------------------


def test_resolve_revision_peels_to_the_full_commit_id(branched_repo):
    dev_head = branched_repo.git("rev-parse", "dev").strip()
    branched_repo.git("tag", "-a", "v1", "-m", "annotated", "dev")
    assert resolve_revision(branched_repo.path, "v1") == Revision(dev_head, False)
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
    assert resolve_revision(clone) == Revision(two_author_repo.head(), True)


# --- collect_history -------------------------------------------------------


def test_history_yields_additions_oldest_first(single_author_repo):
    events = collect_history(single_author_repo.path)
    assert [e.path for e in events] == ["src/f1.py", "src/f2.py", "src/f3.py"]
    assert all(e.kind is ChangeKind.ADDITION for e in events)
    assert [e.order for e in events] == [0, 1, 2]
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
    assert [e.order for e in events] == sorted(e.order for e in events)


def test_history_requires_a_repository(tmp_path):
    with pytest.raises(NotARepository):
        collect_history(tmp_path / "missing")


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
    seen = set()
    for trace in traces:
        orders = [e.order for e in trace.events]
        assert orders == sorted(orders)
        assert not (set(orders) & seen)
        seen |= set(orders)


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
    assert check_migration([]) == MigrationVerdict(False, 0.0, 0)
    assert check_migration([FileTrace("f.py", [])]) == MigrationVerdict(False, 0.0, 0)
    incomplete = [
        FileTrace(
            "f.py",
            [ChangeEvent("c1", RawUser("D", "d@x"), "f.py", ChangeKind.MODIFICATION, 0)],
        )
    ]
    verdict = check_migration(incomplete)
    assert not verdict.suspicious
    assert verdict.adding_commits == 0
