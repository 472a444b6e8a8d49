import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

import repo_fixtures as rf
import truckfactor
from truckfactor import authorship, history, pipeline
from truckfactor.authorship import AuthorFileMap
from truckfactor.cli import main
from truckfactor.errors import BlameFailed
from truckfactor.filters import FilterRules
from truckfactor.history import Revision
from truckfactor.identity import DeveloperId, RawUser
from truckfactor.pipeline import AnalysisConfig, run
from truckfactor.report import emit


def test_single_author_analysis(single_author_repo):
    report = run(AnalysisConfig(repo_path=str(single_author_repo.path)))
    assert report.truck_factor == 1
    assert [r.developer for r in report.removed] == ["Alice"]
    assert report.author_ratio == 1.0
    assert report.totals == {"developers": 1, "authors": 1, "files": 3, "commits": 3}
    assert report.initial_coverage == 1.0
    assert not report.low_initial_coverage
    assert report.head_commit == single_author_repo.head()


def test_two_author_analysis(two_author_repo):
    report = run(AnalysisConfig(repo_path=str(two_author_repo.path)))
    assert report.truck_factor == 2
    assert [(r.developer, r.authored_files) for r in report.removed] == [
        ("Alice", 3),
        ("Bob", 2),
    ]
    assert report.removed[0].coverage_after == 0.5
    assert report.removed[1].coverage_after == 0.0
    assert report.totals["files"] == 4
    assert report.totals["developers"] == 2


def test_vendored_material_is_excluded(vendored_repo):
    report = run(AnalysisConfig(repo_path=str(vendored_repo.path)))
    assert report.totals["files"] == 1
    assert report.file_universe_size == 1
    assert report.truck_factor == 1


def test_universe_choice_changes_the_denominator(two_author_repo):
    # With m=4.2 f3's best score (~4.11) clears nobody, so only f1, f2, f4
    # stay authored; the all-files universe still counts f3.
    authored = run(AnalysisConfig(repo_path=str(two_author_repo.path), m=4.2))
    all_files = run(
        AnalysisConfig(repo_path=str(two_author_repo.path), m=4.2, universe="all-files")
    )
    assert authored.file_universe_size == 3
    assert authored.initial_coverage == 1.0
    assert all_files.file_universe_size == 4
    assert all_files.initial_coverage == 0.75
    assert authored.truck_factor == all_files.truck_factor == 1


def test_unreachable_thresholds_flag_low_coverage(two_author_repo):
    report = run(AnalysisConfig(repo_path=str(two_author_repo.path), m=5.0))
    assert report.truck_factor == 0
    assert report.totals["authors"] == 0
    assert report.author_ratio == 0.0
    assert report.low_initial_coverage
    assert any("coverage" in w for w in report.warnings)


def test_reports_are_deterministic(two_author_repo):
    first = run(AnalysisConfig(repo_path=str(two_author_repo.path)))
    second = run(AnalysisConfig(repo_path=str(two_author_repo.path)))
    assert emit(first, "json") == emit(second, "json")


def test_commits_that_add_nothing_still_count(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "quiet")
    builder.write("a.py", "a\n")
    builder.write("b.py", "b\n")
    builder.commit_all("add two files", rf.ALICE)
    builder.git("rm", "-q", "b.py")
    builder.git("commit", "-q", "-m", "delete one", user=rf.BOB)
    builder.git("commit", "-q", "--allow-empty", "-m", "empty", user=rf.CAROL)
    report = run(AnalysisConfig(repo_path=str(builder.path)))
    assert report.totals == {"developers": 3, "authors": 1, "files": 1, "commits": 3}
    assert report.author_ratio == pytest.approx(1 / 3)


def test_migration_warning_on_bulk_import(bulk_import_repo):
    report = run(AnalysisConfig(repo_path=str(bulk_import_repo.path)))
    assert report.migration.checked
    assert report.migration.suspicious
    assert report.migration.adding_commits == 1
    assert report.migration.fraction_covered == 1.0
    assert any("migration" in w for w in report.warnings)


def test_migration_check_can_be_disabled(bulk_import_repo):
    report = run(
        AnalysisConfig(repo_path=str(bulk_import_repo.path), migration_check=False)
    )
    assert not report.migration.checked
    assert not report.migration.suspicious
    assert not any("migration" in w for w in report.warnings)


def test_aliases_merge_by_default(aliased_repo):
    report = run(AnalysisConfig(repo_path=str(aliased_repo.path)))
    assert report.totals["developers"] == 1
    assert report.alias_candidates is None
    # Bob.Rob has two commits to Bob Rob's one, so the label is his.
    assert report.removed[0].developer == "Bob.Rob"


def test_alias_report_suspends_merging_and_lists_candidates(aliased_repo):
    report = run(AnalysisConfig(repo_path=str(aliased_repo.path), alias_report=True))
    assert report.totals["developers"] == 2
    assert report.alias_candidates is not None
    assert len(report.alias_candidates) == 1
    candidate = report.alias_candidates[0]
    assert {candidate.name_a, candidate.name_b} == {"Bob.Rob", "Bob Rob"}


def test_alias_overrides_apply(tmp_path, aliased_repo):
    rules = tmp_path / "aliases.txt"
    rules.write_text("bob@work.example => Robert\nBob Rob => Robert\n", encoding="utf-8")
    report = run(
        AnalysisConfig(repo_path=str(aliased_repo.path), alias_file=str(rules))
    )
    assert report.totals["developers"] == 1
    assert report.removed[0].developer == "Robert"


def test_two_developers_sharing_a_label_stay_apart(tmp_path):
    # The README's case: an override names Alice's email "Bob", next to a
    # committer Bob. Neither joins the other, and each authors two files.
    builder = rf.RepoBuilder(tmp_path / "labels")
    for i in (1, 2):
        builder.commit_file(f"a{i}.py", f"a{i}\n", f"add a{i}", ("Alice", "alice@x"))
        builder.commit_file(f"b{i}.py", f"b{i}\n", f"add b{i}", ("Bob", "bob@y"))
    rules = tmp_path / "aliases.txt"
    rules.write_text("alice@x => Bob\n", encoding="utf-8")
    report = run(AnalysisConfig(repo_path=str(builder.path), alias_file=str(rules)))
    assert report.totals["developers"] == 2
    assert [(r.developer, r.authored_files) for r in report.removed] == [
        ("Bob", 2),
        ("Bob", 2),
    ]
    assert [r.coverage_after for r in report.removed] == [0.5, 0.0]


def test_blame_comparison_on_single_author_repo(single_author_repo):
    report = run(
        AnalysisConfig(repo_path=str(single_author_repo.path), blame_compare=True, seed=3)
    )
    blame = report.blame_agreement
    assert blame is not None
    assert blame.files_sampled == 3
    assert blame.pairs_compared == 3
    assert blame.top1_pct == 100.0
    assert blame.none_pct == 0.0
    assert blame.blame_failures == 0
    assert blame.seed == 3


def test_blame_pool_tallies_like_a_sequential_loop(monkeypatch):
    developers = [
        DeveloperId(name, frozenset({RawUser(name, f"{name}@example.com")}))
        for name in "ABCDE"
    ]
    files = [f"f{i:02d}.py" for i in range(40)]
    author_map = AuthorFileMap(defaultdict(set))
    for i, file in enumerate(files):
        for step in (1, 2):
            author_map.entries[developers[(i * step) % 5]].add(file)
    lock = threading.Lock()
    running = peak = 0

    def fake_blame_rank(repo_path, file, alias_map, branch=None, env=None):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        try:
            time.sleep(random.Random(file).uniform(0.001, 0.005))
            n = int(file[1:3])
            if n % 7 == 3:
                raise BlameFailed(file)
            return [(developers[(n + j) % 5], 10 - j) for j in range(n % 5)]
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(authorship, "blame_rank", fake_blame_rank)
    revision = Revision("c0ffee", False, "unused")
    monkeypatch.setattr(pipeline, "_blame_workers", lambda: 1)
    sequential = pipeline._blame_agreement(revision, files, author_map, {}, 4)
    assert peak == 1
    peak = 0
    monkeypatch.setattr(pipeline, "_blame_workers", lambda: 4)
    pooled = pipeline._blame_agreement(revision, files, author_map, {}, 4)
    assert 1 < peak <= 4
    assert pooled == sequential
    assert pooled.blame_failures == 6
    assert pooled.files_sampled == 40
    assert 0 < pooled.none_pct < 100


def test_git_commands_read_the_commit_resolved_at_the_start(
    monkeypatch, two_author_repo
):
    head = two_author_repo.head()
    calls = []
    inputs = []
    lock = threading.Lock()
    real_start_git = history.start_git
    real_run_git = history.run_git

    def spy(repo_path, args, stderr, *rest):
        with lock:
            calls.append(list(args))
            first = len(calls) == 1
        proc = real_start_git(repo_path, args, stderr, *rest)
        if first:  # the branch moves right after it was resolved
            proc.wait()  # rev-parse prints three short lines
            two_author_repo.commit_file("late.py", "late\n", "late", rf.CAROL)
        return proc

    def run_git_spy(repo_path, args, **kwargs):
        inputs.append((args[0], kwargs.get("input")))
        return real_run_git(repo_path, args, **kwargs)

    monkeypatch.setattr(history, "start_git", spy)
    monkeypatch.setattr(history, "run_git", run_git_spy)
    config = AnalysisConfig(repo_path=str(two_author_repo.path), blame_compare=True)
    report = run(config)
    assert two_author_repo.head() != head
    assert report.head_commit == head
    assert report.totals == {"developers": 2, "authors": 2, "files": 4, "commits": 7}
    subcommands = [args[0] for args in calls]
    graph = ["rev-parse", "commit-graph"]  # find the objects, write the graph
    assert subcommands == ["rev-parse", "log", "ls-tree", *graph] + ["blame"] * 4
    assert ("commit-graph", f"{head}\n".encode()) in inputs
    assert all(head in args for args in calls[1:3] + calls[5:])


def test_gitlinks_are_neither_counted_nor_blamed(gitlink_repo):
    report = run(AnalysisConfig(repo_path=str(gitlink_repo.path), blame_compare=True))
    assert report.totals["files"] == 2
    assert report.blame_agreement.files_sampled == 2
    assert report.blame_agreement.blame_failures == 0


def test_blame_compare_survives_a_carriage_return_inside_a_line(carriage_return_repo):
    config = AnalysisConfig(repo_path=str(carriage_return_repo.path), blame_compare=True)
    agreement = run(config).blame_agreement
    assert (agreement.files_sampled, agreement.blame_failures) == (1, 0)


def test_shallow_clone_warns_that_history_is_truncated(tmp_path, two_author_repo):
    full = run(AnalysisConfig(repo_path=str(two_author_repo.path)))
    assert not any("shallow" in w for w in full.warnings)
    clone = rf.shallow_clone(two_author_repo, tmp_path / "shallow")
    report = run(AnalysisConfig(repo_path=str(clone)))
    assert report.totals["commits"] == 1
    assert any("shallow" in w and "truncated" in w for w in report.warnings)


def test_blame_compare_ranks_files_with_non_utf8_names(latin1_repo):
    config = AnalysisConfig(repo_path=str(latin1_repo.path), blame_compare=True)
    agreement = run(config).blame_agreement
    assert (agreement.files_sampled, agreement.blame_failures) == (4, 0)
    assert agreement.top1_pct == 100.0


def _json_report(path, **options) -> dict:
    return json.loads(emit(run(AnalysisConfig(repo_path=str(path), **options)), "json"))


def test_a_subdirectory_or_a_bare_clone_reports_like_the_root(
    tmp_path, single_author_repo
):
    # A bare repository's blame would read HEAD:.mailmap, which git log's
    # author names never go through.
    single_author_repo.commit_file(
        ".mailmap", "Alice Liddell <alice@example.com>\n", "mailmap", rf.ALICE
    )
    root = _json_report(single_author_repo.path, blame_compare=True)
    del root["repository"]
    assert root["totals"]["files"] == 4
    assert root["blame_agreement"]["top1_pct"] == 100.0
    bare = tmp_path / "bare.git"
    single_author_repo.git("clone", "-q", "--bare", ".", str(bare))
    for path in (single_author_repo.path / "src", bare):
        report = _json_report(path, blame_compare=True)
        assert report.pop("repository") == str(path)
        assert report == root


@pytest.mark.parametrize(
    "key, value",
    [
        ("log.showRoot", "false"),
        ("log.showSignature", "true"),
        ("i18n.logOutputEncoding", "ISO-8859-1"),
        ("mailmap.file", "{tmp}/mailmap"),
        ("blame.ignoreRevsFile", "{tmp}/missing"),
    ],
)
def test_user_git_config_does_not_change_the_report(tmp_path, monkeypatch, key, value):
    repo = rf.config_sensitive_repo(tmp_path / "repo")
    (tmp_path / "mailmap").write_text("Alice Liddell <alice@example.com>\n")
    expected = _json_report(repo.path, blame_compare=True)
    assert expected["totals"]["commits"] == 2
    assert [row["developer"] for row in expected["removed"]] == ["Alice", "Zo\u00eb"]
    assert expected["blame_agreement"]["top1_pct"] == 100.0
    monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
    monkeypatch.setenv("GIT_CONFIG_KEY_0", key)
    monkeypatch.setenv("GIT_CONFIG_VALUE_0", value.format(tmp=tmp_path))
    assert _json_report(repo.path, blame_compare=True) == expected


def test_a_move_of_more_files_than_the_default_rename_limit_keeps_authorship(
    tmp_path,
):
    # git's default diff.renameLimit (1,000) skips rename detection for a
    # commit this large, which would credit every file to whoever moved it.
    def commit(tick, name, changes):
        who = b"%s <%s@example.com> %d +0000" % (name, name.lower(), 1577836800 + tick)
        header = b"commit refs/heads/main\nauthor %s\ncommitter %s\ndata 2\nc\n"
        return header % (who, who) + b"".join(changes)

    def put(path, lines):
        content = b"".join(b"%s\n" % line for line in lines)
        return b"M 100644 inline %s\ndata %d\n%s\n" % (path, len(content), content)

    body = {i: [b"file %d line %d" % (i, n) for n in range(8)] for i in range(1100)}
    stream = commit(0, b"Alice", [put(b"old/f%d.py" % i, body[i]) for i in body])
    stream += commit(
        1,
        b"Bob",
        [b"D old/f%d.py\n" % i + put(b"new/g%d.py" % i, [*body[i], b"edit"]) for i in body],
    )
    repo = tmp_path / "moved.git"
    subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(repo)], check=True)
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet"], input=stream, check=True
    )
    report = _json_report(repo)
    assert report["totals"] == {"developers": 2, "authors": 1, "files": 1100, "commits": 2}
    assert [(r["developer"], r["authored_files"]) for r in report["removed"]] == [
        ("Alice", 1100)
    ]


_SCRIPTED = (
    rf.single_author_repo,
    rf.two_author_repo,
    rf.rename_repo,
    rf.vendored_repo,
    rf.bulk_import_repo,
    rf.merge_repo,
    rf.blame_overwrite_repo,
    rf.aliased_repo,
    rf.branched_repo,
    rf.interleaved_blame_repo,
    rf.carriage_return_repo,
    rf.gitlink_repo,
    rf.latin1_repo,
)


@pytest.mark.parametrize("build", _SCRIPTED, ids=lambda build: build.__name__)
def test_sha256_repositories_report_like_sha1_ones(tmp_path, monkeypatch, build):
    reports = {}
    for object_format, id_length in (("sha1", 40), ("sha256", 64)):
        build(tmp_path / object_format / "repo", object_format)
        monkeypatch.chdir(tmp_path / object_format)
        report = _json_report("repo", blame_compare=True)
        assert len(report.pop("head_commit")) == id_length
        reports[object_format] = report
    assert reports["sha256"] == reports["sha1"]


def _files(directory) -> dict:
    """Every path under ``directory``, with its size and mtime."""
    return {
        path.relative_to(directory): (path.lstat().st_size, path.lstat().st_mtime_ns)
        for path in directory.rglob("*")
    }


def test_blame_compare_writes_neither_the_repository_nor_a_lasting_temp_file(
    tmp_path, monkeypatch, two_author_repo
):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    bare = tmp_path / "bare.git"
    two_author_repo.git("clone", "-q", "--bare", ".", str(bare))
    for repo, git_dir in (
        (two_author_repo.path, two_author_repo.path / ".git"),
        (bare, bare),
    ):
        before = _files(git_dir)
        report = run(AnalysisConfig(repo_path=str(repo), blame_compare=True))
        assert report.blame_agreement.blame_failures == 0
        assert _files(git_dir) == before
        assert not list(git_dir.glob("objects/info/commit-graph*"))
        assert not list(temp.iterdir())

    def failing_blame_rank(*args, **kwargs):
        raise RuntimeError("blame failed oddly")

    monkeypatch.setattr(authorship, "blame_rank", failing_blame_rank)
    with pytest.raises(RuntimeError, match="oddly"):
        run(AnalysisConfig(repo_path=str(bare), blame_compare=True))
    assert not list(temp.iterdir())


def _moved_and_edited_repo(path):
    """Alice adds a file, Bob moves and edits it in one commit: telling that
    rename from a deletion and an addition needs both blobs."""
    builder = rf.RepoBuilder(path)
    lines = [f"line {i}\n" for i in range(21)]
    builder.commit_file("a.txt", "".join(lines[:20]), "add", rf.ALICE)
    builder.git("mv", "a.txt", "b.txt")
    builder.commit_file("b.txt", "".join(lines), "move and edit", rf.BOB)
    return builder


@pytest.mark.parametrize(
    "build, options, code",
    [
        (_moved_and_edited_repo, [], 2),  # git log needs the blobs
        (_moved_and_edited_repo, ["--blame-compare"], 2),
        (rf.two_author_repo, [], 0),  # no rename to detect: no blob needed
        (rf.two_author_repo, ["--blame-compare"], 2),  # git blame needs them
    ],
    ids=["rename", "rename-blame", "plain", "plain-blame"],
)
def test_a_blobless_clone_is_never_fetched_into(tmp_path, capfd, build, options, code):
    clone = rf.blobless_clone(build(tmp_path / "source"), tmp_path / "clone.git")
    packs = sorted(path.name for path in (clone / "objects" / "pack").iterdir())
    before = _files(clone)
    assert main([str(clone), "--format", "json", *options]) == code
    out, err = capfd.readouterr()
    assert _files(clone) == before
    assert sorted(path.name for path in (clone / "objects" / "pack").iterdir()) == packs
    if code == 2:
        assert (out, err.count("\n")) == ("", 1)
        assert "a partial clone lacks objects that git needs" in err
        assert "from promisor remote" in err
        assert "git fetch --refetch --no-filter" in err
    else:
        assert json.loads(out)["totals"]["files"] == 4


def test_blames_read_a_temporary_object_directory_ahead_of_the_repositorys(
    tmp_path, monkeypatch, two_author_repo
):
    theirs = tmp_path / "their-objects"
    (theirs / "info").mkdir(parents=True)
    monkeypatch.setenv("GIT_ALTERNATE_OBJECT_DIRECTORIES", str(theirs))
    objects = two_author_repo.path / ".git" / "objects"
    real_blame_rank = authorship.blame_rank
    graphs = set()

    def spy(*args, env, **kwargs):
        alternates = env["GIT_ALTERNATE_OBJECT_DIRECTORIES"].split(os.pathsep)
        assert alternates == [str(objects), str(theirs)]
        graphs.add(env["GIT_OBJECT_DIRECTORY"])
        return real_blame_rank(*args, env=env, **kwargs)

    monkeypatch.setattr(authorship, "blame_rank", spy)
    config = AnalysisConfig(repo_path=str(two_author_repo.path), blame_compare=True)
    assert run(config).blame_agreement.blame_failures == 0
    (graph,) = graphs
    assert not Path(graph).exists()


def _bloom_answers(trace: Path) -> list[int]:
    """How many Bloom filter queries each traced blame answered "no"."""
    events = map(json.loads, trace.read_text().splitlines())
    return [
        int(event["value"])
        for event in events
        if (event.get("category"), event.get("key")) == ("blame", "bloom/response-no")
    ]


@pytest.mark.parametrize("config_off", [False, True], ids=["default", "config-off"])
def test_blames_skip_commits_through_the_temporary_graph(
    tmp_path, monkeypatch, config_off
):
    # The repository's own graph has no Bloom filters and would be read first.
    repo = rf.commit_graph_repo(tmp_path / "graph")
    if config_off:
        repo.git("config", "core.commitGraph", "false")
        repo.git("config", "commitGraph.readChangedPaths", "false")
        repo.git("config", "commitGraph.maxNewFilters", "0")
    trace = tmp_path / "trace2.json"
    monkeypatch.setenv("GIT_TRACE2_EVENT", str(trace))
    config = AnalysisConfig(repo_path=str(repo.path), blame_compare=True)
    assert run(config).blame_agreement.blame_failures == 0
    answers = _bloom_answers(trace)
    assert len(answers) == 4  # one per blamed file
    assert sum(answers) > 0


def test_a_repository_under_a_path_holding_the_separator_gets_the_graph(
    tmp_path, monkeypatch, two_author_repo
):
    odd = tmp_path / f"a{os.pathsep}b"
    odd.mkdir()
    two_author_repo.git("clone", "-q", ".", str(odd / "two"))
    expected = _json_report(two_author_repo.path, blame_compare=True)
    trace = tmp_path / "trace2.json"
    monkeypatch.setenv("GIT_TRACE2_EVENT", str(trace))
    report = _json_report(odd / "two", blame_compare=True)
    assert report["blame_agreement"] == expected["blame_agreement"]
    assert report["blame_agreement"]["blame_failures"] == 0
    assert len(_bloom_answers(trace)) == 4  # every blame read the filters


@pytest.mark.parametrize("kind", ["replace-ref", "shallow"])
def test_blames_without_a_usable_graph_rank_as_before(tmp_path, two_author_repo, kind):
    if kind == "replace-ref":  # git writes a graph but reads none
        two_author_repo.git("replace", "HEAD~1", "HEAD~2")
        repo = two_author_repo.path
    else:  # git writes no graph
        repo = tmp_path / "shallow"
        url = two_author_repo.path.as_uri()
        two_author_repo.git("clone", "-q", "--depth", "2", url, str(repo))
    revision = history.resolve_revision(repo)
    files = history.list_snapshot_files(
        revision.git_dir, FilterRules(), branch=revision.commit
    )
    with pipeline._changed_path_graph(revision) as env:
        assert (env is None) == (kind == "shallow")
        for file in files:
            ranking = authorship.blame_rank(
                revision.git_dir, file, {}, branch=revision.commit, env=env
            )
            assert ranking == authorship.blame_rank(
                revision.git_dir, file, {}, branch=revision.commit
            )


def test_a_repositorys_own_commit_graph_changes_no_byte(tmp_path, capfd):
    repo = rf.commit_graph_repo(tmp_path / "graph")
    graph = repo.path / ".git" / "objects" / "info" / "commit-graph"
    args = [str(repo.path), "--format", "json", "--blame-compare"]
    assert main(args) == 0
    with_graph = capfd.readouterr()
    assert json.loads(with_graph.out)["blame_agreement"]["blame_failures"] == 0
    graph.unlink()
    assert main(args) == 0
    assert capfd.readouterr() == with_graph


# A git that fails "commit-graph" and runs the real one for anything else.
_GRAPHLESS_GIT = """#!{python}
import os, sys
if "commit-graph" in sys.argv:
    open({marker!r}, "a").close()
    sys.exit(1)
os.execv({git!r}, [{git!r}, *sys.argv[1:]])
"""


@pytest.mark.parametrize("build", _SCRIPTED, ids=lambda build: build.__name__)
def test_a_failed_graph_write_leaves_the_report_as_it_is(tmp_path, monkeypatch, build):
    repo = build(tmp_path / "repo").path
    expected = _json_report(repo, blame_compare=True)
    script = tmp_path / "bin" / "git"
    script.parent.mkdir()
    marker = tmp_path / "graph-write-failed"
    git = shutil.which("git")
    script.write_text(
        _GRAPHLESS_GIT.format(python=sys.executable, git=git, marker=str(marker))
    )
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{script.parent}{os.pathsep}{os.environ['PATH']}")
    assert _json_report(repo, blame_compare=True) == expected
    assert marker.exists()
    assert expected["blame_agreement"]["blame_failures"] == 0


def test_branch_selection(branched_repo):
    on_main = run(AnalysisConfig(repo_path=str(branched_repo.path)))
    on_dev = run(AnalysisConfig(repo_path=str(branched_repo.path), branch="dev"))
    assert on_main.totals["files"] == 1
    assert on_dev.totals["files"] == 2
    assert on_dev.branch == "dev"


def test_extra_ignore_and_pattern_files(tmp_path, vendored_repo):
    ignore = tmp_path / "ignore.txt"
    ignore.write_text("src\n", encoding="utf-8")
    report = run(
        AnalysisConfig(repo_path=str(vendored_repo.path), ignore_file=str(ignore))
    )
    assert report.totals["files"] == 0
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("**/*.py\n", encoding="utf-8")
    report = run(
        AnalysisConfig(repo_path=str(vendored_repo.path), patterns_file=str(patterns))
    )
    assert report.totals["files"] == 0


def test_package_exports_what_the_readme_lists():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    paragraphs = readme.read_text(encoding="utf-8").split("\n\n")
    (exports,) = [p for p in paragraphs if p.startswith("The package exports ")]
    listed = re.findall(r"`(\w+)`", exports)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(truckfactor.__all__)


def test_config_validation():
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", universe="everything"))
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", k=1.5))
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", coverage=0.0))
    for m in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="m must be"):
            run(AnalysisConfig(repo_path="x", m=m))
