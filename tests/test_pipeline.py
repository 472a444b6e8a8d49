import random
import threading
import time

import pytest

import repo_fixtures as rf
from truckfactor import authorship, history, pipeline
from truckfactor.authorship import AuthorshipRecord
from truckfactor.errors import BlameFailed
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
    assert report.low_initial_coverage
    assert any("coverage" in w for w in report.warnings)


def test_reports_are_deterministic(two_author_repo):
    first = run(AnalysisConfig(repo_path=str(two_author_repo.path)))
    second = run(AnalysisConfig(repo_path=str(two_author_repo.path)))
    assert emit(first, "json") == emit(second, "json")


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
    records = [
        AuthorshipRecord(developers[(i * step) % 5], file, 1, 1, 0, 4.0, 1.0, True)
        for i, file in enumerate(files)
        for step in (1, 2)
    ]
    lock = threading.Lock()
    running = peak = 0

    def fake_blame_rank(repo_path, file, alias_map, branch=None):
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
    config = AnalysisConfig(repo_path="unused", seed=4)
    monkeypatch.setattr(pipeline, "_blame_workers", lambda: 1)
    sequential = pipeline._blame_agreement(config, "c0ffee", files, records, {})
    assert peak == 1
    peak = 0
    monkeypatch.setattr(pipeline, "_blame_workers", lambda: 4)
    pooled = pipeline._blame_agreement(config, "c0ffee", files, records, {})
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
    lock = threading.Lock()
    real_run_git = history.run_git

    def spy(repo_path, args):
        with lock:
            calls.append(list(args))
            first = len(calls) == 1
        out = real_run_git(repo_path, args)
        if first:  # the branch moves right after it was resolved
            two_author_repo.commit_file("late.py", "late\n", "late", rf.CAROL)
        return out

    monkeypatch.setattr(history, "run_git", spy)
    monkeypatch.setattr(authorship, "run_git", spy)
    config = AnalysisConfig(repo_path=str(two_author_repo.path), blame_compare=True)
    report = run(config)
    assert two_author_repo.head() != head
    assert report.head_commit == head
    assert report.totals == {"developers": 2, "authors": 2, "files": 4, "commits": 7}
    subcommands = [args[0] for args in calls]
    assert subcommands == ["rev-parse", "ls-tree", "log"] + ["blame"] * 4
    assert all(head in args for args in calls[1:])


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


def test_config_validation():
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", universe="everything"))
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", k=1.5))
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", coverage=0.0))
    with pytest.raises(ValueError):
        run(AnalysisConfig(repo_path="x", output_format="yaml"))
