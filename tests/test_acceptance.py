"""Acceptance gate: one test per shipping criterion.

Each test prints a single `[PASS] ...` / `[FAIL] ...` line (run with
``pytest tests/test_acceptance.py -s`` to see them) and asserts afterwards,
so a criterion's verdict is visible even when its details are not.
"""

import os
import random
import time

import pytest

import repo_fixtures as rf
from reference import dev, levenshtein, naive_truck_factor
from truckfactor.authorship import doa, score_trace, select_authors
from truckfactor.estimate import truck_factor
from truckfactor.history import (
    list_snapshot_files,
    read_log,
    resolve_revision,
    trace_files,
)
from truckfactor.identity import RawUser, resolve_aliases
from truckfactor.pipeline import AnalysisConfig, run
from truckfactor.report import emit


def _criterion(name, failures):
    print(f"[{'PASS' if not failures else 'FAIL'}] {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# --- criterion: authorship score arithmetic ---------------------------------


def test_authorship_score_numeric_suite():
    failures = []
    try:
        started = time.perf_counter()
        _check(failures, doa(0, 0, 0) == 3.293, "baseline is not exactly 3.293")
        _check(
            failures,
            abs(doa(1, 0, 0) - 4.391) <= 1e-12,
            f"doa(1,0,0) = {doa(1, 0, 0)!r}, expected 4.391 within 1e-12",
        )
        _check(
            failures,
            abs(doa(1, 10, 5) - 5.45585) <= 1e-5,
            f"doa(1,10,5) = {doa(1, 10, 5)!r}, expected 5.45585 within 1e-5",
        )
        rng = random.Random(42)
        for _ in range(10_000):
            fa = rng.randint(0, 1)
            dl = rng.randint(0, 10_000)
            ac = rng.randint(0, 10_000)
            if not doa(fa, dl + 1, ac) > doa(fa, dl, ac):
                failures.append(f"not increasing in DL at fa={fa} dl={dl} ac={ac}")
                break
            if not doa(fa, dl, ac + 1) < doa(fa, dl, ac):
                failures.append(f"not decreasing in AC at fa={fa} dl={dl} ac={ac}")
                break
        elapsed = time.perf_counter() - started
        _check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    except Exception as exc:  # the verdict line must still print
        failures.append(f"unexpected error: {exc!r}")
    _criterion("score arithmetic: pinned values and monotonicity (10k samples, <1s)", failures)


# --- criterion: greedy estimator vs naive transcription ----------------------


def test_greedy_estimator_matches_naive_simulation():
    failures = []
    try:
        started = time.perf_counter()
        rng = random.Random(20_260_815)
        files = [f"f{i}" for i in range(12)]
        for case in range(1000):
            author_map = {
                dev(f"dev{i}"): set(rng.sample(files, rng.randint(1, 12)))
                for i in range(rng.randint(1, 8))
            }
            expected = naive_truck_factor(author_map)
            actual = len(truck_factor(author_map).removed)
            if actual != expected:
                failures.append(f"case {case}: got {actual}, naive says {expected}: {author_map}")
                break
        elapsed = time.perf_counter() - started
        _check(failures, elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _criterion("greedy estimator: equals naive transcription on 1000 random maps (<5s)", failures)


# --- criterion: fixture repositories end to end ------------------------------


def test_fixture_repositories_end_to_end(tmp_path):
    failures = []
    try:
        started = time.perf_counter()

        single = rf.single_author_repo(tmp_path / "one")
        report = run(AnalysisConfig(repo_path=str(single.path)))
        _check(failures, report.truck_factor == 1, f"(a) tf={report.truck_factor}, expected 1")
        _check(
            failures,
            [r.developer for r in report.removed] == ["Alice"],
            f"(a) removal order {[r.developer for r in report.removed]}",
        )

        double = rf.two_author_repo(tmp_path / "two")
        report = run(AnalysisConfig(repo_path=str(double.path)))
        _check(failures, report.truck_factor == 2, f"(b) tf={report.truck_factor}, expected 2")
        _check(
            failures,
            [(r.developer, r.authored_files) for r in report.removed]
            == [("Alice", 3), ("Bob", 2)],
            f"(b) removal detail {[(r.developer, r.authored_files) for r in report.removed]}",
        )
        _check(
            failures,
            report.initial_coverage == 1.0 and report.file_universe_size == 4,
            f"(b) coverage {report.initial_coverage} over {report.file_universe_size}",
        )

        renamed = rf.rename_repo(tmp_path / "ren")
        revision = resolve_revision(renamed.path)
        with read_log(revision) as log:
            commits = list(log)
        traces = trace_files(commits, list_snapshot_files(revision))
        alias_map = resolve_aliases({c.author for c in commits})
        records = [r for t in traces for r in score_trace(t, alias_map)]
        carol = next(r for r in records if r.developer.canonical_name == "Carol")
        _check(
            failures,
            carol.file == "src/renamed.py" and carol.fa == 1,
            f"(c) first authorship did not follow the rename: {carol}",
        )
        author_map = select_authors(traces, alias_map)
        _check(
            failures,
            {d.canonical_name: files for d, files in author_map.items()}
            == {"Carol": {"src/renamed.py"}},
            "(c) renamed file should have exactly its creator as author",
        )

        vendored = rf.vendored_repo(tmp_path / "ven")
        report = run(AnalysisConfig(repo_path=str(vendored.path)))
        _check(
            failures,
            report.totals["files"] == 1,
            f"(d) vendored/doc files not excluded: {report.totals['files']} files",
        )

        bulk = rf.bulk_import_repo(tmp_path / "bulk")
        report = run(AnalysisConfig(repo_path=str(bulk.path)))
        _check(failures, report.migration.suspicious, "(e) bulk import not flagged")
        _check(
            failures,
            report.migration.adding_commits == 1,
            f"(e) adding_commits={report.migration.adding_commits}, expected 1",
        )

        elapsed = time.perf_counter() - started
        _check(failures, elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _criterion("fixture repositories: five scripted scenarios match exactly (<30s)", failures)


# --- criterion: alias resolution ---------------------------------------------


def _random_name(rng):
    alphabet = "abcdefghijklmnopqrstuvwxyz .-éü"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))


def test_alias_resolution_suite():
    failures = []
    try:
        rng = random.Random(7)
        for _ in range(10_000):
            a, b, c = _random_name(rng), _random_name(rng), _random_name(rng)
            dab, dba = levenshtein(a, b), levenshtein(b, a)
            if dab < 0 or dab != dba:
                failures.append(f"not symmetric/non-negative on {a!r}, {b!r}")
                break
            if (dab == 0) != (a == b):
                failures.append(f"zero-distance mismatch on {a!r}, {b!r}")
                break
            if levenshtein(a, c) > dab + levenshtein(b, c):
                failures.append(f"triangle inequality broken on {a!r}, {b!r}, {c!r}")
                break

        u1 = RawUser("Bob.Rob", "bob@work.example")
        u2 = RawUser("Bob Rob", "bob@home.example")
        mapping = resolve_aliases([u1, u2])
        _check(failures, mapping[u1] == mapping[u2], "Bob.Rob and Bob Rob did not merge")

        users = [
            u1,
            u2,
            RawUser("Alice", "a@x.com"),
            RawUser("alice", "a2@x.com"),
            RawUser("Carol", ""),
        ]
        first = {dev.members for dev in resolve_aliases(users).values()}
        second = {dev.members for dev in resolve_aliases(users).values()}
        _check(failures, first == second, "resolution is not idempotent")
        shuffled = users[:]
        rng.shuffle(shuffled)
        third = {dev.members for dev in resolve_aliases(shuffled).values()}
        _check(failures, first == third, "resolution depends on input order")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _criterion("alias resolution: metric laws (10k samples), merge example, idempotence", failures)


# --- criterion: threshold monotonicity ---------------------------------------


def test_raising_k_never_enlarges_the_author_set(tmp_path):
    failures = []
    try:
        repo = rf.two_author_repo(tmp_path / "two")
        revision = resolve_revision(repo.path)
        with read_log(revision) as log:
            commits = list(log)
        targets = list_snapshot_files(revision)
        alias_map = resolve_aliases({c.author for c in commits})
        traces = trace_files(commits, targets)
        previous = None
        k = 0.75
        while k <= 0.99 + 1e-9:
            entries = {
                dev: set(files)
                for dev, files in select_authors(traces, alias_map, k=k).items()
            }
            if previous is not None:
                for dev, files in entries.items():
                    if not files <= previous.get(dev, set()):
                        failures.append(f"author set grew between k steps near k={k:.2f}")
                previous_total = sum(len(f) for f in previous.values())
                current_total = sum(len(f) for f in entries.values())
                _check(
                    failures,
                    current_total <= previous_total,
                    f"total authored files grew at k={k:.2f}",
                )
            previous = entries
            k = round(k + 0.02, 10)
        strict = select_authors(traces, alias_map, k=0.99)
        _check(
            failures,
            {d.canonical_name: files for d, files in strict.items()}
            == {"Alice": {"f1.py", "f2.py", "f3.py"}, "Bob": {"f4.py"}},
            "at k=0.99 the shared file should keep only its dominant author",
        )
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _criterion("threshold monotonicity: k from 0.75 to 0.99 never enlarges the author set", failures)


# --- criterion: determinism ---------------------------------------------------


def test_repeated_analysis_is_byte_identical(tmp_path):
    failures = []
    try:
        repo = rf.two_author_repo(tmp_path / "two")
        config = AnalysisConfig(repo_path=str(repo.path), blame_compare=True)
        first = emit(run(config), "json")
        second = emit(run(config), "json")
        _check(failures, first == second, "two runs produced different JSON bytes")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _criterion("determinism: repeated runs emit byte-identical JSON", failures)


# --- optional, non-gating: a real repository ----------------------------------


@pytest.mark.skipif(
    not os.environ.get("TRUCKFACTOR_LIVE_REPO"),
    reason="set TRUCKFACTOR_LIVE_REPO to a local clone to enable",
)
def test_live_repository_regression():
    """Non-gating sanity run against a real clone.

    Set TRUCKFACTOR_LIVE_REPO to a local clone path (and optionally
    TRUCKFACTOR_LIVE_MIN / TRUCKFACTOR_LIVE_MAX, default 1..1000) to check
    that the estimate lands in the expected band.
    """
    failures = []
    repo = os.environ["TRUCKFACTOR_LIVE_REPO"]
    low = int(os.environ.get("TRUCKFACTOR_LIVE_MIN", "1"))
    high = int(os.environ.get("TRUCKFACTOR_LIVE_MAX", "1000"))
    try:
        report = run(AnalysisConfig(repo_path=repo))
        _check(
            failures,
            low <= report.truck_factor <= high,
            f"tf={report.truck_factor} outside [{low}, {high}]",
        )
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    _criterion(f"live repository: estimate within [{low}, {high}]", failures)
