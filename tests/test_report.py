import json
import random
from dataclasses import asdict

import pytest

from truckfactor.report import (
    SCHEMA_VERSION,
    AliasCandidate,
    BlameAgreement,
    MigrationSummary,
    RemovedAuthor,
    Report,
    emit,
)


def full_report():
    return Report(
        schema_version=SCHEMA_VERSION,
        repository="/tmp/repo",
        branch="main",
        head_commit="a" * 40,
        thresholds={"k": 0.75, "m": 3.293, "coverage": 0.5},
        universe="authored",
        truck_factor=2,
        initial_coverage=1.0,
        file_universe_size=4,
        low_initial_coverage=False,
        removed=[
            RemovedAuthor("alice", 3, 0.5),
            RemovedAuthor("bob", 2, 0.0),
        ],
        author_ratio=1.0,
        totals={"developers": 2, "authors": 2, "files": 4, "commits": 7},
        migration=MigrationSummary(checked=True, suspicious=False, fraction_covered=0.6, adding_commits=25),
        blame_agreement=BlameAgreement(4, 5, 80.0, 100.0, 0.0, 0, 0),
        alias_candidates=[AliasCandidate("Bob.Rob", "a@x", "Bob Rob", "b@y")],
        warnings=["something looked off"],
    )


def degenerate_report():
    return Report(
        schema_version=SCHEMA_VERSION,
        repository="/tmp/other",
        branch=None,
        head_commit="b" * 40,
        thresholds={"k": 0.75, "m": 3.293, "coverage": 0.5},
        universe="all-files",
        truck_factor=0,
        initial_coverage=0.25,
        file_universe_size=8,
        low_initial_coverage=True,
        removed=[],
        author_ratio=0.5,
        totals={"developers": 2, "authors": 1, "files": 8, "commits": 3},
        migration=MigrationSummary(checked=False),
    )


def random_report(rng):
    tf = rng.randint(0, 5)
    removed = [
        RemovedAuthor(f"dev{i}", rng.randint(1, 30), round(rng.random(), 6))
        for i in range(tf)
    ]
    return Report(
        schema_version=SCHEMA_VERSION,
        repository=f"/tmp/r{rng.randint(0, 999)}",
        branch=rng.choice([None, "main", "release/2.x"]),
        head_commit="".join(rng.choice("0123456789abcdef") for _ in range(40)),
        thresholds={"k": rng.random(), "m": rng.uniform(0, 5), "coverage": rng.random()},
        universe=rng.choice(["authored", "all-files"]),
        truck_factor=tf,
        initial_coverage=rng.random(),
        file_universe_size=rng.randint(0, 500),
        low_initial_coverage=rng.random() < 0.2,
        removed=removed,
        author_ratio=rng.random(),
        totals={
            "developers": rng.randint(0, 50),
            "authors": rng.randint(0, 50),
            "files": rng.randint(0, 500),
            "commits": rng.randint(0, 1000),
        },
        migration=rng.choice(
            [
                MigrationSummary(checked=False),
                MigrationSummary(True, True, rng.random(), rng.randint(1, 19)),
                MigrationSummary(True, False, rng.random(), rng.randint(20, 100)),
            ]
        ),
        blame_agreement=rng.choice(
            [
                None,
                BlameAgreement(
                    rng.randint(0, 120),
                    rng.randint(0, 500),
                    rng.random() * 100,
                    rng.random() * 100,
                    rng.random() * 100,
                    rng.randint(0, 5),
                    rng.randint(0, 2**31),
                ),
            ]
        ),
        alias_candidates=rng.choice(
            [None, [], [AliasCandidate("A", "a@x", "B", "b@y")]]
        ),
        warnings=rng.choice([[], ["w1"], ["w1", "w2"]]),
    )


def test_json_round_trip_preserves_everything():
    for report in (full_report(), degenerate_report()):
        assert json.loads(emit(report, "json")) == asdict(report)


def test_json_round_trip_on_random_reports():
    rng = random.Random(99)
    for _ in range(50):
        report = random_report(rng)
        assert json.loads(emit(report, "json")) == asdict(report)


def test_json_output_is_key_sorted_and_newline_terminated():
    blob = emit(full_report(), "json")
    assert blob.endswith(b"\n")
    decoded = json.loads(blob)
    assert decoded["schema_version"] == SCHEMA_VERSION
    assert blob == (json.dumps(decoded, indent=2, sort_keys=True) + "\n").encode()


def test_json_emission_is_deterministic():
    assert emit(full_report(), "json") == emit(full_report(), "json")


def test_csv_has_header_removals_and_summary_row():
    lines = emit(full_report(), "csv").decode().splitlines()
    assert lines[0] == "developer,authored_files,coverage_after"
    assert len(lines) == 1 + 2 + 1  # header, two removals, summary
    assert lines[1].startswith("alice,3,")
    assert lines[-1].startswith("truck_factor,2,")


def test_csv_of_zero_factor_report_still_has_summary():
    lines = emit(degenerate_report(), "csv").decode().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("truck_factor,0,")


def test_text_shows_the_factor_and_removal_order():
    text = emit(full_report(), "text").decode()
    assert "truck factor: 2" in text
    assert "1. alice" in text
    assert "2. bob" in text
    assert "WARNING: something looked off" in text
    assert "blame agreement" in text
    assert "Bob.Rob" in text


def test_text_flags_low_initial_coverage():
    text = emit(degenerate_report(), "text").decode()
    assert "truck factor: 0" in text
    assert "coverage starts below the threshold" in text


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        emit(full_report(), "yaml")
