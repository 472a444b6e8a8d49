"""The whole report against a pure-Python reference model.

Histories are planned, written with ``git fast-import`` and analyzed by
``run()``; ``reference.expected_report`` computes the same report from the
plan alone. The authors plant aliases: Ann Lee's email in another letter
case under another name, and a name one edit away from hers.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import repo_fixtures as rf
from reference import doa, expected_report
from truckfactor import authorship
from truckfactor.identity import RawUser
from truckfactor.pipeline import AnalysisConfig, run
from truckfactor.report import emit

AUTHORS = (
    RawUser("Ann Lee", "ann@example.com"),
    RawUser("Annie", "ANN@Example.COM"),  # the same email, another letter case
    RawUser("Ann\u2028Lee", "lee@example.org"),  # one edit from "Ann Lee"
    RawUser(*rf.LATIN1_AUTHOR),
    RawUser("Bo", "bo@example.com"),
)

# (k, m, universe): the defaults in both universes, and each threshold set
# to a score that occurs, so that > and >= give different authors.
CONFIGS = (
    (0.75, 3.293, "authored"),
    (0.75, 3.293, "all-files"),
    (1.0, 3.293, "all-files"),
    (0.75, doa(1, 1, 0), "authored"),
)


def _analyze(repo: Path, monkeypatch, k, m, universe):
    """run()'s scored records, keyed like the reference's, and its report."""
    captured = []
    select = authorship.select_authors

    def spy(records, **thresholds):
        captured.extend(records)
        return select(captured, **thresholds)

    monkeypatch.setattr(authorship, "select_authors", spy)
    report = run(AnalysisConfig(repo_path=str(repo), k=k, m=m, universe=universe))
    records = {
        (r.file, r.developer.canonical_name): (r.fa, r.dl, r.ac, r.doa_abs, r.doa_norm)
        for r in captured
    }
    return records, json.loads(emit(report, "json"))


@settings(max_examples=15, deadline=None)
@given(rf.planned_commits(len(AUTHORS)))
@example(  # a creator, the aliases editing after her, someone else's rename
    [
        (3, [("add", 0, 0), ("add", 0, 1), ("add", 0, 9)]),
        (0, [("modify", 0, 0), ("add", 0, 2)]),
        (1, [("modify", 0, 0), ("modify", 2, 0)]),
        (4, [("rename", 2, 6), ("delete", 1, 0)]),
        (2, [("modify", 0, 0), ("add", 0, 3)]),
        (2, []),
    ]
)
@example(  # one author per file, each edited once by the next author
    [
        (0, [("add", 0, 0), ("add", 0, 1)]),
        (3, [("add", 0, 2), ("add", 0, 3), ("modify", 0, 0)]),
        (4, [("add", 0, 4), ("modify", 2, 0)]),
        (1, [("modify", 4, 0)]),
    ]
)
def test_run_reports_what_the_reference_model_computes(commits):
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        for object_format in ("sha1", "sha256"):
            repo = Path(scratch) / object_format / "repo.git"
            planned, final = rf.import_plan(repo, commits, AUTHORS, object_format)
            for k, m, universe in CONFIGS:
                want_records, want = expected_report(planned, final, k, m, universe)
                got_records, report = _analyze(repo, patch, k, m, universe)
                assert got_records == want_records
                assert {key: report[key] for key in want} == want
