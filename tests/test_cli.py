import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repo_fixtures as rf
import truckfactor
from truckfactor.cli import build_parser, main
from truckfactor.pipeline import AnalysisConfig


def test_text_output_and_success_exit(single_author_repo, capfd):
    code = main([str(single_author_repo.path)])
    out = capfd.readouterr().out
    assert code == 0
    assert "truck factor: 1" in out


def test_json_output_parses_back(two_author_repo, capfd):
    code = main([str(two_author_repo.path), "--format", "json"])
    out = capfd.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["truck_factor"] == 2
    assert [r["developer"] for r in report["removed"]] == ["Alice", "Bob"]


def test_csv_output_rows(two_author_repo, capfd):
    code = main([str(two_author_repo.path), "--format", "csv"])
    out = capfd.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "developer,authored_files,coverage_after"
    assert len(lines) == 4  # header + 2 removals + summary
    assert lines[-1].split(",")[0] == "truck_factor"


def test_a_latin1_author_renders_in_every_format(latin1_repo, capfdbinary):
    # The name's bytes are b"Jos\xe9"; text and CSV write them back as they
    # are, and JSON escapes them.
    assert main([str(latin1_repo.path)]) == 0
    assert b"1. Jos\xe9  (4 authored files" in capfdbinary.readouterr().out
    assert main([str(latin1_repo.path), "--format", "csv"]) == 0
    assert b"\nJos\xe9,4,0.000000\n" in capfdbinary.readouterr().out
    assert main([str(latin1_repo.path), "--format", "json"]) == 0
    report = json.loads(capfdbinary.readouterr().out)
    assert [r["developer"] for r in report["removed"]] == ["Jos\udce9"]


def test_fail_under_still_prints_the_report(single_author_repo, capfd):
    code = main([str(single_author_repo.path), "--fail-under", "3"])
    captured = capfd.readouterr()
    assert code == 1
    assert "truck factor: 1" in captured.out
    assert "below the required minimum 3" in captured.err


def test_fail_under_passes_when_met(single_author_repo):
    assert main([str(single_author_repo.path), "--fail-under", "1"]) == 0


def test_missing_repository_is_an_error(tmp_path, capfd):
    code = main([str(tmp_path / "nope")])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_invalid_threshold_is_an_error(single_author_repo, capfd):
    code = main([str(single_author_repo.path), "--k", "1.5"])
    assert code == 2
    assert "k must be" in capfd.readouterr().err
    for m in ("nan", "inf"):
        code = main([str(single_author_repo.path), "--m", m, "--format", "json"])
        captured = capfd.readouterr()
        assert code == 2
        assert "m must be" in captured.err
        assert captured.out == ""


def test_unknown_branch_is_an_error(single_author_repo, capfd):
    code = main([str(single_author_repo.path), "--branch", "nope"])
    assert code == 2
    assert "nope" in capfd.readouterr().err


def test_threshold_flags_are_forwarded(two_author_repo, capfd):
    code = main([str(two_author_repo.path), "--k", "0.99", "--format", "json"])
    assert code == 0
    report = json.loads(capfd.readouterr().out)
    # At k=0.99 Bob loses f3, so Alice alone covers 3 of 4 authored files.
    assert report["thresholds"]["k"] == 0.99
    assert report["truck_factor"] == 1


def test_no_migration_check_flag(bulk_import_repo, capfd):
    code = main([str(bulk_import_repo.path), "--no-migration-check", "--format", "json"])
    assert code == 0
    payload = json.loads(capfd.readouterr().out)
    assert payload["migration"]["checked"] is False


def test_blame_compare_and_seed_flags(single_author_repo, capfd):
    code = main(
        [str(single_author_repo.path), "--blame-compare", "--seed", "9", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capfd.readouterr().out)
    assert payload["blame_agreement"]["seed"] == 9
    assert payload["blame_agreement"]["top1_pct"] == 100.0


def test_alias_report_flag(aliased_repo, capfd):
    code = main([str(aliased_repo.path), "--alias-report", "--format", "json"])
    assert code == 0
    payload = json.loads(capfd.readouterr().out)
    assert len(payload["alias_candidates"]) == 1


def test_ignore_file_and_patterns_flags(vendored_repo, tmp_path, capfd):
    patterns = tmp_path / "extra.txt"
    patterns.write_text("src/**\n", encoding="utf-8")
    code = main(
        [str(vendored_repo.path), "--patterns", str(patterns), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capfd.readouterr().out)
    assert payload["totals"]["files"] == 0
    assert payload["truck_factor"] == 0


def test_the_text_report_of_an_empty_file_set_makes_no_claim_about_it(
    vendored_repo, tmp_path, capfd
):
    ignore = tmp_path / "ignore.txt"
    ignore.write_text("src/\n", encoding="utf-8")
    args = [str(vendored_repo.path), "--ignore-file", str(ignore), "--format", "text"]
    assert main(args) == 0
    lines = capfd.readouterr().out.splitlines()
    assert "WARNING: no file to analyze" in "\n".join(lines)
    assert not [line for line in lines if line.startswith("note:")]
    assert [line for line in lines if line.startswith("migration")] == [
        "migration check: no files"
    ]


@pytest.mark.parametrize("line", ["[z-a].py", "[a--b].py", "/"])
def test_an_invalid_glob_in_a_patterns_file_exits_2(
    vendored_repo, tmp_path, capfd, line
):
    patterns = tmp_path / "extra.txt"
    patterns.write_text(f"src/**\n{line}\n", encoding="utf-8")
    code = main([str(vendored_repo.path), "--patterns", str(patterns)])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {patterns}:2: invalid glob {line!r}: ")
    assert captured.out == ""


def test_alias_file_flag(aliased_repo, tmp_path, capfd):
    rules = tmp_path / "aliases.txt"
    rules.write_text("bob@work.example => Robert\nBob Rob => Robert\n", encoding="utf-8")
    code = main(
        [str(aliased_repo.path), "--alias-file", str(rules), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capfd.readouterr().out)
    assert payload["totals"]["developers"] == 1
    assert payload["removed"][0]["developer"] == "Robert"


def test_a_file_recreated_at_a_deleted_path_starts_a_new_history(tmp_path, capfd):
    builder = rf.RepoBuilder(tmp_path / "recreated")
    builder.commit_file("f.py", "a = 1\n", "add f", rf.ALICE)
    builder.commit_file("f.py", "a = 2\n", "edit f", rf.ALICE)
    builder.commit_file("f.py", "a = 3\n", "edit f again", rf.ALICE)
    builder.git("rm", "-q", "f.py")
    builder.git("commit", "-q", "-m", "remove f", user=rf.ALICE)
    builder.commit_file("f.py", "b = 1\n", "new f", rf.BOB)
    assert main([str(builder.path), "--format", "json"]) == 0
    report = json.loads(capfd.readouterr().out)
    assert [(r["developer"], r["authored_files"]) for r in report["removed"]] == [("Bob", 1)]


def test_every_argument_but_the_output_options_is_a_config_field():
    args = vars(build_parser().parse_args(["r"]))
    del args["output_format"], args["fail_under"]
    assert args.keys() == {field.name for field in dataclasses.fields(AnalysisConfig)}
    assert AnalysisConfig(**args) == AnalysisConfig(repo_path="r")


@pytest.mark.parametrize(
    "variable", ["GIT_DIR", "GIT_COMMON_DIR", "GIT_OBJECT_DIRECTORY"]
)
def test_an_inherited_repository_variable_does_not_redirect_the_analysis(
    variable, single_author_repo, two_author_repo, monkeypatch, capfd
):
    # git exports GIT_DIR to its hooks, so a run from a hook inherits it.
    argv = [str(single_author_repo.path), "--blame-compare", "--format", "json"]
    assert main(argv) == 0
    alone = capfd.readouterr().out
    monkeypatch.setenv(variable, str(two_author_repo.path / ".git"))
    assert main(argv) == 0
    assert capfd.readouterr().out == alone


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("extra", [[], ["--fail-under", "1000"]])
def test_a_report_that_cannot_be_written_exits_2(extra, single_author_repo):
    # Exit 1 is kept for a missed --fail-under bound.
    package_root = Path(truckfactor.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "truckfactor.cli", str(single_author_repo.path), *extra],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            check=False,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write the report: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
