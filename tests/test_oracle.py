"""The JSON report of every fixture repository, pinned by digest.

Each builder in ``repo_fixtures`` (SHA-1 only; the SHA-256 repositories are
compared with the SHA-1 ones elsewhere) runs through the CLI with
``--format json`` and each option set in ``OPTIONS``, and with
``--format text`` and each option set in ``TEXT_OPTIONS``, the sections
that only those options add to the text report, and with ``--format csv``.
Two more cases read the side files that ``SIDE_FILES`` lists. The exit
code and the SHA-256 of stdout must match ``oracle_digests.json``. A
refactor leaves the table as it is. A change meant to alter the report
re-records it::

    PYTHONPATH=src python tests/test_oracle.py > tests/oracle_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

import repo_fixtures as rf
from truckfactor.cli import main

TABLE = Path(__file__).with_name("oracle_digests.json")
OPTIONS = ((), ("--blame-compare",), ("--alias-report",), ("--universe", "all-files"))
BUILDERS = sorted(
    name for name, value in inspect.getmembers(rf, inspect.isfunction) if name.endswith("_repo")
)
TEXT_OPTIONS = (("--blame-compare",), ("--alias-report",))
# Each side file in every shape its reader accepts: a byte-order mark, CRLF
# line endings, comments, blank lines and indented entries.
SIDE_FILES = {
    "aliases.txt": [
        "# Bob's two identities",
        "",
        "  <BOB@home.example> => Robert Rob",
        "\tbob.rob => Robert Rob ",
    ],
    "patterns.txt": ["# generated code", "   ", "\t*.py"],
    "ignore.txt": ["# paths", "", "  src/  "],
}
CASES = [" ".join((name, *options)) for name in BUILDERS for options in OPTIONS] + [
    "aliased_repo --alias-file aliases.txt",
    "vendored_repo --patterns patterns.txt --ignore-file ignore.txt",
]
TEXT_CASES = [
    " ".join((name, "--format", "text", *options))
    for name in BUILDERS
    for options in TEXT_OPTIONS
]
CSV_CASES = [f"{name} --format csv" for name in BUILDERS]


def build_all(directory: Path) -> None:
    """Build every fixture repository under ``directory``, named after its
    builder, and write the side files next to them."""
    for name in BUILDERS:
        getattr(rf, name)(directory / name)
    for name, lines in SIDE_FILES.items():
        (directory / name).write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode())


def run_case(case: str) -> tuple[int, bytes]:
    """The CLI's exit code and stdout for one case, run in the directory
    that holds the repositories, so the report names each by its builder.
    A ``--format`` in the case overrides the leading ``--format json``."""
    name, *options = case.split(" ")
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out)  # the CLI writes bytes to its buffer, ``out``
    with contextlib.redirect_stdout(stdout):
        code = main([name, "--format", "json", *options])
    return code, out.getvalue()


def record(code: int, out: bytes) -> list:
    return [code, hashlib.sha256(out).hexdigest()]


@pytest.fixture(scope="module")
def repositories(tmp_path_factory):
    directory = tmp_path_factory.mktemp("oracle")
    build_all(directory)
    return directory


def test_the_table_holds_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(CASES + TEXT_CASES + CSV_CASES)


def check_case(case: str, directory: Path, monkeypatch) -> None:
    monkeypatch.chdir(directory)
    code, out = run_case(case)
    expected = json.loads(TABLE.read_text()).get(case)
    assert record(code, out) == expected, out.decode("utf-8", "replace")


@pytest.mark.parametrize("case", CASES)
def test_json_report_matches_the_table(case, repositories, monkeypatch):
    check_case(case, repositories, monkeypatch)


@pytest.mark.parametrize("case", TEXT_CASES)
def test_text_report_matches_the_table(case, repositories, monkeypatch):
    check_case(case, repositories, monkeypatch)


@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_report_matches_the_table(case, repositories, monkeypatch):
    check_case(case, repositories, monkeypatch)


if __name__ == "__main__":
    os.environ["GIT_CONFIG_GLOBAL"] = os.devnull  # as conftest.py sets for the tests
    os.environ["GIT_CONFIG_NOSYSTEM"] = "1"
    table = {}
    with tempfile.TemporaryDirectory() as scratch:
        build_all(Path(scratch))
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for case in CASES + TEXT_CASES + CSV_CASES:
                table[case] = record(*run_case(case))
        finally:
            os.chdir(cwd)
    rows = (f"  {json.dumps(case)}: {json.dumps(table[case])}" for case in sorted(table))
    print("{\n" + ",\n".join(rows) + "\n}")
