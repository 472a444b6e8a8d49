import pytest

import repo_fixtures as rf


@pytest.fixture
def single_author_repo(tmp_path):
    return rf.single_author_repo(tmp_path / "single")


@pytest.fixture
def two_author_repo(tmp_path):
    return rf.two_author_repo(tmp_path / "two")


@pytest.fixture
def rename_repo(tmp_path):
    return rf.rename_repo(tmp_path / "rename")


@pytest.fixture
def vendored_repo(tmp_path):
    return rf.vendored_repo(tmp_path / "vendored")


@pytest.fixture
def bulk_import_repo(tmp_path):
    return rf.bulk_import_repo(tmp_path / "bulk")


@pytest.fixture
def merge_repo(tmp_path):
    return rf.merge_repo(tmp_path / "merge")


@pytest.fixture
def blame_overwrite_repo(tmp_path):
    return rf.blame_overwrite_repo(tmp_path / "blame")


@pytest.fixture
def aliased_repo(tmp_path):
    return rf.aliased_repo(tmp_path / "aliased")


@pytest.fixture
def branched_repo(tmp_path):
    return rf.branched_repo(tmp_path / "branched")


@pytest.fixture
def interleaved_blame_repo(tmp_path):
    return rf.interleaved_blame_repo(tmp_path / "interleaved")


@pytest.fixture
def carriage_return_repo(tmp_path):
    return rf.carriage_return_repo(tmp_path / "carriage-return")


@pytest.fixture
def gitlink_repo(tmp_path):
    return rf.gitlink_repo(tmp_path / "gitlink")
