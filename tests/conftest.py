import os
from contextlib import contextmanager

import pytest

import repo_fixtures as rf
from truckfactor import history


@pytest.fixture(autouse=True, scope="session")
def _hermetic_git():
    """Keep every git the tests start, the package's own included, from
    reading the user's and the system's git config. Tests that need a key
    set add it through ``GIT_CONFIG_COUNT``, which still applies."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        patch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        yield


@pytest.fixture
def started_git(monkeypatch):
    """Spy on ``history.start_git`` and return the list it fills, in start
    order, with every git process the package starts; the blame pool's
    threads append to it too, which a list does atomically. Any git still
    running at teardown is killed."""
    started = []
    real_start_git = history.start_git

    @contextmanager
    def spy(*args, **kwargs):
        with real_start_git(*args, **kwargs) as proc:
            started.append(proc)
            yield proc

    monkeypatch.setattr(history, "start_git", spy)
    yield started
    for proc in started:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


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


@pytest.fixture
def latin1_repo(tmp_path):
    return rf.latin1_repo(tmp_path / "latin1")
