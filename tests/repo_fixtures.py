"""Builders for the small throwaway Git repositories used across the tests.

Commit timestamps increase deterministically and user config is pinned per
commit, so every fixture repository is reproducible run to run.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

_EPOCH = 1577836800  # 2020-01-01T00:00:00Z

ALICE = ("Alice", "alice@example.com")
BOB = ("Bob", "bob@example.com")
CAROL = ("Carol", "carol@example.com")
DAVE = ("Dave", "dave@example.com")
EVE = ("Eve", "eve@example.com")
FRANK = ("Frank", "frank@example.com")


class RepoBuilder:
    """Scripts a Git repository through the real git CLI."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._ticks = 0
        self.git("init", "-q", "-b", "main", ".")

    def git(self, *args: str, user: tuple[str, str] = ("Fixture", "fixture@example.com")) -> str:
        self._ticks += 1
        stamp = f"{_EPOCH + self._ticks} +0000"
        name, email = user
        env = {
            **os.environ,
            "GIT_CONFIG_GLOBAL": os.devnull,
            "GIT_CONFIG_NOSYSTEM": "1",
            "GIT_AUTHOR_NAME": name,
            "GIT_AUTHOR_EMAIL": email,
            "GIT_COMMITTER_NAME": name,
            "GIT_COMMITTER_EMAIL": email,
            "GIT_AUTHOR_DATE": stamp,
            "GIT_COMMITTER_DATE": stamp,
        }
        proc = subprocess.run(
            ["git", *args],
            cwd=self.path,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def write(self, relpath: str, content: str) -> None:
        target = self.path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")

    def commit_file(self, relpath: str, content: str, message: str, user: tuple[str, str]) -> None:
        self.write(relpath, content)
        self.git("add", "--", relpath)
        self.git("commit", "-q", "-m", message, user=user)

    def commit_all(self, message: str, user: tuple[str, str]) -> None:
        self.git("add", "-A", ".")
        self.git("commit", "-q", "-m", message, user=user)

    def move(self, src: str, dst: str, message: str, user: tuple[str, str]) -> None:
        self.git("mv", src, dst)
        self.git("commit", "-q", "-m", message, user=user)

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").strip()


def single_author_repo(path: Path) -> RepoBuilder:
    """Three source files, all by Alice."""
    builder = RepoBuilder(path)
    for i in (1, 2, 3):
        builder.commit_file(f"src/f{i}.py", f"print({i})\n", f"add f{i}", ALICE)
    return builder


def two_author_repo(path: Path) -> RepoBuilder:
    """Alice creates f1-f3, Bob grows f3 and adds f4.

    The scores land so that f3 has both as authors: Alice keeps first
    authorship, Bob's three changes put his normalized score at ~0.87.
    The expected author map is Alice -> {f1, f2, f3}, Bob -> {f3, f4}.
    """
    builder = RepoBuilder(path)
    builder.commit_file("f1.py", "one\n", "add f1", ALICE)
    builder.commit_file("f2.py", "two\n", "add f2", ALICE)
    builder.commit_file("f3.py", "three\n", "add f3", ALICE)
    for i in range(1, 4):
        builder.commit_file("f3.py", "three\n" + "more\n" * i, f"extend f3 #{i}", BOB)
    builder.commit_file("f4.py", "four\n", "add f4", BOB)
    return builder


def rename_repo(path: Path) -> RepoBuilder:
    """Carol adds a file, Dave renames it."""
    builder = RepoBuilder(path)
    builder.commit_file("src/original.py", "def f():\n    return 1\n", "add original", CAROL)
    builder.move("src/original.py", "src/renamed.py", "rename original", DAVE)
    return builder


def vendored_repo(path: Path) -> RepoBuilder:
    """One real source file next to vendored and documentation material."""
    builder = RepoBuilder(path)
    builder.commit_file("src/app.py", "app = 1\n", "add app", EVE)
    builder.commit_file("vendor/lib.js", "lib\n", "vendor a library", EVE)
    builder.commit_file("node_modules/pkg/index.js", "pkg\n", "commit node_modules", EVE)
    builder.commit_file("docs/guide.md", "# guide\n", "add docs", EVE)
    return builder


def bulk_import_repo(path: Path) -> RepoBuilder:
    """Ten files landing in a single commit, then one small tweak."""
    builder = RepoBuilder(path)
    for i in range(10):
        builder.write(f"mod{i}.py", f"value = {i}\n")
    builder.commit_all("import everything", FRANK)
    builder.commit_file("mod0.py", "value = 100\n", "tweak mod0", FRANK)
    return builder


def merge_repo(path: Path) -> RepoBuilder:
    """A feature branch merged back with --no-ff: three real commits plus
    one merge commit."""
    builder = RepoBuilder(path)
    builder.commit_file("a.txt", "a1\n", "add a", ALICE)
    builder.git("checkout", "-q", "-b", "feature")
    builder.commit_file("b.txt", "b1\n", "add b", BOB)
    builder.git("checkout", "-q", "main")
    builder.commit_file("a.txt", "a1\na2\n", "edit a", ALICE)
    builder.git("merge", "-q", "--no-ff", "-m", "merge feature", "feature", user=ALICE)
    return builder


def blame_overwrite_repo(path: Path) -> RepoBuilder:
    """Alice writes 40 lines; Bob rewrites the first 10."""
    lines = [f"line {i} original" for i in range(1, 41)]
    builder = RepoBuilder(path)
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "add data", ALICE)
    lines[:10] = [f"line {i} rewritten" for i in range(1, 11)]
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "rewrite head", BOB)
    return builder


def aliased_repo(path: Path) -> RepoBuilder:
    """The same person committing as Bob.Rob (twice) and Bob Rob (once)."""
    builder = RepoBuilder(path)
    builder.commit_file("x.py", "x = 1\n", "one", ("Bob.Rob", "bob@work.example"))
    builder.commit_file("y.py", "y = 2\n", "two", ("Bob Rob", "bob@home.example"))
    builder.commit_file("x.py", "x = 1\nx = 2\n", "three", ("Bob.Rob", "bob@work.example"))
    return builder


def branched_repo(path: Path) -> RepoBuilder:
    """main holds one file; a dev branch adds a second."""
    builder = RepoBuilder(path)
    builder.commit_file("m.txt", "m\n", "add m", ALICE)
    builder.git("checkout", "-q", "-b", "dev")
    builder.commit_file("d.txt", "d\n", "add d", ALICE)
    builder.git("checkout", "-q", "main")
    return builder


def interleaved_blame_repo(path: Path) -> RepoBuilder:
    """Alice writes 30 lines; Bob rewrites lines 11-20, so Alice's commit
    owns two separate groups of lines (A-B-A)."""
    lines = [f"line {i} original" for i in range(1, 31)]
    builder = RepoBuilder(path)
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "add data", ALICE)
    lines[10:20] = [f"line {i} rewritten" for i in range(11, 21)]
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "rewrite middle", BOB)
    return builder


def carriage_return_repo(path: Path) -> RepoBuilder:
    """Alice writes three lines; the first holds a lone CR followed by a tab,
    and git breaks lines at LF only. Bob appends a fourth line."""
    builder = RepoBuilder(path)
    builder.commit_file("data.txt", "one\r\thalf\ntwo\nthree\n", "add data", ALICE)
    builder.commit_file("data.txt", "one\r\thalf\ntwo\nthree\nfour\n", "append", BOB)
    return builder


def gitlink_repo(path: Path) -> RepoBuilder:
    """One source file, a symlink to it, and a submodule entry (a gitlink,
    mode 160000) with no .gitmodules behind it."""
    builder = RepoBuilder(path)
    builder.commit_file("src/app.py", "app = 1\n", "add app", ALICE)
    (builder.path / "src" / "link.py").symlink_to("app.py")
    builder.git("add", "--", "src/link.py")
    builder.git(
        "update-index", "--add", "--cacheinfo", f"160000,{builder.head()},vendor_sub"
    )
    builder.git("commit", "-q", "-m", "add link and submodule", user=ALICE)
    return builder


def shallow_clone(source: RepoBuilder, dest: Path) -> Path:
    """A ``--depth 1`` clone of ``source``: only its newest commit."""
    subprocess.run(
        ["git", "clone", "-q", "--depth", "1", f"file://{source.path}", str(dest)],
        env={**os.environ, "GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"},
        capture_output=True,
        check=True,
    )
    return dest
