"""Builders for the small throwaway Git repositories used across the tests.

Commit timestamps increase deterministically, each commit sets its author
and committer, and ``conftest.py`` keeps the user's and the system's git
config away from the session, so every fixture repository is reproducible
run to run.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

from truckfactor.history import ChangeKind
from truckfactor.identity import RawUser

_EPOCH = 1577836800  # 2020-01-01T00:00:00Z

ALICE = ("Alice", "alice@example.com")
BOB = ("Bob", "bob@example.com")
CAROL = ("Carol", "carol@example.com")
DAVE = ("Dave", "dave@example.com")
EVE = ("Eve", "eve@example.com")
FRANK = ("Frank", "frank@example.com")
ZOE = ("Zo\u00eb", "zoe@example.com")
LATIN1_AUTHOR = ("Jos\udce9", "jose@example.com")  # the name's bytes: b"Jos\xe9"
LATIN1_FILES = ("caf\udce9.py", "caf\udcef.py", "main.py", "util.py")


class RepoBuilder:
    """Scripts a Git repository through the real git CLI."""

    def __init__(self, path: Path, object_format: str = "sha1"):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._ticks = 0
        self.git("init", "-q", "-b", "main", f"--object-format={object_format}", ".")

    def git(
        self,
        *args: str,
        user: tuple[str, str] = ("Fixture", "fixture@example.com"),
        input: bytes | None = None,
    ) -> str:
        self._ticks += 1
        stamp = f"{_EPOCH + self._ticks} +0000"
        name, email = user
        env = {
            **os.environ,
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
            input=input,
            capture_output=True,
            check=True,
        )
        return proc.stdout.decode("utf-8", "surrogateescape")

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


def single_author_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Three source files, all by Alice."""
    builder = RepoBuilder(path, object_format)
    for i in (1, 2, 3):
        builder.commit_file(f"src/f{i}.py", f"print({i})\n", f"add f{i}", ALICE)
    return builder


def two_author_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Alice creates f1-f3, Bob grows f3 and adds f4.

    The scores land so that f3 has both as authors: Alice keeps first
    authorship, Bob's three changes put his normalized score at ~0.87.
    The expected author map is Alice -> {f1, f2, f3}, Bob -> {f3, f4}.
    """
    builder = RepoBuilder(path, object_format)
    builder.commit_file("f1.py", "one\n", "add f1", ALICE)
    builder.commit_file("f2.py", "two\n", "add f2", ALICE)
    builder.commit_file("f3.py", "three\n", "add f3", ALICE)
    for i in range(1, 4):
        builder.commit_file("f3.py", "three\n" + "more\n" * i, f"extend f3 #{i}", BOB)
    builder.commit_file("f4.py", "four\n", "add f4", BOB)
    return builder


def rename_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Carol adds a file, Dave renames it."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("src/original.py", "def f():\n    return 1\n", "add original", CAROL)
    builder.move("src/original.py", "src/renamed.py", "rename original", DAVE)
    return builder


def vendored_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """One real source file next to vendored and documentation material."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("src/app.py", "app = 1\n", "add app", EVE)
    builder.commit_file("vendor/lib.js", "lib\n", "vendor a library", EVE)
    builder.commit_file("node_modules/pkg/index.js", "pkg\n", "commit node_modules", EVE)
    builder.commit_file("docs/guide.md", "# guide\n", "add docs", EVE)
    return builder


def bulk_import_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Ten files landing in a single commit, then one small tweak."""
    builder = RepoBuilder(path, object_format)
    for i in range(10):
        builder.write(f"mod{i}.py", f"value = {i}\n")
    builder.commit_all("import everything", FRANK)
    builder.commit_file("mod0.py", "value = 100\n", "tweak mod0", FRANK)
    return builder


def merge_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """A feature branch merged back with --no-ff: three real commits plus
    one merge commit."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("a.txt", "a1\n", "add a", ALICE)
    builder.git("checkout", "-q", "-b", "feature")
    builder.commit_file("b.txt", "b1\n", "add b", BOB)
    builder.git("checkout", "-q", "main")
    builder.commit_file("a.txt", "a1\na2\n", "edit a", ALICE)
    builder.git("merge", "-q", "--no-ff", "-m", "merge feature", "feature", user=ALICE)
    return builder


def blame_overwrite_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Alice writes 40 lines; Bob rewrites the first 10."""
    lines = [f"line {i} original" for i in range(1, 41)]
    builder = RepoBuilder(path, object_format)
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "add data", ALICE)
    lines[:10] = [f"line {i} rewritten" for i in range(1, 11)]
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "rewrite head", BOB)
    return builder


def aliased_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """The same person committing as Bob.Rob (twice) and Bob Rob (once)."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("x.py", "x = 1\n", "one", ("Bob.Rob", "bob@work.example"))
    builder.commit_file("y.py", "y = 2\n", "two", ("Bob Rob", "bob@home.example"))
    builder.commit_file("x.py", "x = 1\nx = 2\n", "three", ("Bob.Rob", "bob@work.example"))
    return builder


def branched_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """main holds one file; a dev branch adds a second."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("m.txt", "m\n", "add m", ALICE)
    builder.git("checkout", "-q", "-b", "dev")
    builder.commit_file("d.txt", "d\n", "add d", ALICE)
    builder.git("checkout", "-q", "main")
    return builder


def interleaved_blame_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Alice writes 30 lines; Bob rewrites lines 11-20, so Alice's commit
    owns two separate groups of lines (A-B-A)."""
    lines = [f"line {i} original" for i in range(1, 31)]
    builder = RepoBuilder(path, object_format)
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "add data", ALICE)
    lines[10:20] = [f"line {i} rewritten" for i in range(11, 21)]
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "rewrite middle", BOB)
    return builder


def commit_graph_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """two_author_repo after Carol moves f3 into lib/, with a commit-graph
    of its own, written without changed-path Bloom filters."""
    builder = two_author_repo(path, object_format)
    (builder.path / "lib").mkdir()
    builder.move("f3.py", "lib/f3.py", "move f3", CAROL)
    builder.git("commit-graph", "write", "--reachable", "--no-progress")
    return builder


def carriage_return_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """Alice writes three lines; the first holds a lone CR followed by a tab,
    and git breaks lines at LF only. Bob appends a fourth line."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("data.txt", "one\r\thalf\ntwo\nthree\n", "add data", ALICE)
    builder.commit_file("data.txt", "one\r\thalf\ntwo\nthree\nfour\n", "append", BOB)
    return builder


def gitlink_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """One source file, a symlink to it, and a submodule entry (a gitlink,
    mode 160000) with no .gitmodules behind it."""
    builder = RepoBuilder(path, object_format)
    builder.commit_file("src/app.py", "app = 1\n", "add app", ALICE)
    (builder.path / "src" / "link.py").symlink_to("app.py")
    builder.git("add", "--", "src/link.py")
    builder.git(
        "update-index", "--add", "--cacheinfo", f"160000,{builder.head()},vendor_sub"
    )
    builder.git("commit", "-q", "-m", "add link and submodule", user=ALICE)
    return builder


def latin1_repo(path: Path, object_format: str = "sha1") -> RepoBuilder:
    """One commit by an author whose name is Latin-1, not UTF-8, adding two
    files whose names differ only in a Latin-1 byte, and two ASCII ones.
    Lone surrogates stand for those bytes, as ``surrogateescape`` decodes
    them. The commit object is written by hand, because ``git commit``
    would re-encode the name as UTF-8."""
    builder = RepoBuilder(path, object_format)
    for i, name in enumerate(LATIN1_FILES):
        builder.write(name, f"value = {i}\n")
    builder.git("add", "-A", ".")
    tree = builder.git("write-tree").strip()
    name, email = LATIN1_AUTHOR
    ident = os.fsencode(f"{name} <{email}> {_EPOCH} +0000")
    commit = b"tree %s\nauthor %s\ncommitter %s\n\nadd files\n" % (
        tree.encode(),
        ident,
        ident,
    )
    oid = builder.git("hash-object", "-t", "commit", "-w", "--stdin", input=commit)
    builder.git("update-ref", "HEAD", oid.strip())
    return builder


def config_sensitive_repo(path: Path) -> RepoBuilder:
    """Two commits whose report a user's git config could change: Zoë, a
    name that is not ASCII, adds a.py in the root commit, then Alice adds
    b.py in a signed commit. The SSH signature is a dummy: git asked to
    show it prints a verdict without running any program, since no
    allowed-signers file is configured. The commit object is written by
    hand, because ``git commit`` would need a real key."""
    builder = RepoBuilder(path)
    builder.commit_file("a.py", "print('a')\n", "add a", ZOE)
    builder.write("b.py", "print('b')\n")
    builder.git("add", "b.py")
    tree = builder.git("write-tree").strip()
    parent = builder.git("rev-parse", "HEAD").strip()
    ident = f"{ALICE[0]} <{ALICE[1]}> {_EPOCH + 100} +0000"
    commit = (
        f"tree {tree}\nparent {parent}\nauthor {ident}\ncommitter {ident}\n"
        "gpgsig -----BEGIN SSH SIGNATURE-----\n U1NIU0lH\n -----END SSH SIGNATURE-----\n"
        "\nadd b\n"
    )
    oid = builder.git("hash-object", "-t", "commit", "-w", "--stdin", input=commit.encode())
    builder.git("update-ref", "HEAD", oid.strip())
    return builder


def shallow_clone(source: RepoBuilder, dest: Path) -> Path:
    """A ``--depth 1`` clone of ``source``: only its newest commit."""
    subprocess.run(
        ["git", "clone", "-q", "--depth", "1", f"file://{source.path}", str(dest)],
        capture_output=True,
        check=True,
    )
    return dest


def blobless_clone(source: RepoBuilder, dest: Path) -> Path:
    """A bare ``--filter=blob:none`` clone of ``source``: every commit and
    tree, no file content. ``source`` is its promisor remote."""
    source.git("config", "uploadpack.allowFilter", "true")
    subprocess.run(
        ["git", "clone", "-q", "--bare", "--filter=blob:none", f"file://{source.path}", str(dest)],
        capture_output=True,
        check=True,
    )
    return dest


# --- planned histories, written with git fast-import -------------------------

# File names that a line-based or quoted reading of git's output can mangle.
# "caf\udce9.py" stands for the lone byte 0xE9, which is not UTF-8.
ODD_NAMES = (
    "tab\there.py",
    "new\nline.py",
    'quote".py',
    "back\\slash.py",
    " leading space.py",
    "caf\udce9.py",
    "line\u2028sep.py",
    "0123456789abcdef0123456789abcdef01234567",
    "R100",
    "dir/plain.py",
)
ODD_AUTHORS = (
    RawUser("Ann\u2028Lee", "ann@example.com"),
    RawUser(*LATIN1_AUTHOR),
    RawUser("Bo", "bo@example.com"),
)


def planned_commits(authors: int):
    """A hypothesis strategy for histories: each commit is an author index
    below ``authors`` and operations (op, file index, name index) applied to
    the files present before it."""
    from hypothesis import strategies as st

    return st.lists(
        st.tuples(
            st.integers(0, authors - 1),
            st.lists(
                st.tuples(
                    st.sampled_from(("add", "modify", "rename", "delete")),
                    st.integers(0, 9),
                    st.integers(0, len(ODD_NAMES) - 1),
                ),
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=6,
    )


def _quoted(path: str) -> bytes:
    """``path`` in fast-import's C-style quoting, every byte kept."""
    out = bytearray(b'"')
    for byte in os.fsencode(path):
        if byte in b'"\\':
            out += b"\\" + bytes([byte])
        elif 0x20 <= byte < 0x7F:
            out.append(byte)
        else:
            out += b"\\%03o" % byte
    return bytes(out + b'"')


def import_plan(
    repo: Path,
    commits,
    authors: tuple[RawUser, ...] = ODD_AUTHORS,
    object_format: str = "sha1",
) -> tuple[list[tuple[RawUser, list[tuple]]], dict[str, int]]:
    """Write ``commits`` into a new bare repository with ``git fast-import``.

    Returns each commit's author and planned events, as (author, kind,
    path, old_path, identity), and the paths present at the end mapped to
    their identities. Deletions are not events. A file keeps its identity
    through renames; a file added at a path gets a new one, even where an
    earlier file was deleted or moved away. Every file gets lines no other
    file has, so git pairs a rename only with its own source.
    """
    present: dict[str, int] = {}  # path -> id of the file's content
    edits: dict[int, int] = {}
    stream = bytearray()
    planned = []
    for tick, (who, operations) in enumerate(commits):
        author = authors[who]
        ident = b"%s <%s> %d +0000" % (
            os.fsencode(author.name), os.fsencode(author.email), _EPOCH + tick
        )
        stream += b"commit refs/heads/main\nauthor %s\ncommitter %s\ndata 2\nc\n" % (
            ident,
            ident,
        )
        touched: set[str] = set()
        changes = []
        for op, pick, name_index in operations:
            name = ODD_NAMES[name_index]
            existing = sorted(path for path in present if path not in touched)
            if op == "add" and name not in present and name not in touched:
                present[name] = len(edits)
                edits[present[name]] = 0
            elif op == "modify" and existing:
                name = existing[pick % len(existing)]
                edits[present[name]] += 1
            elif op == "rename" and existing and name not in present.keys() | touched:
                old = existing[pick % len(existing)]
                present[name] = present.pop(old)
                touched.update((old, name))
                stream += b"R %s %s\n" % (_quoted(old), _quoted(name))
                changes.append((author, ChangeKind.RENAME, name, old, present[name]))
                continue
            elif op == "delete" and existing:
                name = existing[pick % len(existing)]
                del present[name]
                touched.add(name)
                stream += b"D %s\n" % _quoted(name)
                continue
            else:
                continue
            touched.add(name)
            uid = present[name]
            content = "".join(f"file {uid} edit {n}\n" for n in range(edits[uid] + 1))
            stream += b"M 100644 inline %s\ndata %d\n%s\n" % (
                _quoted(name),
                len(content),
                content.encode(),
            )
            kind = ChangeKind.ADDITION if edits[uid] == 0 else ChangeKind.MODIFICATION
            changes.append((author, kind, name, None, uid))
        planned.append((author, changes))
    init = ["git", "init", "-q", "--bare", "-b", "main", f"--object-format={object_format}"]
    for command, data in (
        ([*init, str(repo)], None),
        (["git", "-C", str(repo), "fast-import", "--quiet"], bytes(stream)),
    ):
        subprocess.run(command, input=data, capture_output=True, check=True)
    return planned, present


def commit_ids(repo: Path) -> list[str]:
    """The repository's commit ids, oldest first."""
    return subprocess.run(
        ["git", "-C", str(repo), "rev-list", "--reverse", "HEAD"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
