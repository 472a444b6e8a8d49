"""Per-file authorship scoring.

Each file's change trace is folded into per-developer counts — FA (did this
developer create the file), DL (their own changes), AC (changes by everyone
else) — and the counts feed a degree-of-authorship score:

    doa = 3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)

Each score is divided by the file's maximum, so the top contributor sits
at 1.0 whenever that maximum is positive. Files repeat few distinct counts,
so :func:`doa` keeps every score it computes. A developer authors a file
when the normalized score strictly exceeds ``k`` and the absolute score is
at least ``m``. The defaults for ``k`` and ``m`` are the empirically
calibrated values.

:func:`select_authors` makes that cut over all traces in one pass, file by
file, and keeps only the developers who pass. :func:`score_trace` is the
one-file view: a record per developer with every count and both scores.
Both count and score through one private helper, so they cannot disagree.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from functools import cache
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import BlameFailed, GitInvocationFailed
from .history import FileTrace, Revision, run_git
from .identity import DeveloperId, RawUser

DOA_INTERCEPT = 3.293
DOA_FIRST_AUTHORSHIP_WEIGHT = 1.098
DOA_DELIVERIES_WEIGHT = 0.164
DOA_ACCEPTANCES_WEIGHT = 0.321

# The header opening each group of lines in ``git blame --incremental``:
# commit id, original line, final line and the group's size.
_BLAME_HEADER = re.compile(r"([0-9a-f]{40,}) \d+ (\d+) (\d+)")


class AuthorshipRecord(NamedTuple):
    """One developer's standing on one file: the counts, the score and the
    score over the file's maximum."""

    developer: DeveloperId
    file: str
    fa: int
    dl: int
    ac: int
    doa_abs: float
    doa_norm: float


class AuthorFileMap(dict[DeveloperId, set[str]]):
    """Authors and the files they author; the input to the greedy estimator."""

    # Read only by perfbench/tracer.py; see ROADMAP item 3.
    def all_files(self) -> set[str]:
        return set().union(*self.values())


@cache
def doa(fa: int, dl: int, ac: int) -> float:
    """Degree-of-authorship score for one developer on one file. The weights
    are fixed, so each ``(fa, dl, ac)`` is computed once per process."""
    return (
        DOA_INTERCEPT
        + DOA_FIRST_AUTHORSHIP_WEIGHT * fa
        + DOA_DELIVERIES_WEIGHT * dl
        - DOA_ACCEPTANCES_WEIGHT * math.log(1 + ac)
    )


def _score_file(
    trace: FileTrace, alias_map: Mapping[RawUser, DeveloperId]
) -> tuple[list[tuple[DeveloperId, tuple[int, int, int], float]], float]:
    """One file's developers in the order their users first appear in
    ``trace.deliveries``, each with ``(fa, dl, ac)`` and its score, and the
    file's normalizer: its best score when positive, else 0.0."""
    deliveries: dict[DeveloperId, int] = {}
    for user, count in trace.deliveries.items():
        dev = alias_map[user]
        deliveries[dev] = deliveries.get(dev, 0) + count
    creator = alias_map[trace.creator] if trace.creator is not None else None
    total = sum(deliveries.values())
    scored = []
    top = 0.0
    for dev, dl in deliveries.items():
        key = (int(dev == creator), dl, total - dl)
        score = doa(*key)
        scored.append((dev, key, score))
        if score > top:
            top = score
    return scored, top


def score_trace(
    trace: FileTrace, alias_map: Mapping[RawUser, DeveloperId]
) -> list[AuthorshipRecord]:
    """Score one file's trace: one record per developer who changed the
    file, sorted by canonical name, with ties in the order their users first
    appear in ``trace.deliveries``.

    Every change in the trace is one delivery for its developer, and one
    acceptance for everyone else who touched the file. First authorship
    goes to the file's creator; an incomplete trace (the addition predates
    recorded history) assigns FA to nobody. Each score is normalized
    against the file's maximum; a non-positive maximum leaves nothing
    meaningful to scale against, so every normalized score is then 0.0.
    """
    scored, top = _score_file(trace, alias_map)
    scored.sort(key=lambda entry: entry[0].canonical_name)
    return [
        AuthorshipRecord(
            dev, trace.current_path, *key, score, score / top if top else 0.0
        )
        for dev, key, score in scored
    ]


def select_authors(
    traces: Iterable[FileTrace],
    alias_map: Mapping[RawUser, DeveloperId],
    k: float = 0.75,
    m: float = DOA_INTERCEPT,
) -> AuthorFileMap:
    """The author -> files map of the developers who pass both cuts, scored
    file by file as :func:`score_trace` scores them, without its records.

    A developer authors a file when doa_norm > k (strict) and doa_abs >= m
    (inclusive); the floor ``m`` keeps near-zero-signal files from gaining
    authors. A file whose best score is not positive normalizes every score
    to 0.0, so with ``k`` not negative it gets no authors at all. Within a
    file, passing developers are added in :func:`score_trace`'s order, so
    the map's keys come in the order its records would give them.
    """
    authors = AuthorFileMap()
    for trace in traces:
        scored, top = _score_file(trace, alias_map)
        passing = [
            dev
            for dev, _, score in scored
            if (score / top if top else 0.0) > k and score >= m
        ]
        if len(passing) > 1:
            passing.sort(key=attrgetter("canonical_name"))
        for dev in passing:
            authors.setdefault(dev, set()).add(trace.current_path)
    return authors


def blame_rank(
    revision: Revision,
    file: str,
    alias_map: Mapping[RawUser, DeveloperId],
    *,
    env: Mapping[str, str] | None = None,
) -> list[tuple[DeveloperId, int]]:
    """Developers ranked by how many of ``file``'s lines they last touched
    at ``revision``.

    ``file`` is relative to the repository root. ``env``, when given, is
    git's whole environment.

    This is the independent signal used to sanity-check the change-based
    scores: surviving lines per developer, from ``git blame --incremental``,
    which prints no file content. Each group header carries the group's
    size, but only a commit's first group names its author. So the groups
    are kept, and mapped to developers in the file's line order at the end.
    Users that blame surfaces but the alias map has never seen (possible:
    blame can reach commits that merge suppression hid) become singleton
    developers. Raises :class:`BlameFailed` when git cannot blame the file
    or its output counts lines for a commit it never names an author for.
    """
    # A blame.ignoreRevsFile in the user's config would hand lines to other
    # commits, or fail every blame when the file is missing; no -c value
    # clears it, only --no-ignore-revs-file does.
    args = ["blame", "--incremental", "--no-ignore-revs-file", revision.commit]
    try:
        out = run_git(revision.git_dir, [*args, "--", file], env=env)
    except GitInvocationFailed as exc:
        raise BlameFailed(f"blame failed for {file}: {exc.stderr or exc}") from exc
    groups: list[tuple[int, str, int]] = []  # (first line, commit id, size)
    authors: dict[str, RawUser] = {}
    commit = name = ""
    for line in out.split("\n"):
        if header := _BLAME_HEADER.fullmatch(line):
            commit = header[1]
            groups.append((int(header[2]), commit, int(header[3])))
        elif line.startswith("author "):
            name = line[len("author ") :]
        elif line.startswith("author-mail "):
            email = line[len("author-mail ") :].strip().strip("<>")
            authors[commit] = RawUser(name, email)
    missing = {commit for _, commit, _ in groups} - authors.keys()
    if missing:
        raise BlameFailed(f"blame of {file} names no author for {min(missing)!r}")
    counts: dict[DeveloperId, int] = defaultdict(int)
    for _, commit, size in sorted(groups):  # ties below keep the line order
        user = authors[commit]
        developer = alias_map.get(user) or DeveloperId(user.name, frozenset({user}))
        counts[developer] += size
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].canonical_name))

