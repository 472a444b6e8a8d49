"""Per-file authorship scoring.

Each file's change trace is folded into per-developer counts — FA (did this
developer create the file), DL (their own changes), AC (changes by everyone
else) — and the counts feed a degree-of-authorship score:

    doa = 3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)

:func:`score_trace` counts, scores and normalizes one file in one pass:
each score is divided by the file's maximum, so the top contributor sits at
1.0 whenever that maximum is positive. Files repeat few distinct counts, so
:func:`doa` keeps every score it computes. A developer authors a file when
the normalized score strictly exceeds ``k`` and the absolute score is at
least ``m``. The defaults for ``k`` and ``m`` are the empirically
calibrated values.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping, NamedTuple

from .errors import BlameFailed, GitInvocationFailed
from .history import FileTrace, Revision, run_git
from .identity import DeveloperId, RawUser

DOA_INTERCEPT = 3.293
DOA_FIRST_AUTHORSHIP_WEIGHT = 1.098
DOA_DELIVERIES_WEIGHT = 0.164
DOA_ACCEPTANCES_WEIGHT = 0.321

# The header opening each group of lines in ``git blame --porcelain``:
# commit id, original line, final line and, at a group's first line, its size.
_BLAME_HEADER = re.compile(r"([0-9a-f]{40,}) \d+ \d+(?: \d+)?")


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


@dataclass
class AuthorFileMap:
    """Authors and the files they author; the input to the greedy estimator."""

    entries: dict[DeveloperId, set[str]] = field(default_factory=dict)

    # Read only by perfbench/tracer.py; see ROADMAP item 3.
    def all_files(self) -> set[str]:
        out: set[str] = set()
        for files in self.entries.values():
            out |= files
        return out


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
    deliveries: dict[DeveloperId, int] = defaultdict(int)
    for user, count in trace.deliveries.items():
        deliveries[alias_map[user]] += count
    creator = alias_map[trace.creator] if trace.creator is not None else None
    total = sum(deliveries.values())
    counts = [
        (dev, (int(dev == creator), dl, total - dl))
        for dev, dl in sorted(
            deliveries.items(), key=lambda kv: kv[0].canonical_name
        )
    ]
    doas = [doa(*key) for _, key in counts]
    top = max(doas, default=0.0)
    return [
        AuthorshipRecord(
            dev,
            trace.current_path,
            *key,
            score,
            score / top if top > 0.0 else 0.0,
        )
        for (dev, key), score in zip(counts, doas)
    ]


def select_authors(
    records: Iterable[AuthorshipRecord], k: float = 0.75, m: float = DOA_INTERCEPT
) -> AuthorFileMap:
    """Collect the author -> files map of the records that pass both cuts.

    A developer authors a file when doa_norm > k (strict) and doa_abs >= m
    (inclusive); the floor ``m`` keeps near-zero-signal files from gaining
    authors. Files whose best score is not positive get no authors at all,
    because :func:`score_trace` sets their normalized scores to 0.0 and
    ``k`` is not negative.
    """
    entries: dict[DeveloperId, set[str]] = defaultdict(set)
    for record in records:
        if record.doa_norm > k and record.doa_abs >= m:
            entries[record.developer].add(record.file)
    return AuthorFileMap(dict(entries))


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
    scores: surviving lines per developer, from ``git blame --porcelain``.
    That format names a commit's author only at the first group of lines
    the commit owns; every later group repeats just the commit id. So the
    content lines (those starting with a tab) are counted per commit id,
    and the commits' authors are mapped to developers at the end. Users
    that blame surfaces but the alias map has never seen (possible: blame
    can reach commits that merge suppression hid) become singleton
    developers. Raises :class:`BlameFailed` when git cannot blame the file
    or its output counts lines for a commit it never names an author for.
    """
    # A blame.ignoreRevsFile in the user's config would hand lines to other
    # commits, or fail every blame when the file is missing; no -c value
    # clears it, only --no-ignore-revs-file does.
    args = ["blame", "--porcelain", "--no-ignore-revs-file", revision.commit]
    try:
        out = run_git(revision.git_dir, [*args, "--", file], env=env)
    except GitInvocationFailed as exc:
        raise BlameFailed(f"blame failed for {file}: {exc.stderr or exc}") from exc
    lines_by_commit: dict[str, int] = defaultdict(int)
    authors: dict[str, RawUser] = {}
    commit = name = ""
    for line in out.split("\n"):
        if line.startswith("\t"):
            lines_by_commit[commit] += 1
        elif header := _BLAME_HEADER.fullmatch(line):
            commit = header[1]
        elif line.startswith("author "):
            name = line[len("author ") :]
        elif line.startswith("author-mail "):
            email = line[len("author-mail ") :].strip().strip("<>")
            authors[commit] = RawUser(name, email)
    missing = lines_by_commit.keys() - authors.keys()
    if missing:
        raise BlameFailed(f"blame of {file} names no author for {min(missing)!r}")
    counts: dict[DeveloperId, int] = defaultdict(int)
    for commit, lines in lines_by_commit.items():
        user = authors[commit]
        developer = alias_map.get(user) or DeveloperId(user.name, frozenset({user}))
        counts[developer] += lines
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].canonical_name))

