"""Collapse raw Git users into canonical developers.

The same person routinely commits under several (name, email) pairs: work
and personal addresses, "J. Smith" vs "John Smith", dots instead of spaces.
Counting those as distinct developers splits their contribution and inflates
every downstream statistic, so before any scoring happens the raw users are
partitioned into developers. Two users land in the same developer when they
share a non-empty email address (case-insensitive) or when their normalized
names are within Levenshtein distance one of each other, and the merge is
transitive: A~B and B~C puts all three together even if A and C look nothing
alike.

Close names come from a FastSS deletion index (Bocek, Hunt and Stiller,
2007) instead of pairwise comparison, so the cost grows with the total
length of the names, not with the square of their number.

Automatic distance-one merging is heuristic and occasionally wrong ("Sara"
and "Sarah" may be two people), so callers can suspend it and inspect the
would-be merges via :func:`name_merge_candidates`, or pin decisions with an
override file (see :func:`load_alias_overrides`).
"""

from __future__ import annotations

import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping


@dataclass(frozen=True, order=True)
class RawUser:
    """One (name, email) pair exactly as it appears in the commit metadata."""

    name: str
    email: str


@dataclass(frozen=True)
class DeveloperId:
    """A canonical developer covering one or more raw users."""

    canonical_name: str
    members: frozenset[RawUser]

    def __str__(self) -> str:
        return self.canonical_name


def fold_name(name: str) -> str:
    """Normalize a name for comparison: NFC, trimmed, casefolded."""
    return unicodedata.normalize("NFC", name).strip().casefold()


class _UnionFind:
    def __init__(self, items: Iterable[RawUser]):
        self._parent = {item: item for item in items}

    def find(self, item: RawUser) -> RawUser:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: RawUser, b: RawUser) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:  # keep the smaller user as root, for determinism
                ra, rb = rb, ra
            self._parent[rb] = ra

    def groups(self) -> list[frozenset[RawUser]]:
        members: dict[RawUser, set[RawUser]] = defaultdict(set)
        for item in self._parent:
            members[self.find(item)].add(item)
        return [frozenset(group) for _, group in sorted(members.items())]


def _close_name_pairs(names: Iterable[str]) -> list[tuple[str, str]]:
    """Pairs of distinct folded names at Levenshtein distance exactly one.

    A FastSS deletion index (Bocek, Hunt and Stiller, "Fast Similarity
    Search in Large Dictionaries", 2007) finds them without comparing names.
    Each name is filed under ``(i, name minus its i-th character)``; names
    sharing a bucket differ by one substitution at ``i``. The position keeps
    the transposition "ab"/"ba", which shares the deletions "a" and "b", from
    passing for distance one. A name equal to a deletion of a longer name is
    one insertion away from it. Pairs are sorted by ``(len(a), a, len(b), b)``.
    """
    known = set(names)
    buckets: dict[tuple[int, str], list[str]] = defaultdict(list)
    pairs: set[tuple[str, str]] = set()
    for name in known:
        for i in range(len(name)):
            deleted = name[:i] + name[i + 1 :]
            buckets[i, deleted].append(name)
            if deleted in known:
                pairs.add((deleted, name))
    for bucket in buckets.values():
        pairs.update(combinations(sorted(bucket), 2))
    return sorted(pairs, key=lambda pair: (len(pair[0]), pair[0], len(pair[1]), pair[1]))


def _override_target(user: RawUser, overrides: Mapping[str, str]) -> str | None:
    email = fold_name(user.email)
    if email and email in overrides:
        return overrides[email]
    return overrides.get(fold_name(user.name))


def _canonical_name(
    members: frozenset[RawUser],
    counts: Mapping[RawUser, int],
    forced: Mapping[RawUser, str],
) -> str:
    overridden = sorted({forced[m] for m in members if m in forced})
    if overridden:
        return overridden[0]
    best = min(members, key=lambda m: (-counts.get(m, 0), m.name, m.email))
    return best.name


def resolve_aliases(
    users: Iterable[RawUser],
    commit_counts: Mapping[RawUser, int] | None = None,
    overrides: Mapping[str, str] | None = None,
    merge_similar_names: bool = True,
) -> dict[RawUser, DeveloperId]:
    """Partition raw users into developers and map each user to its developer.

    Merging rules, applied transitively:

    * identical non-empty email, compared case-insensitively (empty emails
      never group anyone);
    * identical folded names;
    * folded names at Levenshtein distance one — skipped when
      ``merge_similar_names`` is false, which is what the alias-report mode
      uses to show candidates without acting on them;
    * two users forced to the same canonical name by ``overrides`` (keys are
      folded emails or names, values the canonical name to use).

    Each developer is labeled with the name of its member with the most
    commits (per ``commit_counts``; ties broken by the lexicographically
    smallest name), unless an override dictates the label.
    """
    users = sorted(set(users))
    if not users:
        raise ValueError("at least one user is required")
    counts = dict(commit_counts) if commit_counts else {}
    uf = _UnionFind(users)

    by_email: dict[str, list[RawUser]] = defaultdict(list)
    for user in users:
        email = fold_name(user.email)
        if email:
            by_email[email].append(user)
    for group in by_email.values():
        for other in group[1:]:
            uf.union(group[0], other)

    by_name: dict[str, list[RawUser]] = defaultdict(list)
    for user in users:
        by_name[fold_name(user.name)].append(user)
    for group in by_name.values():
        for other in group[1:]:
            uf.union(group[0], other)
    if merge_similar_names:
        for name_a, name_b in _close_name_pairs(by_name):
            uf.union(by_name[name_a][0], by_name[name_b][0])

    forced: dict[RawUser, str] = {}
    if overrides:
        by_target: dict[str, list[RawUser]] = defaultdict(list)
        for user in users:
            target = _override_target(user, overrides)
            if target is not None:
                forced[user] = target
                by_target[target].append(user)
        for group in by_target.values():
            for other in group[1:]:
                uf.union(group[0], other)

    mapping: dict[RawUser, DeveloperId] = {}
    for members in uf.groups():
        developer = DeveloperId(_canonical_name(members, counts, forced), members)
        for user in members:
            mapping[user] = developer
    return mapping


def name_merge_candidates(users: Iterable[RawUser]) -> list[tuple[RawUser, RawUser]]:
    """The distance-one name pairs that automatic resolution would merge.

    Returns one representative user per folded name, so reviewers can judge
    the merges that :func:`resolve_aliases` applies by default.
    """
    users = sorted(set(users))
    by_name: dict[str, list[RawUser]] = defaultdict(list)
    for user in users:
        by_name[fold_name(user.name)].append(user)
    return [
        (by_name[a][0], by_name[b][0])
        for a, b in _close_name_pairs(by_name)
    ]


def load_alias_overrides(path: str | Path) -> dict[str, str]:
    """Parse an override file mapping users to canonical names.

    One ``<email-or-name> => <canonical name>`` rule per line; blank lines
    and ``#`` comments are ignored. Keys are matched case-insensitively
    against both emails and names.
    """
    overrides: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, target = line.partition("=>")
        key, target = key.strip(), target.strip()
        if not sep or not key or not target:
            raise ValueError(
                f"{path}:{lineno}: expected '<email-or-name> => <canonical name>', got {raw!r}"
            )
        overrides[fold_name(key)] = target
    return overrides
