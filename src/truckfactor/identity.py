"""Collapse raw Git users into canonical developers.

The same person routinely commits under several (name, email) pairs: work
and personal addresses, "J. Smith" vs "John Smith", dots instead of spaces.
Counting those as distinct developers splits their contribution and inflates
every downstream statistic, so before any scoring happens the raw users are
partitioned into developers.

:func:`resolve_aliases` does this in one pass over the users in sorted
order, with one table from keys to the first user seen under each key. A
user's keys are its folded name, its folded email when that is non-empty,
and the label an override rule gives it; under each key the user joins the
table's first user. Close names then join the first users of their two name
keys. The joins form a union-find, so the merge is transitive: A~B and B~C
puts all three together even if A and C look nothing alike.

Close names are folded names at Levenshtein distance one. They come from a
FastSS deletion index (Bocek, Hunt and Stiller, 2007) instead of pairwise
comparison, so the cost grows with the total length of the names, not with
the square of their number.

Automatic distance-one merging is heuristic and occasionally wrong ("Sara"
and "Sarah" may be two people), so callers can suspend it and inspect the
would-be merges via :func:`name_merge_candidates`, or pin decisions with an
override file (see :func:`load_alias_overrides`).
"""

from __future__ import annotations

import unicodedata
from collections import defaultdict
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .filters import entries
from .report import AliasCandidate


class RawUser(NamedTuple):
    """One (name, email) pair exactly as it appears in the commit metadata."""

    name: str
    email: str


class DeveloperId(NamedTuple):
    """A canonical developer covering one or more raw users."""

    canonical_name: str
    members: frozenset[RawUser]

    def __str__(self) -> str:
        return self.canonical_name


def fold_name(name: str) -> str:
    """Normalize a name for comparison: NFC, trimmed, casefolded."""
    return unicodedata.normalize("NFC", name).strip().casefold()


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


def _canonical_name(
    members: frozenset[RawUser],
    counts: Mapping[RawUser, int],
    forced: Mapping[RawUser, str],
) -> str:
    overridden = [forced[m] for m in members if m in forced]
    if overridden:
        return min(overridden)
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
      folded emails or names, values the canonical name to use; a user's
      email rule wins over its name rule).

    Each developer is labeled with the name of its member with the most
    commits (per ``commit_counts``; ties broken by the lexicographically
    smallest name), unless an override dictates the label.
    """
    users = sorted(set(users))
    if not users:
        raise ValueError("at least one user is required")
    counts = commit_counts or {}
    overrides = overrides or {}
    parent = {user: user for user in users}

    def find(user: RawUser) -> RawUser:
        while parent[user] != user:
            parent[user] = user = parent[parent[user]]
        return user

    def union(a: RawUser, b: RawUser) -> None:
        parent[find(b)] = find(a)

    # The first (smallest) user seen under each key; every later user with
    # that key joins it.
    first: dict[tuple[str, str], RawUser] = {}
    forced: dict[RawUser, str] = {}
    for user in users:
        name, email = fold_name(user.name), fold_name(user.email)
        keys = [("name", name)]
        target = overrides.get(name)
        if email:
            keys.append(("email", email))
            target = overrides.get(email, target)
        if target is not None:
            forced[user] = target
            keys.append(("forced", target))
        for key in keys:
            union(first.setdefault(key, user), user)
    if merge_similar_names:
        names = [name for kind, name in first if kind == "name"]
        for a, b in _close_name_pairs(names):
            union(first["name", a], first["name", b])

    groups: dict[RawUser, list[RawUser]] = defaultdict(list)
    for user in users:
        groups[find(user)].append(user)
    mapping: dict[RawUser, DeveloperId] = {}
    for members in map(frozenset, groups.values()):
        developer = DeveloperId(_canonical_name(members, counts, forced), members)
        mapping.update(dict.fromkeys(members, developer))
    return mapping


def name_merge_candidates(users: Iterable[RawUser]) -> list[AliasCandidate]:
    """The distance-one name pairs that automatic resolution would merge,
    as the report lists them.

    Each pair names one representative user per folded name, the smallest,
    so reviewers can judge the merges that :func:`resolve_aliases` applies
    by default.
    """
    first: dict[str, RawUser] = {}
    for user in sorted(set(users)):
        first.setdefault(fold_name(user.name), user)
    return [AliasCandidate(*first[a], *first[b]) for a, b in _close_name_pairs(first)]


def load_alias_overrides(path: str | Path) -> dict[str, str]:
    """Parse an override file mapping users to canonical names.

    One ``<email-or-name> => <canonical name>`` rule per line, in the
    format of :func:`truckfactor.filters.load_path_file`. Keys are matched
    case-insensitively against both emails and names. A key in angle
    brackets, as ``git shortlog -e`` prints an email, loses them: ``<a@x>``
    matches the email ``a@x``.
    """
    overrides: dict[str, str] = {}
    for lineno, line in entries(Path(path).read_text(encoding="utf-8-sig")):
        key, sep, target = line.partition("=>")
        key, target = key.strip(), target.strip()
        if key[:1] == "<" and key[-1:] == ">":
            key = key[1:-1].strip()
        if not sep or not key or not target:
            raise ValueError(
                f"{path}:{lineno}: expected '<email-or-name> => <canonical name>', got {line!r}"
            )
        overrides[fold_name(key)] = target
    return overrides
