"""Reference implementations that tests compare the package against."""

import itertools
import math
import unicodedata
from collections import Counter, defaultdict


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character edits (insert, delete, substitute)
    turning ``a`` into ``b``."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # delete ca
                    current[j - 1] + 1,  # insert cb
                    previous[j - 1] + (ca != cb),  # substitute
                )
            )
        previous = current
    return previous[-1]


def fold(name: str) -> str:
    """A name or email as the identity rules compare it."""
    return unicodedata.normalize("NFC", name).strip().casefold()


def doa(fa: int, dl: int, ac: int) -> float:
    """The degree-of-authorship formula of the paper, step 4."""
    return 3.293 + 1.098 * fa + 0.164 * dl - 0.321 * math.log(1 + ac)


def _developers(counts: dict) -> dict:
    """Each user mapped to (label, members): users sharing a folded email,
    or with folded names at most one edit apart, closed transitively; the
    label is the name of the member with the most commits, ties to the
    smallest (name, email)."""
    groups = [{user} for user in counts]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            if any(
                (fold(u.email) and fold(u.email) == fold(v.email))
                or levenshtein(fold(u.name), fold(v.name)) <= 1
                for u in groups[a]
                for v in groups[b]
            ):
                groups[a] |= groups.pop(b)
                merged = True
                break
    developers = {}
    for group in groups:
        best = min(group, key=lambda u: (-counts[u], u.name, u.email))
        developer = (best.name, frozenset(group))
        developers.update((user, developer) for user in group)
    return developers


def expected_report(commits, final, k=0.75, m=3.293, universe="authored"):
    """What ``run()`` must report for a history planned by
    ``repo_fixtures.import_plan``: ``commits`` holds each commit's author
    and events oldest first, ``final`` maps each path of the snapshot to the
    identity of its file. Returns the scored records, keyed by (path,
    developer label), and the report's estimate fields.
    """
    counts = Counter(author for author, _ in commits)
    developer = _developers(counts)
    records = {}
    authored = defaultdict(set)
    for path, identity in final.items():
        events = [e for _, es in commits for e in es if e[4] == identity]
        creator = next(developer[e[0]] for e in events if e[1].value == "A")
        changes = Counter(developer[e[0]] for e in events)
        scores = {
            dev: (int(dev == creator), dl, len(events) - dl)
            for dev, dl in changes.items()
        }
        top = max(doa(*s) for s in scores.values())
        for dev, (fa, dl, ac) in scores.items():
            norm = doa(fa, dl, ac) / top if top > 0 else 0.0
            records[path, dev[0]] = (fa, dl, ac, doa(fa, dl, ac), norm)
            if norm > k and doa(fa, dl, ac) >= m:
                authored[dev].add(path)
    files = set(final) if universe == "all-files" else set().union(*authored.values())

    def coverage(remaining):
        covered = set().union(*remaining.values()) & files
        return len(covered) / len(files) if files else 0.0

    remaining = dict(authored)
    removed = []
    while files and remaining and coverage(remaining) >= 0.5:
        top_author = min(remaining, key=lambda d: (-len(remaining[d]), d[0]))
        count = len(remaining.pop(top_author))
        removed.append(
            {
                "developer": top_author[0],
                "authored_files": count,
                "coverage_after": coverage(remaining),
            }
        )
    population = set(developer.values())
    return records, {
        "truck_factor": len(removed),
        "initial_coverage": coverage(authored),
        "file_universe_size": len(files),
        "low_initial_coverage": not removed and coverage(authored) < 0.5,
        "removed": removed,
        "author_ratio": len(authored) / len(population) if population else 0.0,
        "totals": {
            "developers": len(population),
            "authors": len(authored),
            "files": len(final),
            "commits": sum(counts.values()),
        },
    }
