"""Greedy truck-factor estimation.

Starting from the author -> files map, repeatedly drop the author with the
most authored files; the truck factor is how many drops happen before the
surviving authors cover less than the threshold fraction of the files. The
greedy order is the point: it removes the most damaging developers first,
so the estimate answers "how many people, chosen adversarially, must leave
before the project is in trouble".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .authorship import AuthorFileMap
from .identity import DeveloperId


@dataclass(frozen=True)
class RemovalStep:
    """One greedy removal: who left, with how many authored files, and the
    coverage that remained afterwards."""

    developer: DeveloperId
    files_authored: int
    coverage_after: float


@dataclass
class TruckFactorResult:
    tf: int
    removed: list[RemovalStep]
    initial_coverage: float
    file_universe_size: int


def truck_factor(
    author_map: AuthorFileMap,
    threshold: float = 0.5,
    universe: Iterable[str] | None = None,
) -> TruckFactorResult:
    """Drop top authors while coverage holds at or above the threshold.

    The universe defaults to the union of all authored files; pass an
    explicit one (e.g. every analyzed file) to measure coverage against a
    larger denominator. An empty universe, or an initial coverage already
    below the threshold, yields a truck factor of zero.

    Removing an author never changes anyone else's files, so the greedy
    order is fixed up front: most files first, ties to the smallest
    canonical name. A per-file count of remaining authors tells when a file
    loses its last one.
    """
    files = frozenset(universe) if universe is not None else frozenset(
        author_map.all_files()
    )
    if not files:
        return TruckFactorResult(0, [], 0.0, 0)
    holders = Counter(f for authored in author_map.entries.values() for f in authored)
    covered = len(files & holders.keys())
    initial = covered / len(files)
    order = sorted(
        author_map.entries.items(),
        key=lambda entry: (-len(entry[1]), entry[0].canonical_name),
    )
    removed: list[RemovalStep] = []
    for departing, authored in order:
        if covered / len(files) < threshold:
            break
        for f in authored:
            holders[f] -= 1
            if not holders[f] and f in files:
                covered -= 1
        removed.append(RemovalStep(departing, len(authored), covered / len(files)))
    return TruckFactorResult(len(removed), removed, initial, len(files))
