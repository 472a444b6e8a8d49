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
from typing import AbstractSet, Iterable, Mapping

from .identity import DeveloperId
from .report import RemovedAuthor


@dataclass
class TruckFactorResult:
    """The greedy removal order, as the report lists it; the truck factor is
    its length."""

    removed: list[RemovedAuthor]
    initial_coverage: float
    file_universe_size: int


def truck_factor(
    author_map: Mapping[DeveloperId, AbstractSet[str]],
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
    holders = Counter(f for authored in author_map.values() for f in authored)
    # The authored files are the counter's keys; a count that falls to zero
    # keeps its key.
    files = frozenset(universe) if universe is not None else holders.keys()
    if not files:
        return TruckFactorResult([], 0.0, 0)
    covered = len(files & holders.keys())
    initial = covered / len(files)
    order = sorted(
        author_map.items(),
        key=lambda entry: (-len(entry[1]), entry[0].canonical_name),
    )
    removed: list[RemovedAuthor] = []
    for departing, authored in order:
        if covered / len(files) < threshold:
            break
        for f in authored:
            holders[f] -= 1
            if not holders[f] and f in files:
                covered -= 1
        removed.append(
            RemovedAuthor(departing.canonical_name, len(authored), covered / len(files))
        )
    return TruckFactorResult(removed, initial, len(files))
