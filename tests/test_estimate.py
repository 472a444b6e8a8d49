import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from truckfactor.authorship import AuthorFileMap
from truckfactor.estimate import truck_factor
from truckfactor.identity import DeveloperId, RawUser


def dev(name):
    return DeveloperId(name, frozenset({RawUser(name, f"{name}@example.com")}))


def make_map(entries):
    return AuthorFileMap({dev(name): set(files) for name, files in entries.items()})


def naive_truck_factor(entries, threshold=0.5, universe=None):
    """Straight transcription of the greedy procedure, kept deliberately
    dumb: recompute everything each round, remove the author with the most
    files (ties by name), stop when coverage drops below the threshold."""
    authors = {name: set(files) for name, files in entries.items()}
    if universe is None:
        universe = set()
        for files in authors.values():
            universe |= files
    tf = 0
    while authors:
        if not universe:
            break
        covered = set()
        for files in authors.values():
            covered |= files
        if len(covered & universe) / len(universe) < threshold:
            break
        top = min(authors, key=lambda name: (-len(authors[name]), name))
        del authors[top]
        tf += 1
    return tf


# --- initial coverage ------------------------------------------------------


def test_coverage_counts_covered_fraction():
    author_map = make_map({"a": {"f1", "f2"}, "b": {"f3"}})
    result = truck_factor(author_map, universe={"f1", "f2", "f3", "f4"})
    assert result.initial_coverage == 0.75


def test_coverage_of_empty_map_is_zero():
    result = truck_factor(AuthorFileMap({}), universe={"f1"})
    assert result.initial_coverage == 0.0
    assert result.tf == 0


def test_coverage_counts_shared_files_once():
    author_map = make_map({"a": {"f1"}, "b": {"f1"}})
    assert truck_factor(author_map, universe={"f1", "f2"}).initial_coverage == 0.5


def test_coverage_ignores_files_outside_the_universe():
    author_map = make_map({"a": {"elsewhere"}})
    assert truck_factor(author_map, universe={"f1"}).initial_coverage == 0.0


# --- truck_factor ----------------------------------------------------------------


def test_truck_factor_two_overlapping_authors():
    result = truck_factor(make_map({"alice": {"f1", "f2", "f3"}, "bob": {"f3", "f4"}}))
    assert result.tf == 2
    assert [(s.developer.canonical_name, s.files_authored, s.coverage_after) for s in result.removed] == [
        ("alice", 3, 0.5),
        ("bob", 2, 0.0),
    ]
    assert result.initial_coverage == 1.0
    assert result.file_universe_size == 4


def test_truck_factor_dominant_author_falls_fast():
    entries = {"a": {f"f{i}" for i in range(6)}, "b": {"f6", "f7"}, "c": {"f8"}}
    result = truck_factor(make_map(entries))
    assert result.tf == 1
    assert result.removed[0].developer.canonical_name == "a"
    assert result.removed[0].coverage_after == pytest.approx(3 / 9)


def test_truck_factor_removes_the_smallest_name_among_equal_counts():
    author_map = make_map({"bob": {"f1", "f2"}, "alice": {"f3", "f4"}, "carl": {"f5"}})
    result = truck_factor(author_map, threshold=0.1)
    assert [s.developer.canonical_name for s in result.removed] == ["alice", "bob", "carl"]


def test_truck_factor_disjoint_single_files():
    entries = {name: {f"f_{name}"} for name in ["a", "b", "c", "d"]}
    result = truck_factor(make_map(entries))
    assert result.tf == 3
    assert [s.developer.canonical_name for s in result.removed] == ["a", "b", "c"]
    assert [s.coverage_after for s in result.removed] == [0.75, 0.5, 0.25]


def test_truck_factor_empty_map():
    result = truck_factor(AuthorFileMap({}))
    assert result.tf == 0
    assert result.removed == []
    assert result.initial_coverage == 0.0
    assert result.file_universe_size == 0


def test_truck_factor_with_explicit_universe():
    author_map = make_map({"a": {"f1"}})
    at_the_edge = truck_factor(author_map, universe={"f1", "f2"})
    assert at_the_edge.initial_coverage == 0.5
    assert at_the_edge.tf == 1  # 0.5 is not below the threshold
    below = truck_factor(author_map, universe={"f1", "f2", "f3"})
    assert below.initial_coverage == pytest.approx(1 / 3)
    assert below.tf == 0
    assert below.file_universe_size == 3


def test_truck_factor_respects_custom_threshold():
    entries = {name: {f"f_{name}"} for name in ["a", "b", "c", "d"]}
    result = truck_factor(make_map(entries), threshold=0.9)
    assert result.tf == 1  # after one removal coverage is 0.75 < 0.9


def test_truck_factor_does_not_mutate_its_input():
    author_map = make_map({"a": {"f1", "f2"}, "b": {"f2"}})
    truck_factor(author_map)
    assert author_map.entries[dev("a")] == {"f1", "f2"}
    assert author_map.entries[dev("b")] == {"f2"}


def _random_entries(rng, max_authors=6, max_files=8):
    files = [f"f{i}" for i in range(max_files)]
    return {
        f"dev{i}": set(rng.sample(files, rng.randint(1, max_files)))
        for i in range(rng.randint(1, max_authors))
    }


def test_truck_factor_matches_naive_simulation_on_random_maps():
    rng = random.Random(1234)
    for _ in range(1000):
        entries = _random_entries(rng)
        expected = naive_truck_factor(entries)
        result = truck_factor(make_map(entries))
        assert result.tf == expected, entries


def test_truck_factor_matches_naive_simulation_with_explicit_universe():
    rng = random.Random(4321)
    for _ in range(1000):
        entries = _random_entries(rng)
        # Files f8 and up are never authored; some authored files fall outside.
        universe = set(rng.sample([f"f{i}" for i in range(12)], rng.randint(1, 12)))
        expected = naive_truck_factor(entries, universe=universe)
        result = truck_factor(make_map(entries), universe=universe)
        assert result.tf == expected, (entries, universe)


@given(st.dictionaries(
    st.sampled_from([f"dev{i}" for i in range(6)]),
    st.sets(st.sampled_from([f"f{i}" for i in range(8)]), min_size=1),
    min_size=1,
    max_size=6,
))
def test_truck_factor_removal_is_greedy_prefix(entries):
    result = truck_factor(make_map(entries))
    assert result.tf <= len(entries)
    universe = set()
    for files in entries.values():
        universe |= files

    def covered_fraction(authors):
        covered = set()
        for files in authors.values():
            covered |= files
        return len(covered & universe) / len(universe)

    # Replay: coverage held before each removal, and each removed author
    # had the largest remaining author set.
    remaining = {name: set(files) for name, files in entries.items()}
    for step in result.removed:
        assert covered_fraction(remaining) >= 0.5
        biggest = max(len(files) for files in remaining.values())
        assert step.files_authored == biggest
        assert len(remaining[step.developer.canonical_name]) == biggest
        del remaining[step.developer.canonical_name]
    # And the stop was honest: either everyone was removed, or coverage fell.
    if remaining:
        assert covered_fraction(remaining) < 0.5
