import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import dev, naive_truck_factor
from truckfactor.estimate import truck_factor


# --- initial coverage ------------------------------------------------------


def test_coverage_counts_covered_fraction():
    author_map = {dev("a"): {"f1", "f2"}, dev("b"): {"f3"}}
    result = truck_factor(author_map, universe={"f1", "f2", "f3", "f4"})
    assert result.initial_coverage == 0.75


def test_coverage_of_empty_map_is_zero():
    result = truck_factor({}, universe={"f1"})
    assert result.initial_coverage == 0.0
    assert len(result.removed) == 0


def test_coverage_counts_shared_files_once():
    author_map = {dev("a"): {"f1"}, dev("b"): {"f1"}}
    assert truck_factor(author_map, universe={"f1", "f2"}).initial_coverage == 0.5


def test_coverage_ignores_files_outside_the_universe():
    author_map = {dev("a"): {"elsewhere"}}
    assert truck_factor(author_map, universe={"f1"}).initial_coverage == 0.0


# --- truck_factor ----------------------------------------------------------------


def test_truck_factor_two_overlapping_authors():
    result = truck_factor({dev("alice"): {"f1", "f2", "f3"}, dev("bob"): {"f3", "f4"}})
    assert len(result.removed) == 2
    assert [(s.developer, s.authored_files, s.coverage_after) for s in result.removed] == [
        ("alice", 3, 0.5),
        ("bob", 2, 0.0),
    ]
    assert result.initial_coverage == 1.0
    assert result.file_universe_size == 4


def test_truck_factor_dominant_author_falls_fast():
    author_map = {
        dev("a"): {f"f{i}" for i in range(6)},
        dev("b"): {"f6", "f7"},
        dev("c"): {"f8"},
    }
    result = truck_factor(author_map)
    assert len(result.removed) == 1
    assert result.removed[0].developer == "a"
    assert result.removed[0].coverage_after == pytest.approx(3 / 9)


def test_truck_factor_removes_the_smallest_name_among_equal_counts():
    author_map = {dev("bob"): {"f1", "f2"}, dev("alice"): {"f3", "f4"}, dev("carl"): {"f5"}}
    result = truck_factor(author_map, threshold=0.1)
    assert [s.developer for s in result.removed] == ["alice", "bob", "carl"]


def test_truck_factor_disjoint_single_files():
    author_map = {dev(name): {f"f_{name}"} for name in "abcd"}
    result = truck_factor(author_map)
    assert len(result.removed) == 3
    assert [s.developer for s in result.removed] == ["a", "b", "c"]
    assert [s.coverage_after for s in result.removed] == [0.75, 0.5, 0.25]


def test_truck_factor_empty_map():
    result = truck_factor({})
    assert len(result.removed) == 0
    assert result.removed == []
    assert result.initial_coverage == 0.0
    assert result.file_universe_size == 0


def test_truck_factor_with_explicit_universe():
    author_map = {dev("a"): {"f1"}}
    at_the_edge = truck_factor(author_map, universe={"f1", "f2"})
    assert at_the_edge.initial_coverage == 0.5
    assert len(at_the_edge.removed) == 1  # 0.5 is not below the threshold
    below = truck_factor(author_map, universe={"f1", "f2", "f3"})
    assert below.initial_coverage == pytest.approx(1 / 3)
    assert len(below.removed) == 0
    assert below.file_universe_size == 3


def test_truck_factor_respects_custom_threshold():
    author_map = {dev(name): {f"f_{name}"} for name in "abcd"}
    result = truck_factor(author_map, threshold=0.9)
    assert len(result.removed) == 1  # after one removal coverage is 0.75 < 0.9


def test_truck_factor_does_not_mutate_its_input():
    author_map = {dev("a"): {"f1", "f2"}, dev("b"): {"f2"}}
    truck_factor(author_map)
    assert author_map == {dev("a"): {"f1", "f2"}, dev("b"): {"f2"}}


def _random_map(rng, max_authors=6, max_files=8):
    files = [f"f{i}" for i in range(max_files)]
    return {
        dev(f"dev{i}"): set(rng.sample(files, rng.randint(1, max_files)))
        for i in range(rng.randint(1, max_authors))
    }


def test_truck_factor_matches_naive_simulation_on_random_maps():
    rng = random.Random(1234)
    for _ in range(1000):
        author_map = _random_map(rng)
        expected = naive_truck_factor(author_map)
        result = truck_factor(author_map)
        assert len(result.removed) == expected, author_map


def test_truck_factor_matches_naive_simulation_with_explicit_universe():
    rng = random.Random(4321)
    for _ in range(1000):
        author_map = _random_map(rng)
        # Files f8 and up are never authored; some authored files fall outside.
        universe = set(rng.sample([f"f{i}" for i in range(12)], rng.randint(1, 12)))
        expected = naive_truck_factor(author_map, universe=universe)
        result = truck_factor(author_map, universe=universe)
        assert len(result.removed) == expected, (author_map, universe)


@given(st.dictionaries(
    st.sampled_from([dev(f"dev{i}") for i in range(6)]),
    st.sets(st.sampled_from([f"f{i}" for i in range(8)]), min_size=1),
    min_size=1,
    max_size=6,
))
def test_truck_factor_removal_is_greedy_prefix(author_map):
    result = truck_factor(author_map)
    assert len(result.removed) <= len(author_map)
    universe = set()
    for files in author_map.values():
        universe |= files

    def covered_fraction(authors):
        covered = set()
        for files in authors.values():
            covered |= files
        return len(covered & universe) / len(universe)

    # Replay: coverage held before each removal, and each removed author
    # had the largest remaining author set.
    remaining = {d.canonical_name: set(files) for d, files in author_map.items()}
    for step in result.removed:
        assert covered_fraction(remaining) >= 0.5
        biggest = max(len(files) for files in remaining.values())
        assert step.authored_files == biggest
        assert len(remaining[step.developer]) == biggest
        del remaining[step.developer]
    # And the stop was honest: either everyone was removed, or coverage fell.
    if remaining:
        assert covered_fraction(remaining) < 0.5
