import math
import os
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repo_fixtures as rf
from reference import dev
from truckfactor import authorship
from truckfactor.authorship import (
    AuthorshipRecord,
    blame_rank,
    doa,
    score_trace,
    select_authors,
)
from truckfactor.errors import BlameFailed
from truckfactor.history import (
    Commit,
    FileTrace,
    Revision,
    read_log,
    resolve_revision,
    trace_files,
)
from truckfactor.identity import DeveloperId, RawUser, resolve_aliases


def make_trace(path, *steps):
    """steps: (developer_name, kind) tuples, oldest first, one commit each;
    a rename moves the file to its path from that path plus "~". Returns
    the trace that trace_files folds from them plus the identity alias map
    for its users."""
    newest_first = []
    alias_map = {}
    at = path
    for order, (name, kind) in reversed(list(enumerate(steps))):
        user = RawUser(name, f"{name.lower()}@example.com")
        alias_map[user] = DeveloperId(name, frozenset({user}))
        old = at + "~" if kind == "R" else None
        newest_first.append(Commit(f"c{order}", user, [(kind, at, old)]))
        at = old or at
    (trace,) = trace_files(newest_first, [path])
    return trace, alias_map


# --- doa -------------------------------------------------------------------


def test_doa_baseline_is_exact():
    assert doa(0, 0, 0) == 3.293


def test_doa_first_authorship_alone():
    assert doa(1, 0, 0) == pytest.approx(4.391, abs=1e-12)


def test_doa_mixed_counts():
    assert doa(1, 10, 5) == pytest.approx(5.45585, abs=1e-5)


def test_doa_single_change_values():
    assert doa(1, 1, 0) == pytest.approx(4.555, abs=1e-12)
    assert doa(0, 1, 1) == pytest.approx(3.293 + 0.164 - 0.321 * math.log(2), abs=1e-12)


def test_doa_goes_negative_only_under_heavy_outside_change():
    assert doa(0, 0, 100) > 0
    assert doa(0, 0, 30000) < 0


counts = st.integers(min_value=0, max_value=10_000)
fa_flag = st.integers(min_value=0, max_value=1)


@given(fa_flag, counts, counts)
def test_doa_monotonic_in_own_changes(fa, dl, ac):
    assert doa(fa, dl + 1, ac) > doa(fa, dl, ac)


@given(fa_flag, counts, counts)
def test_doa_monotonic_in_others_changes(fa, dl, ac):
    assert doa(fa, dl, ac + 1) < doa(fa, dl, ac)


@given(fa_flag, counts, counts)
def test_doa_returns_the_cached_score(fa, dl, ac):
    doa.cache_clear()
    score = doa(fa, dl, ac)
    assert doa(fa, dl, ac) is score  # now read back, not computed
    assert doa.cache_info().hits == 1
    assert score == doa.__wrapped__(fa, dl, ac)


@given(counts, counts)
def test_doa_first_authorship_adds_its_weight(dl, ac):
    # Bit-exact equality is impossible in floating point once the shared
    # terms grow, but the gap stays within addition rounding error.
    assert doa(1, dl, ac) - doa(0, dl, ac) == pytest.approx(1.098, abs=1e-12)


# --- score_trace: accumulating counts ---------------------------------------


def counts(records):
    return [(r.developer, r.fa, r.dl, r.ac) for r in records]


def test_accumulate_sole_contributor():
    trace, alias_map = make_trace(
        "f.py",
        ("Ann", "A"),
        ("Ann", "M"),
        ("Ann", "M"),
    )
    assert score_trace(trace, alias_map) == [
        AuthorshipRecord(dev("Ann"), "f.py", 1, 3, 0, doa(1, 3, 0), 1.0)
    ]


def test_accumulate_splits_deliveries_and_acceptances():
    trace, alias_map = make_trace(
        "f.py",
        ("Xena", "A"),
        ("Yuri", "M"),
        ("Yuri", "M"),
    )
    assert counts(score_trace(trace, alias_map)) == [
        (dev("Xena"), 1, 1, 2),
        (dev("Yuri"), 0, 2, 1),
    ]
    # Developers who share a label keep the order of trace.deliveries.
    same_label = {user: DeveloperId("Bob", d.members) for user, d in alias_map.items()}
    assert [r.developer for r in score_trace(trace, same_label)] == [
        same_label[user] for user in trace.deliveries
    ]


def test_accumulate_counts_renames_as_changes():
    trace, alias_map = make_trace(
        "new.py",
        ("Xena", "A"),
        ("Yuri", "R"),
    )
    assert counts(score_trace(trace, alias_map)) == [
        (dev("Xena"), 1, 1, 1),
        (dev("Yuri"), 0, 1, 1),
    ]


def test_accumulate_incomplete_trace_assigns_no_first_authorship():
    trace, alias_map = make_trace(
        "f.py",
        ("Xena", "M"),
        ("Yuri", "M"),
    )
    assert [(r.fa, r.dl, r.ac) for r in score_trace(trace, alias_map)] == [
        (0, 1, 1),
        (0, 1, 1),
    ]


def test_accumulate_empty_trace():
    assert score_trace(FileTrace("f.py"), {}) == []


def test_accumulate_credits_the_addition_that_starts_the_trace():
    # A later addition at the same path starts a new file: its author
    # creates it, and the older file's changes are not part of the trace.
    trace, alias_map = make_trace(
        "f.py",
        ("Xena", "A"),
        ("Xena", "M"),
        ("Yuri", "A"),
        ("Xena", "M"),
    )
    assert counts(score_trace(trace, alias_map)) == [
        (dev("Xena"), 0, 1, 1),
        (dev("Yuri"), 1, 1, 1),
    ]


@given(
    st.lists(
        st.tuples(st.sampled_from(["A", "B", "C", "D"]), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
def test_accumulate_conserves_change_counts(steps):
    trace, alias_map = make_trace(
        "f.py",
        *[
            (name, "A" if is_add else "M")
            for name, is_add in steps
        ],
    )
    rows = counts(score_trace(trace, alias_map))
    total = sum(trace.deliveries.values())
    assert sum(dl for _, _, dl, _ in rows) == total
    assert all(dl + ac == total for _, _, dl, ac in rows)
    assert sum(fa for _, fa, _, _ in rows) <= 1


@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), st.booleans()),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_a_warm_cache_scores_like_a_cold_one(files):
    traces = [
        make_trace("f.py", *[(name, "A" if is_add else "M") for name, is_add in steps])
        for steps in files
    ]
    doa.cache_clear()
    warm = [score_trace(*trace) for trace in traces]  # warmed file by file, as a run
    for trace, scored in zip(traces, warm):
        doa.cache_clear()
        assert score_trace(*trace) == scored


# --- score_trace: normalizing, and select_authors ----------------------------


def crowded_trace(path):
    """A trace of 50,000 users with one change each. Past about 47,600 such
    users, everyone's absolute score is negative."""
    users = [RawUser(f"u{i}", f"u{i}@example.com") for i in range(50_000)]
    alias_map = {user: DeveloperId(user.name, frozenset({user})) for user in users}
    return FileTrace(path, dict.fromkeys(users, 1)), alias_map


def test_normalize_scales_against_file_maximum():
    trace, alias_map = make_trace(
        "f.py",
        ("Xena", "A"),
        ("Yuri", "M"),
        ("Yuri", "M"),
    )
    xena, yuri = score_trace(trace, alias_map)
    assert (xena.doa_abs, yuri.doa_abs) == (doa(1, 1, 2), doa(0, 2, 1))
    assert (xena.doa_norm, yuri.doa_norm) == (1.0, yuri.doa_abs / xena.doa_abs)


def test_normalize_gives_tied_top_scores_one():
    trace, alias_map = make_trace(
        "f.py",
        ("Xena", "M"),
        ("Yuri", "M"),
    )
    assert [r.doa_norm for r in score_trace(trace, alias_map)] == [1.0, 1.0]


def test_normalize_zeroes_out_non_positive_maxima():
    records = score_trace(*crowded_trace("f.py"))
    assert len(records) == 50_000
    assert {r.doa_abs for r in records} == {doa(0, 1, 49_999)}
    assert doa(0, 1, 49_999) < 0.0
    assert {r.doa_norm for r in records} == {0.0}


def test_select_authors_applies_both_thresholds():
    trace, alias_map = make_trace(
        "f3.py",
        ("Alice", "A"),
        ("Bob", "M"),
        ("Bob", "M"),
        ("Bob", "M"),
    )
    author_map = select_authors([trace], alias_map)
    assert author_map == {dev("Alice"): {"f3.py"}, dev("Bob"): {"f3.py"}}
    # Bob's normalized score (~0.87) fails a stricter k.
    strict = select_authors([trace], alias_map, k=0.99)
    assert strict == {dev("Alice"): {"f3.py"}}
    # ... and his absolute score (~3.56) fails a higher floor.
    floored = select_authors([trace], alias_map, m=3.6)
    assert floored == {dev("Alice"): {"f3.py"}}


def test_select_authors_normalized_top_still_needs_absolute_floor():
    # Two tied changes and no known creator: both score ~3.23, below m.
    trace, alias_map = make_trace(
        "f.py",
        ("Xena", "M"),
        ("Yuri", "M"),
    )
    assert [r.doa_norm for r in score_trace(trace, alias_map)] == [1.0, 1.0]
    assert select_authors([trace], alias_map) == {}
    floored = select_authors([trace], alias_map, m=3.2)
    assert floored.keys() == {dev("Xena"), dev("Yuri")}


def test_select_authors_skips_files_without_positive_scores():
    trace, alias_map = crowded_trace("f.py")
    # Even a floor that every score clears leaves the file authorless.
    assert select_authors([trace], alias_map, m=-1.0) == {}


@given(st.data())
def test_select_authors_shrinks_as_k_grows(data):
    users = [RawUser(name, f"{name}@example.com") for name in "ABC"]
    alias_map = {user: DeveloperId(user.name, frozenset({user})) for user in users}
    traces = []
    for file in [f"f{i}" for i in range(4)]:
        changes = data.draw(
            st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
            label=f"changes to {file}",
        )
        creator = data.draw(st.sampled_from([None, users[0]]), label="creator")
        traces.append(FileTrace(file, dict(zip(users, changes)), creator))
    k1 = data.draw(st.floats(min_value=0.05, max_value=0.9), label="k1")
    k2 = data.draw(st.floats(min_value=k1, max_value=0.999), label="k2")
    lax = select_authors(traces, alias_map, k=k1)
    strict = select_authors(traces, alias_map, k=k2)
    for developer, files_authored in strict.items():
        assert files_authored <= lax.get(developer, set())


@cache
def crowded_records():
    """The crowded trace, its alias map and its records, built once."""
    trace, alias_map = crowded_trace("crowded.py")
    return trace, alias_map, score_trace(trace, alias_map)


def cut(records, k, m):
    """The author map of ``records`` as (developer, files) pairs in key
    order: the cut that select_authors makes without the records."""
    entries = {}
    for r in records:
        if r.doa_norm > k and r.doa_abs >= m:
            entries.setdefault(r.developer, set()).add(r.file)
    return list(entries.items())


@st.composite
def scoring_inputs(draw):
    """Traces over six users joined into four developers, who often share a
    canonical name; the alias map; now and then the crowded trace, whose
    best score is negative (it holds 50,000 developers, so it is drawn
    rarely); and thresholds that the API does not validate: k in [-1, 1]
    and m negative or exactly a score that occurs."""
    users = [RawUser(f"User {i}", f"user{i}@example.com") for i in range(6)]
    labels = draw(st.lists(st.sampled_from(["Ann", "Bo"]), min_size=4, max_size=4))
    owners = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    members = {i: frozenset(u for u, o in zip(users, owners) if o == i) for i in owners}
    alias_map = {u: DeveloperId(labels[o], members[o]) for u, o in zip(users, owners)}
    traces = []
    for i in range(draw(st.integers(0, 5))):
        touched = draw(st.lists(st.sampled_from(users), unique=True, max_size=6))
        changes = draw(st.lists(st.integers(1, 6), min_size=len(touched), max_size=6))
        creator = draw(st.none() | st.sampled_from(users))
        traces.append(FileTrace(f"f{i}.py", dict(zip(touched, changes)), creator))
    records = [r for t in traces for r in score_trace(t, alias_map)]
    if draw(st.integers(0, 9)) == 5:  # Hypothesis favours the ends of a range
        crowded, crowd_map, crowd_records = crowded_records()
        traces.insert(draw(st.integers(0, len(traces))), crowded)
        alias_map = {**alias_map, **crowd_map}
        records.append(crowd_records[0])  # every record scores alike
    norms = sorted({r.doa_norm for r in records})
    scores = sorted({r.doa_abs for r in records})
    k = draw(st.floats(-1.0, 1.0) | st.sampled_from(norms or [0.0]))
    m = draw(st.floats(-10.0, -0.0) | st.sampled_from(scores or [-1.0]))
    return traces, alias_map, k, m


def _shared_label_inputs():
    """An override labels Zed "Ann", so two developers share the canonical
    name "Ann". In f0.py "Bo" delivers first but sorts last, and the floor
    is exactly the score that all three developers have there."""
    ann, bo, zed = (RawUser(n, f"{n.lower()}@example.com") for n in ("Ann", "Bo", "Zed"))
    alias_map = resolve_aliases([ann, bo, zed], overrides={"zed@example.com": "Ann"})
    assert [alias_map[u].canonical_name for u in (ann, bo, zed)] == ["Ann", "Bo", "Ann"]
    assert alias_map[ann] != alias_map[zed]
    traces = [
        FileTrace("f0.py", {bo: 3, zed: 3, ann: 3}),
        FileTrace("f1.py", {ann: 3, zed: 3}),
    ]
    return traces, alias_map, 0.75, doa(0, 3, 6)


def _crowded_inputs():
    """The crowded trace between two small files, with both cuts below its
    negative scores, so that all of its 50,000 developers pass."""
    crowded, crowd_map, _ = crowded_records()
    ann, bo = (RawUser(n, f"{n.lower()}@example.com") for n in ("Ann", "Bo"))
    alias_map = {**crowd_map, **resolve_aliases([ann, bo])}
    traces = [FileTrace("f0.py", {bo: 2, ann: 1}, ann), crowded, FileTrace("f1.py", {ann: 1})]
    return traces, alias_map, -0.5, -1.0


@settings(max_examples=50, deadline=None)
@given(scoring_inputs())
@example(_shared_label_inputs())
@example(_crowded_inputs())
def test_select_authors_equals_the_cut_of_score_trace_records(inputs):
    traces, alias_map, k, m = inputs
    crowded, _, crowd_records = crowded_records()
    records = [
        r
        for t in traces
        for r in (crowd_records if t is crowded else score_trace(t, alias_map))
    ]
    got = select_authors(traces, alias_map, k=k, m=m)
    assert list(got.items()) == cut(records, k, m)


# --- blame_rank --------------------------------------------------------------


def _alias_map_for(repo):
    with read_log(resolve_revision(repo.path)) as commits:
        return resolve_aliases({c.author for c in commits})


def _blame(repo, file, alias_map, **kwargs):
    """``blame_rank`` of ``file`` at the repository's ``HEAD``."""
    return blame_rank(resolve_revision(repo.path), file, alias_map, **kwargs)


def test_blame_rank_counts_surviving_lines(blame_overwrite_repo):
    alias_map = _alias_map_for(blame_overwrite_repo)
    ranking = _blame(blame_overwrite_repo, "data.txt", alias_map)
    assert [(d.canonical_name, n) for d, n in ranking] == [("Alice", 30), ("Bob", 10)]


def _line_porcelain_counts(repo, file):
    """Lines per author name from ``git blame --line-porcelain``, which
    repeats the author headers on every line."""
    out = repo.git("blame", "--line-porcelain", "HEAD", "--", file)
    return Counter(
        line[len("author ") :] for line in out.split("\n") if line.startswith("author ")
    )


@pytest.mark.parametrize("fixture", ["interleaved_blame_repo", "blame_overwrite_repo"])
def test_blame_rank_matches_a_line_porcelain_count(fixture, request):
    repo = request.getfixturevalue(fixture)
    ranking = _blame(repo, "data.txt", _alias_map_for(repo))
    expected = _line_porcelain_counts(repo, "data.txt")
    assert dict((d.canonical_name, n) for d, n in ranking) == expected
    assert [n for _, n in ranking] == sorted(expected.values(), reverse=True)


def test_blame_rank_counts_groups_whose_commit_was_described_earlier(
    interleaved_blame_repo,
):
    incremental = interleaved_blame_repo.git(
        "blame", "--incremental", "HEAD", "--", "data.txt"
    )
    assert incremental.count("\nauthor Alice\n") == 1  # two groups, one header
    ranking = _blame(interleaved_blame_repo, "data.txt", {})
    assert [(d.canonical_name, n) for d, n in ranking] == [("Alice", 20), ("Bob", 10)]


def test_blame_rank_keeps_a_lone_carriage_return_inside_its_line(
    carriage_return_repo,
):
    ranking = _blame(carriage_return_repo, "data.txt", {})
    assert [(d.canonical_name, n) for d, n in ranking] == [("Alice", 3), ("Bob", 1)]
    assert dict((d.canonical_name, n) for d, n in ranking) == _line_porcelain_counts(
        carriage_return_repo, "data.txt"
    )


def test_file_content_shaped_like_blame_headers_moves_no_count(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "forged")
    lines = ["author Mallory", "author-mail <m@x>", f"{'c' * 40} 1 1 1", "filename x"]
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "add data", rf.ALICE)
    lines[2] = f"{'d' * 40} 2 2 2"
    builder.commit_file("data.txt", "\n".join(lines) + "\n", "edit data", rf.BOB)
    ranking = _blame(builder, "data.txt", {})
    assert dict((d.canonical_name, n) for d, n in ranking) == _line_porcelain_counts(
        builder, "data.txt"
    )
    assert [(d.canonical_name, n) for d, n in ranking] == [("Alice", 3), ("Bob", 1)]
    assert not any(u.name == "Mallory" for d, _ in ranking for u in d.members)


def test_blame_rank_rejects_lines_of_a_commit_with_no_author(monkeypatch):
    commit = "ab" * 20
    undescribed = f"{commit} 1 1 1\nfilename data.txt\n"
    monkeypatch.setattr(authorship, "run_git", lambda *_, **__: undescribed)
    with pytest.raises(BlameFailed, match="no author"):
        blame_rank(Revision(commit, False, "."), "data.txt", {})


def test_blame_rank_orders_tied_namesakes_by_their_first_line(tmp_path):
    # Alice's rule labels her "Bob"; each Bob owns two lines, and blame
    # reaches the newer commit, holding the last lines, first.
    builder = rf.RepoBuilder(tmp_path / "namesakes")
    builder.commit_file("data.txt", "a\nb\n", "add data", rf.ALICE)
    builder.commit_file("data.txt", "a\nb\nc\nd\n", "append", rf.BOB)
    alias_map = resolve_aliases(
        [RawUser(*rf.ALICE), RawUser(*rf.BOB)], overrides={"alice@example.com": "Bob"}
    )
    ranking = _blame(builder, "data.txt", alias_map)
    assert [(d.members, n) for d, n in ranking] == [
        (frozenset({RawUser(*rf.ALICE)}), 2),
        (frozenset({RawUser(*rf.BOB)}), 2),
    ]


def test_blame_rank_of_single_author_file(single_author_repo):
    alias_map = _alias_map_for(single_author_repo)
    ranking = _blame(single_author_repo, "src/f1.py", alias_map)
    assert len(ranking) == 1
    assert ranking[0][0].canonical_name == "Alice"
    assert ranking[0][1] == 1  # the file is one line long


def test_blame_rank_runs_git_in_the_environment_it_is_given(
    tmp_path, single_author_repo
):
    elsewhere = {**os.environ, "GIT_DIR": str(tmp_path / "nowhere")}
    assert _blame(single_author_repo, "src/f1.py", {}, env=os.environ)
    with pytest.raises(BlameFailed):
        _blame(single_author_repo, "src/f1.py", {}, env=elsewhere)


def test_blame_rank_empty_file(tmp_path):
    builder = rf.RepoBuilder(tmp_path / "empty")
    builder.commit_file("empty.txt", "", "add empty", rf.ALICE)
    assert _blame(builder, "empty.txt", {}) == []


def test_blame_rank_unknown_file_fails(single_author_repo):
    with pytest.raises(BlameFailed):
        _blame(single_author_repo, "no/such/file.py", {})


def test_blame_rank_tolerates_users_missing_from_the_alias_map(blame_overwrite_repo):
    ranking = _blame(blame_overwrite_repo, "data.txt", {})
    assert [(d.canonical_name, n) for d, n in ranking] == [("Alice", 30), ("Bob", 10)]

