import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import _developers, levenshtein
from truckfactor.identity import (
    RawUser,
    fold_name,
    load_alias_overrides,
    name_merge_candidates,
    resolve_aliases,
)
from truckfactor.report import AliasCandidate


def partition(mapping):
    """The set of member groups a resolve_aliases result induces."""
    return {dev.members for dev in mapping.values()}


# --- levenshtein ---------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("Bob.Rob", "Bob Rob", 1),
        ("kitten", "sitting", 3),
        ("", "", 0),
        ("abc", "", 3),
        ("flaw", "lawn", 2),
        ("same", "same", 0),
    ],
)
def test_levenshtein_known_pairs(a, b, expected):
    assert levenshtein(a, b) == expected


short_text = st.text(max_size=12)


@given(short_text, short_text)
def test_levenshtein_zero_iff_equal_and_symmetric(a, b):
    assert levenshtein(a, b) >= 0
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, b) == levenshtein(b, a)


@given(short_text, short_text, short_text)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(short_text, short_text)
def test_levenshtein_bounded_by_longer_string(a, b):
    assert levenshtein(a, b) <= max(len(a), len(b))


# --- resolve_aliases -----------------------------------------------------


def test_same_email_merges_despite_different_names():
    users = [RawUser("Bob", "bob@x.com"), RawUser("Robert", "BOB@X.com")]
    mapping = resolve_aliases(users)
    assert mapping[users[0]] == mapping[users[1]]


def test_close_names_merge_despite_different_emails():
    users = [RawUser("Bob.Rob", "bob@work.example"), RawUser("Bob Rob", "bob@home.example")]
    mapping = resolve_aliases(users)
    assert mapping[users[0]] == mapping[users[1]]


def test_unrelated_users_stay_apart():
    users = [RawUser("Alice", "a@x.com"), RawUser("Carol", "c@x.com")]
    mapping = resolve_aliases(users)
    assert mapping[users[0]] != mapping[users[1]]


def test_empty_emails_never_group():
    users = [RawUser("Alice", ""), RawUser("Bob", "")]
    mapping = resolve_aliases(users)
    assert mapping[users[0]] != mapping[users[1]]


def test_merging_is_transitive():
    # u1~u2 by name distance, u1~u3 by shared email: all three collapse.
    u1 = RawUser("Bob.Rob", "shared@x.com")
    u2 = RawUser("Bob Rob", "personal@y.com")
    u3 = RawUser("Robert", "shared@x.com")
    mapping = resolve_aliases([u1, u2, u3])
    assert mapping[u1] == mapping[u2] == mapping[u3]
    assert mapping[u1].members == frozenset({u1, u2, u3})


def test_identical_folded_names_merge_even_without_similar_name_merging():
    users = [RawUser("bob", "b1@x.com"), RawUser("Bob", "b2@y.com")]
    mapping = resolve_aliases(users, merge_similar_names=False)
    assert mapping[users[0]] == mapping[users[1]]


def test_similar_name_merging_can_be_suspended():
    users = [RawUser("Bob.Rob", "b1@x.com"), RawUser("Bob Rob", "b2@y.com")]
    mapping = resolve_aliases(users, merge_similar_names=False)
    assert mapping[users[0]] != mapping[users[1]]


def test_canonical_name_prefers_most_commits():
    u1 = RawUser("B. Rob", "bob@x.com")
    u2 = RawUser("Bob Rob", "bob@x.com")
    mapping = resolve_aliases([u1, u2], commit_counts={u1: 3, u2: 9})
    assert mapping[u1].canonical_name == "Bob Rob"


def test_canonical_name_tie_breaks_lexicographically():
    u1 = RawUser("Zed Rob", "bob@x.com")
    u2 = RawUser("Bob Rob", "bob@x.com")
    mapping = resolve_aliases([u1, u2], commit_counts={u1: 4, u2: 4})
    assert mapping[u1].canonical_name == "Bob Rob"


def test_unicode_names_compare_after_normalization():
    # "é" precomposed vs "e" + combining accent: same folded name.
    composed = RawUser("René", "r1@x.com")
    decomposed = RawUser("René", "r2@y.com")
    assert fold_name(composed.name) == fold_name(decomposed.name)
    mapping = resolve_aliases([composed, decomposed], merge_similar_names=False)
    assert mapping[composed] == mapping[decomposed]


def test_resolution_is_idempotent():
    users = [
        RawUser("Bob.Rob", "bob@x.com"),
        RawUser("Bob Rob", "personal@y.com"),
        RawUser("Alice", "a@z.com"),
    ]
    first = resolve_aliases(users)
    second = resolve_aliases(users)
    assert partition(first) == partition(second)


def test_resolution_ignores_input_order():
    rng = random.Random(7)
    users = [
        RawUser("Bob.Rob", "bob@x.com"),
        RawUser("Bob Rob", "personal@y.com"),
        RawUser("Robert", "bob@x.com"),
        RawUser("Alice", "a@z.com"),
        RawUser("Carol", ""),
    ]
    baseline = resolve_aliases(users)
    for _ in range(10):
        shuffled = users[:]
        rng.shuffle(shuffled)
        assert partition(resolve_aliases(shuffled)) == partition(baseline)
        assert {d.canonical_name for d in resolve_aliases(shuffled).values()} == {
            d.canonical_name for d in baseline.values()
        }


def test_rejects_empty_user_set():
    with pytest.raises(ValueError):
        resolve_aliases([])


_user_strategy = st.builds(
    RawUser,
    name=st.sampled_from(["ann", "anne", "bob", "bobb", "carl", "dora", ""]),
    email=st.sampled_from(["a@x.com", "b@x.com", "c@y.com", ""]),
)


@given(st.lists(_user_strategy, min_size=1, max_size=12))
def test_result_is_a_partition(users):
    mapping = resolve_aliases(users)
    distinct = set(users)
    assert set(mapping) == distinct
    groups = partition(mapping)
    seen = set()
    for group in groups:
        assert not (group & seen)
        seen |= group
    assert seen == distinct
    for user, dev in mapping.items():
        assert user in dev.members


@given(st.lists(_user_strategy, min_size=1, max_size=12))
def test_distinct_developers_share_no_merge_evidence(users):
    # If any cross-group pair still shared an email or close names, the
    # transitive closure would have been incomplete.
    groups = list(partition(resolve_aliases(users)))
    for i, group_a in enumerate(groups):
        for group_b in groups[i + 1 :]:
            for a in group_a:
                for b in group_b:
                    email_a = fold_name(a.email)
                    assert not (email_a and email_a == fold_name(b.email))
                    assert levenshtein(fold_name(a.name), fold_name(b.name)) > 1


# Names one edit apart ("ann"/"anne"/"ana"), transposed ("ann"/"nan"),
# precomposed and decomposed ("René"), and empty; an email in two letter
# cases and an empty email.
_MODEL_NAMES = ["ann", "Ann", "anne", "ana", "nan", "bo", "bob", "René", "Rene\u0301", ""]
_MODEL_EMAILS = ["", "a@x.com", "A@X.com", "b@y.org", "c@z.net"]
_MODEL_KEYS = sorted(
    {fold_name(key) for key in _MODEL_NAMES + _MODEL_EMAILS if fold_name(key)}
)


@settings(max_examples=400)
@given(
    st.dictionaries(
        st.builds(
            RawUser, st.sampled_from(_MODEL_NAMES), st.sampled_from(_MODEL_EMAILS)
        ),
        st.integers(1, 2),
        min_size=1,
        max_size=7,
    ),
    st.dictionaries(
        st.sampled_from(_MODEL_KEYS), st.sampled_from(["Lee", "Kim", "ann"]), max_size=4
    ),
    st.booleans(),
)
def test_resolve_aliases_equals_the_reference_model(counts, overrides, merge):
    # Override keys are folded, as load_alias_overrides returns them; a
    # label may equal the name of a user no rule matches.
    mapping = resolve_aliases(
        counts, commit_counts=counts, overrides=overrides, merge_similar_names=merge
    )
    assert {user: (dev.canonical_name, dev.members) for user, dev in mapping.items()} == (
        _developers(counts, overrides, merge)
    )


# --- candidates and overrides --------------------------------------------


def test_name_merge_candidates_lists_close_pairs():
    users = [
        RawUser("Bob.Rob", "b1@x.com"),
        RawUser("Bob Rob", "b2@y.com"),
        RawUser("Alice", "a@z.com"),
        RawUser("Alcie", "a@w.com"),  # a transposition is two edits
    ]
    pairs = name_merge_candidates(users)
    assert len(pairs) == 1
    names = {pairs[0].name_a, pairs[0].name_b}
    assert names == {"Bob.Rob", "Bob Rob"}


_close_names = st.lists(
    st.builds(
        RawUser,
        name=st.text(alphabet="abé", max_size=4),
        email=st.just(""),
    ),
    max_size=20,
)


@given(_close_names)
def test_name_merge_candidates_equal_the_all_pairs_reference(users):
    # The names include "", transpositions such as "ab"/"ba", and a
    # non-ASCII letter; the reference keeps the order the report relies on.
    by_name = {}
    for user in sorted(set(users)):
        by_name.setdefault(fold_name(user.name), user)
    names = sorted(by_name, key=lambda name: (len(name), name))
    expected = [
        AliasCandidate(*by_name[a], *by_name[b])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if levenshtein(a, b) == 1
    ]
    assert name_merge_candidates(users) == expected


def test_name_merge_candidates_empty_when_names_are_distant():
    assert name_merge_candidates([RawUser("Alice", "a@x"), RawUser("Carol", "c@x")]) == []


def test_overrides_merge_otherwise_unrelated_users(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_text(
        "# one person, two identities\n"
        "zed@corp.example => D. Man\n"
        "Douglas => D. Man\n",
        encoding="utf-8",
    )
    overrides = load_alias_overrides(rules)
    u1 = RawUser("Zed", "zed@corp.example")
    u2 = RawUser("Douglas", "doug@home.example")
    mapping = resolve_aliases([u1, u2], overrides=overrides)
    assert mapping[u1] == mapping[u2]
    assert mapping[u1].canonical_name == "D. Man"


def test_override_canonical_name_beats_commit_counts():
    overrides = {"bob@x.com": "Robert Roberts"}
    u1 = RawUser("Bob", "bob@x.com")
    u2 = RawUser("Bobby", "bob@x.com")
    mapping = resolve_aliases([u1, u2], commit_counts={u2: 50}, overrides=overrides)
    assert mapping[u1].canonical_name == "Robert Roberts"


def test_override_relabels_only_the_users_it_matches():
    # Bob's own name equals the label, but no rule matches him, so the
    # report lists two developers called Bob.
    alice, bob = RawUser("Alice", "alice@x"), RawUser("Bob", "bob@y")
    mapping = resolve_aliases([alice, bob], overrides={"alice@x": "Bob"})
    assert mapping[alice] != mapping[bob]
    assert mapping[alice].canonical_name == mapping[bob].canonical_name == "Bob"


def test_override_keys_match_case_insensitively(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_text("BOB@X.COM => The Real Bob\n", encoding="utf-8")
    overrides = load_alias_overrides(rules)
    mapping = resolve_aliases([RawUser("bob", "bob@x.com")], overrides=overrides)
    assert next(iter(mapping.values())).canonical_name == "The Real Bob"


def test_override_file_breaks_lines_only_at_newlines(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_text("Ann\u2028Lee => Ann Lee\r\n", encoding="utf-8")
    overrides = load_alias_overrides(rules)
    assert overrides == {"ann\u2028lee": "Ann Lee"}
    mapping = resolve_aliases([RawUser("Ann\u2028Lee", "ann@x.com")], overrides=overrides)
    assert next(iter(mapping.values())).canonical_name == "Ann Lee"


def test_malformed_override_line_is_rejected(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_text("this line has no arrow\n", encoding="utf-8")
    with pytest.raises(ValueError, match="aliases.txt:1"):
        load_alias_overrides(rules)


def test_override_file_ignores_comments_and_blanks(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_text("\n# comment\n  \nbob@x.com => Bob\n", encoding="utf-8")
    assert load_alias_overrides(rules) == {"bob@x.com": "Bob"}


def test_override_file_ignores_a_leading_byte_order_mark(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_bytes(b"\xef\xbb\xbfa@x => Bob\n")
    assert load_alias_overrides(rules) == {"a@x": "Bob"}


def test_an_override_key_in_angle_brackets_matches_the_email(tmp_path):
    # git shortlog -e prints emails in brackets, as "Ann <a@x>".
    rules = tmp_path / "aliases.txt"
    rules.write_text("<A@x> => Bob\n< b@y > => Bob\n", encoding="utf-8")
    overrides = load_alias_overrides(rules)
    assert overrides == {"a@x": "Bob", "b@y": "Bob"}
    ann, bea = RawUser("Ann", "a@x"), RawUser("Bea", "b@y")
    mapping = resolve_aliases([ann, bea], overrides=overrides)
    assert mapping[ann] == mapping[bea]
    assert mapping[ann].canonical_name == "Bob"


def test_an_override_key_of_empty_brackets_is_rejected(tmp_path):
    rules = tmp_path / "aliases.txt"
    rules.write_text("<> => Bob\n", encoding="utf-8")
    with pytest.raises(ValueError, match="aliases.txt:1"):
        load_alias_overrides(rules)
