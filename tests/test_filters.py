import pytest
from hypothesis import given
from hypothesis import strategies as st

from truckfactor.filters import (
    FilterRules,
    builtin_patterns,
    compile_glob,
    load_path_file,
    load_pattern_file,
)
from truckfactor.identity import load_alias_overrides


@pytest.mark.parametrize(
    "pattern, path, matches",
    [
        # anchored directory patterns
        ("vendor/**", "vendor/lib/jquery.js", True),
        ("vendor/**", "src/vendor.py", False),
        ("vendor/**", "src/vendor/x.js", False),
        # '**' anywhere in the path
        ("**/node_modules/**", "node_modules/a/b.js", True),
        ("**/node_modules/**", "web/app/node_modules/x.js", True),
        ("**/node_modules/**", "src/node_modulesish/x.js", False),
        # interior '**' spans zero or more directories
        ("a/**/b", "a/b", True),
        ("a/**/b", "a/x/b", True),
        ("a/**/b", "a/x/y/b", True),
        ("a/**/b", "a/xb", False),
        # patterns without '/' match the basename at any depth
        ("*.min.js", "jquery.min.js", True),
        ("*.min.js", "static/js/app.min.js", True),
        ("*.min.js", "min.js", False),
        ("*.min.js", "app.min.js.map", False),
        # '*' and '?' never cross a path separator
        ("src/f*.py", "src/f123.py", True),
        ("src/f*.py", "src/f/a.py", False),
        ("src/f?.py", "src/f1.py", True),
        ("src/f?.py", "src/f12.py", False),
        # character classes, which never match a '/' either
        ("file[0-9].txt", "file7.txt", True),
        ("file[0-9].txt", "filex.txt", False),
        ("a[!x]b", "a/b", False),
        ("a[!x]b", "d/ayb", True),
        # a path may hold newlines, anywhere but at the very end
        ("*.min.js", "di\nr/app.min.js", True),
        ("*.min.js", "app.min.js\n", False),
        ("docs/**", "docs/a\nb.md", True),
        ("**/node_modules/**", "x\ny/node_modules/z", True),
        ("src/f*.py", "src/f1.py\n", False),
        # a trailing slash means everything underneath
        ("docs/", "docs/index.html", True),
        ("docs/", "docs", False),
    ],
)
def test_compile_glob(pattern, path, matches):
    # the per-pattern reference, then the combined regexes that ship
    assert bool(compile_glob(pattern).match(path)) == matches
    assert FilterRules(ignore_globs=[pattern], builtin_vendored=[]).matches(path) == matches


@pytest.mark.parametrize(
    "pattern, path, matches",
    [
        # '[', '&', '~', '|' and a '-' that ends no range are members of a
        # class like any other character, never a nested set or set operator
        ("a[[]b", "a[b", True),
        ("a[[]b", "a]b", False),
        ("a[x&&y]b", "a&b", True),
        ("a[x&&y]b", "ayb", True),
        ("a[x&&y]b", "azb", False),
        ("a[x~~]b", "a~b", True),
        ("a[!x||]b", "a|b", False),
        ("a[!x||]b", "azb", True),
        ("a[+--]b", "a,b", True),
        ("a[+--]b", "a-b", True),
        ("a[+--]b", "a.b", False),
        ("a[x-]b", "a-b", True),
        # a range may start at '-' or ']'
        ("a[--0]b", "a.b", True),
        ("a[]-a]b", "a_b", True),
        ("a[]-a]b", "abb", False),
    ],
)
def test_a_class_matches_its_members_literally(pattern, path, matches):
    assert bool(compile_glob(pattern).match(path)) == matches
    assert FilterRules(ignore_globs=[pattern], builtin_vendored=[]).matches(path) == matches


def test_compile_glob_rejects_empty_pattern():
    with pytest.raises(ValueError):
        compile_glob("   ")
    with pytest.raises(ValueError):
        FilterRules(ignore_globs=["   "], builtin_vendored=[])


@pytest.mark.parametrize("glob", ["[z-a].py", "[a--b].py"])
def test_a_reversed_range_raises_value_error(glob):
    with pytest.raises(ValueError, match="bad character range"):
        compile_glob(glob)
    with pytest.raises(ValueError, match="bad character range"):
        FilterRules(ignore_globs=[glob], builtin_vendored=[])


@given(st.text(alphabet="ab-]![^\\&~|z0.,+*?/"))
def test_every_glob_compiles_or_raises_value_error_alike(glob):
    # Neither raises re.error, nor warns: pytest turns warnings into errors.
    try:
        compile_glob(glob)
    except ValueError:
        with pytest.raises(ValueError):
            FilterRules(ignore_globs=[glob], builtin_vendored=[])
    else:
        FilterRules(ignore_globs=[glob], builtin_vendored=[])


def test_explicit_paths_match_exactly_or_as_directory_prefix():
    rules = FilterRules(ignore_paths=["Library/Formula"], builtin_vendored=[])
    assert rules.matches("Library/Formula")
    assert rules.matches("Library/Formula/wget.rb")
    assert rules.matches("Library/Formula/sub/dir/wget.rb")
    assert not rules.matches("Library/Formulae/wget.rb")
    assert not rules.matches("Library")


def test_empty_rules_keep_everything():
    rules = FilterRules(builtin_vendored=[])
    for path in ["vendor/lib.js", "docs/index.md", "src/main.c", "", "a"]:
        assert not rules.matches(path)


def test_default_rules_drop_vendored_docs_and_binaries():
    rules = FilterRules()
    dropped = [
        "vendor/jquery.js",
        "node_modules/pkg/index.js",
        "third_party/zlib/inflate.c",
        "docs/manual.html",
        "README.md",
        "logo.png",
        "static/app.min.js",
        "release.tar.gz",
    ]
    kept = ["src/main.c", "lib/core.py", "Makefile", "app/views.rb"]
    for path in dropped:
        assert rules.matches(path), path
    for path in kept:
        assert not rules.matches(path), path


def test_default_rules_read_paths_with_newlines():
    rules = FilterRules()
    assert rules.matches("di\nr/app.min.js")
    assert rules.matches("x\ny/logo.png")
    assert rules.matches("vendor/a\nb.c")
    assert not rules.matches("app.min.js\n")
    assert not rules.matches("src/main\n.c")


def test_builtin_patterns_load_from_package_data():
    patterns = builtin_patterns()
    assert patterns
    assert "vendor/**" in patterns
    assert all(not p.startswith("#") for p in patterns)


def test_pattern_and_path_files_share_the_line_format(tmp_path):
    listing = tmp_path / "rules.txt"
    listing.write_text("# comment\n\n  *.gen.go  \nbuild/**\n# tail\n", encoding="utf-8")
    assert load_pattern_file(listing) == ["*.gen.go", "build/**"]


def test_pattern_file_ignores_a_leading_byte_order_mark(tmp_path):
    listing = tmp_path / "patterns.txt"
    listing.write_bytes(b"\xef\xbb\xbf*.py\nbuild/**\n")
    assert load_pattern_file(listing) == ["*.py", "build/**"]


def _side_file(path, lines):
    """Write ``lines`` as a side file: a byte-order mark, CRLF line endings."""
    path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode())
    return path


def test_the_three_side_file_loaders_read_one_format(tmp_path):
    lines = ["# rules", "", "  vendor/gen  ", "   ", "\tbuild", "# tail", "docs/*.txt"]
    entries = ["vendor/gen", "build", "docs/*.txt"]
    paths = _side_file(tmp_path / "ignore.txt", lines)
    assert load_path_file(paths) == load_pattern_file(paths) == entries
    rules = [f"{line} => Someone" if line.strip() in entries else line for line in lines]
    aliases = _side_file(tmp_path / "aliases.txt", rules)
    assert list(load_alias_overrides(aliases)) == entries
    for load, text in ((load_pattern_file, lines), (load_alias_overrides, rules)):
        text.insert(4, "[z-a]")  # not a glob, and no rule
        with pytest.raises(ValueError, match=":5: "):
            load(_side_file(tmp_path / "bad.txt", text))


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[z-a].py", "bad character range z-a"),
        ("[a--b].py", "bad character range"),
        ("/", "empty glob pattern"),
    ],
)
def test_a_pattern_file_names_the_line_of_an_invalid_glob(tmp_path, line, reason):
    listing = tmp_path / "patterns.txt"
    listing.write_text(f"# globs\n*.py\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_pattern_file(listing)
    assert str(caught.value).startswith(f"{listing}:3: invalid glob {line!r}: {reason}")


def test_pattern_files_break_lines_only_at_newlines(tmp_path):
    listing = tmp_path / "ignore.txt"
    listing.write_text("docs/a\u2028b.md\r\nsrc/gen\r\n", encoding="utf-8")
    assert load_pattern_file(listing) == ["docs/a\u2028b.md", "src/gen"]
    rules = FilterRules(ignore_paths=load_pattern_file(listing), builtin_vendored=[])
    assert rules.matches("docs/a\u2028b.md")
    assert not rules.matches("b.md")


def test_a_path_file_keeps_entries_that_are_no_glob(tmp_path):
    listing = tmp_path / "ignore.txt"
    listing.write_text("[z-a].py\n/\nsrc/gen\n", encoding="utf-8")
    assert load_path_file(listing) == ["[z-a].py", "/", "src/gen"]
    rules = FilterRules(ignore_paths=load_path_file(listing), builtin_vendored=[])
    assert rules.matches("[z-a].py")
    assert rules.matches("src/gen/a.py")
    assert not rules.matches("a.py")  # "/" names no path


_PATHS = st.lists(
    st.builds(
        "/".join,
        st.lists(
            st.sampled_from(["a", "b", "src", "vendor", "x.py", "y.md", "z.min.js"]),
            min_size=1,
            max_size=4,
        ),
    ),
    max_size=30,
)

_EXTRA = st.sampled_from(["*.py", "src/**", "**/vendor/**", "a/*/b", "x*", "*.md"])


@given(_PATHS, st.lists(_EXTRA, max_size=3), _EXTRA)
def test_adding_a_pattern_never_retains_more_files(paths, base_globs, extra):
    before = FilterRules(ignore_globs=base_globs, builtin_vendored=[])
    after = FilterRules(ignore_globs=base_globs + [extra], builtin_vendored=[])
    kept_before = {p for p in paths if not before.matches(p)}
    kept_after = {p for p in paths if not after.matches(p)}
    assert kept_after <= kept_before


@given(_PATHS, st.lists(_EXTRA, max_size=3), st.booleans())
def test_one_regex_decides_like_the_separate_globs(paths, extra, with_builtins):
    builtin = builtin_patterns() if with_builtins else []
    rules = FilterRules(ignore_globs=extra, builtin_vendored=builtin)
    globs = [compile_glob(g) for g in extra + builtin]
    for path in paths:
        assert rules.matches(path) == any(rx.match(path) for rx in globs), path
