"""Path filtering for the analyzed file set.

Third-party code kept inside the repository (vendored libraries,
node_modules, minified bundles) and non-source material (documentation,
images, archives) would hand large authorship scores to whoever ran the
import commit, so those paths are dropped before any history is traced.
A curated pattern list ships with the package; callers can stack their own
glob patterns and explicit path prefixes on top.

Globs follow the familiar ignore-file conventions: a pattern without ``/``
matches against the basename at any depth, a pattern with ``/`` matches
against the full repository-relative path (so a leading ``/``, as in
``/build.py``, anchors a name to the root), and ``**`` spans any number of
path segments. An invalid glob, such as an empty one or ``[z-a]``, raises
``ValueError`` when :class:`FilterRules` is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator


def _class_members(chars: str) -> str:
    """The members of a bracket class as the body of a regex set.

    Each ``x-y`` stays a range and every character is escaped, as in
    :mod:`fnmatch`, so ``[``, ``&``, ``~``, ``|`` and a ``-`` that ends no
    range match themselves: never a nested set, nor a set operation such as
    ``&&`` that the ``re`` module warns it may give a meaning. Raises
    ``ValueError`` for a reversed range such as ``z-a``.
    """
    out: list[str] = []
    k = 0
    while k < len(chars):
        if k + 2 < len(chars) and chars[k + 1] == "-":
            if chars[k] > chars[k + 2]:
                raise ValueError(f"bad character range {chars[k : k + 3]}")
            out.append(f"{re.escape(chars[k])}-{re.escape(chars[k + 2])}")
            k += 3
        else:
            out.append(re.escape(chars[k]))
            k += 1
    return "".join(out)


def _translate_segment(segment: str) -> str:
    # fnmatch-style wildcards, except that '*', '?' and a bracket class
    # never match a '/'
    out: list[str] = []
    i = 0
    while i < len(segment):
        ch = segment[i]
        if ch == "*":
            out.append("[^/]*")
        elif ch == "?":
            out.append("[^/]")
        elif ch == "[":
            j = i + 1
            if j < len(segment) and segment[j] in "!^":
                j += 1
            if j < len(segment) and segment[j] == "]":
                j += 1
            while j < len(segment) and segment[j] != "]":
                j += 1
            if j >= len(segment):
                out.append(re.escape("["))
            else:
                negate = segment[i + 1] in "!^"
                members = _class_members(segment[i + 1 + negate : j])
                out.append(f"(?!/)[{'^' * negate}{members}]")
                i = j
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out)


def _normalize_glob(pattern: str) -> str:
    # A leading "/" stays: it anchors a pattern that has no other "/".
    pattern = pattern.strip()
    if not pattern.lstrip("/"):
        raise ValueError("empty glob pattern")
    if pattern.endswith("/"):  # trailing slash means "everything under"
        pattern += "**"
    return pattern


# The per-pattern reference for FilterRules' combined regexes, and the check
# of each pattern a pattern file gives.
def compile_glob(pattern: str) -> re.Pattern[str]:
    """Compile one ignore-style glob into a regex over relative paths.

    A path may hold any character, a newline included: ``.`` matches it
    (``re.DOTALL``) and the end is ``\\Z``, which a trailing newline does
    not satisfy.
    """
    return re.compile(_path_regex(_normalize_glob(pattern)), re.DOTALL)


def _path_regex(pattern: str) -> str:
    """The regex of a normalized glob, for ``match`` against a whole path."""
    if "/" not in pattern:
        return rf"(?:^|.*/){_translate_segment(pattern)}\Z"
    regex = "^"
    parts = pattern.lstrip("/").split("/")
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if part == "**":
            regex += ".*" if last else "(?:[^/]+/)*"
        else:
            regex += _translate_segment(part)
            if not last:
                regex += "/"
    if not regex.endswith(".*"):
        regex += "\\Z"
    return regex


def entries(text: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a side file's ``text``, stripped, without blank
    lines and ``#`` comments."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_path_file(path: str | Path) -> list[str]:
    """Read explicit paths from a file: one per line, ``#`` comments and
    blank lines skipped, UTF-8 with or without a byte-order mark."""
    return [line for _, line in entries(Path(path).read_text(encoding="utf-8-sig"))]


def load_pattern_file(path: str | Path) -> list[str]:
    """Read glob patterns from a file in the format of :func:`load_path_file`.

    Raises ``ValueError`` naming the file and line of the first pattern that
    is not a glob: an empty one such as ``/``, or a class with a reversed
    range such as ``[z-a]``.
    """
    patterns = []
    for lineno, line in entries(Path(path).read_text(encoding="utf-8-sig")):
        try:
            compile_glob(line)
        except ValueError as exc:
            message = f"{path}:{lineno}: invalid glob {line!r}: {exc}"
            raise ValueError(message) from exc
        patterns.append(line)
    return patterns


def builtin_patterns() -> list[str]:
    """The glob patterns shipped with the package."""
    data = resources.files(__package__).joinpath("data/vendored_patterns.txt")
    return [line for _, line in entries(data.read_text(encoding="utf-8"))]


@dataclass
class FilterRules:
    """Exclusion rules evaluated against repository-relative paths.

    ``ignore_paths`` entries match a file exactly or as a directory prefix
    ("Library/Formula" excludes that directory and everything below it).
    ``ignore_globs`` and the built-in vendored patterns are globs as
    described in the module docstring. Rules are fixed at construction;
    pass ``builtin_vendored=[]`` to opt out of the shipped defaults.
    """

    ignore_globs: list[str] = field(default_factory=list)
    ignore_paths: list[str] = field(default_factory=list)
    builtin_vendored: list[str] = field(default_factory=builtin_patterns)

    def __post_init__(self) -> None:
        globs = [_normalize_glob(g) for g in [*self.ignore_globs, *self.builtin_vendored]]
        # A glob without "/" is matched against the last path segment alone,
        # the others against the whole path; each kind as one regex. An empty
        # alternation matches everything, so no globs of a kind means no regex.
        names = "|".join(f"(?:{_translate_segment(g)})" for g in globs if "/" not in g)
        paths = "|".join(f"(?:{_path_regex(g)})" for g in globs if "/" in g)
        self._names = re.compile(names, re.DOTALL) if names else None
        self._regex = re.compile(paths, re.DOTALL) if paths else None
        self._paths = frozenset(
            p.strip().strip("/") for p in self.ignore_paths if p.strip().strip("/")
        )

    def matches(self, path: str) -> bool:
        """True when ``path`` should be excluded from the analysis."""
        end = len(path)
        while self._paths and end > 0:  # the path itself, then each ancestor
            if path[:end] in self._paths:
                return True
            end = path.rfind("/", 0, end)
        if self._names and self._names.fullmatch(path, path.rfind("/") + 1):
            return True
        return bool(self._regex and self._regex.match(path))
