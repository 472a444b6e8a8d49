"""Path filtering for the analyzed file set.

Third-party code kept inside the repository (vendored libraries,
node_modules, minified bundles) and non-source material (documentation,
images, archives) would hand large authorship scores to whoever ran the
import commit, so those paths are dropped before any history is traced.
A curated pattern list ships with the package; callers can stack their own
glob patterns and explicit path prefixes on top.

Globs follow the familiar ignore-file conventions: a pattern without ``/``
matches against the basename at any depth, a pattern with ``/`` matches
against the full repository-relative path, and ``**`` spans any number of
path segments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path


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
                inner = segment[i + 1 : j].replace("\\", "\\\\")
                if inner.startswith("!"):
                    inner = "^" + inner[1:]
                out.append(f"(?!/)[{inner}]")
                i = j
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out)


def _normalize_glob(pattern: str) -> str:
    pattern = pattern.strip().lstrip("/")
    if not pattern:
        raise ValueError("empty glob pattern")
    if pattern.endswith("/"):  # trailing slash means "everything under"
        pattern += "**"
    return pattern


# Only tests call this: the per-pattern reference for FilterRules' combined regexes.
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
    parts = pattern.split("/")
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


def _parse_lines(text: str) -> list[str]:
    entries = []
    for line in text.split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def load_pattern_file(path: str | Path) -> list[str]:
    """Read glob patterns or explicit paths from a file: one per line,
    ``#`` comments and blank lines skipped, UTF-8 with or without a
    byte-order mark."""
    return _parse_lines(Path(path).read_text(encoding="utf-8-sig"))


@lru_cache(maxsize=1)
def _builtin_text() -> str:
    return (
        resources.files(__package__)
        .joinpath("data/vendored_patterns.txt")
        .read_text(encoding="utf-8")
    )


def builtin_patterns() -> list[str]:
    """The glob patterns shipped with the package."""
    return _parse_lines(_builtin_text())


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
