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
    # fnmatch-style wildcards, except '*' and '?' never cross a '/' boundary
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
                out.append(f"[{inner}]")
                i = j
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out)


def compile_glob(pattern: str) -> re.Pattern[str]:
    """Compile one ignore-style glob into a regex over relative paths."""
    pattern = pattern.strip().lstrip("/")
    if not pattern:
        raise ValueError("empty glob pattern")
    if pattern.endswith("/"):  # trailing slash means "everything under"
        pattern += "**"
    if "/" not in pattern:
        return re.compile(rf"(?:^|.*/){_translate_segment(pattern)}$")
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
        regex += "$"
    return re.compile(regex)


def _parse_lines(text: str) -> list[str]:
    entries = []
    for line in text.split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def load_pattern_file(path: str | Path) -> list[str]:
    """Read glob patterns or explicit paths from a file: one per line,
    ``#`` comments and blank lines skipped, UTF-8."""
    return _parse_lines(Path(path).read_text(encoding="utf-8"))


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
        alternatives = "|".join(
            f"(?:{compile_glob(g).pattern})"
            for g in [*self.ignore_globs, *self.builtin_vendored]
        )
        # An empty alternation matches every path, so no globs means no regex.
        self._regex = re.compile(alternatives) if alternatives else None
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
        return self._regex is not None and self._regex.match(path) is not None

    @classmethod
    def none(cls) -> "FilterRules":
        """Rules that exclude nothing, built-ins included."""
        return cls(builtin_vendored=[])
