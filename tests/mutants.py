"""Mutants of ``src/`` and whether tier-1 kills them.

Usage: python3 tests/mutants.py [NAME ...]

Each mutant names a file, an exact text that occurs once in it, the text
that replaces it, and what tier-1 does with it: "killed", or "equivalent:
<reason>" for a change that no test can see, such as one that changes
speed only. For each mutant, or for those named, the runner copies the
checkout without ``.git`` into a temporary directory, applies the mutant
there and runs tier-1 with ``-x``, so ``pyproject.toml``'s ``pythonpath``
finds the mutated ``src``. It prints one line per mutant, with the first
test that failed, and exits 1 when a mutant marked "killed" survives or
one marked "equivalent" is killed; it exits 2 before running anything when
a mutant's text does not occur exactly once. It uses only the standard
library. pytest does not collect it, since its name does not start with
``test_``, and it is not part of tier-1: each mutant costs one tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# ROADMAP.md's tier-1 command, stopping at the first failure
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]
TIMEOUT_S = 900  # a mutant that makes tier-1 hang counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    text: str
    replacement: str
    expect: str  # "killed" or "equivalent: <reason>"


MUTANTS = [
    Mutant(
        "migration-cutoff",
        "src/truckfactor/history.py",
        "chosen < 20",
        "chosen <= 20",
        "killed",
    ),
    Mutant(
        "rename-from-a-dead-path",
        "src/truckfactor/history.py",
        "live.pop(old_path, None)",
        "pass",
        "killed",
    ),
    Mutant(
        "blame-top3-slice",
        "src/truckfactor/pipeline.py",
        "ranked[file][:3]",
        "ranked[file][:2]",
        "killed",
    ),
    Mutant(
        "blame-sample-seed",
        "src/truckfactor/pipeline.py",
        "random.Random(seed)",
        "random.Random(seed + 1)",
        "killed",
    ),
    Mutant(
        "one-blame-worker",
        "src/truckfactor/pipeline.py",
        "return min(4, cpus)",
        "return 1",
        "equivalent: the pool size changes speed only",
    ),
    Mutant(
        "lowercased-snapshot-filter",
        "src/truckfactor/history.py",
        "rules.matches(path)",
        "rules.matches(path.lower())",
        "killed",
    ),
    Mutant(
        "leading-slash-unanchored",
        "src/truckfactor/filters.py",
        "pattern = pattern.strip()",
        'pattern = pattern.strip().lstrip("/")',
        "killed",
    ),
    Mutant(
        "replace-refs-always-on",
        "src/truckfactor/history.py",
        '"false" if "GIT_NO_REPLACE_OBJECTS" in env else "true"',
        '"true"',
        "killed",
    ),
    Mutant(
        "log-exit-status-ignored",
        "src/truckfactor/history.py",
        "if proc.wait() != 0:",
        "if proc.wait() < 0:",
        "killed",
    ),
    Mutant(
        "log-read-after-the-block",
        "src/truckfactor/history.py",
        "while not proc.stdout.closed:",
        "while True:",
        "killed",
    ),
    Mutant(
        "log-pipe-not-widened",
        "src/truckfactor/history.py",
        "_widen(proc.stdout)",
        "pass",
        "killed",  # the refused-widening test counts the request
    ),
    Mutant(
        "log-pipe-default-size",
        "src/truckfactor/history.py",
        "_LOG_PIPE_BYTES = 1 << 20",
        "_LOG_PIPE_BYTES = 1 << 16",
        "equivalent: the pipe's size changes speed only",
    ),
    Mutant(
        "blame-failures-always-shown",
        "src/truckfactor/report.py",
        "if blame.blame_failures:",
        "if True:",
        "killed",
    ),
    Mutant(
        "blame-failures-hidden",
        "src/truckfactor/report.py",
        'lines.append(f"  blame failures: {blame.blame_failures}")',
        "pass",
        "killed",
    ),
]


def _check(mutants: list[Mutant]) -> list[str]:
    """One message per mutant whose text does not occur exactly once."""
    problems = []
    for mutant in mutants:
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.text)
        if count != 1:
            problems.append(f"{mutant.name}: {mutant.text!r} occurs {count} times")
    return problems


def _first_failure(output: str) -> str:
    """The first test that pytest's short summary names, if any."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return ""


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """Whether tier-1 kills ``mutant``, and what killed it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        junk = [".git", "__pycache__", ".*_cache", ".hypothesis", ".bench_work"]
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*junk))
        target = copy / mutant.file
        source = target.read_text(encoding="utf-8")
        mutated = source.replace(mutant.text, mutant.replacement)
        target.write_text(mutated, encoding="utf-8")
        env = dict(os.environ)
        paths = ["src", env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        try:
            proc = subprocess.run(
                [sys.executable, *TIER1],
                cwd=copy,
                env=env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return False, ""
    return True, _first_failure(proc.stdout) or f"pytest exit code {proc.returncode}"


def main(argv: list[str]) -> int:
    names = set(argv)
    unknown = names - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    problems = _check(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    wrong = 0
    for mutant in mutants:
        began = time.monotonic()
        killed, by = run_mutant(mutant)
        expected = mutant.expect == "killed"
        verdict = "killed" if killed else "survived"
        mark = "ok " if killed == expected else "BAD"
        wrong += killed != expected
        print(
            f"{mark} {mutant.name}: {verdict} in {time.monotonic() - began:.0f} s"
            f"{' by ' + by if by else ''} (expected {mutant.expect})",
            flush=True,
        )
    print(f"{len(mutants) - wrong} of {len(mutants)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
