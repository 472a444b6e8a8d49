"""Seeded synthetic repositories for the benchmark, as git fast-import streams.

Each workload function turns ``(seed, size)`` into a :class:`Plan`: the
fast-import stream that builds the repository, the CLI arguments the
workload runs with, and the totals the generator planted, which the
benchmark checks every report against.  The same seed always gives the
same bytes: randomness comes only from a ``random.Random`` seeded with the
workload name and the seed, and commit dates are a fixed clock.

Developer names never chain.  Every name a developer commits under claims
its folded form and all its one-character deletions; a name whose claims
collide with another developer's is redrawn.  Two names within one edit of
each other always share such a claim (a substitution at position i leaves
both with the same deletion at i; an insertion leaves the shorter name
equal to a deletion of the longer), so names of different developers are
at least two edits apart and only the aliases planted on purpose merge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EPOCH = 1_600_000_000

_ONSETS = (
    "b c d f g h j k l m n p r s t v z br ch dr fl gr kl kr pl sh st th tr"
).split()
_VOWELS = "a e i o u ai ea ie ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "k"]
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Plan:
    """What one workload builds and what its report must say."""

    stream: bytes
    cli_args: list[str]
    files: int  # snapshot files that survive the built-in filters
    commits: int  # non-merge commits, each with at least one A/M/R change
    developers: int  # developers after alias resolution, as the CLI runs it
    truck_factor: int | None = None  # closed form, where ownership is planted


@dataclass(frozen=True)
class Identity:
    name: str
    email: str


class NameRegistry:
    """Hands out developer names that no other developer's name is within one
    edit of (see the module docstring)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.owner: dict[str, int] = {}

    @staticmethod
    def keys(name: str) -> set[str]:
        folded = name.strip().casefold()
        return {folded} | {folded[:i] + folded[i + 1 :] for i in range(len(folded))}

    def claim(self, name: str, dev: int) -> bool:
        keys = self.keys(name)
        if any(self.owner.get(key, dev) != dev for key in keys):
            return False
        for key in keys:
            self.owner[key] = dev
        return True

    def _word(self) -> str:
        rng = self.rng
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        return (word + rng.choice(_CODAS)).capitalize()

    def person(self, dev: int) -> tuple[str, str]:
        """A fresh (first, last) pair whose full name ``dev`` now owns."""
        while True:
            first, last = self._word(), self._word()
            if self.claim(f"{first} {last}", dev):
                return first, last

    def typo(self, name: str, dev: int) -> str:
        """``name`` with one letter substituted, claimed for ``dev``."""
        while True:
            i = self.rng.randrange(len(name))
            if name[i] == " ":
                continue
            letter = self.rng.choice(_LETTERS)
            if letter == name[i].lower():
                continue
            if name[i].isupper():
                letter = letter.upper()
            variant = name[:i] + letter + name[i + 1 :]
            if self.claim(variant, dev):
                return variant

    def handle(self, first: str, last: str, dev: int) -> str:
        """A login-style name for ``dev``; redrawn until it claims cleanly."""
        base = (first[0] + last).lower()
        for n in range(1000):
            candidate = base if n == 0 else f"{base}{n}"
            if self.claim(candidate, dev):
                return candidate
        raise RuntimeError(f"no free handle for {first} {last}")


class Stream:
    """Accumulates a fast-import stream; commits get marks and a fixed clock."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.marks = 0
        self.clock = EPOCH
        self.non_merge = 0

    def commit(
        self,
        ref: str,
        who: Identity,
        ops: list[str],
        parent: int | None = None,
        merge: int | None = None,
    ) -> int:
        if not ops and merge is None:
            raise ValueError("a non-merge commit needs at least one change")
        self.marks += 1
        self.clock += 97
        if merge is None:
            self.non_merge += 1
        message = f"change {self.marks}\n"
        stamp = f"{who.name} <{who.email}> {self.clock} +0000"
        lines = [
            f"commit {ref}",
            f"mark :{self.marks}",
            f"author {stamp}",
            f"committer {stamp}",
            f"data {len(message)}",
            message.rstrip("\n"),
        ]
        if parent is not None:
            lines.append(f"from :{parent}")
        if merge is not None:
            lines.append(f"merge :{merge}")
        self.parts.append("\n".join(lines) + "\n" + "".join(ops) + "\n")
        return self.marks

    def finish(self) -> bytes:
        return ("".join(self.parts) + "done\n").encode("ascii")


def put(path: str, content: str) -> str:
    """A filemodify command carrying ``content`` inline."""
    return f"M 100644 inline {path}\ndata {len(content)}\n{content}\n"


def rename(old: str, new: str) -> str:
    return f"R {old} {new}\n"


def closed_form_truck_factor(sizes: list[int], threshold: float = 0.5) -> int:
    """The greedy estimate when every file has exactly one author.

    Authors leave largest first; the count includes the removal that takes
    coverage below ``threshold``, matching the estimator's loop.
    """
    total = sum(sizes)
    covered = total
    removed = 0
    for size in sorted(sizes, reverse=True):
        if covered / total < threshold:
            break
        covered -= size
        removed += 1
    return removed


def _zipf_weights(n: int, skew: float) -> list[float]:
    return [1.0 / (i + 1) ** skew for i in range(n)]


class _PathPool:
    """Live paths with cheap random choice and in-place renames, grouped by
    directory so a commit can touch neighbouring files."""

    def __init__(self) -> None:
        self.items: list[str] = []
        self.index: dict[str, int] = {}
        self.by_dir: dict[str, list[str]] = {}

    def add(self, path: str) -> None:
        self.index[path] = len(self.items)
        self.items.append(path)
        self.by_dir.setdefault(path.rpartition("/")[0], []).append(path)

    def replace(self, old: str, new: str) -> None:
        """Rename within one directory."""
        i = self.index.pop(old)
        self.items[i] = new
        self.index[new] = i
        siblings = self.by_dir[old.rpartition("/")[0]]
        siblings[siblings.index(old)] = new

    def sample(self, rng: random.Random, k: int, avoid: set[str]) -> list[str]:
        """Up to ``k`` distinct paths outside ``avoid``: one at random, the
        rest from its directory, as most commits touch related files."""
        picked: list[str] = []
        for _ in range(4 * k):
            if len(picked) == k or not self.items:
                break
            if picked:
                siblings = self.by_dir[picked[0].rpartition("/")[0]]
                path = siblings[rng.randrange(len(siblings))]
            else:
                path = self.items[rng.randrange(len(self.items))]
            if path not in avoid and path not in picked:
                picked.append(path)
        return picked


SIZES = {
    # name: {size: parameters}
    "deep-history": {
        "full": dict(commits=20000, sources=8000, vendored=2000, docs=800, images=400,
                     developers=60, renames=480, topic_every=200),
        "tiny": dict(commits=600, sources=160, vendored=40, docs=16, images=8,
                     developers=8, renames=10, topic_every=60),
    },
    "crowd": {
        "full": dict(developers=450, case_variants=75, typo_variants=75,
                     files=7500, commits=3000),
        "tiny": dict(developers=30, case_variants=6, typo_variants=6,
                     files=300, commits=120),
    },
    "audit": {
        "full": dict(commits=4000, files=2000, developers=40, case_variants=5,
                     typo_variants=8),
        "tiny": dict(commits=300, files=80, developers=6, case_variants=1,
                     typo_variants=2),
    },
}


def deep_history(seed: int, size: str = "full") -> Plan:
    """Long history over many files; few developers whose names never merge.

    Source files arrive over the first 60% of the history and are then
    modified one to four at a time; about 5% are renamed, some of them
    twice.  Vendored libraries, documentation and images come and go in
    the same history but are excluded from the snapshot.  Every
    ``topic_every`` commits a short topic branch modifies a few files while
    the main line carries on elsewhere, and is merged back.
    """
    p = SIZES["deep-history"][size]
    rng = random.Random(f"deep-history:{seed}")
    names = NameRegistry(rng)
    devs = []
    for dev in range(p["developers"]):
        first, last = names.person(dev)
        devs.append(Identity(f"{first} {last}", f"{first}.{last}@example.org".lower()))
    weights = _zipf_weights(len(devs), 0.8)
    first_users = list(range(len(devs)))
    rng.shuffle(first_users)

    stream = Stream()
    revs: dict[str, int] = {}
    ident: dict[str, str] = {}  # path -> stable file identity kept across renames

    touched: set[str] = set()  # paths changed by the commit being built

    def current(path: str) -> str:
        return put(path, f"{ident[path]}\nrev {revs[path]}\n")

    def touch(path: str) -> str:
        touched.add(path)
        revs[path] = revs.get(path, 0) + 1
        return current(path)

    def new_file(path: str) -> str:
        ident[path] = f"file {path}"
        return touch(path)

    n = p["commits"]
    add_until = int(0.6 * n)
    pending_sources = [
        f"src/m{i % 20:02d}/p{i // 20 % 20:02d}/mod{i:05d}.py" for i in range(p["sources"])
    ]
    rng.shuffle(pending_sources)
    pending_docs = [f"docs/s{i % 10}/page{i:04d}.md" for i in range(p["docs"])]
    pending_images = [f"assets/img{i % 8}/icon{i:04d}.png" for i in range(p["images"])]
    vendor_drops = 10
    vendored_per_drop = p["vendored"] // vendor_drops
    drop_at = {int((k + 0.5) * add_until / vendor_drops) for k in range(vendor_drops)}
    vendored: list[str] = []
    sources = _PathPool()
    renamed: list[str] = []
    renames_left = p["renames"]
    locked: set[str] = set()
    topic: list[int] = []  # [fork mark, tip mark] while a topic branch is open
    topic_files: list[str] = []
    main_tip: int | None = None
    drops_done = 0

    i = 0
    while stream.non_merge < n:
        who = devs[first_users[i]] if i < len(devs) else rng.choices(devs, weights)[0]
        ops: list[str] = []
        progress = stream.non_merge
        if progress in drop_at and drops_done < vendor_drops:
            lib = f"vendor/lib{drops_done}" if drops_done % 2 else f"third_party/pkg{drops_done}"
            for j in range(vendored_per_drop):
                path = f"{lib}/{j // 25}/unit{j:04d}.c"
                vendored.append(path)
                ops.append(new_file(path))
            drops_done += 1
        elif vendored and rng.random() < 0.002:
            for path in rng.sample(vendored, min(len(vendored), rng.randint(20, 50))):
                ops.append(touch(path))
        else:
            due = max(1, round(p["sources"] * min(1.0, (progress + 1) / add_until)))
            while p["sources"] - len(pending_sources) < due:
                path = pending_sources.pop()
                sources.add(path)
                ops.append(new_file(path))
            if pending_docs and rng.random() < len(pending_docs) / max(1, add_until - progress):
                ops.append(new_file(pending_docs.pop()))
            if pending_images and rng.random() < len(pending_images) / max(1, add_until - progress):
                ops.append(new_file(pending_images.pop()))
            if renames_left and progress > n // 4 and rng.random() < renames_left / (n - progress):
                pool = renamed if renamed and rng.random() < 0.25 else None
                old = rng.choice(pool) if pool else sources.sample(rng, 1, locked | touched)[0]
                if old not in locked | touched:
                    new = old.replace(".py", f"_r{renames_left}.py")
                    sources.replace(old, new)
                    ident[new] = ident.pop(old)
                    revs[new] = revs.pop(old)
                    if old in renamed:
                        renamed.remove(old)
                    renamed.append(new)
                    touched.add(new)
                    ops.append(rename(old, new))
                    renames_left -= 1
            for path in sources.sample(rng, rng.choice((1, 1, 2, 2, 3, 4)), locked | touched):
                ops.append(touch(path))
        if not ops:
            ops.append(touch(sources.sample(rng, 1, locked)[0]))
        main_tip = stream.commit("refs/heads/main", who, ops)
        touched.clear()
        i += 1

        if topic and i % p["topic_every"] == p["topic_every"] // 2:
            merge_ops = [current(path) for path in topic_files]
            main_tip = stream.commit("refs/heads/main", who, merge_ops, merge=topic[1])
            topic, topic_files, locked = [], [], set()
        elif not topic and i % p["topic_every"] == 0 and stream.non_merge < n - 8:
            topic_files = sources.sample(rng, rng.randint(3, 6), set())
            locked = set(topic_files)
            fork = main_tip
            for k in range(rng.randint(2, 4)):
                side_who = rng.choices(devs, weights)[0]
                changed = rng.sample(topic_files, rng.randint(1, len(topic_files)))
                side_ops = [touch(path) for path in changed]
                tip = stream.commit(
                    "refs/heads/topic", side_who, side_ops, parent=fork if k == 0 else None
                )
                touched.clear()
            topic = [fork, tip]
    if topic:
        merge_ops = [current(path) for path in topic_files]
        stream.commit("refs/heads/main", devs[0], merge_ops, merge=topic[1])

    return Plan(
        stream=stream.finish(),
        cli_args=["--format", "json"],
        files=len(sources.items),
        commits=stream.non_merge,
        developers=len(devs),
    )


def _aliased_developers(
    rng: random.Random, count: int, case_variants: int, typo_variants: int
) -> list[list[Identity]]:
    """``count`` developers, each a list of identities, first one canonical.

    ``case_variants`` developers also commit under a login-style name with
    the email in other letter case, so only the email rule joins them;
    ``typo_variants`` developers also commit under their name with one
    letter substituted and an unrelated email, so only the distance-one
    name rule joins them.
    """
    names = NameRegistry(rng)
    people = [names.person(dev) for dev in range(count)]
    devs = [
        [Identity(f"{first} {last}", f"{first}.{last}@example.org".lower())]
        for first, last in people
    ]
    for dev in rng.sample(range(count), case_variants):
        first, last = people[dev]
        handle = names.handle(first, last, dev)
        devs[dev].append(Identity(handle, f"{first}.{last}@Example.ORG"))
    for dev in rng.sample(range(count), typo_variants):
        first, last = people[dev]
        typo = names.typo(f"{first} {last}", dev)
        devs[dev].append(Identity(typo, f"{last}{dev}@mail.example.net".lower()))
    return devs


def _next_identity(
    identities: list[Identity], used: dict[Identity, int], rng: random.Random
) -> Identity:
    """Each identity's first commit comes before any repeats, so every planted
    identity is guaranteed to appear in the history."""
    for who in identities:
        if who not in used:
            used[who] = 1
            return who
    who = rng.choice(identities)
    used[who] += 1
    return who


def crowd(seed: int, size: str = "full") -> Plan:
    """Many developers, each the only one to touch their own files.

    Raw identities outnumber developers: planted email-case and one-typo
    aliases must collapse to exactly the planted developer count.  File
    ownership is disjoint and uneven, so every file has exactly one author
    and the truck factor has a closed form.
    """
    p = SIZES["crowd"][size]
    rng = random.Random(f"crowd:{seed}")
    devs = _aliased_developers(rng, p["developers"], p["case_variants"], p["typo_variants"])
    n_dev, n_files = len(devs), p["files"]
    # Uneven ownership: Zipf-like shares, every developer owning at least one file.
    weights = _zipf_weights(n_dev, 0.4)
    rng.shuffle(weights)
    sizes = [1] * n_dev
    for dev in rng.choices(range(n_dev), weights, k=n_files - n_dev):
        sizes[dev] += 1
    file_ids = list(range(n_files))
    rng.shuffle(file_ids)
    owned: list[list[str]] = []
    start = 0
    for size_ in sizes:
        ids = file_ids[start : start + size_]
        owned.append([f"src/d{fid % 100:02d}/unit{fid:05d}.c" for fid in ids])
        start += size_
    # Commits per developer: enough for every identity, otherwise by share.
    extra = p["commits"] - sum(len(ids) for ids in devs)
    commits = [len(ids) for ids in devs]
    for dev in rng.choices(range(n_dev), sizes, k=extra):
        commits[dev] += 1
    order = [dev for dev, c in enumerate(commits) for _ in range(c)]
    rng.shuffle(order)

    stream = Stream()
    added = [0] * n_dev
    done = [0] * n_dev
    revs: dict[str, int] = {}
    used: dict[Identity, int] = {}
    for dev in order:
        files = owned[dev]
        remaining_commits = commits[dev] - done[dev]
        batch = -(-(len(files) - added[dev]) // remaining_commits)  # ceil
        ops = []
        for path in files[added[dev] : added[dev] + batch]:
            revs[path] = 1
            ops.append(put(path, f"unit {path}\nrev 1\n"))
        existing = files[: added[dev]]
        added[dev] += batch
        if existing:
            for path in rng.sample(existing, min(len(existing), rng.randint(1, 3))):
                revs[path] += 1
                ops.append(put(path, f"unit {path}\nrev {revs[path]}\n"))
        done[dev] += 1
        stream.commit("refs/heads/main", _next_identity(devs[dev], used, rng), ops)
    if len(used) != sum(len(ids) for ids in devs):
        raise RuntimeError("an identity never committed")
    return Plan(
        stream=stream.finish(),
        cli_args=["--format", "json"],
        files=n_files,
        commits=stream.non_merge,
        developers=n_dev,
        truck_factor=closed_form_truck_factor(sizes),
    )


def audit(seed: int, size: str = "full") -> Plan:
    """A medium history of multi-line files that small teams edit line by
    line, analyzed with the blame cross-check and the alias report.

    Planted one-typo aliases carry their own emails, so with similar-name
    merging off each counts as a developer of its own and is listed as a
    merge candidate instead.
    """
    p = SIZES["audit"][size]
    rng = random.Random(f"audit:{seed}")
    devs = _aliased_developers(rng, p["developers"], p["case_variants"], p["typo_variants"])
    n_dev, n_files, n = len(devs), p["files"], p["commits"]
    weights = _zipf_weights(n_dev, 0.7)
    teams = [rng.sample(range(n_dev), rng.randint(2, 4)) for _ in range(n_files)]
    paths = [f"lib/g{fid % 40:02d}/part{fid:04d}.py" for fid in range(n_files)]
    lines: list[list[str]] = []
    serial = 0

    def text(fid: int) -> str:
        nonlocal serial
        serial += 1
        return f"value_{fid}_{serial} = compute({serial % 97}, {rng.randrange(1000)})"

    stream = Stream()
    used: dict[Identity, int] = {}
    add_until = n // 4
    for i in range(n):
        due = max(1, round(n_files * min(1.0, (i + 1) / add_until)))
        ops = []
        if len(lines) < due:
            dev = teams[len(lines)][0]
            while len(lines) < due:
                fid = len(lines)
                lines.append([text(fid) for _ in range(rng.randint(20, 40))])
                ops.append(put(paths[fid], "\n".join(lines[fid]) + "\n"))
        else:
            fid = rng.randrange(len(lines))
            team = teams[fid]
            dev = rng.choices(team, [weights[d] for d in team])[0]
            others = rng.sample(range(len(lines)), 2)
            targets = [fid] + [f for f in others if dev in teams[f] and f != fid]
            for fid in targets:
                body = lines[fid]
                for _ in range(rng.randint(1, 3)):
                    if rng.random() < 0.2:
                        body.insert(rng.randrange(len(body) + 1), text(fid))
                    else:
                        body[rng.randrange(len(body))] = text(fid)
                ops.append(put(paths[fid], "\n".join(body) + "\n"))
        stream.commit("refs/heads/main", _next_identity(devs[dev], used, rng), ops)
    if len(used) != sum(len(ids) for ids in devs):
        raise RuntimeError("an identity never committed")
    return Plan(
        stream=stream.finish(),
        cli_args=["--format", "json", "--blame-compare", "--alias-report"],
        files=n_files,
        commits=stream.non_merge,
        developers=n_dev + p["typo_variants"],
    )


WORKLOADS = {"deep-history": deep_history, "crowd": crowd, "audit": audit}
