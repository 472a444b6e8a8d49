"""The truckfactor benchmark: seeded synthetic repositories, the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep-history --seed 1 --seconds 15 --trace 0

One run builds the workload's bare repository with ``git fast-import`` from
the seed, then analyzes it with ``python3 -m truckfactor.cli`` taken from
``src`` of this checkout.  It is a closed loop with one client: each
analysis is a fresh process, started only after the previous one exited.

``--trace 0`` builds the repository three times (``setup_s`` is the median
build), discards one warm-up analysis, and times analyses for ``--seconds``
seconds.  ``--trace 1`` builds once, runs one reference analysis, and hands
the repository to ``tracer.py`` for the per-layer metrics.  Every report is
checked (see :class:`Checker`); a run fails when the CLI exits non-zero or
its report fails a check.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the environment and the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
BUILDS = 3  # setup_s is the median of this many builds
DEADLINE_S = 170.0  # children still running then are killed and count as failed


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's package, no user or
    system git configuration."""
    return {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CONFIG_GLOBAL": os.devnull,
    }


def describe_environment() -> str:
    git = subprocess.run(
        ["git", "--version"], capture_output=True, text=True, check=True
    ).stdout.strip()
    return (
        f"environment: {git}; python {platform.python_version()}; "
        f"nproc {len(os.sched_getaffinity(0))}"
    )


def build(workload: str, seed: int, size: str, dest: Path) -> tuple[gen.Plan, float]:
    """Generate and import one bare repository; the plan and the seconds taken."""
    started = time.perf_counter()
    plan = gen.WORKLOADS[workload](seed, size)
    env = child_env()
    subprocess.run(["git", "init", "--bare", "-q", "-b", "main", str(dest)], check=True, env=env)
    subprocess.run(
        ["git", "fast-import", "--quiet"], input=plan.stream, cwd=dest, check=True, env=env
    )
    return plan, time.perf_counter() - started


def report_digest(report: dict) -> str:
    """SHA-256 of the JSON report without its ``repository`` field."""
    rest = {key: value for key, value in report.items() if key != "repository"}
    return hashlib.sha256(json.dumps(rest, indent=2, sort_keys=True).encode()).hexdigest()


class Checker:
    """Checks each report against the plan, the recorded digest and the first
    report of this run (byte for byte)."""

    def __init__(self, plan: gen.Plan, expected_digest: str | None):
        self.plan = plan
        self.expected_digest = expected_digest
        self.reference: bytes | None = None
        self.digest: str | None = None

    def check(self, code: int, output: bytes) -> str | None:
        """None when the run is correct, else what is wrong with it."""
        if code != 0:
            return f"exit status {code}"
        if self.reference is not None:
            return None if output == self.reference else "report differs from the first report"
        try:
            report = json.loads(output)
        except ValueError as exc:
            return f"unreadable report: {exc}"
        plan = self.plan
        planted = {"files": plan.files, "commits": plan.commits, "developers": plan.developers}
        totals = report.get("totals", {})
        for key, value in planted.items():
            if totals.get(key) != value:
                return f"totals.{key} is {totals.get(key)}, the generator planted {value}"
        if plan.truck_factor is not None and report.get("truck_factor") != plan.truck_factor:
            return (
                f"truck_factor is {report.get('truck_factor')}, "
                f"the planted ownership gives {plan.truck_factor}"
            )
        digest = report_digest(report)
        if self.expected_digest is not None and digest != self.expected_digest:
            return f"report digest {digest} differs from the recorded {self.expected_digest}"
        self.reference, self.digest = output, digest
        return None


@dataclass
class Analysis:
    wall_s: float
    peak_rss_mb: float
    problem: str | None


def analyze(
    repo: Path, args: list[str], scratch: Path, checker: Checker, deadline: float
) -> Analysis:
    """One CLI process: wall time from spawn to exit, peak RSS of it and any
    git child it waited for (``wait4`` rusage), and the report check."""
    out_path, err_path = scratch / "report.out", scratch / "report.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "truckfactor.cli", str(repo), *args],
            stdout=out, stderr=err, env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no analysis running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    problem = checker.check(proc.returncode, out_path.read_bytes())
    if problem and proc.returncode != 0:
        problem += ": " + err_path.read_text(errors="replace").strip()[-300:]
    return Analysis(wall, usage.ru_maxrss * 1024 / 1e6, problem)


def expected_digest(workload: str, seed: int, size: str) -> str | None:
    if size != "full" or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def record_digest(args: argparse.Namespace, scratch: Path) -> int:
    """Build once, analyze once, and store the report digest if the report
    passes every other check."""
    if args.size != "full":
        raise SystemExit("digests are recorded for --size full only")
    repo = scratch / "repo.git"
    plan, _ = build(args.workload, args.seed, args.size, repo)
    checker = Checker(plan, None)
    run = analyze(repo, plan.cli_args, scratch, checker, time.monotonic() + DEADLINE_S)
    if run.problem:
        print(f"failure: {run.problem}")
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    workload, seed = args.workload, args.seed
    table.setdefault(workload, {})[str(seed)] = checker.digest
    table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"recorded {workload} seed {seed}: {checker.digest}")
    return 0


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def timed_runs(args: argparse.Namespace, scratch: Path, started: float) -> str:
    """Build, warm up, then analyze until ``--seconds`` of analysis time is
    measured.  The other builds happen at even points of that window, so the
    timed analyses span a longer stretch of the machine's load."""
    repo = scratch / "repo.git"
    plan, seconds = build(args.workload, args.seed, args.size, repo)
    builds = [seconds]
    checker = Checker(plan, expected_digest(args.workload, args.seed, args.size))
    deadline = started + DEADLINE_S

    def rebuild() -> None:
        again, seconds = build(args.workload, args.seed, args.size, scratch / "again.git")
        shutil.rmtree(scratch / "again.git")
        if again.stream != plan.stream:
            raise SystemExit("the generator gave different repositories for one seed")
        builds.append(seconds)

    runs = [analyze(repo, plan.cli_args, scratch, checker, deadline)]  # warm-up
    measured = 0.0
    while measured < args.seconds and time.monotonic() < deadline:
        if len(builds) < BUILDS and measured >= args.seconds * len(builds) / BUILDS:
            rebuild()
        runs.append(analyze(repo, plan.cli_args, scratch, checker, deadline))
        measured += runs[-1].wall_s
    while len(builds) < BUILDS:  # the last analysis overran a build point
        rebuild()
    timed = runs[1:]
    good = [run for run in timed if run.problem is None] or timed
    failed = [run for run in runs if run.problem is not None]
    wall = statistics.median(run.wall_s for run in good)
    metrics = {
        "wall_s": (wall, "s"),
        "commits_per_s": (plan.commits / wall, "commits/s"),
        "peak_rss_mb": (statistics.median(run.peak_rss_mb for run in good), "MB"),
        "setup_s": (statistics.median(builds), "s"),
    }
    print(f"setup: {BUILDS} builds of {plan.commits} commits, {plan.files} files, "
          f"{plan.developers} developers; seconds {', '.join(f'{b:.3f}' for b in builds)}")
    print(f"runs: 1 warm-up (discarded) + {len(timed)} timed, closed loop, one client; "
          f"wall_s is their median; seconds, warm-up first: "
          f"{', '.join(f'{r.wall_s:.3f}' for r in runs)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:>12.4f} {unit}")
    print(f"  {'error_rate':<14} {len(failed) / len(runs):>12.4f} failed/attempted "
          f"({len(failed)} of {len(runs)})")
    for run in failed[:5]:
        print(f"  failure: {run.problem}")
    _print_digest(checker)
    return result_line(not failed, len(runs), len(failed), metrics)


def traced_runs(args: argparse.Namespace, scratch: Path, started: float) -> str:
    repo = scratch / "repo.git"
    plan, _ = build(args.workload, args.seed, args.size, repo)
    checker = Checker(plan, expected_digest(args.workload, args.seed, args.size))
    reference = analyze(repo, plan.cli_args, scratch, checker, started + DEADLINE_S)
    out = scratch / "trace.json"
    tracer = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(repo), str(args.seconds), str(out),
         "--", *plan.cli_args],
        env=child_env(), cwd=ROOT, timeout=max(1.0, started + DEADLINE_S - time.monotonic()),
    )
    if tracer.returncode != 0:
        raise SystemExit(f"tracer exited with status {tracer.returncode}")
    trace = json.loads(out.read_text())
    ref_hash = hashlib.sha256(checker.reference or b"").hexdigest()
    mismatched = sum(1 for h in trace["outputs"] if h != ref_hash)
    attempted = 1 + len(trace["outputs"])
    failed = mismatched + (reference.problem is not None)

    metrics: dict[str, tuple[float, str]] = {}
    for name in trace["traced"][0]:
        values = [t[name] for t in trace["traced"]]
        if name.endswith((".s", "_s")):
            metrics[name] = (statistics.median(values), "s")
        else:
            metrics[name] = (statistics.median_low(values), "count")
    overhead = metrics["pipeline.run.s"][0] - statistics.median(trace["untraced_pipeline_s"])
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"trace: 1 reference CLI run, then in process 1 warm-up + "
          f"{len(trace['untraced_pipeline_s'])} untraced and {len(trace['traced'])} traced "
          f"pipeline runs; {mismatched} report(s) differ from the CLI's")
    print(f"  error_rate {failed / attempted:.4f} failed/attempted ({failed} of {attempted})")
    if reference.problem:
        print(f"  failure: {reference.problem}")
    print(f"  {'span':<36} {'calls':>8} {'s':>10} {'self_s':>10} {'p50_ms':>10}")
    for name, row in sorted(trace["spans"].items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {name:<36} {row['calls']:>8} {row['s']:>10.4f} {row['self_s']:>10.4f} "
              f"{row['p50_ms']:>10.3f}")
    _print_digest(checker)
    return result_line(failed == 0, attempted, failed, metrics)


def _print_digest(checker: Checker) -> None:
    state = (
        "no report passed the checks" if checker.digest is None
        else "matches the recorded digest" if checker.expected_digest
        else "no digest recorded for this workload, seed and size"
    )
    print(f"report digest: {checker.digest} ({state})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test; digests exist for full only")
    parser.add_argument("--record", action="store_true",
                        help="only build, analyze once and store the report digest "
                             "in digests.json")
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    if not (SRC / "truckfactor" / "cli.py").is_file():
        print(f"error: no truckfactor sources under {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench: workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print(describe_environment())
    scratch = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.record:
            return record_digest(args, scratch)
        line = (traced_runs if args.trace else timed_runs)(args, scratch, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
