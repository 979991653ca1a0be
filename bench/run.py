"""Cold-process benchmark of perfcone, one workload per computational leg.

    python3 bench/run.py --workload {tables,brackets,voronoi} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  It is a closed loop with one client: it
starts one fresh Python process at a time (`bench/workloads.py`), waits for
it to exit, and starts the next, until another process would overrun
--seconds; at least MIN_PROCESSES run.  Each process sets perfcone up, runs
the whole workload once, checks every answer and exits, so one process is
one operation and a failed process (nonzero exit or a wrong answer) is one
failed operation.

--trace 0 reports the end-to-end metrics, as medians over the processes:
  wall_s       spawn to exit of one process, set-up included, as a command
               line user pays it on every call;
  setup_s      spawn until every perfcone layer is imported and
               cones.catalog(6) is built, also measured in SETUP_PROBES
               set-up-only processes after each workload process;
  peak_rss_mb  the process's peak resident memory, from wait4.
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics of the traced ones (see bench/tracing.py), plus
trace.overhead_s, traced minus untraced median wall time.  The spans of
the last traced process are written to bench/out/spans-<workload>.json.

The last line of standard output is the result, {"correct", "attempted",
"failed", "metrics"}; the line before it records the seed, the environment
and every sample.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SOURCE = ROOT / "src" / "perfcone"

WORKLOADS = ("tables", "brackets", "voronoi")
MIN_PROCESSES = 3
SETUP_PROBES = 1
# Every process is killed once the run reaches this many seconds, which keeps
# a run inside the 180 s a benchmark run may take.
RUN_LIMIT_S = 170.0


class Sample:
    """One finished child process."""

    def __init__(self, kind: str, spawned: float, exited: float, exit_code: int,
                 max_rss_kb: int, result: dict | None):
        self.kind = kind
        self.wall_s = exited - spawned
        self.exit_code = exit_code
        self.peak_rss_mb = max_rss_kb / 1024
        self.result = result
        self.setup_s = result["ready"] - spawned if result else None
        self.ok = exit_code == 0 and result is not None and not result["failed_checks"]

    def record(self) -> dict:
        out = {
            "kind": self.kind,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "exit_code": self.exit_code,
        }
        if self.result:
            out["failed_checks"] = self.result["failed_checks"]
            out["answers_sha256"] = self.result["answers_sha256"]
        return out


def _wait(pid: int, timeout: float):
    """wait4 on `pid`, killing it first if it outlives `timeout` seconds."""

    def kill(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage


def spawn(kind: str, workload: str, seed: int, deadline: float) -> Sample:
    """Run one child process to completion and collect its sample."""
    result_path = OUT / f"result-{workload}-{kind}.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(result_path)]
    if kind == "traced":
        argv += ["--spans", str(OUT / f"spans-{workload}.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    pid = os.posix_spawn(
        sys.executable, argv, env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    try:
        exit_code, usage = _wait(pid, deadline - spawned)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    exited = time.monotonic()
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return Sample(kind, spawned, exited, exit_code, usage.ru_maxrss, result)


def _median(values):
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[Sample]:
    """Closed loop of child processes for about `seconds` seconds."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kinds = ("untraced", "traced") if trace else ("untraced",)
    samples: list[Sample] = []
    rounds = 0
    while True:
        for kind in kinds:
            samples.append(spawn(kind, workload, seed, deadline))
        if not trace:
            for _ in range(SETUP_PROBES):
                samples.append(spawn("setup", "setup", seed, deadline))
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if time.monotonic() + per_round > deadline:
            break
        if rounds >= (1 if trace else MIN_PROCESSES) and elapsed + per_round > seconds:
            break
    return samples


def end_to_end(samples: list[Sample]) -> dict:
    runs = [s for s in samples if s.kind == "untraced" and s.ok]
    setups = [s.setup_s for s in samples if s.ok]
    return {
        "wall_s": _median([s.wall_s for s in runs]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([s.peak_rss_mb for s in runs]),
    }


def per_layer(samples: list[Sample]) -> dict:
    traced = [s for s in samples if s.kind == "traced" and s.ok]
    untraced = [s for s in samples if s.kind == "untraced" and s.ok]
    if not traced or not untraced:
        return {}
    out = {
        name: _median([s.result["layers"][name] for s in traced])
        for name in traced[0].result["layers"]
    }
    out["trace.overhead_s"] = (
        _median([s.wall_s for s in traced]) - _median([s.wall_s for s in untraced])
    )
    return out


def _commit() -> str:
    """HEAD's commit hash, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            # look for .git in ROOT only, never in the directories above it
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    """Informational stamp; gates nothing."""
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SOURCE.glob("*.py"))
        ),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SOURCE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfcone sources or BENCHMARK.json missing under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    # untimed: fails fast on a broken tree and leaves compiled modules behind
    warm = spawn("setup", "setup", args.seed, time.monotonic() + RUN_LIMIT_S)
    if not warm.ok:
        print(f"set-up process failed with exit code {warm.exit_code}", file=sys.stderr)
        return 1

    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = per_layer(samples) if args.trace else end_to_end(samples)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"no value for {missing}; every process failed?", file=sys.stderr)
        return 1

    runs = [s for s in samples if s.kind != "setup"]
    failed = sum(not s.ok for s in runs)
    probes_ok = all(s.ok for s in samples if s.kind == "setup")
    digests = {s.result["answers_sha256"] for s in runs if s.result}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "answers_sha256": sorted(digests),
        "samples": [s.record() for s in samples],
    }
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and probes_ok and len(digests) == 1,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
