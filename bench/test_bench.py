"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The seed test runs every workload traced, twice, in fresh processes (about
a minute in all).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(workload: str, seed: int, tmp_path: Path) -> dict:
    result = tmp_path / f"{workload}-{seed}.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"), workload, str(seed),
         str(result), "--spans", str(tmp_path / f"spans-{seed}.json")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        timeout=300,
    )
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", ["tables", "brackets", "voronoi"])
def test_seeds_give_identical_answers_and_call_counts(workload, tmp_path):
    first, second = (_traced_run(workload, seed, tmp_path) for seed in (1, 2))
    assert first["failed_checks"] == second["failed_checks"] == []
    assert first["answers"] == second["answers"]
    counts = [
        {k: v for k, v in run["layers"].items() if not k.endswith(".self_s")}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: sum(range(2000)), "leaf")

    def items():
        for _ in range(3):
            leaf()
            yield 1

    search = tracer.wrap_generator(items, "search")
    root = tracer.wrap(lambda: sum(search()) + leaf(), "root")
    assert root() == 2000 * 1999 // 2 + 3

    summary = tracer.summary()
    assert summary["leaf.calls"] == 4
    assert summary["search.calls"] == 1
    assert summary["search.yielded"] == 3
    names = [tracer.names[k] for k in tracer.span_name]
    root_span = names.index("root")
    duration = tracer.span_end[root_span] - tracer.span_start[root_span]
    self_total = sum(summary[f"{n}.self_s"] for n in ("root", "search", "leaf"))
    assert self_total == pytest.approx(duration / 1e9, abs=1e-9)
    for k, name in enumerate(names):
        parent = tracer.span_parent[k]
        if name == "root":
            assert parent == -1
        elif name == "leaf" and parent != root_span:
            assert names[parent] == "search"
