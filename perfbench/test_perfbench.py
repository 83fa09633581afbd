"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced-run tests drive the real command with a one-second budget,
so each takes as long as one workload's set-up plus two iterations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from common import ROOT, ChildError, child_env, group_alive, kill_group, spawn  # noqa: E402
from layers import ITERATION, SPAN_METRICS  # noqa: E402


def run_bench(tmp: Path | None, *args: str) -> subprocess.CompletedProcess:
    cwd = tmp if tmp is not None else ROOT
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=child_env(),
        capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert "setup_s" in run.END_TO_END
    assert set(SPAN_METRICS) <= set(run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "build-stream", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_failed_run_still_prints_a_result(monkeypatch, capsys):
    def crash(args):
        raise ChildError("worker.py exited with 1")

    monkeypatch.setitem(run.RUNNERS, "build-stream", crash)
    code = run.main(["--workload", "build-stream", "--seconds", "1"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}


def test_kill_group_reaps_grandchildren(tmp_path):
    # The leader starts a grandchild that ignores SIGTERM, like a worker
    # pool whose parent exits first; the whole group must still be gone.
    script = (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', "
        "'import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "time.sleep(60)'])\n"
        "time.sleep(60)\n"
    )
    proc = spawn([sys.executable, "-c", script], log=tmp_path / "log")
    time.sleep(0.5)
    kill_group(proc, grace_s=1.0)
    assert proc.poll() is not None
    assert not group_alive(proc.pid)


@pytest.mark.parametrize(
    "workload", ["build-stream", "report-paper", "serve-mixed"]
)
def test_traced_run_reads_back_and_matches_its_table(workload):
    from repro.obs.summary import summarize_trace

    done = run_bench(None, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    trace_line = next(line for line in done.stdout.splitlines()
                      if line.startswith("trace: "))
    trace = Path(trace_line.split()[1])

    summary = summarize_trace(trace)
    self_s: dict[str, float] = {}
    stack = list(summary.roots)
    while stack:
        node = stack.pop()
        self_s[node.name] = self_s.get(node.name, 0.0) + node.self_s
        stack.extend(node.children)
    iterations = sum(1 for r in summary.roots if r.name == ITERATION)
    assert iterations >= 1
    for metric, span in SPAN_METRICS.items():
        printed = result["metrics"][metric]["value"]
        assert printed == pytest.approx(self_s.get(span, 0.0) / iterations,
                                        rel=1e-9, abs=1e-12), metric

    cli = subprocess.run([sys.executable, "-m", "repro", "obs", "summary",
                          str(trace)], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert cli.returncode == 0, cli.stderr
    assert "critical path" in cli.stdout
