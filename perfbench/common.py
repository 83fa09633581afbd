"""Shared, standard-library-only helpers of the benchmark.

Both the orchestrator (``run.py``, which must start and fail cleanly
even where the ``repro`` sources are missing) and the child processes
import this module, so it never imports numpy or ``repro``.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Everything a run leaves behind lives here (git-ignored): the shared
# dataset cache, per-iteration scratch caches, child results, traces.
WORK = ROOT / ".perfbench-work"
CACHE = WORK / "cache"
DEFAULT_SEED = 7
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

# Every workload runs the paper-scale emmy scenario at seed 7 (41,051
# jobs); the streamed build cuts it into 9 chunks. ``--seed`` varies only
# inputs that keep the amount of work fixed (see README.md).
PAPER_SCENARIO = {"system": "emmy", "seed": 7, "max_traces": 2000}
STREAM_CHUNK_JOBS = 5_000
# One repeated split of the Fig 14 protocol per report iteration: 3-4.5 s,
# so a 30-second run takes the median of six or more iterations.
REPORT_REPEATS = 1


# One thread per BLAS/OpenMP pool. A second OpenBLAS thread bought a
# report iteration nothing on a 2-core box (CPU time 1.6x wall time, same
# wall time) but tied its speed to whatever else held the other core:
# two-split report iterations spread 7.5-9.9 s with it, 8.7-9.5 s without.
THREAD_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc keeps freed memory in the process: no mmap'd chunks, no trimming.
# On a VM whose balloon reports freed guest pages to the host, memory a
# process hands back is reclaimed by the host and faulted in again on
# reuse, at a cost that follows the host's load. Each report iteration
# re-faulted about 45,000 pages that way and took 3.8-5.6 s; with these
# settings it faults none and took 3.0-3.6 s.
KEEP_FREED_MEMORY = {"MALLOC_MMAP_MAX_": "0",
                     "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def child_env() -> dict[str, str]:
    """Environment for every child: the in-tree sources, a fixed hash seed,
    single-threaded numerical libraries, freed memory kept in-process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    env.update(dict.fromkeys(THREAD_POOLS, "1"))
    env.update(KEEP_FREED_MEMORY)
    return env


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def entry_digest(entry: Path) -> str:
    """SHA-256 over a cache entry's artifact files.

    ``meta.json`` carries wall times and RSS readings, so it is
    bookkeeping, not the artifact, and stays out of the digest.
    """
    h = hashlib.sha256()
    for path in sorted(entry.iterdir()):
        if path.name == "meta.json":
            continue
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


# -- child processes ------------------------------------------------------


class ChildError(RuntimeError):
    """A child process failed, timed out, or left survivors behind."""


def spawn(argv: list[str], log: Path | None = None) -> subprocess.Popen:
    """Start ``argv`` in its own process group (so teardown can kill it all)."""
    out = log.open("wb") if log is not None else sys.stderr
    try:
        return subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.STDOUT if log is not None else None,
            start_new_session=True,
        )
    finally:
        if log is not None:
            out.close()


def group_alive(pgid: int) -> bool:
    """True while a process of group ``pgid`` is still running.

    Zombies do not count: a killed grandchild stays one until init
    reaps it, which it may do late.
    """
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while we looked
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def kill_group(proc: subprocess.Popen, grace_s: float = 5.0) -> None:
    """SIGTERM the child's whole process group, SIGKILL what lingers.

    Raises :class:`ChildError` if any process of the group survives: a
    stray server or worker would skew every later run on this machine.
    """
    pgid = proc.pid
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace_s
        # poll() reaps the leader, which stays in the group as a zombie.
        while (proc.poll() is None or group_alive(pgid)) and time.monotonic() < deadline:
            time.sleep(0.02)
        if proc.poll() is not None and not group_alive(pgid):
            return
    if proc.poll() is None or group_alive(pgid):
        raise ChildError(f"process group {pgid} survived SIGKILL")


def run_child(script: str, args: list[str], out: Path,
              timeout_s: float = 170.0) -> dict[str, Any]:
    """Run ``perfbench/<script> ... --out <out>``; return its JSON result.

    ``spawn_unix`` (wall clock just before the fork) is added to the
    result so a caller can time the child's set-up from the outside.
    """
    out.unlink(missing_ok=True)
    spawn_unix = time.time()
    proc = spawn([sys.executable, str(BENCH_DIR / script), *args,
                  "--out", str(out)])
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise ChildError(f"{script} {' '.join(args)} timed out") from None
    if group_alive(proc.pid):
        kill_group(proc)
    if code != 0 or not out.is_file():
        raise ChildError(f"{script} {' '.join(args)} exited with {code}")
    result = json.loads(out.read_text())
    result["spawn_unix"] = spawn_unix
    return result


def peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans ----------------------------------------------------------------

_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "perfbench_current_span", default=None
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanRecorder:
    """In-memory spans in the ``repro.obs`` span schema, written at the end.

    Each record has ``name``, ``trace_id``, ``span_id``, ``parent_id``,
    ``run_id``, ``start_unix``, ``end_unix``, ``duration_s``, ``thread``
    and ``attrs``, so ``python -m repro obs summary`` reads the file.
    Durations are kept at full precision: self times computed here and
    from the file read back agree exactly.
    """

    def __init__(self) -> None:
        self.run_id = _new_id()
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time a section; a span opened with no open parent starts a trace."""
        parent = _CURRENT.get()
        span_id = _new_id()
        trace_id = parent[1] if parent is not None else _new_id()
        token = _CURRENT.set((span_id, trace_id))
        start = time.time()
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            duration = time.perf_counter() - t0
            _CURRENT.reset(token)
            record = {
                "name": name, "trace_id": trace_id, "span_id": span_id,
                "parent_id": parent[0] if parent is not None else None,
                "run_id": self.run_id, "start_unix": start,
                "end_unix": start + duration, "duration_s": duration,
                "thread": threading.current_thread().name, "attrs": attrs,
            }
            with self._lock:
                self.records.append(record)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in sorted(self.records, key=lambda r: r["start_unix"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def maybe_span(recorder: SpanRecorder | None, name: str) -> AbstractContextManager:
    """``recorder.span(name)``, or a no-op when the run is untraced."""
    return recorder.span(name) if recorder is not None else nullcontext()


def self_seconds(records: list[dict[str, Any]]) -> dict[str, float]:
    """Total self time per span name.

    Self time is a span's duration minus its children's durations,
    floored at zero: the definition ``repro obs summary`` renders.
    """
    child_total: dict[str, float] = {}
    for r in records:
        if r.get("parent_id"):
            child_total[r["parent_id"]] = (
                child_total.get(r["parent_id"], 0.0) + r["duration_s"]
            )
    totals: dict[str, float] = {}
    for r in records:
        own = max(0.0, r["duration_s"] - child_total.get(r["span_id"], 0.0))
        totals[r["name"]] = totals.get(r["name"], 0.0) + own
    return totals
