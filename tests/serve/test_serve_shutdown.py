"""``repro serve`` takes its whole process group down on SIGTERM.

Service managers, container runtimes and plain ``kill`` stop a server
with SIGTERM, not Ctrl-C. SIGTERM must therefore run the same teardown:
the pool SIGTERMs and reaps its spawned workers, the single-process
server drains, and the command exits 0. A worker whose parent is gone
without any teardown (SIGKILL) must not keep serving either.

These tests start the real CLI in its own session and watch every
process of that group, so they are Linux-only (``/proc``).
"""

from __future__ import annotations

import http.client
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or not hasattr(socket, "SO_REUSEPORT"),
    reason="needs /proc and SO_REUSEPORT",
)

_SRC = Path(repro.__file__).resolve().parents[1]
_BOOT_TIMEOUT_S = 120.0
#: Under the pool's 10 s SIGKILL fallback for workers that do not stop
#: on SIGTERM, so a worker that hangs in its teardown fails the test.
_EXIT_TIMEOUT_S = 8.0


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) pids of process group ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


class _Serve:
    """``python -m repro serve`` in a new session, stdout pumped to a queue."""

    def __init__(self, spec, cache_dir: Path, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_SRC), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", str(workers), "--port", "0",
                "--cache-dir", str(cache_dir),
                "--system", spec.system, "--seed", str(spec.seed),
                "--num-nodes", str(spec.num_nodes),
                "--num-users", str(spec.num_users),
                "--horizon-days", str(spec.horizon_days),
                "--max-traces", str(spec.max_traces),
            ],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        self.lines: queue.Queue[str] = queue.Queue()
        self.output: list[str] = []
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)

    def wait_serving(self) -> int:
        """Block until the server prints its address; return the port."""
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.5)
            except queue.Empty:
                assert self.proc.poll() is None, "".join(self.output)
                continue
            self.output.append(line)
            if line.startswith("serving on http://"):
                address = line.split()[2].removeprefix("http://")
                return int(address.rsplit(":", 1)[1])
        raise AssertionError(f"server did not start: {''.join(self.output)}")

    def wait_group_gone(self) -> list[int]:
        """Reap the leader, then wait for the rest; return survivors."""
        deadline = time.monotonic() + _EXIT_TIMEOUT_S
        try:
            self.proc.wait(timeout=_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        while _group_members(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        return _group_members(self.proc.pid)

    def kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=10)


def _idle_client(port: int) -> http.client.HTTPConnection:
    """A keep-alive connection that answered one request and stays open."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", "/v1/healthz")
    response = conn.getresponse()
    response.read()
    assert response.status == 200
    return conn


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_stops_every_process_of_the_server(tiny_spec, serve_cache, workers):
    serve = _Serve(tiny_spec, serve_cache, workers)
    client = None
    try:
        port = serve.wait_serving()
        # An idle keep-alive client must not hold the teardown open.
        client = _idle_client(port)
        if workers > 1:
            # The leader plus its spawned workers are all in the group.
            assert len(_group_members(serve.proc.pid)) >= 1 + workers
        os.kill(serve.proc.pid, signal.SIGTERM)  # the leader only
        survivors = serve.wait_group_gone()
        assert survivors == [], f"still running after SIGTERM: {survivors}"
        assert serve.proc.returncode == 0
    finally:
        if client is not None:
            client.close()
        serve.kill_group()


def test_pool_workers_exit_when_the_parent_is_killed(tiny_spec, serve_cache):
    serve = _Serve(tiny_spec, serve_cache, workers=2)
    try:
        serve.wait_serving()
        os.kill(serve.proc.pid, signal.SIGKILL)  # no teardown can run
        survivors = serve.wait_group_gone()
        assert survivors == [], f"orphaned workers still serving: {survivors}"
    finally:
        serve.kill_group()
