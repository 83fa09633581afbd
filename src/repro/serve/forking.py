"""Pre-forked multi-process serve front-end (SO_REUSEPORT sharding).

One GIL-bound :class:`~http.server.ThreadingHTTPServer` tops out far
below what the array-backed model math can deliver, so the production
front-end runs **N worker processes**, each owning a full serving stack
(socket → handler threads → :class:`~repro.serve.service.PredictionService`
→ :class:`~repro.serve.batching.MicroBatcher` →
:class:`~repro.serve.registry.ModelRegistry`). Every worker binds the
*same* ``host:port`` with ``SO_REUSEPORT``; the kernel hash-shards
accepted connections across the listening sockets, so no userspace
proxy, no shared accept lock, and a dead worker never wedges the
others.

Shared-nothing by design, with three thin seams:

* **models** — workers load trained artifacts from the shared on-disk
  :class:`~repro.pipeline.ArtifactCache`; :meth:`ForkingServer.start`
  pre-trains the warm models once in the parent so workers cold-start
  by disk-loading the *same* artifact (bit-identical predictions across
  workers — asserted by the fan-in test). A worker that races past the
  cache retrains deterministically from the same frozen scenario, which
  produces the same model.
* **metrics** — each worker periodically snapshots its process-local
  :data:`~repro.obs.metrics.REGISTRY` into the pool's ``metrics_dir``;
  ``GET /metrics`` on *any* worker merges every snapshot with
  :func:`repro.obs.metrics.render_merged` into one fleet exposition.
* **supervision** — the parent supervises workers the way the
  :class:`~repro.serve.batching.MicroBatcher` supervises its worker
  thread (PR-4 machinery, one level up): an unexpectedly dead worker is
  restarted with the same worker id, up to ``max_restarts`` times, and
  graceful shutdown SIGTERMs the pool and reaps every child.

Workers are started with the multiprocessing *spawn* method: a forked
interpreter would inherit the parent's live threads/locks (batcher
workers, metric locks) in undefined states, while a spawned one builds
its stack from scratch.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ServeError
from repro.spec import ScenarioSpec, as_scenario

__all__ = ["WorkerConfig", "ForkingServer", "worker_main"]

_READY_POLL_S = 0.05
#: How often a worker checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _require_reuseport() -> None:
    if not hasattr(socket, "SO_REUSEPORT"):
        raise ServeError(
            "this platform lacks SO_REUSEPORT; the forked front-end "
            "needs kernel socket sharding (Linux / macOS)"
        )


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs, in picklable form.

    Shipped to the spawned child as the single argument of
    :func:`worker_main`; every field is a plain value so the config
    crosses the spawn boundary without importing the serving stack in
    the parent's hot path.
    """

    scenario: Mapping[str, Any]
    host: str
    port: int
    worker_id: int
    n_workers: int
    metrics_dir: str
    cache_dir: str | None = None
    max_batch: int = 64
    max_wait_ms: float = 2.0
    warm: tuple[str, ...] = ("BDT",)
    snapshot_interval_s: float = 0.5
    verbose: bool = False
    #: Attach a ModelLifecycle in each worker. The journal lives under
    #: ``lifecycle_dir`` (default: the shared cache's ``lifecycle/``
    #: subtree), so every worker replays the same fsync'd event log —
    #: a promote on any worker flips the active version pool-wide.
    lifecycle: bool = False
    lifecycle_dir: str | None = None

    def spec(self) -> ScenarioSpec:
        """The scenario the worker serves."""
        return ScenarioSpec.from_dict(dict(self.scenario))


class _SnapshotWriter(threading.Thread):
    """Daemon thread dumping the worker's registry for /metrics fan-in."""

    def __init__(self, path: Path, interval_s: float) -> None:
        super().__init__(name="repro-metrics-snapshot", daemon=True)
        self.path = path
        self.interval_s = max(interval_s, 0.05)
        self._stop = threading.Event()

    def write_once(self) -> None:
        """Atomically replace the snapshot file with the current state."""
        from repro.obs.metrics import REGISTRY

        tmp = self.path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(REGISTRY.dump()))
            os.replace(tmp, self.path)
        except OSError:
            pass  # a missed snapshot only staves the aggregation briefly

    def run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write_once()

    def stop(self) -> None:
        """Stop the loop and write one final snapshot."""
        self._stop.set()
        self.write_once()


def worker_main(config: WorkerConfig) -> int:
    """Entry point of one spawned worker process.

    Builds the full serving stack against ``config``, binds the shared
    port with ``SO_REUSEPORT``, warms the configured models (from the
    shared artifact cache when the parent pre-trained them), drops a
    ``ready-<id>.json`` marker for the parent, then serves until
    SIGTERM or until the parent process is gone (a SIGKILLed parent
    cannot reap its pool, so the workers must not outlive it). Either
    way the HTTP server stops accepting, in-flight batches drain through
    :meth:`PredictionService.close`, and the final metrics snapshot is
    flushed so the fleet exposition stays complete.
    """
    # Imports happen here, inside the spawned child, so the parent can
    # construct WorkerConfig without touching numpy or the ML layer.
    from repro.serve.http import PredictionServer
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import PredictionService

    metrics_dir = Path(config.metrics_dir)
    spec = config.spec()
    registry = ModelRegistry(
        cache_dir=Path(config.cache_dir) if config.cache_dir else None
    )
    lifecycle = None
    if config.lifecycle or config.lifecycle_dir is not None:
        from repro.serve.lifecycle import ModelLifecycle

        lifecycle = ModelLifecycle(
            spec, registry=registry, lifecycle_dir=config.lifecycle_dir
        )
    service = PredictionService(
        spec,
        registry=registry,
        max_batch=config.max_batch,
        max_wait_s=config.max_wait_ms / 1e3,
        lifecycle=lifecycle,
    )
    server = PredictionServer(
        service,
        host=config.host,
        port=config.port,
        verbose=config.verbose,
        reuse_port=True,
        worker_id=config.worker_id,
        metrics_dir=metrics_dir,
    )
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates ^C

    if config.warm:
        service.warm(tuple(config.warm))
    writer = _SnapshotWriter(
        metrics_dir / f"metrics-{config.worker_id}.json",
        config.snapshot_interval_s,
    )
    writer.write_once()
    writer.start()
    server.serve_in_background()
    ready = metrics_dir / f"ready-{config.worker_id}.json"
    ready.write_text(json.dumps({"pid": os.getpid(), "port": server.port}))

    parent = multiprocessing.parent_process()
    while not stop.wait(_PARENT_POLL_S):
        if parent is not None and not parent.is_alive():
            break
    writer.stop()
    server.close()
    return 0


class ForkingServer:
    """Supervised pool of SO_REUSEPORT worker processes on one port.

    Parameters
    ----------
    scenario / scenario_kwargs:
        Anything :func:`repro.spec.as_scenario` accepts; every worker
        serves this default scenario.
    workers:
        Worker process count. Each runs a complete single-process stack.
    host / port:
        Shared bind address. ``port=0`` reserves an ephemeral port
        before the first worker starts (the parent holds a bound,
        *non-listening* ``SO_REUSEPORT`` socket for the pool's lifetime,
        so the port cannot be stolen while workers restart).
    cache_dir:
        Shared artifact cache; defaults to the pipeline's. Warm models
        are pre-trained into it by :meth:`start` so workers disk-load
        identical artifacts.
    max_batch / max_wait_ms / warm:
        Per-worker serving knobs (see :func:`repro.serve.create_server`).
    max_restarts:
        Total unexpected-worker-death restarts before the pool gives up
        restarting (the survivors keep serving).

    Use as a context manager, or ``start()`` … ``close()``.
    """

    def __init__(
        self,
        scenario: "ScenarioSpec | Mapping | str" = "emmy",
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        warm: Sequence[str] = ("BDT",),
        max_restarts: int = 5,
        snapshot_interval_s: float = 0.5,
        verbose: bool = False,
        lifecycle: bool = False,
        lifecycle_dir=None,
        **scenario_kwargs: Any,
    ) -> None:
        if workers < 1:
            raise ServeError("workers must be >= 1")
        _require_reuseport()
        self.scenario = as_scenario(scenario, **scenario_kwargs)
        self.workers = workers
        self.host = host
        self._requested_port = port
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.warm = tuple(warm)
        self.lifecycle = bool(lifecycle) or lifecycle_dir is not None
        self.lifecycle_dir = (
            str(lifecycle_dir) if lifecycle_dir is not None else None
        )
        self.max_restarts = max_restarts
        self.snapshot_interval_s = snapshot_interval_s
        self.verbose = verbose
        self.restarts = 0
        self._procs: dict[int, Any] = {}
        self._reserve: socket.socket | None = None
        self._metrics_dir: Path | None = None
        self._supervisor: threading.Thread | None = None
        self._closing = threading.Event()
        self._started = False
        self.port = port

    # -- lifecycle -------------------------------------------------------

    def start(self, timeout: float = 120.0) -> "ForkingServer":
        """Reserve the port, pre-train warm models, spawn + await workers."""
        if self._started:
            return self
        self._metrics_dir = Path(
            tempfile.mkdtemp(prefix="repro-serve-pool-")
        )
        self._reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._reserve.bind((self.host, self._requested_port))
        # Never listen(): a bound-but-closed-state TCP socket is invisible
        # to the kernel's reuseport listener selection, so it only pins
        # the port number for restarting workers.
        self.port = self._reserve.getsockname()[1]
        self._pretrain()
        ctx = multiprocessing.get_context("spawn")
        for worker_id in range(self.workers):
            self._spawn(ctx, worker_id)
        self._await_ready(timeout)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._supervisor.start()
        self._started = True
        return self

    def _pretrain(self) -> None:
        """Train the warm models once so every worker disk-loads them."""
        if not self.warm:
            return
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry(cache_dir=self.cache_dir)
        for model in self.warm:
            registry.get(self.scenario, model)

    def _config(self, worker_id: int) -> WorkerConfig:
        assert self._metrics_dir is not None
        return WorkerConfig(
            scenario=self.scenario.to_dict(),
            host=self.host,
            port=self.port,
            worker_id=worker_id,
            n_workers=self.workers,
            metrics_dir=str(self._metrics_dir),
            cache_dir=str(self.cache_dir) if self.cache_dir else None,
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            warm=self.warm,
            snapshot_interval_s=self.snapshot_interval_s,
            verbose=self.verbose,
            lifecycle=self.lifecycle,
            lifecycle_dir=self.lifecycle_dir,
        )

    def _spawn(self, ctx, worker_id: int) -> None:
        process = ctx.Process(
            target=worker_main,
            args=(self._config(worker_id),),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._procs[worker_id] = process

    def _await_ready(self, timeout: float) -> None:
        assert self._metrics_dir is not None
        deadline = time.monotonic() + timeout
        pending = set(self._procs)
        while pending and time.monotonic() < deadline:
            for worker_id in sorted(pending):
                if (self._metrics_dir / f"ready-{worker_id}.json").is_file():
                    pending.discard(worker_id)
                elif not self._procs[worker_id].is_alive():
                    self.close()
                    raise ServeError(
                        f"serve worker {worker_id} died during startup "
                        f"(exit {self._procs[worker_id].exitcode})"
                    )
            if pending:
                time.sleep(_READY_POLL_S)
        if pending:
            self.close()
            raise ServeError(
                f"serve workers {sorted(pending)} not ready within {timeout}s"
            )

    def _supervise(self) -> None:
        """Restart unexpectedly dead workers, PR-4 style, until closing."""
        ctx = multiprocessing.get_context("spawn")
        while not self._closing.wait(0.2):
            for worker_id, process in list(self._procs.items()):
                if process.is_alive() or self._closing.is_set():
                    continue
                if self.restarts >= self.max_restarts:
                    return  # survivors keep serving; pool stops healing
                self.restarts += 1
                assert self._metrics_dir is not None
                ready = self._metrics_dir / f"ready-{worker_id}.json"
                try:
                    ready.unlink()
                except OSError:
                    pass
                self._spawn(ctx, worker_id)

    def close(self, timeout: float = 10.0) -> None:
        """SIGTERM the pool, reap every worker, release port + scratch."""
        self._closing.set()
        for process in self._procs.values():
            if process.is_alive():
                process.terminate()  # SIGTERM → graceful worker shutdown
        deadline = time.monotonic() + timeout
        for process in self._procs.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        if self._supervisor is not None and self._supervisor.is_alive():
            self._supervisor.join(timeout=2.0)
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        if self._metrics_dir is not None:
            import shutil

            shutil.rmtree(self._metrics_dir, ignore_errors=True)
            self._metrics_dir = None
        self._started = False

    def __enter__(self) -> "ForkingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- inspection ------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` string of the shared listening address."""
        return f"{self.host}:{self.port}"

    def alive_workers(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for p in self._procs.values() if p.is_alive())

    def stats(self) -> dict[str, Any]:
        """Pool-level state: address, worker liveness, restart count."""
        return {
            "address": self.address,
            "workers": self.workers,
            "alive": self.alive_workers(),
            "restarts": self.restarts,
            "pids": {
                worker_id: process.pid
                for worker_id, process in self._procs.items()
            },
            "scenario": self.scenario.to_dict(),
        }
