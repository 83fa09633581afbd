"""Micro-batching executor: coalesce concurrent requests into one predict.

Requests arrive one record at a time from N client threads; a single
worker thread drains them into batches and issues *one* vectorized
``predict_fn(records)`` call per batch. Because every model's per-row
prediction is independent of its batch-mates (tree walks, KNN distances
against the frozen training set, FLDA projections), a batched prediction
is bit-identical to the prediction the same record would get alone —
batching is purely a throughput lever.

Batch formation is bounded by two knobs:

* ``max_batch`` — hard cap on records per vectorized call;
* ``max_wait_s`` — how long the worker holds an open batch waiting for
  more requests. ``0`` still coalesces whatever is already queued (the
  backlog-drain behavior that gives adaptive batching under load) but
  never waits.

The queue is a plain deque guarded by one :class:`threading.Condition`:
an idle worker sleeps in ``Condition.wait`` until a submit notifies it —
no polling loop, no wakeups while the queue is empty — and the
straggler wait inside an open batch is a bounded ``wait(timeout)``
against the batch deadline rather than a sleep/check spin. Going
through one lock for both the queue and the closed flag also removes a
lock acquisition per request relative to the old ``queue.Queue``-based
implementation.

The worker is *supervised*: if the loop machinery itself dies (a bug, or
the ``batcher.crash`` fault-injection point), the supervisor re-queues
the in-flight batch and restarts the loop, so no accepted request is
ever lost to a worker crash (``predict_fn`` exceptions are not crashes —
they propagate to exactly the waiters of that batch, as before). On
:meth:`~MicroBatcher.close`, anything still queued fails promptly with
:class:`~repro.errors.ServiceClosed` instead of hanging until the client
timeout.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ServeError, ServiceClosed
from repro.faults.injector import maybe_fire
from repro.obs.metrics import PHASE_BUCKETS, REGISTRY

__all__ = ["BatchStats", "MicroBatcher"]

_SENTINEL = object()

#: One queued submission: the record, its future, its submit time.
_Item = tuple[Mapping, Future, float]

# Batching observability (docs/OBSERVABILITY.md): batch-size
# distribution, per-record wait for dispatch, batch/request throughput,
# live queue depth per batcher, and supervised worker restarts.
_BATCH_SIZE = REGISTRY.histogram(
    "repro_batch_size",
    "Records per executed micro-batch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)
_BATCH_WAIT = REGISTRY.histogram(
    "repro_batch_wait_seconds",
    "Per record: submit until its micro-batch is dispatched to predict_fn.",
    buckets=PHASE_BUCKETS,
)
_BATCHES = REGISTRY.counter(
    "repro_batches_total",
    "Micro-batches executed (vectorized predict_fn calls).",
)
_BATCH_REQUESTS = REGISTRY.counter(
    "repro_batch_requests_total",
    "Records answered through micro-batches.",
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_batch_queue_depth",
    "Queued-but-unbatched records, per batcher.",
    labelnames=("batcher",),
)
_CRASHES = REGISTRY.counter(
    "repro_batcher_crashes_total",
    "Supervised batcher worker-loop restarts, per batcher.",
    labelnames=("batcher",),
)


class BatchStats:
    """Thread-safe counters describing how well batching is working."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.n_requests = 0
        self.n_batches = 0
        self.max_batch_seen = 0

    def record(self, batch_size: int) -> None:
        """Fold one executed batch into the counters."""
        with self._lock:
            self.n_requests += batch_size
            self.n_batches += 1
            if batch_size > self.max_batch_seen:
                self.max_batch_seen = batch_size

    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON view (``/models`` endpoint, bench harness)."""
        with self._lock:
            mean = self.n_requests / self.n_batches if self.n_batches else 0.0
            return {
                "n_requests": self.n_requests,
                "n_batches": self.n_batches,
                "mean_batch": round(mean, 3),
                "max_batch": self.max_batch_seen,
            }


class MicroBatcher:
    """One supervised worker thread turning submissions into batches.

    Parameters
    ----------
    predict_fn:
        ``records -> sequence of floats``, called on the worker thread
        with 1..max_batch records.
    max_batch:
        Upper bound on records per ``predict_fn`` call.
    max_wait_s:
        How long to hold an open batch for stragglers once the first
        record arrived.
    max_queue:
        Bound on queued-but-unbatched records; a full queue fails the
        submit with :class:`~repro.errors.ServeError` instead of letting
        latency grow without bound.
    """

    def __init__(
        self,
        predict_fn: Callable[[Sequence[Mapping]], Sequence[float]],
        max_batch: int = 64,
        max_wait_s: float = 0.002,
        max_queue: int = 4096,
        name: str = "batcher",
    ) -> None:
        if max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ServeError("max_wait_s must be >= 0")
        self._predict_fn = predict_fn
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self.name = name
        self.stats = BatchStats()
        self.crashes = 0  # supervised worker-loop restarts
        # One condition guards the deque AND the closed flag, so a
        # future can never slip into the queue after the shutdown drain
        # already ran, and an idle worker sleeps in wait() instead of
        # polling.
        self._cond = threading.Condition()
        self._items: deque = deque()
        self._closed = False
        # The batch the worker currently holds outside the queue; the
        # supervisor re-queues it when the loop crashes mid-batch.
        self._inflight: list[_Item] = []
        self._thread = threading.Thread(
            target=self._run, name=f"repro-serve-{name}", daemon=True
        )
        self._thread.start()

    # -- client side -----------------------------------------------------

    def submit(self, record: Mapping) -> "Future[float]":
        """Enqueue one record; returns a future resolving to its prediction."""
        future: Future[float] = Future()
        with self._cond:
            if self._closed:
                raise ServiceClosed(f"batcher {self.name!r} is closed")
            if len(self._items) >= self.max_queue:
                raise ServeError(
                    f"batcher {self.name!r} queue full "
                    f"({self.max_queue} pending requests)"
                )
            self._items.append((record, future, time.perf_counter()))
            depth = len(self._items)
            self._cond.notify()
        _QUEUE_DEPTH.set(depth, batcher=self.name)
        return future

    def predict(self, record: Mapping, timeout: float | None = 30.0) -> float:
        """Blocking single-record convenience around :meth:`submit`."""
        return self.submit(record).result(timeout=timeout)

    def predict_many(
        self, records: Sequence[Mapping], timeout: float | None = 30.0
    ) -> list[float]:
        """Submit every record, then gather results in request order."""
        futures = [self.submit(r) for r in records]
        return [f.result(timeout=timeout) for f in futures]

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker; anything unserved fails with ServiceClosed.

        Safe against the submit race: once ``_closed`` is set under the
        condition's lock no new futures can enter the queue, and
        everything still queued after the worker exits (or the join
        times out) is failed promptly here instead of hanging until the
        client-side request timeout.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._items.append(_SENTINEL)
            self._cond.notify_all()
        self._thread.join(timeout=timeout)
        self._fail_pending()
        if self._thread.is_alive():
            # The worker is wedged inside predict_fn and the drain above
            # consumed its shutdown sentinel; re-post one so it still
            # exits cleanly once the in-flight call returns.
            with self._cond:
                self._items.append(_SENTINEL)
                self._cond.notify_all()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def alive(self) -> bool:
        """True while the supervised worker thread is running."""
        return self._thread.is_alive()

    @property
    def pending(self) -> int:
        """Requests queued but not yet picked up by the worker."""
        with self._cond:
            return sum(1 for item in self._items if item is not _SENTINEL)

    # -- worker side -----------------------------------------------------

    def _fail_pending(self) -> None:
        """Fail every still-queued future with ServiceClosed."""
        with self._cond:
            items, self._items = list(self._items), deque()
        for item in items:
            if item is not _SENTINEL:
                item[1].set_exception(
                    ServiceClosed(f"batcher {self.name!r} closed")
                )

    def _gather(self) -> list[_Item] | None:
        """Sleep for the first record, then fill the batch until the
        deadline passes or ``max_batch`` is reached. None means shutdown.

        The first wait is unbounded (an idle worker costs nothing); the
        straggler waits are bounded by the remaining slice of
        ``max_wait_s``, re-checked after every wakeup, so the worker
        never busy-sleeps and never oversleeps the batch deadline.
        """
        with self._cond:
            while not self._items:
                self._cond.wait()
            item = self._items.popleft()
            if item is _SENTINEL:
                return None
            batch = [item]
            deadline = time.monotonic() + self.max_wait_s
            while len(batch) < self.max_batch:
                if self._items:
                    item = self._items.popleft()
                    if item is _SENTINEL:
                        # Re-post so the outer loop sees the shutdown
                        # after this batch completes.
                        self._items.appendleft(_SENTINEL)
                        break
                    batch.append(item)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            return batch

    def _requeue(self, inflight: list[_Item]) -> None:
        """Put a crashed loop's in-flight batch back on the queue."""
        overflow: list[Future] = []
        with self._cond:
            for item in inflight:
                # Re-queue rather than fail: every record's result is
                # independent, so a retried prediction is bit-identical
                # to the one the crashed loop would have produced.
                if len(self._items) >= self.max_queue:
                    overflow.append(item[1])
                else:
                    self._items.append(item)
            self._cond.notify_all()
        for future in overflow:
            future.set_exception(
                ServeError(f"batcher {self.name!r} crashed with a full queue")
            )

    def _run(self) -> None:
        """Supervisor: restart a crashed loop without losing requests."""
        while True:
            try:
                self._loop()
                break  # clean sentinel shutdown
            except BaseException:
                self.crashes += 1
                _CRASHES.inc(batcher=self.name)
                inflight, self._inflight = self._inflight, []
                self._requeue(inflight)
                if self._closed:
                    break
        self._fail_pending()

    def _loop(self) -> None:
        while True:
            batch = self._gather()
            with self._cond:
                depth = len(self._items)
            _QUEUE_DEPTH.set(depth, batcher=self.name)
            if batch is None:
                return
            self._inflight = batch
            if maybe_fire("batcher.crash"):
                raise RuntimeError(
                    f"injected fault: batcher.crash in {self.name!r}"
                )
            maybe_fire("batcher.latency")  # injector sleeps when it fires
            dispatched = time.perf_counter()
            records = []
            for record, _, submitted in batch:
                records.append(record)
                _BATCH_WAIT.observe(dispatched - submitted)
            try:
                # Coerce inside the try so a misbehaving predict_fn (wrong
                # type, unsized result) fails this batch's waiters instead
                # of crash-looping the supervisor.
                values = [float(v) for v in self._predict_fn(records)]
                if len(values) != len(batch):
                    raise ServeError(
                        f"predict_fn returned {len(values)} results "
                        f"for a batch of {len(batch)}"
                    )
            except BaseException as exc:  # propagate to every waiter
                self._inflight = []
                for _, future, _ in batch:
                    future.set_exception(exc)
                continue
            self._inflight = []
            for (_, future, _), value in zip(batch, values):
                future.set_result(value)
            self.stats.record(len(batch))
            _BATCH_SIZE.observe(len(batch))
            _BATCHES.inc()
            _BATCH_REQUESTS.inc(len(batch))
