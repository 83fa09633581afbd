"""Stdlib HTTP/JSON front-end for the prediction service.

A :class:`~http.server.ThreadingHTTPServer` whose handler threads feed
the shared :class:`~repro.serve.service.PredictionService` — so N
concurrent HTTP clients become N producer threads whose single-job
requests coalesce in the micro-batcher. No third-party web framework.
With ``reuse_port=True`` several such servers (one per worker process)
bind the same port and the kernel shards accepted connections across
them — see :mod:`repro.serve.forking`.

The HTTP surface is **versioned under** ``/v1/`` (see docs/API.md and
docs/SERVICE.md for payloads):

* ``GET /v1/healthz`` — liveness + request counters + latency snapshot
  (+ ``worker`` id under the forked front-end);
* ``GET /v1/models``  — per-model **lineage**: active version,
  registered versions, shadow candidate + paired-eval evidence, drift
  latch (docs/LIFECYCLE.md);
* ``GET /v1/metrics`` — Prometheus text exposition; process-local by
  default, fleet-aggregated across workers when the server was given a
  ``metrics_dir`` of peer snapshots (docs/OBSERVABILITY.md);
* ``POST /v1/predict`` — ``{"model": "BDT", "jobs": [{"user": ...,
  "nodes": ..., "req_walltime_s": ...}, ...]}`` (or a single ``"job"``)
  with optional ``"scenario"`` overlay and ``"version"`` pin; responds
  with predictions in request order plus per-request latency;
* ``POST /v1/predict/bulk`` — persistent-connection NDJSON bulk mode:
  one job object per body line, one bare-float prediction per response
  line, answered by one vectorized predict (no micro-batcher);
* ``POST /v1/feedback`` — observed job outcomes
  (``{"jobs": [{..., "power_w": ...}]}``) into the lifecycle layer;
* ``POST /v1/admin/promote`` / ``POST /v1/admin/rollback`` — flip the
  active version (journaled, with who/why + shadow evidence);
* ``GET /v1/admin/history`` — the audit journal.

The pre-``/v1`` paths (``/healthz``, ``/models``, ``/metrics``,
``/predict``, ``/predict/bulk``) still answer — they are **deprecation
shims**: same handlers, plus a ``Deprecation: true`` header, a ``Link:
…; rel="successor-version"`` pointer, and a
``repro_http_deprecated_requests_total`` count. Legacy ``/models``
keeps its original service-stats payload; the lineage view is
``/v1/models`` only.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Mapping
from urllib.parse import parse_qs

from repro.errors import ReproError, ScenarioError, ServeError, ValidationError
from repro.faults.injector import active_injector
from repro.obs.metrics import PHASE_BUCKETS, REGISTRY, render_merged
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService

__all__ = ["PredictionServer", "create_server"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Request errors that map to HTTP 400 (caller's fault, not the server's).
_BAD_REQUEST_ERRORS = (ServeError, ScenarioError, ValidationError)

#: The Prometheus text exposition content type (/metrics responses).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The NDJSON content type the bulk endpoint speaks, both directions.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: Legacy path → canonical ``/v1`` successor (the deprecation shims).
_LEGACY_PATHS = {
    "/healthz": "/v1/healthz",
    "/models": "/v1/models",
    "/metrics": "/v1/metrics",
    "/predict": "/v1/predict",
    "/predict/bulk": "/v1/predict/bulk",
}

_KNOWN_ENDPOINTS = frozenset(_LEGACY_PATHS) | frozenset(
    {
        "/v1/healthz",
        "/v1/models",
        "/v1/metrics",
        "/v1/predict",
        "/v1/predict/bulk",
        "/v1/feedback",
        "/v1/admin/promote",
        "/v1/admin/rollback",
        "/v1/admin/history",
    }
)

_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests received, by endpoint (unknown paths count as 'other').",
    labelnames=("endpoint",),
)
_HTTP_RESPONSES = REGISTRY.counter(
    "repro_http_responses_total",
    "HTTP responses sent, by endpoint and status code.",
    labelnames=("endpoint", "status"),
)
_HTTP_DEPRECATED = REGISTRY.counter(
    "repro_http_deprecated_requests_total",
    "Requests answered through a pre-/v1 deprecation-shim path.",
    labelnames=("endpoint",),
)
_HTTP_PHASE = REGISTRY.histogram(
    "repro_http_phase_seconds",
    "Handler time per request phase: read (body off the socket), parse "
    "(JSON/NDJSON decode), service (prediction call), encode (response "
    "body), write (the one send).",
    labelnames=("phase",),
    buckets=PHASE_BUCKETS,
)


@contextmanager
def _phase(name: str) -> Iterator[None]:
    """Time the block into ``repro_http_phase_seconds{phase=name}``."""
    t0 = perf_counter()
    try:
        yield
    finally:
        _HTTP_PHASE.observe(perf_counter() - t0, phase=name)


def _endpoint_label(path: str) -> str:
    """Bounded-cardinality endpoint label for the HTTP counters."""
    path = path.partition("?")[0]
    return path if path in _KNOWN_ENDPOINTS else "other"


def _float_repr(value: float) -> str:
    """Shortest round-tripping decimal form of one prediction.

    ``repr`` floats parse back bit-identically (and are valid JSON for
    finite values), so NDJSON response lines carry exact predictions
    without the dict/format overhead of ``json.dumps``.
    """
    return repr(float(value))


def _parse_ndjson(raw: bytes) -> list[Any]:
    """The job objects of an NDJSON bulk body, one per non-blank line."""
    records: list[Any] = []
    for lineno, line in enumerate(raw.split(b"\n"), start=1):
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServeError(f"invalid NDJSON on line {lineno}: {exc}") from None
        if not isinstance(record, Mapping):
            raise ServeError(f"line {lineno} must be a JSON job object")
        records.append(record)
    if not records:
        raise ServeError("bulk request body has no job lines")
    return records


class _Handler(BaseHTTPRequestHandler):
    """Routes the versioned endpoints (and their shims) onto the service."""

    server: "PredictionServer"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every connection. Our own responses already leave
    #: in one send; this keeps the stdlib's two-write ``send_error``
    #: replies (bad request line, 414, 501) from stalling on Nagle too.
    disable_nagle_algorithm = True

    #: Set per request when the legacy path was used: the successor URL
    #: advertised in the deprecation headers.
    _successor: str | None = None

    # -- helpers ---------------------------------------------------------

    def _route(self, path: str) -> str:
        """Canonical ``/v1`` path for a request path; flags legacy use."""
        self._successor = None
        successor = _LEGACY_PATHS.get(path)
        if successor is not None:
            self._successor = successor
            _HTTP_DEPRECATED.inc(endpoint=path)
            return successor
        return path

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        """Write one whole response (status line, headers, body) in one send.

        Two sends per response (headers, then body) meet Nagle's
        algorithm on this side and the client's delayed ACK on the
        other: the body waits out the ~40 ms ACK timer on every request.
        One write puts the response on the wire at once; ``headers`` are
        the route's extra ``X-*`` fields.
        """
        _HTTP_RESPONSES.inc(endpoint=_endpoint_label(self.path), status=status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._successor is not None:
            self.send_header("Deprecation", "true")
            self.send_header(
                "Link", f'<{self._successor}>; rel="successor-version"'
            )
        if self.server.worker_id is not None:
            self.send_header("X-Worker", str(self.server.worker_id))
        # end_headers() would flush the headers as a write of their own:
        # append the blank line and the body to the stdlib's header
        # buffer instead, so flush_headers() sends everything at once.
        self._headers_buffer.extend((b"\r\n", body))
        with _phase("write"):
            self.flush_headers()

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        with _phase("encode"):
            body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ServeError("request body required")
        if length > _MAX_BODY_BYTES:
            raise ServeError(f"request body over {_MAX_BODY_BYTES} bytes")
        with _phase("read"):
            return self.rfile.read(length)

    def _read_json(self) -> Any:
        raw = self._read_body()
        with _phase("parse"):
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServeError(f"invalid JSON body: {exc}") from None

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        raw_path, _, query = self.path.partition("?")
        _HTTP_REQUESTS.inc(endpoint=_endpoint_label(raw_path))
        path = self._route(raw_path)
        service = self.server.service
        if path == "/v1/metrics":
            self._send_body(
                200, self.server.render_metrics().encode("utf-8"),
                METRICS_CONTENT_TYPE,
            )
        elif path == "/v1/healthz":
            snap = service.latency.snapshot()
            payload = {
                **service.health(),
                "requests": snap["count"],
                "latency": snap,
            }
            if self.server.worker_id is not None:
                payload["worker"] = self.server.worker_id
            injector = active_injector()
            if injector is not None:
                payload["faults"] = injector.snapshot()
            self._send_json(200, payload)
        elif path == "/v1/models":
            # The legacy path keeps its original service-stats payload;
            # the canonical path answers with the lineage view.
            if raw_path == "/models":
                payload = service.stats()
            else:
                payload = service.lineage_stats()
            if self.server.worker_id is not None:
                payload["worker"] = self.server.worker_id
            self._send_json(200, payload)
        elif path == "/v1/admin/history":
            lifecycle = service.lifecycle
            if lifecycle is None:
                self._send_error_json(400, "lifecycle disabled on this server")
                return
            params = parse_qs(query)
            model = params.get("model", [None])[0]
            try:
                events = lifecycle.history(model)
            except _BAD_REQUEST_ERRORS as exc:
                self._send_error_json(400, str(exc))
                return
            self._send_json(
                200,
                {
                    "events": events,
                    "journal": str(lifecycle.journal.path),
                    "damaged_lines": lifecycle.journal.damaged_lines,
                },
            )
        else:
            self._send_error_json(404, f"no such endpoint {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802
        raw_path, _, query = self.path.partition("?")
        _HTTP_REQUESTS.inc(endpoint=_endpoint_label(raw_path))
        path = self._route(raw_path)
        if path == "/v1/predict/bulk":
            self._post_bulk(query)
            return
        if path == "/v1/feedback":
            self._post_feedback()
            return
        if path in ("/v1/admin/promote", "/v1/admin/rollback"):
            self._post_admin(path.rsplit("/", 1)[1])
            return
        if path != "/v1/predict":
            self._send_error_json(404, f"no such endpoint {self.path!r}")
            return
        t0 = perf_counter()
        try:
            payload = self._read_json()
            if not isinstance(payload, Mapping):
                raise ServeError("request body must be a JSON object")
            jobs = payload.get("jobs")
            if jobs is None:
                job = payload.get("job")
                jobs = [job] if job is not None else None
            if not jobs or not isinstance(jobs, list):
                raise ServeError('request needs "jobs": [...] or "job": {...}')
            model = payload.get("model", "BDT")
            scenario = payload.get("scenario")
            version = payload.get("version")
            with _phase("service"):
                detail = self.server.service.predict_request(
                    jobs, model=model, scenario=scenario, version=version
                )
        except _BAD_REQUEST_ERRORS as exc:
            self._send_error_json(400, str(exc))
            return
        except ReproError as exc:
            self._send_error_json(500, str(exc))
            return
        except Exception as exc:  # a handler thread must never die silently
            self._send_error_json(500, f"internal error: {exc}")
            return
        spec = self.server.service.resolve_scenario(scenario)
        self._send_json(
            200,
            {
                "model": model,
                "served_by": detail.served_by,
                "version": detail.version,
                "degraded": detail.degraded,
                "dataset_digest": spec.dataset_digest,
                # repr-based JSON floats round-trip exactly: the decoded
                # predictions are bit-identical to the in-process ones.
                "predictions": [float(p) for p in detail.predictions],
                "n": len(detail.predictions),
                "latency_ms": round((perf_counter() - t0) * 1e3, 3),
            },
        )

    def _post_feedback(self) -> None:
        """``POST /v1/feedback``: observed outcomes into the lifecycle."""
        try:
            payload = self._read_json()
            if not isinstance(payload, Mapping):
                raise ServeError("request body must be a JSON object")
            jobs = payload.get("jobs", payload.get("records"))
            if not jobs or not isinstance(jobs, list):
                raise ServeError('feedback needs "jobs": [...]')
            outcome = self.server.service.feedback(jobs)
        except _BAD_REQUEST_ERRORS as exc:
            self._send_error_json(400, str(exc))
            return
        except ReproError as exc:
            self._send_error_json(500, str(exc))
            return
        except Exception as exc:  # a handler thread must never die silently
            self._send_error_json(500, f"internal error: {exc}")
            return
        self._send_json(200, outcome)

    def _post_admin(self, verb: str) -> None:
        """``POST /v1/admin/promote|rollback``: journaled version flips."""
        lifecycle = self.server.service.lifecycle
        if lifecycle is None:
            self._send_error_json(400, "lifecycle disabled on this server")
            return
        try:
            payload = self._read_json()
            if not isinstance(payload, Mapping):
                raise ServeError("request body must be a JSON object")
            model = payload.get("model")
            if not isinstance(model, str):
                raise ServeError('admin request needs "model"')
            who = str(payload.get("who", "http"))
            why = str(payload.get("why", ""))
            if verb == "promote":
                version = payload.get("version")
                if not isinstance(version, int):
                    raise ServeError('promote needs an integer "version"')
                event = lifecycle.promote(model, version, who=who, why=why)
            else:
                to_version = payload.get("to_version")
                if to_version is not None and not isinstance(to_version, int):
                    raise ServeError('"to_version" must be an integer')
                event = lifecycle.rollback(model, to_version, who=who, why=why)
        except _BAD_REQUEST_ERRORS as exc:
            self._send_error_json(400, str(exc))
            return
        except ReproError as exc:
            self._send_error_json(500, str(exc))
            return
        except Exception as exc:  # a handler thread must never die silently
            self._send_error_json(500, f"internal error: {exc}")
            return
        self._send_json(200, {"event": event, "active": lifecycle.active_version(model)})

    def _post_bulk(self, query: str) -> None:
        """The NDJSON bulk mode: one job per body line, one float per
        response line.

        Model and scenario overlay travel in the query string
        (``/predict/bulk?model=BDT``) so the body stays a pure stream of
        job objects. The body is split once and each line is decoded
        straight from its bytes — no intermediate envelope dict, no
        per-record response objects — and the whole batch is answered by
        one vectorized :meth:`PredictionService.predict_bulk` call.
        Response lines are ``repr``-formatted floats (valid JSON), so
        decoded predictions are bit-identical to the in-process ones;
        batch-level metadata rides in ``X-Model`` / ``X-Served-By`` /
        ``X-Degraded`` headers.
        """
        try:
            params = parse_qs(query)
            model = params.get("model", ["BDT"])[0]
            scenario = None
            if "scenario" in params:
                try:
                    scenario = json.loads(params["scenario"][0])
                except json.JSONDecodeError as exc:
                    raise ServeError(
                        f"scenario query param is not JSON: {exc}"
                    ) from None
                if not isinstance(scenario, Mapping):
                    raise ServeError("scenario query param must be a JSON object")
            version = None
            if "version" in params:
                try:
                    version = int(params["version"][0])
                except ValueError:
                    raise ServeError(
                        "version query param must be an integer"
                    ) from None
            raw = self._read_body()
            with _phase("parse"):
                records = _parse_ndjson(raw)
            with _phase("service"):
                detail = self.server.service.predict_request(
                    records, model=model, scenario=scenario, mode="bulk",
                    version=version,
                )
        except _BAD_REQUEST_ERRORS as exc:
            self._send_error_json(400, str(exc))
            return
        except ReproError as exc:
            self._send_error_json(500, str(exc))
            return
        except Exception as exc:  # a handler thread must never die silently
            self._send_error_json(500, f"internal error: {exc}")
            return
        with _phase("encode"):
            body = "\n".join(
                _float_repr(p) for p in detail.predictions
            ).encode("ascii") + b"\n"
        self._send_body(
            200,
            body,
            NDJSON_CONTENT_TYPE,
            {
                "X-Model": model,
                "X-Served-By": detail.served_by,
                "X-Version": str(detail.version),
                "X-Degraded": "1" if detail.degraded else "0",
                "X-N": str(len(detail.predictions)),
            },
        )


class PredictionServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`PredictionService`.

    ``port=0`` binds an ephemeral port (tests, the bench harness);
    :attr:`address` reports the resolved ``host:port``. Use as a context
    manager, or call :meth:`shutdown` then :meth:`server_close`.

    Multi-process mode (:mod:`repro.serve.forking`) passes three extra
    knobs: ``reuse_port`` makes the bind set ``SO_REUSEPORT`` so sibling
    worker processes share one port and the kernel load-balances
    accepted connections; ``worker_id`` tags ``/healthz`` and
    ``/models`` responses; ``metrics_dir`` points at the directory of
    peer metric snapshots that :meth:`render_metrics` merges into a
    fleet-wide ``/metrics`` exposition.
    """

    daemon_threads = True

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        reuse_port: bool = False,
        worker_id: int | None = None,
        metrics_dir: "Path | str | None" = None,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.worker_id = worker_id
        self.metrics_dir = Path(metrics_dir) if metrics_dir is not None else None
        # socketserver.TCPServer applies this in server_bind (3.11+).
        self.allow_reuse_port = reuse_port
        self._serving = False
        super().__init__((host, port), _Handler)

    def render_metrics(self) -> str:
        """The ``/metrics`` exposition body.

        Process-local registry by default; when ``metrics_dir`` is set,
        the live local registry is merged with every peer worker's
        latest on-disk snapshot (``metrics-<worker>.json``) so any
        worker answers for the whole fleet. A torn or half-written peer
        snapshot is skipped — stale-but-consistent beats corrupt.
        """
        if self.metrics_dir is None:
            return REGISTRY.render()
        states = [REGISTRY.dump()]
        own = (
            None
            if self.worker_id is None
            else self.metrics_dir / f"metrics-{self.worker_id}.json"
        )
        for path in sorted(self.metrics_dir.glob("metrics-*.json")):
            if own is not None and path == own:
                continue  # our own snapshot is stale vs the live registry
            try:
                states.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue
        return render_merged(states)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Blocking serve loop (``close`` from another thread stops it)."""
        self._serving = True
        super().serve_forever(poll_interval=poll_interval)

    @property
    def port(self) -> int:
        """The bound TCP port (resolved, even when constructed with 0)."""
        return self.server_address[1]

    @property
    def address(self) -> str:
        """``host:port`` string of the bound socket."""
        return f"{self.server_address[0]}:{self.port}"

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread and return it."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        """Stop serving, close the socket, and shut the service down."""
        if self._serving:
            self.shutdown()
            self._serving = False
        self.server_close()
        self.service.close()

    def __exit__(self, *exc_info) -> None:
        self.close()


def create_server(
    scenario="emmy",
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir=None,
    registry=None,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    warm: tuple[str, ...] = (),
    verbose: bool = False,
    lifecycle: bool = False,
    lifecycle_dir=None,
    **scenario_kwargs,
) -> PredictionServer:
    """Build a ready-to-serve :class:`PredictionServer` for one scenario.

    ``scenario``/``scenario_kwargs`` go through the
    :func:`repro.spec.as_scenario` shim, so both a
    :class:`~repro.spec.ScenarioSpec` and the legacy keyword style work.
    ``warm`` names models to train/load before the socket starts
    answering (e.g. ``("BDT",)``). ``lifecycle=True`` (or a
    ``lifecycle_dir``) attaches a
    :class:`~repro.serve.lifecycle.ModelLifecycle`, enabling
    ``/v1/feedback``, shadow evaluation, and the admin verbs
    (docs/LIFECYCLE.md). The caller owns the server: call
    ``serve_forever`` (or :meth:`PredictionServer.serve_in_background`)
    and :meth:`PredictionServer.close`.
    """
    from repro.spec import as_scenario

    spec = as_scenario(scenario, **scenario_kwargs)
    if registry is None:
        registry = ModelRegistry(cache_dir=cache_dir)
    manager = None
    if lifecycle or lifecycle_dir is not None:
        from repro.serve.lifecycle import ModelLifecycle

        manager = ModelLifecycle(
            spec, registry=registry, lifecycle_dir=lifecycle_dir
        )
    service = PredictionService(
        spec,
        registry=registry,
        max_batch=max_batch,
        max_wait_s=max_wait_ms / 1e3,
        lifecycle=manager,
    )
    server = PredictionServer(service, host=host, port=port, verbose=verbose)
    if warm:
        service.warm(warm)
    return server
