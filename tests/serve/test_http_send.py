"""Every HTTP response leaves the server in one send, with TCP_NODELAY.

Two writes per response (status line and headers, then the body) meet
Nagle's algorithm on the server and the client's delayed ACK: the body
sits in the server's send buffer until the client's ~40 ms ACK timer
fires, on every keep-alive request. These tests pin the fix: one socket
write per response, sequential keep-alive requests far under that
timer, and the per-phase histograms that attribute what is left.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve import http as serve_http
from tests.helpers.served import ServedSystem

#: Half the Linux delayed-ACK timer: a response that waited out the
#: timer cannot come in under this.
_STALL_FREE_MS = 20.0


@pytest.fixture(scope="module")
def system(tiny_spec, serve_cache):
    with ServedSystem(tiny_spec, cache_dir=serve_cache, warm=("BDT",)) as s:
        yield s


class _CountingWriter:
    """Wraps a handler's ``wfile``; logs each write, delegates the rest."""

    def __init__(self, raw, log: list[bytes]) -> None:
        self._raw = raw
        self._log = log

    def write(self, data) -> int:
        self._log.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name: str):
        return getattr(self._raw, name)


@pytest.fixture
def writes(monkeypatch):
    """Every socket write the server's handlers make during the test,
    plus each connection's TCP_NODELAY setting."""
    log: list[bytes] = []
    nodelay: list[int] = []
    setup = serve_http._Handler.setup

    def counting_setup(handler) -> None:
        setup(handler)
        nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = _CountingWriter(handler.wfile, log)

    monkeypatch.setattr(serve_http._Handler, "setup", counting_setup)
    return log, nodelay


def _ndjson(records) -> bytes:
    return b"".join(json.dumps(r).encode() + b"\n" for r in records)


@pytest.mark.parametrize(
    "method, path, body, status",
    [
        ("POST", "/v1/predict", "single", 200),
        ("POST", "/v1/predict/bulk?model=BDT", "bulk", 200),
        ("POST", "/v1/predict", "malformed", 400),
        ("GET", "/v1/no-such-endpoint", None, 404),
    ],
    ids=["predict", "bulk", "bad-request", "not-found"],
)
def test_each_response_is_one_write_with_nodelay(
    system, writes, tiny_records, method, path, body, status
):
    log, nodelay = writes
    raw = {
        "single": json.dumps({"model": "BDT", "job": tiny_records[0]}).encode(),
        "bulk": _ndjson(tiny_records[:8]),
        "malformed": b"{not json",
        None: None,
    }[body]
    got, _, data = system.request(method, path, raw_body=raw, raw_response=True)
    assert got == status
    assert len(log) == 1, [len(w) for w in log]
    # The one write is the whole response: status line, headers, body.
    assert log[0].startswith(f"HTTP/1.1 {status} ".encode())
    assert log[0].endswith(b"\r\n\r\n" + data)
    assert nodelay and all(nodelay)


def test_keepalive_requests_do_not_wait_out_the_delayed_ack(system, tiny_records):
    body = json.dumps({"model": "BDT", "job": tiny_records[0]}).encode()
    headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection(system.host, system.port, timeout=30)
    try:
        latencies_ms = []
        for i in range(21):  # the first one opens the connection: not timed
            t0 = time.perf_counter()
            conn.request("POST", "/v1/predict", body=body, headers=headers)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            if i:
                latencies_ms.append((time.perf_counter() - t0) * 1e3)
    finally:
        conn.close()
    assert statistics.median(latencies_ms) < _STALL_FREE_MS, latencies_ms


def _phase_count(delta, phase: str) -> float:
    return delta.get("repro_http_phase_seconds_count", {}).get((phase,), 0.0)


def test_phase_histograms_attribute_each_request(system, tiny_records):
    before = REGISTRY.snapshot()
    status, _, _ = system.post("/v1/predict", {"model": "BDT", "job": tiny_records[1]})
    assert status == 200
    status, _, _ = system.request(
        "POST", "/v1/predict/bulk?model=BDT", raw_body=_ndjson(tiny_records[:4]),
        raw_response=True,
    )
    assert status == 200
    phases = ("read", "parse", "service", "encode", "write")
    # The handler times its write after the send returns, which can be
    # after this client has read the response: allow it a moment.
    deadline = time.monotonic() + 5.0
    while True:
        delta = REGISTRY.delta(before, REGISTRY.snapshot())
        counts = {p: _phase_count(delta, p) for p in phases}
        if min(counts.values()) >= 2 or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert min(counts.values()) >= 2, counts
    # The single-job request went through the micro-batcher; bulk did not.
    assert delta["repro_batch_wait_seconds_count"][()] >= 1
    exposition = system.get("/v1/metrics", raw_response=True)[2].decode()
    assert 'repro_http_phase_seconds_bucket{phase="write",le=' in exposition
    assert "repro_batch_wait_seconds_count" in exposition
