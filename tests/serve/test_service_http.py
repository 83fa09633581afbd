"""PredictionService + HTTP front-end: bit-identity, concurrency, errors.

The acceptance bar for the serving layer is that micro-batched
predictions — in-process or over HTTP, alone or under concurrent load —
are *bit-identical* to calling the fitted predictor directly.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.errors import ScenarioError, ServeError
from repro.serve import PredictionService
from tests.helpers.served import ServedSystem


@pytest.fixture(scope="module")
def service(tiny_spec, serve_cache):
    svc = PredictionService(tiny_spec, cache_dir=serve_cache, max_wait_s=0.001)
    svc.warm(("BDT",))
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def direct(service, tiny_spec, tiny_records):
    """Ground truth: the fitted predictor called without any batching."""
    servable = service.registry.get(tiny_spec, "BDT")
    return servable.predict_records(tiny_records)


@pytest.fixture(scope="module")
def server(service):
    # The shared harness fronts the module-scoped service; stop() tears
    # down only the HTTP server, leaving the service to its own fixture.
    with ServedSystem(service=service) as system:
        yield system


def _http(server, method, path, payload=None):
    status, _, body = server.request(method, path, payload=payload)
    return status, body


# -- in-process ----------------------------------------------------------


def test_batched_predictions_bit_identical_to_direct(service, tiny_records, direct):
    batched = service.predict(tiny_records, model="BDT")
    np.testing.assert_array_equal(batched, direct)


def test_concurrent_clients_get_bit_identical_predictions(
    service, tiny_records, direct
):
    """8 threads of single-job requests: coalesced, still exact."""
    n_threads = 8
    out = np.full(len(tiny_records), np.nan)
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def client(worker: int) -> None:
        barrier.wait()
        try:
            for i in range(worker, len(tiny_records), n_threads):
                out[i] = service.predict([tiny_records[i]], model="BDT")[0]
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(w,)) for w in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    np.testing.assert_array_equal(out, direct)
    stats = service.stats()
    total = sum(s["n_requests"] for s in stats["batchers"].values())
    assert total >= len(tiny_records)


def test_unknown_user_fails_alone_without_poisoning_the_batcher(
    service, tiny_records
):
    bad = {"user": "not-a-user", "nodes": 2, "req_walltime_s": 600}
    with pytest.raises(ServeError, match="unknown user"):
        service.predict([bad], model="BDT")
    # The online model backs off instead of rejecting.
    assert service.predict([bad], model="online")[0] > 0
    # And the BDT batcher still serves good requests.
    assert np.isfinite(service.predict(tiny_records[:2], model="BDT")).all()


def test_malformed_records_rejected(service):
    with pytest.raises(ServeError, match="lacks fields"):
        service.predict([{"user": "u"}])
    with pytest.raises(ServeError, match="nodes must be >= 1"):
        service.predict([{"user": "u", "nodes": 0, "req_walltime_s": 60}])
    with pytest.raises(ServeError, match="must be positive"):
        service.predict([{"user": "u", "nodes": 1, "req_walltime_s": 0}])
    with pytest.raises(ServeError, match="must be numeric"):
        service.predict([{"user": "u", "nodes": "many", "req_walltime_s": 60}])
    with pytest.raises(ServeError, match="at least one record"):
        service.predict([])


def test_scenario_overlay_changes_only_named_fields(service, tiny_spec):
    spec = service.resolve_scenario({"max_traces": 7})
    assert spec.max_traces == 7
    assert spec.replace(max_traces=tiny_spec.max_traces) == tiny_spec
    # Legacy horizon_s overlays convert, replacing the base horizon.
    assert service.resolve_scenario({"horizon_s": 86400}).horizon_days == 1.0
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        service.resolve_scenario({"nodes": 12})


def test_service_stats_shape(service, tiny_spec):
    stats = service.stats()
    assert stats["scenario"] == tiny_spec.to_dict()
    assert stats["dataset_digest"] == tiny_spec.dataset_digest
    assert stats["latency"]["count"] > 0
    assert stats["registry"]["warm"] >= 1
    assert stats["batching"]["max_batch"] == 64


# -- HTTP ----------------------------------------------------------------


def test_http_predict_round_trip_is_bit_identical(server, tiny_records, direct):
    status, answer = _http(
        server, "POST", "/predict", {"model": "BDT", "jobs": tiny_records}
    )
    assert status == 200
    assert answer["n"] == len(tiny_records)
    assert answer["model"] == "BDT"
    assert answer["latency_ms"] >= 0
    # JSON float repr round-trips doubles exactly: still bit-identical.
    np.testing.assert_array_equal(np.asarray(answer["predictions"]), direct)


def test_http_single_job_form(server, tiny_records, direct):
    status, answer = _http(server, "POST", "/predict", {"job": tiny_records[0]})
    assert status == 200
    assert answer["predictions"] == [float(direct[0])]


def test_http_healthz(server):
    status, health = _http(server, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0
    assert health["requests"] == health["latency"]["count"] > 0


def test_http_models_endpoint(server, tiny_spec):
    status, stats = _http(server, "GET", "/models")
    assert status == 200
    assert stats["dataset_digest"] == tiny_spec.dataset_digest
    assert any(m["model"] == "BDT" for m in stats["models"])
    assert stats["batchers"]


def test_http_error_mapping(server, tiny_records):
    assert _http(server, "GET", "/nope")[0] == 404
    assert _http(server, "POST", "/nope", {})[0] == 404
    # Caller mistakes are 400s with a JSON error body.
    for payload in (
        {},  # no jobs
        {"jobs": []},
        {"jobs": "not-a-list"},
        {"model": "XGBoost", "jobs": tiny_records[:1]},
        {"jobs": [{"user": "u"}]},
        {"scenario": {"bogus": 1}, "jobs": tiny_records[:1]},
        {"jobs": [{"user": "not-a-user", "nodes": 1, "req_walltime_s": 60}]},
    ):
        status, body = _http(server, "POST", "/predict", payload)
        assert status == 400, payload
        assert "error" in body

    status, _, body = server.request("POST", "/predict", raw_body=b"{not json")
    assert status == 400
    assert "invalid JSON" in body["error"]


# -- /predict/bulk (NDJSON) ----------------------------------------------


def _bulk(server, body: bytes, path="/predict/bulk?model=BDT"):
    return server.request(
        "POST", path, raw_body=body,
        headers={"Content-Type": "application/x-ndjson"}, raw_response=True,
    )


def test_http_bulk_round_trip_is_bit_identical(server, tiny_records, direct):
    body = b"\n".join(json.dumps(r).encode() for r in tiny_records)
    status, headers, data = _bulk(server, body)
    assert status == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    assert headers["X-N"] == str(len(tiny_records))
    assert headers["X-Model"] == "BDT"
    # One repr()-float per line: parsing them back restores exact bits.
    values = np.asarray([float(line) for line in data.split()])
    np.testing.assert_array_equal(values, direct)


def test_http_bulk_tolerates_blank_lines(server, tiny_records, direct):
    body = b"\n\n" + json.dumps(tiny_records[0]).encode() + b"\n\n"
    status, headers, data = _bulk(server, body)
    assert status == 200
    assert headers["X-N"] == "1"
    assert float(data.split()[0]) == float(direct[0])


def test_http_bulk_scenario_overlay_via_query(server, tiny_records):
    overlay = json.dumps({"seed": 4})
    from urllib.parse import quote

    body = json.dumps(tiny_records[0]).encode()
    status, _, _ = _bulk(
        server, body, path=f"/predict/bulk?model=BDT&scenario={quote(overlay)}"
    )
    assert status == 200


def test_http_bulk_error_mapping(server, tiny_records):
    # Empty body, malformed line, non-object line: all caller mistakes.
    for body in (b"", b"{not json", b'["a-list-not-an-object"]'):
        status, _, data = _bulk(server, body)
        assert status == 400, body
        assert "error" in json.loads(data)
    # The error names the offending line.
    status, _, data = _bulk(
        server, json.dumps(tiny_records[0]).encode() + b"\n{oops"
    )
    assert status == 400
    assert "line 2" in json.loads(data)["error"]
    # Unknown model maps exactly like /predict.
    body = json.dumps(tiny_records[0]).encode()
    status, _, _ = _bulk(server, body, path="/predict/bulk?model=XGBoost")
    assert status == 400
    # So does a scenario overlay that is not JSON.
    status, _, data = _bulk(server, body, path="/predict/bulk?scenario=%7Bnope")
    assert status == 400
    assert "scenario" in json.loads(data)["error"]


def test_closed_service_refuses_predicts(tiny_spec, serve_cache):
    svc = PredictionService(tiny_spec, cache_dir=serve_cache)
    record = {"user": "u", "nodes": 1, "req_walltime_s": 60}
    svc.close()
    svc.close()  # idempotent
    with pytest.raises(ServeError):
        svc.predict([record], model="online")


# -- /metrics ------------------------------------------------------------


def _scrape(server) -> tuple[str, str]:
    """GET /metrics raw; returns (content_type, body text)."""
    status, headers, body = server.get("/metrics", raw_response=True)
    assert status == 200
    return headers["Content-Type"], body.decode("utf-8")


def test_metrics_endpoint_serves_valid_exposition(server, tiny_records):
    from tests.obs.test_metrics import parse_exposition

    # Ensure at least one prediction has flowed through the service.
    status, _ = _http(server, "POST", "/predict",
                      {"model": "BDT", "jobs": tiny_records[:2]})
    assert status == 200

    content_type, body = _scrape(server)
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    samples = parse_exposition(body)

    # The serving metric families the issue's acceptance bar names.
    assert samples["repro_requests_total"] >= 1
    assert samples['repro_predict_outcomes_total{outcome="ok"}'] >= 1
    assert any(k.startswith("repro_request_latency_seconds_bucket") for k in samples)
    assert any(k.startswith("repro_batch_size_bucket") for k in samples)
    assert any(k.startswith("repro_model_registry_lookups_total") for k in samples)
    # Histogram invariant: the +Inf bucket equals the count.
    assert (samples['repro_request_latency_seconds_bucket{le="+Inf"}']
            == samples["repro_request_latency_seconds_count"])


def test_metrics_counters_are_monotone_across_requests(server, tiny_records):
    from tests.obs.test_metrics import parse_exposition

    before = parse_exposition(_scrape(server)[1])
    for _ in range(3):
        status, _ = _http(server, "POST", "/predict",
                          {"model": "BDT", "jobs": tiny_records[:1]})
        assert status == 200
    after = parse_exposition(_scrape(server)[1])

    assert after["repro_requests_total"] == before["repro_requests_total"] + 3
    assert (after['repro_predict_outcomes_total{outcome="ok"}']
            == before['repro_predict_outcomes_total{outcome="ok"}'] + 3)
    # Every counter/bucket sample is non-decreasing between scrapes.
    for key, value in before.items():
        if "_total" in key or "_bucket" in key or "_count" in key:
            assert after.get(key, 0.0) >= value, key
    # The scrape itself is accounted.
    assert (after['repro_http_requests_total{endpoint="/metrics"}']
            >= before['repro_http_requests_total{endpoint="/metrics"}'] + 1)
