"""Closed-loop load generator for serve-mixed (its own process).

Two threads, each on one keep-alive connection, send their next request
only after the previous answer arrived — the scheduler-side caller that
submits a job and waits for its power prediction:

* thread 0: single-job ``POST /v1/predict`` (through the MicroBatcher);
* thread 1: 64-job NDJSON ``POST /v1/predict/bulk?model=BDT`` (no batcher).

Bodies are encoded before the clock starts. Every answer is compared bit
for bit with the offline BDT oracle; a non-200 answer or a mismatch is a
failed request. Usage::

    python perfbench/loadgen.py --port P --pool pool.json --seconds S \
        [--trace 1] --out result.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from pathlib import Path

from common import SpanRecorder, write_json

WARMUP_REQUESTS = 20
KINDS = ("single", "bulk")


def encode(pool: dict) -> dict[str, list[tuple[str, bytes, list[float]]]]:
    single = [("/v1/predict",
               json.dumps({"model": "BDT", "job": e["record"]}).encode(),
               e["expected"]) for e in pool["single"]]
    bulk = [("/v1/predict/bulk?model=BDT",
             b"\n".join(json.dumps(r).encode() for r in e["records"]),
             e["expected"]) for e in pool["bulk"]]
    return {"single": single, "bulk": bulk}


class Connection:
    """One keep-alive connection replaying one request kind, closed loop."""

    def __init__(self, port: int, kind: str, bodies) -> None:
        self.kind, self.bodies = kind, bodies
        self.recorder: SpanRecorder | None = None
        self.content_type = ("application/json" if kind == "single"
                             else "application/x-ndjson")
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.next = 0
        self.until = 0.0
        self.reset()

    def reset(self) -> None:
        self.latencies: list[float] = []
        self.predictions = 0
        self.failures: list[str] = []
        self.mismatches = 0

    def request(self) -> None:
        path, body, expected = self.bodies[self.next % len(self.bodies)]
        self.next += 1
        t0 = time.perf_counter()
        try:
            self.conn.request("POST", path, body=body,
                              headers={"Content-Type": self.content_type})
            response = self.conn.getresponse()
            data = response.read()
        except OSError as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            self.conn.close()
            return
        latency = time.perf_counter() - t0
        if response.status != 200:
            self.failures.append(f"HTTP {response.status}: {data[:120]!r}")
            return
        if self.kind == "single":
            values = [float(v) for v in json.loads(data)["predictions"]]
        else:
            values = [float(line) for line in data.split()]
        self.latencies.append(latency)
        self.predictions += len(values)
        if values != expected:
            self.mismatches += 1

    def run(self) -> None:
        while time.perf_counter() < self.until:
            if self.recorder is None:
                self.request()
            else:
                with self.recorder.span(f"http.{self.kind}"):
                    self.request()


def window(conns: list[Connection], seconds: float) -> float:
    """Drive every connection closed-loop for ``seconds``; return elapsed."""
    start = time.perf_counter()
    for c in conns:
        c.reset()
        c.until = start + seconds
    threads = [threading.Thread(target=c.run, name=f"loadgen-{c.kind}")
               for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


def summary(conns: list[Connection], elapsed: float) -> dict:
    return {
        "elapsed_s": elapsed,
        "latencies": {c.kind: c.latencies for c in conns},
        "predictions": sum(c.predictions for c in conns),
        "failures": [f for c in conns for f in c.failures],
        "mismatches": sum(c.mismatches for c in conns),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--pool", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bodies = encode(json.loads(Path(args.pool).read_text()))
    conns = [Connection(args.port, kind, bodies[kind]) for kind in KINDS]
    for c in conns:  # open the connections and settle the first batch
        for _ in range(WARMUP_REQUESTS):
            c.request()
    result = {"warmup": summary(conns, 0.0)}
    if args.trace:
        result["untraced"] = summary(conns, window(conns, args.seconds / 2))
        recorder = SpanRecorder()
        for c in conns:
            c.recorder = recorder
        result["traced"] = summary(conns, window(conns, args.seconds / 2))
        trace_path = Path(args.out).with_suffix(".trace.jsonl")
        recorder.write(trace_path)
        result["trace_file"] = str(trace_path)
    else:
        result["untraced"] = summary(conns, window(conns, args.seconds))
    for c in conns:
        c.conn.close()
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
