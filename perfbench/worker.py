"""Child process of the benchmark: one role of one workload per process.

Usage (``run.py`` drives it; each call is a fresh interpreter)::

    python perfbench/worker.py <workload> <role> --seed N --seconds S \
        --trace 0|1 --out result.json

Roles:

* ``setup`` — the workload's set-up only (imports, warm-up, cached
  dataset load); reports the wall-clock instant it became ready.
* ``measure`` — set-up, then the timed loop for ``--seconds``; with
  ``--trace 1`` half the time untraced and half traced, spans written
  as JSONL next to the result.
* ``prep`` — inputs made before any timing: the paper-scale dataset in
  the shared cache (built only if missing) and, for serve-mixed, the
  request pool with its oracle.
* ``inproc`` — serve-mixed only: the serving layers timed in-process
  (registry train, service single/bulk, ``FlatBDT``), traced.

``--seed`` reaches only report-paper (the Fig 14 split seed) and
serve-mixed (which jobs the requests carry); a build's one input is the
fixed paper-scale scenario.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from common import (
    CACHE,
    PAPER_SCENARIO,
    REPORT_REPEATS,
    STREAM_CHUNK_JOBS,
    WORK,
    SpanRecorder,
    entry_digest,
    maybe_span,
    median,
    peak_rss_mib,
    self_seconds,
    write_json,
)
from layers import ITERATION, SPAN_METRICS

# A tiny scenario whose build runs every lazy import and first-call
# cost (scipy.signal in the telemetry sampler) during set-up.
WARMUP_SCENARIO = {"system": "emmy", "num_nodes": 16, "num_users": 8,
                   "horizon_s": 2 * 86400, "max_traces": 4}
SINGLE_POOL = 512
BULK_JOBS = 64
BULK_POOL = 16


def scratch_cache(tag: str) -> Path:
    """An empty, private cache directory inside the work directory."""
    path = WORK / "scratch" / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def dataset_entry(cache_dir: Path) -> Path:
    """Where the paper scenario's dataset entry lives in a cache."""
    from repro.pipeline import ArtifactCache, ShardConfig, stage_key

    key = stage_key(ShardConfig(**PAPER_SCENARIO), "dataset")
    return ArtifactCache(cache_dir).entry_dir("dataset", key)


# -- workloads ------------------------------------------------------------


class BuildStream:
    """Cold ``stream_shard`` of the paper scenario in 5,000-job chunks.

    ``seed`` is unused: a build's one input is the fixed scenario.
    """

    inner_span = "pipeline.stream_shard"

    def __init__(self, seed: int) -> None:
        from repro.pipeline import ArtifactCache, ShardConfig, stream_shard

        self.cache_type = ArtifactCache
        self.stream = stream_shard
        self.shard = ShardConfig(**PAPER_SCENARIO)
        warm = scratch_cache("warmup")
        stream_shard(ShardConfig(**WARMUP_SCENARIO),
                     ArtifactCache(warm), chunk_jobs=100)
        shutil.rmtree(warm)

    def instrument(self, recorder: SpanRecorder) -> Callable[[], None]:
        from layers import instrument_stream

        return instrument_stream(recorder)

    def run(self, recorder: SpanRecorder | None) -> tuple[float, dict]:
        cache_dir = scratch_cache("build-stream")
        try:
            cache = self.cache_type(cache_dir)
            t0 = time.perf_counter()
            with maybe_span(recorder, self.inner_span):
                report = self.stream(self.shard, cache,
                                     chunk_jobs=STREAM_CHUNK_JOBS)
            seconds = time.perf_counter() - t0
            entry = dataset_entry(cache_dir)
            info = {"digest": entry_digest(entry), "n_jobs": report.n_jobs,
                    "stages": [[s.stage, s.seconds] for s in report.stages]}
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return seconds, info


class ReportPaper:
    """``full_report`` with the Fig 14 protocol on the cached dataset.

    ``seed`` is the protocol's repeated-split seed: other train/validation
    splits of the same jobs, the same amount of work.
    """

    inner_span = "analysis.full_report"

    def __init__(self, seed: int) -> None:
        from repro.analysis import full_report
        from repro.pipeline import build_dataset, load_dataset

        self.entry = dataset_entry(CACHE)
        if not (self.entry / "meta.json").is_file():
            raise SystemExit(f"report-paper: no cached dataset at {self.entry}")
        self.report = full_report
        self.load = load_dataset
        self.dataset = build_dataset(cache_dir=CACHE, **PAPER_SCENARIO)
        self.predict = self.split_seed(seed)

    @staticmethod
    def split_seed(seed: int) -> Callable:
        """``full_report``'s prediction runner with the split seed ``seed``."""
        from repro.analysis import prediction

        # Looked up per call, so the traced run's wrapper is the one used.
        return lambda dataset, n_repeats: prediction.run_prediction(
            dataset, n_repeats=n_repeats, seed=seed)

    def instrument(self, recorder: SpanRecorder) -> Callable[[], None]:
        from layers import instrument_report

        return instrument_report(recorder)

    def run(self, recorder: SpanRecorder | None) -> tuple[float, dict]:
        dataset = self.dataset
        if recorder is not None:
            with recorder.span("pipeline.load"):
                dataset = self.load(self.entry)
        t0 = time.perf_counter()
        with maybe_span(recorder, self.inner_span):
            text = self.report(dataset, include_prediction=True,
                               n_repeats=REPORT_REPEATS,
                               run_prediction_fn=self.predict)
        seconds = time.perf_counter() - t0
        return seconds, {"digest": hashlib.sha256(text.encode()).hexdigest(),
                         "n_jobs": dataset.num_jobs}


WORKLOADS = {"build-stream": BuildStream, "report-paper": ReportPaper}


# -- timed loops ----------------------------------------------------------


def timed_loop(workload, seconds: float,
               recorder: SpanRecorder | None = None) -> tuple[list, list]:
    """Run iterations while the next one fits in ``seconds`` (at least one).

    The next iteration is expected to take as long as the last one, so a
    run measures no more than its budget, whatever the op's length.
    """
    times: list[float] = []
    infos: list[dict] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        gc.collect()
        if recorder is None:
            dt, info = workload.run(None)
        else:
            with recorder.span(ITERATION, index=len(times)):
                dt, info = workload.run(recorder)
        times.append(dt)
        infos.append(info)
    return times, infos


def span_layers(recorder: SpanRecorder, n_iterations: int) -> dict[str, float]:
    """Per-layer self seconds per traced iteration, from the spans."""
    totals = self_seconds(recorder.records)
    return {metric: totals.get(span, 0.0) / n_iterations
            for metric, span in SPAN_METRICS.items()}


def stream_layers(infos: list[dict]) -> dict[str, float]:
    """The streamed build's own StageTiming records, per iteration."""
    plan, compact, chunks = [], [], []
    for info in infos:
        stages = info["stages"]
        plan.append(sum(s for name, s in stages if name == "plan"))
        compact.append(sum(s for name, s in stages if name == "dataset"))
        chunks.append([s for name, s in stages if name == "chunk"])
    per_chunk = [s for run in chunks for s in run]
    n = len(infos)
    return {
        "stream.plan_s": sum(plan) / n,
        "stream.chunk_s": sum(per_chunk) / n,
        "stream.chunk_p50_s": median(per_chunk),
        "stream.chunk_max_s": max(per_chunk),
        "stream.chunks": len(per_chunk) / n,
        "stream.compact_s": sum(compact) / n,
    }


def span_counts(recorder: SpanRecorder, n_iterations: int) -> dict[str, float]:
    """Work counts recorded on the spans, per traced iteration."""
    sums: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0.0) + value

    for r in recorder.records:
        attrs, name = r["attrs"], r["name"]
        if name == "workload.generate" and "jobs" in attrs:
            add("workload.jobs", attrs["jobs"])
        elif name == "scheduler.simulate" and "jobs" in attrs:
            add("scheduler.jobs", attrs["jobs"])
        elif name == "telemetry.sample":
            add("telemetry.traces", attrs["traces"])
            add("telemetry.gaps", attrs["gaps"])
        elif name == "pipeline.save":
            add("pipeline.save_bytes", attrs["bytes"])
        elif name == "stream.spill":
            add("stream.spill_bytes", attrs["bytes"])
        elif name.startswith("ml.") and name.endswith(".fit"):
            add("ml.rows_fit", attrs["rows"])
        elif name.startswith("ml.") and name.endswith(".predict"):
            add("ml.rows_predicted", attrs["rows"])
    return {k: v / n_iterations for k, v in sums.items()}


def measure(args: argparse.Namespace) -> dict[str, Any]:
    workload = WORKLOADS[args.workload](args.seed)
    ready_unix = time.time()
    # One untimed iteration first, inside the run's time: it faults in the
    # memory that every later iteration reuses. Its output is checked too.
    t0 = time.perf_counter()
    _, warm = workload.run(None)
    warmup_s = time.perf_counter() - t0
    budget = args.seconds - warmup_s
    if not args.trace:
        times, infos = timed_loop(workload, budget)
        return {"ready_unix": ready_unix, "warmup_s": warmup_s, "times": times,
                "digests": [i["digest"] for i in [warm, *infos]],
                "n_jobs": infos[0]["n_jobs"], "peak_rss_mib": peak_rss_mib()}
    # Traced run: the first half untraced, the second half traced, so
    # the tracing overhead is measured on the same inputs in one process.
    plain, plain_infos = timed_loop(workload, budget / 2)
    recorder = SpanRecorder()
    undo = workload.instrument(recorder)
    try:
        traced, infos = timed_loop(workload, budget / 2, recorder)
    finally:
        undo()
    trace_path = Path(args.out).with_suffix(".trace.jsonl")
    recorder.write(trace_path)
    inner = [r["duration_s"] for r in recorder.records
             if r["name"] == workload.inner_span]
    layers = span_layers(recorder, len(traced))
    layers.update(span_counts(recorder, len(traced)))
    if args.workload == "build-stream":
        layers.update(stream_layers(infos))
    layers["trace.overhead_ms"] = (median(inner) - median(plain)) * 1e3
    return {"ready_unix": ready_unix, "warmup_s": warmup_s, "times": plain + traced,
            "digests": [i["digest"] for i in [warm, *plain_infos, *infos]],
            "n_jobs": infos[0]["n_jobs"], "layers": layers,
            "trace_file": str(trace_path), "iterations": len(traced)}


# -- serve-mixed ----------------------------------------------------------


def serve_pool(seed: int) -> dict[str, Any]:
    """Request bodies drawn by ``seed`` from the dataset's jobs, with answers.

    The oracle is an offline ``fit_predictor`` BDT on the same dataset:
    the fit the registry performs, so served answers must match it bit
    for bit. Floats travel as JSON (``repr``), which round-trips exactly.
    """
    from repro.analysis.prediction import default_models
    from repro.ml.pipeline import fit_predictor
    from repro.pipeline import build_dataset

    jobs = build_dataset(cache_dir=CACHE, **PAPER_SCENARIO).jobs
    picks = random.Random(seed).sample(range(len(jobs)),
                                       SINGLE_POOL + BULK_POOL * BULK_JOBS)
    records = [{"user": str(jobs["user"][i]), "nodes": int(jobs["nodes"][i]),
                "req_walltime_s": int(jobs["req_walltime_s"][i])}
               for i in picks]
    oracle = fit_predictor(jobs, default_models()["BDT"], model_name="BDT")
    expected = [float(v) for v in oracle.predict_records(records)]
    single = [{"record": records[i], "expected": expected[i:i + 1]}
              for i in range(SINGLE_POOL)]
    bulk = []
    for b in range(BULK_POOL):
        lo = SINGLE_POOL + b * BULK_JOBS
        bulk.append({"records": records[lo:lo + BULK_JOBS],
                     "expected": expected[lo:lo + BULK_JOBS]})
    return {"single": single, "bulk": bulk}


def prep(args: argparse.Namespace) -> dict[str, Any]:
    """Build the dataset into the shared cache (and the serving pool)."""
    from repro.pipeline import build_dataset

    if not (dataset_entry(CACHE) / "meta.json").is_file():
        build_dataset(cache_dir=CACHE, **PAPER_SCENARIO)
        # Only the dataset entry is read later; drop the stage pickles.
        for stage in ("workload", "schedule", "telemetry"):
            shutil.rmtree(CACHE / stage, ignore_errors=True)
    if args.workload != "serve-mixed":
        return {}
    # Keyed by the dataset's stage key, so a pool drawn from another
    # program version's dataset is never read.
    key = dataset_entry(CACHE).name
    pool = WORK / "pools" / f"serve-{key[:16]}-seed{args.seed}.json"
    write_json(pool, serve_pool(args.seed))
    return {"pool": str(pool)}


def inproc(args: argparse.Namespace) -> dict[str, Any]:
    """Serving layers in-process, closed loop, traced (serve-mixed)."""
    from layers import instrument_serve
    from repro.serve.api import PredictRequest
    from repro.serve.registry import MODEL_STAGE, ModelRegistry
    from repro.serve.service import PredictionService
    from repro.spec import ScenarioSpec

    pool = json.loads(Path(args.pool).read_text())
    spec = ScenarioSpec(**PAPER_SCENARIO)
    shutil.rmtree(CACHE / MODEL_STAGE, ignore_errors=True)
    recorder = SpanRecorder()
    undo = instrument_serve(recorder)
    try:
        registry = ModelRegistry(cache_dir=CACHE)
        with recorder.span(ITERATION, index=0):
            with recorder.span("serve.registry.train"):
                registry.get(spec, "BDT")
        service = PredictionService(spec, registry=registry)
        service.warm(("BDT",))
        deadline = time.perf_counter() + args.seconds / 2
        mismatches = [0, 0]

        def loop(kind: int) -> None:
            entries = pool["single"] if kind == 0 else pool["bulk"]
            i = 0
            while time.perf_counter() < deadline:
                entry = entries[i % len(entries)]
                i += 1
                if kind == 0:
                    request = PredictRequest(records=(entry["record"],))
                    name = "serve.service.single"
                else:
                    request = PredictRequest(records=tuple(entry["records"]),
                                             mode="bulk")
                    name = "serve.service.bulk"
                with recorder.span(name):
                    values = service.predict_request(request).predictions
                if [float(v) for v in values] != entry["expected"]:
                    mismatches[kind] += 1

        threads = [threading.Thread(target=loop, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batchers = service.stats()["batchers"]
        service.close()
    finally:
        undo()
    trace_path = Path(args.out).with_suffix(".trace.jsonl")
    recorder.write(trace_path)

    def durations_ms(name: str, rows: int | None = None) -> list[float]:
        return [r["duration_s"] * 1e3 for r in recorder.records
                if r["name"] == name
                and (rows is None or r["attrs"].get("rows") == rows)]

    single, bulk = durations_ms("serve.service.single"), durations_ms("serve.service.bulk")
    n_batches = sum(b["n_batches"] for b in batchers.values())
    n_batched = sum(b["n_requests"] for b in batchers.values())
    layers = span_layers(recorder, 1)
    layers.update({
        "serve.service.single_ms": median(single),
        "serve.service.bulk_ms": median(bulk),
        "serve.flat_bdt.predict_ms": median(durations_ms("serve.flat_bdt.predict",
                                                         BULK_JOBS)),
        "serve.batcher.mean_batch": n_batched / n_batches if n_batches else 0.0,
    })
    return {"layers": layers, "trace_file": str(trace_path),
            "requests": len(single) + len(bulk), "mismatches": sum(mismatches)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("role", choices=("setup", "measure", "prep", "inproc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.role == "setup":
        WORKLOADS[args.workload](args.seed)
        result = {"ready_unix": time.time()}
    elif args.role == "measure":
        result = measure(args)
    elif args.role == "prep":
        result = prep(args)
    else:
        result = inproc(args)
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
