"""Traced-run instrumentation: spans around calls into each layer.

The program itself is not edited. Each ``instrument_*`` function swaps
a layer's public functions or methods, where the calling module looks
them up, for wrappers that record a span per call, and returns an undo
callable. Span names double as per-layer metric names: a metric
``<span>_s`` is the span's total self time per traced iteration.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable

from common import SpanRecorder, tree_bytes

Counter = Callable[[tuple, dict, Any], dict[str, Any]]

# Per-layer metric -> span name whose self time (per iteration) it reports.
SPAN_METRICS = {
    "workload.generate_s": "workload.generate",
    "scheduler.simulate_s": "scheduler.simulate",
    "telemetry.sample_s": "telemetry.sample",
    "telemetry.join_s": "telemetry.join",
    "pipeline.save_s": "pipeline.save",
    "pipeline.load_s": "pipeline.load",
    "ml.bdt.fit_s": "ml.bdt.fit",
    "ml.knn.fit_s": "ml.knn.fit",
    "ml.flda.fit_s": "ml.flda.fit",
    "ml.bdt.predict_s": "ml.bdt.predict",
    "ml.knn.predict_s": "ml.knn.predict",
    "ml.flda.predict_s": "ml.flda.predict",
    "analysis.system_s": "analysis.system",
    "analysis.job_s": "analysis.job",
    "analysis.dynamic_s": "analysis.dynamic",
    "analysis.users_s": "analysis.users",
    "analysis.prediction_s": "analysis.prediction",
    "serve.registry.train_s": "serve.registry.train",
}
ITERATION = "iteration"


def _patch(owner: Any, attr: str, recorder: SpanRecorder, name: str,
           count: Counter | None = None) -> Callable[[], None]:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as attrs:
            result = original(*args, **kwargs)
            if count is not None:
                attrs.update(count(args, kwargs, result))
            return result

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, original)


def _undo_all(undos: list[Callable[[], None]]) -> Callable[[], None]:
    def undo() -> None:
        for fn in reversed(undos):
            fn()

    return undo


def _n_jobs(args, kwargs, result) -> dict[str, Any]:
    return {"jobs": len(result)}


def _sample_counts(args, kwargs, result) -> dict[str, Any]:
    return {"traces": len(result.traces), "gaps": int(result.n_gaps)}


def _saved_bytes(args, kwargs, result) -> dict[str, Any]:
    return {"bytes": tree_bytes(result), "stage": args[1]}


def _cache_saves(recorder: SpanRecorder, chunk_stage: str):
    """Wrap ArtifactCache writes: chunk spills, and every other save.

    A commit of ``chunk_stage`` is a spill (``stream.spill``); the plan
    pickle and the compacted dataset are cache saves (``pipeline.save``).
    The compaction merges the spills inside its ``store_tree`` call, so
    that save's self time is the compaction's artifact write.
    """
    from repro.pipeline.cache import ArtifactCache

    undos = [_patch(ArtifactCache, "store_pickle", recorder, "pipeline.save",
                    _saved_bytes)]
    original = ArtifactCache.__dict__["store_tree"]

    @functools.wraps(original)
    def store_tree(self, stage, key, build, meta):
        name = "stream.spill" if stage == chunk_stage else "pipeline.save"
        with recorder.span(name) as attrs:
            path = original(self, stage, key, build, meta)
            attrs.update(bytes=tree_bytes(path), stage=stage)
            return path

    ArtifactCache.store_tree = store_tree
    undos.append(lambda: setattr(ArtifactCache, "store_tree", original))
    return undos


def instrument_stream(recorder: SpanRecorder) -> Callable[[], None]:
    """Layers under ``repro.pipeline.stream_shard`` (plan, chunks, compact)."""
    from repro.pipeline import stream
    from repro.scheduler.simulator import Simulator
    from repro.telemetry.stream import TelemetryStream
    from repro.workload.generator import WorkloadGenerator, WorkloadPlan

    undos = [
        _patch(WorkloadGenerator, "generate_plan", recorder,
               "workload.generate"),
        _patch(WorkloadPlan, "materialize", recorder, "workload.generate",
               _n_jobs),
        _patch(Simulator, "feed", recorder, "scheduler.simulate"),
        _patch(Simulator, "drain", recorder, "scheduler.simulate"),
        _patch(Simulator, "take_results", recorder, "scheduler.simulate",
               _n_jobs),
        _patch(TelemetryStream, "sample_chunk", recorder, "telemetry.sample",
               _sample_counts),
        _patch(stream, "join_jobs", recorder, "telemetry.join"),
        *_cache_saves(recorder, stream.CHUNK_STAGE),
    ]
    return _undo_all(undos)


# full_report's analyses, grouped by the paper's levels of study.
ANALYSIS_GROUPS = {
    "analysis.system": ("system_utilization", "power_utilization"),
    "analysis.job": ("per_node_power_distribution",
                     "feature_power_correlations", "split_analysis"),
    "analysis.dynamic": ("temporal_summary", "spatial_summary"),
    "analysis.users": ("concentration_analysis", "user_power_variability",
                       "cluster_variability"),
}


def _n_rows(args, kwargs, result) -> dict[str, Any]:
    return {"rows": len(args[1])}


def instrument_report(recorder: SpanRecorder) -> Callable[[], None]:
    """Analysis functions of ``full_report`` and the three ML estimators."""
    from repro.analysis import prediction
    # The package re-exports the function under the module's name.
    report_module = importlib.import_module("repro.analysis.full_report")
    from repro.ml import DecisionTreeRegressor, FLDARegressor, KNNRegressor

    undos = [
        _patch(report_module, fn, recorder, span)
        for span, fns in ANALYSIS_GROUPS.items() for fn in fns
    ]
    undos.append(_patch(prediction, "run_prediction", recorder,
                        "analysis.prediction"))
    for key, cls in (("bdt", DecisionTreeRegressor), ("knn", KNNRegressor),
                     ("flda", FLDARegressor)):
        undos.append(_patch(cls, "fit", recorder, f"ml.{key}.fit", _n_rows))
        undos.append(_patch(cls, "predict", recorder, f"ml.{key}.predict",
                            _n_rows))
    return _undo_all(undos)


def instrument_serve(recorder: SpanRecorder) -> Callable[[], None]:
    """The in-process serving layers: dataset load, BDT fit, ``FlatBDT``."""
    from repro.ml import DecisionTreeRegressor
    from repro.pipeline import stages
    from repro.serve.flat_bdt import FlatBDT

    undos = [
        _patch(stages, "load_dataset", recorder, "pipeline.load"),
        _patch(DecisionTreeRegressor, "fit", recorder, "ml.bdt.fit", _n_rows),
        _patch(FlatBDT, "predict", recorder, "serve.flat_bdt.predict",
               _n_rows),
    ]
    return _undo_all(undos)
