"""Command-line interface: ``repro-power`` / ``python -m repro``.

Subcommands
-----------
``generate``  — run the pipeline for one system and write the job-level
                dataset (CSV or NPZ).
``analyze``   — run every analysis on a generated (or loaded) dataset
                and print paper-style summaries.
``predict``   — run the Fig 14/15 prediction evaluation.
``serve``     — run the micro-batched online prediction service
                (docs/SERVICE.md). ``--lifecycle`` attaches the
                drift-aware model lifecycle (docs/LIFECYCLE.md), and the
                ``serve promote`` / ``serve rollback`` /
                ``serve history`` / ``serve replay`` verbs administer
                the journaled version lineage offline.
``specs``     — print Table 1.
``systems``   — the registered system catalog: ``list`` prints one
                line per system with workload profile, node count, and
                GPU inventory (docs/SCENARIOS.md).
``pipeline``  — the cached, parallel experiment runner
                (``run`` / ``run-all`` / ``status`` / ``clean``); see
                docs/PIPELINE.md.
``obs``       — observability tooling: ``summary`` renders a trace
                JSONL file's span tree, per-name aggregates, and
                critical path (docs/OBSERVABILITY.md).

Setting ``$REPRO_TRACE_FILE`` makes any subcommand append trace spans
to that JSONL file; ``serve --trace-file`` does the same for one serve
run.

Every scale flag maps 1:1 onto a :class:`repro.spec.ScenarioSpec`
field — the CLI, pipeline, facade, and serving layers all consume the
same scenario description.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.errors import IncidentError, ObsError, PipelineError
from repro.spec import ScenarioSpec

__all__ = ["main", "build_parser"]

_SPEC_DEFAULTS = ScenarioSpec()

# Mirrors repro.cluster.known_systems() — spelled out here so building
# the parser never imports the (numpy-heavy) cluster package; a test
# pins the two lists together.
_SYSTEM_CHOICES = ("alex", "emmy", "meggie", "woody")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description="HPC power-consumption characterization toolkit "
        "(IPDPS 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale_args(p: argparse.ArgumentParser) -> None:
        # One flag per ScenarioSpec field, defaults taken from the spec
        # itself so the CLI can never drift from the canonical scenario
        # description.
        p.add_argument("--system", choices=_SYSTEM_CHOICES,
                       default=_SPEC_DEFAULTS.system)
        p.add_argument("--seed", type=int, default=_SPEC_DEFAULTS.seed)
        p.add_argument("--num-nodes", type=int, default=_SPEC_DEFAULTS.num_nodes,
                       help="scale-down node count (default: full system)")
        p.add_argument("--num-users", type=int, default=_SPEC_DEFAULTS.num_users)
        p.add_argument("--horizon-days", type=float,
                       default=_SPEC_DEFAULTS.horizon_days,
                       help="trace length in days (default: 152, the paper's 5 months)")
        p.add_argument("--max-traces", type=int, default=_SPEC_DEFAULTS.max_traces)

    gen = sub.add_parser("generate", help="generate a dataset and write it out")
    add_scale_args(gen)
    gen.add_argument("--out", type=Path, required=True,
                     help="output path (.csv or .npz)")

    ana = sub.add_parser("analyze", help="run all analyses and print summaries")
    add_scale_args(ana)

    pred = sub.add_parser("predict", help="run the prediction evaluation (Figs 14-15)")
    add_scale_args(pred)
    pred.add_argument("--repeats", type=int, default=10)

    figs = sub.add_parser("figures", help="render every paper figure as SVG")
    add_scale_args(figs)
    figs.add_argument("--out-dir", type=Path, required=True)
    figs.add_argument("--both-systems", action="store_true",
                      help="render emmy AND meggie (enables Fig 4)")
    figs.add_argument("--repeats", type=int, default=3)

    rep = sub.add_parser("report", help="write a full markdown characterization report")
    add_scale_args(rep)
    rep.add_argument("--out", type=Path, required=True, help="output .md path")
    rep.add_argument("--repeats", type=int, default=3)
    rep.add_argument("--no-prediction", action="store_true")

    srv = sub.add_parser(
        "serve",
        help="run the micro-batched online prediction service (docs/SERVICE.md)",
    )
    add_scale_args(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8321,
                     help="TCP port (0 binds an ephemeral port)")
    srv.add_argument("--workers", type=int, default=1,
                     help="worker processes; >1 runs the pre-forked "
                     "SO_REUSEPORT pool (docs/SERVICE.md)")
    srv.add_argument("--max-batch", type=int, default=64,
                     help="records per vectorized predict call")
    srv.add_argument("--max-wait-ms", type=float, default=2.0,
                     help="how long an open micro-batch waits for stragglers")
    srv.add_argument("--warm", nargs="+", default=["BDT"],
                     metavar="MODEL",
                     help="models to train/load before serving "
                     "(BDT KNN FLDA online)")
    srv.add_argument("--cache-dir", type=Path, default=None,
                     help="artifact cache for datasets and trained models")
    srv.add_argument("--fault-plan", type=Path, default=None,
                     help="arm a FaultPlan JSON (docs/FAULTS.md) for the "
                     "whole serve lifetime — chaos testing only")
    srv.add_argument("--trace-file", type=Path, default=None,
                     help="append trace spans (JSONL) here for the whole "
                     "serve lifetime (docs/OBSERVABILITY.md)")
    srv.add_argument("--lifecycle", action="store_true",
                     help="attach the drift-aware model lifecycle: "
                     "/v1/feedback, shadow evaluation, promote/rollback "
                     "(docs/LIFECYCLE.md)")
    srv.add_argument("--lifecycle-dir", type=Path, default=None,
                     help="journal/feedback root (default: "
                     "<cache>/lifecycle); implies --lifecycle")

    # Lifecycle admin verbs: plain `serve` (no verb) runs the server.
    lsub = srv.add_subparsers(
        dest="serve_command",
        metavar="{promote,rollback,history,replay}",
    )

    def add_lifecycle_args(p: argparse.ArgumentParser) -> None:
        add_scale_args(p)
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="artifact cache holding the model versions")
        p.add_argument("--lifecycle-dir", type=Path, default=None,
                       help="journal/feedback root (default: "
                       "<cache>/lifecycle)")
        p.add_argument("--who", default=None,
                       help="who to record in the audit journal "
                       "(default: $USER)")
        p.add_argument("--why", default="",
                       help="free-text reason recorded in the journal")

    spro = lsub.add_parser(
        "promote", help="flip the active model version (journaled, audited)"
    )
    add_lifecycle_args(spro)
    spro.add_argument("--model", required=True,
                      help="model name (BDT KNN FLDA online)")
    spro.add_argument("--version", type=int, required=True,
                      help="registered lineage version to promote")

    srb = lsub.add_parser(
        "rollback",
        help="restore a previous version (bit-identical predictions)",
    )
    add_lifecycle_args(srb)
    srb.add_argument("--model", required=True)
    srb.add_argument("--to-version", type=int, default=None,
                     help="target version (default: the pre-promote active)")

    shis = lsub.add_parser(
        "history", help="print the lifecycle audit journal (JSONL)"
    )
    add_lifecycle_args(shis)
    shis.add_argument("--model", default=None,
                      help="only this model's events")

    srep = lsub.add_parser(
        "replay",
        help="feed the scenario's jobs through /v1/feedback semantics "
        "in submit order (prequential, deterministic)",
    )
    add_lifecycle_args(srep)
    srep.add_argument("--limit", type=int, default=None,
                      help="at most this many jobs (default: all)")
    srep.add_argument("--batch", type=int, default=256,
                      help="feedback records per batch")

    sub.add_parser("specs", help="print the Table 1 system specifications")

    systems = sub.add_parser(
        "systems",
        help="the registered system catalog (docs/SCENARIOS.md)",
    )
    ssub = systems.add_subparsers(dest="systems_command", required=True)
    slist = ssub.add_parser(
        "list",
        help="one line per system: profile, nodes, GPU inventory",
    )
    slist.add_argument("--json", action="store_true",
                       help="machine-readable catalog instead of the table")

    obs = sub.add_parser(
        "obs",
        help="observability tooling (docs/OBSERVABILITY.md)",
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)
    osum = osub.add_parser(
        "summary",
        help="span tree, per-name aggregates, and critical path of a "
        "trace JSONL file",
    )
    osum.add_argument("trace", type=Path, help="trace JSONL file to summarize")
    osum.add_argument("--max-depth", type=int, default=6,
                      help="deepest span-tree level to print")
    osum.add_argument("--max-children", type=int, default=12,
                      help="children shown per span (slowest first)")

    pipe = sub.add_parser(
        "pipeline",
        help="cached, parallel experiment pipeline (see docs/PIPELINE.md)",
    )
    psub = pipe.add_subparsers(dest="pipeline_command", required=True)

    def add_cache_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="artifact cache root (default: $REPRO_CACHE_DIR "
                       "or ~/.cache/repro-pipeline)")

    prun = psub.add_parser("run", help="build dataset artifacts through the cache")
    add_scale_args(prun)
    add_cache_arg(prun)
    prun.add_argument("--seeds", type=int, nargs="+", default=None,
                      help="one shard per seed (default: just --seed)")
    prun.add_argument("--both-systems", action="store_true",
                      help="build emmy AND meggie shards")
    prun.add_argument("--workers", type=int, default=1,
                      help="process count for the shard fan-out")
    prun.add_argument("--manifest", type=Path, default=None,
                      help="also write the run manifest JSON here")
    prun.add_argument("--force", action="store_true",
                      help="recompute every stage even on cache hits")
    prun.add_argument("--stream", action="store_true",
                      help="bounded-memory streaming build (chunk, spill, "
                      "compact); byte-identical artifacts")
    prun.add_argument("--chunk-jobs", type=int, default=None,
                      help="jobs per streaming chunk (default 100000; "
                      "implies --stream)")

    pall = psub.add_parser(
        "run-all",
        help="regenerate every figure and report from cached artifacts",
    )
    add_scale_args(pall)
    add_cache_arg(pall)
    pall.add_argument("--out-dir", type=Path, required=True,
                      help="output directory for figures and reports")
    pall.add_argument("--workers", type=int, default=2)
    pall.add_argument("--repeats", type=int, default=3,
                      help="prediction repeats for figures/reports")
    pall.add_argument("--manifest", type=Path, default=None)

    pstat = psub.add_parser("status", help="list cached artifacts")
    add_cache_arg(pstat)

    pclean = psub.add_parser("clean", help="remove cached artifacts (targeted)")
    add_cache_arg(pclean)
    pclean.add_argument("--stage",
                        choices=("workload", "schedule", "telemetry", "dataset",
                                 "plan", "chunk", "model"),
                        default=None, help="only this stage's entries "
                        "(plan/chunk = streaming-mode artifacts, model = "
                        "the serving layer's trained predictors)")
    pclean.add_argument("--system", default=None, help="only this system's entries")
    pclean.add_argument("--seed", type=int, default=None, help="only this seed's entries")
    pclean.add_argument("--all", action="store_true",
                        help="required to wipe the whole cache (no filters)")
    pclean.add_argument("--orphans", action="store_true",
                        help="remove spill shards left by interrupted "
                        "streaming runs whose dataset already committed, "
                        "plus stale tmp staging dirs")

    inc = sub.add_parser(
        "incidents",
        help="auto-graded chaos incident benchmark (docs/INCIDENTS.md)",
    )
    isub = inc.add_subparsers(dest="incidents_command", required=True)

    ilist = isub.add_parser("list", help="show the registered scenario catalog")
    ilist.add_argument("--json", action="store_true",
                       help="machine-readable catalog instead of the table")

    irun = isub.add_parser(
        "run",
        help="run scenarios against a live served system, writing one "
        "incident bundle per scenario",
    )
    irun.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                      help="scenario names (see `incidents list`)")
    irun.add_argument("--all", action="store_true",
                      help="run every registered scenario")
    irun.add_argument("--out-dir", type=Path, required=True,
                      help="directory receiving one bundle dir per scenario")
    irun.add_argument("--cache-dir", type=Path, default=None,
                      help="scratch artifact cache shared across the run "
                      "(default: a private temp dir per scenario)")
    irun.add_argument("--detector", default="rules",
                      help="baseline detector to grade with afterwards "
                      "(empty string skips grading)")
    irun.add_argument("--scorecard", type=Path, default=None,
                      help="also write the grading scorecard JSON here")

    igrade = isub.add_parser(
        "grade",
        help="score detector answers against recorded incident bundles",
    )
    igrade.add_argument("bundles", nargs="+", type=Path, metavar="BUNDLE",
                        help="incident bundle directories from `incidents run`")
    igrade.add_argument("--answers", type=Path, default=None,
                        help="JSON file with a list of detector answers "
                        "(default: run the --detector baseline instead)")
    igrade.add_argument("--detector", default="rules",
                        help="baseline detector to answer with when no "
                        "--answers file is given")
    igrade.add_argument("--scorecard", type=Path, default=None,
                        help="write the scorecard JSON here")
    return parser


def _make_dataset(args: argparse.Namespace):
    from repro.telemetry import generate_dataset

    spec = ScenarioSpec.from_args(args)
    return generate_dataset(**spec.dataset_kwargs())


def _cmd_specs() -> int:
    from repro.analysis.report import format_table
    from repro.cluster import EMMY, MEGGIE
    from repro.frames import Table

    fields = (
        "num_nodes", "node_tdp_watts", "processor", "microarchitecture",
        "process_node_nm", "memory_type", "interconnect", "topology",
        "batch_system", "linpack_tflops", "linpack_power_kw",
    )
    table = Table(
        {
            "field": list(fields),
            "emmy": [str(getattr(EMMY, f)) for f in fields],
            "meggie": [str(getattr(MEGGIE, f)) for f in fields],
        }
    )
    print(format_table(table))
    return 0


def _cmd_systems(args: argparse.Namespace) -> int:
    if args.systems_command == "list":
        return _cmd_systems_list(args)
    raise AssertionError(f"unhandled systems command {args.systems_command!r}")


def _cmd_systems_list(args: argparse.Namespace) -> int:
    from repro.cluster import get_spec, known_systems

    specs = [get_spec(name) for name in known_systems()]
    if args.json:
        print(json.dumps(
            [
                {
                    "system": s.name,
                    "profile": s.workload_profile,
                    "nodes": s.num_nodes,
                    "node_tdp_watts": s.node_tdp_watts,
                    "gpu_nodes": s.gpu_node_count,
                    "gpus_per_node": s.gpus_per_node,
                    "total_gpus": s.total_gpus,
                    "gpu_model": s.gpu_model,
                    "gpu_tdp_watts": s.gpu_tdp_watts,
                }
                for s in specs
            ],
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{'system':<8} {'profile':<8} {'nodes':>6} {'gpu nodes':>10} "
          f"{'gpus/node':>10} {'total gpus':>11}  gpu model")
    for s in specs:
        gpu_model = s.gpu_model or "-"
        print(f"{s.name:<8} {s.workload_profile:<8} {s.num_nodes:>6} "
              f"{s.gpu_node_count:>10} {s.gpus_per_node:>10} "
              f"{s.total_gpus:>11}  {gpu_model}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.telemetry.schema import save_jobs_csv, save_jobs_npz

    dataset = _make_dataset(args)
    out: Path = args.out
    if out.suffix == ".csv":
        save_jobs_csv(dataset.jobs, out)
    elif out.suffix == ".npz":
        save_jobs_npz(dataset.jobs, out)
    else:
        print(f"error: unsupported output suffix {out.suffix!r} (use .csv or .npz)",
              file=sys.stderr)
        return 2
    print(f"wrote {dataset.num_jobs} jobs ({dataset.spec.name}) to {out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro import analysis

    ds = _make_dataset(args)
    util = analysis.system_utilization(ds)
    power = analysis.power_utilization(ds)
    dist = analysis.per_node_power_distribution(ds)
    corr = analysis.feature_power_correlations(ds)
    conc = analysis.concentration_analysis(ds)
    var = analysis.user_power_variability(ds)
    clus = analysis.cluster_variability(ds, "nodes")

    print(f"system: {ds.spec.name}  jobs: {ds.num_jobs}  traces: {len(ds.traces)}")
    print(f"system utilization (Fig 1): mean {util.mean:.1%}")
    print(f"power utilization (Fig 2):  mean {power.mean:.1%}  "
          f"(stranded {power.stranded_fraction:.1%})")
    print(f"per-node power (Fig 3): {dist.mean_watts:.0f} W "
          f"({dist.mean_tdp_fraction:.0%} of TDP), sigma/mean {dist.std_over_mean:.0%}")
    print("Table 2 Spearman: "
          f"length {corr['job_length'].statistic:.2f} "
          f"(p={corr['job_length'].pvalue:.2g}), "
          f"size {corr['job_size'].statistic:.2f} "
          f"(p={corr['job_size'].pvalue:.2g})")
    print(f"user concentration (Fig 11): top 20% -> "
          f"{conc.node_hours_share:.0%} node-hours, {conc.energy_share:.0%} energy, "
          f"overlap {conc.top_set_overlap:.0%}")
    print(f"per-user power CoV (Fig 12): mean {var.mean_cov:.0%}")
    print(f"(user, nodes) clusters with sigma<10% (Fig 13): "
          f"{clus.frac_below_10pct:.1%} of {clus.n_clusters}")
    if ds.traces:
        temporal = analysis.temporal_summary(ds)
        spatial = analysis.spatial_summary(ds)
        print(f"temporal (Fig 7): mean overshoot {temporal.mean_peak_overshoot:.0%}, "
              f"mean time>10% {temporal.mean_frac_time_above_10pct:.0%}")
        print(f"spatial (Fig 9): mean spread {spatial.mean_spread_watts:.0f} W "
              f"({spatial.mean_spread_fraction:.0%} of per-node power)")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.analysis import run_prediction

    ds = _make_dataset(args)
    results = run_prediction(ds, n_repeats=args.repeats, seed=args.seed)
    print(f"system: {ds.spec.name}  jobs: {ds.num_jobs}  repeats: {args.repeats}")
    for name, result in results.items():
        s = result.summary
        print(f"{name:5s}  mean {s.mean:6.1%}  <5% err: {s.frac_below_5pct:5.1%}  "
              f"<10% err: {s.frac_below_10pct:5.1%}  (n={s.n})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    if getattr(args, "serve_command", None):
        return _cmd_serve_lifecycle(args)

    from repro.serve import create_server

    # SIGTERM (kill, service managers) takes the Ctrl-C teardown below:
    # the default action would kill only this process and leave the
    # spawned workers serving.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.trace_file is not None:
        from repro.obs.tracing import configure_tracing

        configure_tracing(args.trace_file)
        print(f"tracing spans to {args.trace_file}")
    injector = nullcontext()
    if args.fault_plan is not None:
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan.load(args.fault_plan)
        injector = FaultInjector(plan)
        print(f"armed fault plan {args.fault_plan} "
              f"(seed {plan.seed}, points: {', '.join(plan.points)})")
    spec = ScenarioSpec.from_args(args)
    print(f"scenario {spec.label}: training/loading {', '.join(args.warm)} …")
    if args.workers > 1:
        from repro.serve.forking import ForkingServer

        with injector, ForkingServer(
            spec, workers=args.workers, host=args.host, port=args.port,
            cache_dir=args.cache_dir, max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms, warm=tuple(args.warm),
            lifecycle=args.lifecycle, lifecycle_dir=args.lifecycle_dir,
        ) as pool:
            print(f"serving on http://{pool.address} with {args.workers} "
                  f"workers  (POST /predict, /predict/bulk; Ctrl-C stops)",
                  flush=True)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                _ignore_stop_signals()
                print("\nshutting down pool", flush=True)
        return 0
    with injector:
        server = create_server(
            spec, host=args.host, port=args.port, cache_dir=args.cache_dir,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            lifecycle=args.lifecycle, lifecycle_dir=args.lifecycle_dir,
        )
        for model, state in server.service.warm(tuple(args.warm)).items():
            if state != "ok":
                # Serve anyway: requests degrade to the mean baseline
                # until the registry recovers (docs/FAULTS.md).
                print(f"warning: warming {model} failed ({state}); "
                      "serving degraded")
        print(f"serving on http://{server.address}  "
              f"(POST /predict, GET /models, GET /healthz; Ctrl-C stops)",
              flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            _ignore_stop_signals()
            print("\nshutting down", flush=True)
        finally:
            server.close()
    return 0


def _ignore_stop_signals() -> None:
    """Let a started teardown finish: a repeated Ctrl-C or SIGTERM must
    not abort it mid-way (pool workers would leak)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _cmd_serve_lifecycle(args: argparse.Namespace) -> int:
    """``serve promote|rollback|history|replay`` — offline lifecycle admin.

    These verbs operate on the shared on-disk journal + artifact cache,
    so a running server pool (same --cache-dir) picks up promotes and
    rollbacks within its journal poll interval; no restart needed.
    """
    import json as _json
    import os

    from repro.serve.lifecycle import ModelLifecycle, replay_feedback
    from repro.serve.registry import ModelRegistry

    spec = ScenarioSpec.from_args(args)
    registry = ModelRegistry(cache_dir=args.cache_dir)
    manager = ModelLifecycle(
        spec, registry=registry, lifecycle_dir=args.lifecycle_dir
    )
    who = args.who or os.environ.get("USER", "cli")
    verb = args.serve_command
    from repro.errors import ServeError

    try:
        if verb == "promote":
            event = manager.promote(
                args.model, args.version, who=who, why=args.why
            )
            print(f"promoted {args.model} "
                  f"v{event['from_version']} -> v{event['version']} "
                  f"(scenario {spec.label})")
        elif verb == "rollback":
            event = manager.rollback(
                args.model, to_version=args.to_version, who=who, why=args.why
            )
            print(f"rolled back {args.model} "
                  f"v{event['from_version']} -> v{event['version']} "
                  f"(scenario {spec.label})")
        elif verb == "history":
            events = manager.history(model=args.model)
            for event in events:
                print(_json.dumps(event, sort_keys=True))
            if not events:
                print(f"(no lifecycle events for scenario {spec.label})",
                      file=sys.stderr)
        elif verb == "replay":
            from repro.pipeline import build_dataset

            ds = build_dataset(
                **spec.dataset_kwargs(), cache_dir=registry.cache.root
            )
            result = replay_feedback(
                manager, ds.jobs, limit=args.limit, batch=args.batch
            )
            print(f"replayed {result['replayed']} jobs "
                  f"(learner has seen {result['learner_jobs']}; "
                  f"drift events: {len(result['drift_events'])})")
        else:  # pragma: no cover - argparse restricts the choices
            raise ServeError(f"unknown serve verb {verb!r}")
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz import render_all_figures

    datasets = {args.system: _make_dataset(args)}
    if args.both_systems:
        other = "meggie" if args.system == "emmy" else "emmy"
        args.system = other
        datasets[other] = _make_dataset(args)
    paths = render_all_figures(datasets, args.out_dir, n_repeats=args.repeats)
    print(f"wrote {len(paths)} figures to {args.out_dir}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import full_report

    ds = _make_dataset(args)
    text = full_report(
        ds, include_prediction=not args.no_prediction, n_repeats=args.repeats
    )
    args.out.write_text(text)
    print(f"wrote report for {ds.spec.name} ({ds.num_jobs} jobs) to {args.out}")
    return 0


def _pipeline_shards(args: argparse.Namespace) -> list:
    from repro.pipeline import ShardConfig

    base = ScenarioSpec.from_args(args)
    systems = [base.system]
    if getattr(args, "both_systems", False):
        systems = ["emmy", "meggie"]
    seeds = getattr(args, "seeds", None) or [base.seed]
    return [
        ShardConfig.from_scenario(base.replace(system=system, seed=seed))
        for system in systems
        for seed in seeds
    ]


def _print_manifest(manifest) -> None:
    for shard in manifest.shards:
        parts = []
        for t in shard.stages:
            if t.cached:
                tag = "hit"
            elif t.seconds > 0:
                tag = f"{t.items_per_second:,.0f} jobs/s"
                if t.n_traces:
                    tag += f", {t.traces_per_second:,.0f} traces/s"
            else:
                tag = "built"
            parts.append(f"{t.stage} {t.seconds:.2f}s ({tag})")
        rate = "" if shard.fully_cached else f"  [{shard.jobs_per_second:,.0f} jobs/s]"
        print(f"  {shard.config.label:16s} {shard.n_jobs:6d} jobs  "
              + "  ".join(parts) + rate)
    hit = manifest.stages_cached
    print(f"total {manifest.total_seconds:.2f}s, {manifest.workers} worker(s), "
          f"{hit}/{manifest.stages_total} stage(s) from cache")


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    from repro.pipeline import DEFAULT_CHUNK_JOBS, run_pipeline

    stream = args.stream or args.chunk_jobs is not None
    manifest = run_pipeline(
        _pipeline_shards(args), cache_dir=args.cache_dir,
        workers=args.workers, manifest_path=args.manifest, force=args.force,
        stream=stream,
        chunk_jobs=args.chunk_jobs or DEFAULT_CHUNK_JOBS,
    )
    _print_manifest(manifest)
    if manifest.peak_rss_bytes:
        print(f"peak RSS: {manifest.peak_rss_bytes / 1e6:,.0f} MB")
    print(f"manifest: {Path(manifest.cache_dir) / 'manifest-latest.json'}")
    return 0


def _cmd_pipeline_run_all(args: argparse.Namespace) -> int:
    from repro.analysis import full_report
    from repro.pipeline import build_dataset, run_pipeline
    from repro.viz import render_all_figures

    args.both_systems = True
    args.seeds = None
    manifest = run_pipeline(
        _pipeline_shards(args), cache_dir=args.cache_dir,
        workers=args.workers, manifest_path=args.manifest,
    )
    _print_manifest(manifest)

    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    base = ScenarioSpec.from_args(args)
    datasets = {
        shard.config.system: build_dataset(
            **base.replace(system=shard.config.system,
                           seed=shard.config.seed).dataset_kwargs(),
            cache_dir=args.cache_dir,
        )
        for shard in manifest.shards
    }
    figures = render_all_figures(datasets, out_dir / "figures", n_repeats=args.repeats)
    print(f"wrote {len(figures)} figures to {out_dir / 'figures'}")
    for system, ds in datasets.items():
        report_path = out_dir / f"report_{system}.md"
        report_path.write_text(full_report(ds, n_repeats=args.repeats))
        print(f"wrote {report_path}")
    return 0


def _cmd_pipeline_status(args: argparse.Namespace) -> int:
    from repro.pipeline import CHUNK_STAGE, STAGES, ArtifactCache, default_cache_dir

    cache = ArtifactCache(args.cache_dir or default_cache_dir())
    entries = cache.entries()
    print(f"cache: {cache.root}")
    if not entries:
        print("  (empty)")
        return 0
    # Core pipeline stages in graph order, then extra stages (e.g. the
    # serving layer's trained-model artifacts) alphabetically.
    extra = sorted({e.stage for e in entries} - set(STAGES))
    for stage in (*STAGES, *extra):
        stage_entries = [e for e in entries if e.stage == stage]
        if not stage_entries:
            continue
        total_mb = sum(e.size_bytes for e in stage_entries) / 1e6
        print(f"{stage}: {len(stage_entries)} entries, {total_mb:.1f} MB")
        if stage == CHUNK_STAGE:
            _print_chunk_groups(cache, stage_entries)
            continue
        for e in stage_entries:
            if e.damaged:
                print(f"  {e.key[:12]}…  DAMAGED (unreadable meta; "
                      f"`pipeline clean --stage {e.stage}` removes it)")
                continue
            label = e.meta.get("label", "?")
            system = (e.meta.get("system")
                      or e.meta.get("config", {}).get("system", "?"))
            n = e.meta.get("n_items", e.meta.get("n_jobs", "?"))
            secs = e.meta.get("seconds")
            rate = ""
            if secs and isinstance(n, (int, float)):
                rate = f"  {n / secs:,.0f} items/s"
            print(f"  {e.key[:12]}…  {label:16s} [{system}] {n} items  "
                  f"{e.size_bytes / 1e6:.1f} MB{rate}")
    print(f"total: {cache.size_bytes() / 1e6:.1f} MB")
    return 0


def _print_chunk_groups(cache, stage_entries) -> None:
    """Spill shards grouped per streaming build: counts and on-disk bytes."""
    groups: dict[str, list] = {}
    for e in stage_entries:
        groups.setdefault(e.meta.get("dataset_key", "?"), []).append(e)
    for dataset_key, group in sorted(groups.items()):
        label = next(
            (e.meta.get("label") for e in group if e.meta.get("label")), "?"
        )
        bytes_mb = sum(e.size_bytes for e in group) / 1e6
        n_jobs = sum(e.meta.get("n_items", 0) for e in group)
        if dataset_key != "?" and cache.has("dataset", dataset_key):
            state = "orphaned (dataset committed; `pipeline clean --orphans`)"
        else:
            state = "resumable (dataset not committed yet)"
        print(f"  {label:16s} {len(group)} shard(s), {n_jobs} jobs, "
              f"{bytes_mb:.1f} MB — {state}")


def _cmd_pipeline_clean(args: argparse.Namespace) -> int:
    from repro.pipeline import ArtifactCache, default_cache_dir

    targeted = args.stage or args.system or args.seed is not None
    if not targeted and not args.all and not args.orphans:
        print("error: pass --stage/--system/--seed to target entries, "
              "--orphans for leftover spill shards, or --all to wipe "
              "the cache", file=sys.stderr)
        return 2
    cache = ArtifactCache(args.cache_dir or default_cache_dir())
    removed = 0
    if args.orphans:
        removed += cache.remove_orphan_shards()
    if targeted or args.all:
        removed += cache.remove(stage=args.stage, system=args.system, seed=args.seed)
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    if args.pipeline_command == "run":
        return _cmd_pipeline_run(args)
    if args.pipeline_command == "run-all":
        return _cmd_pipeline_run_all(args)
    if args.pipeline_command == "status":
        return _cmd_pipeline_status(args)
    if args.pipeline_command == "clean":
        return _cmd_pipeline_clean(args)
    raise AssertionError(f"unhandled pipeline command {args.pipeline_command!r}")


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_trace

    if args.obs_command == "summary":
        summary = summarize_trace(args.trace)
        print(
            summary.render(
                max_depth=args.max_depth, max_children=args.max_children
            )
        )
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_incidents(args: argparse.Namespace) -> int:
    if args.incidents_command == "list":
        return _cmd_incidents_list(args)
    if args.incidents_command == "run":
        return _cmd_incidents_run(args)
    if args.incidents_command == "grade":
        return _cmd_incidents_grade(args)
    raise AssertionError(
        f"unhandled incidents command {args.incidents_command!r}"
    )


def _cmd_incidents_list(args: argparse.Namespace) -> int:
    from repro.incidents import SCENARIOS

    if args.json:
        print(json.dumps(
            [s.to_dict() for s in SCENARIOS.values()], indent=2, sort_keys=True
        ))
        return 0
    print(f"{'scenario':<24} {'kind':<9} {'faulted points'}")
    for s in SCENARIOS.values():
        points = ", ".join(s.fault_points) or "-"
        print(f"{s.name:<24} {s.kind:<9} {points}")
        print(f"{'':<24} {'':<9} {s.description}")
    return 0


def _resolve_incident_names(args: argparse.Namespace) -> list[str]:
    from repro.incidents import get_scenario, scenario_names

    if args.all:
        if args.scenarios:
            raise IncidentError("pass scenario names or --all, not both")
        return list(scenario_names())
    if not args.scenarios:
        raise IncidentError("pass at least one scenario name, or --all")
    for name in args.scenarios:
        get_scenario(name)  # fail loudly before running anything
    return list(args.scenarios)


def _cmd_incidents_run(args: argparse.Namespace) -> int:
    from repro.incidents import run_scenario

    names = _resolve_incident_names(args)
    bundles = []
    for name in names:
        bundle = run_scenario(
            name, args.out_dir, cache_dir=args.cache_dir, verbose=True
        )
        bundles.append(bundle)
    print(f"wrote {len(bundles)} bundle(s) under {args.out_dir}")
    if not args.detector:
        return 0
    return _grade_bundles(bundles, args.detector, None, args.scorecard)


def _cmd_incidents_grade(args: argparse.Namespace) -> int:
    from repro.incidents import IncidentBundle

    bundles = [IncidentBundle.load(path) for path in args.bundles]
    return _grade_bundles(bundles, args.detector, args.answers, args.scorecard)


def _grade_bundles(bundles, detector_name, answers_path, scorecard_path) -> int:
    from repro.incidents import (
        DetectorAnswer, Scorecard, get_detector, grade_answer,
    )

    if answers_path is not None:
        raw = json.loads(Path(answers_path).read_text())
        if not isinstance(raw, list):
            raise IncidentError("answers file must hold a JSON list")
        answers = {a.scenario: a for a in map(DetectorAnswer.from_dict, raw)}
        detector_label = next(iter(answers.values())).detector if answers else "answers"

        def answer_for(bundle):
            answer = answers.get(bundle.scenario_name)
            if answer is None:
                raise IncidentError(
                    f"answers file has no entry for {bundle.scenario_name!r}"
                )
            return answer
    else:
        detector = get_detector(detector_name)
        detector_label = detector.name
        answer_for = detector.analyze

    card = Scorecard(detector=detector_label)
    for bundle in bundles:
        card.add(grade_answer(bundle, answer_for(bundle)))
    print(card.summary())
    if scorecard_path is not None:
        Path(scorecard_path).write_text(
            json.dumps(card.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"scorecard written to {scorecard_path}")
    return 0 if card.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # $REPRO_TRACE_FILE traces any subcommand without touching its flags
    # (the pipeline tools and the chaos harness use this).
    trace_env = os.environ.get("REPRO_TRACE_FILE")
    if trace_env:
        from repro.obs.tracing import active_writer, configure_tracing

        if active_writer() is None:
            configure_tracing(trace_env)
    try:
        return _dispatch(args)
    except (IncidentError, ObsError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `... status | head`); exit quietly the
        # way a well-behaved unix tool does.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


def _dispatch(args) -> int:
    if args.command == "specs":
        return _cmd_specs()
    if args.command == "systems":
        return _cmd_systems(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "incidents":
        return _cmd_incidents(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
