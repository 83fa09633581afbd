"""End-to-end dataset assembly: generate → schedule → sample → join.

:func:`generate_dataset` is the package's one-stop pipeline. It returns
a :class:`JobDataset` holding

* ``jobs`` — one row per job: accounting records joined with measured
  power aggregates (the paper's "overall averages across the runtime and
  nodes of a job"),
* ``traces`` — full node×minute matrices for an instrumented subset of
  key applications (the paper logged these for one month), and
* per-minute system timelines of active nodes and drawn power, feeding
  the Fig 1 / Fig 2 analyses.

The pipeline is factored into the four stages :mod:`repro.pipeline`
caches independently (see docs/PIPELINE.md):

1. **workload** — :func:`build_inputs` + :meth:`WorkloadGenerator.generate`
2. **schedule** — :func:`repro.scheduler.simulate`
3. **telemetry** — :func:`sample_telemetry` (RAPL sampling, instrumented
   traces)
4. **dataset** — :func:`join_dataset` (accounting join + system timelines)

:func:`assemble` remains the one-call combination of stages 3 + 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.specs import SystemSpec, get_spec
from repro.cluster.system import Cluster
from repro.cluster.variability import VariabilityModel
from repro.errors import ClusterError, TelemetryError
from repro.frames import Table
from repro.rng import RngFactory
from repro.scheduler import accounting_table, simulate
from repro.scheduler.job import ScheduledJob
from repro.telemetry.sampler import GpuSampler, PowerSampler
from repro.telemetry.trace import JobPowerTrace
from repro.units import MINUTE
from repro.workload.applications import KEY_APPS
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadParams,
    default_params,
)

__all__ = [
    "JobDataset",
    "TelemetrySample",
    "build_inputs",
    "sample_telemetry",
    "join_jobs",
    "join_dataset",
    "assemble",
    "generate_dataset",
]

# RAPL floor of an allocated-but-unloaded or unallocated node, as used by
# the node model (kept in sync with repro.cluster.node._IDLE_FRACTION).
_IDLE_FRACTION = 0.22


@dataclass
class JobDataset:
    """The joined dataset all analyses consume."""

    spec: SystemSpec
    jobs: Table
    traces: dict[int, JobPowerTrace]
    horizon_s: int
    active_nodes: np.ndarray  # per-minute allocated node count
    job_power_watts: np.ndarray  # per-minute power drawn by running jobs
    # Physical node ids of each instrumented job (job_id -> array); used
    # by the fleet-wide spatial diagnostics (repro.analysis.stragglers).
    trace_allocations: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.active_nodes) != len(self.job_power_watts):
            raise TelemetryError("timeline arrays must have equal length")

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_minutes(self) -> int:
        return len(self.active_nodes)

    @property
    def idle_node_watts(self) -> float:
        return _IDLE_FRACTION * self.spec.node_tdp_watts

    def total_power_watts(self) -> np.ndarray:
        """Per-minute draw of *all* compute nodes (idle nodes still draw)."""
        inactive = np.maximum(self.spec.num_nodes - self.active_nodes, 0)
        return self.job_power_watts + inactive * self.idle_node_watts

    def trace_table(self) -> Table:
        """Per-instrumented-job dynamic metrics as a table."""
        traces = list(self.traces.values())
        return Table(
            {
                "job_id": np.asarray([t.job_id for t in traces], dtype=np.int64),
                "user": np.asarray([t.user_id for t in traces], dtype=str),
                "app": np.asarray([t.app for t in traces], dtype=str),
                "pernode_power_w": np.asarray([t.per_node_power() for t in traces]),
                "temporal_cov": np.asarray([t.temporal_cov() for t in traces]),
                "peak_overshoot": np.asarray([t.peak_overshoot() for t in traces]),
                "frac_time_above_10pct": np.asarray(
                    [t.fraction_time_above(0.10) for t in traces]
                ),
                "avg_spatial_spread_w": np.asarray(
                    [t.avg_spatial_spread() for t in traces]
                ),
                "spatial_spread_frac": np.asarray(
                    [t.spatial_spread_fraction() for t in traces]
                ),
                "frac_time_spread_above_avg": np.asarray(
                    [t.fraction_time_spread_above_average() for t in traces]
                ),
                "energy_imbalance_frac": np.asarray(
                    [t.energy_imbalance_fraction() for t in traces]
                ),
            }
        )


@dataclass
class TelemetrySample:
    """Per-job sampled power aggregates plus the instrumented traces.

    This is the output of the **telemetry** pipeline stage
    (:func:`sample_telemetry`): everything the monitoring system
    measured, before it is joined with the batch system's accounting
    records by :func:`join_dataset`. All arrays are indexed by position
    in the scheduled-job list they were sampled from.
    """

    pernode_power: np.ndarray  # mean watts per node over the runtime
    power_sum: np.ndarray  # summed node watts (the job's draw while running)
    energy: np.ndarray  # total joules over the runtime
    instrumented: np.ndarray  # bool: has a time-resolved trace
    is_debug: np.ndarray  # bool: debug / pre-post-processing job
    traces: dict[int, JobPowerTrace]
    trace_allocations: dict[int, np.ndarray]
    # Samples the monitor dropped (faults, outages) and the stage had to
    # gap-fill with the deterministic noise-free level. Older cached
    # pickles lack the field — read it as ``getattr(s, "n_gaps", 0)``.
    n_gaps: int = 0
    # GPU-side measurements (repro.telemetry.sampler.GpuSampler), only
    # on systems with accelerators; None elsewhere — and on older
    # cached pickles, which resolve these through the class defaults.
    gpu_power: np.ndarray | None = None  # summed board watts per job
    gpu_count: np.ndarray | None = None  # allocated boards per job

    def __post_init__(self) -> None:
        n = len(self.pernode_power)
        for name in ("power_sum", "energy", "instrumented", "is_debug"):
            if len(getattr(self, name)) != n:
                raise TelemetryError(f"telemetry array {name!r} has mismatched length")
        for name in ("gpu_power", "gpu_count"):
            value = getattr(self, name)
            if value is not None and len(value) != n:
                raise TelemetryError(f"telemetry array {name!r} has mismatched length")

    @property
    def num_jobs(self) -> int:
        return len(self.pernode_power)


def build_inputs(
    system: str,
    seed: int = 0,
    num_nodes: int | None = None,
    num_users: int | None = None,
    horizon_s: int | None = None,
    params_overrides: dict | None = None,
    variability_sigma: float | None = None,
) -> tuple[Cluster, WorkloadParams]:
    """Construct the (cluster, workload params) pair the pipeline shares.

    Every stage of the pipeline derives from these two objects plus the
    seed; factoring their construction out guarantees the staged runner
    (:mod:`repro.pipeline`) and the one-shot :func:`generate_dataset`
    build byte-identical datasets for the same configuration.
    """
    if variability_sigma is None:
        cluster = Cluster.from_name(system, seed=seed, num_nodes=num_nodes)
    else:
        cluster = Cluster(
            get_spec(system), seed=seed, num_nodes=num_nodes,
            variability=VariabilityModel(sigma=variability_sigma),
        )
    params = default_params(system, num_users=num_users, horizon_s=horizon_s)
    if params_overrides:
        params = replace(params, **params_overrides)
    return cluster, params


def generate_dataset(
    system: str = "emmy",
    seed: int = 0,
    num_nodes: int | None = None,
    num_users: int | None = None,
    horizon_s: int | None = None,
    max_traces: int = 2000,
    backfill_depth: int = 100,
    params_overrides: dict | None = None,
    variability_sigma: float | None = None,
) -> JobDataset:
    """Run the full pipeline for one system.

    Parameters
    ----------
    system:
        Any registered system name (:func:`repro.cluster.known_systems`):
        the paper's ``"emmy"``/``"meggie"`` or the heterogeneous
        ``"alex"``/``"woody"`` (docs/SCENARIOS.md).
    num_nodes, num_users, horizon_s:
        Scale-down overrides for tests/benches; defaults reproduce the
        full 5-month production configuration.
    max_traces:
        Size cap of the instrumented (time-resolved) subset.
    params_overrides:
        Extra :class:`~repro.workload.generator.WorkloadParams` fields to
        replace (ablation knobs like ``temporal_mode``/``spatial_scale``).
    variability_sigma:
        Override the manufacturing-variability sigma (0 disables it).

    .. note::
       :func:`repro.pipeline.build_dataset` is a drop-in replacement that
       caches each stage on disk, so repeated builds of the same
       configuration are near-instant.
    """
    cluster, params = build_inputs(
        system, seed=seed, num_nodes=num_nodes, num_users=num_users,
        horizon_s=horizon_s, params_overrides=params_overrides,
        variability_sigma=variability_sigma,
    )
    generator = WorkloadGenerator(params, cluster.num_nodes, seed=seed)
    specs = generator.generate()
    scheduled = simulate(specs, cluster.num_nodes, backfill_depth=backfill_depth)
    return assemble(cluster, scheduled, params.horizon_s, seed=seed, max_traces=max_traces)


def sample_telemetry(
    cluster: Cluster,
    scheduled: list[ScheduledJob],
    horizon_s: int,
    seed: int = 0,
    max_traces: int = 2000,
) -> TelemetrySample:
    """The monitoring system's view of a scheduled job stream.

    Samples RAPL aggregates for every job and full node×minute matrices
    for an instrumented subset of key-app, multi-node, non-trivial-length
    jobs inside a one-month window (the paper's time-resolved logging
    period). Deterministic for a fixed ``(cluster, scheduled, seed)``.
    """
    if not scheduled:
        raise TelemetryError("no scheduled jobs to sample")
    rngs = RngFactory(seed).child(f"telemetry.{cluster.name}")
    sampler = PowerSampler(cluster, rngs.get("aggregate"))
    trace_sampler = PowerSampler(cluster, rngs.get("traces"))
    # GPU boards are measured from their own stream, so the CPU streams
    # above replay the exact draws of a CPU-only build.
    gpu_sampler = (
        GpuSampler(cluster, rngs.get("gpu")) if cluster.spec.has_gpus else None
    )

    # Aggregates for every job come from the fused batch sweep — one RNG
    # draw and one clip pass over all node slots, bit-identical to the
    # per-job sample_aggregate loop it replaced.
    pernode_power, power_sum = sampler.sample_aggregate_batch(scheduled)
    # Tolerance for dropped samples (the telemetry.drop fault point, or a
    # real monitoring outage): gap-fill each NaN aggregate with the job's
    # deterministic noise-free level and account for it explicitly — the
    # gap count travels through the stage meta into the run manifest.
    gap_idx = np.nonzero(np.isnan(pernode_power))[0]
    for i in gap_idx:
        pernode_power[i], power_sum[i] = sampler.nominal_aggregate(scheduled[i])
    runtimes = np.fromiter(
        (job.spec.runtime_s for job in scheduled), dtype=float, count=len(scheduled)
    )
    energy = power_sum * runtimes
    instrumented = np.zeros(len(scheduled), dtype=bool)
    is_debug = np.fromiter(
        (job.spec.is_debug for job in scheduled), dtype=bool, count=len(scheduled)
    )

    window_lo = 0.30 * horizon_s
    window_hi = min(horizon_s, window_lo + horizon_s / 5.0)
    traces: dict[int, JobPowerTrace] = {}
    trace_allocations: dict[int, np.ndarray] = {}

    key_apps = set(KEY_APPS)
    for i, job in enumerate(scheduled):
        spec = job.spec
        if (
            len(traces) < max_traces
            and spec.app in key_apps
            and spec.nodes >= 2
            and spec.runtime_s >= 20 * MINUTE
            and window_lo <= job.start_s < window_hi
        ):
            matrix = trace_sampler.sample_matrix(job)
            traces[spec.job_id] = JobPowerTrace(
                job_id=spec.job_id,
                user_id=spec.user_id,
                app=spec.app,
                system=spec.system,
                matrix=matrix,
            )
            trace_allocations[spec.job_id] = job.node_ids.copy()
            instrumented[i] = True

    gpu_power = gpu_count = None
    if gpu_sampler is not None:
        gpu_power, gpu_count = gpu_sampler.sample_batch(scheduled)

    return TelemetrySample(
        pernode_power=pernode_power,
        power_sum=power_sum,
        energy=energy,
        instrumented=instrumented,
        is_debug=is_debug,
        traces=traces,
        trace_allocations=trace_allocations,
        n_gaps=int(len(gap_idx)),
        gpu_power=gpu_power,
        gpu_count=gpu_count,
    )


def join_jobs(scheduled: list[ScheduledJob], sample: TelemetrySample) -> Table:
    """Join accounting records with sampled power into the job-level table.

    The column-building half of :func:`join_dataset`, shared with the
    streaming pipeline, which joins each spilled chunk independently:
    every derived column is per-job, so a chunk's table equals the
    matching slice of the monolithic one.

    On heterogeneous systems the table carries the *optional* schema
    columns too (``repro.telemetry.schema.OPTIONAL_JOB_COLUMNS``): GPU
    allocation/power/energy when the sample measured boards, and
    exit-state columns when the system's workload models failures. The
    paper's CPU systems emit exactly the original column set, keeping
    their artifacts byte-identical.
    """
    jobs = accounting_table(scheduled)
    jobs = jobs.with_column("pernode_power_w", sample.pernode_power)
    jobs = jobs.with_column("energy_j", sample.energy)
    jobs = jobs.with_column(
        "node_hours",
        jobs["nodes"].astype(float) * jobs["runtime_s"].astype(float) / 3600.0,
    )
    jobs = jobs.with_column("is_debug", sample.is_debug)
    jobs = jobs.with_column("instrumented", sample.instrumented)
    gpu_power = getattr(sample, "gpu_power", None)
    if gpu_power is not None:
        jobs = jobs.with_column("gpus", sample.gpu_count.astype(np.int64))
        jobs = jobs.with_column("gpu_power_w", gpu_power)
        jobs = jobs.with_column(
            "gpu_energy_j", gpu_power * jobs["runtime_s"].astype(float)
        )
    if scheduled and _models_failures(scheduled[0].spec.system):
        exit_code = np.fromiter(
            (getattr(job.spec, "exit_code", 0) for job in scheduled),
            dtype=np.int64,
            count=len(scheduled),
        )
        jobs = jobs.with_column("exit_code", exit_code)
        jobs = jobs.with_column("failed", exit_code != 0)
    return jobs


def _models_failures(system: str) -> bool:
    """Whether a system's workload carries exit-state columns.

    Keyed on the registered spec's workload profile — the ML and mixed
    catalogs model failures (docs/SCENARIOS.md); unregistered ad-hoc
    system names (the :class:`ClusterError` of :func:`get_spec`) behave
    like the paper's CPU systems; any other error propagates.
    """
    try:
        return get_spec(system).workload_profile != "hpc"
    except ClusterError:
        return False


def join_dataset(
    cluster: Cluster,
    scheduled: list[ScheduledJob],
    horizon_s: int,
    sample: TelemetrySample,
) -> JobDataset:
    """Join accounting records with sampled power into a :class:`JobDataset`.

    The **dataset** pipeline stage: builds the per-minute system
    timelines from the schedule and the sampled per-job draw, then joins
    the batch system's accounting table with the power aggregates.
    Purely deterministic — all randomness lives in the earlier stages.
    """
    if not scheduled:
        raise TelemetryError("no scheduled jobs to join")
    if sample.num_jobs != len(scheduled):
        raise TelemetryError(
            f"telemetry covers {sample.num_jobs} jobs, schedule has {len(scheduled)}"
        )
    end_minute = max(j.end_s for j in scheduled) // MINUTE + 1
    n_minutes = max(end_minute, int(np.ceil(horizon_s / MINUTE)))
    m = len(scheduled)
    a_min = np.fromiter((j.start_s // MINUTE for j in scheduled), np.int64, count=m)
    b_min = np.maximum(
        a_min + 1,
        np.fromiter((j.end_s // MINUTE for j in scheduled), np.int64, count=m),
    )
    nodes_per_job = np.fromiter((j.spec.nodes for j in scheduled), np.int64, count=m)
    # Integer occupancy via a boundary/prefix-sum sweep (exact in any
    # order); the float power timeline keeps the per-job slice adds so
    # its accumulation order — and hence its bytes — are unchanged.
    bounds = np.zeros(n_minutes + 1, dtype=np.int64)
    np.add.at(bounds, a_min, nodes_per_job)
    np.subtract.at(bounds, b_min, nodes_per_job)
    active = np.cumsum(bounds[:-1])
    job_power = np.zeros(n_minutes, dtype=float)
    # tolist() up front: per-element numpy scalar indexing dominates the
    # slice adds themselves at million-job scale.
    for a, b, w in zip(a_min.tolist(), b_min.tolist(), sample.power_sum.tolist()):
        job_power[a:b] += w

    if np.any(active > cluster.num_nodes):
        raise TelemetryError("scheduler over-allocated nodes (timeline check)")

    jobs = join_jobs(scheduled, sample)

    return JobDataset(
        spec=cluster.spec,
        jobs=jobs,
        traces=sample.traces,
        horizon_s=int(horizon_s),
        active_nodes=active,
        job_power_watts=job_power,
        trace_allocations=sample.trace_allocations,
    )


def assemble(
    cluster: Cluster,
    scheduled: list[ScheduledJob],
    horizon_s: int,
    seed: int = 0,
    max_traces: int = 2000,
) -> JobDataset:
    """Join scheduling output with sampled power into a :class:`JobDataset`."""
    sample = sample_telemetry(
        cluster, scheduled, horizon_s, seed=seed, max_traces=max_traces
    )
    return join_dataset(cluster, scheduled, horizon_s, sample)
