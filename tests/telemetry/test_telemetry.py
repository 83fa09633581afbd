"""Tests for sampling, traces, dataset assembly, and the schema."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import SchemaError, TelemetryError
from repro.scheduler.job import ScheduledJob
from repro.telemetry import JobPowerTrace, PowerSampler, generate_dataset
from repro.telemetry import dataset as telemetry_dataset
from repro.telemetry.schema import (
    JOB_COLUMNS,
    load_jobs_csv,
    load_jobs_npz,
    save_jobs_csv,
    save_jobs_npz,
    validate_jobs,
)
from repro.workload.generator import JobSpec
from repro.workload.phases import TemporalProfile
from repro.workload.spatial import SpatialModel


def scheduled_job(nodes=4, runtime=1800, fraction=0.7, kind="flat"):
    spec = JobSpec(
        job_id=1,
        user_id="u0001",
        app="gromacs",
        system="emmy",
        class_id=0,
        nodes=nodes,
        req_walltime_s=max(3600, runtime),
        runtime_s=runtime,
        submit_s=0,
        power_fraction=fraction,
        profile=TemporalProfile(kind=kind, amp=0.3, duty=0.2),
        spatial=SpatialModel(static_sigma=0.03),
    )
    return ScheduledJob(spec=spec, start_s=0, node_ids=np.arange(nodes))


class TestPowerSampler:
    @pytest.fixture()
    def sampler(self, rng):
        cluster = Cluster.from_name("emmy", seed=0, num_nodes=16)
        return PowerSampler(cluster, rng)

    def test_aggregate_shape_and_level(self, sampler):
        levels = sampler.sample_aggregate(scheduled_job())
        assert levels.shape == (4,)
        # Nominal draw is 0.7 * 210 = 147 W, modulated by ~±5% factors.
        assert 120 < levels.mean() < 175
        assert np.all(levels <= 210.0)

    def test_matrix_shape(self, sampler):
        matrix = sampler.sample_matrix(scheduled_job(nodes=3, runtime=1800))
        assert matrix.shape == (3, 30)
        assert np.all((matrix >= 0) & (matrix <= 210.0))

    def test_matrix_mean_tracks_aggregate(self, sampler):
        job = scheduled_job(nodes=6, runtime=7200)
        matrix = sampler.sample_matrix(job)
        assert matrix.mean() == pytest.approx(0.7 * 210.0, rel=0.10)

    def test_high_fraction_clipped_at_tdp(self, sampler):
        matrix = sampler.sample_matrix(scheduled_job(fraction=0.99))
        assert matrix.max() <= 210.0


class TestJobPowerTrace:
    def make_trace(self, matrix) -> JobPowerTrace:
        return JobPowerTrace(
            job_id=1, user_id="u1", app="gromacs", system="emmy",
            matrix=np.asarray(matrix, dtype=float),
        )

    def test_per_node_power(self):
        t = self.make_trace([[100.0, 100.0], [200.0, 200.0]])
        assert t.per_node_power() == 150.0

    def test_temporal_metrics_flat(self):
        t = self.make_trace(np.full((2, 100), 100.0))
        assert t.temporal_cov() == 0.0
        assert t.peak_overshoot() == 0.0
        assert t.fraction_time_above(0.10) == 0.0

    def test_peak_overshoot(self):
        series = np.full(100, 100.0)
        series[10] = 150.0
        t = self.make_trace(series[None, :])
        assert t.peak_overshoot() == pytest.approx(0.5 / 1.005, rel=0.02)

    def test_fraction_time_above(self):
        series = np.full(100, 100.0)
        series[:20] = 130.0  # mean = 106; 130 > 1.1*106
        t = self.make_trace(series[None, :])
        assert t.fraction_time_above(0.10) == pytest.approx(0.20)

    def test_spatial_spread(self):
        m = np.vstack([np.full(50, 100.0), np.full(50, 120.0)])
        t = self.make_trace(m)
        assert t.avg_spatial_spread() == pytest.approx(20.0)
        assert t.spatial_spread_fraction() == pytest.approx(20.0 / 110.0)

    def test_single_node_spread_zero(self):
        t = self.make_trace(np.full((1, 30), 100.0))
        assert t.avg_spatial_spread() == 0.0
        assert t.fraction_time_spread_above_average() == 0.0

    def test_energy_imbalance(self):
        m = np.vstack([np.full(60, 100.0), np.full(60, 115.0)])
        t = self.make_trace(m)
        assert t.energy_imbalance_fraction() == pytest.approx(0.15)

    def test_validation(self):
        with pytest.raises(TelemetryError):
            self.make_trace(np.full((2, 2), -1.0))
        with pytest.raises(TelemetryError):
            self.make_trace(np.zeros((0, 5)))


class TestDatasetAssembly:
    def test_schema_complete(self, emmy_small):
        validate_jobs(emmy_small.jobs)

    def test_counts_consistent(self, emmy_small):
        ds = emmy_small
        assert ds.num_jobs == len(ds.jobs)
        assert len(ds.traces) > 0
        assert ds.num_minutes >= ds.horizon_s // 60

    def test_instrumented_flags_match_traces(self, emmy_small):
        flagged = set(
            emmy_small.jobs["job_id"][emmy_small.jobs["instrumented"]].tolist()
        )
        assert flagged == set(emmy_small.traces)

    def test_timeline_never_exceeds_capacity(self, emmy_small):
        assert emmy_small.active_nodes.max() <= emmy_small.spec.num_nodes

    def test_power_below_provisioned(self, emmy_small):
        assert np.all(
            emmy_small.total_power_watts() <= emmy_small.spec.total_tdp_watts
        )

    def test_pernode_power_physical(self, emmy_small):
        power = emmy_small.jobs["pernode_power_w"]
        assert np.all(power > 0)
        assert np.all(power <= emmy_small.spec.node_tdp_watts)

    def test_energy_consistent_with_power(self, emmy_small):
        jobs = emmy_small.jobs
        implied = jobs["pernode_power_w"] * jobs["nodes"] * jobs["runtime_s"]
        np.testing.assert_allclose(jobs["energy_j"], implied, rtol=1e-6)

    def test_deterministic(self):
        a = generate_dataset("emmy", seed=3, num_nodes=20, num_users=8,
                             horizon_s=2 * 86400, max_traces=5)
        b = generate_dataset("emmy", seed=3, num_nodes=20, num_users=8,
                             horizon_s=2 * 86400, max_traces=5)
        np.testing.assert_array_equal(
            a.jobs["pernode_power_w"], b.jobs["pernode_power_w"]
        )

    def test_trace_table(self, emmy_small):
        t = emmy_small.trace_table()
        assert len(t) == len(emmy_small.traces)
        assert "peak_overshoot" in t


class TestSchema:
    def test_csv_roundtrip(self, emmy_small, tmp_path):
        path = tmp_path / "jobs.csv"
        save_jobs_csv(emmy_small.jobs, path)
        back = load_jobs_csv(path)
        assert len(back) == emmy_small.num_jobs
        np.testing.assert_allclose(
            back["pernode_power_w"], emmy_small.jobs["pernode_power_w"]
        )
        assert back["is_debug"].dtype.kind == "b"

    def test_npz_roundtrip(self, emmy_small, tmp_path):
        path = tmp_path / "jobs.npz"
        save_jobs_npz(emmy_small.jobs, path)
        back = load_jobs_npz(path)
        np.testing.assert_array_equal(back["job_id"], emmy_small.jobs["job_id"])

    def test_missing_column_rejected(self, emmy_small):
        with pytest.raises(SchemaError, match="missing"):
            validate_jobs(emmy_small.jobs.drop("pernode_power_w"))

    def test_duplicate_job_ids_rejected(self, emmy_small):
        bad = emmy_small.jobs.with_column(
            "job_id", np.zeros(emmy_small.num_jobs, dtype=np.int64)
        )
        with pytest.raises(SchemaError, match="unique"):
            validate_jobs(bad)

    def test_wrong_dtype_rejected(self, emmy_small):
        bad = emmy_small.jobs.with_column(
            "nodes", emmy_small.jobs["nodes"].astype(float)
        )
        with pytest.raises(SchemaError, match="dtype"):
            validate_jobs(bad)

    def test_all_schema_columns_documented(self):
        assert set(JOB_COLUMNS) >= {"job_id", "user", "app", "pernode_power_w"}


class TestModelsFailures:
    """Which systems get the ``exit_code``/``failed`` columns."""

    def test_registered_profiles(self):
        assert not telemetry_dataset._models_failures("emmy")
        assert telemetry_dataset._models_failures("alex")
        assert telemetry_dataset._models_failures("woody")

    def test_unregistered_system_gets_legacy_columns(self):
        assert not telemetry_dataset._models_failures("no-such-cluster")

    def test_other_errors_propagate(self, monkeypatch):
        def broken(name):
            raise RuntimeError("registry unavailable")

        monkeypatch.setattr(telemetry_dataset, "get_spec", broken)
        with pytest.raises(RuntimeError, match="registry unavailable"):
            telemetry_dataset._models_failures("emmy")
