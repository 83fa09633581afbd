"""ScenarioSpec: the one scenario object every layer shares.

Covers validation, serialization, the legacy-keyword shim
(:func:`repro.spec.as_scenario`), digest identity with the pipeline
cache, and the top-level facade built on top of it.
"""

from __future__ import annotations

import argparse
import dataclasses

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.spec import DAY_S, ScenarioSpec, as_scenario


def test_defaults_match_full_production_configuration():
    spec = ScenarioSpec()
    assert spec.system == "emmy"
    assert spec.seed == 0
    assert spec.num_nodes is None and spec.num_users is None
    assert spec.horizon_s is None
    assert spec.max_traces == 2000


def test_derived_views():
    spec = ScenarioSpec("meggie", seed=7, horizon_days=2.5)
    assert spec.horizon_s == round(2.5 * DAY_S)
    assert spec.label == "meggie/seed7"
    assert spec.dataset_kwargs() == {
        "system": "meggie", "seed": 7, "num_nodes": None,
        "num_users": None, "horizon_s": 216000, "max_traces": 2000,
    }


@pytest.mark.parametrize(
    "bad",
    [
        {"system": ""},
        {"num_nodes": 0},
        {"num_users": -1},
        {"horizon_days": 0},
        {"horizon_days": -2},
        {"max_traces": -1},
    ],
)
def test_validation_rejects(bad):
    with pytest.raises(ScenarioError):
        ScenarioSpec(**bad)


def test_frozen_and_hashable():
    spec = ScenarioSpec("emmy", seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 2
    assert spec == ScenarioSpec("emmy", seed=1)
    assert {spec: "ok"}[ScenarioSpec("emmy", seed=1)] == "ok"


def test_replace_revalidates():
    spec = ScenarioSpec("emmy", num_nodes=10)
    assert spec.replace(num_nodes=20).num_nodes == 20
    with pytest.raises(ScenarioError):
        spec.replace(num_nodes=0)


def test_dict_round_trip():
    spec = ScenarioSpec("emmy", seed=9, num_nodes=30, horizon_days=1.5)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_from_dict_accepts_legacy_horizon_s():
    spec = ScenarioSpec.from_dict({"system": "emmy", "horizon_s": 3 * DAY_S})
    assert spec.horizon_days == 3.0
    with pytest.raises(ScenarioError, match="not both"):
        ScenarioSpec.from_dict({"horizon_s": DAY_S, "horizon_days": 2})
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        ScenarioSpec.from_dict({"nodes": 4})


def test_from_args_namespace():
    args = argparse.Namespace(
        system="meggie", seed=5, num_nodes=12, num_users=6,
        horizon_days=4.0, max_traces=99,
    )
    assert ScenarioSpec.from_args(args) == ScenarioSpec(
        "meggie", seed=5, num_nodes=12, num_users=6,
        horizon_days=4.0, max_traces=99,
    )


def test_as_scenario_shim_styles():
    spec = ScenarioSpec("emmy", seed=3)
    assert as_scenario(spec) is spec
    assert as_scenario(spec, seed=4) == ScenarioSpec("emmy", seed=4)
    assert as_scenario({"system": "meggie", "seed": 2}) == ScenarioSpec("meggie", seed=2)
    # Legacy positional-system + keyword style, incl. horizon_s.
    assert as_scenario("meggie", horizon_s=2 * DAY_S) == ScenarioSpec(
        "meggie", horizon_days=2.0
    )
    assert as_scenario(seed=11) == ScenarioSpec(seed=11)
    with pytest.raises(ScenarioError, match="positionally and by keyword"):
        as_scenario("emmy", system="meggie")


def test_dataset_digest_matches_pipeline_stage_key():
    from repro.pipeline.config import ShardConfig, stage_key

    spec = ScenarioSpec("emmy", seed=3, num_nodes=24, horizon_days=2)
    assert spec.dataset_digest == stage_key(spec.to_shard_config(), "dataset")
    assert spec.dataset_digest != spec.replace(seed=4).dataset_digest
    assert ShardConfig.from_scenario(spec) == spec.to_shard_config()
    # Pipeline-only knobs pass through to the shard config.
    assert ShardConfig.from_scenario(spec, backfill_depth=7).backfill_depth == 7


def test_dataset_digest_is_computed_once_per_spec(monkeypatch):
    from repro.pipeline import config

    calls = []
    stage_key = config.stage_key
    monkeypatch.setattr(
        config, "stage_key", lambda *a: calls.append(a) or stage_key(*a)
    )
    spec = ScenarioSpec("emmy", seed=3, num_nodes=24, horizon_days=2)
    digests = {spec.dataset_digest for _ in range(5)}
    assert len(digests) == 1 and len(calls) == 1
    # The cached value is invisible to equality, hashing and to_dict.
    fresh = ScenarioSpec("emmy", seed=3, num_nodes=24, horizon_days=2)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert spec.to_dict() == fresh.to_dict()
    assert "dataset_digest" not in spec.to_dict()
    assert fresh.dataset_digest == digests.pop()
    assert spec.replace(seed=4).dataset_digest != spec.dataset_digest


def test_facade_generate_dataset_matches_legacy_style():
    import repro
    from repro.telemetry import generate_dataset as legacy

    spec = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=10,
                        horizon_days=2, max_traces=10)
    via_spec = repro.generate_dataset(spec)
    via_kwargs = legacy(
        "emmy", seed=3, num_nodes=24, num_users=10,
        horizon_s=2 * DAY_S, max_traces=10,
    )
    assert via_spec.num_jobs == via_kwargs.num_jobs
    np.testing.assert_array_equal(
        via_spec.jobs["pernode_power_w"], via_kwargs.jobs["pernode_power_w"]
    )
    # The facade also still accepts the legacy keyword style directly.
    via_facade_kwargs = repro.generate_dataset(
        "emmy", seed=3, num_nodes=24, num_users=10,
        horizon_s=2 * DAY_S, max_traces=10,
    )
    assert via_facade_kwargs.num_jobs == via_spec.num_jobs


def test_facade_cached_build_is_identical(tmp_path):
    import repro

    spec = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=10,
                        horizon_days=2, max_traces=10)
    direct = repro.generate_dataset(spec)
    cached = repro.generate_dataset(spec, cached=True, cache_dir=tmp_path)
    np.testing.assert_array_equal(
        cached.jobs["pernode_power_w"], direct.jobs["pernode_power_w"]
    )


def test_facade_evaluate_smoke(tmp_path):
    import repro

    spec = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=10,
                        horizon_days=2, max_traces=10)
    results = repro.evaluate(spec, n_repeats=1, cache_dir=tmp_path)
    assert set(results) >= {"BDT", "KNN", "FLDA"}
    for result in results.values():
        assert 0.0 <= result.summary.frac_below_10pct <= 1.0
