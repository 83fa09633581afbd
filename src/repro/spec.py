"""The canonical scenario description shared across the package.

A :class:`ScenarioSpec` answers "which simulated machine, at what scale,
over what horizon?" once, in one frozen object, instead of every layer
re-declaring the same six keyword arguments. It is consumed by

* the CLI (``--system/--seed/--num-nodes/...`` flags map 1:1 to fields),
* the pipeline (:meth:`repro.pipeline.ShardConfig.from_scenario`),
* the top-level facade (:func:`repro.generate_dataset`,
  :func:`repro.evaluate`, :func:`repro.create_server`), and
* the serving layer, which keys trained models by
  :attr:`ScenarioSpec.dataset_digest` — the same content address the
  pipeline cache uses for the dataset artifact.

The module is deliberately import-light (no numpy, no simulation layer)
so the PEP 562 lazy package surface and the CLI's bookkeeping
subcommands can load it for free.

Legacy call sites that still pass ``system=...``/``horizon_s=...``
keyword arguments go through :func:`as_scenario`, the thin shim that
normalizes either style into a ``ScenarioSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Mapping

from repro.errors import ScenarioError

__all__ = ["DAY_S", "ScenarioSpec", "as_scenario"]

DAY_S = 86400


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulated-deployment scenario: system, seed, scale, horizon.

    Fields mirror the CLI's scale flags; ``None`` means "the paper's
    full production configuration" (all nodes, calibrated user count,
    the 5-month horizon). The spec is hashable and frozen, so it can key
    caches directly.

    >>> spec = ScenarioSpec("emmy", seed=7, num_nodes=40, horizon_days=2)
    >>> spec.horizon_s
    172800
    >>> spec.label
    'emmy/seed7'
    """

    system: str = "emmy"
    seed: int = 0
    num_nodes: int | None = None
    num_users: int | None = None
    horizon_days: float | None = None
    max_traces: int = 2000

    def __post_init__(self) -> None:
        if not self.system or not isinstance(self.system, str):
            raise ScenarioError("scenario needs a system name")
        if self.num_nodes is not None and self.num_nodes < 1:
            raise ScenarioError("num_nodes must be >= 1")
        if self.num_users is not None and self.num_users < 1:
            raise ScenarioError("num_users must be >= 1")
        if self.horizon_days is not None and self.horizon_days <= 0:
            raise ScenarioError("horizon_days must be positive")
        if self.max_traces < 0:
            raise ScenarioError("max_traces must be >= 0")

    # -- derived views ---------------------------------------------------

    @property
    def horizon_s(self) -> int | None:
        """The horizon in seconds, as the simulation layers expect."""
        if self.horizon_days is None:
            return None
        return round(self.horizon_days * DAY_S)

    @property
    def label(self) -> str:
        """Short human-readable name, e.g. ``emmy/seed7``."""
        return f"{self.system}/seed{self.seed}"

    def dataset_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for ``generate_dataset`` / ``build_dataset``."""
        return {
            "system": self.system,
            "seed": self.seed,
            "num_nodes": self.num_nodes,
            "num_users": self.num_users,
            "horizon_s": self.horizon_s,
            "max_traces": self.max_traces,
        }

    def to_shard_config(self, **extra: Any):
        """The pipeline :class:`~repro.pipeline.ShardConfig` for this scenario.

        ``extra`` passes through pipeline-only knobs (``backfill_depth``,
        ``params_overrides``, ``variability_sigma``).
        """
        from repro.pipeline.config import ShardConfig

        return ShardConfig(**self.dataset_kwargs(), **extra)

    @cached_property
    def dataset_digest(self) -> str:
        """Content address of this scenario's dataset artifact.

        Identical to the pipeline cache key of the ``dataset`` stage, so
        a served model and a cached dataset built from the same scenario
        share one identity. Computed once per instance (a served request
        reads it several times); the cache lives in the instance
        ``__dict__``, outside the fields, so equality, hashing and
        :meth:`to_dict` do not see it.
        """
        from repro.pipeline.config import stage_key

        return stage_key(self.to_shard_config(), "dataset")

    # -- construction / serialization ------------------------------------

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields swapped (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (HTTP payloads, manifests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; accepts the legacy ``horizon_s`` key.

        Unknown keys raise :class:`~repro.errors.ScenarioError` so typos
        in HTTP payloads fail loudly instead of silently running the
        default scenario.
        """
        data = dict(data)
        if "horizon_s" in data:
            horizon_s = data.pop("horizon_s")
            if horizon_s is not None:
                if "horizon_days" in data and data["horizon_days"] is not None:
                    raise ScenarioError("pass horizon_days or horizon_s, not both")
                data["horizon_days"] = horizon_s / DAY_S
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario fields {unknown}; known: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_args(cls, args: Any) -> "ScenarioSpec":
        """Build from an ``argparse`` namespace carrying the scale flags."""
        return cls(
            system=args.system,
            seed=args.seed,
            num_nodes=args.num_nodes,
            num_users=args.num_users,
            horizon_days=args.horizon_days,
            max_traces=args.max_traces,
        )


def as_scenario(
    scenario: "ScenarioSpec | Mapping[str, Any] | str | None" = None,
    **kwargs: Any,
) -> ScenarioSpec:
    """Normalize legacy keyword style into a :class:`ScenarioSpec`.

    The deprecation shim behind every facade entry point. Accepts

    * a ready ``ScenarioSpec`` (extra kwargs override fields),
    * a mapping (e.g. a decoded HTTP payload),
    * the legacy positional system string plus keyword arguments
      (``as_scenario("emmy", seed=7, horizon_s=86400)``), or
    * keyword arguments alone.

    >>> as_scenario("meggie", horizon_s=2 * 86400).horizon_days
    2.0
    >>> spec = ScenarioSpec("emmy", seed=3)
    >>> as_scenario(spec) is spec
    True
    """
    if isinstance(scenario, ScenarioSpec):
        return scenario.replace(**kwargs) if kwargs else scenario
    if isinstance(scenario, Mapping):
        merged = {**dict(scenario), **kwargs}
        return ScenarioSpec.from_dict(merged)
    if scenario is not None:
        if "system" in kwargs:
            raise ScenarioError("system given both positionally and by keyword")
        kwargs["system"] = scenario
    return ScenarioSpec.from_dict(kwargs)
