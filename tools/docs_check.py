#!/usr/bin/env python
"""Documentation gate: every public symbol is documented, twice.

Fails (exit 1) if any name in ``repro.__all__``:

* lacks a docstring (module-level constants are exempt — their meaning
  is documented where they are defined and in docs/API.md), or
* does not appear in docs/API.md.

Also checks the ``repro.pipeline.__all__`` surface for docstrings and
coverage in docs/PIPELINE.md, and that every module listed in the
package docstring's layer map has a module docstring; that every
top-level module under ``src/repro`` appears in
docs/ARCHITECTURE.md's module index; that the serving surface
(``repro.serve.__all__``) is covered by docs/SERVICE.md; that the
model-lifecycle surface (``repro.serve.lifecycle.__all__``) is covered
by docs/LIFECYCLE.md; that the incident-benchmark surface
(``repro.incidents.__all__``) is covered by docs/INCIDENTS.md; and that
the heterogeneous-scenario catalog (every registered system, every
evaluation track, every exit-code constant) is covered by
docs/SCENARIOS.md; and that every metric the package registers is in
the docs/OBSERVABILITY.md catalog. Run via ``make docs-check``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
API_DOC = REPO_ROOT / "docs" / "API.md"
PIPELINE_DOC = REPO_ROOT / "docs" / "PIPELINE.md"
FAULTS_DOC = REPO_ROOT / "docs" / "FAULTS.md"
OBS_DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"
ARCH_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"
SERVICE_DOC = REPO_ROOT / "docs" / "SERVICE.md"
LIFECYCLE_DOC = REPO_ROOT / "docs" / "LIFECYCLE.md"
INCIDENTS_DOC = REPO_ROOT / "docs" / "INCIDENTS.md"
SCENARIOS_DOC = REPO_ROOT / "docs" / "SCENARIOS.md"
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def check_docstrings(module_name: str) -> list[str]:
    """Names in ``<module>.__all__`` whose objects lack a docstring."""
    module = importlib.import_module(module_name)
    missing = []
    for name in module.__all__:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or callable(obj) or inspect.ismodule(obj)):
            continue  # constants (EMMY, MEGGIE, version strings, ...)
        if not inspect.getdoc(obj):
            missing.append(f"{module_name}.{name}")
    return missing


def check_api_doc() -> list[str]:
    """Names in ``repro.__all__`` that docs/API.md never mentions."""
    if not API_DOC.is_file():
        return ["docs/API.md is missing entirely"]
    text = API_DOC.read_text()
    module = importlib.import_module("repro")
    return [name for name in module.__all__ if name not in text]


def check_pipeline_doc() -> list[str]:
    """The pipeline surface must be covered by docs/PIPELINE.md."""
    if not PIPELINE_DOC.is_file():
        return ["docs/PIPELINE.md is missing entirely"]
    text = PIPELINE_DOC.read_text()
    module = importlib.import_module("repro.pipeline")
    return [name for name in module.__all__ if name not in text]


def check_faults_doc() -> list[str]:
    """The fault-injection surface must be covered by docs/FAULTS.md."""
    if not FAULTS_DOC.is_file():
        return ["docs/FAULTS.md is missing entirely"]
    text = FAULTS_DOC.read_text()
    module = importlib.import_module("repro.faults")
    return [name for name in module.__all__ if name not in text]


def check_obs_doc() -> list[str]:
    """The observability surface must be covered by docs/OBSERVABILITY.md."""
    if not OBS_DOC.is_file():
        return ["docs/OBSERVABILITY.md is missing entirely"]
    text = OBS_DOC.read_text()
    module = importlib.import_module("repro.obs")
    return [name for name in module.__all__ if name not in text]


def check_metric_catalog() -> list[str]:
    """Every metric the package registers must be in the catalog.

    Metrics register at import, so every ``repro`` module is imported
    first; a name absent from docs/OBSERVABILITY.md (in backticks, with
    or without its label set) is a metric an operator cannot look up.
    """
    import pkgutil

    import repro
    from repro.obs.metrics import REGISTRY

    if not OBS_DOC.is_file():
        return ["docs/OBSERVABILITY.md is missing entirely"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    text = OBS_DOC.read_text()
    return [
        entry["name"] for entry in REGISTRY.describe()
        if f"`{entry['name']}`" not in text and f"`{entry['name']}{{" not in text
    ]


def check_architecture_doc() -> list[str]:
    """Every top-level repro module must appear in ARCHITECTURE.md.

    The module index in docs/ARCHITECTURE.md is the map a new
    contributor navigates by; a module that exists on disk but not in
    the map is undiscoverable. Private modules (``_version``) and the
    ``__main__`` shim are exempt.
    """
    if not ARCH_DOC.is_file():
        return ["docs/ARCHITECTURE.md is missing entirely"]
    text = ARCH_DOC.read_text()
    missing = []
    for entry in sorted(PACKAGE_ROOT.iterdir()):
        if entry.name.startswith("_"):
            continue
        if entry.is_dir():
            name = entry.name
        elif entry.suffix == ".py":
            name = entry.stem
        else:
            continue
        if f"repro.{name}" not in text:
            missing.append(name)
    return missing


def check_service_doc() -> list[str]:
    """The serving surface must be covered by docs/SERVICE.md."""
    if not SERVICE_DOC.is_file():
        return ["docs/SERVICE.md is missing entirely"]
    text = SERVICE_DOC.read_text()
    module = importlib.import_module("repro.serve")
    return [name for name in module.__all__ if name not in text]


def check_lifecycle_doc() -> list[str]:
    """The model-lifecycle surface must be covered by docs/LIFECYCLE.md."""
    if not LIFECYCLE_DOC.is_file():
        return ["docs/LIFECYCLE.md is missing entirely"]
    text = LIFECYCLE_DOC.read_text()
    module = importlib.import_module("repro.serve.lifecycle")
    return [name for name in module.__all__ if name not in text]


def check_incidents_doc() -> list[str]:
    """The incident-benchmark surface must be covered by docs/INCIDENTS.md."""
    if not INCIDENTS_DOC.is_file():
        return ["docs/INCIDENTS.md is missing entirely"]
    text = INCIDENTS_DOC.read_text()
    module = importlib.import_module("repro.incidents")
    return [name for name in module.__all__ if name not in text]


def check_scenarios_doc() -> list[str]:
    """The scenario catalog must be covered by docs/SCENARIOS.md.

    Source docstrings and serve-time error messages point users at
    docs/SCENARIOS.md for every heterogeneous extension, so the doc
    must name every registered system, every evaluation track, and
    every exit-code constant of the failure model.
    """
    if not SCENARIOS_DOC.is_file():
        return ["docs/SCENARIOS.md is missing entirely"]
    text = SCENARIOS_DOC.read_text()
    cluster = importlib.import_module("repro.cluster")
    tracks = importlib.import_module("repro.ml.tracks")
    failures = importlib.import_module("repro.workload.failures")
    missing = [f"system `{name}`" for name in cluster.known_systems()
               if f"`{name}`" not in text]
    missing += [f"track `{name}`" for name in tracks.known_tracks()
                if f"`{name}`" not in text]
    missing += [f"exit code {code}" for code in failures.EXIT_CODES
                if f"`{code}`" not in text]
    return missing


def main() -> int:
    problems: list[str] = []
    for module_name in ("repro", "repro.pipeline", "repro.faults", "repro.obs",
                        "repro.serve", "repro.incidents"):
        for name in check_docstrings(module_name):
            problems.append(f"missing docstring: {name}")
    for name in check_api_doc():
        problems.append(f"absent from docs/API.md: repro.{name}")
    for name in check_pipeline_doc():
        problems.append(f"absent from docs/PIPELINE.md: repro.pipeline.{name}")
    for name in check_faults_doc():
        problems.append(f"absent from docs/FAULTS.md: repro.faults.{name}")
    for name in check_obs_doc():
        problems.append(f"absent from docs/OBSERVABILITY.md: repro.obs.{name}")
    for name in check_metric_catalog():
        problems.append(f"metric absent from docs/OBSERVABILITY.md: {name}")
    for name in check_architecture_doc():
        problems.append(f"absent from docs/ARCHITECTURE.md: repro.{name}")
    for name in check_service_doc():
        problems.append(f"absent from docs/SERVICE.md: repro.serve.{name}")
    for name in check_lifecycle_doc():
        problems.append(
            f"absent from docs/LIFECYCLE.md: repro.serve.lifecycle.{name}"
        )
    for name in check_incidents_doc():
        problems.append(f"absent from docs/INCIDENTS.md: repro.incidents.{name}")
    for name in check_scenarios_doc():
        problems.append(f"absent from docs/SCENARIOS.md: {name}")

    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    n = len(importlib.import_module("repro").__all__)
    print(f"docs-check: OK ({n} public symbols documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
