"""Regenerate ``perfbench/expected.json``: the pinned outputs.

Every workload runs the paper-scale emmy scenario at seed 7. The pins
are its dataset digest (the monolithic and the streamed build must both
produce it; meta.json excluded), its job count, and the report-text
digest at the default ``--seed`` (the Fig 14 split seed). Run this only
when the program's output changes on purpose::

    PYTHONPATH=src python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from common import (BENCH_DIR, DEFAULT_SEED, PAPER_SCENARIO, REPORT_REPEATS,
                    STREAM_CHUNK_JOBS, entry_digest)
from worker import ReportPaper, dataset_entry, scratch_cache


def main() -> int:
    from repro.analysis import full_report
    from repro.pipeline import ArtifactCache, ShardConfig, build_dataset, stream_shard

    mono, streamed = scratch_cache("pin-mono"), scratch_cache("pin-stream")
    try:
        dataset = build_dataset(cache_dir=mono, **PAPER_SCENARIO)
        digest = entry_digest(dataset_entry(mono))
        stream_shard(ShardConfig(**PAPER_SCENARIO), ArtifactCache(streamed),
                     chunk_jobs=STREAM_CHUNK_JOBS)
        if entry_digest(dataset_entry(streamed)) != digest:
            raise SystemExit("the streamed dataset differs from the monolithic one")
        text = full_report(dataset, include_prediction=True,
                           n_repeats=REPORT_REPEATS,
                           run_prediction_fn=ReportPaper.split_seed(DEFAULT_SEED))
    finally:
        shutil.rmtree(mono, ignore_errors=True)
        shutil.rmtree(streamed, ignore_errors=True)
    expected = {
        "n_jobs": dataset.num_jobs,
        "dataset_digest": digest,
        "report_digest": hashlib.sha256(text.encode()).hexdigest(),
    }
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print(json.dumps(expected, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
