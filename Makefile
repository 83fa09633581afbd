# Developer entry points. PYTHONPATH=src keeps every target working in
# environments without an editable install.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint coverage bench bench-check bench-smoke serve-bench serve-bench-check serve-smoke lifecycle-smoke bench-stream bench-stream-check stream-smoke gpu-smoke gpu-baseline chaos-soak chaos-smoke incidents-smoke incidents-bench incidents-bench-check incidents-sweep docs-check pipeline clean-cache all

all: lint test docs-check

test:                ## tier-1 suite (unit + property + integration)
	$(PYTHON) -m pytest -x -q

lint:                ## ruff when installed, stdlib fallback linter otherwise
	$(PYTHON) tools/lint.py

coverage:            ## tier-1 suite under pytest-cov, gated at the pyproject floor
	$(PYTHON) tools/coverage_gate.py

bench:               ## measure the hot path, rewrite BENCH_dataset.json
	$(PYTHON) tools/perf_check.py --update

bench-check:         ## CI gate: fail on >25% throughput regression
	$(PYTHON) tools/perf_check.py --check

bench-smoke:         ## T2 plus the Fig 14/15 prediction claims (BDT beats
                     ## KNN beats FLDA) end-to-end, cache-backed fixtures
	$(PYTHON) -m pytest benchmarks/bench_table2_correlation.py \
		benchmarks/bench_fig14_prediction.py \
		benchmarks/bench_fig15_user_error.py -q

serve-bench:         ## measure the serving hot path, rewrite BENCH_serve.json
	$(PYTHON) tools/serve_bench.py --update

serve-bench-check:   ## CI gate: fail on >25% predictions/s regression
	$(PYTHON) tools/serve_bench.py --check

serve-smoke:         ## CI smoke: boot the forked pool, short open-loop
                     ## burst, verify bit-identity; histogram lands in
                     ## serve-smoke.json
	$(PYTHON) tools/serve_bench.py --num-nodes 24 --num-users 10 \
		--horizon-days 2 --max-traces 10 --workers 2 --connections 4 \
		--rate 50 --duration 3 --json serve-smoke.json

lifecycle-smoke:     ## CI gate: feedback -> drift -> shadow -> promote ->
                     ## rollback end to end over HTTP; journal kept on
                     ## failure (docs/LIFECYCLE.md)
	$(PYTHON) tools/lifecycle_smoke.py

bench-stream:        ## measure the 1.3M-job streaming build, rewrite BENCH_stream.json
	$(PYTHON) tools/stream_bench.py --update

bench-stream-check:  ## CI gate: regression vs baseline + absolute
                     ## floor (15k jobs/s) and RSS ceiling (2 GiB)
	$(PYTHON) tools/stream_bench.py --check

stream-smoke:        ## CI smoke: small --stream build vs monolithic,
                     ## dataset bytes must be identical; manifest lands
                     ## in stream-smoke-manifest.json
	$(PYTHON) tools/stream_smoke.py

gpu-smoke:           ## CI gate: GPU scenario byte-identity (stream vs
                     ## monolithic) + both heterogeneous tracks graded
                     ## against the committed SCORECARD_gpu.json
	$(PYTHON) tools/gpu_smoke.py --check

gpu-baseline:        ## rerun the gpu smoke and rewrite SCORECARD_gpu.json
	$(PYTHON) tools/gpu_smoke.py --update

chaos-soak:          ## fault-injection soak: 0 lost requests, all points fire
	$(PYTHON) tools/chaos_soak.py --duration 20

chaos-smoke:         ## CI gate: short seeded chaos run (same audit, ~30s)
	$(PYTHON) tools/chaos_soak.py --duration 6

incidents-smoke:     ## CI gate: 2-scenario graded incident run (control +
                     ## cache-corrupt) with a digest-determinism check;
                     ## bundles kept in .incidents-smoke (docs/INCIDENTS.md)
	$(PYTHON) tools/incidents_smoke.py

incidents-bench:     ## run the full incident catalog, rewrite SCORECARD_incidents.json
	$(PYTHON) tools/incidents_bench.py

incidents-bench-check: ## verify the committed scorecard still reproduces
	$(PYTHON) tools/incidents_bench.py --check

incidents-sweep:     ## the slow-marked incident catalog sweep (weekly CI;
                     ## tier-1 skips these via the pyproject -m filter)
	$(PYTHON) -m pytest -m slow -q

docs-check:          ## every public symbol has a docstring and an API.md entry
	$(PYTHON) tools/docs_check.py

pipeline:            ## build both paper-scale datasets through the cache
	$(PYTHON) -m repro pipeline run --both-systems --workers 2

clean-cache:         ## drop the benchmark artifact cache (bench scratch dir)
	$(PYTHON) -c "import sys; sys.path.insert(0, 'tools'); \
	from bench_paths import bench_cache_dir; print(bench_cache_dir())" \
	| xargs -I{} $(PYTHON) -m repro pipeline clean --all --cache-dir {}
