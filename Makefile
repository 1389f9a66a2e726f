# Developer entry points for the HeteroSVD reproduction.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test bench bench-smoke baselines serve-smoke chaos-serve dse-chaos microbench validate examples lint smoke guard-smoke ci all clean

BASELINE_DIR := benchmarks/baselines

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -x -q

# Full regression harness: every suite at default size, reports written
# to the repo root and compared against any previous BENCH_*.json.
bench:
	$(PYTHON) -m repro.cli bench --suite dse
	$(PYTHON) -m repro.cli bench --suite scheduler
	$(PYTHON) -m repro.cli bench --suite batch

# Seconds-long CI variant: tiny sizes, schema check on the artifacts,
# and an advisory comparison against the blessed baselines (exit 3 —
# regression past threshold — is reported but tolerated, because the
# baselines were recorded on a different machine).
bench-smoke:
	$(PYTHON) -m repro.cli bench --suite dse --size 48 --out . \
		--baseline $(BASELINE_DIR)/BENCH_dse.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --suite scheduler --size 64 --out . \
		--baseline $(BASELINE_DIR)/BENCH_scheduler.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --suite batch --size 16 --out . \
		--baseline $(BASELINE_DIR)/BENCH_batch.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --suite serve --size 64 --out . \
		--baseline $(BASELINE_DIR)/BENCH_serve.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --suite chaos --size 48 --out . \
		--baseline $(BASELINE_DIR)/BENCH_chaos.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --suite workloads --size 48 --out . \
		--baseline $(BASELINE_DIR)/BENCH_workloads.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --suite dse_sharded --size 32 --out . \
		--baseline $(BASELINE_DIR)/BENCH_dse_sharded.json --threshold 0.5; \
		test $$? -eq 0 -o $$? -eq 3
	$(PYTHON) -m repro.cli bench --check BENCH_dse.json
	$(PYTHON) -m repro.cli bench --check BENCH_scheduler.json
	$(PYTHON) -m repro.cli bench --check BENCH_batch.json
	$(PYTHON) -m repro.cli bench --check BENCH_serve.json
	$(PYTHON) -m repro.cli bench --check BENCH_chaos.json
	$(PYTHON) -m repro.cli bench --check BENCH_workloads.json
	$(PYTHON) -m repro.cli bench --check BENCH_dse_sharded.json

# Re-record the blessed baselines (commit the result deliberately).
baselines:
	mkdir -p $(BASELINE_DIR)
	$(PYTHON) -m repro.cli bench --suite dse --size 48 --out $(BASELINE_DIR) --no-compare
	$(PYTHON) -m repro.cli bench --suite scheduler --size 64 --out $(BASELINE_DIR) --no-compare
	$(PYTHON) -m repro.cli bench --suite batch --size 16 --out $(BASELINE_DIR) --no-compare
	$(PYTHON) -m repro.cli bench --suite serve --size 64 --out $(BASELINE_DIR) --no-compare
	$(PYTHON) -m repro.cli bench --suite chaos --size 48 --out $(BASELINE_DIR) --no-compare
	$(PYTHON) -m repro.cli bench --suite workloads --size 48 --out $(BASELINE_DIR) --no-compare
	$(PYTHON) -m repro.cli bench --suite dse_sharded --size 32 --out $(BASELINE_DIR) --no-compare

# Serving-layer smoke: real daemon subprocess, 200-request wire-driven
# mix (deadline + oversized probes), counter assertions, then the
# in-process >=1k-queued acceptance burst.  Same script CI runs.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py --out .

# Chaos soak: real daemon subprocess under the committed serve_chaos
# fault plan, exactly-once/zero-stranded/error-budget invariants,
# graceful drain (exit 0), then the BENCH_chaos.json artifact.  Same
# script CI runs.
chaos-serve:
	$(PYTHON) tools/chaos_soak.py --out .

# Sharded-DSE chaos: 3-shard CLI sweep, SIGKILL one shard mid-chunk,
# assert lease reclaim + work stealing + corrupt-ledger quarantine +
# merged-frontier parity with the serial sweep.  Same script CI runs.
dse-chaos:
	$(PYTHON) tools/dse_chaos.py

# pytest-benchmark microbenchmarks (kernel-level timings).
microbench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

validate:
	$(PYTHON) -m repro.validation

# Fast fail-first gate: byte-compile everything, then ruff when available
# (the offline dev container does not ship it; CI installs it).
lint:
	$(PYTHON) -m compileall -q src benchmarks examples tests tools
	$(PYTHON) tools/check_doc_links.py
	$(PYTHON) tools/check_docstrings.py
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src benchmarks examples tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi

# Exercise the parallel execution path end-to-end on a tiny grid.
smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) -m repro.cli dse --size 64 --jobs 2 --cache .repro_cache --top 3
	$(PYTHON) -m repro.cli dse --size 64 --jobs 2 --cache .repro_cache --top 3
	$(PYTHON) -m repro.cli svd --size 32 --p-eng 4 --batch 4 --jobs 2 --precision 1e-4
	$(PYTHON) -m repro.cli svd --method block --size 20 --p-eng 8
	$(PYTHON) -m repro.cli svd --size 18 --p-eng 4 --batch 4 --jobs 2 --engine software --precision 1e-4
	$(PYTHON) -m repro.cli svd --size 16 --p-eng 4 --batch 8 --jobs 1 --engine software
	$(PYTHON) -m repro.cli sensitivity --size 128 --jobs 2
	$(PYTHON) -m repro.cli profile --size 64 --jobs 2 --cache .repro_cache
	$(PYTHON) -m repro.cli svd --size 32 --p-eng 4 --batch 4 --p-task 2 --precision 1e-4 \
		--fault-plan examples/fault_plans/chaos_smoke.json --retries 2
	$(PYTHON) -m repro.cli dse --size 64 --top 3 \
		--fault-plan examples/fault_plans/chaos_smoke.json --retries 2

# Adversarial-input and deadline smoke: a NaN matrix must exit 4 with
# InputValidationError, a deadline-bounded DSE must exit 5 and then
# resume from its checkpoint, and invariant checking must pass on a
# healthy solve.
guard-smoke:
	$(PYTHON) -c "import numpy as np; a = np.eye(16); a[3, 4] = np.nan; np.save('guard_nan.npy', a)"
	$(PYTHON) -m repro.cli svd --input guard_nan.npy; test $$? -eq 4
	rm -f guard_ck.json
	$(PYTHON) -m repro.cli dse --size 64 --deadline 0.001 --checkpoint guard_ck.json; test $$? -eq 5
	$(PYTHON) -m repro.cli dse --size 64 --top 3 --checkpoint guard_ck.json --resume
	$(PYTHON) -m repro.cli svd --size 32 --p-eng 4 --check-invariants --deadline 60
	rm -f guard_nan.npy guard_ck.json

# Reproduce the GitHub Actions pipeline locally.
ci: lint test smoke guard-smoke serve-smoke chaos-serve dse-chaos

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/mimo_beamforming.py
	$(PYTHON) examples/recommender.py
	$(PYTHON) examples/doa_estimation.py
	$(PYTHON) examples/subspace_tracking.py
	$(PYTHON) examples/precision_study.py
	$(PYTHON) examples/placement_viewer.py
	$(PYTHON) examples/image_compression.py
	$(PYTHON) examples/energy_analysis.py
	$(PYTHON) examples/dse_explorer.py 256 100
	$(PYTHON) examples/paper_reproduction.py

all: test bench validate

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .ruff_cache .repro_cache src/repro.egg-info
