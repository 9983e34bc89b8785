PY := PYTHONPATH=src python

.PHONY: test doclint bench-e2e bench-smoke bench-scaling bench-rollout bench-entropy bench-telemetry bench-serving bench-streaming bench-compare serve-smoke

test:
	$(PY) -m pytest -x -q

# Docstring lint (pydocstyle-equivalent, dependency-free): every public
# symbol of the gated packages must carry a docstring.  Mirrored in the
# tier-1 suite (tests/gnn/test_docstrings.py) and run as a CI step.
doclint:
	python tools/doclint.py src/repro/gnn src/repro/tensor src/repro/telemetry src/repro/serve src/repro/stream src/repro/rl src/repro/core src/repro/entropy src/repro/nn src/repro/graph src/repro/datasets src/repro/baselines src/repro/bench

# Fast sanity run (< 90 s): the CSR scaling benchmark at small N (asserts
# the >= 5x speedup contract) plus a small-N pass of the two entropy
# engines (equivalence and exact top-k recall checked; that speed
# contract is pinned to N=20k, so the small run reports without gating).
# All respect BENCH_SKIP_CONTRACT=1 on noisy shared runners.
bench-smoke:
	$(PY) benchmarks/bench_scaling_rewire.py --sizes 1000 5000 --steps 5
	$(PY) benchmarks/bench_telemetry_overhead.py --steps 32 --iterations 50000
	$(PY) benchmarks/bench_entropy_screening.py --sizes 1500
	$(PY) benchmarks/bench_streaming.py --nodes 800 --events 4 --steps 40 --repeats 2

# End-to-end benchmark, one traced run of each fit workload: the
# sparse-feature GCN fit on chameleon (2325-wide, 2.2%-dense features) and
# the RL-dominated GraphSAGE fit with 4 batched envs.  Each prints its
# per-layer breakdown.  bench_e2e/README.md covers the serving workload
# and the options.
bench-e2e:
	python3 bench_e2e/run.py --workload fit-sparse-train --seed 1 --seconds 10 --trace 1
	python3 bench_e2e/run.py --workload fit-rl-vec --seed 1 --seconds 10 --trace 1

# Full trajectory including the 20k-node fast-path-only point.
bench-scaling:
	$(PY) benchmarks/bench_scaling_rewire.py

# Rollout collection through the topology env at width B vs width 1, for
# B in {4, 16, 64}; asserts the >= 3x steps/sec contract at B = 16 and
# writes JSON into bench_results/.
bench-rollout:
	$(PY) benchmarks/bench_vec_rollout.py

# Screen-then-rescore entropy engine vs the dense tiled builder at
# N in {5k, 20k}; verifies exact top-k recall, asserts the >= 5x speedup
# contract at N = 20k, and writes JSON into bench_results/.
bench-entropy:
	$(PY) benchmarks/bench_entropy_screening.py

# Disabled-path telemetry cost (ns per span/count/observe), derived
# per-step overhead asserted <= 2% of a measured RL step, plus the
# informational enabled/disabled macro ratio; JSON into bench_results/.
bench-telemetry:
	$(PY) benchmarks/bench_telemetry_overhead.py

# Rewiring service under 64 concurrent clients: micro-batched server vs
# the same server pinned to max_batch=1 (serial per-request baseline).
# Byte-identity of batched scores is verified before timing; asserts the
# >= 3x throughput contract and writes JSON into bench_results/.
bench-serving:
	$(PY) benchmarks/bench_serving.py

# Live-churn folding (collapsed deltas + O(|edit|) online window
# maintenance) vs rebuilding the validated graph and rescanning all
# metrics after every event batch, on the same deterministic trace.
# Window aggregates are verified byte-identical between the legs before
# the ratio is asserted (>= 3x at N = 5k, drift, 8 events/batch).
bench-streaming:
	$(PY) benchmarks/bench_streaming.py

# Diff two repro-bench/v2 result envelopes (old new); exits non-zero on
# regressions beyond the threshold (see tools/bench_compare.py --help).
bench-compare:
	$(PY) tools/bench_compare.py $(OLD) $(NEW)

# Boot a server, drive 16 concurrent clients, validate serve.* telemetry
# and a clean shutdown — the CI smoke for the serving layer.
serve-smoke:
	$(PY) tools/serve_smoke.py
