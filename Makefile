# Convenience entry points. Everything runs offline on the baked-in
# python toolchain; PYTHONPATH=src avoids needing an editable install.

PY ?= python
PYTHONPATH := src
export PYTHONPATH

# Pinned seed matrix for the chaos suite; override per-run:
#   CHAOS_SEEDS="1 2 0xBEEF" make chaos
CHAOS_SEEDS ?= 0xDA05 1 7
export CHAOS_SEEDS

.PHONY: test chaos bench bench-cache bench-rebuild bench-async \
	bench-flows bench-tenants bench-fdb bench-hdf5 bench-e2e trace \
	trace-cache timeline all

# Tier-1: the full fast suite (chaos determinism/scenario tests included).
test:
	$(PY) -m pytest -x -q

# The chaos suite alone, against the pinned seed matrix.
chaos:
	$(PY) -m pytest -q -m chaos tests/faults

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Cache ablation alone: cached-vs-uncached DFuse FPP sweep.
bench-cache:
	mkdir -p artifacts
	$(PY) -m pytest benchmarks/bench_cache.py --benchmark-only \
		--benchmark-json=artifacts/bench-cache.json

# Rebuild ablation alone: IOR FPP during rebuild vs healthy, swept
# over the rebuild throttle fraction.
bench-rebuild:
	mkdir -p artifacts
	$(PY) -m pytest benchmarks/bench_rebuild.py --benchmark-only \
		--benchmark-json=artifacts/bench-rebuild.json

# Async ablation alone: throughput vs event-queue depth for the
# async-capable interfaces (DFS + native DAOS array).
bench-async:
	mkdir -p artifacts
	$(PY) -m pytest benchmarks/bench_async_depth.py --benchmark-only \
		--benchmark-json=artifacts/bench-async.json

# Allocator throughput: churn scenarios + the 16x16 figure point under
# the shipped allocator and the tests' global-solve oracle. Writes
# artifacts/BENCH_flows.json and gates against the committed baseline
# benchmarks/BENCH_flows.json (>20% normalized ops/sec regression,
# byte-identity, solver-speedup floor).
bench-flows:
	mkdir -p artifacts
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_flows.py \
		--out artifacts/BENCH_flows.json --check

# Multi-tenant serving sweep: tenant count x arrival rate x QoS on/off,
# plus the chaos noisy-neighbour cell. The sweep is seeded end to end,
# so it runs twice and the machine-independent projections must match
# byte for byte — the artifact doubles as a determinism gate.
bench-tenants:
	mkdir -p artifacts
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_tenants.py \
		--out artifacts/BENCH_tenants.json \
		--stable-out artifacts/BENCH_tenants.stable.json
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_tenants.py \
		--out artifacts/BENCH_tenants.rerun.json \
		--stable-out artifacts/BENCH_tenants.rerun.stable.json
	cmp artifacts/BENCH_tenants.stable.json \
		artifacts/BENCH_tenants.rerun.stable.json
	rm artifacts/BENCH_tenants.rerun.json \
		artifacts/BENCH_tenants.rerun.stable.json

# Field-database sweep: object size x backend x sync/async plus the
# Lustre contrast and the 100k-field acceptance run. Seeded end to end:
# runs twice and the machine-independent projections (which hash the
# 100k run's full report and timeline JSON) must match byte for byte.
bench-fdb:
	mkdir -p artifacts
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_fdb.py \
		--out artifacts/BENCH_fdb.json \
		--stable-out artifacts/BENCH_fdb.stable.json
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_fdb.py \
		--out artifacts/BENCH_fdb.rerun.json \
		--stable-out artifacts/BENCH_fdb.rerun.stable.json
	cmp artifacts/BENCH_fdb.stable.json \
		artifacts/BENCH_fdb.rerun.stable.json
	rm artifacts/BENCH_fdb.rerun.json \
		artifacts/BENCH_fdb.rerun.stable.json

# HDF5 interface sweep: posix-vol vs daos-vol vs DFS at the Figure 2
# point, fpp + shared collective, sync vs --aio-depth 4. Seeded end to
# end: runs twice and the machine-independent projections must match
# byte for byte (which also pins the native paths to the pre-VOL seed
# figures).
bench-hdf5:
	mkdir -p artifacts
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_hdf5.py \
		--out artifacts/BENCH_hdf5.json \
		--stable-out artifacts/BENCH_hdf5.stable.json
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_hdf5.py \
		--out artifacts/BENCH_hdf5.rerun.json \
		--stable-out artifacts/BENCH_hdf5.rerun.stable.json
	cmp artifacts/BENCH_hdf5.stable.json \
		artifacts/BENCH_hdf5.rerun.stable.json
	rm artifacts/BENCH_hdf5.rerun.json \
		artifacts/BENCH_hdf5.rerun.stable.json

# End-to-end benchmark (BENCHMARK.json): the driver's own smoke tests,
# then the fig-1 workload in the contract form at the pinned seed with
# the traced rep on. run.py exits non-zero on `"correct": false` (an
# operation failed or a pinned modelled number moved); the driver spans
# land in benchmarks/e2e/out/trace-fig1_fpp_dfs.json.
bench-e2e:
	$(PY) -m pytest benchmarks/e2e -q
	$(PY) benchmarks/e2e/run.py --workload fig1_fpp_dfs --seed 0xDA05 \
		--seconds 20 --trace 1

# One instrumented fig-1 point: emit a Chrome trace + metrics snapshot
# and validate the trace against the trace-event schema. The JSON lands
# in artifacts/ (uploaded as a CI artifact; open it at ui.perfetto.dev).
trace:
	mkdir -p artifacts
	$(PY) benchmarks/run_figures.py --ppn 4 \
		--trace-out artifacts/fig1-trace.json \
		--metrics-out artifacts/fig1-metrics.json
	$(PY) -m repro.obs.validate artifacts/fig1-trace.json

# Continuous telemetry for the fig-1 DFS point: scrape the run every
# 2 ms into a timeline JSON (per-window rates, gauge means, tail-latency
# percentiles) with one intentionally-unmeetable SLO so the artifact
# demonstrates a breach event end to end, then schema-validate it.
timeline:
	mkdir -p artifacts
	$(PY) benchmarks/run_figures.py --ppn 4 \
		--timeline-out artifacts/fig1-timeline.json \
		--timeline-interval 0.002 \
		--slo "ior.write.latency p99 < 1e-9 over 1 windows" \
		--trace-out artifacts/fig1-timeline-trace.json
	$(PY) -m repro.obs.validate artifacts/fig1-timeline.json
	$(PY) -m repro.obs.validate artifacts/fig1-timeline-trace.json

# The same instrumented point with the writeback cache enabled: the
# trace must validate with the extra "cache" layer spans present.
trace-cache:
	mkdir -p artifacts
	$(PY) benchmarks/run_figures.py --ppn 4 --cache-mode writeback \
		--trace-out artifacts/fig1-cached-trace.json \
		--metrics-out artifacts/fig1-cached-metrics.json
	$(PY) -m repro.obs.validate artifacts/fig1-cached-trace.json

all: test chaos
