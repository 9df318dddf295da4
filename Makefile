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

# One ablation alone under pytest-benchmark, JSON into artifacts/:
#   bench-cache    cached-vs-uncached DFuse FPP sweep
#   bench-rebuild  IOR FPP during rebuild vs healthy, by throttle fraction
#   bench-async    throughput vs event-queue depth (DFS + native array)
bench-cache bench-rebuild bench-async: bench-%:
	mkdir -p artifacts
	$(PY) -m pytest benchmarks/bench_$**.py --benchmark-only \
		--benchmark-json=artifacts/bench-$*.json

# Allocator throughput: churn scenarios + the 16x16 figure point under
# the shipped allocator and the tests' global-solve oracle. Writes
# artifacts/BENCH_flows.json and gates against the committed baseline
# benchmarks/BENCH_flows.json (>20% normalized ops/sec regression,
# byte-identity, solver-speedup floor).
bench-flows:
	mkdir -p artifacts
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_flows.py \
		--out artifacts/BENCH_flows.json --check

# $(call twice,NAME): benchmarks/bench_NAME.py is seeded end to end, so
# it runs twice and the machine-independent projections (--stable-out:
# the artifact minus wall times) must match byte for byte — the artifact
# doubles as a determinism gate.
define twice
	mkdir -p artifacts
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_$(1).py \
		--out artifacts/BENCH_$(1).json \
		--stable-out artifacts/BENCH_$(1).stable.json
	PYTHONPATH=src:benchmarks $(PY) benchmarks/bench_$(1).py \
		--out artifacts/BENCH_$(1).rerun.json \
		--stable-out artifacts/BENCH_$(1).rerun.stable.json
	cmp artifacts/BENCH_$(1).stable.json \
		artifacts/BENCH_$(1).rerun.stable.json
	rm artifacts/BENCH_$(1).rerun.json \
		artifacts/BENCH_$(1).rerun.stable.json
endef

#   bench-tenants  tenant count x arrival rate x QoS on/off + the chaos
#                  noisy-neighbour pair
#   bench-fdb      object size x backend x sync/async, the Lustre
#                  contrast, and the hashed 100k-field acceptance run
#   bench-hdf5     posix-vol vs daos-vol vs DFS at the Figure 2 point
#                  (also pins the native paths to the pre-VOL seed figures)
bench-tenants bench-fdb bench-hdf5: bench-%:
	$(call twice,$*)

# End-to-end benchmark (BENCHMARK.json): the driver's own smoke tests,
# then the fig-1 workload in the contract form at the pinned seed with
# the traced rep on. run.py exits non-zero on `"correct": false` (an
# operation failed or a pinned modelled number moved); the driver spans
# land in benchmarks/e2e/out/trace-fig1_fpp_dfs.json.
bench-e2e:
	$(PY) -m pytest benchmarks/e2e -q
	$(PY) benchmarks/e2e/run.py --workload fig1_fpp_dfs --seed 0xDA05 \
		--seconds 20 --trace 1

# One instrumented fig-1 point per target, written to artifacts/ (open
# the traces at ui.perfetto.dev) and schema-validated:
#   trace        Chrome trace + metrics snapshot
#   trace-cache  the same with the writeback cache on ("cache" layer spans)
#   timeline     scraped every 2 ms, with one intentionally unmeetable SLO
#                so the artifact shows a breach event end to end
FIG1 = $(PY) benchmarks/run_figures.py --ppn 4
VALIDATE = $(PY) -m repro.obs.validate
trace:
	mkdir -p artifacts
	$(FIG1) --trace-out artifacts/fig1-trace.json \
		--metrics-out artifacts/fig1-metrics.json
	$(VALIDATE) artifacts/fig1-trace.json

trace-cache:
	mkdir -p artifacts
	$(FIG1) --cache-mode writeback \
		--trace-out artifacts/fig1-cached-trace.json \
		--metrics-out artifacts/fig1-cached-metrics.json
	$(VALIDATE) artifacts/fig1-cached-trace.json

timeline:
	mkdir -p artifacts
	$(FIG1) --timeline-out artifacts/fig1-timeline.json \
		--timeline-interval 0.002 \
		--slo "ior.write.latency p99 < 1e-9 over 1 windows" \
		--trace-out artifacts/fig1-timeline-trace.json
	$(VALIDATE) artifacts/fig1-timeline.json
	$(VALIDATE) artifacts/fig1-timeline-trace.json

all: test chaos
