# Convenience entry points. Everything runs offline on the baked-in
# python toolchain; PYTHONPATH=src avoids needing an editable install.

PY ?= python
PYTHONPATH := src
export PYTHONPATH

# Pinned seed matrix for the chaos suite; override per-run:
#   CHAOS_SEEDS="1 2 0xBEEF" make chaos
CHAOS_SEEDS ?= 0xDA05 1 7
export CHAOS_SEEDS

.PHONY: test chaos bench bench-flows bench-e2e gcprobe census experiments all

# Tier-1: the full fast suite (chaos determinism/scenario tests included).
# Every claim in EXPERIMENTS.md has its owning test here (DESIGN.md §4).
test:
	$(PY) -m pytest -x -q --durations=15

# The chaos suite alone, against the pinned seed matrix.
chaos:
	$(PY) -m pytest -q -m chaos tests/faults

# Host speed: the only two gates on how fast the simulator itself runs.
bench: bench-flows bench-e2e

# Allocator throughput: churn scenarios + the 16x16 figure point under
# the shipped allocator and the tests' global-solve oracle. Writes
# artifacts/BENCH_flows.json and gates against the committed baseline
# benchmarks/BENCH_flows.json (>20% normalized ops/sec regression,
# byte-identity, solver-speedup floor).
bench-flows:
	$(PY) benchmarks/bench_flows.py --check

# End-to-end benchmark (BENCHMARK.json): the driver's own smoke tests,
# then all four workloads at the pinned seed, each checked against its
# pins in benchmarks/e2e/pins.json: the fig-1 workload in the contract
# form with the traced rep on, then the interface sweep, the tenant
# fleet and the field database, untraced. run.py exits non-zero on
# `"correct": false` (an operation failed or a pinned modelled number
# moved); the driver spans land in benchmarks/e2e/out/trace-fig1_fpp_dfs.json.
bench-e2e:
	$(PY) -m pytest benchmarks/e2e -q
	$(PY) benchmarks/e2e/run.py --workload fig1_fpp_dfs --seed 0xDA05 \
		--seconds 20 --trace 1
	$(PY) benchmarks/e2e/run.py --workload ior_interfaces --seed 0xDA05 \
		--seconds 0 --trace 0
	$(PY) benchmarks/e2e/run.py --workload tenants_open_loop --seed 0xDA05 \
		--seconds 0 --trace 0
	$(PY) benchmarks/e2e/run.py --workload fdb_fields --seed 0xDA05 \
		--seconds 0 --trace 0

# Cyclic-collector cost (~90 s): each e2e workload in a fresh interpreter
# at seed 7, printing per cell the heap pushes, tasks spawned,
# reallocations and solved flows beside the collections and collector seconds per generation, the
# RSS high-water mark and what one untimed collection frees once the cell
# is dropped; then per workload the peak RSS of one contract-form rep
# (no collection between cells), to tell an RSS move from collector
# timing. The table also lands in artifacts/gcprobe.txt.
# A report, not a gate: collection counts depend on the Python version.
gcprobe:
	@mkdir -p artifacts
	$(PY) benchmarks/gc_probe.py --seed 7 > artifacts/gcprobe.txt; \
	    status=$$?; cat artifacts/gcprobe.txt; exit $$status

# Who calls what (~7 min): tier-1, then every CLI mode / e2e workload /
# script / example, under sys.setprofile. Lists the functions nothing
# called (NEVER) or only tests called (TESTONLY), and the defaulted
# parameters of called functions and init fields of constructed
# dataclasses that no call set to another value (NEVER-SET) or only
# tests did (TEST-SET), with a totals line for each; fails on a NEVER
# function that is neither a dunder nor an interface stub, on a TESTONLY
# function that census.py's KEEP allowlist gives no reason for, on a
# KEEP entry that covers nothing any more (stale), on any NEVER-SET
# parameter or field outside the calibration table hardware/specs.py, and
# on a TEST-SET total above census.py's TEST_SET_CEILING.
census:
	$(PY) benchmarks/census.py

# Every number in EXPERIMENTS.md: regenerate figures_full.txt at paper
# scale (~2 min) and fail if the tracked file moved. The tables of
# EXPERIMENTS.md are held to that file by tests/test_experiments_doc.py.
experiments:
	$(PY) benchmarks/run_figures.py --full --contrast > figures_full.txt
	git diff --exit-code figures_full.txt

all: test chaos
