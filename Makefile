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
	$(PY) -m pytest -x -q

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
# then the fig-1 workload in the contract form at the pinned seed with
# the traced rep on. run.py exits non-zero on `"correct": false` (an
# operation failed or a pinned modelled number moved); the driver spans
# land in benchmarks/e2e/out/trace-fig1_fpp_dfs.json.
bench-e2e:
	$(PY) -m pytest benchmarks/e2e -q
	$(PY) benchmarks/e2e/run.py --workload fig1_fpp_dfs --seed 0xDA05 \
		--seconds 20 --trace 1

# Cyclic-collector cost (~45 s): each e2e workload in a fresh interpreter
# at seed 7, printing per cell the heap pushes, reallocations and solved
# flows beside the collections and collector seconds per generation and
# the RSS high-water mark. The table also lands in artifacts/gcprobe.txt.
# A report, not a gate: collection counts depend on the Python version.
gcprobe:
	@mkdir -p artifacts
	$(PY) benchmarks/gc_probe.py --seed 7 > artifacts/gcprobe.txt; \
	    status=$$?; cat artifacts/gcprobe.txt; exit $$status

# Who calls what (~9 min): tier-1, then every CLI mode / e2e workload /
# script / example, under sys.setprofile. Lists the functions nothing
# called (NEVER) or only tests called (TESTONLY); fails on a NEVER
# function that is neither a dunder nor an interface stub, on a TESTONLY
# function that census.py's KEEP allowlist gives no reason for, and on a
# KEEP entry that covers no TESTONLY function any more (stale).
census:
	$(PY) benchmarks/census.py

# Every number in EXPERIMENTS.md: regenerate figures_full.txt at paper
# scale (~2 min) and fail if the tracked file moved. The tables of
# EXPERIMENTS.md are held to that file by tests/test_experiments_doc.py.
experiments:
	$(PY) benchmarks/run_figures.py --full --contrast > figures_full.txt
	git diff --exit-code figures_full.txt

all: test chaos
