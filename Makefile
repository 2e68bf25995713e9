# Tier-1 verification and CI targets. `make verify` is the gate every
# change must pass; `make ci` adds vet, the race detector over the
# packages with concurrency (the parallel campaign engine and the
# simulation kernel it fans out), and the golden behaviour-preservation
# test that pins Table 1 + the campaign matrix byte-for-byte.

GO ?= go

.PHONY: all build test verify vet race race-full race-fast golden trace-smoke lat-smoke slo-smoke chaos-smoke chaos-guided-smoke soak-smoke bench-test bench-json ci bench-campaign

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1: the repo's baseline gate. Includes the architecture-boundary
# tests (arch_test.go) that keep tcpsim/viasim behind internal/substrate.
verify: build test

vet:
	$(GO) vet ./...

# The campaign engine runs experiments concurrently; keep it race-clean.
# The race detector slows the simulations ~10x, so the CI leg runs -short
# (tests trim their simulated horizons; see testOpt in experiments_test.go)
# and race-full keeps the untrimmed run for occasional deep checks. The
# chaos campaigns fan out over the same pool, so internal/chaos rides
# along.
race:
	$(GO) test -race -short -timeout 45m ./internal/experiments/... ./internal/sim/... ./internal/chaos/... ./internal/obs/...

race-full:
	$(GO) test -race -timeout 45m ./internal/experiments/... ./internal/sim/... ./internal/chaos/... ./internal/obs/...

# Just the parallel-engine tests under the race detector — the quick
# iteration loop while touching pool.go / campaign.go.
race-fast:
	$(GO) test -race -timeout 30m ./internal/experiments/ \
		-run 'TestForEach|TestRunFaultRepeatable|TestCampaignParallel|TestConcurrent|TestRunCampaignMemo|TestSameOptions'

# Golden behaviour-preservation test: Table 1 plus the full quick-scale
# campaign for seed 1, compared byte-for-byte against testdata. It takes
# about 70 s on a 2-core box, but self-skips below a 30-minute deadline,
# so go test's default 10-minute one leaves it to this target.
# Regenerate after an intentional behaviour change with:
#   go test ./internal/experiments -run TestGoldenSeed1 -update -timeout 60m
golden:
	$(GO) test ./internal/experiments -run TestGoldenSeed1 -timeout 60m -v

# Trace smoke test: capture a short traced fault run twice, check the
# two files are byte-identical (determinism) and structurally valid
# Chrome trace-event JSON (tracecheck). Small windows keep it a few
# seconds and a few MB.
TRACE_SMOKE_FLAGS = -version TCP-PRESS-HB -fault link-down \
	-stabilize 5s -fault-duration 10s -observe 10s -load 0.1
trace-smoke:
	rm -rf /tmp/vivo-trace-smoke && mkdir -p /tmp/vivo-trace-smoke
	$(GO) run ./cmd/faultinject $(TRACE_SMOKE_FLAGS) -trace /tmp/vivo-trace-smoke/a.trace.json
	$(GO) run ./cmd/faultinject $(TRACE_SMOKE_FLAGS) -trace /tmp/vivo-trace-smoke/b.trace.json
	cmp /tmp/vivo-trace-smoke/a.trace.json /tmp/vivo-trace-smoke/b.trace.json
	$(GO) run ./cmd/tracecheck /tmp/vivo-trace-smoke/a.trace.json
	rm -rf /tmp/vivo-trace-smoke

# Latency smoke test: one short latency-recorded fault run, twice.
# Checks (1) determinism — both runs byte-identical; (2) the histograms
# are populated (the run-summary line reports a non-zero sample count);
# (3) a pinned golden percentile line for seed 1 — the latency analogue
# of the golden campaign test. If a change intentionally shifts the
# numbers, update LAT_SMOKE_GOLDEN from the new output of the first
# faultinject command below.
LAT_SMOKE_DIR = /tmp/vivo-lat-smoke
LAT_SMOKE_FLAGS = -version TCP-PRESS-HB -fault node-crash \
	-stabilize 5s -fault-duration 10s -observe 10s -load 0.1 -latency
LAT_SMOKE_GOLDEN = run:       n=10330 failed=1952 p50=1.040ms p95=389.120ms p99=4915.200ms p999=5832.704ms max=5998.926ms
lat-smoke:
	rm -rf $(LAT_SMOKE_DIR) && mkdir -p $(LAT_SMOKE_DIR)
	$(GO) run ./cmd/faultinject $(LAT_SMOKE_FLAGS) > $(LAT_SMOKE_DIR)/a.txt
	$(GO) run ./cmd/faultinject $(LAT_SMOKE_FLAGS) > $(LAT_SMOKE_DIR)/b.txt
	cmp $(LAT_SMOKE_DIR)/a.txt $(LAT_SMOKE_DIR)/b.txt
	grep -q 'run:       n=[1-9]' $(LAT_SMOKE_DIR)/a.txt
	grep -qF '$(LAT_SMOKE_GOLDEN)' $(LAT_SMOKE_DIR)/a.txt
	rm -rf $(LAT_SMOKE_DIR)

# SLO smoke test: one short SLO-measured fault run, twice. Checks
# (1) determinism — both runs byte-identical; (2) a pinned golden
# fault-window line for seed 1, the SLO analogue of LAT_SMOKE_GOLDEN.
# If a change intentionally shifts the numbers, update SLO_SMOKE_GOLDEN
# from the new output of the first faultinject command below.
SLO_SMOKE_DIR = /tmp/vivo-slo-smoke
SLO_SMOKE_FLAGS = -version TCP-PRESS-HB -fault node-crash \
	-stabilize 5s -fault-duration 10s -observe 10s -load 0.1 -slo 1s
SLO_SMOKE_GOLDEN = fault win:  frac=0.6780 under=2845 served=2845 failed=1351
slo-smoke:
	rm -rf $(SLO_SMOKE_DIR) && mkdir -p $(SLO_SMOKE_DIR)
	$(GO) run ./cmd/faultinject $(SLO_SMOKE_FLAGS) > $(SLO_SMOKE_DIR)/a.txt
	$(GO) run ./cmd/faultinject $(SLO_SMOKE_FLAGS) > $(SLO_SMOKE_DIR)/b.txt
	cmp $(SLO_SMOKE_DIR)/a.txt $(SLO_SMOKE_DIR)/b.txt
	grep -q 'folded A_slo:' $(SLO_SMOKE_DIR)/a.txt
	grep -qF '$(SLO_SMOKE_GOLDEN)' $(SLO_SMOKE_DIR)/a.txt
	rm -rf $(SLO_SMOKE_DIR)

# Chaos smoke test, both directions:
#   1. a short seeded campaign under the real oracle suite comes back all
#      green, and the repro/replay machinery is proven live by
#   2. two runs with the intentionally-broken forbid-oracle fixture: both
#      must detect the violation (exit 1), shrink to byte-identical repro
#      artifacts, and -replay must reproduce the violation (exit 1).
# The `!` prefixes invert the expected-failure exit codes for make.
# The timing flags shrink each run to ~1 virtual minute (same light
# geometry as the internal/chaos campaign tests) so the whole smoke stays
# a few minutes on a one-core box.
CHAOS_SMOKE_DIR = /tmp/vivo-chaos-smoke
CHAOS_SMOKE_FLAGS = -load 0.35 -stabilize 10s -window 15s -min-dur 2s \
	-max-dur 6s -settle 30s
chaos-smoke:
	rm -rf $(CHAOS_SMOKE_DIR) && mkdir -p $(CHAOS_SMOKE_DIR)/a $(CHAOS_SMOKE_DIR)/b
	$(GO) run ./cmd/chaos -version TCP-PRESS-HB -seed 3 -runs 4 $(CHAOS_SMOKE_FLAGS)
	! $(GO) run ./cmd/chaos -version TCP-PRESS -seed 1 -runs 1 $(CHAOS_SMOKE_FLAGS) \
		-break-oracle kernel-memory -out $(CHAOS_SMOKE_DIR)/a
	! $(GO) run ./cmd/chaos -version TCP-PRESS -seed 1 -runs 1 $(CHAOS_SMOKE_FLAGS) \
		-break-oracle kernel-memory -out $(CHAOS_SMOKE_DIR)/b
	cmp $(CHAOS_SMOKE_DIR)/a/repro_run00.json $(CHAOS_SMOKE_DIR)/b/repro_run00.json
	! $(GO) run ./cmd/chaos -replay $(CHAOS_SMOKE_DIR)/a/repro_run00.json
	rm -rf $(CHAOS_SMOKE_DIR)

# Guided-chaos smoke test: a tiny coverage-guided campaign with a batch
# smaller than the budget (so mutation rounds actually exercise), twice.
# Checks (1) determinism — stdout and the written corpus directories are
# byte-identical between the two runs; (2) a pinned golden corpus-summary
# line for seed 3, the guided analogue of the other smoke goldens. If a
# change intentionally shifts the search, update CHAOS_GUIDED_GOLDEN
# from the new corpus_summary.txt.
CHAOS_GUIDED_GOLDEN = corpus: 10 entries, 238 signature bits, 0/10 runs violated, first violation run 0
chaos-guided-smoke:
	rm -rf $(CHAOS_SMOKE_DIR) && mkdir -p $(CHAOS_SMOKE_DIR)/ca $(CHAOS_SMOKE_DIR)/cb
	$(GO) run ./cmd/chaos -coverage -version TCP-PRESS-HB -seed 3 -runs 10 -batch 4 \
		$(CHAOS_SMOKE_FLAGS) -corpus $(CHAOS_SMOKE_DIR)/ca > $(CHAOS_SMOKE_DIR)/a.txt
	$(GO) run ./cmd/chaos -coverage -version TCP-PRESS-HB -seed 3 -runs 10 -batch 4 \
		$(CHAOS_SMOKE_FLAGS) -corpus $(CHAOS_SMOKE_DIR)/cb > $(CHAOS_SMOKE_DIR)/b.txt
	cmp $(CHAOS_SMOKE_DIR)/a.txt $(CHAOS_SMOKE_DIR)/b.txt
	diff -r $(CHAOS_SMOKE_DIR)/ca $(CHAOS_SMOKE_DIR)/cb
	grep -qF '$(CHAOS_GUIDED_GOLDEN)' $(CHAOS_SMOKE_DIR)/ca/corpus_summary.txt
	rm -rf $(CHAOS_SMOKE_DIR)

# Soak smoke test: one multi-cycle soak on a surviving kernel, twice.
# Checks determinism (byte-identical output) and that every cycle plus
# the final full-suite judgement stays green.
soak-smoke:
	rm -rf $(CHAOS_SMOKE_DIR) && mkdir -p $(CHAOS_SMOKE_DIR)
	$(GO) run ./cmd/chaos -soak -version TCP-PRESS-HB -seed 3 -cycles 2 \
		$(CHAOS_SMOKE_FLAGS) > $(CHAOS_SMOKE_DIR)/a.txt
	$(GO) run ./cmd/chaos -soak -version TCP-PRESS-HB -seed 3 -cycles 2 \
		$(CHAOS_SMOKE_FLAGS) > $(CHAOS_SMOKE_DIR)/b.txt
	cmp $(CHAOS_SMOKE_DIR)/a.txt $(CHAOS_SMOKE_DIR)/b.txt
	grep -qF '0/2 cycles violated an invariant' $(CHAOS_SMOKE_DIR)/a.txt
	rm -rf $(CHAOS_SMOKE_DIR)

# The benchmark (bench/, a Go module of its own that the root module's
# build and tests do not see): its package tests, so it keeps building
# against the simulator's API, and a full ledger run (every workload,
# 3 runs each plus one per-layer run; writes
# bench/results/BENCH_<yyyymmdd>_<sha>.json). See bench/README.md.
bench-test:
	$(GO) -C bench test ./...

bench-json:
	bash bench/run.sh -seed 1 -runs 3 -layers

ci: vet verify race golden trace-smoke lat-smoke slo-smoke chaos-smoke chaos-guided-smoke soak-smoke bench-test

# Serial vs parallel full-campaign wall clock (see EXPERIMENTS.md,
# "Runtime"). Each iteration is a complete 60-run campaign.
bench-campaign:
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign(Serial|Parallel4)' -benchtime 1x -timeout 45m .
