# Tier-1 verification gate plus extras. `make check` is what CI should run.
GO ?= go

.PHONY: ci check vet build test race benchsmoke bench obssmoke tracesmoke verify fuzzsmoke scenariosmoke

# ci is the hosted-CI entry point (.github/workflows/ci.yml): the full
# check gate, ordered fastest-fail-first.
ci: build vet test race fuzzsmoke obssmoke tracesmoke scenariosmoke benchsmoke verify

# check runs static analysis, the full build, the full test suite, the
# race detector on internal/core (exercises ParallelTrainStep's shared-
# weight/private-gradient scheme under -race) and internal/obs (scrape-
# while-write on the metrics registry), an admin-endpoint smoke test, the
# request-tracing smoke (flight recorder spans plus the tracing-disabled
# zero-allocation pin), a one-iteration bench smoke that compiles and
# executes every benchmark once so the perf harness can never silently
# rot, the differential-oracle suite (internal/verify), and a short
# fuzzing pass over every fuzz target, and the correlated-disaster
# scenario smoke (scenariosmoke).
check: vet build test race obssmoke tracesmoke scenariosmoke benchsmoke verify fuzzsmoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the packages with real concurrency: core's parallel train
# step, obs's scrape-while-write registry, resilience's Serve/Reload/Drain
# churn hammer plus the breaker half-open contention pin, chaos's
# fault-injecting filesystem and replica-fault injectors under torture,
# the seed-replayable scenario player, the fleet dispatcher's chaos
# tortures (hedges, retries, rolling reload mid-burst, and the
# correlated-disaster scenario), and the differential-oracle suite
# (including the engine oracle's small-topology rows; its GEANT and KDL
# rows skip under -race).
race:
	$(GO) test -race ./internal/core ./internal/obs ./internal/resilience ./internal/chaos ./internal/chaos/replica ./internal/chaos/scenario ./internal/fleet ./internal/verify

# scenariosmoke replays the seed-pinned correlated-disaster script against
# a live fleet under the race detector: SRLG fiber cut, 40x flash crowd,
# sustained shift, adversarial demands ascended through the model, and a
# maintenance wave — asserting zero hangs, vetted splits on every answer,
# a bounded MLU ratio on non-partitioned steps, and hostile demotion off
# the neural tiers and split cache. The OOD guard's serve-path contract
# (classification, demotion tiers, cache bypass, fail-open) rides along.
scenariosmoke:
	$(GO) test -race -count=1 -run 'TestFleetScenarioTorture' ./internal/fleet
	$(GO) test -count=1 -run 'TestOOD|TestAdversarialTM|TestFailSRLG' ./internal/resilience ./internal/verify ./internal/topology

# verify runs the differential-oracle suite: autograd gradients vs central
# finite differences, simplex optima vs duality/complementary-slackness
# certificates, MWU vs simplex, HARP's permutation/edge-order invariance
# oracles, and the engine oracle (TestEngineOracle: every serving path
# bit-identical to the training Forward; see internal/verify and
# DESIGN.md §Correctness).
verify:
	$(GO) test -count=1 ./internal/verify

# fuzzsmoke gives each native fuzz target a short budget (go test allows
# one -fuzz pattern per invocation, hence one line per target; ~15-30s
# total). Committed regression seeds under testdata/fuzz/ also run as
# ordinary test cases in `make test`.
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=2s ./internal/topology
	$(GO) test -run='^$$' -fuzz='^FuzzParseTMs$$' -fuzztime=2s ./internal/traffic
	$(GO) test -run='^$$' -fuzz='^FuzzReadCheckpoint$$' -fuzztime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzModelLoad$$' -fuzztime=2s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzMatMul$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzNewCSR$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzNewCSRChecked$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzSoftmaxRow$$' -fuzztime=2s ./internal/tensor
	$(GO) test -run='^$$' -fuzz='^FuzzCacheKey$$' -fuzztime=2s ./internal/resilience

# obssmoke boots the observability admin endpoint on a loopback port and
# scrapes /metrics, /debug/vars and /debug/pprof once.
obssmoke:
	$(GO) test -count=1 -run 'TestAdminEndpointSmoke|TestAdminRouteTable' ./internal/obs

# tracesmoke drives a coalesced burst through a traced server and checks
# the flight-recorder dump (queue waits, cache misses, batch membership
# links, per-stage forward timings, shed retention under hopeless sampling
# odds), then pins that with tracing disabled the serve path stays
# allocation-free even with SLO tracking and quality sampling attached.
tracesmoke:
	$(GO) test -count=1 -run 'TestTrace' ./internal/resilience
	$(GO) test -count=1 -run 'TestFleetTraceHedgeWinRetained|TestFleetStatsTelemetryParity' ./internal/fleet

# benchsmoke runs every benchmark exactly once in -short mode (experiment-
# scale benchmarks in the root package skip themselves under -short).
benchsmoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# bench runs the perf-regression suite (hot-path micro and macro
# benchmarks with allocation counts) and records the results as the
# "current" entry of BENCH_1.json; the committed "baseline" entry is
# preserved for comparison. It then records the serving-throughput
# ledger BENCH_2.json: batched vs sequential inference (SplitsBatch and
# the micro-batch collector) and the split-cache hit vs miss path, and
# the large-topology ledger BENCH_3.json: UsCarrier-scale (158-node) and
# KDL-scale (754-node) single-snapshot inference. See the Performance
# section of the README.
BENCH_PKGS = ./internal/tensor ./internal/autograd ./internal/core
BENCH2_RE = 'SplitsBatch16|SplitsSequential16|ServeCache|ServeBatchedBurst|ServeSequentialBurst'
BENCH3_RE = 'SplitsUsCarrier64|SplitsKDL64'
bench:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run='^$$' -bench=. -benchmem $(BENCH_PKGS) | \
		/tmp/benchjson -out BENCH_1.json -cmd "go test -run='^$$' -bench=. -benchmem $(BENCH_PKGS)"
	$(GO) test -run='^$$' -bench=$(BENCH2_RE) -benchmem ./internal/core ./internal/resilience | \
		/tmp/benchjson -out BENCH_2.json -cmd "go test -run='^$$' -bench=$(BENCH2_RE) -benchmem ./internal/core ./internal/resilience"
	$(GO) test -run='^$$' -bench=$(BENCH3_RE) -benchmem ./internal/core | \
		/tmp/benchjson -out BENCH_3.json -cmd "go test -run='^$$' -bench=$(BENCH3_RE) -benchmem ./internal/core"
