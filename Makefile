GO ?= go

# Pinned tool versions: `make tools` installs exactly these, so lint
# results are reproducible across machines and CI. privlint needs no
# pin — it lives in this module and versions with the tree.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK ?= staticcheck

.PHONY: all check build vet lint privlint lint-report staticcheck tools test race cover bench bench-smoke bench-shard bench-trace load slo experiments examples fuzz chaos shard durability clean

all: build vet test

# check is the pre-merge gate: compile, static analysis (vet + the
# privlint invariant suite + staticcheck), tests, the fault-injection
# matrix and the crash-point durability matrix, both under the race
# detector.
check: build lint test chaos durability

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the full static-analysis gate. It FAILS (never skips) when
# a tool is missing: a lint gate that silently degrades is worse than
# none. Run `make tools` once to install the pinned versions.
lint: vet privlint staticcheck

# privlint is the repo's own go/analysis-style suite (internal/lint):
# twelve analyzers mechanizing the privacy, determinism, locking,
# lock-ordering, goroutine-discipline, atomicity, billing,
# error-wrapping, telemetry-taint and WAL-journaling invariants, with
# cross-package facts serialized between packages. See DESIGN.md §8 for
# the catalog and §13 for the lock-order DAG. Findings are suppressed
# only by `//lint:allow <analyzer> <reason>`; reasonless or unused
# directives are findings themselves.
privlint:
	$(GO) run ./cmd/privlint ./...

# lint-report regenerates the machine-readable lint report committed in
# results/, so analyzer output is diffable across commits. Fails (like
# privlint) if the tree has findings.
lint-report:
	@mkdir -p results
	$(GO) run ./cmd/privlint -json ./... > results/privlint.json

staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found: run 'make tools' (installs staticcheck@$(STATICCHECK_VERSION))" >&2; \
		exit 1; }
	$(STATICCHECK) ./...

# tools installs the pinned external lint tools into GOBIN. Needs
# network access; in air-gapped environments pre-bake the tools into
# the image instead.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

test:
	$(GO) test ./...

# race runs the full suite under the race detector, then re-runs the
# concurrency-heavy shard and market suites a second time: their bugs
# (scatter-gather joins, WAL group commit, receipt ordering) are
# interleaving-dependent, and a second pass shakes out schedules the
# first run missed.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/shard/ ./internal/market/

cover:
	$(GO) test -cover ./...

# One testing.B target per paper figure + ablations; logs the series.
# Also runs the hot-path micro-benchmarks (estimator worker pool, flat
# columnar index, batch fan-out, wire codec) and records them in
# results/bench-index.txt; the pre-index baselines live in
# results/bench-concurrency.txt. The telemetry-overhead comparison
# (instrumented hot paths with and without a live registry) lands in
# results/bench-telemetry.txt plus a machine-readable
# results/bench-telemetry.json via cmd/benchjson.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=NONE .
	@mkdir -p results
	$(GO) test -bench=. -benchmem -run=NONE ./internal/estimator ./internal/core ./internal/wire | tee results/bench-index.txt
	$(GO) test -bench='Telemetry|AnswerBatch|EstimateFlatIndex|EstimateIndexBatch' -benchmem -run=NONE ./internal/core ./internal/estimator | tee results/bench-telemetry.txt
	$(GO) run ./cmd/benchjson -o results/bench-telemetry.json results/bench-telemetry.txt
	$(GO) test -bench='BenchmarkServer' -benchmem -run=NONE ./internal/market | tee results/bench-serving.txt

# bench-smoke compiles every benchmark and runs each for exactly one
# iteration — the CI guard that keeps the bench suite building and
# runnable without paying for stable timings.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=NONE ./internal/estimator ./internal/core ./internal/wire ./internal/market ./internal/stats ./internal/optimize

# load is the serving-path gate: cmd/privload self-hosts a marketplace
# and drives the same open-loop workload through the serial baseline
# (legacy client, no coalescing) and the pipelined + coalesced path,
# recording before/after throughput and p50/p99/p999 latency in
# results/bench-load.{txt,json}. privload exits non-zero when a phase
# sheds or fails (nearly) everything, or when requests are still
# outstanding long after the phase ends — so a wedged or
# shed-everything serving path fails CI instead of hanging it. The
# transport micro-benchmarks (serial vs pipelined exchange, lazy vs
# eager deadline re-arm) land in results/bench-serving.txt via the
# bench target.
load:
	@mkdir -p results
	$(GO) run ./cmd/privload -rate 4000 -duration 2s -conns 8 \
		-o results/bench-load.json -txt results/bench-load.txt

# bench-trace records the distributed-tracing overhead comparison: the
# engine hot paths with telemetry alone vs telemetry plus 1-in-64 trace
# sampling. The tracing contract is ≤2% ns/op and +0 allocs/op at that
# rate; results land in results/bench-trace.{txt,json} via cmd/benchjson.
bench-trace:
	@mkdir -p results
	$(GO) test -bench='BenchmarkAnswerBatchSerialTelemetry|BenchmarkAnswerBatchSerialTraced|BenchmarkAnswerTelemetry$$|BenchmarkAnswerTraced' -benchmem -run=NONE ./internal/core | tee results/bench-trace.txt
	$(GO) run ./cmd/benchjson -o results/bench-trace.json results/bench-trace.txt

# slo is the burn-rate smoke gate: privload self-hosts a marketplace,
# declares a deliberately loose buy SLO (99% under 5s), drives a short
# load, and exits non-zero if the burn-rate gauges report the error
# budget burning — wiring the whole declare → observe → scrape → gate
# chain into CI without flaking on machine speed.
slo:
	$(GO) run ./cmd/privload -rate 1000 -duration 2s -conns 4 \
		-slo 0.99:5s -max-burn 1.0

# bench-shard records 1-vs-S shard throughput (scatter-gather batch
# release and collection rounds) in results/bench-shard.txt plus a
# machine-readable results/bench-shard.json via cmd/benchjson. Answers
# are bit-identical across the shard axis, so the series isolates
# routing overhead vs parallel win.
bench-shard:
	@mkdir -p results
	$(GO) test -bench='BenchmarkShard' -benchmem -run=NONE . | tee results/bench-shard.txt
	$(GO) run ./cmd/benchjson -o results/bench-shard.json results/bench-shard.txt

# Regenerate the paper's evaluation as tables (CSV copies in ./results).
experiments:
	$(GO) run ./cmd/experiments -all -o results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/airquality
	$(GO) run ./examples/marketplace
	$(GO) run ./examples/iotnetwork
	$(GO) run ./examples/analytics
	$(GO) run ./examples/streaming

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/dataset/

# Fault-injection matrix (per-node loss × corruption × crash/recover
# churn) plus the end-to-end degraded-deployment scenario, all under the
# race detector. See DESIGN.md §7 for the failure model these exercise.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/iot/ .

# durability runs the crash-consistency gate under the race detector:
# the crash-point injection matrix (the marketplace killed at every WAL
# instant, including torn writes, then recovered and compared against
# the acked-operations oracle), the WAL/recovery edge-case suite
# (corrupt tails, snapshot+log replay, compaction), the torn-snapshot
# regression, and the accountant snapshot/restore unit tests. See
# DESIGN.md §12 for the durability model these prove.
durability:
	$(GO) test -race -run 'TestCrashPoint|TestWAL|TestRecover|TestReplay|TestDurable|TestEnableDurability|TestGroupCommit|TestCompaction|TestDecodeWAL|TestConcurrentSaveVsBuy|TestConcurrentDurableBuysRecover|TestWithheldSpendSurvivesRestart|TestDepositCreditAfterDurable|TestDepositRejectsNonFinite|TestRestoreRejects|TestRestoreRefuses|TestAccountant' ./internal/market/ ./internal/dp/

# shard runs the sharded scale-out gate under the race detector: the
# shard-count determinism suite (answers bit-identical to the
# single-broker engine for any S), the degraded-shard chaos scenario,
# and the shard/estimator unit suites the router stands on.
shard:
	$(GO) test -race -run 'TestShard|TestRing|TestCluster|TestScatter' . ./internal/shard/ ./internal/estimator/
	$(GO) test -race -run 'TestBatchFailure|TestInvalidQueryMatrix|TestCacheReturnsCopies' ./internal/core/

clean:
	rm -rf results test_output.txt bench_output.txt
