# Build/verify entry points. `make check` is the CI tier that keeps the
# concurrent metrics/runner code race-clean, smokes the fuzz targets and
# drills the supervised sweep engine through its CLI (chaos injection,
# crash-resume). What used to be shell-scripted smokes here are Go tests
# in `make test`: the cache round-trip is cmd/tables' TestCacheRoundTrip,
# and the boomd serve / parametric cold-warm / fabric-vs-solo drills are
# cmd/boomd's tests, booting the daemon and a -worker in-process.

GO ?= go

.PHONY: build test vet race fuzz-smoke chaos resume-roundtrip fabric-chaos bench bench-smoke bench-measure fidelity check

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so tests that
# secretly depend on a predecessor (easy to introduce around the measure
# worker pool's package-level state) fail loudly instead of by luck. The
# concurrent packages then run again at -cpu 1,2: an assertion that only
# holds on a single-core box (or only on a multi-core one) is a bug in the
# assertion, and this is where it shows.
test: build
	$(GO) test -shuffle=on ./...
	$(GO) test -cpu 1,2 ./internal/core ./internal/metrics ./internal/serve ./cmd/boomd ./internal/sim ./internal/mem ./internal/bbv
	$(GO) test -cpu 1,2 -short ./internal/fabric

vet:
	$(GO) vet ./...

# Race tier: the packages with concurrent code (metrics registry, Runner
# worker pool, artifact cache, fault injector, shared journal, HTTP job
# service and the boomd wiring around it, sweep fabric) must stay
# race-clean, and so must the functional core they share state through:
# concurrent point workers fetch from one predecoded text image
# (internal/sim) and clone one checkpoint memory (internal/mem). The
# fabric package runs -short: its full 11×3 conformance matrices are
# covered race-free by `make test`, while the journal, lease, resume, and
# store-economy tests all still run under the race detector.
race:
	$(GO) test -race ./internal/metrics ./internal/core ./internal/artifact ./internal/faultinject ./internal/journal ./internal/serve ./cmd/boomd ./internal/sim ./internal/mem ./internal/bbv
	$(GO) test -race -short ./internal/fabric

# Fuzz smoke: a few seconds per target on top of the committed seed
# corpora (go accepts one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseBBV -fuzztime 5s ./internal/bbv
	$(GO) test -run '^$$' -fuzz FuzzParseSimPoints -fuzztime 5s ./internal/simpoint
	$(GO) test -run '^$$' -fuzz FuzzArtifactKey -fuzztime 5s ./internal/artifact
	$(GO) test -run '^$$' -fuzz FuzzJournalRead -fuzztime 5s ./internal/journal

# Chaos drill: a keep-going sweep with a seeded fault plan (a panic, a
# transient error, artifact corruption) must render tables with FAILED
# cells and exit non-zero — never crash. The in-tree acceptance test
# (TestChaosSweepAcceptance) additionally proves non-faulted pairs stay
# bit-identical; this target proves the CLI wiring end to end.
chaos:
	rm -rf .chaos-check && mkdir -p .chaos-check
	$(GO) run ./cmd/tables -scale tiny -q -keep-going -retries 2 \
		-chaos '42:core.measure/sha/MediumBOOM=panic,core.measure/qsort/*=error' \
		> .chaos-check/out.txt 2> .chaos-check/err.txt; \
		test $$? -ne 0 || { echo "chaos: expected non-zero exit"; exit 1; }
	grep -q FAILED .chaos-check/out.txt
	grep -q 'task(s) failed' .chaos-check/err.txt
	rm -rf .chaos-check

# Resume round-trip: kill a cached sweep after 5 tasks (exit 3), resume
# it — rerunning only the unfinished tasks — and require the resumed
# report to be byte-identical to a warm rerun of the completed campaign
# (wall-clock figures travel with the artifacts, so the compare is exact).
resume-roundtrip:
	rm -rf .resume-check && mkdir -p .resume-check
	$(GO) build -o .resume-check/tables ./cmd/tables
	./.resume-check/tables -scale tiny -q -cache .resume-check/cache \
		-die-after 5 > /dev/null 2>&1; \
		test $$? -eq 3 || { echo "resume: expected die-after exit 3"; exit 1; }
	./.resume-check/tables -scale tiny -q -cache .resume-check/cache -resume \
		> .resume-check/resumed.txt
	./.resume-check/tables -scale tiny -q -cache .resume-check/cache \
		> .resume-check/warm.txt
	cmp .resume-check/resumed.txt .resume-check/warm.txt
	rm -rf .resume-check

# Fabric chaos drill: the full 11×3 conformance matrix on a 3-worker
# in-process cluster where worker-0 corrupts every measure payload it
# reports and every worker's network layer injects stalled polls, 5xx
# report/heartbeat failures, and corrupted/truncated store bodies. The
# final report must stay golden-digest-identical, worker-0 must end the
# run quarantined by the result audit, and no cell may fail.
fabric-chaos:
	$(GO) test -run TestConformanceNetworkChaos -count=1 ./internal/fabric

# Kernel benchmarks: measure the hot-path kernels (BOOM tick, decode,
# stats/power accumulate, functional step/trace, BBV observe, memory
# access) and record cycles/sec, ns/op, and allocs/op per BOOM config in
# BENCH_kernel.json. See README "Performance" for the methodology.
bench:
	$(GO) run ./cmd/kernelbench -benchtime 2s -count 3

# Bench smoke: every kernel benchmark runs once (-benchtime 1x) and the
# JSON emitter must see every kernel — catches perf-harness rot without
# paying for real measurements. Then the functional-core floor: the four
# per-instruction kernels (cheap enough to measure for real: 5M ops each,
# best of 3) must allocate exactly what their committed BENCH_kernel.json
# rows do and, on the CPU model the ledger was taken on, run within 1.5x
# of them.
bench-smoke:
	rm -rf .bench-check && mkdir -p .bench-check
	$(GO) run ./cmd/kernelbench -benchtime 1x -out .bench-check/BENCH_kernel.json 2> /dev/null
	for k in tick decode stats_accumulate power_accumulate func_step func_run_trace bbv_observe mem_read_write measure_j1 measure_j4; do \
		grep -q "\"kernel\": \"$$k\"" .bench-check/BENCH_kernel.json \
			|| { echo "bench-smoke: kernel $$k missing"; exit 1; }; \
	done
	$(GO) run ./cmd/kernelbench -bench '^BenchmarkKernel(Func|BBV|Mem)' -benchtime 5000000x -count 3 \
		-out .bench-check/floor.json -floor BENCH_kernel.json 2> .bench-check/floor.log \
		|| { cat .bench-check/floor.log; exit 1; }
	rm -rf .bench-check
	@echo "bench-smoke: OK"

# Measure-stage gate (DESIGN §17): one MegaBOOM cell at -j1 vs -j4 must
# produce byte-identical canonical bytes, and -j4 must win the wall clock
# wherever the machine has >= 4 CPUs (single-core CI boxes verify the
# digest half and skip the timing half).
bench-measure:
	BOOM_MEASURE_SPEEDUP=1 $(GO) test -run TestMeasurePointSpeedup -count=1 -v ./internal/core

# Sampling-fidelity gate (DESIGN §18): per-workload sampled-vs-full CPI
# error at MediumBOOM under the BBV-only baseline spec and the recommended
# bbv+mav spec. The recommended spec's mean error must not regress, and
# dijkstra — the memory-bound workload BBV-only sampling mis-clusters —
# must strictly improve. Prints the per-workload delta table.
fidelity:
	BOOM_FIDELITY=1 $(GO) test -run TestFidelityGate -count=1 -v ./internal/core

check: vet race fuzz-smoke bench-smoke bench-measure fidelity chaos resume-roundtrip fabric-chaos
