# Build/verify entry points. Everything behavioural is a Go test under
# `make test`; `make check` is the CI tier on top of it, six gates:
#   vet            go vet, and gofmt -l prints nothing
#   race           the concurrent packages under the race detector
#   fuzz-smoke     5 s per fuzz target on top of the committed corpora
#   bench-smoke    every kernel benchmark once + the functional-core floor
#   bench-measure  one measure cell: -j 1 vs -j 4, byte-identical
#   fidelity       sampled-vs-full CPI error per sampling spec
# The CLI drills (chaos keep-going, crash-resume, cache round-trip, boomd
# serve / fabric-vs-solo) are tests of the commands themselves, in ./cmd/...

GO ?= go

.PHONY: build test vet race fuzz-smoke bench bench-smoke bench-measure fidelity check

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so tests that
# secretly depend on a predecessor fail loudly instead of by luck. The
# concurrent packages and the commands then run again at -cpu 1,2: an
# assertion that only holds on a single-core box (or only on a multi-core
# one) is a bug in the assertion, and this is where it shows.
test: build
	$(GO) test -shuffle=on ./...
	$(GO) test -cpu 1,2 ./internal/core ./internal/metrics ./internal/serve ./internal/wire ./internal/sim ./internal/mem ./internal/bbv ./cmd/...
	$(GO) test -cpu 1,2 -short ./internal/fabric

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] \
		|| { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }

# The packages with concurrent code (metrics registry, Runner worker pool,
# artifact cache, fault injector, fabric journal, the HTTP round trip and
# retry wrapper, HTTP job service and the boomd wiring around it, sweep
# fabric) must stay race-clean, and so must the functional core they share
# state through: concurrent point workers fetch from one predecoded text
# image (internal/sim) and clone one checkpoint memory (internal/mem). The fabric package runs -short: its
# full 11×3 conformance matrices are covered race-free by `make test`.
race:
	$(GO) test -race ./internal/metrics ./internal/core ./internal/artifact ./internal/faultinject ./internal/journal ./internal/wire ./internal/serve ./cmd/boomd ./internal/sim ./internal/mem ./internal/bbv
	$(GO) test -race -short ./internal/fabric

# go accepts one -fuzz target per invocation. The two payload-decoder
# targets seed from real KB-sized payloads; minimizing one new input at the
# default 60 s budget would eat their whole 5 s, so theirs is capped.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseBBV -fuzztime 5s ./internal/bbv
	$(GO) test -run '^$$' -fuzz FuzzParseMAV -fuzztime 5s ./internal/mav
	$(GO) test -run '^$$' -fuzz FuzzParseSimPoints -fuzztime 5s ./internal/simpoint
	$(GO) test -run '^$$' -fuzz FuzzArtifactKey -fuzztime 5s ./internal/artifact
	$(GO) test -run '^$$' -fuzz FuzzArtifactEntry -fuzztime 5s ./internal/artifact
	$(GO) test -run '^$$' -fuzz FuzzJournalRead -fuzztime 5s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzSweepRequest -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzFabricBodies -fuzztime 5s ./internal/fabric
	$(GO) test -run '^$$' -fuzz FuzzDecodeResultPayload -fuzztime 5s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeCkptPayload -fuzztime 5s -fuzzminimizetime 1s ./internal/core

# Kernel benchmarks: measure the hot-path kernels (BOOM tick — sha and the
# low-IPC tarfind — decode,
# stats/power accumulate, functional step/trace, BBV observe, memory
# access, one measure cell, one warm rerun) per BOOM config into
# BENCH_kernel.json. See README "Performance".
bench:
	$(GO) run ./cmd/kernelbench -benchtime 2s -count 3

# Every kernel benchmark runs once (-benchtime 1x) and the JSON emitter
# must see every kernel — catches perf-harness rot without paying for real
# measurements. Then the two floors against the committed BENCH_kernel.json.
# The tick kernels and the warm rerun (8 iterations each, so a stray
# runtime allocation rounds away) may allocate no more per op than their
# rows: a count, so it gates on every host. The four per-instruction
# functional-core kernels (5M ops each, best of 3) must allocate exactly
# what their rows do and, on the CPU model the ledger was taken on, run
# within 1.5x of them.
bench-smoke:
	rm -rf .bench-check && mkdir -p .bench-check
	$(GO) run ./cmd/kernelbench -benchtime 1x -out .bench-check/BENCH_kernel.json 2> /dev/null
	for k in tick tick_lo_ipc decode stats_accumulate power_accumulate func_step func_run_trace bbv_observe mem_read_write measure_j1 measure_j4 warm_sweep; do \
		grep -q "\"kernel\": \"$$k\"" .bench-check/BENCH_kernel.json \
			|| { echo "bench-smoke: kernel $$k missing"; exit 1; }; \
	done
	$(GO) run ./cmd/kernelbench -bench '^BenchmarkKernel(Tick|WarmSweep)' -benchtime 8x \
		-out .bench-check/ticks.json -floor BENCH_kernel.json 2> .bench-check/ticks.log \
		|| { cat .bench-check/ticks.log; exit 1; }
	$(GO) run ./cmd/kernelbench -bench '^BenchmarkKernel(Func|BBV|Mem)' -benchtime 5000000x -count 3 \
		-out .bench-check/floor.json -floor BENCH_kernel.json 2> .bench-check/floor.log \
		|| { cat .bench-check/floor.log; exit 1; }
	rm -rf .bench-check
	@echo "bench-smoke: OK"

# Measure-stage gate (DESIGN §4, point parallelism): one MegaBOOM cell at
# -j1 vs -j4 must produce byte-identical canonical bytes, and -j4 must win
# the wall clock wherever the machine has >= 4 CPUs (smaller boxes verify
# the digest half and skip the timing half).
bench-measure:
	BOOM_MEASURE_SPEEDUP=1 $(GO) test -run TestMeasurePointSpeedup -count=1 -v ./internal/core

# Sampling-fidelity gate (DESIGN §7, sampling): per-workload sampled-vs-full
# CPI error at MediumBOOM under the BBV-only baseline spec and the
# recommended bbv+mav spec. The recommended spec's mean error must not
# regress, and dijkstra — the memory-bound workload BBV-only sampling
# mis-clusters — must strictly improve. Prints the per-workload delta table.
fidelity:
	BOOM_FIDELITY=1 $(GO) test -run TestFidelityGate -count=1 -v ./internal/core

check: vet race fuzz-smoke bench-smoke bench-measure fidelity
