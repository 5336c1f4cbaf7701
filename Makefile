# Build/verify entry points. Everything behavioural is a Go test under
# `make test`; `make check` is the CI tier on top of it, seven gates:
#   vet            go vet, and gofmt -l prints nothing
#   race           the concurrent packages under the race detector
#   fuzz-smoke     5 s per fuzz target (16) on top of the committed corpora
#   bench-smoke    every kernel benchmark once + the functional-core floor
#   bench-measure  one measure cell: -j 1 vs -j 4, byte-identical
#   fidelity       sampled-vs-full CPI error per sampling spec
#   invariants     the tiny 11x3 flow under boom's invariant checker
# The CLI drills (chaos keep-going, crash-resume, cache round-trip, boomd
# serve / fabric-vs-solo) are tests of the commands themselves, in ./cmd/...

GO ?= go

.PHONY: build test vet race fuzz-smoke bench bench-smoke bench-measure fidelity invariants check

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
# artifact cache, fault injector, the HTTP round trip and retry wrapper,
# HTTP job service and the boomd wiring around it, sweep fabric) must stay
# race-clean, and so must the functional core they share
# state through: concurrent point workers fetch from one predecoded text
# image (internal/sim) and fork one copy-on-write checkpoint image, which
# only reads it (internal/mem, internal/ckpt). Every CPU of a workload
# starts by restoring that workload's one entry checkpoint, built by the
# first caller (internal/workloads; -short, as its default- and paper-scale
# checksum runs are single-goroutine). The fabric package runs -short: its
# full 11×3 conformance matrices are covered race-free by `make test`.
# internal/core runs alone under its own timeout: by itself it took 478 s
# under -race on a 2-vCPU host, too close to go test's default 10 minutes.
race:
	$(GO) test -race ./internal/metrics ./internal/artifact ./internal/faultinject ./internal/wire ./internal/serve ./cmd/boomd ./internal/sim ./internal/mem ./internal/ckpt ./internal/bbv
	$(GO) test -race -timeout 20m ./internal/core
	$(GO) test -race -short ./internal/fabric ./internal/workloads

# go accepts one -fuzz target per invocation. The core payload-decoder
# targets seed from real KB-sized payloads; minimizing one new input at the
# default 60 s budget would eat their whole 5 s, so theirs is capped.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSimPoints -fuzztime 5s ./internal/simpoint
	$(GO) test -run '^$$' -fuzz FuzzDecodeResult -fuzztime 5s ./internal/simpoint
	$(GO) test -run '^$$' -fuzz FuzzArtifactKey -fuzztime 5s ./internal/artifact
	$(GO) test -run '^$$' -fuzz FuzzArtifactEntry -fuzztime 5s ./internal/artifact
	$(GO) test -run '^$$' -fuzz FuzzSweepRequest -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzFabricBodies -fuzztime 5s ./internal/fabric
	$(GO) test -run '^$$' -fuzz FuzzPlan -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeResultPayload -fuzztime 5s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeCkptPayload -fuzztime 5s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeBBVPayload -fuzztime 5s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDeserializeAll -fuzztime 5s -fuzzminimizetime 1s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz FuzzMemoryFork -fuzztime 5s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzMemoryReset -fuzztime 5s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzDecodeStats -fuzztime 5s ./internal/boom
	$(GO) test -run '^$$' -fuzz FuzzDecodeReport -fuzztime 5s ./internal/power
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 5s ./internal/rv64

# Kernel benchmarks: measure the hot-path kernels (BOOM tick — sha and the
# low-IPC tarfind — functional warming, decode,
# stats/power accumulate, functional step/trace/blocks, BBV observe, memory
# access, one measure cell, one warm rerun, one cold profile) per BOOM config into
# BENCH_kernel.json. See README "Performance".
bench:
	$(GO) run ./cmd/kernelbench -benchtime 2s -count 3

# Every kernel benchmark runs once (-benchtime 1x) and the JSON emitter
# must see every kernel — catches perf-harness rot without paying for real
# measurements. Then the two floors against the committed BENCH_kernel.json.
# The tick kernels, the warm rerun and the cold profile (8 iterations
# each, so a stray runtime allocation rounds away) and the -j 1 measure
# cell (64: its row is 21 KB, and one OS thread the Go scheduler starts
# mid-run allocates 5.5 KB, 3 % of it over 8 cells)
# may allocate no more often per op than their rows, and the tick kernels
# and the measure cell no more bytes (1 % slack): counts, so they gate on
# every host — a second functional pass in the profile, a checkpoint
# copied whole instead of shared, or a timing core built per cell instead
# of Reset, fails here. The
# five per-instruction functional-core kernels (5M ops each, best of 3)
# must allocate exactly what their rows do and, on the CPU model the ledger
# was taken on, run within 1.5x of them.
bench-smoke:
	rm -rf .bench-check && mkdir -p .bench-check
	$(GO) run ./cmd/kernelbench -benchtime 1x -out .bench-check/BENCH_kernel.json 2> /dev/null
	for k in tick tick_lo_ipc warm decode stats_accumulate power_accumulate func_step func_run_trace func_run_blocks bbv_observe mem_read_write measure_j1 measure_j4 warm_sweep profile; do \
		grep -q "\"kernel\": \"$$k\"" .bench-check/BENCH_kernel.json \
			|| { echo "bench-smoke: kernel $$k missing"; exit 1; }; \
	done
	$(GO) run ./cmd/kernelbench -bench '^BenchmarkKernel(Tick|WarmSweep|Profile)' -benchtime 8x \
		-out .bench-check/ticks.json -floor BENCH_kernel.json 2> .bench-check/ticks.log \
		|| { cat .bench-check/ticks.log; exit 1; }
	$(GO) run ./cmd/kernelbench -bench '^BenchmarkKernelMeasureJ1' -benchtime 64x \
		-out .bench-check/measure.json -floor BENCH_kernel.json 2> .bench-check/measure.log \
		|| { cat .bench-check/measure.log; exit 1; }
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

# Invariant gate (DESIGN §7, cycle model): the tiny 11x3 campaign and the
# three pinned full runs with boom.Core.CheckInvariants on in every core the
# flow builds. A checked core steps every cycle, so the pinned digests in
# testdata/equivalence_golden.txt must hold unchanged.
invariants:
	BOOM_INVARIANTS=1 $(GO) test -run TestFlowUnderInvariants -count=1 -v ./internal/core

check: vet race fuzz-smoke bench-smoke bench-measure fidelity invariants
