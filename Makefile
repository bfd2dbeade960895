# Developer entry points. The repo is pure Go with no dependencies, so
# every target is a thin wrapper around the go tool.

GO ?= go

.PHONY: all build test vet fmt-check lint checkprog race faults schema perfbench-check serve-smoke cache-smoke metrics-smoke check bench bench-baseline benchdiff run-all profile clean

# The headline benchmarks gated by BENCH_10.json (see bench-baseline and
# benchdiff below). BenchmarkTraceGeneration's regex also matches the
# Batched variant; BenchmarkWindowCacheIterate lives in internal/ooo, so
# the bench targets sweep both packages.
BENCHES = BenchmarkRunAllQuick|BenchmarkDetailedMachine|BenchmarkTraceGeneration|BenchmarkIdealScheduler|BenchmarkWindowCacheIterate
BENCHPKGS = . ./internal/ooo

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any Go file in the tree,
# perfbench/ included: go vet and the analyzers do not check layout.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# lint runs the repo's custom analyzers (internal/lint): cache-key field
# coverage (keycover), deterministic map iteration (detrange), simulator
# purity (simpure), stack-preserving recover sites (recoverstack),
# hot-loop allocation hygiene (hotalloc), and the concurrency-invariant
# passes — mutex-guarded field discipline (lockguard), goroutine
# termination paths (goroleak), and atomic/plain access mixing
# (atomicmix).
lint:
	$(GO) run ./cmd/cisimlint

# checkprog statically verifies the built-in workload programs (branch
# targets, reachability, def-before-use, call discipline, reconvergence).
checkprog:
	$(GO) run ./cmd/cisim check

# race runs the whole tree under the race detector. -short keeps the
# single-threaded model packages cheap (they skip their long sweeps)
# while the concurrency-heavy packages — the worker pool, the artifact
# cache's singleflight path, the serve daemon's dispatcher/streaming
# machinery, and the api engine's concurrent sweeps with disjoint
# per-sweep scopes — run their full suites: none of their tests consult
# testing.Short.
race:
	$(GO) test -race -short ./...

# faults drives the deterministic fault-injection matrix end to end:
# every fault point (cache corruption, transient/permanent failures,
# hangs, panics, aborts) through real quick experiment runs, plus the
# journal crash-recovery and resume paths (see DESIGN.md §8).
faults:
	$(GO) test -run 'TestFaultMatrix|TestJournalResume|TestRunBadFaultSpec|TestRunResumeNeedsJournal|TestStoreCrash|TestStoreDiskFaults|TestStoreReadCorruption' ./cmd/cisim/

# schema pins the machine-readable interfaces: the run-event JSONL
# stream (cmd/cisim/testdata/event_schema.json against runner.Event and
# a real run), the span trace JSONL (cmd/cisim/testdata/span_schema.json
# against telemetry.Record and a real traced run), and the serve HTTP
# API (internal/api/testdata/api_schema.json against the request/
# response structs).
schema:
	$(GO) test -run 'TestEventSchemaMatchesStruct|TestEventStreamMatchesSchema' ./cmd/cisim/
	$(GO) test -run 'TestSpanSchemaMatchesStruct|TestSpanStreamMatchesSchema' ./cmd/cisim/
	$(GO) test -run 'TestAPISchema|TestSweepRequestRoundTrip' ./internal/api/

# perfbench-check vets and self-tests the benchmark module. perfbench/ is
# its own Go module, so the root build, vet and test never compile it; a
# changed signature it calls would otherwise pass every other gate. Vet,
# not build: `go build ./...` in a one-main-package module writes a
# binary into the tree.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# serve-smoke drives the `cisim serve` daemon across a real process
# boundary: start it, submit a quick sweep over HTTP with the example
# client, assert the result is byte-identical to `run -quick -json`,
# and drain it with SIGTERM (see scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh

# cache-smoke drives the persistent artifact store (-cache-dir) across
# real process boundaries: two concurrent cold cisim processes share
# one store (no deadlock, byte-identical JSON), a warm third process
# must finish in under half the storeless baseline, the store verifies
# clean, and `cisim cache stats -json` lands in artifacts/ (see
# scripts/cache_smoke.sh, DESIGN.md §13).
cache-smoke:
	./scripts/cache_smoke.sh

# metrics-smoke drives the observability surface across a real process
# boundary: a daemon with a spans directory and a persistent store, a
# traced sweep submitted with a traceparent header (result still
# byte-identical to the CLI), GET /metrics validated by the in-repo
# strict exposition parser (`cisim promcheck`), and the span trace
# analyzed offline (`cisim spans`) with a Chrome export in artifacts/
# (see scripts/metrics_smoke.sh, DESIGN.md §14).
metrics-smoke:
	./scripts/metrics_smoke.sh

# check is the CI gate: build, vet, the format check, the custom
# analyzers, the workload verifier, full tests, the race pass, the fault
# matrix, the schema golden tests, the benchmark module's vet and
# self-test, and the process-boundary smoke tests (serve daemon,
# persistent store, observability surface).
check: build vet fmt-check lint checkprog test race faults schema perfbench-check serve-smoke cache-smoke metrics-smoke

bench:
	$(GO) test -bench='BenchmarkRunAllQuick|BenchmarkWindowCacheIterate|BenchmarkTraceGenerationBatched' -benchtime=1x -run=^$$ $(BENCHPKGS)

# bench-baseline re-records the committed benchmark baseline from three
# runs of the headline benchmarks (medians). Run on an idle machine and
# commit the result together with the change that moved the numbers.
bench-baseline:
	$(GO) test -bench='$(BENCHES)' -benchtime=1x -count=3 -benchmem -run=^$$ $(BENCHPKGS) \
		| $(GO) run ./cmd/benchdiff -write BENCH_10.json \
			-note "$$(uname -m), $$($(GO) version | cut -d' ' -f3), -benchtime=1x -count=3 medians"

# benchdiff compares a fresh benchmark run against the committed
# baseline: time deltas beyond ±10% and any allocs/op increase are
# flagged. Advisory (exit 0) because wall-clock noise on shared machines
# is real; pass STRICT=-strict to turn regressions into a failure.
benchdiff:
	$(GO) test -bench='$(BENCHES)' -benchtime=1x -count=3 -benchmem -run=^$$ $(BENCHPKGS) \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_10.json $(STRICT)

run-all: build
	$(GO) run ./cmd/cisim run -quick all

# profile runs a quick campaign with the observability hooks armed and
# drops the artifacts in artifacts/: CPU + heap profiles, a Go execution
# trace, and the run-event stream. It then prints the run-event summary
# and a per-stage CPU table: the cumulative samples of each detailed-
# machine pipeline stage (fetch, dispatch, issue, completion, recovery
# with its stability pass, retire, golden sync) next to the two engines'
# RunPrepared totals. Inspect further with `go tool pprof
# artifacts/cpu.pprof` / `go tool trace artifacts/exec.trace` /
# `go run ./cmd/cisim events artifacts/events.jsonl`.
profile: build
	mkdir -p artifacts
	$(GO) run ./cmd/cisim run -quick -metrics \
		-cpuprofile artifacts/cpu.pprof -memprofile artifacts/mem.pprof \
		-exectrace artifacts/exec.trace -events artifacts/events.jsonl all
	$(GO) run ./cmd/cisim events artifacts/events.jsonl
	$(GO) tool pprof -top -cum \
		-show='ooo\.\(\*machine\)\.(fetchStage|dispatchStage|issueStage|completeStage|recoveryStage|computeStability|retireStage|goldSync)$$|ooo\.RunPrepared$$|ideal\.RunPrepared$$' \
		artifacts/cpu.pprof
