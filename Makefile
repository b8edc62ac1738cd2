# Tier-1 verification: build + test must stay green on every PR.
# `make race` additionally runs the race detector over the whole module;
# the experiments layer executes simulations on a worker pool, so race
# coverage is part of the concurrency contract (see DESIGN.md §"Concurrency
# model").

GO ?= go

.PHONY: build test race race-experiments race-sim bench bench-json bench-compare hist-json hist-compare arena-smoke blame-smoke profile trace vet fmt-check ci ci-full verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass on the experiments layer: the prefix checkpoint
# cache is shared mutable state handed between worker goroutines mid-run
# (capture once, fork concurrently, free after the last fork), so this
# package and the runner cache under it keep an explicit race gate of
# their own even if the full-module sweep is ever trimmed.
race-experiments:
	$(GO) test -race -count 1 ./internal/experiments/... ./internal/runner/...

# Focused race pass on the simulation core: each simulation runs on one
# goroutine, but the experiment engine runs many at once, so the
# packages whose state outlives a simulation (pooled cache storage, the
# system's staging buffer pools and shared populate pattern, the
# checkpoint templates concurrent forks copy from) and the layers under
# them stay under the race detector even if the full-module sweep is
# ever trimmed.
race-sim:
	$(GO) test -race -count 1 ./internal/sim/... ./internal/accel/... ./internal/cache/... ./internal/system/...

# Full benchmark sweep; BenchmarkAllExperiments is the top-level number
# to track (serial vs parallel over the shared result cache).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Benchmark trajectory: every figure/table benchmark, recorded as
# BENCH_suite.json (ns/op + B/op + allocs/op per benchmark). Commit the
# file so perf changes stay visible PR over PR. -benchtime 5x averages
# out GC ticks that dominate the sub-millisecond table benchmarks;
# -count 5 lets benchjson keep the fastest repetition (host load spikes
# only ever slow a deterministic benchmark, so min-of-means is the
# noise-robust estimator where the old single shot flapped ±20%).
bench-json:
	$(GO) test -run '^$$' -bench '^(BenchmarkAllExperiments|BenchmarkFig|BenchmarkTable|BenchmarkSec5)' \
		-benchmem -benchtime 5x -count 5 . | $(GO) run ./tools/benchjson -out BENCH_suite.json

# Perf regression gate: rerun the suite benchmarks (same min-of-means
# treatment as bench-json) and diff ns/op against the committed
# BENCH_suite.json; fails when any benchmark slowed down by more than
# 10%. Host timings are still noisy, so this is an optional CI target
# (ci-full), not part of the default `make ci` gate.
bench-compare:
	$(GO) test -run '^$$' -bench '^(BenchmarkAllExperiments|BenchmarkFig|BenchmarkTable|BenchmarkSec5)' \
		-benchmem -benchtime 5x -count 5 . | $(GO) run ./tools/benchjson -compare BENCH_suite.json

# Latency distribution baseline: the reference run's full histogram
# export (every instrument, sparse buckets). Commit the file so latency
# drift stays visible PR over PR; regenerate after intended model changes.
hist-json:
	$(GO) run ./cmd/dramless run -system DRAM-less -kernel gemver \
		-hist HIST_baseline.json > /dev/null

# Latency regression gate: rerun the reference configuration and diff
# per-instrument p99 against the committed baseline. The simulator is
# deterministic, so any drift is a real behavioral change; the 10%
# threshold only absorbs intended tuning.
hist-compare:
	@mkdir -p prof
	$(GO) run ./cmd/dramless run -system DRAM-less -kernel gemver \
		-hist prof/hist.current.json > /dev/null
	$(GO) run ./tools/benchjson -hist prof/hist.current.json -hist-base HIST_baseline.json

# Scheduler tournament smoke: every registered policy on one kernel.
# Exercises the policy registry, the per-cell private observers and the
# ranked-table assembly end to end; output is discarded (the arena tests
# pin the table's structure and determinism).
arena-smoke:
	$(GO) run ./cmd/dramless arena -kernels gemver > /dev/null

# Blame attribution smoke: run the paper's two headline organizations
# through `dramless blame` (tracing forced on, so the critical path is
# exercised too), export both accounts and render the diff that
# explains the DRAM-less vs Integrated-MLC gap — the diff step parses
# both exports back, so the JSON round-trip is asserted at the CLI
# surface. The focused test run then asserts the exactness invariant
# (phase blame sums == phase walls to the picosecond, every kind) and
# the export round-trip at the library surface.
blame-smoke:
	@mkdir -p prof
	$(GO) run ./cmd/dramless blame -system DRAM-less -kernel gemver \
		-o prof/blame.dramless.json > /dev/null
	$(GO) run ./cmd/dramless blame -system Integrated-MLC -kernel gemver \
		-o prof/blame.mlc.json > /dev/null
	$(GO) run ./cmd/dramless blame prof/blame.dramless.json prof/blame.mlc.json
	$(GO) test -count 1 -run 'TestBlameSumsEqualPhaseWalls' ./internal/system/
	$(GO) test -count 1 -run 'TestBlameJSONRoundTrip' ./internal/obs/

# CPU + heap profiles of the Figure 15 sweep (the allocation-heaviest
# experiment) into ./prof/, at the 128 KiB fast scale and at the 2 MiB
# -full scale, whose hot spots differ (L2 no longer holds the working
# set); inspect with `go tool pprof prof/fig15-full.cpu`. Profiles are
# scratch output (gitignored), regenerated on demand here.
profile:
	mkdir -p prof
	$(GO) run ./cmd/dramless experiments \
		-cpuprofile prof/fig15.cpu -memprofile prof/fig15.mem fig15 > /dev/null
	$(GO) run ./cmd/dramless experiments -full \
		-cpuprofile prof/fig15-full.cpu -memprofile prof/fig15-full.mem fig15 > /dev/null
	@echo "profiles: prof/fig15.cpu prof/fig15.mem prof/fig15-full.cpu prof/fig15-full.mem"

# Observability demo: one DRAM-less end-to-end run with hardware
# counters on stdout and a simulated-time timeline in trace.json -
# open it in chrome://tracing or https://ui.perfetto.dev (DESIGN.md §9).
trace:
	$(GO) run ./cmd/dramless run -system DRAM-less -kernel gemver \
		-trace trace.json -counters
	@echo "timeline written to trace.json"

vet:
	$(GO) vet ./...

fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# Pre-merge gate: everything a PR must pass before landing - build,
# tests, race detector, go vet and gofmt. `make verify` is its alias.
ci: test race race-experiments race-sim vet fmt-check

# ci plus the perf and latency regression gates against the committed
# baselines and the scheduler tournament smoke run.
ci-full: ci bench-compare hist-compare arena-smoke blame-smoke

verify: ci
