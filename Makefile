GO ?= go
# Benchmark repetitions (benchstat wants >= 5 for significance; CI uses 1
# to keep the trajectory recording cheap).
BENCH_COUNT ?= 5
BENCH_TIME ?= 1s
# Explicit GOMAXPROCS for benchmarks: throughput numbers from boxes with
# different core counts are not comparable, so the recording pins the
# cpu count and stamps it into the artifact as a benchfmt config line
# (bench-trend in CI refuses to benchstat across differing counts).
BENCH_CPU ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: build test race bench benchall profile fuzz-smoke soak vet fmt docscheck ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench records the streaming perf trajectory: the replay throughput
# (with allocs/update and distinct-attrs, and the episode-log-enabled
# variant), the update-decode old-vs-Into comparison, the shard-reassess
# hot path and the checkpoint encodings (the JSON render vs the binary
# v2 writer — ns/op plus encoded size via the bytes metric), in the
# standard Go benchmark text format benchstat consumes, written to
# BENCH_stream.json.
# Compare two recordings with: benchstat old.json BENCH_stream.json
# (CI's bench-trend job does this against the previous run
# automatically). benchsummary then distills the recording into
# BENCH_summary.json — a schema'd JSON sidecar (updates/s,
# allocs/update, nproc, shards, workers) trend tooling parses directly.
# (Redirect-then-cat, not tee: a pipe would let a failing benchmark run
# exit 0 through tee and upload a garbage artifact.)
bench:
	@echo "nproc: $(BENCH_CPU)" > BENCH_stream.json
	$(GO) test -run XXX -bench 'BenchmarkStreamReplay|BenchmarkSynthReplay|BenchmarkDecodeUpdate|BenchmarkShardReassess|BenchmarkCheckpointEncode' \
		-benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -cpu $(BENCH_CPU) ./internal/stream \
		>> BENCH_stream.json || { cat BENCH_stream.json; exit 1; }
	@cat BENCH_stream.json
	$(GO) run ./cmd/benchsummary -in BENCH_stream.json -out BENCH_summary.json
	@cat BENCH_summary.json

benchall:
	$(GO) test -bench . -run XXX -benchmem ./...

# profile replays the internet-scale synth corpus (BenchmarkSynthReplay,
# the PR 7 differential-oracle generator at 1M prefixes) under the CPU
# profiler and prints the top-10 functions twice: cumulative, the
# quickest answer to "where does replay time actually go", and flat, which
# names the leaf costs (map probes such as matchH2, memclr, cache-missing
# loads) the cumulative view buries under their callers. The generator
# runs before the benchmark timers but inside the profile. cpu.pprof and
# the test binary stay on disk for interactive `go tool pprof stream.test
# cpu.pprof`; PROFILE.txt is the text summary CI appends to the job
# summary. (Redirect-then-cat, as in bench: a pipe would hide a failing
# pprof run.)
PROFILE_TIME ?= 1x
profile:
	$(GO) test -run XXX -bench 'BenchmarkSynthReplay' -benchtime $(PROFILE_TIME) \
		-cpu $(BENCH_CPU) -cpuprofile cpu.pprof -o stream.test ./internal/stream
	$(GO) tool pprof -top -nodecount=10 -cum stream.test cpu.pprof > PROFILE.txt
	$(GO) tool pprof -top -nodecount=10 stream.test cpu.pprof >> PROFILE.txt
	@cat PROFILE.txt

# fuzz-smoke briefly live-fuzzes the snapshot/checkpoint restore surface
# on top of the committed seed corpus (testdata/fuzz). go test -fuzz
# takes exactly one target per invocation, hence one line per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME) ./internal/kernel
	$(GO) test -run XXX -fuzz FuzzCheckpointRestore -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run XXX -fuzz FuzzBGPSessionMessages -fuzztime $(FUZZTIME) ./internal/source/bgpd
	$(GO) test -run XXX -fuzz FuzzTruthLogDecode -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run XXX -fuzz FuzzEpisodeLogDecode -fuzztime $(FUZZTIME) ./internal/epilog
	$(GO) test -run XXX -fuzz FuzzInternConcurrent -fuzztime $(FUZZTIME) ./internal/bgp

# soak runs the months-of-days synth flap-storm leak check under the race
# detector (the short version runs in every `go test ./...`).
soak:
	MOAS_SOAK=1 $(GO) test -race -run TestSynthFlapStormSoak -v ./internal/stream

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Every internal package must carry a package comment ("// Package xyz ...")
# so the docs never lag the code silently.
docscheck:
	@missing=0; \
	for d in internal/*/; do \
		pkg=$$(basename $$d); \
		if ! grep -qs "^// Package $$pkg " $$d*.go; then \
			echo "missing package comment: internal/$$pkg"; missing=1; \
		fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi

ci: fmt vet docscheck build race
