GO ?= go

.PHONY: ci fmt vet build test race fma bench fuzz-smoke

# ci is the gate future PRs run: formatting and static checks, a full
# build, the complete test suite under the race detector, and a few
# seconds of fuzzing per on-disk or command-line reader. `race` is
# where most of it happens: the exp package's TestMain enables the
# invariant auditing layer for the whole scaled-down figure suite, so
# packet-accounting regressions fail here even when no figure-level
# assertion notices them; -race additionally exercises the sweep
# workers' shared state — parallelMapIndexed's claim counter, the matrix
# keyer every worker calls, the store's interned counter names — and
# export.Server shut down under live scrapes. The exp tests run in
# parallel, each on its own exp.Sweep; what they still share is the
# package-default Sweep (only the bench-surface test touches it), the
# audit switch and violation counters, and the graceful-stop flag, and
# the tests that write those run serially. ./bench's smoke test runs every
# workload of the benchmark at -quick size against its oracle; the
# calendar-vs-heap differentials and ring-sizing tests live in
# ./internal/sim and the pinned-stream table; and cmd/smoke_test.go
# drives the three binaries and the five examples (report, matrix, warm
# resume, halted-then-resumed, kill-and-resume, live export scrape, timeline, exit codes,
# profiles). fma cross-compiles the digested path for the four
# architectures that fuse multiply-adds and fails on any fused
# instruction: the simulation's answer must not depend on the CPU.
ci: fmt vet build race fma fuzz-smoke

# fmt fails when any file is not gofmt-clean (`gofmt -l .` names them).
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fma is tagged out of `go test ./...`: on a cold build cache it compiles
# the standard library four times over.
fma:
	$(GO) test -tags fmacheck -run TestNoFusedMultiplyAdd .

# bench smoke-runs every benchmark once; invariants stay disabled so the
# numbers reflect the production configuration.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke gives each parser fuzz target (fault specs, algorithm
# specs and lists), the result store's frame reader (both files, and
# its refusal of v1 and v2 stores), the store's value decoder (a matrix
# cell, a Figure 13 point, a cell's telemetry), the trace and matrix TSV readers, the strict
# exposition parser behind slowccreport -prom-verify, and the manifest,
# timeline and probe-TSV readers behind slowccreport a few seconds of
# coverage-guided input on every ci run — long enough to re-find
# shallow regressions (the
# heatmap's index-by-NaN panic was one), short enough not to dominate
# the gate.
# Longer campaigns: raise -fuzztime by hand.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=2s ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzParseAlgoSpec -fuzztime=2s ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzParseAlgoList -fuzztime=2s ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzParseMatrixTSV -fuzztime=2s ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzOpen -fuzztime=2s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodeValue -fuzztime=2s ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzReadTSV -fuzztime=2s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseText -fuzztime=2s ./internal/obs/export
	$(GO) test -run='^$$' -fuzz=FuzzReadManifest -fuzztime=2s ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzValidateTimeline -fuzztime=2s ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzReadSamplesTSV -fuzztime=2s ./internal/obs
