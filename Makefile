GO ?= go

.PHONY: ci fmt vet build test race bench fuzz-smoke

# ci is the gate future PRs run: formatting and static checks, a full
# build, the complete test suite under the race detector, and a few
# seconds of fuzzing per on-disk or command-line reader. `race` is
# where most of it happens: the exp package's TestMain enables the
# invariant auditing layer for the whole scaled-down figure suite, so
# packet-accounting regressions fail here even when no figure-level
# assertion notices them; -race additionally exercises
# parallelMapIndexed's worker pool; ./bench's smoke test runs every
# workload of the benchmark at -quick size against its oracle; the
# calendar-vs-heap differentials and ring-sizing tests live in
# ./internal/sim and the pinned-stream table; and cmd/smoke_test.go
# drives the three binaries and the five examples (report, matrix, warm
# resume, halted-then-resumed, kill-and-resume, live export scrape, timeline, exit codes,
# profiles).
ci: fmt vet build race fuzz-smoke

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

# bench smoke-runs every benchmark once; invariants stay disabled so the
# numbers reflect the production configuration.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke gives each parser fuzz target (fault specs, algorithm
# specs and lists), the result store's frame reader (both files, and
# its refusal of a v1 store), the trace and matrix TSV readers, the strict
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
	$(GO) test -run='^$$' -fuzz=FuzzReadTSV -fuzztime=2s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseText -fuzztime=2s ./internal/obs/export
	$(GO) test -run='^$$' -fuzz=FuzzReadManifest -fuzztime=2s ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzValidateTimeline -fuzztime=2s ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzReadSamplesTSV -fuzztime=2s ./internal/obs
