GO ?= go

.PHONY: ci fmt vet build test race fma nofma oracle bench fuzz-smoke

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
# package-default Sweep (only the bench-surface test touches it) and the
# audit switch and violation counters, and the tests that write those
# run serially. ./bench's smoke test runs every
# workload of the benchmark at -quick size against its oracle; the
# calendar-vs-heap differentials and ring-sizing tests live in
# ./internal/sim and the pinned-stream table; and cmd/smoke_test.go
# drives the three binaries and the five examples (report, matrix, warm
# resume, halted-then-resumed, kill-and-resume, live export scrape, timeline, exit codes,
# profiles). fma cross-compiles the digested path for the four
# architectures that fuse multiply-adds and fails on any fused
# instruction: the simulation's answer must not depend on the CPU.
# nofma checks the same from the other side, on this CPU: the pinned
# stream, RED's idle-decay pins and the flap schedule pin hold with the
# runtime's FMA paths off. oracle holds every roster row to its line of
# internal/exp/testdata/oracle.tsv.
ci: fmt vet build race fma nofma oracle fuzz-smoke

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

# nofma reruns the root package's pinned-stream tests, ./internal/netem's
# RED idle-decay pins and ./internal/faults' flap schedule pin with
# GODEBUG=cpu.fma=off, which sends math.Exp and the other library
# routines that test for fused multiply-add down their portable branch.
# A difference there is one the answer would have on a CPU without FMA.
nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'PinnedStream' .
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'REDIdleDecay' ./internal/netem
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'FlapHoldingTimes' ./internal/faults

# oracle runs every roster row at reduced scale and seed 1, as
# `slowccsim -exp all -seed 1` does, under the invariant auditor, and
# compares each row's cells, events, stream digest, counters, text and
# result hashes with internal/exp/testdata/oracle.tsv (DESIGN §8.4). It
# is a test flag, off in `go test ./...`: 460 cells, 388 M events, about
# 35 s wall and 66 s CPU on 2 vCPU (62 s at GOMAXPROCS=1). A change that
# moves a row re-records it with -oracle -update-oracle and says why.
oracle:
	$(GO) test -count=1 -run '^TestRosterOracle$$' ./internal/exp -oracle

# bench smoke-runs every benchmark once; invariants stay disabled so the
# numbers reflect the production configuration.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke gives each parser fuzz target (fault specs, algorithm
# specs and lists), the result store's frame reader (both files, and
# its refusal of v1 and v2 stores), the store's value decoder (a matrix
# cell, a Figure 13 point, a cell's telemetry), the matrix TSV reader,
# the trace TSV reader the tests hold WriteTSV to, the strict exposition
# parser the tests and the benchmark hold /metrics to, the manifest and
# probe-TSV readers behind slowccreport, and the timeline validator the
# smoke tests hold each written timeline to a few seconds of
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
