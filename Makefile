GO ?= go

.PHONY: ci fmt vet build test race bench fuzz-smoke export-smoke resume-smoke

# ci is the gate future PRs run: formatting and static checks, a full
# build, the complete test suite under the race detector, the two shell
# smokes that need signals, and a few seconds of fuzzing per on-disk or
# command-line reader. `race` is where most of it happens: the exp
# package's TestMain enables the invariant auditing layer for the whole
# scaled-down figure suite, so packet-accounting regressions fail here
# even when no figure-level assertion notices them; -race additionally
# exercises parallelMapIndexed's worker pool; ./bench's smoke test runs
# every workload of the benchmark at -quick size against its oracle;
# the calendar-vs-heap differentials and ring-sizing tests live in
# ./internal/sim and the pinned-stream table; and the run-and-check
# smokes over the three binaries (report, matrix, warm resume, timeline,
# exit codes, profiles) are cmd/smoke_test.go.
ci: fmt vet build race export-smoke resume-smoke fuzz-smoke

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

# export-smoke drives the live-telemetry stack end to end through the
# real binary: slowccsim -serve runs fig3 with the export server bound
# to an ephemeral port, and the smoke scrapes /healthz, waits for the
# run to finish, scrapes the final /metrics and the full SSE event
# replay, checks a sweep event arrived, shuts the server down with
# SIGTERM (which must exit cleanly), and strict-validates the scraped
# exposition with slowccreport -prom-verify — so a /metrics stream any
# Prometheus scraper would reject fails ci here. The run carries a
# result store so the slowcc_store_{hits,misses,corrupt} counters are
# exercised and validated on the same scrape.
export-smoke:
	rm -rf .export-smoke && mkdir -p .export-smoke
	$(GO) build -o .export-smoke/slowccsim ./cmd/slowccsim
	set -e; \
	.export-smoke/slowccsim -exp fig3 -serve 127.0.0.1:0 -slog warn \
		-store .export-smoke/store \
		> .export-smoke/out.txt 2> .export-smoke/err.txt & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's|^serving telemetry on http://\([^/]*\)/.*|\1|p' .export-smoke/err.txt); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "export-smoke: server never announced an address" >&2; cat .export-smoke/err.txt >&2; exit 1; }; \
	curl -sSf "http://$$addr/healthz" > .export-smoke/health.json; \
	for i in $$(seq 1 200); do \
		curl -sSf "http://$$addr/healthz" | grep -q '"run_done": true' && break; sleep 0.1; \
	done; \
	sleep 0.5; \
	curl -sSf "http://$$addr/metrics" > .export-smoke/metrics.prom; \
	curl -sSf "http://$$addr/progress?replay=close" > .export-smoke/progress.sse; \
	grep -q '^event: sweep' .export-smoke/progress.sse; \
	grep -q '^slowcc_sweep_cells_done_total' .export-smoke/metrics.prom; \
	grep -q '^slowcc_stream_digest_info' .export-smoke/metrics.prom; \
	grep -q '^slowcc_store_hits' .export-smoke/metrics.prom; \
	grep -q '^slowcc_store_misses' .export-smoke/metrics.prom; \
	grep -q '^slowcc_store_corrupt' .export-smoke/metrics.prom; \
	trap - EXIT; \
	kill -TERM $$pid; \
	wait $$pid
	$(GO) run ./cmd/slowccreport -prom-verify .export-smoke/metrics.prom
	rm -rf .export-smoke

# resume-smoke is the crash-safety gate: a real matrix sweep is
# SIGKILLed mid-flight (no graceful handler, no checkpoint — the
# per-entry fsync'd journal is all that survives), then resumed with
# -store -resume, which must serve the already-committed cells from the
# store (hits >= 1 asserted from the summary line) and recompute only
# the rest. The resumed TSV artifact must be byte-identical to an
# uninterrupted same-seed run's — the end-to-end proof that replayed
# cells are indistinguishable from computed ones.
resume-smoke:
	rm -rf .resume-smoke && mkdir -p .resume-smoke
	$(GO) build -o .resume-smoke/slowccsim ./cmd/slowccsim
	.resume-smoke/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8,cbr:3e6' \
		-tsv .resume-smoke/full.tsv > /dev/null
	set -e; \
	.resume-smoke/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8,cbr:3e6' \
		-store .resume-smoke/store -tsv .resume-smoke/killed.tsv \
		> /dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .resume-smoke/store/journal.bin ] && break; sleep 0.1; \
	done; \
	[ -s .resume-smoke/store/journal.bin ] || { echo "resume-smoke: no cell committed before the kill" >&2; exit 1; }; \
	kill -9 $$pid; \
	wait $$pid 2>/dev/null || true; \
	.resume-smoke/slowccsim -exp matrix -matrix 'tcp:0.5,tfrc:8,cbr:3e6' \
		-store .resume-smoke/store -resume -tsv .resume-smoke/resumed.tsv \
		> /dev/null 2> .resume-smoke/resume-err.txt; \
	grep -E '^store .*: [0-9]+ entries, [1-9][0-9]* hits' .resume-smoke/resume-err.txt || \
		{ echo "resume-smoke: resume served no cells from the store" >&2; cat .resume-smoke/resume-err.txt >&2; exit 1; }
	cmp .resume-smoke/full.tsv .resume-smoke/resumed.tsv
	rm -rf .resume-smoke

# fuzz-smoke gives each parser fuzz target, and the result store's two
# on-disk readers, a few seconds of coverage-guided input on every ci
# run — long enough to re-find shallow regressions (the TimedPattern
# fast-forward hang was one), short enough not to dominate the gate.
# Longer campaigns: raise -fuzztime by hand.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParsePattern -fuzztime=3s ./internal/netem
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=3s ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzParseAlgoSpec -fuzztime=3s ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzOpen -fuzztime=3s ./internal/store
