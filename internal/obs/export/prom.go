// Package export is the live telemetry backbone: Prometheus
// text-exposition (v0.0.4) rendering of the obs layer (the simulator
// core's counters, HDR histograms with their cumulative buckets), a merge
// collector and SSE progress hub for supervised sweeps, and an
// embeddable HTTP server mounting /metrics, /healthz, /progress, and
// /debug/pprof. See DESIGN.md §14.
//
// Everything here runs beside the simulator, never inside it: cells
// snapshot their telemetry after their engines finish, scrapes read
// merged copies under the collector's lock, and the wired-but-off cost
// on the event hot path stays the usual one nil check (the stream
// digest; see sim.StreamDigest).
package export

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"slowcc/internal/obs"
)

// Namespace prefixes every exposed metric name.
const Namespace = "slowcc"

// PromName projects a counter name onto its Prometheus-legal form: the
// name is canonicalized (obs.CanonicalMetricName), the counter names'
// component separators '.' and '-' become '_', anything else outside
// [a-zA-Z0-9_:] becomes '_' too, and the slowcc namespace is prepended
// unless already present. The projection is total and deterministic, so
// a counter name always scrapes under the same exposed name:
//
//	engine.scheduled                  -> slowcc_engine_scheduled
//	journey.access-1-lr-in.drop_burst -> slowcc_journey_access_1_lr_in_drop_burst
func PromName(name string) string {
	name = obs.CanonicalMetricName(name)
	name = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
	if name == Namespace || strings.HasPrefix(name, Namespace+"_") {
		return name
	}
	return Namespace + "_" + name
}

// promFloat renders a float64 sample value the way Prometheus parses
// it back (shortest round-trip form; infinities as +Inf/-Inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// expoWriter accumulates one exposition document, keeping family names
// unique (first writer wins — callers emit in a fixed family order, so
// the output is deterministic) and remembering the first error.
type expoWriter struct {
	bw   *bufio.Writer
	seen map[string]bool
	err  error
}

func newExpoWriter(w io.Writer) *expoWriter {
	return &expoWriter{bw: bufio.NewWriter(w), seen: map[string]bool{}}
}

// claim reserves a family name, reporting whether this caller owns it.
func (e *expoWriter) claim(name string) bool {
	if e.seen[name] {
		return false
	}
	e.seen[name] = true
	return true
}

func (e *expoWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.bw, format, args...)
}

func (e *expoWriter) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.bw.Flush()
}

// counter emits one counter family with a single unlabeled sample.
func (e *expoWriter) counter(name string, v int64) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s counter\n%s %d\n", name, name, v)
}

// gauge emits one gauge family with a single unlabeled sample.
func (e *expoWriter) gauge(name string, v float64) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s gauge\n%s %s\n", name, name, promFloat(v))
}

// info emits the info-metric idiom: a gauge that is always 1 whose
// labels carry values a float64 sample can't (a 64-bit digest exceeds
// float64's 2^53 integer range, so it travels as a hex label).
func (e *expoWriter) info(name string, labels [][2]string) {
	if !e.claim(name) {
		return
	}
	parts := make([]string, 0, len(labels))
	for _, kv := range labels {
		parts = append(parts, kv[0]+`="`+escapeLabel(kv[1])+`"`)
	}
	e.printf("# TYPE %s gauge\n%s{%s} 1\n", name, name, strings.Join(parts, ","))
}

// histogram emits one cumulative histogram family from an obs.Histogram
// snapshot: one _bucket line per occupied HDR bucket, the +Inf bucket
// from the exact count (top-clamped values land beyond the last finite
// edge), then _sum and _count from the histogram's exact accumulators.
func (e *expoWriter) histogram(name string, h *obs.Histogram) {
	if !e.claim(name) {
		return
	}
	e.printf("# TYPE %s histogram\n", name)
	for _, b := range h.CumBuckets() {
		e.printf("%s_bucket{le=%q} %d\n", name, promFloat(b.Le), b.Count)
	}
	e.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	e.printf("%s_sum %s\n", name, promFloat(h.Sum()))
	e.printf("%s_count %d\n", name, h.Count())
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// counterFamilies emits a counter map in sorted name order.
func (e *expoWriter) counterFamilies(counters map[string]int64) {
	for _, name := range sortedKeys(counters) {
		e.counter(PromName(name), counters[name])
	}
}
