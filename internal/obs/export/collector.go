package export

import (
	"fmt"
	"io"
	"sync"

	"slowcc/internal/obs"
)

// Collector merges per-cell telemetry snapshots (obs.CellStats) from a
// supervised sweep into one scrapeable state: counters sum, stream
// digests combine by XOR (order-independent, so the merged value is
// deterministic however the worker pool interleaves cells). All methods are safe for concurrent use; a scrape
// never touches a live engine because cells snapshot on their worker
// goroutine after their engines finish.
type Collector struct {
	mu           sync.Mutex
	counters     map[string]int64
	funcs        map[string]func() int64
	digest       uint64
	digestEvents uint64
	events       uint64
	cells        int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		counters: map[string]int64{},
		funcs:    map[string]func() int64{},
	}
}

// SetCounterFunc registers a counter sampled at scrape time: each
// WriteMetrics call evaluates fn and renders its value under the
// canonical metric name. This is how externally-owned monotone state —
// the result store's hit/miss/corrupt counts — appears on /metrics
// without the owner pushing on every change. A nil fn unregisters.
func (c *Collector) SetCounterFunc(name string, fn func() int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name = obs.CanonicalMetricName(name)
	if fn == nil {
		delete(c.funcs, name)
		return
	}
	c.funcs[name] = fn
}

// AddCellStats merges one finished cell's snapshots.
func (c *Collector) AddCellStats(st obs.CellStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells++
	c.digest ^= st.Digest
	c.digestEvents += st.DigestEvents
	c.events += st.Events
	for name, v := range st.Counters {
		c.counters[name] += v
	}
}

// WriteMetrics renders the merged state as one exposition document:
// summed counters plus the collector's own
// meta-metrics — cells observed, engine events, digested events, and
// the combined stream digest as an info metric (a 64-bit digest does
// not fit a float64 sample, so it travels as a hex label).
func (c *Collector) WriteMetrics(w io.Writer) error {
	c.mu.Lock()
	counters := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		counters[k] = v
	}
	funcs := make(map[string]func() int64, len(c.funcs))
	for k, fn := range c.funcs {
		funcs[k] = fn
	}
	cells, events := c.cells, c.events
	digest, digestEvents := c.digest, c.digestEvents
	c.mu.Unlock()

	// Sample registered counter funcs outside the lock (a fn may take
	// its own locks) and fold them into the counter families.
	for name, fn := range funcs {
		counters[name] = fn()
	}

	e := newExpoWriter(w)
	e.counter(PromName("cells_observed_total"), cells)
	e.counter(PromName("engine_events_total"), int64(events))
	e.counter(PromName("stream_digest_events_total"), int64(digestEvents))
	e.info(PromName("stream_digest_info"), [][2]string{
		{"digest", fmt.Sprintf("%016x", digest)},
	})
	e.counterFamilies(counters)
	return e.flush()
}
