package export

import (
	"io"
	"sync"

	"slowcc/internal/obs"
)

// progressRing bounds the replay buffer: late subscribers see up to
// this many past events (a sweep emits ~3 per cell), older ones are
// dropped oldest-first and counted.
const progressRing = 8192

// subChanBuf is each subscriber's channel depth; a consumer that falls
// further behind loses events (counted per hub) rather than stalling
// the sweep workers.
const subChanBuf = 256

// maxSubscribers caps the live subscribers: each holds a channel and a
// copy of up to progressRing replayed events, so one more is refused
// (the server answers 503) until another cancels.
const maxSubscribers = 16

// Progress is the live sweep hub: it implements obs.SweepSink, so it
// can be an exp.Sweep's Progress (slowccsim -serve), fans the
// per-cell events out to SSE subscribers with bounded buffering, keeps
// its own sweep-level counters for /metrics and /healthz, and forwards
// cell telemetry snapshots to an optional Collector.
type Progress struct {
	col *Collector // may be nil: events only, no metric merging

	mu       sync.Mutex
	events   []obs.SweepEvent // replay ring, oldest first
	dropped  int64            // ring evictions
	lost     int64            // events dropped on slow subscriber channels
	subs     map[int]chan obs.SweepEvent
	nextSub  int
	run      string // run-manifest digest this sweep serves
	runDone  bool
	queued   int64
	running  int64 // cells currently executing
	done     int64
	cached   int64 // cells served from the result store, never run
	degraded int64
	durMS    obs.Histogram
}

// NewProgress returns a hub forwarding cell stats into col (nil: no
// forwarding).
func NewProgress(col *Collector) *Progress {
	return &Progress{col: col, subs: map[int]chan obs.SweepEvent{}}
}

// SetRun records the digest of the run manifest this sweep serves; it
// appears in /healthz and as a run_info label.
func (p *Progress) SetRun(digest string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.run = digest
}

// RunDone marks the sweep finished (flips /healthz readiness detail).
func (p *Progress) RunDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runDone = true
}

// SweepEvent implements obs.SweepSink: update counters, append to the
// replay ring, fan out to subscribers. Never blocks on a slow
// subscriber.
func (p *Progress) SweepEvent(ev obs.SweepEvent) {
	p.mu.Lock()
	switch ev.Kind {
	case obs.SweepQueued:
		p.queued++
	case obs.SweepRunning:
		p.running++
	case obs.SweepDone:
		p.running--
		p.done++
		p.durMS.Record(ev.DurMS)
	case obs.SweepDegraded:
		p.running--
		p.degraded++
	case obs.SweepCached:
		// Cached cells go queued -> cached without ever running, so
		// there is no running gauge to decrement.
		p.cached++
	}
	if len(p.events) >= progressRing {
		// Shed the older half in one copy-down, amortizing eviction to
		// O(1) per event instead of shifting on every append.
		drop := len(p.events) - progressRing/2
		p.dropped += int64(drop)
		p.events = append(p.events[:0], p.events[drop:]...)
	}
	p.events = append(p.events, ev)
	for _, ch := range p.subs {
		select {
		case ch <- ev:
		default:
			p.lost++
		}
	}
	p.mu.Unlock()
}

// CellStats implements obs.SweepSink by forwarding to the collector.
func (p *Progress) CellStats(st obs.CellStats) {
	if p.col != nil {
		p.col.AddCellStats(st)
	}
}

// Subscribe registers a live listener: it returns the events so far (a
// copy, oldest first), a channel that receives subsequent events, and a
// cancel function. The replay slice and the channel do not overlap or
// reorder: both are cut under the same lock. With maxSubscribers already
// live it registers nothing and returns ok false.
func (p *Progress) Subscribe() (replay []obs.SweepEvent, ch <-chan obs.SweepEvent, cancel func(), ok bool) {
	p.mu.Lock()
	if len(p.subs) >= maxSubscribers {
		p.mu.Unlock()
		return nil, nil, nil, false
	}
	c := make(chan obs.SweepEvent, subChanBuf)
	replay = append([]obs.SweepEvent(nil), p.events...)
	id := p.nextSub
	p.nextSub++
	p.subs[id] = c
	p.mu.Unlock()
	return replay, c, func() {
		p.mu.Lock()
		delete(p.subs, id)
		p.mu.Unlock()
	}, true
}

// ProgressCounts is the sweep-level state /healthz reports.
type ProgressCounts struct {
	Run      string `json:"run,omitempty"`
	RunDone  bool   `json:"run_done"`
	Queued   int64  `json:"cells_queued"`
	Running  int64  `json:"cells_running"`
	Done     int64  `json:"cells_done"`
	Cached   int64  `json:"cells_cached"`
	Degraded int64  `json:"cells_degraded"`
}

// Counts snapshots the sweep-level counters.
func (p *Progress) Counts() ProgressCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts()
}

// counts is Counts with p.mu held.
func (p *Progress) counts() ProgressCounts {
	return ProgressCounts{
		Run: p.run, RunDone: p.runDone,
		Queued: p.queued, Running: p.running, Done: p.done, Cached: p.cached,
		Degraded: p.degraded,
	}
}

// WriteMetrics renders the hub's sweep-level state as exposition
// families, distinct by name from anything the collector emits so both
// can share one /metrics document.
func (p *Progress) WriteMetrics(w io.Writer) error {
	p.mu.Lock()
	counts := p.counts()
	dropped, lost := p.dropped, p.lost
	dur := p.durMS
	p.mu.Unlock()

	e := newExpoWriter(w)
	if counts.Run != "" {
		e.info(PromName("run_info"), [][2]string{{"digest", counts.Run}})
	}
	e.counter(PromName("sweep_cells_queued_total"), counts.Queued)
	e.counter(PromName("sweep_cells_done_total"), counts.Done)
	e.counter(PromName("sweep_cells_cached_total"), counts.Cached)
	e.counter(PromName("sweep_cells_degraded_total"), counts.Degraded)
	e.counter(PromName("sweep_events_dropped_total"), dropped+lost)
	e.gauge(PromName("sweep_cells_running"), float64(counts.Running))
	runDone := 0.0
	if counts.RunDone {
		runDone = 1
	}
	e.gauge(PromName("sweep_run_done"), runDone)
	e.histogram(PromName("sweep_cell_duration_ms"), &dur)
	return e.flush()
}
