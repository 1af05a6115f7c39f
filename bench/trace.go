package main

import (
	"fmt"
	"sync"
	"time"

	"slowcc/internal/obs"
)

// layers are the lanes of the trace, one per module the benchmark calls
// into; the index is the trace-event pid.
var layers = []string{"bench", "sim", "netem", "cc", "topology", "workload", "exp", "store", "obs"}

// workerPid is the lane group for sweep cells, one thread per exp worker.
const workerPid = 100

// tracer records a span around each call the benchmark makes into a
// layer's public functions. Spans stay in memory and are written once,
// at exit, as trace-event JSON. Spans are recorded only from the
// benchmark's goroutine, so the open-span stack needs no lock; sweep
// cells arrive from worker goroutines through cellSink, and obs.Timeline
// locks for them.
//
// A nil *tracer is the untraced form: span just runs the function.
type tracer struct {
	tl       *obs.Timeline
	t0       time.Time
	workload string   // identifier shared by every span of one pass
	open     []string // names of the spans currently open, outermost first
}

func newTracer() *tracer {
	t := &tracer{tl: obs.NewTimeline(), t0: time.Now()}
	for pid, l := range layers {
		t.tl.ProcessName(pid, l)
		t.tl.ThreadName(pid, 0, "calls from bench")
	}
	t.tl.ProcessName(workerPid, "exp sweep workers")
	return t
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// span runs fn as a call into layer and returns how long it took. The
// span's args carry the workload it belongs to and the span that caused
// it, so self time (a span minus the children that name it as parent)
// can be read off the trace.
func (t *tracer) span(layer, name string, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	parent := ""
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, name)
	fn()
	t.open = t.open[:len(t.open)-1]
	d := time.Since(start)
	pid := 0
	for i, l := range layers {
		if l == layer {
			pid = i
		}
	}
	t.tl.Span(layer, name, pid, 0, t.us(start), float64(d)/float64(time.Microsecond),
		map[string]any{"workload": t.workload, "parent": parent})
	return d
}

// cellSink is the obs.SweepSink of a traced sweep: it counts cells by
// outcome, keeps each finished cell's wall time, sums the simulated
// events the cells report, and puts one span per cell on its worker's
// lane. forward, when set, also receives every CellStats (the export
// collector, to fill a registry the way a served sweep does).
type cellSink struct {
	tr      *tracer
	forward func(obs.CellStats)

	mu       sync.Mutex
	cellMS   []float64
	events   uint64
	done     int
	cached   int
	retries  int
	degraded int
}

func (s *cellSink) SweepEvent(ev obs.SweepEvent) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case obs.SweepRetry:
		s.retries++
	case obs.SweepDegraded:
		s.degraded++
	case obs.SweepCached:
		s.cached++
	case obs.SweepDone:
		s.done++
		s.cellMS = append(s.cellMS, ev.DurMS)
		if s.tr != nil {
			s.tr.tl.ThreadName(workerPid, ev.Worker, fmt.Sprintf("worker %d", ev.Worker))
			s.tr.tl.Span("exp", fmt.Sprintf("cell %d", ev.Cell), workerPid, ev.Worker,
				s.tr.us(now)-ev.DurMS*1000, ev.DurMS*1000,
				map[string]any{"workload": s.tr.workload, "attempt": ev.Attempt})
		}
	}
}

func (s *cellSink) CellStats(st obs.CellStats) {
	s.mu.Lock()
	s.events += st.Events
	s.mu.Unlock()
	if s.forward != nil {
		s.forward(st)
	}
}

// cells is how many sweep cells ended, whichever way.
func (s *cellSink) cells() int { return s.done + s.cached + s.degraded }

// busyS is the wall time workers spent inside cells.
func (s *cellSink) busyS() float64 {
	var ms float64
	for _, d := range s.cellMS {
		ms += d
	}
	return ms / 1000
}
