package obs

import "fmt"

// SweepEventKind labels one per-cell supervision transition. The
// supervisor publishes each transition once; the progress sink, the
// timeline (Timeline.SweepEvent) and the structured log all render the
// same event, so an SSE consumer, a Perfetto trace and a log of the same
// sweep tell the same story.
type SweepEventKind string

const (
	// SweepQueued: a worker claimed the cell from the sweep.
	SweepQueued SweepEventKind = "queued"
	// SweepRunning: the cell started.
	SweepRunning SweepEventKind = "running"
	// SweepRetry is no longer emitted: a cell runs once.
	SweepRetry SweepEventKind = "retry"
	// SweepDone: the cell succeeded.
	SweepDone SweepEventKind = "done"
	// SweepDegraded: the cell panicked or was halted by its run budget
	// (its event count or its wall-clock deadline); the sweep carries on
	// without it.
	SweepDegraded SweepEventKind = "degraded"
	// SweepCached: the cell was served from the durable result store
	// without running — its recorded CellStats were replayed into the
	// sink instead (resume runs emit queued then cached, nothing else).
	SweepCached SweepEventKind = "cached"
)

// SweepEvent is one progress event from a supervised sweep cell.
type SweepEvent struct {
	Kind SweepEventKind `json:"kind"`
	Cell int            `json:"cell"`
	// Attempt is always 0: a cell runs once.
	Attempt int `json:"attempt"`
	Worker  int `json:"worker"`
	// Outcome is "ok" (done), "panic" or "halt" (degraded), or "cached".
	Outcome string `json:"outcome,omitempty"`
	// Halt names the engines' budget halts on a degraded event
	// (exp.RunError.Halt); a done event never carries one.
	Halt string `json:"halt,omitempty"`
	// AtMS is wall-clock milliseconds since the exp package loaded, the
	// clock every exp.Sweep's events share. DurMS, on done and degraded, is
	// the cell's wall time. WaitMS, on queued, is how long the cell
	// waited since its own sweep started.
	AtMS   float64 `json:"at_ms"`
	DurMS  float64 `json:"dur_ms,omitempty"`
	WaitMS float64 `json:"wait_ms,omitempty"`
	// Key is a cached cell's store key.
	Key string `json:"key,omitempty"`
}

// CellStats is the telemetry harvest of one finished sweep cell: the
// summed counters of every engine the cell constructed, their combined
// event-stream digest and their event count. It is taken by the worker
// goroutine after the cell's job returns, so it never races with a live
// engine.
type CellStats struct {
	Counters     map[string]int64
	Digest       uint64 // XOR of the cell's per-engine StreamDigest sums
	DigestEvents uint64 // total events folded across the cell's engines
	Events       uint64 // total events executed across the cell's engines
}

// SweepSink receives live sweep telemetry as an exp.Sweep's Progress.
// Methods are called concurrently from worker goroutines; the sink
// synchronizes internally (export.Progress does).
type SweepSink interface {
	SweepEvent(SweepEvent)
	CellStats(CellStats)
}

// Sweep-timeline lane layout. Workers share one process (pid
// sweepWorkersPid, one thread per worker goroutine); queued spans get
// one row per cell index in their own process so overlapping waits stay
// readable. Journey exports start at pid 1 and count up by hop, so the
// queue lane sits far above any plausible hop count.
const (
	sweepWorkersPid = 0
	sweepQueuePid   = 1000
)

// SweepEvent draws one sweep-cell transition, from the event alone:
//   - queued: the cell's wait, from its own sweep's start to the pickup,
//     on the cell's row of the queue lane;
//   - done, degraded: the cell's run, as a span on its worker's row;
//   - degraded also adds an instant, and cached is one.
//
// Running draws nothing: its span is drawn when the cell ends.
func (t *Timeline) SweepEvent(ev SweepEvent) {
	at := ev.AtMS * 1000 // trace timestamps are µs
	if ev.Kind == SweepQueued {
		wait := ev.WaitMS * 1000
		t.ProcessName(sweepQueuePid, "sweep queue")
		t.ThreadName(sweepQueuePid, ev.Cell, fmt.Sprintf("cell %d", ev.Cell))
		t.Span("queued", fmt.Sprintf("cell %d queued", ev.Cell), sweepQueuePid, ev.Cell, at-wait, wait, nil)
		return
	}
	if ev.Kind == SweepRunning {
		return
	}
	t.ProcessName(sweepWorkersPid, "sweep workers")
	t.ThreadName(sweepWorkersPid, ev.Worker, fmt.Sprintf("worker %d", ev.Worker))
	if ev.Kind == SweepCached {
		t.Instant("cached", fmt.Sprintf("cell %d cached", ev.Cell), sweepWorkersPid, ev.Worker, at,
			map[string]any{"index": ev.Cell, "key": ev.Key})
		return
	}
	dur := ev.DurMS * 1000
	t.Span("running", fmt.Sprintf("cell %d", ev.Cell), sweepWorkersPid, ev.Worker, at-dur, dur,
		map[string]any{"index": ev.Cell, "outcome": ev.Outcome})
	if ev.Kind == SweepDegraded {
		t.Instant("degraded", fmt.Sprintf("cell %d degraded", ev.Cell), sweepWorkersPid, ev.Worker, at,
			map[string]any{"index": ev.Cell})
	}
}
