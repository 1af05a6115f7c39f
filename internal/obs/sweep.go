package obs

// SweepEventKind labels one per-cell supervision transition. The kinds
// mirror the spans exp.SetSweepTimeline emits, so an SSE consumer and a
// Perfetto trace of the same sweep tell the same story.
type SweepEventKind string

const (
	// SweepQueued: a worker picked the cell out of the feed queue.
	SweepQueued SweepEventKind = "queued"
	// SweepRunning: attempt 0 started.
	SweepRunning SweepEventKind = "running"
	// SweepRetry: a later attempt started after a failure.
	SweepRetry SweepEventKind = "retry"
	// SweepDone: an attempt succeeded; the cell is finished.
	SweepDone SweepEventKind = "done"
	// SweepDegraded: every attempt failed; the sweep carries on without
	// this cell.
	SweepDegraded SweepEventKind = "degraded"
	// SweepCached: the cell was served from the durable result store
	// without running — its recorded CellStats were replayed into the
	// sink instead (resume runs emit queued then cached, nothing else).
	SweepCached SweepEventKind = "cached"
)

// SweepEvent is one progress event from a supervised sweep cell.
type SweepEvent struct {
	Kind    SweepEventKind `json:"kind"`
	Cell    int            `json:"cell"`
	Attempt int            `json:"attempt"`
	Worker  int            `json:"worker"`
	// Outcome is "ok", "deadline", or "panic"; set on done/degraded.
	Outcome string `json:"outcome,omitempty"`
	// Halt carries the engine's budget halt reason when a finished
	// cell's run was stopped early (done events only).
	Halt string `json:"halt,omitempty"`
	// AtMS is wall-clock milliseconds since sweep telemetry was
	// installed; DurMS is the finishing attempt's duration.
	AtMS  float64 `json:"at_ms"`
	DurMS float64 `json:"dur_ms,omitempty"`
}

// CellStats is the telemetry harvest of one successful sweep cell:
// counter and histogram snapshots of every engine the cell constructed,
// plus the combined event-stream digest. Snapshots are taken by the
// worker goroutine after the cell's job returns, so they never race
// with a live engine.
type CellStats struct {
	Cell         int
	Counters     map[string]int64
	Hists        []HistSnapshot
	Digest       uint64 // XOR of the cell's per-engine StreamDigest sums
	DigestEvents uint64 // total events folded across the cell's engines
	Events       uint64 // total events executed across the cell's engines
	Halt         string // first engine budget halt reason, "" if none
	// Halts lists every engine's budget halt reason in construction
	// order. A multi-engine cell (e.g. a with/without comparison) can
	// halt more than once; Halt keeps the historical first-engine value,
	// Halts carries them all.
	Halts []string `json:",omitempty"`
}

// SweepSink receives live sweep telemetry from exp.SetSweepProgress.
// Methods are called concurrently from worker goroutines; the sink
// synchronizes internally (export.Progress does).
type SweepSink interface {
	SweepEvent(SweepEvent)
	CellStats(CellStats)
}
