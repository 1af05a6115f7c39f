package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// TraceEvent is one record in the Chrome trace-event JSON format
// (loadable by Perfetto and chrome://tracing). Ts and Dur are in
// microseconds; Pid selects the top-level lane ("process") and Tid the
// row within it ("thread"). Ph is the phase: "X" complete span, "i"
// instant, "M" metadata.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Timeline accumulates trace events from any number of producers
// (journey recorders replaying sim time, sweep supervision stamping
// wall time) and writes them as one Chrome trace-event JSON document.
// It is safe for concurrent use: sweep cells append from worker
// goroutines. Lane naming metadata is deduplicated so every producer
// can declare its lanes idempotently.
type Timeline struct {
	mu     sync.Mutex
	meta   []TraceEvent
	events []TraceEvent
	named  map[[2]int]bool // {pid,tid}; tid -1 marks a process name
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{named: map[[2]int]bool{}} }

// ProcessName declares the display name of a pid lane (once; repeats
// are ignored).
func (t *Timeline) ProcessName(pid int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]int{pid, -1}
	if t.named[key] {
		return
	}
	t.named[key] = true
	t.meta = append(t.meta, TraceEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name},
	})
}

// ThreadName declares the display name of a tid row within a pid lane
// (once; repeats are ignored).
func (t *Timeline) ThreadName(pid, tid int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]int{pid, tid}
	if t.named[key] {
		return
	}
	t.named[key] = true
	t.meta = append(t.meta, TraceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Span appends a complete ("X") span. ts and dur are microseconds.
func (t *Timeline) Span(cat, name string, pid, tid int, ts, dur float64, args map[string]any) {
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur,
		Pid: pid, Tid: tid, Args: args,
	})
	t.mu.Unlock()
}

// Instant appends a thread-scoped instant ("i") event at ts µs.
func (t *Timeline) Instant(cat, name string, pid, tid int, ts float64, args map[string]any) {
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i", Ts: ts,
		Pid: pid, Tid: tid, S: "t", Args: args,
	})
	t.mu.Unlock()
}

// Len returns the number of events recorded so far, metadata included.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta) + len(t.events)
}

// WriteJSON writes the timeline as a Chrome trace-event JSON object:
// metadata first, then events in append order. Viewers sort by Ts, so
// producer interleaving does not affect rendering.
func (t *Timeline) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	all := make([]TraceEvent, 0, len(t.meta)+len(t.events))
	all = append(all, t.meta...)
	all = append(all, t.events...)
	t.mu.Unlock()

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range all {
		blob, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(all)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(blob, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// WriteFile writes the timeline JSON to path.
func (t *Timeline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateTimeline parses a Chrome trace-event JSON document and
// returns its event count. It checks the structural contract viewers
// rely on: a traceEvents array whose entries each carry a name, a
// phase, and non-negative timestamps, with "X" spans having
// non-negative durations. This is the CI smoke's JSON gate.
func ValidateTimeline(blob []byte) (int, error) {
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return 0, fmt.Errorf("obs: timeline: %v", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("obs: timeline: missing traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return 0, fmt.Errorf("obs: timeline: event %d: empty name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 {
				return 0, fmt.Errorf("obs: timeline: event %d (%s): negative dur %v", i, ev.Name, ev.Dur)
			}
		case "i", "M", "B", "E", "C":
		default:
			return 0, fmt.Errorf("obs: timeline: event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Ts < 0 {
			return 0, fmt.Errorf("obs: timeline: event %d (%s): negative ts %v", i, ev.Name, ev.Ts)
		}
	}
	return len(doc.TraceEvents), nil
}

// ReadTimelineFile validates a timeline JSON file on disk and returns
// its event count. No binary reads a timeline back: the smoke tests hold
// what the binaries write to it.
func ReadTimelineFile(path string) (int, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return ValidateTimeline(blob)
}
