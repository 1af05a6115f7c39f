// Package trace records per-packet events (sends, receipts, drops, ECN
// marks) during a simulation and exports them as TSV for external
// plotting, or as binned rate series. It is the observability layer a
// user reaches for when a summary metric looks surprising and they want
// the packet-level story.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// Op is the event type; its String is the op's TSV label.
type Op uint8

// Event operations.
const (
	// Send is a packet leaving an endpoint.
	Send Op = iota
	// Recv is a packet accepted by a queue or delivered to an endpoint.
	Recv
	// Drop is a packet refused by a queue or loss filter.
	Drop
	// Mark is an ECN congestion-experienced mark.
	Mark
)

// String returns the op's TSV label.
func (o Op) String() string {
	switch o {
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Drop:
		return "drop"
	case Mark:
		return "mark"
	}
	return "?"
}

// Event is one recorded packet event.
type Event struct {
	T    sim.Time
	Op   Op
	Flow int
	Kind int // netem.Data, netem.Ack, netem.Feedback
	Seq  int64
	Size int
	// Hop identifies the link the event was observed at (empty for
	// endpoint events and taps registered without a hop name). Multi-hop
	// chains record otherwise-indistinguishable per-link events; the hop
	// tag is what tells them apart.
	Hop string
}

// Recorder accumulates events. The zero value records without bound;
// set Limit to keep only the most recent events (a ring).
type Recorder struct {
	// Limit bounds the number of retained events (0 = unlimited).
	Limit int

	events []Event
	start  int // ring start when Limit is active
	n      int
}

// Record appends an event.
func (r *Recorder) Record(ev Event) {
	if r.Limit <= 0 {
		r.events = append(r.events, ev)
		r.n++
		return
	}
	if len(r.events) < r.Limit {
		r.events = append(r.events, ev)
	} else {
		r.events[r.start] = ev
		r.start = (r.start + 1) % r.Limit
	}
	r.n++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Total returns the number of events ever recorded (>= Len when a Limit
// evicted old ones).
func (r *Recorder) Total() int { return r.n }

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r.Limit <= 0 || r.start == 0 {
		return append([]Event{}, r.events...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// LinkTap returns a netem.Tap recording queue accept/drop (and ECN
// mark) events at a link, with no hop identity (single-bottleneck
// runs, where the link is unambiguous).
func (r *Recorder) LinkTap() netem.Tap { return r.HopTap("") }

// HopTap returns a netem.Tap like LinkTap that stamps every event with
// the given hop name, so taps on several links of a chain stay
// distinguishable in the merged record. An accepted arrival is Recv
// (Mark when the packet carries an ECN mark), a refused one Drop; no
// other tap op is recorded.
func (r *Recorder) HopTap(hop string) netem.Tap {
	return func(_ *netem.Link, top netem.TapOp, p *netem.Packet, now sim.Time) {
		var op Op
		switch {
		case top == netem.TapDrop:
			op = Drop
		case top != netem.TapEnqueue:
			return
		case p.CE:
			op = Mark
		default:
			op = Recv
		}
		r.Record(Event{T: now, Op: op, Flow: p.Flow, Kind: p.Kind, Seq: p.Seq, Size: p.Size, Hop: hop})
	}
}

// WriteTSV writes the retained events as tab-separated values with a
// header row. The trailing hop column is empty for events recorded
// without a hop identity.
func (r *Recorder) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t\top\tflow\tkind\tseq\tsize\thop"); err != nil {
		return err
	}
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(bw, "%.6f\t%s\t%d\t%d\t%d\t%d\t%s\n",
			ev.T, ev.Op, ev.Flow, ev.Kind, ev.Seq, ev.Size, ev.Hop); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Filter returns the retained events matching flow (or any flow when
// flow < 0) and op.
func (r *Recorder) Filter(flow int, op Op) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if (flow < 0 || ev.Flow == flow) && ev.Op == op {
			out = append(out, ev)
		}
	}
	return out
}

// BinRates converts matching events to a byte-rate series with the
// given bin width, from time 0 through the last event.
func (r *Recorder) BinRates(flow int, op Op, width sim.Time) []float64 {
	evs := r.Filter(flow, op)
	if len(evs) == 0 {
		return nil
	}
	last := evs[len(evs)-1].T
	bins := make([]float64, int(last/width)+1)
	for _, ev := range evs {
		bins[int(ev.T/width)] += float64(ev.Size)
	}
	for i := range bins {
		bins[i] /= float64(width)
	}
	return bins
}
