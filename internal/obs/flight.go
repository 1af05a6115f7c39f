package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// FlightKind distinguishes flight-record entries.
type FlightKind uint8

// Flight-record entry kinds.
const (
	// FlightPacket is a packet event (send/recv/drop/mark at a link).
	FlightPacket FlightKind = iota
	// FlightSample is a probe sample mirrored from a Sampler.
	FlightSample
	// FlightNote is a free-form annotation (violation descriptions,
	// crash reasons).
	FlightNote
)

// PacketOp classifies a recorded packet event. trace.Op is this type
// (trace imports obs, not the other way round: the trace tests exercise
// topology, which registers with this package), so flight dumps and
// packet traces read the same.
type PacketOp uint8

// Packet event operations.
const (
	OpSend PacketOp = iota
	OpRecv
	OpDrop
	OpMark
)

// String returns the op's dump label.
func (o PacketOp) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpDrop:
		return "drop"
	case OpMark:
		return "mark"
	}
	return "?"
}

// FlightRecord is one entry in the flight recorder's ring. Only the
// fields for its Kind are meaningful.
type FlightRecord struct {
	T    sim.Time
	Kind FlightKind

	// FlightPacket fields.
	Op      PacketOp
	Flow    int
	PktKind int
	Seq     int64
	Size    int

	// FlightSample fields.
	Probe string
	Var   string
	Value float64

	// FlightNote field.
	Note string
}

// FlightRecorder keeps a fixed-size ring of the most recent packet
// events, probe samples, and annotations, for dumping when something
// goes wrong: an invariant violation (internal/invariant) or the
// engine's scheduling-validation panic path (sim.Engine.SetCrashHook).
// It replaces "the auditor counted a violation and the run went on" with
// a post-mortem file showing what the simulation was doing in the
// moments before the failure.
//
// The ring is pre-allocated at construction; recording overwrites in
// place and allocates only for note strings, so taps stay cheap enough
// to leave on during debugging runs.
type FlightRecorder struct {
	ring  []FlightRecord
	start int // index of the oldest record once the ring has wrapped
	n     int // total records ever added
}

// NewFlightRecorder returns a recorder retaining the last n records
// (minimum 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{ring: make([]FlightRecord, 0, n)}
}

// add appends rec, evicting the oldest record when the ring is full.
func (f *FlightRecorder) add(rec FlightRecord) {
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[f.start] = rec
		f.start = (f.start + 1) % cap(f.ring)
	}
	f.n++
}

// AddPacket records one packet event.
func (f *FlightRecorder) AddPacket(t sim.Time, op PacketOp, flow, pktKind int, seq int64, size int) {
	f.add(FlightRecord{T: t, Kind: FlightPacket, Op: op, Flow: flow, PktKind: pktKind, Seq: seq, Size: size})
}

// AddSample records one probe sample (Sampler mirrors through this when
// its Flight field is set).
func (f *FlightRecorder) AddSample(s Sample) {
	f.add(FlightRecord{T: s.T, Kind: FlightSample, Probe: s.Probe, Var: s.Var, Value: s.Value})
}

// AddNote records a free-form annotation.
func (f *FlightRecorder) AddNote(t sim.Time, note string) {
	f.add(FlightRecord{T: t, Kind: FlightNote, Note: note})
}

// ArrivalOp classifies what a link tap saw of an arrival: accepted is
// OpRecv (OpMark when the packet carries an ECN mark), refused is
// OpDrop. ok is false for every tap op that is not an arrival's
// outcome.
func ArrivalOp(op netem.TapOp, p *netem.Packet) (_ PacketOp, ok bool) {
	switch op {
	case netem.TapEnqueue:
		if p.CE {
			return OpMark, true
		}
		return OpRecv, true
	case netem.TapDrop:
		return OpDrop, true
	}
	return 0, false
}

// LinkTap returns a netem.Tap recording queue accept/drop/mark events.
func (f *FlightRecorder) LinkTap() netem.Tap {
	return func(_ *netem.Link, op netem.TapOp, p *netem.Packet, now sim.Time) {
		if pop, ok := ArrivalOp(op, p); ok {
			f.AddPacket(now, pop, p.Flow, p.Kind, p.Seq, p.Size)
		}
	}
}

// Records returns the retained records, oldest first.
func (f *FlightRecorder) Records() []FlightRecord {
	if f.start == 0 {
		return append([]FlightRecord{}, f.ring...)
	}
	out := make([]FlightRecord, 0, len(f.ring))
	out = append(out, f.ring[f.start:]...)
	out = append(out, f.ring[:f.start]...)
	return out
}

// Total returns the number of records ever added (>= len(Records())).
func (f *FlightRecorder) Total() int { return f.n }

// Dump writes a human-readable post-mortem: a header with the reason
// and retention stats, then every retained record in order, one line
// each ("pkt", "probe", or "note" rows).
func (f *FlightRecorder) Dump(w io.Writer, reason string) error {
	bw := bufio.NewWriter(w)
	recs := f.Records()
	fmt.Fprintf(bw, "slowcc flight recorder dump\nreason: %s\nretained: %d of %d records\n\n", reason, len(recs), f.n)
	for _, r := range recs {
		switch r.Kind {
		case FlightPacket:
			fmt.Fprintf(bw, "%.6f\tpkt\t%s\tflow=%d kind=%d seq=%d size=%d\n",
				r.T, r.Op, r.Flow, r.PktKind, r.Seq, r.Size)
		case FlightSample:
			fmt.Fprintf(bw, "%.6f\tprobe\t%s/%s\t%g\n", r.T, r.Probe, r.Var, r.Value)
		case FlightNote:
			fmt.Fprintf(bw, "%.6f\tnote\t%s\n", r.T, r.Note)
		}
	}
	return bw.Flush()
}

// DumpFile writes Dump output to path (0644, truncating). Errors are
// returned, not fatal: the recorder is usually dumping on the way to a
// panic and must not mask the original failure.
func (f *FlightRecorder) DumpFile(path, reason string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Dump(file, reason); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// ArmCrashDump installs an engine crash hook that dumps the recorder to
// path just before a scheduling-validation panic unwinds.
func ArmCrashDump(e *sim.Engine, f *FlightRecorder, path string) {
	e.SetCrashHook(func(reason string) {
		f.AddNote(e.Now(), "engine panic: "+reason)
		_ = f.DumpFile(path, reason)
	})
}
