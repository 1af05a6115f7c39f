// Package journey records per-packet, per-hop latency spans from
// netem link taps and attributes each packet's
// end-to-end delay into per-hop queueing, transmission, and
// propagation components.
//
// A Recorder is attached per hop by the topology (every span of the
// forwarding path, access links included). Because a packet is in
// exactly one link's custody between its enqueue and its delivery or
// drop, and hop handoffs are synchronous (a link's deliver fires the
// next link's enqueue at the same simulated instant), the packet
// pointer is a stable span key and the per-hop residencies of a
// delivered packet tile its observed end-to-end delay exactly.
package journey

import (
	"fmt"
	"sort"

	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
)

// Span is one packet's residency on one hop: accepted into the queue
// at Enq, reached head of line at TxStart, last bit serialized at
// TxEnd, handed to the next component at End. A refused packet records
// only Enq==End with Dropped set.
type Span struct {
	Hop     int
	Flow    int
	Kind    int
	Seq     int64
	Size    int
	Enq     sim.Time
	TxStart sim.Time
	TxEnd   sim.Time
	End     sim.Time
	Dropped bool
}

// Queue, Tx, and Prop split a delivered span's residency into its
// waiting, serialization, and propagation components.
func (s Span) Queue() sim.Time { return s.TxStart - s.Enq }
func (s Span) Tx() sim.Time    { return s.TxEnd - s.TxStart }
func (s Span) Prop() sim.Time  { return s.End - s.TxEnd }

// open is the in-flight half of a Span, keyed by packet pointer while
// the packet is in a link's custody.
type open struct {
	enq     sim.Time
	txStart sim.Time
	txEnd   sim.Time
}

// pathAcc accumulates one packet's components across consecutive
// attached hops, from its first observed enqueue to its egress
// delivery.
type pathAcc struct {
	start sim.Time
	queue sim.Time
	tx    sim.Time
	prop  sim.Time
	// last is the time of the packet's most recent observed event. Hop
	// handoffs are synchronous, so a legitimate continuation enqueues at
	// exactly last; an enqueue at any other time means the pooled packet
	// was consumed off-path (released by a loss filter, a fault or a
	// routeless demux) and reallocated, and the accumulator restarts.
	last sim.Time
}

// hopState is the per-hop accounting: exact component sums for the
// attribution table plus the queue-delay and drop-burst histograms.
type hopState struct {
	name      string
	egress    bool
	delivered int64
	drops     int64
	sumQueue  float64
	sumTx     float64
	sumProp   float64
	curBurst  int64
	queueHist obs.Histogram
	burstHist obs.Histogram
}

// DefaultMaxSpans bounds retained spans (the timeline export); the
// histograms and attribution sums keep counting past it.
const DefaultMaxSpans = 1 << 20

// Recorder watches every hop the topology attaches it to, through one
// netem.Tap per link. It is single-goroutine like the engine itself.
type Recorder struct {
	// MaxSpans caps retained spans; 0 means DefaultMaxSpans, negative
	// means unlimited.
	MaxSpans int

	hops    []*hopState
	byLink  map[*netem.Link]int
	inHop   map[*netem.Packet]open
	inPath  map[*netem.Packet]pathAcc
	rtt     map[int]*obs.Histogram
	spans   []Span
	dropped int64 // spans not retained because of MaxSpans

	// path attribution over packets delivered end-to-end
	e2eCount int64
	e2eSum   float64
	e2eQueue float64
	e2eTx    float64
	e2eProp  float64
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		byLink: map[*netem.Link]int{},
		inHop:  map[*netem.Packet]open{},
		inPath: map[*netem.Packet]pathAcc{},
		rtt:    map[int]*obs.Histogram{},
	}
}

// AttachLink binds the recorder to l as hop `name` and returns the hop
// index. egress marks the last attached hop of a path (the link
// delivering into an endpoint): end-to-end attribution closes there
// and acknowledgment RTTs are sampled there. Attaching the same link
// twice returns the existing hop.
func (r *Recorder) AttachLink(name string, l *netem.Link, egress bool) int {
	if idx, ok := r.byLink[l]; ok {
		return idx
	}
	idx := len(r.hops)
	r.hops = append(r.hops, &hopState{name: name, egress: egress})
	r.byLink[l] = idx
	l.AddTap(func(_ *netem.Link, op netem.TapOp, p *netem.Packet, now sim.Time) {
		r.observe(idx, op, p, now)
	})
	return idx
}

// observe is the tap body of hop's link.
func (r *Recorder) observe(hop int, op netem.TapOp, p *netem.Packet, now sim.Time) {
	h := r.hops[hop]
	switch op {
	case netem.TapEnqueue:
		if h.curBurst > 0 {
			h.burstHist.Record(float64(h.curBurst))
			h.curBurst = 0
		}
		r.inHop[p] = open{enq: now}
		if acc, ok := r.inPath[p]; !ok || acc.last != now {
			r.inPath[p] = pathAcc{start: now, last: now}
		}
	case netem.TapTxStart:
		o := r.inHop[p]
		o.txStart = now
		r.inHop[p] = o
	case netem.TapTxEnd:
		o := r.inHop[p]
		o.txEnd = now
		r.inHop[p] = o
	case netem.TapDeliver:
		o := r.inHop[p]
		delete(r.inHop, p)
		q := float64(o.txStart - o.enq)
		tx := float64(o.txEnd - o.txStart)
		prop := float64(now - o.txEnd)
		h.delivered++
		h.sumQueue += q
		h.sumTx += tx
		h.sumProp += prop
		h.queueHist.Record(q)
		r.retain(Span{
			Hop: hop, Flow: p.Flow, Kind: p.Kind, Seq: p.Seq, Size: p.Size,
			Enq: o.enq, TxStart: o.txStart, TxEnd: o.txEnd, End: now,
		})
		if acc, ok := r.inPath[p]; ok {
			acc.queue += q
			acc.tx += tx
			acc.prop += prop
			acc.last = now
			if h.egress {
				delete(r.inPath, p)
				r.e2eCount++
				r.e2eSum += float64(now - acc.start)
				r.e2eQueue += acc.queue
				r.e2eTx += acc.tx
				r.e2eProp += acc.prop
			} else {
				r.inPath[p] = acc
			}
		}
		if h.egress && p.Kind == netem.Ack && p.Echo > 0 {
			fh := r.rtt[p.Flow]
			if fh == nil {
				fh = &obs.Histogram{}
				r.rtt[p.Flow] = fh
			}
			fh.Record(float64(now - p.Echo))
		}
	case netem.TapDrop:
		h.drops++
		h.curBurst++
		delete(r.inPath, p) // partial path: excluded from attribution
		r.retain(Span{
			Hop: hop, Flow: p.Flow, Kind: p.Kind, Seq: p.Seq, Size: p.Size,
			Enq: now, TxStart: now, TxEnd: now, End: now, Dropped: true,
		})
	}
}

func (r *Recorder) retain(s Span) {
	max := r.MaxSpans
	if max == 0 {
		max = DefaultMaxSpans
	}
	if max > 0 && len(r.spans) >= max {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Finalize flushes per-hop accounting that only closes on a subsequent
// event: an in-progress drop burst at the end of a run would otherwise
// never reach its histogram. Idempotent.
func (r *Recorder) Finalize() {
	for _, h := range r.hops {
		if h.curBurst > 0 {
			h.burstHist.Record(float64(h.curBurst))
			h.curBurst = 0
		}
	}
}

// Spans returns the retained spans in capture order, and the number
// discarded past MaxSpans.
func (r *Recorder) Spans() ([]Span, int64) { return r.spans, r.dropped }

// HopSummary is the per-hop attribution row.
type HopSummary struct {
	Hop       int
	Name      string
	Egress    bool
	Delivered int64
	Drops     int64
	// Exact component sums over delivered packets, in seconds.
	QueueSum float64
	TxSum    float64
	PropSum  float64
	// QueueDelay and DropBurst summarize the hop's histograms.
	QueueDelay obs.HistSummary
	DropBurst  obs.HistSummary
}

// Hops returns one attribution row per attached hop, in attach order.
func (r *Recorder) Hops() []HopSummary {
	out := make([]HopSummary, len(r.hops))
	for i, h := range r.hops {
		out[i] = HopSummary{
			Hop: i, Name: h.name, Egress: h.egress,
			Delivered: h.delivered, Drops: h.drops,
			QueueSum: h.sumQueue, TxSum: h.sumTx, PropSum: h.sumProp,
			QueueDelay: h.queueHist.Summary(),
			DropBurst:  h.burstHist.Summary(),
		}
	}
	return out
}

// Attribution returns the end-to-end decomposition over packets that
// traversed the full attached path: n packets whose total observed
// delay e2e splits into queue + tx + prop (all seconds; the three
// components tile e2e up to floating-point rounding).
func (r *Recorder) Attribution() (n int64, e2e, queue, tx, prop float64) {
	return r.e2eCount, r.e2eSum, r.e2eQueue, r.e2eTx, r.e2eProp
}

// FlowRTTs returns the per-flow acknowledgment RTT summaries, flow ids
// sorted.
func (r *Recorder) FlowRTTs() (flows []int, sums []obs.HistSummary) {
	for f := range r.rtt {
		flows = append(flows, f)
	}
	sort.Ints(flows)
	for _, f := range flows {
		sums = append(sums, r.rtt[f].Summary())
	}
	return flows, sums
}

// Histograms summarizes every histogram the recorder maintains, under
// journey.<hop>.queue_delay, journey.<hop>.drop_burst and
// journey.flow<id>.rtt, canonicalized like counter names
// (obs.CanonicalMetricName). Empty histograms are kept: a zero count is
// itself a finding. Call after Finalize.
func (r *Recorder) Histograms() map[string]obs.HistSummary {
	out := make(map[string]obs.HistSummary, 2*len(r.hops)+len(r.rtt))
	put := func(name string, h *obs.Histogram) { out[obs.CanonicalMetricName(name)] = h.Summary() }
	for _, h := range r.hops {
		put("journey."+h.name+".queue_delay", &h.queueHist)
		put("journey."+h.name+".drop_burst", &h.burstHist)
	}
	for f, h := range r.rtt {
		put(fmt.Sprintf("journey.flow%d.rtt", f), h)
	}
	return out
}

// kindLabel names packet kinds in timeline span names.
func kindLabel(kind int) string {
	switch kind {
	case netem.Data:
		return "data"
	case netem.Ack:
		return "ack"
	case netem.Feedback:
		return "fb"
	default:
		return "pkt"
	}
}

// WriteTimeline replays the retained spans into tl as Chrome
// trace-event spans: one lane ("process") per hop, one row ("thread")
// per flow, span timestamps in microseconds of simulated time. Each
// delivered packet becomes an X span from enqueue to delivery with its
// queue/tx/prop attribution in args; each drop becomes an instant.
// Hop lanes start at pid 1 (pid 0 is left to sweep telemetry).
func (r *Recorder) WriteTimeline(tl *obs.Timeline) {
	for i, h := range r.hops {
		tl.ProcessName(i+1, "hop:"+h.name)
	}
	for _, s := range r.spans {
		pid := s.Hop + 1
		tl.ThreadName(pid, s.Flow, fmt.Sprintf("flow %d", s.Flow))
		name := fmt.Sprintf("%s %d", kindLabel(s.Kind), s.Seq)
		if s.Dropped {
			tl.Instant("drop", name, pid, s.Flow, float64(s.Enq)*1e6, map[string]any{
				"size": s.Size,
			})
			continue
		}
		tl.Span("packet", name, pid, s.Flow, float64(s.Enq)*1e6, float64(s.End-s.Enq)*1e6, map[string]any{
			"queue_us": float64(s.Queue()) * 1e6,
			"tx_us":    float64(s.Tx()) * 1e6,
			"prop_us":  float64(s.Prop()) * 1e6,
			"size":     s.Size,
		})
	}
}
