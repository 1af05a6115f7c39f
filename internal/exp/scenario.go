package exp

import (
	"slowcc/internal/cc"
	"slowcc/internal/cc/cbr"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// withCBR wires a one-way CBR source modulated by sched over a span of
// the fabric and starts it at t=0. The far end counts and releases what
// is delivered.
func withCBR(eng *sim.Engine, d topology.Fabric, flow int, peak float64, sched cbr.Schedule, over topology.Span) {
	src := cbr.NewSource(eng, nil, flow, peak, sched)
	d.ConnectOneWay(flow, src, &cc.Sink{}, over)
	eng.At(0, src.Start)
}

// reverseFlowBase offsets reverse-traffic flow ids away from the
// experiment's own flows.
const reverseFlowBase = 900

// cbrFlowID is the flow id used by the scenario CBR source.
const cbrFlowID = 990

// withReverseTraffic starts n long-lived standard TCP flows in the
// reverse direction at t=0: the TCP row connected over the whole chain
// backwards. Every paper scenario carries data traffic both ways so
// that ACKs share a loaded return path.
func withReverseTraffic(eng *sim.Engine, d topology.Fabric, n int) {
	tcp, _ := row("tcp")
	for i := 0; i < n; i++ {
		f := tcp.wire(eng, d, reverseFlowBase+i, 0.5, topology.Span{From: topology.Last})
		eng.At(0, f.Sender.Start)
	}
}
