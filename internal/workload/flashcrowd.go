// Package workload generates the paper's background traffic: a "flash
// crowd" of many short TCP transfers arriving at a fixed rate for a
// fixed span (Section 4.1.2: 10-packet transfers at 200 flows/s for 5
// seconds).
package workload

import (
	"slowcc/internal/cc"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// FlashCrowdConfig describes the crowd.
type FlashCrowdConfig struct {
	// Start is when the first flow arrives.
	Start sim.Time
	// Duration is the arrival window length.
	Duration sim.Time
	// RatePerSec is the flow arrival rate.
	RatePerSec float64
	// PktsPerFlow is the transfer size in packets (default 10).
	PktsPerFlow int64
	// FirstFlowID is the flow-identifier block start; the crowd uses
	// FirstFlowID..FirstFlowID+N-1.
	FirstFlowID int
}

// FlashCrowd is a generated set of short TCP flows wired onto a
// topology.
type FlashCrowd struct {
	// Senders and Receivers hold one entry per crowd flow.
	Senders   []*tcp.Sender
	Receivers []*cc.AckReceiver
	// Completed counts flows whose transfer finished.
	Completed int
	// CompletionTimes records, for finished flows, arrival-to-done
	// latency.
	CompletionTimes []sim.Time
}

// NewFlashCrowd schedules the crowd on the fabric d. Each flow is a
// standard TCP(1/2) transfer of PktsPerFlow packets; arrivals are evenly
// spaced at 1/RatePerSec (the paper describes a deterministic stream).
func NewFlashCrowd(eng *sim.Engine, d topology.Fabric, cfg FlashCrowdConfig) *FlashCrowd {
	if cfg.PktsPerFlow == 0 {
		cfg.PktsPerFlow = 10
	}
	n := int(cfg.RatePerSec * float64(cfg.Duration))
	fc := &FlashCrowd{}
	gap := 1 / cfg.RatePerSec
	for i := 0; i < n; i++ {
		flowID := cfg.FirstFlowID + i
		arrive := cfg.Start + float64(sim.Time(i)*gap)
		rcv := cc.NewAckReceiver(eng, flowID, nil)
		snd := tcp.NewSender(eng, nil, tcp.Config{
			Flow:    flowID,
			MaxPkts: cfg.PktsPerFlow,
			OnDone: func() {
				fc.Completed++
				fc.CompletionTimes = append(fc.CompletionTimes, eng.Now()-arrive)
			},
		})
		d.Connect(flowID, snd, rcv, topology.Span{})
		fc.Senders = append(fc.Senders, snd)
		fc.Receivers = append(fc.Receivers, rcv)
		eng.At(arrive, snd.Start)
	}
	return fc
}

// TotalBytesRecv sums bytes received across the crowd.
func (fc *FlashCrowd) TotalBytesRecv() int64 {
	var n int64
	for _, r := range fc.Receivers {
		n += r.Stats().BytesRecv
	}
	return n
}
