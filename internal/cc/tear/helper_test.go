package tear

import (
	"slowcc/internal/cc"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// tcpFlow bundles a standard TCP flow for coexistence tests.
type tcpFlow struct {
	snd *tcp.Sender
	rcv *cc.AckReceiver
}

func newTCPFlow(eng *sim.Engine, d *topology.Net, flow int) *tcpFlow {
	rcv := cc.NewAckReceiver(eng, flow, nil)
	snd := tcp.NewSender(eng, nil, tcp.Config{Flow: flow})
	d.Connect(flow, snd, rcv, topology.Span{})
	return &tcpFlow{snd: snd, rcv: rcv}
}

func (f *tcpFlow) start()           { f.snd.Start() }
func (f *tcpFlow) recvBytes() int64 { return f.rcv.Stats().BytesRecv }
