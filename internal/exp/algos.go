package exp

import (
	"fmt"
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/cc/binomial"
	"slowcc/internal/cc/cbr"
	"slowcc/internal/cc/rap"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/cc/tear"
	"slowcc/internal/cc/tfrc"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// sender and receiver are the two ends a roster row constructs: what
// wire needs to connect them and read their byte counters.
type sender interface {
	cc.Sender
	topology.Endpoint
}

type receiver interface {
	topology.Endpoint
	Stats() *cc.ReceiverStats
}

// algoRow is one line of the roster: everything the repository knows
// about an algorithm outside its own package under internal/cc. The CLI
// parser, its error text and syntax help, and the exported constructors
// below are all derived from rows.
type algoRow struct {
	// key is the CLI name, written key[:arg].
	key string
	// help says what the algorithm is, for the syntax help.
	help string
	// arg is the value an omitted argument takes, dom the values the CLI
	// accepts for it.
	arg float64
	dom domain
	// name renders the display name used in tables and manifests.
	name func(arg float64) string
	// oneWay marks an algorithm nothing feeds back to: only the data
	// path is wired.
	oneWay bool
	// endpoints constructs the two unattached ends of one flow.
	endpoints func(eng *sim.Engine, flow int, arg float64) (sender, receiver)
}

// domain is the set of argument values a row accepts from outside the
// program. Every has rejects NaN, which fails any comparison.
type domain struct {
	text string
	has  func(v float64) bool
}

var (
	decrease  = domain{"b in (0,1]", func(b float64) bool { return b > 0 && b <= 1 }}
	intervals = domain{"k an integer in [1,4096]", func(k float64) bool { return k == math.Trunc(k) && k >= 1 && k <= 4096 }}
	gain      = domain{"alpha in [0,1], 0 for the default 0.1", func(a float64) bool { return a >= 0 && a <= 1 }}
	// A CBR source faster than the 1 Gbps access links only fills its own
	// access queue, one engine event per nanosecond of simulated time.
	bitRate = domain{"rate in bits/s in (0,1e9]", func(r float64) bool { return r > 0 && r <= 1e9 }}
)

// roster is the set of algorithms the CLIs can name.
var roster = []algoRow{
	tcpRow("tcp", "TCP", "TCP with AIMD(b) window rules (tcp:0.5 is standard TCP)", aimd, tcp.Config{}),
	tcpRow("sqrt", "SQRT", "SQRT binomial algorithm with decrease scale b", sqrt, tcp.Config{}),
	tcpRow("iiad", "IIAD", "IIAD binomial algorithm with decrease scale b", iiad, tcp.Config{}),
	{
		key: "rap", help: "rate-based AIMD (RAP) with decrease factor b", arg: 0.5, dom: decrease,
		name: func(b float64) string { return "RAP(" + fracName(b) + ")" },
		endpoints: func(eng *sim.Engine, flow int, b float64) (sender, receiver) {
			return rap.NewSender(eng, nil, rap.Config{Flow: flow, B: b}), cc.NewAckReceiver(eng, flow, nil)
		},
	},
	tfrcRow("tfrc", "equation-based TFRC averaging k loss intervals", false, true),
	tfrcRow("tfrc+sc", "TFRC with the paper's conservative self-clocking option", true, true),
	{
		key: "tear", help: "TCP Emulation At Receivers with EWMA gain alpha", arg: 0, dom: gain,
		name: func(alpha float64) string {
			if alpha > 0 {
				return fmt.Sprintf("TEAR(%g)", alpha)
			}
			return "TEAR"
		},
		endpoints: func(eng *sim.Engine, flow int, alpha float64) (sender, receiver) {
			rcv := tear.NewReceiver(eng, flow, nil)
			if alpha > 0 {
				rcv.Alpha = alpha
			}
			return tear.NewSender(eng, nil, flow), rcv
		},
	},
	{
		key: "cbr", help: "unresponsive constant-bit-rate source", arg: 2.5e6, dom: bitRate,
		name:   func(rate float64) string { return fmt.Sprintf("CBR(%gM)", rate/1e6) },
		oneWay: true,
		endpoints: func(eng *sim.Engine, flow int, rate float64) (sender, receiver) {
			return cbr.NewSource(eng, nil, flow, rate, nil), &cc.Sink{}
		},
	},
}

func aimd(b float64) cc.WindowPolicy { return tcp.NewAIMD(b) }
func sqrt(b float64) cc.WindowPolicy { return binomial.SQRT(b) }
func iiad(b float64) cc.WindowPolicy { return binomial.IIAD(b) }

// tcpRow is a row running over the TCP transport (self-clocked, with
// timeouts): label(b) with the window rules policy(b) and cfg's options.
func tcpRow(key, label, help string, policy func(b float64) cc.WindowPolicy, cfg tcp.Config) algoRow {
	return algoRow{
		key: key, help: help, arg: 0.5, dom: decrease,
		name: func(b float64) string { return label + "(" + fracName(b) + ")" },
		endpoints: func(eng *sim.Engine, flow int, b float64) (sender, receiver) {
			c := cfg
			c.Flow, c.Policy = flow, policy(b)
			return tcp.NewSender(eng, nil, c), cc.NewAckReceiver(eng, flow, nil)
		},
	}
}

// tfrcRow is TFRC(k), with or without the paper's self-clocking option
// and RFC 3448 history discounting.
func tfrcRow(key, help string, conservative, discounting bool) algoRow {
	return algoRow{
		key: key, help: help, arg: 8, dom: intervals,
		name: func(k float64) string {
			if conservative {
				return fmt.Sprintf("TFRC(%d)+SC", int(k))
			}
			return fmt.Sprintf("TFRC(%d)", int(k))
		},
		endpoints: func(eng *sim.Engine, flow int, k float64) (sender, receiver) {
			rcv := tfrc.NewReceiver(eng, flow, nil, int(k))
			rcv.HistoryDiscounting = discounting
			return tfrc.NewSender(eng, nil, tfrc.Config{Flow: flow, Conservative: conservative}), rcv
		},
	}
}

// row returns the roster row for a CLI key. A key the package itself
// spells wrong yields the zero row, whose first use panics.
func row(key string) (algoRow, bool) {
	for _, r := range roster {
		if r.key == key {
			return r, true
		}
	}
	return algoRow{}, false
}

// rosterAlgo is the roster row key at one argument value.
func rosterAlgo(key string, arg float64) AlgoSpec {
	r, _ := row(key)
	return r.spec(arg)
}

// spec is the row's algorithm at one argument value.
func (r algoRow) spec(arg float64) AlgoSpec {
	return AlgoSpec{
		Name: r.name(arg),
		Make: func(eng *sim.Engine, d topology.Fabric, flow int) Flow {
			return r.wire(eng, d, flow, arg, topology.Span{})
		},
	}
}

// wire builds one flow of the row's algorithm at arg, connects it over a
// span of d and returns the Flow reading it. Either end may expose probe
// variables; both do where an algorithm's state spans the pair (TFRC's
// loss-event rate and TEAR's emulated window live at the receiver),
// sender's first.
func (r algoRow) wire(eng *sim.Engine, d topology.Fabric, flow int, arg float64, over topology.Span) Flow {
	snd, rcv := r.endpoints(eng, flow, arg)
	if r.oneWay {
		d.ConnectOneWay(flow, snd, rcv, over)
	} else {
		d.Connect(flow, snd, rcv, over)
	}
	sent, recv := snd.Stats(), rcv.Stats()
	f := Flow{
		Sender:    snd,
		RecvBytes: func() int64 { return recv.BytesRecv },
		SentBytes: func() int64 { return sent.BytesSent },
	}
	sp, _ := snd.(probe.Provider)
	rp, _ := rcv.(probe.Provider)
	switch {
	case sp != nil && rp != nil:
		f.Probes = probePair{sp, rp}
	case sp != nil:
		f.Probes = sp
	case rp != nil:
		f.Probes = rp
	}
	return f
}

// TCPAlgo returns TCP(b): full TCP machinery with the TCP-compatible
// AIMD(b) window rules. TCPAlgo(0.5) is standard TCP.
func TCPAlgo(b float64) AlgoSpec { return rosterAlgo("tcp", b) }

// SQRTAlgo returns the SQRT binomial algorithm with decrease scale b,
// running over the TCP transport (self-clocked, with timeouts).
func SQRTAlgo(b float64) AlgoSpec { return rosterAlgo("sqrt", b) }

// IIADAlgo returns the IIAD binomial algorithm with decrease scale b.
func IIADAlgo(b float64) AlgoSpec { return rosterAlgo("iiad", b) }

// RAPAlgo returns RAP(b): rate-based AIMD without self-clocking.
func RAPAlgo(b float64) AlgoSpec { return rosterAlgo("rap", b) }

// TFRCOpts tunes the TFRC algorithm spec.
type TFRCOpts struct {
	// K is the number of loss intervals averaged (TFRC(k)).
	K int
	// Conservative enables the paper's self-clocking option.
	Conservative bool
	// HistoryDiscounting enables RFC 3448 section 5.5 (ns-2 default on).
	HistoryDiscounting bool
}

// TFRCAlgo returns TFRC(k) with the given options.
func TFRCAlgo(o TFRCOpts) AlgoSpec {
	return tfrcRow("", "", o.Conservative, o.HistoryDiscounting).spec(float64(o.K))
}

// TEARAlgo returns TCP Emulation At Receivers with the given EWMA gain
// alpha (0 uses the default 0.1; smaller alpha is more slowly
// responsive).
func TEARAlgo(alpha float64) AlgoSpec { return rosterAlgo("tear", alpha) }

// ECNTCPAlgo returns TCP(b) with ECN enabled (pair with an ECN-marking
// dumbbell).
func ECNTCPAlgo(b float64) AlgoSpec {
	return tcpRow("", "ECN-TCP", "", aimd, tcp.Config{ECN: true}).spec(b)
}

// SACKTCPAlgo returns TCP(b) with selective-acknowledgment recovery
// (the paper's ns-2 agents were Sack1; the default transport here is
// NewReno-flavored, so this is the fidelity ablation).
func SACKTCPAlgo(b float64) AlgoSpec {
	return tcpRow("", "SACK-TCP", "", aimd, tcp.Config{SACK: true}).spec(b)
}

// CBRAlgo returns a constant-bit-rate "algorithm" sending one-way at
// rate bits per second: the interaction matrix's unresponsive baseline
// (every congestion-controlled algorithm is also measured against a
// flow that backs off not at all). Delivered bytes are counted at the
// far end; nothing feeds back.
func CBRAlgo(rate float64) AlgoSpec { return rosterAlgo("cbr", rate) }

// fracName prints b as the paper writes it: 1/2, 1/8, ... or a decimal
// when not a unit fraction.
func fracName(b float64) string {
	if b > 0 && b <= 1 {
		inv := 1 / b
		if inv == float64(int(inv)) {
			return fmt.Sprintf("1/%d", int(inv))
		}
	}
	return fmt.Sprintf("%g", b)
}
