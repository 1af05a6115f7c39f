package exp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"slowcc/internal/cc"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Algorithm arguments arrive from the command line: a value outside the
// row's domain is an error naming the key and the domain, returned at
// once — cbr:Inf used to pace at a zero gap and never terminate,
// tfrc:1e30 wrapped to K = MinInt64, and out-of-range values were
// simulated or silently replaced by the default.
func TestParseAlgoSpecChecksDomains(t *testing.T) {
	t.Parallel()
	for _, spec := range []string{
		"cbr:Inf", "cbr:-5", "cbr:0", "cbr:2e9", "cbr:NaN",
		"tfrc:1e30", "tfrc:-3", "tfrc:0.5", "tfrc:0", "tfrc:4097", "tfrc+sc:NaN",
		"tcp:NaN", "tcp:0", "tcp:2", "tcp:-1", "rap:0", "sqrt:inf", "iiad:-Inf",
		"tear:-0.1", "tear:1.5",
	} {
		start := time.Now()
		_, err := ParseAlgoSpec(spec)
		key, _, _ := strings.Cut(spec, ":")
		r, _ := row(key)
		if err == nil || !strings.Contains(err.Error(), r.dom.text) || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseAlgoSpec(%q) = %v, want an error naming %s and %q", spec, err, key, r.dom.text)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("ParseAlgoSpec(%q) took %v to refuse", spec, d)
		}
	}
	// The edges of each domain, and an omitted argument, are accepted.
	for spec, want := range map[string]string{
		"tcp:1": "TCP(1/1)", "rap:0.25": "RAP(1/4)", "tfrc:1": "TFRC(1)", "tfrc+sc:4096": "TFRC(4096)+SC",
		"tear:0": "TEAR", "tear:1": "TEAR(1)", "cbr:1e9": "CBR(1000M)",
		"TCP": "TCP(1/2)", "tfrc": "TFRC(8)", "cbr": "CBR(2.5M)",
	} {
		if a, err := ParseAlgoSpec(spec); err != nil || a.Name != want {
			t.Errorf("ParseAlgoSpec(%q) = %q, %v; want %q", spec, a.Name, err, want)
		}
	}
	if _, err := ParseAlgoSpec("vegas"); err == nil || !strings.Contains(err.Error(), strings.Join(rosterKeys(), ", ")) {
		t.Errorf("unknown key: %v, want an error listing the roster", err)
	}
}

// ParseAlgoSpec never panics, and whatever it accepts wires onto a
// dumbbell and runs without panicking or flooding the engine.
func FuzzParseAlgoSpec(f *testing.F) {
	for _, r := range roster {
		f.Add(r.key)
		f.Add(fmt.Sprintf("%s:%g", r.key, r.arg))
	}
	for _, s := range []string{"cbr:Inf", "cbr:1e9", "tfrc:1e30", "tfrc:4096", "tcp:NaN", "tcp:1e-300", "rap:5e-324", "tear:1", ":", "tcp:", "tcp:0x1p-2", "TFRC+SC:3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAlgoSpec(spec)
		if err != nil {
			return
		}
		eng := sim.New(1)
		d := topology.New(eng, topology.Config{Seed: 1})
		fl := a.Make(eng, d, 1)
		eng.At(0, fl.Sender.Start)
		eng.SetBudget(&sim.Budget{MaxEvents: 1e5})
		eng.RunUntil(0.05)
		if h := eng.Halted(); h != nil {
			t.Fatalf("%q (%s) accepted, then halted the run: %v", spec, a.Name, h)
		}
	})
}

// ParseAlgoList never panics, allocates at most a fixed allowance plus
// a multiple of its input, and a list it accepts re-parses from its
// trimmed, non-empty pieces, joined by ",", to the same names.
func FuzzParseAlgoList(f *testing.F) {
	for _, s := range []string{"tcp:0.5,tfrc:8,sqrt", " tcp , ,cbr:3e6 ", ",,,", "", "tcp,vegas", "tfrc+sc:4096,tear:1,iiad", strings.Repeat("tcp,", 64)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		algos, err := ParseAlgoList(list)
		runtime.ReadMemStats(&m1)
		if limit := uint64(2<<20 + 64*len(list)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("ParseAlgoList allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(list))
		}
		if err != nil {
			return
		}
		var pieces []string
		for _, p := range strings.Split(list, ",") {
			if p = strings.TrimSpace(p); p != "" {
				pieces = append(pieces, p)
			}
		}
		again, err := ParseAlgoList(strings.Join(pieces, ","))
		if err != nil || len(again) != len(algos) {
			t.Fatalf("%q accepted as %d algorithms; its pieces re-parse to %d, %v", list, len(algos), len(again), err)
		}
		for i := range algos {
			if again[i].Name != algos[i].Name {
				t.Fatalf("%q: algorithm %d is %q, re-parsed %q", list, i, algos[i].Name, again[i].Name)
			}
		}
	})
}

// auditedNets builds the paper's dumbbell and a 3-hop chain, each with
// its own auditor wired through every link.
func auditedNets() map[string]*topology.Net {
	eng1, eng3 := sim.New(1), sim.New(1)
	return map[string]*topology.Net{
		"dumbbell": topology.New(eng1, topology.Config{Seed: 1, Audit: invariant.New(eng1)}),
		"3-hop chain": topology.NewNet(eng3, topology.NetConfig{
			Hops: make([]topology.Hop, 3), Seed: 1, Audit: invariant.New(eng3)}),
	}
}

// Every roster row, named by its bare key, wires on both topologies
// through the one wiring path, moves bytes with the auditor silent, and
// exposes each probe variable under a name of its own.
func TestRosterRowsWireOnEveryTopology(t *testing.T) {
	t.Parallel()
	names := map[string]string{}
	for _, r := range roster {
		a, err := ParseAlgoSpec(r.key)
		if err != nil || a.Name != r.name(r.arg) {
			t.Fatalf("bare key %q parsed to %q, %v; want the row's default %q", r.key, a.Name, err, r.name(r.arg))
		}
		if !r.dom.has(r.arg) {
			t.Errorf("%s: default %g is outside its own domain %s", r.key, r.arg, r.dom.text)
		}
		if prev, dup := names[a.Name]; dup {
			t.Errorf("rows %s and %s share the display name %q", prev, r.key, a.Name)
		}
		names[a.Name] = r.key
		for topo, d := range auditedNets() {
			f := a.Make(d.Eng, d, 1)
			startAll(d, []Flow{f}, 0)
			d.Eng.RunUntil(5)
			if f.RecvBytes() == 0 || f.RecvBytes() > f.SentBytes() {
				t.Errorf("%s on the %s: sent %d bytes, received %d", a.Name, topo, f.SentBytes(), f.RecvBytes())
			}
			if err := d.Cfg.Audit.Err(); err != nil {
				t.Errorf("%s on the %s: %v", a.Name, topo, err)
			}
			if d.UnknownFlowDrops != 0 {
				t.Errorf("%s on the %s: %d packets reached a node with no route", a.Name, topo, d.UnknownFlowDrops)
			}
			if f.Probes == nil {
				continue
			}
			vars := map[string]bool{}
			for _, v := range f.Probes.ProbeVars() {
				if vars[v.Name] {
					t.Errorf("%s exposes two probe variables named %q", a.Name, v.Name)
				}
				vars[v.Name] = true
			}
		}
	}
}

// stopWait is the litmus for the roster's seams: a toy sender — one
// packet in flight, the next on its ACK, the same again on a timeout —
// that the rest of the repository has never heard of.
type stopWait struct {
	cc.Port
	eng     *sim.Engine
	flow    int
	rto     sim.Time
	st      cc.SenderStats
	seq     int64
	timer   *sim.Timer
	running bool
}

func (s *stopWait) Start()                 { s.running = true; s.send() }
func (s *stopWait) Stop()                  { s.running = false }
func (s *stopWait) Stats() *cc.SenderStats { return &s.st }

func (s *stopWait) ProbeVars() []probe.Var {
	return []probe.Var{{Name: "seq", Read: func() float64 { return float64(s.seq) }}}
}

func (s *stopWait) send() {
	p := s.Pool.Get()
	p.Flow, p.Kind, p.Seq, p.Size, p.SentAt = s.flow, netem.Data, s.seq, cc.DefaultPktSize, s.eng.Now()
	s.st.PktsSent++
	s.st.BytesSent += int64(p.Size)
	s.Out.Handle(p)
	s.timer = s.eng.ResetAfter(s.timer, s.rto, s.onTimeout)
}

func (s *stopWait) onTimeout() {
	if s.running {
		s.st.Timeouts++
		s.st.Rtx++
		s.send()
	}
}

func (s *stopWait) Handle(p *netem.Packet) {
	acked := p.Kind == netem.Ack && p.CumAck > s.seq
	s.Pool.Put(p)
	if s.running && acked {
		s.seq++
		s.send()
	}
}

// Adding a sender is one type and one row: described by a row literal
// and nothing else, the toy parses from the CLI syntax, shows up in the
// syntax help and the unknown-key error, wires through the same
// row-to-AlgoSpec path as the real rows, and duels TCP(1/2) on an
// audited dumbbell.
func TestNewSenderIsOneRow(t *testing.T) {
	t.Parallel()
	saw := algoRow{
		key: "saw", help: "toy stop-and-wait with retransmit timeout rto", arg: 0.5,
		dom:  domain{"rto in (0,10] seconds", func(v float64) bool { return v > 0 && v <= 10 }},
		name: func(rto float64) string { return fmt.Sprintf("SAW(%g)", rto) },
		endpoints: func(eng *sim.Engine, flow int, rto float64) (sender, receiver) {
			return &stopWait{eng: eng, flow: flow, rto: rto}, cc.NewAckReceiver(eng, flow, nil)
		},
	}
	defer func(saved []algoRow) { roster = saved }(roster)
	roster = append(roster[:len(roster):len(roster)], saw)

	a, err := ParseAlgoSpec("saw:0.25")
	if err != nil || a.Name != "SAW(0.25)" {
		t.Fatalf("ParseAlgoSpec(saw:0.25) = %q, %v", a.Name, err)
	}
	if _, err := ParseAlgoSpec("saw:11"); err == nil || !strings.Contains(err.Error(), "rto in (0,10]") {
		t.Fatalf("saw:11 = %v, want the row's domain error", err)
	}
	if !strings.Contains(AlgoSyntax(), "toy stop-and-wait") {
		t.Fatalf("syntax help does not list the new row:\n%s", AlgoSyntax())
	}
	if _, err := ParseAlgoSpec("vegas"); !strings.Contains(err.Error(), "cbr, saw") {
		t.Fatalf("unknown-key error does not list the new row: %v", err)
	}

	d := auditedNets()["dumbbell"]
	flows := []Flow{a.Make(d.Eng, d, 1), TCPAlgo(0.5).Make(d.Eng, d, 2)}
	startAll(d, flows, 0)
	d.Eng.RunUntil(20)
	if err := d.Cfg.Audit.Err(); err != nil {
		t.Fatalf("stop-and-wait vs TCP breached an invariant: %v", err)
	}
	toy, tcp := flows[0].RecvBytes(), flows[1].RecvBytes()
	// One packet per 50 ms round trip is 400 packets in 20 s at best; TCP
	// takes the rest of the 10 Mbps.
	if toy < 100*cc.DefaultPktSize || toy > 400*cc.DefaultPktSize || tcp < 20*toy {
		t.Fatalf("stop-and-wait received %d bytes, TCP %d: want about one packet per RTT against a saturating TCP", toy, tcp)
	}
	if vs := flows[0].Probes.ProbeVars(); len(vs) != 1 || vs[0].Name != "seq" || vs[0].Read() < 100 {
		t.Fatalf("the toy's probe did not reach the Flow: %v", vs)
	}
}
