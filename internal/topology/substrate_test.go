package topology

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// substrateRow is one line of testdata/substrate.tsv.
type substrateRow struct {
	knob, ours, paper, source, ablation string
}

// readSubstrate parses testdata/substrate.tsv: '#' lines are comments,
// the first other line is the header, every later one a row of five
// tab-separated columns.
func readSubstrate(t *testing.T) []substrateRow {
	t.Helper()
	f, err := os.Open("testdata/substrate.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []substrateRow
	header := true
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		c := strings.Split(sc.Text(), "\t")
		if len(c) != 5 {
			t.Fatalf("substrate.tsv:%d: %d columns, want 5", line, len(c))
		}
		if header {
			header = false
			continue
		}
		rows = append(rows, substrateRow{c[0], c[1], c[2], c[3], c[4]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSubstrateTable holds the substrate table to what the code builds:
// each row's "ours" is read back from a default dumbbell — its PropRTT,
// its links, its RED queue — or, for the packet size, which none of
// them shows by itself, from the constant. Every knob has a row and
// every row a knob, so the table cannot go stale.
func TestSubstrateTable(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1})
	snd, rcv := &arrival{eng: eng}, &arrival{eng: eng}
	d.Connect(1, snd, rcv, Span{})
	access := snd.out.(*netem.Link)
	q := d.Fwd[0].Q.(*netem.RED)
	bdp := d.Fwd[0].Rate * d.PropRTT() / 8 / pktSize

	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("substrate.tsv: %v", err)
		}
		return v
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	// Each knob's check returns the built value and whether the table's
	// "ours" is that value.
	checks := map[string]func(ours string) (any, bool){
		"prop_rtt_s": func(o string) (any, bool) { return d.PropRTT(), near(d.PropRTT(), num(o)) },
		"hop_delay_s": func(o string) (any, bool) {
			return d.Fwd[0].Delay, d.Fwd[0].Delay == num(o) && d.Rev[0].Delay == num(o)
		},
		"access_delay_s":  func(o string) (any, bool) { return access.Delay, access.Delay == num(o) },
		"access_rate_bps": func(o string) (any, bool) { return access.Rate, access.Rate == num(o) },
		"pkt_size_bytes":  func(o string) (any, bool) { return pktSize, pktSize == num(o) },
		// The buffer is the factor times the BDP, rounded to packets.
		"queue_factor_bdp":   func(o string) (any, bool) { return q.Cap, q.Cap == int(float64(num(o)*bdp)+0.5) },
		"red_min_factor_bdp": func(o string) (any, bool) { return q.MinThresh, near(q.MinThresh, num(o)*bdp) },
		"red_max_factor_bdp": func(o string) (any, bool) { return q.MaxThresh, near(q.MaxThresh, num(o)*bdp) },
		"red_weight":         func(o string) (any, bool) { return q.Weight, q.Weight == num(o) },
		"red_max_p":          func(o string) (any, bool) { return q.MaxP, q.MaxP == num(o) },
		"red_gentle":         func(o string) (any, bool) { g := redGentle(t); return g, g == o },
		// While idle, RED ages its average by one empty-queue sample per
		// reference packet's transmission time on the bottleneck.
		"red_idle_pkt_time_s": func(o string) (any, bool) { return q.MeanPktTime, near(q.MeanPktTime, num(o)) },
	}

	seen := map[string]bool{}
	for _, r := range readSubstrate(t) {
		check, ok := checks[r.knob]
		switch {
		case !ok:
			t.Errorf("substrate.tsv names %q, which no check reads", r.knob)
			continue
		case seen[r.knob]:
			t.Errorf("substrate.tsv lists %q twice", r.knob)
		}
		seen[r.knob] = true
		if built, ok := check(r.ours); !ok {
			t.Errorf("%s: the table says ours is %s, the dumbbell builds %v", r.knob, r.ours, built)
		}
		if (r.paper == "unknown") != (r.source == "-") || r.source == "" {
			t.Errorf("%s: paper %q with source %q; a known value names its source, \"unknown\" has none (-)", r.knob, r.paper, r.source)
		}
		if r.ablation != "none" && !strings.HasPrefix(r.ablation, "ablation-") {
			t.Errorf("%s: ablation %q is neither a roster ablation-* row nor none", r.knob, r.ablation)
		}
	}
	for knob := range checks {
		if !seen[knob] {
			t.Errorf("substrate.tsv has no row for %s", knob)
		}
	}
}

// redGentle says how a default dumbbell's RED treats an average past
// MaxThresh: "off" when it drops every arrival there, as classic RED
// does, "on" when the drop probability keeps ramping up from MaxP.
func redGentle(t *testing.T) string {
	q := New(sim.New(1), Config{Seed: 1}).Fwd[0].Q.(*netem.RED)
	q.Weight = 1 // the average is then the queue length an arrival finds
	for i := 0; q.Avg() < q.MaxThresh && i < 10*q.Cap; i++ {
		q.Enqueue(&netem.Packet{Size: pktSize}, 0)
	}
	if q.Avg() < q.MaxThresh || q.Avg() >= 2*q.MaxThresh {
		t.Fatalf("RED average %v, want it in [MaxThresh, 2*MaxThresh) = [%v, %v)", q.Avg(), q.MaxThresh, 2*q.MaxThresh)
	}
	if q.DropProb() == 1 {
		return "off"
	}
	return "on"
}
