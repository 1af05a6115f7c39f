package exp

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// smallMatrixConfig is the scaled-down 3x3 subset used by the matrix
// tests: three algorithm families, static and oscillating conditions,
// both topologies, short timeline.
func smallMatrixConfig() MatrixConfig {
	return MatrixConfig{
		Algos: []AlgoSpec{
			TCPAlgo(0.5),
			TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}),
			SQRTAlgo(0.5),
		},
		Conditions: []string{CondStatic, CondOscillating},
		Topologies: []string{TopoDumbbell, TopoParkingLot},
		Hops:       2,
		Warmup:     2,
		Measure:    6,
		Period:     1,
		Seed:       1,
	}
}

// The acceptance bar for the matrix driver: the same seed must produce a
// byte-identical TSV artifact, across a 3x3 algorithm subset under
// static and oscillating conditions on both topologies.
func TestMatrixDeterministicTSV(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	cfg := smallMatrixConfig()
	first := RenderMatrixTSV(Matrix(cfg))
	second := RenderMatrixTSV(Matrix(cfg))
	if first != second {
		t.Fatalf("same-seed matrix TSVs differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	wantRows := 1 + 2*2*3*3 // header + topologies x conditions x pairs
	if len(lines) != wantRows {
		t.Fatalf("TSV has %d rows, want %d:\n%s", len(lines), wantRows, first)
	}
	if !strings.HasPrefix(lines[0], "topology\tcondition\talgo_a\talgo_b\t") {
		t.Fatalf("bad TSV header: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.HasSuffix(l, "\ttrue") {
			t.Fatalf("degraded cell in healthy sweep: %q", l)
		}
	}
}

// Every cell must carry plausible metrics: both sides of every duel move
// bytes, the bottleneck is used, and Jain's index is in (0, 1].
func TestMatrixCellMetricsPlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	cfg := smallMatrixConfig()
	cells := Matrix(cfg)
	for _, c := range cells {
		if c.Degraded {
			t.Errorf("%s/%s %s vs %s: degraded", c.Topology, c.Condition, c.A, c.B)
			continue
		}
		if c.AMbps <= 0 || c.BMbps <= 0 {
			t.Errorf("%s/%s %s vs %s: starved side (A=%.3f B=%.3f Mbps)",
				c.Topology, c.Condition, c.A, c.B, c.AMbps, c.BMbps)
		}
		if c.Jain <= 0 || c.Jain > 1.000001 {
			t.Errorf("%s/%s %s vs %s: Jain index %v out of range",
				c.Topology, c.Condition, c.A, c.B, c.Jain)
		}
		if c.Utilization <= 0 || c.Utilization > 1.1 {
			t.Errorf("%s/%s %s vs %s: utilization %v implausible",
				c.Topology, c.Condition, c.A, c.B, c.Utilization)
		}
		if c.Ratio <= 0 {
			t.Errorf("%s/%s %s vs %s: ratio %v", c.Topology, c.Condition, c.A, c.B, c.Ratio)
		}
	}
}

// Packet pooling must be invisible to the physics on the parking lot
// exactly as it is on the dumbbell: pooled and unpooled runs of the same
// matrix subset produce deeply-equal cells (DESIGN.md §8 extended to the
// chain).
func TestMatrixParkingLotPoolDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	cfg := smallMatrixConfig()
	cfg.Algos = cfg.Algos[:2]
	cfg.Topologies = []string{TopoParkingLot}
	cfg.Conditions = []string{CondStatic, CondFaulted}
	cfg.Hops = 3
	cfg.OutageDur = 0.5
	pooled := Matrix(cfg)
	cfg.DisablePool = true
	unpooled := Matrix(cfg)
	if !reflect.DeepEqual(pooled, unpooled) {
		t.Fatalf("pooling changed parking-lot matrix results:\npooled:   %+v\nunpooled: %+v", pooled, unpooled)
	}
}

// The faulted condition must actually bite: a mid-run outage on the
// bottleneck path costs the pair throughput relative to the static run
// of the same duel.
func TestMatrixFaultedConditionBites(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	cfg := smallMatrixConfig()
	cfg.Algos = []AlgoSpec{TCPAlgo(0.5)}
	cfg.Topologies = []string{TopoDumbbell}
	cfg.Conditions = []string{CondStatic, CondFaulted}
	cfg.OutageDur = 2
	cells := Matrix(cfg)
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	static, faulted := cells[0], cells[1]
	if static.Condition != CondStatic || faulted.Condition != CondFaulted {
		t.Fatalf("unexpected cell order: %+v", cells)
	}
	if faulted.AMbps >= static.AMbps {
		t.Fatalf("outage did not reduce throughput: static %.3f Mbps, faulted %.3f Mbps",
			static.AMbps, faulted.AMbps)
	}
}

// MaxParkingLotHops is where the flow-id layout runs out: an oscillating
// parking-lot cell — cross flows, reverse traffic and the scenario CBR
// all wired — builds and runs at the bound, and one hop more collides
// with the reverse flow's id.
func TestParkingLotHopBound(t *testing.T) {
	cfg := smallMatrixConfig()
	cfg.fill()
	wire := func(hops int) {
		cfg.Hops = hops
		eng, _, flows, _ := wireMatrixCell(noCell, cfg, TopoParkingLot, CondOscillating, cfg.Algos[0], cfg.Algos[1])
		eng.RunUntil(0.5)
		if flows[0].SentBytes() == 0 {
			t.Errorf("%d hops: flow A sent nothing", hops)
		}
	}
	wire(MaxParkingLotHops)
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "already registered") {
			t.Fatalf("%d hops wired with %v, want a flow-id collision", MaxParkingLotHops+1, v)
		}
	}()
	wire(MaxParkingLotHops + 1)
}

// A degraded cell keeps its identifying fields so the table stays
// readable, and the sweep error is collected rather than fatal.
func TestMatrixDegradedCellBackfilled(t *testing.T) {
	withDeadline(t, 0)

	boom := AlgoSpec{
		Name: "BOOM",
		Make: func(eng *sim.Engine, d topology.Fabric, flow int) Flow {
			panic("matrix test bomb")
		},
	}

	cfg := smallMatrixConfig()
	cfg.Algos = []AlgoSpec{boom}
	cfg.Topologies = []string{TopoDumbbell}
	cfg.Conditions = []string{CondStatic}
	cells := Matrix(cfg)
	if len(cells) != 1 || !cells[0].Degraded {
		t.Fatalf("expected one degraded cell, got %+v", cells)
	}
	if cells[0].Topology != TopoDumbbell || cells[0].A != "BOOM" || cells[0].B != "BOOM" {
		t.Fatalf("degraded cell lost its identity: %+v", cells[0])
	}
	tsv := RenderMatrixTSV(cells)
	if !strings.Contains(tsv, "BOOM\tBOOM") || !strings.Contains(tsv, "\ttrue\n") {
		t.Fatalf("degraded cell not rendered: %q", tsv)
	}
	if errs := SweepErrors(); len(errs) == 0 {
		t.Fatal("degraded cell recorded no RunError")
	}
}

// ParseAlgoList is the -matrix CLI surface; it must round-trip the
// documented specs and reject junk.
func TestParseAlgoList(t *testing.T) {
	algos, err := ParseAlgoList("tcp:0.5, tfrc:8, sqrt, cbr:2.5e6, tear, rap:0.125, iiad, tfrc+sc:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"TCP(1/2)", "TFRC(8)", "SQRT(1/2)", "CBR(2.5M)", "TEAR", "RAP(1/8)", "IIAD(1/2)", "TFRC(4)+SC"}
	if len(algos) != len(want) {
		t.Fatalf("got %d algos, want %d", len(algos), len(want))
	}
	for i, a := range algos {
		if a.Name != want[i] {
			t.Errorf("algos[%d].Name = %q, want %q", i, a.Name, want[i])
		}
	}
	if _, err := ParseAlgoList("tcp,vegas"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := ParseAlgoList(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := ParseAlgoSpec("tcp:abc"); err == nil {
		t.Fatal("bad argument accepted")
	}
}

// A matrix cell runs ~10 ms, so what its set-up allocates is a visible
// share of a cold sweep, and of how often the collector's write barrier
// is up while cells run. The ceilings are the set-up as measured (21152
// and 40576 B) plus a tenth. It was 64016 and 190976 B while every demux
// held a dense table up to flow id 990 (16 KB each) and the engine and
// every RED queue seeded a 4864 B generator at construction: one of
// either coming back trips this.
func TestMatrixCellSetupBytes(t *testing.T) {
	defer auditMode(auditMode(false, "")) // the auditor's books are not the scenario's
	cfg := MatrixConfig{Seed: 1}
	cfg.fill()
	a, b := cfg.Algos[0], cfg.Algos[1] // TCP(1/2) against TFRC(8)
	for _, tc := range []struct {
		topo    string
		ceiling uint64
	}{
		{TopoDumbbell, 24000},
		{TopoParkingLot, 44000},
	} {
		// The oscillating condition wires the most: the pair, reverse
		// traffic, cross traffic on the chain, and the CBR on id 990.
		// TotalAlloc is process-wide, so anything else allocating in the
		// background only adds: take the least of a few builds.
		least := uint64(math.MaxUint64)
		for rep := 0; rep < 5; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			eng, _, _, _ := wireMatrixCell(noCell, cfg, tc.topo, CondOscillating, a, b)
			runtime.ReadMemStats(&m1)
			runtime.KeepAlive(eng)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		if least > tc.ceiling {
			t.Errorf("%s cell set-up allocated %d B, ceiling %d B", tc.topo, least, tc.ceiling)
		}
	}
}
