package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"slowcc/internal/faults"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// releaseMatrix is a small matrix that builds both net shapes, each with
// and without the oscillating CBR: sixteen cells whose queues, packet
// pools and generators differ in size from cell to cell.
func releaseMatrix(algos ...AlgoSpec) MatrixConfig {
	return MatrixConfig{
		Algos:      algos,
		Conditions: []string{CondStatic, CondOscillating},
		Topologies: []string{TopoDumbbell, TopoParkingLot},
		Hops:       2,
		Rate:       2e6,
		Warmup:     1, Measure: 4, Period: 1, Seed: 1,
	}
}

// storedCells runs cfg into a fresh store and returns each key's stored
// result and telemetry bytes.
func storedCells(t *testing.T, cfg MatrixConfig) map[string][2][]byte {
	t.Helper()
	sw, st := storeSweep(t)
	sw.Matrix(cfg)
	out := map[string][2][]byte{}
	for _, e := range st.Entries() {
		out[e.Key] = [2][]byte{e.Result, e.Stats}
	}
	return out
}

// A released cell's free lists reach whatever cell its worker runs next,
// so they must not reach its results. Each run below starts from pools a
// figure sweep stocked, runs on one worker or two, and in the reversed
// run every worker meets the cells in another order after other cells:
// each key must still carry the same result and telemetry bytes.
func TestCarriedStateNeverReachesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	sw := newSweep(t)
	tcp, tfrc := TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true})
	var want map[string][2][]byte
	for _, run := range []struct {
		procs int
		algos []AlgoSpec
	}{
		{1, []AlgoSpec{tcp, tfrc}},
		{2, []AlgoSpec{tcp, tfrc}},
		{1, []AlgoSpec{tfrc, tcp}},
		{2, []AlgoSpec{tfrc, tcp}},
	} {
		prev := runtime.GOMAXPROCS(run.procs)
		sw.Oscillation(OscillationConfig{Flows: 3, Rate: 3e6, CBRPeak: 2e6,
			Periods: []sim.Time{0.5, 2}, Warmup: 1, Measure: 3, Seed: 5})
		got := storedCells(t, releaseMatrix(run.algos...))
		runtime.GOMAXPROCS(prev)
		if len(got) != 16 {
			t.Fatalf("GOMAXPROCS %d: store holds %d cells, want 16", run.procs, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok || !bytes.Equal(g[0], w[0]) || !bytes.Equal(g[1], w[1]) {
				t.Fatalf("GOMAXPROCS %d, algos %s first: cell %s differs:\nresult %s\nwant   %s\nstats  %s\nwant   %s",
					run.procs, run.algos[0].Name, key, g[0], w[0], g[1], w[1])
			}
		}
	}
}

// A cell that panicked keeps its nets: it may have died mid-operation.
// A released engine holds nothing pending, so the engines' pending
// timers tell released from kept.
func TestFailedAttemptsKeepTheirNets(t *testing.T) {
	t.Parallel()
	var eng *sim.Engine
	build := func(c *Cell) {
		var d *topology.Net
		eng, d = c.newScenario(1, topology.Config{Rate: 1e6})
		f := TCPAlgo(0.5).Make(eng, d, 1)
		eng.At(0, f.Sender.Start)
		eng.RunUntil(2)
	}

	sw := newSweep(t)
	if _, rerr := supervise(sw, 0, func(c *Cell) int { build(c); return 0 }); rerr != nil {
		t.Fatal(rerr)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("a successful cell's engine still holds %d timers: not released", n)
	}

	if _, rerr := supervise(sw, 1, func(c *Cell) int { build(c); panic("poisoned") }); rerr == nil {
		t.Fatal("panicking cell returned no RunError")
	}
	if eng.Pending() == 0 {
		t.Fatal("a panicked cell's engine was released")
	}
}

// balanced fails the test unless every packet net's pool handed out
// came back: Put's guard panics on a packet returned twice, so a balance
// reached without a trip means each came back exactly once.
func balanced(t *testing.T, what string, n *topology.Net) {
	t.Helper()
	if p := n.Pool; p.Gets != p.Puts || p.GuardTrips != 0 {
		t.Fatalf("%s: pool handed out %d packets and got %d back after Release (%d double releases)",
			what, p.Gets, p.Puts, p.GuardTrips)
	}
}

// A released cell's pool gets back every packet still in flight: queued,
// on a link's wire, propagating, or held back by a fault stage. The TCP
// dumbbell stops with a standing queue, behind a reorder stage that
// holds packets in timers of its own; the parking-lot matrix cell runs
// TFRC, whose packets carry feedback.
func TestReleaseReturnsEveryPacket(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	var d *topology.Net
	var out, queued int64
	if _, rerr := supervise(sw, 0, func(c *Cell) int {
		var eng *sim.Engine
		eng, d = c.buildScenario(1, topology.Config{Rate: 1e6}, nil,
			&faults.Config{ReorderProb: 0.2, ReorderDelay: 0.05}, 0)
		for i := 1; i <= 4; i++ {
			eng.At(0, TCPAlgo(0.5).Make(eng, d, i).Sender.Start)
		}
		eng.RunUntil(5)
		out, queued = d.Pool.Gets-d.Pool.Puts, int64(d.Fwd[0].Q.Len())
		return 0
	}); rerr != nil {
		t.Fatal(rerr)
	}
	if queued == 0 || out <= queued {
		t.Fatalf("the dumbbell stopped with %d packets out, %d of them queued: want a standing queue and more in flight", out, queued)
	}
	balanced(t, "TCP dumbbell", d)

	cfg := releaseMatrix(TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}), TCPAlgo(0.5))
	cfg.fill()
	var nets []*topology.Net
	var outs []int64
	if _, rerr := supervise(sw, 1, func(c *Cell) MatrixCell {
		cell := runMatrixCell(c, cfg, TopoParkingLot, CondOscillating, cfg.Algos[0], cfg.Algos[1])
		nets = c.nets
		for _, n := range nets {
			outs = append(outs, n.Pool.Gets-n.Pool.Puts)
		}
		return cell
	}); rerr != nil {
		t.Fatal(rerr)
	}
	for i, n := range nets {
		if outs[i] == 0 {
			t.Fatalf("parking-lot net %d had no packet out when released", i)
		}
		balanced(t, "TFRC parking lot", n)
	}
}

// Over a whole default matrix every cell's pool balances after release
// and no packet is returned twice. The cells run as Sweep.Matrix runs
// them, unkeyed, so the test can hold on to each cell's nets.
func TestMatrixReleasesBalanceEveryPool(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	defer auditMode(auditMode(false, "")) // the pools are what is checked, not the auditor's books
	sw := newSweep(t)
	cfg := MatrixConfig{Warmup: 1, Measure: 3, Seed: 1}
	cfg.fill()
	nA, nC := len(cfg.Algos), len(cfg.Conditions)
	nets := make([][]*topology.Net, len(cfg.Topologies)*nC*nA*nA)
	supervisedMap(sw, len(nets), func(c *Cell) bool {
		i := c.Index()
		runMatrixCell(c, cfg, cfg.Topologies[i/(nA*nA*nC)], cfg.Conditions[i/(nA*nA)%nC], cfg.Algos[i/nA%nA], cfg.Algos[i%nA])
		nets[i] = c.nets
		return true
	})
	for i, ns := range nets {
		if len(ns) == 0 {
			t.Fatalf("cell %d built no net", i)
		}
		for _, n := range ns {
			balanced(t, fmt.Sprintf("matrix cell %d", i), n)
		}
	}
}

// The gain, pinned. Cells built outside a sweep are never released, so
// eight of them run from empty free lists; the same eight cells in a
// sweep that follows an identical one run on the lists it left, and on
// the timers and packets its cells still had in flight. With the
// collector off, so nothing parked is lost, the sweep allocates at most
// an eighth of the bytes: 0.109 of them, measured, and 0.150 while a
// release still dropped what was in flight.
func TestSecondSweepAllocatesHalf(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	defer auditMode(auditMode(false, "")) // the auditor's books are built per cell, not carried
	sw := newSweep(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The benchmark's matrix cells: a pair on each net shape.
	cfg := MatrixConfig{Algos: []AlgoSpec{TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true})},
		Conditions: []string{CondOscillating}, Warmup: 1, Measure: 3, Period: 1, Seed: 1}
	cfg.fill()
	// Two collections empty every pool.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(run func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	cold := allocated(func() {
		for _, topo := range cfg.Topologies {
			for _, a := range cfg.Algos {
				for _, b := range cfg.Algos {
					runMatrixCell(noCell, cfg, topo, CondOscillating, a, b)
				}
			}
		}
	})
	sw.Matrix(cfg)
	var cells []MatrixCell
	stocked := allocated(func() { cells = sw.Matrix(cfg) })
	if len(cells) != 8 || slices.ContainsFunc(cells, func(c MatrixCell) bool { return c.Degraded }) {
		t.Fatalf("%d cells, or a degraded one", len(cells))
	}
	limit, share := cold/8, "an eighth"
	if raceDetector() {
		// Its sync.Pool drops a random quarter of what it is given.
		limit, share = cold*3/4, "three quarters"
	}
	if stocked > limit {
		t.Fatalf("the stocked sweep allocated %d B, the eight cells from empty %d B: want at most %s", stocked, cold, share)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
