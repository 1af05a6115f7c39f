package exp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
	"slowcc/internal/sim"
	"slowcc/internal/store"
	"slowcc/internal/topology"
)

// newStore opens a fresh result store for one test, closed at its end.
func newStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storeSweep returns a test's Sweep recording into a fresh store, and
// the store; the test sets Replay when it resumes.
func storeSweep(t *testing.T) (*Sweep, *store.Store) {
	t.Helper()
	sw := newSweep(t)
	sw.Store = newStore(t)
	return sw, sw.Store
}

// tinyMatrix is the fastest meaningful matrix: two algorithms, one
// condition, one topology — four cells, five simulated seconds each.
func tinyMatrix(seed int64) MatrixConfig {
	return MatrixConfig{
		Algos:      []AlgoSpec{TCPAlgo(0.5), CBRAlgo(1e6)},
		Conditions: []string{CondStatic},
		Topologies: []string{TopoDumbbell},
		Rate:       2e6,
		Warmup:     1, Measure: 4, Seed: seed,
	}
}

func TestMatrixResumeServesFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	sw, st := storeSweep(t)

	tsvCold := RenderMatrixTSV(sw.Matrix(tinyMatrix(1)))
	if st.Len() != 4 {
		t.Fatalf("store holds %d cells after the sweep, want 4", st.Len())
	}
	for _, e := range st.Entries() {
		if e.Degraded || len(e.Result) == 0 {
			t.Fatalf("stored cell %s: degraded=%v result=%d bytes", e.Key, e.Degraded, len(e.Result))
		}
		if cs, err := e.CellStats(); err != nil || cs == nil || cs.Events == 0 {
			t.Fatalf("stored cell %s has no telemetry snapshot (%v)", e.Key, err)
		}
	}

	// Resume: same config, replay on — every cell must be served from
	// the store and the TSV artifact must be byte-identical.
	sw.Replay = true
	if got := RenderMatrixTSV(sw.Matrix(tinyMatrix(1))); got != tsvCold {
		t.Fatalf("replayed TSV differs from the cold run:\n%s\nvs\n%s", got, tsvCold)
	}
	if st.Hits() != 4 {
		t.Fatalf("hits = %d, want 4", st.Hits())
	}

	// A different seed keys differently and must not be served stale
	// seed-1 results.
	if RenderMatrixTSV(sw.Matrix(tinyMatrix(2))) == tsvCold {
		t.Fatal("seed-2 sweep replayed seed-1 results: keys are not seed-sensitive")
	}
}

func TestMatrixResumeRecomputesOnlyMissingCells(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	sw, st := storeSweep(t)
	tsvCold := RenderMatrixTSV(sw.Matrix(tinyMatrix(1)))

	// Build a partial store — as a SIGKILL mid-sweep would leave — by
	// copying all but one completed cell into a fresh directory.
	partial, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	entries := st.Entries()
	for _, e := range entries[:len(entries)-1] {
		if err := partial.Put(*e); err != nil {
			t.Fatal(err)
		}
	}
	sw.Store, sw.Replay = partial, true
	if got := RenderMatrixTSV(sw.Matrix(tinyMatrix(1))); got != tsvCold {
		t.Fatalf("resumed TSV differs from the uninterrupted run:\n%s\nvs\n%s", got, tsvCold)
	}
	if partial.Hits() != 3 {
		t.Fatalf("hits = %d, want 3 (exactly one cell recomputes)", partial.Hits())
	}
	if partial.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", partial.Misses())
	}
	if partial.Len() != 4 {
		t.Fatalf("recomputed cell not committed: store holds %d, want 4", partial.Len())
	}
}

// A store reads a cell's telemetry once, after the job has returned, so
// it gets what is free to keep — the nets' counters and the event
// count — and never the stream digest, which is work on every event: DESIGN §9.5's "consulted per sweep cell, never per event".
func TestStoreAloneNeverInstallsADigest(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	sw, st := storeSweep(t)

	// What the cell's engine ran with: a nil digest slot (buildScenario
	// installs one only for a sink).
	_, rerr := supervise(sw, 0, func(c *Cell) int {
		runCellScenario(c, 1)
		if len(c.nets) != 1 {
			t.Errorf("store-only cell recorded %d nets, want 1", len(c.nets))
		}
		if len(c.digests) != 0 {
			t.Error("store-only cell installed a stream digest: the store is paying per event")
		}
		return 1
	})
	if rerr != nil {
		t.Fatalf("cell failed: %v", rerr)
	}

	sw.Matrix(tinyMatrix(1))
	if st.Len() != 4 {
		t.Fatalf("store holds %d cells after the sweep, want 4", st.Len())
	}
	for _, e := range st.Entries() {
		cs, err := e.CellStats()
		if err != nil || cs == nil {
			t.Fatalf("stored cell %s has no telemetry snapshot (%v)", e.Key, err)
		}
		if cs.Events == 0 || len(cs.Counters) == 0 {
			t.Fatalf("stored cell %s lost what a store is owed: %+v", e.Key, cs)
		}
		if cs.DigestEvents != 0 || cs.Digest != 0 {
			t.Fatalf("stored cell %s records digest %016x over %d events with no sink attached",
				e.Key, cs.Digest, cs.DigestEvents)
		}
	}
}

// A served resume over a store an unserved run wrote replays the cells
// as recorded: every hit stands, nothing is recomputed to backfill the
// digest the cold run never took, and /metrics says how much of the
// event stream the digest covers instead.
func TestCachedCellsEmitCachedLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	sw, st := storeSweep(t)
	sw.Matrix(tinyMatrix(1))
	var coldEvents uint64
	for _, e := range st.Entries() {
		cs, err := e.CellStats()
		if err != nil || cs == nil {
			t.Fatalf("stored cell %s has no telemetry snapshot (%v)", e.Key, err)
		}
		coldEvents += cs.Events
	}

	sink := &recordingSink{}
	sw.Replay, sw.Progress = true, sink
	sw.Matrix(tinyMatrix(1))

	if st.Hits() != 4 || st.Misses() != 0 || st.Corrupt() != 0 {
		t.Fatalf("hits=%d misses=%d corrupt=%d, want 4, 0, 0: a digestless entry is a hit, not a stale one",
			st.Hits(), st.Misses(), st.Corrupt())
	}
	for i := 0; i < 4; i++ {
		if !kindsEqual(sink.cellKinds(i), obs.SweepQueued, obs.SweepCached) {
			t.Fatalf("cached cell %d lifecycle = %v, want queued, cached", i, sink.cellKinds(i))
		}
	}
	if len(sink.stats) != 4 {
		t.Fatalf("replayed %d CellStats, want 4", len(sink.stats))
	}
	col := export.NewCollector()
	for _, cs := range sink.stats {
		if cs.Events == 0 || len(cs.Counters) == 0 {
			t.Fatalf("replayed stats lost telemetry: %+v", cs)
		}
		if cs.DigestEvents != 0 || cs.Digest != 0 {
			t.Fatalf("replay invented a digest the cold run never took: %+v", cs)
		}
		col.AddCellStats(cs)
	}
	var buf bytes.Buffer
	if err := col.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := export.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sample := func(name string) uint64 {
		f := fams[export.PromName(name)]
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("/metrics has no single-sample family %s", export.PromName(name))
		}
		return uint64(f.Samples[0].Value)
	}
	if got := sample("engine_events_total"); got != coldEvents || got == 0 {
		t.Fatalf("/metrics replays %d engine events, the cold run executed %d", got, coldEvents)
	}
	if got := sample("stream_digest_events_total"); got != 0 {
		t.Fatalf("/metrics claims the digest covers %d events of a run that folded none", got)
	}
}

// A hit's telemetry is only known to sit in a checksummed frame: Put
// refuses telemetry that does not decode, but Open does not decode it.
// With no sink nobody reads it and the hit stands; with a sink attached
// it must decode before the hit is accepted, or the cell is counted
// corrupt and recomputed — the stale-result rule, applied to telemetry.
func TestUndecodableTelemetryIsRefusedOnlyWhenASinkReadsIt(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	sw, st := storeSweep(t)
	tsvCold := RenderMatrixTSV(sw.Matrix(tinyMatrix(1)))

	var journal []byte
	for _, e := range st.Entries() {
		journal = append(journal, storeFrame(t, e.Key, e.Index, e.Result, []byte(`{"Counters":"not a map"}`))...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.bin"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()

	sw.Store, sw.Replay = bad, true
	if got := RenderMatrixTSV(sw.Matrix(tinyMatrix(1))); got != tsvCold {
		t.Fatalf("sinkless replay TSV differs from the cold run:\n%s\nvs\n%s", got, tsvCold)
	}
	if bad.Hits() != 4 || bad.Misses() != 0 || bad.Corrupt() != 0 {
		t.Fatalf("no sink: hits=%d misses=%d corrupt=%d, want 4, 0, 0 (telemetry unread)",
			bad.Hits(), bad.Misses(), bad.Corrupt())
	}

	sink := &recordingSink{}
	sw.Progress = sink
	if got := RenderMatrixTSV(sw.Matrix(tinyMatrix(1))); got != tsvCold {
		t.Fatalf("recomputed TSV differs from the cold run:\n%s\nvs\n%s", got, tsvCold)
	}
	if bad.Corrupt() != 4 {
		t.Fatalf("sink attached: corrupt = %d, want all 4 hits refused", bad.Corrupt())
	}
	for i := 0; i < 4; i++ {
		kinds := sink.cellKinds(i)
		if len(kinds) == 0 || kinds[len(kinds)-1] != obs.SweepDone {
			t.Fatalf("cell %d lifecycle = %v, want a computed cell (… done), not a cached one", i, kinds)
		}
	}
	if len(sink.stats) != 4 {
		t.Fatalf("sink saw %d CellStats, want the 4 recomputed cells'", len(sink.stats))
	}
	// The recompute committed telemetry that decodes.
	for _, e := range bad.Entries() {
		if cs, err := e.CellStats(); err != nil || cs == nil || cs.Events == 0 {
			t.Fatalf("recomputed cell %s stored no usable telemetry (%v)", e.Key, err)
		}
	}
}

// storeFrame builds a store frame by hand, as a damaged or foreign
// writer could leave one: u32 payload length, u32 CRC-32C of the
// payload, then the u32-prefixed head, the u32-prefixed result and the
// stats. The head is encoded from a struct of the store's head shape.
func storeFrame(t *testing.T, key string, index int, result, stats []byte) []byte {
	t.Helper()
	head, err := store.Encode(struct {
		Schema, Key     string
		Index, Attempts int
		Degraded        bool
		Error           string
	}{Schema: store.Schema, Key: key, Index: index, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(head)))
	p = append(p, head...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(result)))
	p = append(p, result...)
	p = append(p, stats...)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, p...)
}

// A stored result that does not decode passes Open, which checks only
// its frame's checksum and head, and fails where it is used: the replay
// counts it corrupt, recomputes that one cell, and renders the cold TSV.
func TestUnparsedStoredResultIsRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	sw, st := storeSweep(t)
	tsvCold := RenderMatrixTSV(sw.Matrix(tinyMatrix(1)))
	victim := st.Entries()[1]
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(st.Dir(), "journal.bin"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(storeFrame(t, victim.Key, victim.Index, []byte(`{"Topology":`), nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 4 || re.Corrupt() != 0 {
		t.Fatalf("reopened: %d entries, %d corrupt; want 4, 0", re.Len(), re.Corrupt())
	}
	sw.Store, sw.Replay = re, true
	if got := RenderMatrixTSV(sw.Matrix(tinyMatrix(1))); got != tsvCold {
		t.Fatalf("replayed TSV differs from the cold run:\n%s\nvs\n%s", got, tsvCold)
	}
	if re.Hits() != 4 || re.Corrupt() != 1 {
		t.Fatalf("hits=%d corrupt=%d, want 4 (one of them refused), 1", re.Hits(), re.Corrupt())
	}
	// The recompute committed a result that decodes.
	for _, e := range re.Entries() {
		if _, ok := decodeStored[MatrixCell](e); !ok {
			t.Fatalf("cell %s still holds %q", e.Key, e.Result)
		}
	}
}

// parentMatrixCellKey is matrixCellKey as it stood before the keyer
// formatted the run-constant knobs once per Matrix call: the reference
// every key must still equal, or existing stores stop hitting.
func parentMatrixCellKey(cfg MatrixConfig, topo, cond string, a, b AlgoSpec) string {
	m := obs.NewManifest("slowccsim.matrix-cell", cfg.Seed)
	m.DurationS = float64(cfg.Warmup + cfg.Measure)
	m.Algos = []string{a.Name, b.Name}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	m.Config = map[string]string{
		"topology":       topo,
		"condition":      cond,
		"algo_a":         a.Name,
		"algo_b":         b.Name,
		"hops":           strconv.Itoa(cfg.Hops),
		"rate":           g(cfg.Rate),
		"flows_per_side": strconv.Itoa(matrixFlowsPerSide),
		"reverse_flows":  strconv.Itoa(matrixReverseFlows),
		"cbr_peak":       g(cfg.Rate / 2),
		"period":         g(float64(cfg.Period)),
		"cross_rate":     g(cfg.Rate / 4),
		"outage_dur":     g(float64(cfg.OutageDur)),
		"warmup":         g(float64(cfg.Warmup)),
		"measure":        g(float64(cfg.Measure)),
		"smooth_bin":     g(float64(matrixSmoothBin)),
		"disable_pool":   strconv.FormatBool(cfg.DisablePool),
	}
	return m.ComputeDigest()
}

func TestMatrixCellKeysUnchanged(t *testing.T) {
	t.Parallel()
	cfg := MatrixConfig{Seed: 1, Warmup: 1, Measure: 3, Period: 1}
	cfg.fill()
	key := matrixCellKeyer(cfg)
	al := cfg.Algos // TCP(1/2) TFRC(8) RAP(1/2) SQRT(1/2) IIAD(1/2) TEAR CBR(2.5M)
	// Recorded from the parent commit's matrixCellKey.
	for _, pin := range []struct {
		topo, cond string
		a, b       AlgoSpec
		want       string
	}{
		{TopoDumbbell, CondStatic, al[0], al[1], "ec5043a5dd87d73ec90461b3c1b22318f360ed694abbd95c23b200a25ae7d4d0"},
		{TopoParkingLot, CondOscillating, al[2], al[6], "db15a38735e8fa1189bb25250dca2a719171a1ce021ce81257e2f2ba37ffb456"},
		{TopoDumbbell, CondFaulted, al[5], al[5], "b77c459b089f5566c5357a217f9ff2fa2c0c70ee48836946a6e40da03c87084d"},
	} {
		if got := key(pin.topo, pin.cond, pin.a, pin.b); got != pin.want {
			t.Errorf("%s/%s %s vs %s: key %s, want %s", pin.topo, pin.cond, pin.a.Name, pin.b.Name, got, pin.want)
		}
	}
	// Every cell of the default matrix and of the resume tests' matrix,
	// in sweep order (the keyer reuses one manifest across calls).
	tiny := tinyMatrix(1)
	tiny.fill()
	for _, cfg := range []MatrixConfig{cfg, tiny} {
		key := matrixCellKeyer(cfg)
		for _, topo := range cfg.Topologies {
			for _, cond := range cfg.Conditions {
				for _, a := range cfg.Algos {
					for _, b := range cfg.Algos {
						if got, want := key(topo, cond, a, b), parentMatrixCellKey(cfg, topo, cond, a, b); got != want {
							t.Fatalf("%s/%s %s vs %s: key %s, parent's %s", topo, cond, a.Name, b.Name, got, want)
						}
					}
				}
			}
		}
	}
}

// One keyer serves every worker of a sweep: called from 8 goroutines at
// once, over the default matrix and the resume tests' matrix, it gives
// the keys a serial pass gives, and a value the config does not hold
// still keys as the parent's per-cell manifest did.
func TestMatrixCellKeyerConcurrent(t *testing.T) {
	t.Parallel()
	def := MatrixConfig{Seed: 1, Warmup: 1, Measure: 3, Period: 1}
	tiny := tinyMatrix(1)
	for _, cfg := range []MatrixConfig{def, tiny} {
		cfg.fill()
		type cell struct {
			topo, cond string
			a, b       AlgoSpec
		}
		var cells []cell
		for _, topo := range cfg.Topologies {
			for _, cond := range cfg.Conditions {
				for _, a := range cfg.Algos {
					for _, b := range cfg.Algos {
						cells = append(cells, cell{topo, cond, a, b})
					}
				}
			}
		}
		serial := make([]string, len(cells))
		for i, c := range cells {
			serial[i] = matrixCellKeyer(cfg)(c.topo, c.cond, c.a, c.b)
		}
		key := matrixCellKeyer(cfg)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < len(cells); r++ {
					i := (r + g*len(cells)/8) % len(cells) // each goroutine starts elsewhere
					c := cells[i]
					if got := key(c.topo, c.cond, c.a, c.b); got != serial[i] {
						errs <- fmt.Sprintf("goroutine %d, cell %d: key %s, serial %s", g, i, got, serial[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		outside := AlgoSpec{Name: "NOT-IN-CONFIG \"quoted\""}
		if got, want := key(TopoParkingLot, "no-such-condition", outside, cfg.Algos[0]),
			parentMatrixCellKey(cfg, TopoParkingLot, "no-such-condition", outside, cfg.Algos[0]); got != want {
			t.Errorf("a value outside the config keys as %s, parent's %s", got, want)
		}
	}
}

// A key costs one allocation: the digest string it returns.
func TestAllocsMatrixCellKey(t *testing.T) {
	cfg := MatrixConfig{Seed: 1, Warmup: 1, Measure: 3, Period: 1}
	cfg.fill()
	key := matrixCellKeyer(cfg)
	if avg := testing.AllocsPerRun(100, func() {
		key(TopoParkingLot, CondOscillating, cfg.Algos[2], cfg.Algos[6])
	}); avg != 1 {
		t.Fatalf("a matrix cell key allocates %v times, want 1", avg)
	}
}

func BenchmarkMatrixCellKey(b *testing.B) {
	cfg := MatrixConfig{Seed: 1, Warmup: 1, Measure: 3, Period: 1}
	cfg.fill()
	key := matrixCellKeyer(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key(TopoDumbbell, CondStatic, cfg.Algos[0], cfg.Algos[1])
	}
}

func TestScopeKeyedSweepReplays(t *testing.T) {
	t.Parallel()
	sw, st := storeSweep(t)
	sw.Scope = "scope-A"

	var runs atomic.Int64
	compute := func(c *Cell) float64 {
		runs.Add(1)
		return float64(c.Index()) * 1.5
	}
	first := supervisedMap(sw, 3, compute)
	if runs.Load() != 3 || st.Len() != 3 {
		t.Fatalf("cold run: %d computes, %d stored; want 3, 3", runs.Load(), st.Len())
	}

	// Same scope in a new run, replay on: the sweep must not recompute
	// anything.
	warmSw := newSweep(t)
	warmSw.Store, warmSw.Replay, warmSw.Scope = st, true, "scope-A"
	warm := supervisedMap(warmSw, 3, compute)
	if runs.Load() != 3 {
		t.Fatalf("replay ran %d extra computes", runs.Load()-3)
	}
	for i := range first {
		if warm[i] != first[i] {
			t.Fatalf("cell %d: replayed %v, computed %v", i, warm[i], first[i])
		}
	}

	// A different scope keys differently: scope-B must not be served
	// scope-A's cells.
	warmSw.Scope = "scope-B"
	supervisedMap(warmSw, 3, compute)
	if runs.Load() != 6 {
		t.Fatalf("scope-B was served scope-A results (%d computes, want 6)", runs.Load())
	}
}

// A convergence trial round-trips JSON, so Figure 10's cells are stored
// and a second run of the same scope is served from them whole.
func TestFig10CellsReplay(t *testing.T) {
	t.Parallel()
	st := newStore(t)
	run := func() []ConvergenceResult {
		sw := newSweep(t)
		sw.Store, sw.Replay, sw.Scope = st, true, "fig10"
		return sw.Fig10(ConvergenceConfig{SecondStart: 5, Horizon: 10, Seeds: []int64{1}}, 16)
	}
	cold := run()
	if st.Len() != 4 || st.Hits() != 0 {
		t.Fatalf("cold run: %d stored, %d hits; want 4, 0", st.Len(), st.Hits())
	}
	misses := st.Misses()
	warm := run()
	if st.Hits() != 4 || st.Misses() != misses {
		t.Fatalf("warm run: %d hits, %d new misses; want 4, 0", st.Hits(), st.Misses()-misses)
	}
	if cold[len(cold)-1].Converged == 0 {
		t.Fatalf("no trial of %+v converged: the replay would compare zeros", cold)
	}
	if fmt.Sprint(warm) != fmt.Sprint(cold) {
		t.Fatalf("replayed %+v, computed %+v", warm, cold)
	}
}

// lossyResult has state the store cannot encode (an unexported field),
// so replaying it would rebuild artifacts that differ from a cold run's;
// the sweep must run it unkeyed (TestCodableGate).
type lossyResult struct {
	OK     bool
	hidden int
}

func TestLossyResultTypesAreNeverKeyed(t *testing.T) {
	t.Parallel()
	sw, st := storeSweep(t)
	sw.Replay, sw.Scope = true, "scope-lossy"
	out := supervisedMap(sw, 2, func(c *Cell) lossyResult {
		return lossyResult{OK: true, hidden: c.Index()}
	})
	if st.Len() != 0 {
		t.Fatalf("lossy result type was stored (%d entries)", st.Len())
	}
	if !out[0].OK || out[1].hidden != 1 {
		t.Fatalf("unkeyed sweep results wrong: %+v", out)
	}
}

func TestRequestStopSkipsRemainingCells(t *testing.T) {
	// Serial: one worker claims the cells in order.
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)
	sw := newSweep(t)

	var ran atomic.Int64
	out := supervisedMap(sw, 5, func(c *Cell) int {
		ran.Add(1)
		if c.Index() == 1 {
			sw.RequestStop()
		}
		return 100 + c.Index()
	})
	if ran.Load() != 2 {
		t.Fatalf("%d cells ran after the stop request, want 2", ran.Load())
	}
	if !sw.StopRequested() || sw.StoppedCells() != 3 {
		t.Fatalf("StopRequested %v, StoppedCells = %d, want true and 3", sw.StopRequested(), sw.StoppedCells())
	}
	// The stop is the Sweep's own: another Sweep runs every cell.
	other := newSweep(t)
	supervisedMap(other, 2, func(c *Cell) int { ran.Add(1); return 0 })
	if ran.Load() != 4 || other.StoppedCells() != 0 {
		t.Fatalf("a stop on one Sweep skipped another's cells (ran %d, stopped %d)", ran.Load(), other.StoppedCells())
	}
	if out[1] != 101 || out[2] != 0 {
		t.Fatalf("in-flight cell lost or skipped cell non-zero: %v", out)
	}
	if errs := sw.Errors(); len(errs) != 0 {
		t.Fatalf("graceful stop recorded errors: %v", errs)
	}
}

// A cell that built two engines, both halted by the event budget, names
// both halts, joined in construction order, in its RunError and its
// degraded event — not only the first engine's.
func TestHaltedCellNamesEveryEngineHalt(t *testing.T) {
	t.Parallel()
	sink := &recordingSink{}
	sw := newSweep(t)
	sw.Budget, sw.Progress = &sim.Budget{MaxEvents: 100}, sink

	supervisedMap(sw, 1, func(c *Cell) int {
		runCellScenario(c, 1)
		runCellScenario(c, 2)
		return 0
	})
	errs := sw.Errors()
	if len(errs) != 1 {
		t.Fatalf("Errors = %v, want the halted cell", errs)
	}
	halts := strings.Split(errs[0].Halt, "; ")
	if len(halts) != 2 || !strings.HasPrefix(halts[0], "max-events after 100 events") ||
		!strings.HasPrefix(halts[1], "max-events after 100 events") {
		t.Fatalf("Halt = %q, want both engines' halt reasons", errs[0].Halt)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if last := sink.events[len(sink.events)-1]; last.Kind != obs.SweepDegraded || last.Halt != errs[0].Halt {
		t.Fatalf("degraded event %+v does not carry %q", last, errs[0].Halt)
	}
	if len(sink.stats) != 0 {
		t.Fatalf("halted cell delivered CellStats: %+v", sink.stats)
	}
}

// A run budget halts every cell of a keyed sweep; the store records each
// as a degraded marker, so a resume without the budget serves none of
// them and recomputes every one, ending where a cold run does. Both
// keyings — a generic sweep's scope keys and Matrix's per-cell
// manifests, which do not include the budget — go the same way.
func TestHaltedCellsResumeAsMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweeps in -short mode")
	}
	t.Parallel()
	steps := func(c *Cell) uint64 {
		eng, d := c.newScenario(int64(c.Index()+1), topology.Config{Rate: 1e6})
		f := TCPAlgo(0.5).Make(eng, d, 1)
		eng.At(0, f.Sender.Start)
		eng.RunUntil(2)
		return eng.Steps()
	}
	for _, tc := range []struct {
		name  string
		cells int
		sweep func(sw *Sweep) string
	}{
		{"supervisedMap", 3, func(sw *Sweep) string {
			sw.Scope = "halted-then-resumed"
			return fmt.Sprint(supervisedMap(sw, 3, steps))
		}},
		{"Matrix", 4, func(sw *Sweep) string { return RenderMatrixTSV(sw.Matrix(tinyMatrix(1))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cold := tc.sweep(newSweep(t))

			sw, st := storeSweep(t)
			sw.Budget = &sim.Budget{MaxEvents: 100}
			halted := tc.sweep(sw)
			if errs := sw.Errors(); len(errs) != tc.cells {
				t.Fatalf("halted run degraded %d cells, want %d: %v", len(errs), tc.cells, errs)
			}
			if halted == cold {
				t.Fatal("the halted run matched the cold run: the budget halted nothing")
			}
			for _, e := range st.Entries() {
				if !e.Degraded || len(e.Result) != 0 || !strings.Contains(e.Error, "halted by its run budget") {
					t.Fatalf("halted cell stored as %+v, want a degraded marker", e)
				}
			}

			resumed := newSweep(t)
			resumed.Store, resumed.Replay = st, true
			if got := tc.sweep(resumed); got != cold {
				t.Fatalf("resumed run differs from the cold run:\n%s\nvs\n%s", got, cold)
			}
			if st.Hits() != 0 || st.Misses() != int64(tc.cells) {
				t.Fatalf("resume: %d hits, %d misses; want 0, %d", st.Hits(), st.Misses(), tc.cells)
			}
		})
	}
}
