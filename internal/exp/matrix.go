package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"slowcc/internal/cc/cbr"
	"slowcc/internal/faults"
	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Matrix condition and topology names (the two sweep axes beyond the
// algorithm pair itself).
const (
	CondStatic      = "static"      // no competing load beyond the pair
	CondOscillating = "oscillating" // square-wave CBR shares the bottleneck
	CondFaulted     = "faulted"     // a deterministic mid-run link outage

	TopoDumbbell   = "dumbbell"
	TopoParkingLot = "parking-lot"
)

// crossFlowBase offsets parking-lot cross-traffic flow ids away from the
// matrix pair (1..2F), reverse traffic (900+), and the scenario CBR
// (990).
const crossFlowBase = 800

// MaxParkingLotHops is the most bottlenecks a parking lot can have: its
// K-1 cross flows take the ids from crossFlowBase+1 up, and the last of
// them must stay below reverse traffic's first.
const MaxParkingLotHops = reverseFlowBase - crossFlowBase

// MatrixConfig drives the N x N algorithm interaction matrix: every
// ordered pair of algorithms competes head-to-head under each condition
// on each topology, and the cell records fairness, smoothness, and
// utilization. The paper studies pairs against TCP; the matrix closes
// the loop by also measuring slowly-responsive algorithms against each
// other, where neither side supplies TCP's sawtooth probing.
type MatrixConfig struct {
	// Algos are the competitors; every ordered pair (A, B) including
	// A == A runs as one cell. Empty uses DefaultMatrixAlgos.
	Algos []AlgoSpec
	// Conditions selects among static, oscillating, faulted. Empty runs
	// all three.
	Conditions []string
	// Topologies selects among dumbbell, parking-lot. Empty runs both.
	Topologies []string
	// Hops is the parking-lot bottleneck count (default 3, at most
	// MaxParkingLotHops; ignored for the dumbbell).
	Hops int
	// Rate is the per-bottleneck bandwidth (default 10 Mbps).
	Rate float64
	// CBRPeak is the oscillating condition's square-wave peak (default
	// Rate/2) and Period its full period (default 2 s).
	CBRPeak float64
	Period  sim.Time
	// OutageDur is the faulted condition's outage length (default 1 s);
	// the outage opens at Warmup + Measure/3, on the dumbbell's forward
	// bottleneck or the parking lot's middle hop.
	OutageDur sim.Time
	// Warmup and Measure set the timeline (defaults 10 s and 40 s).
	Warmup, Measure sim.Time
	// Seed seeds every cell (cells differ by wiring, not seed, like the
	// other sweep drivers).
	Seed int64
	// DisablePool turns off packet pooling (determinism cross-check).
	DisablePool bool
}

// DefaultMatrixAlgos is the paper's cast: TCP, the equation-based and
// binomial slowly-responsive algorithms, TEAR, and the unresponsive CBR
// baseline.
func DefaultMatrixAlgos() []AlgoSpec {
	return []AlgoSpec{
		TCPAlgo(0.5),
		TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}),
		RAPAlgo(0.5),
		SQRTAlgo(0.5),
		IIADAlgo(0.5),
		TEARAlgo(0),
		CBRAlgo(2.5e6),
	}
}

// A matrix cell is a true pairwise duel, matrixFlowsPerSide flows per
// algorithm, beside matrixReverseFlows reverse-path TCP flows so ACKs
// always share a loaded return path; matrixSmoothBin is the rate-meter
// bin width for the smoothness metric.
const (
	matrixFlowsPerSide          = 1
	matrixReverseFlows          = 1
	matrixSmoothBin    sim.Time = 1
)

// crossRate is the parking-lot cross-traffic rate per interior node, a
// quarter of the bottleneck: one CBR flow enters each interior node and
// leaves at the next, loading exactly one hop.
func (c *MatrixConfig) crossRate() float64 { return c.Rate / 4 }

func (c *MatrixConfig) fill() {
	if len(c.Algos) == 0 {
		c.Algos = DefaultMatrixAlgos()
	}
	if len(c.Conditions) == 0 {
		c.Conditions = []string{CondStatic, CondOscillating, CondFaulted}
	}
	if len(c.Topologies) == 0 {
		c.Topologies = []string{TopoDumbbell, TopoParkingLot}
	}
	if c.Hops == 0 {
		c.Hops = 3
	}
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	if c.CBRPeak == 0 {
		c.CBRPeak = c.Rate / 2
	}
	if c.Period == 0 {
		c.Period = 2
	}
	if c.OutageDur == 0 {
		c.OutageDur = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 10
	}
	if c.Measure == 0 {
		c.Measure = 40
	}
}

// MatrixCell is one duel's outcome.
type MatrixCell struct {
	Topology  string
	Condition string
	A, B      string
	// AMbps and BMbps are mean per-flow throughputs in Mbit/s.
	AMbps, BMbps float64
	// Ratio is AMbps/BMbps (0 when B starved entirely).
	Ratio float64
	// Jain is Jain's fairness index over all the cell's flows.
	Jain float64
	// SmoothA and SmoothB are mean per-flow coefficients of variation
	// of the 1-second receive rate over the measurement window (lower
	// is smoother).
	SmoothA, SmoothB float64
	// Utilization is the first bottleneck's carried load over capacity
	// during the measurement window (all traffic classes included).
	Utilization float64
	// Degraded marks a cell that panicked or was halted by its run
	// budget (its event count or its wall-clock deadline); its metrics
	// are zero.
	Degraded bool
}

// Matrix runs the full sweep through the supervised parallel runner and
// returns cells ordered topology-major, then condition, then A, then B.
// A cell that degrades (RunError) comes back Degraded, labelled, with
// its RunError in sw.Errors rather than aborting the sweep.
func (sw *Sweep) Matrix(cfg MatrixConfig) []MatrixCell {
	cfg.fill()
	// Cell i's coordinates: topology-major, then condition, then A, then B.
	nA, nC := len(cfg.Algos), len(cfg.Conditions)
	at := func(i int) (topo, cond string, a, b AlgoSpec) {
		return cfg.Topologies[i/(nA*nA*nC)], cfg.Conditions[i/(nA*nA)%nC], cfg.Algos[i/nA%nA], cfg.Algos[i%nA]
	}
	// Matrix cells carry semantic store keys — a per-cell
	// slowcc-manifest/1 digest over every knob that shapes the run — so
	// a resumed or re-invoked sweep recognizes completed cells no matter
	// how the surrounding flags reordered the sweep. The worker that
	// serves or runs a cell keys it.
	keyer := matrixCellKeyer(cfg)
	key := func(i int) string { return keyer(at(i)) }
	cells := supervisedMapKeyed(sw, len(cfg.Topologies)*nC*nA*nA, key, func(sc *Cell) MatrixCell {
		topo, cond, a, b := at(sc.Index())
		return runMatrixCell(sc, cfg, topo, cond, a, b)
	})
	for i := range cells {
		if cells[i].Topology == "" { // zero value: the cell degraded
			topo, cond, a, b := at(i)
			cells[i] = MatrixCell{Topology: topo, Condition: cond, A: a.Name, B: b.Name, Degraded: true}
		}
	}
	return cells
}

// matrixCellKeyer returns the function that builds a cell's durable
// identity: the sha256 digest of a slowcc-manifest/1 record over every
// configuration knob that shapes the cell's run. Two invocations that
// would compute the same cell — same pair, condition, topology, rates,
// timeline, seed — produce the same key, so the result store can serve
// one's work to the other; any knob change changes the key and forces
// a recompute. The manifest is marshalled once, here, with a
// placeholder for each of the four per-cell strings, and every
// topology, condition and algorithm name cfg holds is JSON-quoted here
// too; the returned function splices the quoted values into that
// template in a buffer of its own, so it hashes the bytes
// Manifest.ComputeDigest would. It writes no shared state and is safe
// for concurrent use; a value cfg does not hold is quoted per call.
func matrixCellKeyer(cfg MatrixConfig) func(topo, cond string, a, b AlgoSpec) string {
	m := obs.NewManifest("slowccsim.matrix-cell", cfg.Seed)
	m.DurationS = float64(cfg.Warmup + cfg.Measure)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	slots := [4]string{"\x00topology", "\x00condition", "\x00algo_a", "\x00algo_b"}
	m.Algos = []string{slots[2], slots[3]}
	// flows_per_side, reverse_flows, cross_rate and smooth_bin are
	// constants, kept in the manifest under these names so that stores
	// written while they were settings keep hitting.
	m.Config = map[string]string{
		"topology":       slots[0],
		"condition":      slots[1],
		"algo_a":         slots[2],
		"algo_b":         slots[3],
		"hops":           strconv.Itoa(cfg.Hops),
		"rate":           g(cfg.Rate),
		"flows_per_side": strconv.Itoa(matrixFlowsPerSide),
		"reverse_flows":  strconv.Itoa(matrixReverseFlows),
		"cbr_peak":       g(cfg.CBRPeak),
		"period":         g(float64(cfg.Period)),
		"cross_rate":     g(cfg.crossRate()),
		"outage_dur":     g(float64(cfg.OutageDur)),
		"warmup":         g(float64(cfg.Warmup)),
		"measure":        g(float64(cfg.Measure)),
		"smooth_bin":     g(float64(matrixSmoothBin)),
		"disable_pool":   strconv.FormatBool(cfg.DisablePool),
	}
	quoted := map[string][]byte{}
	for _, vs := range [][]string{slots[:], cfg.Topologies, cfg.Conditions} {
		for _, v := range vs {
			quoted[v] = mustJSON(v)
		}
	}
	for _, a := range cfg.Algos {
		quoted[a.Name] = mustJSON(a.Name)
	}
	quote := func(v string) []byte {
		if q, ok := quoted[v]; ok {
			return q
		}
		return mustJSON(v)
	}
	// Cut the template at each placeholder, in order of appearance.
	tmpl := mustJSON(m)
	type part struct {
		lit  []byte
		slot int // index into the per-cell values; -1 after the last
	}
	var parts []part
	for {
		at, slot := len(tmpl), -1
		for i, s := range slots {
			if j := bytes.Index(tmpl, quoted[s]); j >= 0 && j < at {
				at, slot = j, i
			}
		}
		parts = append(parts, part{tmpl[:at], slot})
		if slot < 0 {
			break
		}
		tmpl = tmpl[at+len(quoted[slots[slot]]):]
	}
	return func(topo, cond string, a, b AlgoSpec) string {
		vals := [4]string{topo, cond, a.Name, b.Name}
		var stack [1024]byte // a default-matrix manifest is ~450 bytes
		buf := stack[:0]
		for _, p := range parts {
			buf = append(buf, p.lit...)
			if p.slot >= 0 {
				buf = append(buf, quote(vals[p.slot])...)
			}
		}
		return obs.DigestBytes(buf)
	}
}

// mustJSON marshals a value that cannot fail to marshal.
func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("exp: marshal: %v", err))
	}
	return blob
}

// wireMatrixCell builds a cell's engine, topology and traffic — all of
// its set-up, none of its run — and returns what the run reads: the
// first bottleneck, side A's matrixFlowsPerSide flows then side B's, and a
// receive-rate meter per flow.
func wireMatrixCell(c *Cell, cfg MatrixConfig, topo, cond string, a, b AlgoSpec) (*sim.Engine, *netem.Link, []Flow, []*metrics.Meter) {
	// The condition axis owns fault wiring: a zero (disabled) config
	// overrides any globally-installed -fault configuration, so static
	// and oscillating cells stay fault-free no matter the CLI state.
	fc := &faults.Config{}
	if cond == CondFaulted {
		fc = &faults.Config{Windows: []faults.Window{
			{At: cfg.Warmup + cfg.Measure/3, Dur: cfg.OutageDur},
		}}
	}

	// The dumbbell is the one-hop case: no interior node, so no cross
	// traffic, and the fault lands on its only bottleneck.
	hops := 1
	var chain *topology.NetConfig
	if topo == TopoParkingLot {
		hops = cfg.Hops
		chain = &topology.NetConfig{Hops: make([]topology.Hop, hops), DisablePool: cfg.DisablePool}
		for i := range chain.Hops {
			chain.Hops[i].Rate = cfg.Rate
		}
	}
	eng, d := c.buildScenario(cfg.Seed,
		topology.Config{Rate: cfg.Rate, DisablePool: cfg.DisablePool}, chain, fc, hops/2)
	// Cross traffic: one CBR flow per interior node, each spanning
	// exactly one hop, so interior bottlenecks see load the first
	// hop never carries — the parking lot's defining asymmetry.
	for m := 1; m < hops; m++ {
		withCBR(eng, d, crossFlowBase+m, cfg.crossRate(), nil, topology.Span{From: m, To: m + 1})
	}

	F := matrixFlowsPerSide
	flows := append(a.flows(d, 1, F), b.flows(d, F+1, F)...)
	meters := make([]*metrics.Meter, len(flows))
	for i, f := range flows {
		meters[i] = metrics.NewMeter(eng, matrixSmoothBin, f.RecvBytes)
	}
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, matrixReverseFlows)
	if cond == CondOscillating {
		withCBR(eng, d, cbrFlowID, cfg.CBRPeak, cbr.SquareWave{Period: cfg.Period}, topology.Span{})
	}
	return eng, d.Fwd[0], flows, meters
}

func runMatrixCell(c *Cell, cfg MatrixConfig, topo, cond string, a, b AlgoSpec) MatrixCell {
	eng, bottleneck, flows, meters := wireMatrixCell(c, cfg, topo, cond, a, b)
	F := matrixFlowsPerSide

	// The bottleneck's carried bytes ride along after the flows'.
	got := measureWindow(eng, cfg.Warmup, cfg.Warmup+cfg.Measure, flows,
		func() int64 { return bottleneck.Stats.Bytes })

	perBps := make([]float64, len(flows))
	for i := range flows {
		perBps[i] = bitsPerSec(got[i], cfg.Measure)
	}
	skip := int(cfg.Warmup / matrixSmoothBin)
	cell := MatrixCell{
		Topology:    topo,
		Condition:   cond,
		A:           a.Name,
		B:           b.Name,
		AMbps:       mean(perBps[:F]) / 1e6,
		BMbps:       mean(perBps[F:]) / 1e6,
		Jain:        metrics.JainIndex(perBps),
		SmoothA:     meanCoV(meters[:F], skip),
		SmoothB:     meanCoV(meters[F:], skip),
		Utilization: metrics.Utilization(got[len(flows)], cfg.Rate, cfg.Measure),
	}
	if cell.BMbps > 0 {
		cell.Ratio = cell.AMbps / cell.BMbps
	}
	return cell
}

// meanCoV averages the coefficient of variation of each meter's rate
// series over the measurement window (the first skip bins are warmup).
func meanCoV(ms []*metrics.Meter, skip int) float64 {
	var covs []float64
	for _, m := range ms {
		rs := m.Rates()
		if skip < len(rs) {
			rs = rs[skip:]
		} else {
			rs = nil
		}
		covs = append(covs, metrics.ComputeSmoothness(rs).CoV)
	}
	return mean(covs)
}

// RenderMatrixTSV formats the cells as a deterministic tab-separated
// table (one row per cell, stable column order and float formatting), so
// byte-identical inputs always produce byte-identical artifacts. A
// float is written as fmt's %.6g writes it.
func RenderMatrixTSV(cells []MatrixCell) string {
	var sb strings.Builder
	sb.Grow(len(matrixTSVHeader) + 1 + len(cells)*160)
	sb.WriteString(matrixTSVHeader + "\n")
	var row [256]byte // one row is assembled here, then written whole
	for _, c := range cells {
		b := row[:0]
		for _, s := range [...]string{c.Topology, c.Condition, c.A, c.B} {
			b = append(append(b, s...), '\t')
		}
		for _, v := range [...]float64{c.AMbps, c.BMbps, c.Ratio, c.Jain, c.SmoothA, c.SmoothB, c.Utilization} {
			b = append(strconv.AppendFloat(b, v, 'g', 6, 64), '\t')
		}
		sb.Write(append(strconv.AppendBool(b, c.Degraded), '\n'))
	}
	return sb.String()
}

// RenderMatrix prints the human view: one throughput-ratio grid (row
// algorithm over column algorithm) per topology x condition, with mean
// utilization and fairness beneath each grid.
func RenderMatrix(cfg MatrixConfig, cells []MatrixCell) string {
	cfg.fill()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pairwise interaction matrix: row/column mean throughput ratio\n")
	fmt.Fprintf(&sb, "(%d Mbps bottlenecks, %g s measured after %g s warmup; parking lot: %d hops)\n",
		int(cfg.Rate/1e6), float64(cfg.Measure), float64(cfg.Warmup), cfg.Hops)
	type key struct{ topo, cond string }
	grids := make(map[key][]MatrixCell)
	for _, c := range cells {
		k := key{c.Topology, c.Condition}
		grids[k] = append(grids[k], c)
	}
	for _, t := range cfg.Topologies {
		for _, cond := range cfg.Conditions {
			g := grids[key{t, cond}]
			if len(g) == 0 {
				continue
			}
			fmt.Fprintf(&sb, "\n[%s / %s]\n", t, cond)
			fmt.Fprintf(&sb, "%-12s", "")
			for _, b := range cfg.Algos {
				fmt.Fprintf(&sb, " %10s", b.Name)
			}
			sb.WriteByte('\n')
			i := 0
			var util, jain float64
			var ok int
			for _, a := range cfg.Algos {
				fmt.Fprintf(&sb, "%-12s", a.Name)
				for range cfg.Algos {
					c := g[i]
					i++
					if c.Degraded {
						fmt.Fprintf(&sb, " %10s", "degraded")
						continue
					}
					util += c.Utilization
					jain += c.Jain
					ok++
					fmt.Fprintf(&sb, " %10.2f", c.Ratio)
				}
				sb.WriteByte('\n')
			}
			if ok > 0 {
				fmt.Fprintf(&sb, "mean utilization %.2f, mean Jain index %.2f over %d cells\n",
					util/float64(ok), jain/float64(ok), ok)
			}
		}
	}
	return sb.String()
}

// matrixExperiment runs the matrix over cfg — whatever of the
// algorithms, topologies and hop count the invocation overrode
// (slowccsim -matrix, -topology) — and prints the grids followed by the
// TSV artifact. Reduced scale measures 12 s after a 3 s warmup under a
// 1 s oscillation.
func matrixExperiment(sw *Sweep, full bool, seed int64, cfg MatrixConfig) (string, any) {
	cfg.Seed = seed
	if !full {
		cfg.Warmup = 3
		cfg.Measure = 12
		cfg.Period = 1
	}
	cells := sw.Matrix(cfg)
	return RenderMatrix(cfg, cells) + "\n" + RenderMatrixTSV(cells), cells
}
