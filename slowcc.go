// Package slowcc is a packet-level network simulator and congestion
// control laboratory reproducing "Dynamic Behavior of Slowly-Responsive
// Congestion Control Algorithms" (Bansal, Balakrishnan, Floyd, Shenker —
// SIGCOMM 2001).
//
// This package is what examples/ and the commands under cmd/ import:
// every exported name has a user there, in example_test.go or in
// README.md, and TestRootSurfaceHasUsers fails on one that does not
// (DESIGN.md §3.4). The subsystems themselves live under internal/:
//
//   - a deterministic discrete-event engine (NewEngine);
//   - links, DropTail and RED queues, scripted loss patterns
//     (CountPattern), and the paper's single-bottleneck dumbbell
//     (NewDumbbell; its forward bottleneck is Fwd[0], its reverse
//     bottleneck Rev[0]);
//   - the paper's congestion control algorithms: TCP(b) and TFRC(k) by
//     constructor, and the whole roster — SQRT, IIAD, RAP, TEAR, CBR —
//     by name through ParseAlgo;
//   - the paper's metrics (loss rate, smoothness) and per-packet
//     tracing, probes, journeys, timelines and run manifests; and
//   - the evaluation roster, Figures 3-20 with the ablations and
//     extensions (Experiments), plus the drivers the examples call.
//
// The quickest way in:
//
//	eng := slowcc.NewEngine(1)
//	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6})
//	tcp := slowcc.TCP(0.5).Make(eng, d, 1)
//	tfrc := slowcc.TFRC(slowcc.TFRCOptions{K: 8}).Make(eng, d, 2)
//	eng.At(0, tcp.Sender.Start)
//	eng.At(0, tfrc.Sender.Start)
//	eng.RunUntil(60)
//	fmt.Println(tcp.RecvBytes(), tfrc.RecvBytes())
package slowcc

import (
	"io"

	"slowcc/internal/exp"
	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
	"slowcc/internal/store"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// Engine is the discrete-event simulation engine. Time is in seconds.
type Engine = sim.Engine

// Time is a simulated timestamp or duration in seconds.
type Time = sim.Time

// NewEngine returns a deterministic engine seeded with seed.
func NewEngine(seed int64) *Engine { return sim.New(seed) }

// DumbbellConfig configures the single-bottleneck topology; the zero
// value reproduces the paper's defaults (10 Mbps, 50 ms RTT, RED with
// thresholds at 0.25/1.25 BDP, buffer 2.5 BDP).
type DumbbellConfig = topology.Config

// Dumbbell is the instantiated topology: the one-hop Net, with the
// forward bottleneck at Fwd[0] and the reverse bottleneck at Rev[0].
type Dumbbell = topology.Net

// NewDumbbell builds a dumbbell on eng; its links keep the paper's
// names (lr, rl) in registries, probes and journeys.
func NewDumbbell(eng *Engine, cfg DumbbellConfig) *Dumbbell { return topology.New(eng, cfg) }

// Flow bundles the endpoints of a wired flow.
type Flow = exp.Flow

// Algorithm is a named congestion control algorithm that can wire flows
// onto a dumbbell.
type Algorithm = exp.AlgoSpec

// TFRCOptions tunes the TFRC algorithm.
type TFRCOptions = exp.TFRCOpts

// TCP returns TCP(b): the full TCP machinery with TCP-compatible
// AIMD(b) window rules; TCP(0.5) is standard TCP.
func TCP(b float64) Algorithm { return exp.TCPAlgo(b) }

// TFRC returns TFRC(k) per the options.
func TFRC(o TFRCOptions) Algorithm { return exp.TFRCAlgo(o) }

// CountPattern drops one packet after every Intervals[i] arrivals,
// cycling.
type CountPattern = netem.CountPattern

// LossMonitor tallies arrivals and drops at a link in time bins.
type LossMonitor = metrics.LossMonitor

// NewLossMonitor returns a monitor with the given bin width; attach its
// Tap to a link.
func NewLossMonitor(width Time) *LossMonitor { return metrics.NewLossMonitor(width) }

// Meter samples a counter periodically into a rate series.
type Meter = metrics.Meter

// NewMeter starts sampling read() every width seconds.
func NewMeter(eng *Engine, width Time, read func() int64) *Meter {
	return metrics.NewMeter(eng, width, read)
}

// Smoothness summarizes rate variability; ComputeSmoothness evaluates a
// series.
type Smoothness = metrics.Smoothness

// ComputeSmoothness evaluates a rate series.
func ComputeSmoothness(rates []float64) Smoothness { return metrics.ComputeSmoothness(rates) }

// Tracer records per-packet events (sends, receipts, drops, ECN marks)
// and exports them as TSV or binned rate series. Attach its LinkTap to
// a link with AddTap.
type Tracer = trace.Recorder

// The trace event operations Tracer.Filter and Tracer.BinRates select by.
const (
	TraceRecv = trace.Recv
	TraceDrop = trace.Drop
	TraceMark = trace.Mark
)

// ParseAlgo parses the CLI algorithm syntax shared by slowcctrace
// -flow and slowccsim -matrix: name[:arg], e.g. "tcp:0.5", "tfrc:8",
// "tear", "cbr:2.5e6".
func ParseAlgo(spec string) (Algorithm, error) { return exp.ParseAlgoSpec(spec) }

// AlgoSyntax is the help text for that syntax: one line per algorithm,
// with its argument's domain and default.
func AlgoSyntax() string { return exp.AlgoSyntax() }

// MatrixCell is one duel's outcome in the interaction matrix.
type MatrixCell = exp.MatrixCell

// Observability (internal/obs; see DESIGN.md §9): probe series and
// deterministic run manifests, as cmd/slowccreport reads them.

// ProbeSample is one probed value.
type ProbeSample = obs.Sample

// Manifest is a deterministic record of one run (config, seed, event
// count, counters, output digests).
type Manifest = obs.Manifest

// ReadManifest parses a manifest file, verifying its schema and digest.
func ReadManifest(path string) (*Manifest, error) { return obs.ReadManifest(path) }

// DigestBytes returns the hex sha256 of b, the hash Manifest.Outputs
// entries use.
func DigestBytes(b []byte) string { return obs.DigestBytes(b) }

// RenderReport renders manifests and probe series into a comparison
// table (the cmd/slowccreport output).
func RenderReport(ms []*Manifest, samples [][]ProbeSample) string {
	return obs.RenderReport(ms, samples)
}

// ReadProbeTSV parses a probe TSV written by slowcctrace -probes.
func ReadProbeTSV(r io.Reader) ([]ProbeSample, error) { return obs.ReadSamplesTSV(r) }

// TraceRunConfig describes one ad-hoc traced run (the cmd/slowcctrace
// scenario): a flow mix on the paper's dumbbell with packet tracing,
// optional state probes, and a counter registry.
type TraceRunConfig = exp.TraceRunConfig

// TraceRun is a wired traced scenario; construct with NewTraceRun,
// call Run, then read Rec, Sampler, Registry, and Manifest.
type TraceRun = exp.TraceRun

// NewTraceRun wires a traced scenario without running it.
func NewTraceRun(cfg TraceRunConfig) *TraceRun { return exp.NewTraceRun(cfg) }

// Latency attribution and timeline export (internal/obs/journey and
// internal/obs; see DESIGN.md §12): per-hop packet journeys and Chrome
// trace-event JSON (Perfetto-loadable) timelines.

// JourneyRecorder captures per-packet, per-hop spans (enqueue, head of
// line, transmission, delivery or drop) and attributes every delivered
// packet's end-to-end delay into queueing, transmission, and
// propagation, exactly. Attach one with Dumbbell.ObserveJourneys before
// wiring flows; a nil recorder attaches nothing and leaves the run
// event-for-event identical.
type JourneyRecorder = journey.Recorder

// Timeline accumulates Chrome trace-event JSON spans from journey
// recorders (sim time) and sweep supervision (wall time); load the
// written file in Perfetto or chrome://tracing.
type Timeline = obs.Timeline

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// ReadTimelineFile validates a timeline JSON file and returns its
// event count.
func ReadTimelineFile(path string) (int, error) { return obs.ReadTimelineFile(path) }

// ParseMatrixTSV parses the TSV artifact slowccsim -exp matrix -tsv
// writes back into cells.
func ParseMatrixTSV(r io.Reader) ([]MatrixCell, error) { return exp.ParseMatrixTSV(r) }

// RenderMatrixHeatmap renders matrix cells as per-topology ASCII
// heatmaps of the chosen metric (see MatrixMetrics).
func RenderMatrixHeatmap(cells []MatrixCell, metric string) (string, error) {
	return exp.RenderMatrixHeatmap(cells, metric)
}

// RenderMatrixHeatmapSVG renders the same grids as a standalone SVG.
func RenderMatrixHeatmapSVG(cells []MatrixCell, metric string) (string, error) {
	return exp.RenderMatrixHeatmapSVG(cells, metric)
}

// MatrixMetrics lists the metrics heatmaps can shade.
func MatrixMetrics() []string { return exp.MatrixMetrics() }

// Prometheus text exposition (internal/obs/export; see DESIGN.md §14).

// WriteManifestPrometheus renders a sealed run manifest — counters,
// histogram summaries, run metadata — as Prometheus text exposition,
// the cmd/slowccreport -prom path.
func WriteManifestPrometheus(w io.Writer, m *Manifest) error { return export.WriteManifest(w, m) }

// ValidatePrometheus strictly parses Prometheus text exposition format,
// returning the family and sample counts; any type/grammar/duplicate
// violation is an error. CI uses it to gate scraped /metrics output.
func ValidatePrometheus(r io.Reader) (families, samples int, err error) {
	return export.Validate(r)
}

// ResultStore is the durable, crash-safe result store supervised sweeps
// commit finished cells into (slowccsim -store DIR); see internal/store
// and DESIGN.md §15.
type ResultStore = store.Store

// OpenStoreReadOnly opens a result store for inspection without
// repairing or writing anything (cmd/slowccreport -store).
func OpenStoreReadOnly(dir string) (*ResultStore, error) { return store.OpenReadOnly(dir) }
