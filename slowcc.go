// Package slowcc is a packet-level network simulator and congestion
// control laboratory reproducing "Dynamic Behavior of Slowly-Responsive
// Congestion Control Algorithms" (Bansal, Balakrishnan, Floyd, Shenker —
// SIGCOMM 2001).
//
// It provides, from scratch and in pure Go:
//
//   - a deterministic discrete-event engine (NewEngine);
//   - links, DropTail and RED queues, scripted loss patterns, and one
//     topology builder: a chain of bottleneck hops (NewNet), of which
//     the paper's single-bottleneck dumbbell is the one-hop case with
//     the paper's defaults (NewDumbbell; its forward bottleneck is
//     Fwd[0], its reverse bottleneck Rev[0]);
//   - the paper's congestion control algorithms: window-based TCP(b)
//     with self-clocking/slow-start/timeouts, the SQRT and IIAD binomial
//     algorithms, rate-based RAP(b), and equation-based TFRC(k) with the
//     paper's conservative self-clocking option (TCP, SQRT, IIAD, RAP,
//     TFRC);
//   - ON/OFF CBR sources and flash-crowd workloads for dynamic
//     scenarios;
//   - the paper's metrics (stabilization time and cost, delta-fair
//     convergence, f(k) utilization, smoothness); and
//   - one experiment driver per figure of the paper (Fig3 ... Fig20).
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
//
// The experiment drivers in internal/exp are re-exported here under the
// same names the paper uses; the slowccsim command wraps them all.
package slowcc

import (
	"io"
	"log/slog"

	"slowcc/internal/exp"
	"slowcc/internal/faults"
	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
	"slowcc/internal/obs/journey"
	"slowcc/internal/obs/probe"
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

// QueueKind selects the engine's event-queue implementation. Both kinds
// produce the identical event order for a given seed and schedule; the
// calendar queue is what NewEngine uses, the heap the reference the
// differential tests construct explicitly.
type QueueKind = sim.QueueKind

const (
	// CalendarQueue is the default time-bucketed event queue.
	CalendarQueue = sim.CalendarQueue
	// HeapQueue is the 4-ary min-heap reference.
	HeapQueue = sim.HeapQueue
)

// NewEngineWithQueue is NewEngine with an explicit event-queue
// implementation, for cross-checking the two queues against each other.
func NewEngineWithQueue(seed int64, kind QueueKind) *Engine {
	return sim.NewWithQueue(seed, kind)
}

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

// ExplicitZero is the sentinel that config fields with a non-zero
// default (bottleneck delay, access delay, RED minimum threshold)
// accept to mean a literal zero rather than "use the default".
const ExplicitZero = topology.ExplicitZero

// Fabric is the topology interface algorithms wire onto, so a flow
// never knows how many bottlenecks it crosses.
type Fabric = topology.Fabric

// NetConfig configures the parking-lot chain topology: K bottleneck
// hops in series, each with its own rate, delay, and queue discipline,
// plus shared access-link parameters.
type NetConfig = topology.NetConfig

// NetHop describes one bottleneck hop of a parking-lot chain.
type NetHop = topology.Hop

// Net is the instantiated parking-lot chain. Cross traffic can enter
// and leave at interior nodes via PathFwd/PathRev.
type Net = topology.Net

// NewNet builds a parking-lot chain on eng; a one-hop chain is the
// dumbbell under the chain's link names (fwd0, rev0).
func NewNet(eng *Engine, cfg NetConfig) *Net { return topology.NewNet(eng, cfg) }

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

// SQRT returns the SQRT binomial algorithm with decrease scale b.
func SQRT(b float64) Algorithm { return exp.SQRTAlgo(b) }

// IIAD returns the IIAD binomial algorithm with decrease scale b.
func IIAD(b float64) Algorithm { return exp.IIADAlgo(b) }

// RAP returns the rate-based AIMD algorithm RAP(b).
func RAP(b float64) Algorithm { return exp.RAPAlgo(b) }

// TFRC returns TFRC(k) per the options.
func TFRC(o TFRCOptions) Algorithm { return exp.TFRCAlgo(o) }

// TEAR returns TCP Emulation At Receivers with EWMA gain alpha
// (0 selects the default 0.1).
func TEAR(alpha float64) Algorithm { return exp.TEARAlgo(alpha) }

// ECNTCP returns TCP(b) with ECN enabled; pair it with a dumbbell whose
// DumbbellConfig.ECN is set.
func ECNTCP(b float64) Algorithm { return exp.ECNTCPAlgo(b) }

// Packet is a simulated packet.
type Packet = netem.Packet

// Handler consumes packets.
type Handler = netem.Handler

// DropPattern scripts deterministic losses (see CountPattern and
// TimedPattern in this package).
type DropPattern = netem.DropPattern

// CountPattern drops one packet after every Intervals[i] arrivals,
// cycling.
type CountPattern = netem.CountPattern

// TimedPattern cycles through timed drop phases.
type TimedPattern = netem.TimedPattern

// TimedPhase is one phase of a TimedPattern.
type TimedPhase = netem.TimedPhase

// FaultConfig describes deterministic fault injection at a link:
// outage windows, up/down flapping, and probabilistic corruption,
// duplication, and reordering. The zero value is disabled.
type FaultConfig = faults.Config

// FaultInjector applies a FaultConfig to a link from its own seeded RNG
// stream; wired but disabled it attaches nothing, so the run is
// event-for-event identical to an uninstrumented one.
type FaultInjector = faults.Injector

// FaultWindow is one scheduled outage.
type FaultWindow = faults.Window

// NewFaultInjector returns an injector for eng; pass it as
// DumbbellConfig.Fault. Panics if cfg is invalid (see ParseFaultSpec).
func NewFaultInjector(eng *Engine, cfg FaultConfig) *FaultInjector { return faults.New(eng, cfg) }

// ParseFaultSpec parses the CLI fault syntax, e.g.
// "down:25+5;corrupt:0.001;seed:7" or "none".
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

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

// Summary holds descriptive statistics of a sample (mean, stddev,
// percentiles, 95% CI) for aggregating multi-seed results.
type Summary = metrics.Summary

// Summarize computes descriptive statistics of a sample.
func Summarize(xs []float64) Summary { return metrics.Summarize(xs) }

// JainIndex returns Jain's fairness index of the given allocations.
func JainIndex(xs []float64) float64 { return metrics.JainIndex(xs) }

// Tracer records per-packet events (sends, receipts, drops, ECN marks)
// and exports them as TSV or binned rate series. Attach LinkTap to a
// link or wrap a handler with WrapHandler.
type Tracer = trace.Recorder

// TraceEvent is one recorded packet event.
type TraceEvent = trace.Event

// TraceOp is a trace event type.
type TraceOp = trace.Op

// Trace event operations.
const (
	TraceSend = trace.Send
	TraceRecv = trace.Recv
	TraceDrop = trace.Drop
	TraceMark = trace.Mark
)

// SACKTCP returns TCP(b) with selective-acknowledgment recovery, the
// closest match to the paper's ns-2 Sack1 agents.
func SACKTCP(b float64) Algorithm { return exp.SACKTCPAlgo(b) }

// CBR returns an unresponsive constant-bit-rate flow at rate bits/s,
// the interaction matrix's baseline competitor.
func CBR(rate float64) Algorithm { return exp.CBRAlgo(rate) }

// ParseAlgo parses the CLI algorithm syntax shared by slowcctrace
// -flow and slowccsim -matrix: name[:arg], e.g. "tcp:0.5", "tfrc:8",
// "tear", "cbr:2.5e6".
func ParseAlgo(spec string) (Algorithm, error) { return exp.ParseAlgoSpec(spec) }

// AlgoSyntax is the help text for that syntax: one line per algorithm,
// with its argument's domain and default.
func AlgoSyntax() string { return exp.AlgoSyntax() }

// ParseAlgoList parses a comma-separated list of algorithm specs.
func ParseAlgoList(list string) ([]Algorithm, error) { return exp.ParseAlgoList(list) }

// MatrixConfig drives the N x N pairwise algorithm interaction matrix
// across conditions (static, oscillating, faulted) and topologies
// (dumbbell, parking-lot).
type MatrixConfig = exp.MatrixConfig

// MatrixCell is one duel's outcome in the interaction matrix.
type MatrixCell = exp.MatrixCell

// Matrix runs the pairwise interaction sweep.
func Matrix(cfg MatrixConfig) []MatrixCell { return exp.Matrix(cfg) }

// RenderMatrix renders the human-readable ratio grids.
func RenderMatrix(cfg MatrixConfig, cells []MatrixCell) string { return exp.RenderMatrix(cfg, cells) }

// RenderMatrixTSV renders the deterministic TSV artifact.
func RenderMatrixTSV(cells []MatrixCell) string { return exp.RenderMatrixTSV(cells) }

// Observability layer (internal/obs; see DESIGN.md §9): periodic state
// probes over cc internals, named monotonic counters over the core, a
// flight recorder for post-mortem dumps, and deterministic run
// manifests.

// ProbeVar is one observable scalar exposed by a component.
type ProbeVar = probe.Var

// Sampler snapshots registered probe variables on a fixed simulated
// cadence, piggybacking on the engine's event stream (Install) so
// sampling never changes a run's event sequence.
type Sampler = obs.Sampler

// NewSampler returns a sampler with the given cadence in simulated
// seconds (<= 0 disabled).
func NewSampler(interval Time) *Sampler { return obs.NewSampler(interval) }

// ProbeSample is one probed value.
type ProbeSample = obs.Sample

// CounterRegistry collects named monotonic counters from the simulator
// core; Net.Observe registers a whole topology.
type CounterRegistry = obs.Registry

// FlightRecorder keeps a fixed ring of recent packet events, probe
// samples, and notes for post-mortem dumps.
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder returns a recorder retaining the last n records.
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// Manifest is a deterministic record of one run (config, seed, event
// count, counters, output digests).
type Manifest = obs.Manifest

// ReadManifest parses a manifest file, verifying its digest.
func ReadManifest(path string) (*Manifest, error) { return obs.ReadManifest(path) }

// DigestBytes returns the hex sha256 of b, the hash Manifest.Outputs
// entries use.
func DigestBytes(b []byte) string { return obs.DigestBytes(b) }

// RenderReport renders manifests and probe series into a comparison
// table (the cmd/slowccreport output).
func RenderReport(ms []*Manifest, samples [][]ProbeSample) string {
	return obs.RenderReport(ms, samples)
}

// ReadProbeTSV parses a probe TSV written by Sampler.WriteTSV.
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
// internal/obs; see DESIGN.md §12): per-hop packet journeys, HDR-style
// histograms, and Chrome trace-event JSON (Perfetto-loadable)
// timelines.

// JourneyRecorder captures per-packet, per-hop spans (enqueue, head of
// line, transmission, delivery or drop) and attributes every delivered
// packet's end-to-end delay into queueing, transmission, and
// propagation, exactly. Attach one with Net.ObserveJourneys before
// wiring flows; a nil recorder attaches nothing and leaves the run
// event-for-event identical.
type JourneyRecorder = journey.Recorder

// NewJourneyRecorder returns an empty journey recorder.
func NewJourneyRecorder() *JourneyRecorder { return journey.New() }

// JourneySpan is one packet's residency at one hop.
type JourneySpan = journey.Span

// JourneyHop summarizes one hop's deliveries, drops, and delay
// components.
type JourneyHop = journey.HopSummary

// Histogram is a log-bucketed HDR-style histogram: fixed memory,
// zero-allocation Record, mergeable, with quantiles bounded by bucket
// resolution (12.5%) and exact count/sum/max. The zero value is ready
// to use.
type Histogram = obs.Histogram

// HistogramSummary is a rendered histogram snapshot (count, mean, p50,
// p90, p99, max), the form manifests carry.
type HistogramSummary = obs.HistSummary

// Timeline accumulates Chrome trace-event JSON spans from journey
// recorders (sim time) and sweep supervision (wall time); load the
// written file in Perfetto or chrome://tracing.
type Timeline = obs.Timeline

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// ValidateTimeline checks a trace-event JSON document and returns its
// event count.
func ValidateTimeline(blob []byte) (int, error) { return obs.ValidateTimeline(blob) }

// ReadTimelineFile validates a timeline JSON file and returns its
// event count.
func ReadTimelineFile(path string) (int, error) { return obs.ReadTimelineFile(path) }

// SetSweepTimeline installs a timeline that supervised sweeps (Matrix,
// the figure drivers) emit per-cell telemetry spans into — queued,
// running, retry, degraded — or nil to remove it. Returns the previous
// timeline.
func SetSweepTimeline(tl *Timeline) (prev *Timeline) { return exp.SetSweepTimeline(tl) }

// ReadTraceTSV parses a packet trace written by Tracer.WriteTSV,
// accepting both the current seven-column (with hop identity) and the
// legacy six-column layout.
func ReadTraceTSV(r io.Reader) ([]TraceEvent, error) { return trace.ReadTSV(r) }

// ParseMatrixTSV parses a RenderMatrixTSV artifact back into cells.
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

// Live telemetry export (internal/obs/export; see DESIGN.md §14):
// Prometheus text exposition of counters, histograms, and probe gauges,
// an embeddable HTTP server with /metrics, /healthz, an SSE sweep
// progress feed, and pprof, and a rolling digest over the engine's
// executed event stream.

// StreamDigest is a zero-allocation rolling FNV-1a fingerprint of an
// engine's executed event stream: attach with Engine.SetStreamDigest
// (one nil check per event when absent) and compare Sum() across runs —
// equal digests mean the identical event sequence executed in the
// identical order.
type StreamDigest = sim.StreamDigest

// ExportServer serves live run telemetry over HTTP: /metrics
// (Prometheus text exposition v0.0.4), /healthz, /progress (SSE sweep
// cell events), and /debug/pprof. slowccsim -serve wraps it.
type ExportServer = export.Server

// ExportCollector merges per-cell telemetry snapshots (counters,
// histograms, stream digests) into the run-wide families /metrics
// exposes.
type ExportCollector = export.Collector

// ExportProgress fans sweep cell lifecycle events out to SSE
// subscribers and keeps the queued/running/done/degraded counts
// /healthz reports.
type ExportProgress = export.Progress

// NewExportServer wires the full export stack — collector, progress
// sink, HTTP server — and installs the progress sink into supervised
// sweeps. Call Start on the returned server, and SetSweepProgress(nil)
// to detach the sink when done.
func NewExportServer() (*ExportServer, *ExportCollector, *ExportProgress) {
	col := export.NewCollector()
	prog := export.NewProgress(col)
	exp.SetSweepProgress(prog)
	return export.NewServer(col, prog), col, prog
}

// SetSweepProgress installs a sink receiving supervised-sweep lifecycle
// events and per-cell telemetry snapshots (or nil to remove it);
// returns the previous sink. ExportProgress implements the interface.
func SetSweepProgress(sink obs.SweepSink) (prev obs.SweepSink) { return exp.SetSweepProgress(sink) }

// SetSweepLogger installs a structured logger that supervised sweeps
// emit per-attempt records into (or nil to remove it); returns the
// previous logger.
func SetSweepLogger(l *slog.Logger) (prev *slog.Logger) { return exp.SetSweepLogger(l) }

// WritePrometheus renders a counter registry and an optional probe
// sampler as Prometheus text exposition format v0.0.4.
func WritePrometheus(w io.Writer, reg *CounterRegistry, s *Sampler) error {
	return export.WritePrometheus(w, reg, s)
}

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

// ResultEntry is one stored sweep cell; its Result and Stats are raw
// JSON, and CellStats() decodes the telemetry.
type ResultEntry = store.Entry

// OpenStore opens (or creates) a result store directory for reading and
// writing, repairing any torn journal tail left by a crash.
func OpenStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// OpenStoreReadOnly opens a result store for inspection without
// repairing or writing anything (cmd/slowccreport -store).
func OpenStoreReadOnly(dir string) (*ResultStore, error) { return store.OpenReadOnly(dir) }

// SetSweepStore installs the result store supervised sweeps commit
// cells into; with replay true, previously completed cells are served
// from the store instead of recomputed. Returns the previous store.
func SetSweepStore(s *ResultStore, replay bool) (prev *ResultStore) {
	return exp.SetSweepStore(s, replay)
}
