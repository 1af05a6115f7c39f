// Command slowcctrace runs an ad-hoc mix of congestion-controlled flows
// on the paper's dumbbell and writes the full packet-level event trace
// (bottleneck accepts, drops, and ECN marks) as TSV for external
// plotting, plus a per-second rate table on stdout.
//
// Usage:
//
//	slowcctrace -flow tcp:0.5 -flow tfrc:8 -dur 30 -out trace.tsv
//	slowcctrace -flow tcp:0.5 -flow tcp:0.125 -rate 5e6 -dur 60
//	slowcctrace -flow tcp:0.5 -flow tfrc:8 -probe 0.1 -probes probes.tsv -manifest run.json
//
// A flow spec is key[:arg], an algorithm of the roster and its
// parameter; slowcctrace -h lists the keys with each argument's domain
// and default, generated from the roster itself (exp.AlgoSyntax).
//
// State probes: -probe I samples every flow's internal state (cwnd and
// srtt for the windowed algorithms, sending rate for the rate-based
// ones, the TFRC receiver's loss-event rate p) plus the RED queues'
// average/instantaneous occupancy and drop probability every I
// simulated seconds, without perturbing the run — the sampler
// piggybacks on the event stream, so the packet schedule is identical
// with probes on or off. -probes writes the samples as TSV
// (t, probe, var, value); plot cwnd of flow 1 with e.g.
//
//	awk -F'\t' '$2=="flow1.TCP(1/2)" && $3=="cwnd"' probes.tsv
//
// -manifest writes a deterministic JSON run manifest (config, seed,
// algorithms, event count, counters, sha256 digests of the written
// trace/probe files); cmd/slowccreport renders one or more manifests
// side by side.
//
// -journeys records per-packet, per-hop journey spans and prints a
// latency attribution table: each hop's exact queueing, transmission,
// and propagation delay sums, which tile the measured end-to-end delay
// of every delivered packet. Journey histograms (per-hop queue delay
// and drop-burst lengths, per-flow ACK RTT) flow into the manifest.
// -timeline additionally writes the spans as Chrome trace-event JSON:
//
//	slowcctrace -flow tcp:0.5 -flow tfrc:8 -journeys -timeline tl.json
//
// then load tl.json in Perfetto (ui.perfetto.dev) or chrome://tracing:
// one lane per hop, one row per flow, with queue/tx/prop microseconds
// on every span.
//
// -digest folds every executed event (time, sequence, ordering kind)
// into a rolling FNV-1a fingerprint and prints it. Two runs that print
// the same digest executed the same event stream in the same order, so
// the flag turns "are these runs identical?" into a string compare, say
// between two builds of a refactor; the manifest records it as
// stream_digest. (The calendar and heap schedulers are held to one
// stream by the root package's pinned-stream table.) The event queue's
// shape (ring size, bucket width, the year they span, far-tier
// residents and pops, fixed-delay lanes and the events in them) goes to
// stderr alongside, so a calendar whose year is shorter than the
// topology's delays, or link deliveries back in the calendar, are
// visible without a profiler.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"slowcc/internal/exp"
	"slowcc/internal/faults"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/trace"
)

// flowList collects repeated -flow flags.
type flowList []string

func (f *flowList) String() string { return strings.Join(*f, ",") }

func (f *flowList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var flows flowList
	flag.Var(&flows, "flow", "flow spec key[:arg] (repeatable), e.g. tcp:0.5, tfrc:8, tear; one of\n"+exp.AlgoSyntax())
	var (
		rate     = flag.Float64("rate", 10e6, "bottleneck bandwidth, bits/s")
		dur      = flag.Float64("dur", 30, "simulated duration, seconds")
		seed     = flag.Int64("seed", 1, "simulation seed")
		out      = flag.String("out", "", "TSV trace output path (omit to skip)")
		ecn      = flag.Bool("ecn", false, "ECN-marking bottleneck")
		probe    = flag.Float64("probe", 0, "state-probe sampling interval, seconds (0 disables)")
		probeOut = flag.String("probes", "", "probe TSV output path (default <out>.probes.tsv when -probe is set with -out)")
		manifest = flag.String("manifest", "", "run-manifest JSON output path (omit to skip)")
		fault    = flag.String("fault", "", "fault spec for the forward bottleneck, e.g. 'down:10+2;corrupt:0.001' (see internal/faults)")
		journeys = flag.Bool("journeys", false, "record per-hop packet journeys and print the latency attribution table")
		timeline = flag.String("timeline", "", "write a Perfetto-loadable trace-event JSON timeline of the journeys to this path (implies -journeys)")
		digest   = flag.Bool("digest", false, "fold every executed event into a rolling stream digest and print it (an O(1)-memory fingerprint of the run; also lands in the manifest)")
	)
	flag.Parse()
	for _, f := range []struct {
		name string
		v    float64
	}{{"-rate", *rate}, {"-dur", *dur}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			fmt.Fprintf(os.Stderr, "%s: %v is not a positive finite number\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if *probeOut != "" && *probe <= 0 {
		fmt.Fprintln(os.Stderr, "-probes requires -probe: nothing is sampled without an interval")
		os.Exit(2)
	}
	if *fault != "" {
		if _, err := faults.ParseSpec(*fault); err != nil {
			fmt.Fprintf(os.Stderr, "-fault: %v\n", err)
			os.Exit(2)
		}
	}
	if len(flows) == 0 {
		flows = flowList{"tcp:0.5", "tfrc:8"}
	}

	cfg := exp.TraceRunConfig{
		Seed:          *seed,
		Rate:          *rate,
		Duration:      *dur,
		ECN:           *ecn,
		ProbeInterval: *probe,
		FaultSpec:     *fault,
		Journeys:      *journeys || *timeline != "",
		Digest:        *digest,
	}
	for _, spec := range flows {
		algo, err := exp.ParseAlgoSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Algos = append(cfg.Algos, algo)
	}
	run := exp.NewTraceRun(cfg)
	run.Run()
	rec := run.Rec

	fmt.Printf("bottleneck goodput per second (Mbps), %v at %.0f Mbps:\n", run.Names, *rate/1e6)
	fmt.Printf("%6s", "t")
	for _, n := range run.Names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	series := make([][]float64, len(flows))
	maxLen := 0
	for i := range flows {
		series[i] = rec.BinRates(i+1, trace.Recv, 1)
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	for t := 0; t < maxLen; t++ {
		fmt.Printf("%6d", t+1)
		for i := range flows {
			v := 0.0
			if t < len(series[i]) {
				v = series[i][t] * 8 / 1e6
			}
			fmt.Printf(" %12.3f", v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%d events captured, %d drops, %d marks\n",
		rec.Len(), len(rec.Filter(-1, trace.Drop)), len(rec.Filter(-1, trace.Mark)))

	m := run.Manifest("slowcctrace")

	if run.Digest != nil {
		fmt.Printf("stream digest: %016x over %d events\n", run.Digest.Sum(), run.Digest.Events())
		// The queue's shape goes to stderr, so stdout stays the run's
		// deterministic record: a year — buckets x width — shorter than a
		// delay the schedule uses shows as far-tier pops tracking the event
		// count, and the lanes show the link deliveries that never entered
		// the calendar.
		qs := run.Eng.QueueStats()
		fmt.Fprintf(os.Stderr, "event queue: %d buckets x %.3g s = %.3g s year; far tier %d live of %d slots, %d pops; %d fixed-delay lanes, %d live\n",
			qs.Buckets, qs.Width, float64(qs.Buckets)*qs.Width, qs.FarLive, qs.FarCap, qs.FarPops, qs.Lanes, qs.LaneLive)
	}
	if run.Journeys != nil {
		printAttribution(run.Journeys)
	}
	if *timeline != "" {
		tl := obs.NewTimeline()
		run.Journeys.WriteTimeline(tl)
		if err := tl.WriteFile(*timeline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m.Outputs["timeline"] = digestFile(*timeline)
		fmt.Printf("timeline written to %s (%d events; load in Perfetto or chrome://tracing)\n", *timeline, tl.Len())
	}

	if *out != "" {
		writeOut(*out, func(f *os.File) error { return rec.WriteTSV(f) })
		m.Outputs["trace"] = digestFile(*out)
		fmt.Printf("trace written to %s\n", *out)
	}
	if *probe > 0 {
		path := *probeOut
		if path == "" && *out != "" {
			path = *out + ".probes.tsv"
		}
		if path != "" {
			writeOut(path, func(f *os.File) error { return run.Sampler.WriteTSV(f) })
			m.Outputs["probes"] = digestFile(path)
			fmt.Printf("%d probe samples written to %s\n", len(run.Sampler.Samples()), path)
		}
	}
	if *manifest != "" {
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
}

// printAttribution renders the per-hop latency attribution table: for
// every hop the delivered/dropped counts and the exact queueing,
// transmission, and propagation sums, then the end-to-end identity
// those components tile.
func printAttribution(rec *journey.Recorder) {
	fmt.Println("\nlatency attribution (per hop, delivered packets):")
	fmt.Printf("%-22s %9s %7s %12s %12s %12s %10s\n",
		"hop", "delivered", "drops", "queue_s", "tx_s", "prop_s", "q_p99_ms")
	for _, h := range rec.Hops() {
		fmt.Printf("%-22s %9d %7d %12.6f %12.6f %12.6f %10.3f\n",
			h.Name, h.Delivered, h.Drops, h.QueueSum, h.TxSum, h.PropSum,
			h.QueueDelay.P99*1e3)
	}
	n, e2e, queue, tx, prop := rec.Attribution()
	if n > 0 {
		fmt.Printf("end-to-end: %d packets, mean delay %.3f ms = queue %.3f + tx %.3f + prop %.3f (ms)\n",
			n, e2e/float64(n)*1e3, queue/float64(n)*1e3, tx/float64(n)*1e3, prop/float64(n)*1e3)
	}
	flows, rtts := rec.FlowRTTs()
	for i, f := range flows {
		fmt.Printf("flow %d ack rtt: n=%d p50=%.1f ms p99=%.1f ms max=%.1f ms\n",
			f, rtts[i].Count, rtts[i].P50*1e3, rtts[i].P99*1e3, rtts[i].Max*1e3)
	}
}

// writeOut creates path and runs write against it, exiting on error.
func writeOut(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// digestFile returns the sha256 of the file just written.
func digestFile(path string) string {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return obs.DigestBytes(blob)
}
