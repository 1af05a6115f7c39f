// Command slowccreport renders one or more run manifests — produced by
// slowcctrace -manifest, slowccsim -manifest, or the exp drivers — into
// a human-readable comparison table: configuration, event counts, and
// every core counter side by side, one column per run. Probe TSV files
// (slowcctrace -probes) can be attached to their runs with -probes, in
// the same order as the manifest arguments, and are summarized per
// probe variable (count, min, mean, max, last).
//
// Manifest digests are verified on read: a manifest whose content no
// longer matches its recorded digest is rejected, so a report is always
// over authentic run records.
//
// Beyond manifests, -heatmap turns a matrix TSV (slowccsim -exp matrix
// -tsv) into ASCII heatmap grids of -heatmap-metric (ratio, jain, or
// utilization), or a standalone SVG with -heatmap-svg.
//
// Usage:
//
//	slowccreport run1.json run2.json
//	slowccreport -probes run1.probes.tsv run1.json
//	slowccreport -heatmap matrix.tsv -heatmap-metric jain
//	slowccreport -heatmap matrix.tsv -heatmap-svg matrix.svg
//	slowccreport -store sweep.store             # inspect a resumable result store
//
// -store opens a slowccsim -store directory read-only (no journal
// repair, nothing written) and lists every committed cell: key, cell
// index, attempts, result size, recorded telemetry, and — for degraded
// cells — the failure that was journaled, so an interrupted or
// partially-degraded sweep can be audited before resuming it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"slowcc/internal/exp"
	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// tsvList collects repeated -probes flags.
type tsvList []string

func (f *tsvList) String() string { return strings.Join(*f, ",") }

func (f *tsvList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var probeFiles tsvList
	flag.Var(&probeFiles, "probes", "probe TSV for the i-th manifest (repeatable, positional match)")
	var (
		heatmap    = flag.String("heatmap", "", "render a matrix TSV artifact (slowccsim -exp matrix -tsv) as ASCII heatmaps")
		heatMetric = flag.String("heatmap-metric", "ratio", "heatmap metric: "+strings.Join(exp.MatrixMetrics(), ", "))
		heatSVG    = flag.String("heatmap-svg", "", "also write the heatmap as a standalone SVG to this path")
		storeDir   = flag.String("store", "", "inspect a slowccsim -store result-store directory (read-only): list committed cells, degraded markers, journal damage")
	)
	flag.Parse()
	if *heatmap == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "heatmap-metric" || f.Name == "heatmap-svg" {
				fmt.Fprintf(os.Stderr, "-%s requires -heatmap: there is no matrix TSV to render\n", f.Name)
				os.Exit(2)
			}
		})
	}

	ran := false
	if *storeDir != "" {
		ran = true
		reportStore(*storeDir)
	}
	if *heatmap != "" {
		ran = true
		renderHeatmap(*heatmap, *heatMetric, *heatSVG)
	}
	if flag.NArg() == 0 {
		if ran {
			return
		}
		fmt.Fprintln(os.Stderr, "usage: slowccreport [-probes probes.tsv]... [-heatmap matrix.tsv] [-store DIR] manifest.json...")
		os.Exit(2)
	}

	var manifests []*obs.Manifest
	for _, path := range flag.Args() {
		m, err := obs.ReadManifest(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		manifests = append(manifests, m)
	}

	samples := make([][]obs.Sample, len(manifests))
	for i, path := range probeFiles {
		if i >= len(samples) {
			fmt.Fprintf(os.Stderr, "slowccreport: more -probes files than manifests\n")
			os.Exit(2)
		}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		samples[i], err = obs.ReadSamplesTSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Print(obs.RenderReport(manifests, samples))
}

// reportStore opens a result store read-only and prints one line per
// committed cell plus a health summary (degraded markers, quarantined
// journal damage), so a sweep can be audited before resuming.
func reportStore(dir string) {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer st.Close()

	entries := st.Entries()
	fmt.Printf("store %s: %d cell(s)\n", dir, len(entries))
	degraded := 0
	fmt.Printf("%-16s %5s %8s %9s %7s  %s\n", "key", "cell", "attempts", "result", "events", "status")
	for _, e := range entries {
		status := "ok"
		events := uint64(0)
		if cs, err := e.CellStats(); err != nil {
			status = "telemetry undecodable"
		} else if cs != nil {
			events = cs.Events
		}
		if e.Degraded {
			degraded++
			status = "degraded: " + e.Error
		}
		key := e.Key
		if len(key) > 16 {
			key = key[:16]
		}
		fmt.Printf("%-16s %5d %8d %8dB %7d  %s\n", key, e.Index, e.Attempts, len(e.Result), events, status)
	}
	if degraded > 0 {
		fmt.Printf("%d degraded cell(s): resuming with -store %s -resume recomputes them\n", degraded, dir)
	}
	if st.TornTail() || st.Corrupt() > 0 {
		fmt.Printf("journal damage: torn tail %v, %d corrupt entr(ies) quarantined — damaged cells recompute on resume\n",
			st.TornTail(), st.Corrupt())
	}
}

// renderHeatmap reads a matrix TSV artifact and prints its ASCII
// heatmap, optionally writing the SVG rendering alongside.
func renderHeatmap(path, metric, svgPath string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cells, err := exp.ParseMatrixTSV(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	text, err := exp.RenderMatrixHeatmap(cells, metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(text)
	if svgPath != "" {
		svg, err := exp.RenderMatrixHeatmapSVG(cells, metric)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("heatmap SVG written to %s\n", svgPath)
	}
}
