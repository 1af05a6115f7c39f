package main

import "fmt"

// metricDef names one metric of the contract in BENCHMARK.json; the
// smoke test holds the two lists equal. bound (end-to-end only) is the
// share of the reference median a metric may worsen by; exact marks a
// per-layer count that must repeat to the unit between two runs of one
// commit and seed.
type metricDef struct {
	name, unit  string
	lowerBetter bool
	bound       float64
	exact       bool
}

// endToEnd is what a user of the repository feels, per workload. The
// issue's seventh metric, fail_ratio, is always 0 and so cannot carry a
// relative bound: it travels as the attempted/failed counts of every
// result instead, and any failure makes the run incorrect.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "wall_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "cpu_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "events_per_s", unit: "1/s", bound: 0.25},
	{name: "cells_per_s", unit: "1/s", bound: 0.25},
	{name: "alloc_mb", unit: "MB", lowerBetter: true, bound: 0.25},
}

func lower(name, unit string) metricDef { return metricDef{name: name, unit: unit, lowerBetter: true} }
func count(name string) metricDef {
	return metricDef{name: name, unit: "count", lowerBetter: true, exact: true}
}

// perLayer is the traced run's budget, <module>.<metric>.
var perLayer = func() []metricDef {
	defs := []metricDef{
		lower("sim.ns_per_event_p64", "ns"), lower("sim.ns_per_event_p4096", "ns"),
		lower("sim.heap_ns_per_event_p4096", "ns"), lower("sim.rearm_ns", "ns"), lower("sim.stop_ns", "ns"),
		count("sim.events"), count("sim.scheduled"), count("sim.rearms"), count("sim.stops"),
		lower("sim.digest_overhead_ratio", "ratio"),

		lower("netem.link_ns_per_pkt", "ns"), lower("netem.red_ns_per_pkt", "ns"),
		lower("netem.droptail_ns_per_pkt", "ns"), lower("netem.pool_ns_per_getput", "ns"),
		count("netem.arrivals"), count("netem.drops"), count("netem.marks"),
		{name: "netem.delivered_ratio", unit: "ratio"},
	}
	for _, a := range ccAlgos {
		defs = append(defs, lower("cc."+a.name+".ns_per_event", "ns"), count("cc."+a.name+".events"))
	}
	defs = append(defs,
		lower("topology.dumbbell_setup_us", "us"), lower("topology.net3_setup_us", "us"),
		lower("topology.setup_mallocs", "count"), lower("workload.flashcrowd_us_per_flow", "us"),

		lower("exp.supervise_us_per_cell", "us"), lower("exp.cell_ms_p50", "ms"),
		lower("exp.cell_ms_p95", "ms"), lower("exp.cell_ms_max", "ms"),
		count("exp.cells"), count("exp.retries"), count("exp.degraded"),
		lower("exp.matrix_worker_idle_ratio", "ratio"), lower("exp.figures_worker_idle_ratio", "ratio"),
		lower("exp.matrix_nostore_wall_s", "s"), lower("exp.collect_overhead_ratio", "ratio"),
		lower("exp.render_tsv_ms", "ms"), lower("exp.parse_tsv_ms", "ms"),
	)
	for _, f := range figureSet {
		defs = append(defs, lower(fmt.Sprintf("exp.%s_s", f.name), "s"))
	}
	return append(defs,
		lower("store.put_us_p50", "us"), lower("store.put_us_p95", "us"),
		lower("store.bytes_per_entry", "B"), lower("store.open_journal_ms", "ms"),
		lower("store.open_snapshot_ms", "ms"), lower("store.get_us", "us"),
		lower("store.checkpoint_ms", "ms"), lower("store.cold_overhead_ratio", "ratio"),
		metricDef{name: "store.hits", unit: "count", exact: true}, count("store.misses"), count("store.corrupt"),
		lower("store.fsync_probe_us", "us"),

		lower("obs.export.scrape_ms", "ms"), lower("obs.export.scrape_bytes", "B"),
		lower("obs.export.validate_ms", "ms"), lower("obs.hist_record_ns", "ns"),
		lower("obs.sampler_overhead_ratio", "ratio"), lower("obs.journey_overhead_ratio", "ratio"),
		lower("obs.timeline_overhead_ratio", "ratio"), lower("trace.overhead_ratio", "ratio"),
		lower("invariant.overhead_ratio", "ratio"),

		lower("bench.trace_overhead_ratio", "ratio"), lower("bench.calib_ms", "ms"),
		lower("bench.calib_spread", "ratio"), lower("bench.peak_rss_mb", "MB"), lower("bench.mallocs", "count"),
	)
}()
