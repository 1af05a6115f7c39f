// Package obs is the unified telemetry layer: periodic state probes
// over congestion-control internals (Sampler), the names of the
// simulator core's counters (CanonicalMetricName; topology.Net.Counters
// reads them), and deterministic run manifests (Manifest). See
// DESIGN.md §9.
//
// The layer follows the allocation-free discipline from PR 2: when a
// feature is off it costs at most one comparison on the hot path, and
// the Sampler piggybacks on the engine's event stream through the probe
// hook (sim.Engine.SetProbe) rather than scheduling timers, so enabling
// it cannot change the event sequence a seed produces.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
)

// Sample is one probed value: at tick time T, variable Var of probe
// Probe read Value.
type Sample struct {
	T     sim.Time
	Probe string
	Var   string
	Value float64
}

// samplerVar is one registered variable with its qualified probe name.
type samplerVar struct {
	probe string
	v     probe.Var
}

// Sampler snapshots registered probe variables on a fixed cadence. It
// implements sim.ProbeHook and is installed with Install (the engine's
// probe slot): it observes every event's timestamp and, whenever the
// clock crosses a multiple of Interval, reads every registered Var.
// Because reads happen between events — synchronously, with no timers
// of its own — a sampled run executes exactly the same event sequence
// as an unsampled one.
//
// With Interval <= 0 the sampler is disabled: the first hook call
// answers "never wake me" (+Inf), so the engine stops calling it and
// the per-event cost collapses to one float comparison inside the
// engine (the alloc tests pin this path at zero allocations).
type Sampler struct {
	// Interval is the sampling cadence in simulated seconds; <= 0
	// disables sampling entirely.
	Interval sim.Time

	vars    []samplerVar
	next    sim.Time
	samples []Sample
}

// NewSampler returns a sampler with the given cadence (seconds per
// sample; <= 0 disabled).
func NewSampler(interval sim.Time) *Sampler {
	return &Sampler{Interval: interval}
}

// Add registers every variable of provider p under the probe name (a
// flow or queue identifier such as "flow1.tcp" or "red.lr").
func (s *Sampler) Add(name string, p probe.Provider) {
	if p == nil {
		return
	}
	s.AddVars(name, p.ProbeVars())
}

// AddVars registers an explicit variable list under the probe name.
func (s *Sampler) AddVars(name string, vars []probe.Var) {
	for _, v := range vars {
		if v.Read == nil {
			continue
		}
		s.vars = append(s.vars, samplerVar{probe: name, v: v})
	}
}

// Install attaches the sampler to the engine's probe hook slot.
func (s *Sampler) Install(e *sim.Engine) { e.SetProbe(s) }

// OnEvent implements sim.ProbeHook. It fires the sample loop for every
// cadence tick at or before the event about to execute, reading state
// as of the inter-event boundary (all effects up to the previous event
// applied, none of this one's). The returned wake time — the next
// cadence tick, or +Inf when disabled — lets the engine skip the hook
// call entirely for events between ticks.
func (s *Sampler) OnEvent(prev, at sim.Time, seq uint64) sim.Time {
	if s.Interval <= 0 {
		return sim.Time(math.Inf(1))
	}
	for at >= s.next {
		s.sampleAt(s.next)
		s.next += s.Interval
	}
	return s.next
}

// sampleAt reads every registered variable, stamping the samples with
// the tick time t so downstream series are evenly spaced.
func (s *Sampler) sampleAt(t sim.Time) {
	for _, sv := range s.vars {
		s.samples = append(s.samples, Sample{T: t, Probe: sv.probe, Var: sv.v.Name, Value: sv.v.Read()})
	}
}

// Samples returns all recorded samples in recording order (time-major,
// registration order within a tick).
func (s *Sampler) Samples() []Sample { return s.samples }

// WriteTSV writes the samples as tab-separated values with a header
// row, the same shape (time first, %.6f timestamps) as the packet-trace
// TSV so existing plotting recipes apply.
func (s *Sampler) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t\tprobe\tvar\tvalue"); err != nil {
		return err
	}
	for _, smp := range s.samples {
		if _, err := fmt.Fprintf(bw, "%.6f\t%s\t%s\t%g\n",
			smp.T, smp.Probe, smp.Var, smp.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSamplesTSV parses the format WriteTSV emits (header required).
func ReadSamplesTSV(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: empty probe TSV")
	}
	if h := sc.Text(); h != "t\tprobe\tvar\tvalue" {
		return nil, fmt.Errorf("obs: not a probe TSV (header %q)", h)
	}
	var out []Sample
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("obs: bad probe TSV line %q", line)
		}
		t, err1 := strconv.ParseFloat(f[0], 64)
		v, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("obs: bad probe TSV line %q", line)
		}
		out = append(out, Sample{T: t, Probe: f[1], Var: f[2], Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CanonicalMetricName maps an arbitrary metric name onto the legal
// charset of counter and histogram names: letters, digits, and '_',
// ':', '.', '-'. Dots separate components and dashes appear inside
// component names (access-link hop names); both are preserved here,
// because manifests and TSV artifacts carry these names verbatim, and
// both map to '_' when the export layer projects a name into Prometheus
// form. Every other rune becomes '_', so naming — not exposition — is
// where a name's projection is fixed; an empty name becomes "unnamed".
func CanonicalMetricName(name string) string {
	if name == "" {
		return "unnamed"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == ':', r == '.', r == '-':
			return r
		}
		return '_'
	}, name)
}
