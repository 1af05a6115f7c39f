// Determinism guarantees of the observability layer, checked at the
// public surface: enabling probes must not change the event stream a
// seed produces, and manifests of identical runs must be byte-identical
// apart from wall time.
package slowcc_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"slowcc"
	"slowcc/internal/exp"
	"slowcc/internal/obs"
)

// benchScenario is the macro run of pinned_stream_test.go (two standard
// TCP flows, 10 Mbps, 30 s, seed 1) expressed as a TraceRunConfig, so
// the pin is held on the path slowcctrace takes, with the sampler
// enabled.
func benchScenario(probeInterval slowcc.Time) exp.TraceRunConfig {
	return exp.TraceRunConfig{
		Seed:          1,
		Rate:          10e6,
		Duration:      30,
		Algos:         []slowcc.Algorithm{slowcc.TCP(0.5), slowcc.TCP(0.5)},
		ProbeInterval: probeInterval,
	}
}

func TestProbesDoNotPerturbEventStream(t *testing.T) {
	off := exp.NewTraceRun(benchScenario(0))
	off.Run()
	on := exp.NewTraceRun(benchScenario(0.1))
	on.Run()

	if off.Eng.Steps() != pinnedEvents {
		t.Fatalf("probes-off run executed %d events, want the pinned %d", off.Eng.Steps(), pinnedEvents)
	}
	if on.Eng.Steps() != pinnedEvents {
		t.Fatalf("probes-on run executed %d events, want the pinned %d: sampling perturbed the schedule", on.Eng.Steps(), pinnedEvents)
	}
	if len(on.Sampler.Samples()) == 0 {
		t.Fatal("probes-on run recorded no samples")
	}
	if len(off.Sampler.Samples()) != 0 {
		t.Fatal("probes-off run recorded samples")
	}

	// Not just the count: the packet-level story at the bottleneck is
	// identical event for event.
	evOff, evOn := off.Rec.Events(), on.Rec.Events()
	if len(evOff) != len(evOn) {
		t.Fatalf("trace lengths differ: %d vs %d", len(evOff), len(evOn))
	}
	for i := range evOff {
		if evOff[i] != evOn[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, evOff[i], evOn[i])
		}
	}

	// And the sampled state is itself deterministic: a second probed run
	// reproduces every sample.
	on2 := exp.NewTraceRun(benchScenario(0.1))
	on2.Run()
	a, b := on.Sampler.Samples(), on2.Sampler.Samples()
	if len(a) != len(b) {
		t.Fatalf("sample counts differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestManifestDeterminism(t *testing.T) {
	run := func() *obs.Manifest {
		r := exp.NewTraceRun(benchScenario(0.1))
		r.Run()
		return r.Manifest("slowcctrace")
	}
	m1, m2 := run(), run()

	if d1, d2 := m1.ComputeDigest(), m2.ComputeDigest(); d1 != d2 {
		t.Fatalf("same-seed digests differ: %s vs %s", d1, d2)
	}

	// Byte-identical JSON once the one volatile field is zeroed. The
	// digest deliberately excludes WallTimeS, so sealing after zeroing
	// must reproduce the digest too.
	b1, b2 := m1.Encode(), m2.Encode()
	z1, z2 := zeroWallTime(t, b1), zeroWallTime(t, b2)
	if !bytes.Equal(z1, z2) {
		t.Fatalf("same-seed manifests differ beyond wall time:\n%s\nvs\n%s", z1, z2)
	}
	if m1.Digest != m2.Digest {
		t.Fatalf("sealed digests differ: %s vs %s", m1.Digest, m2.Digest)
	}

	// A different seed is a different manifest.
	cfg := benchScenario(0.1)
	cfg.Seed = 2
	r3 := exp.NewTraceRun(cfg)
	r3.Run()
	if r3.Manifest("slowcctrace").ComputeDigest() == m1.ComputeDigest() {
		t.Fatal("seed-2 manifest digests identically to seed 1")
	}
}

// zeroWallTime re-encodes manifest JSON with wall_time_s zeroed, keys
// untouched.
func zeroWallTime(t *testing.T, blob []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["wall_time_s"] = 0
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}
