package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
)

// --- Sampler ---

// series is one probe variable's samples, as times and values.
func series(s *Sampler, probeName, varName string) (ts []sim.Time, vs []float64) {
	for _, smp := range s.Samples() {
		if smp.Probe == probeName && smp.Var == varName {
			ts = append(ts, smp.T)
			vs = append(vs, smp.Value)
		}
	}
	return ts, vs
}

func TestSamplerCadence(t *testing.T) {
	eng := sim.New(1)
	x := 0.0
	s := NewSampler(1.0)
	s.AddVars("p", []probe.Var{{Name: "x", Read: func() float64 { return x }}})
	s.Install(eng)

	// Events at 0.5, 1.5, 2.5, ..., each bumping x AFTER the tick at or
	// below it has sampled, so tick k must see the value as of the
	// inter-event boundary before the event at k+0.5.
	for i := 0; i < 5; i++ {
		eng.At(float64(i)+0.5, func() { x += 1 })
	}
	eng.RunUntil(10)

	ts, vs := series(s, "p", "x")
	// Tick 0 fires before the event at 0.5 (x=0), tick k before the event
	// at k+0.5 (x=k). Tick 5 never fires: the last event is at 4.5 and the
	// sampler piggybacks on events, it adds none of its own.
	if len(ts) != 5 {
		t.Fatalf("sampled %d ticks %v, want 5", len(ts), ts)
	}
	for i := range ts {
		if ts[i] != float64(i) {
			t.Fatalf("tick %d at t=%v, want %d", i, ts[i], i)
		}
		if vs[i] != float64(i) {
			t.Fatalf("tick %d read %v, want %d (state as of the boundary)", i, vs[i], i)
		}
	}
}

func TestSamplerCatchUpAcrossQuietGaps(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler(1.0)
	s.AddVars("p", []probe.Var{{Name: "x", Read: func() float64 { return 7 }}})
	s.Install(eng)
	// One event at 0.1, then silence until 5.3: the event at 5.3 must
	// emit the ticks 1..5 it crossed, each stamped with its own tick time.
	eng.At(0.1, func() {})
	eng.At(5.3, func() {})
	eng.RunUntil(10)
	ts, _ := series(s, "p", "x")
	want := []sim.Time{0, 1, 2, 3, 4, 5}
	if len(ts) != len(want) {
		t.Fatalf("ticks %v, want %v", ts, want)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ts, want)
		}
	}
}

func TestSamplerDisabled(t *testing.T) {
	eng := sim.New(1)
	s := NewSampler(0)
	s.AddVars("p", []probe.Var{{Name: "x", Read: func() float64 { return 1 }}})
	s.Install(eng)
	for i := 0; i < 10; i++ {
		eng.At(float64(i), func() {})
	}
	eng.RunUntil(20)
	if len(s.Samples()) != 0 {
		t.Fatalf("disabled sampler recorded %d samples", len(s.Samples()))
	}
}

func TestSamplerSkipsNilReadsAndProviders(t *testing.T) {
	s := NewSampler(1)
	s.Add("none", nil)
	s.AddVars("p", []probe.Var{{Name: "dead", Read: nil}, {Name: "live", Read: func() float64 { return 3 }}})
	s.sampleAt(0)
	smp := s.Samples()
	if len(smp) != 1 || smp[0].Var != "live" || smp[0].Value != 3 {
		t.Fatalf("samples %v, want one live var", smp)
	}
}

func TestSamplerTSVRoundTrip(t *testing.T) {
	s := NewSampler(1)
	s.AddVars("flow1.TCP(1/2)", []probe.Var{
		{Name: "cwnd", Read: func() float64 { return 12.5 }},
		{Name: "srtt", Read: func() float64 { return 0.052 }},
	})
	s.sampleAt(0)
	s.sampleAt(1)
	var buf bytes.Buffer
	if err := s.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSamplesTSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := s.Samples()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadSamplesTSVRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not\ta\tprobe\theader\n",
		"t\tprobe\tvar\tvalue\ntoo\tfew\tfields\n",
		"t\tprobe\tvar\tvalue\nNaNope\tp\tx\t1\n",
		"t\tprobe\tvar\tvalue\n1.0\tp\tx\tnope\n",
	} {
		if _, err := ReadSamplesTSV(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted garbage %q", in)
		}
	}
	// Empty body after a valid header is fine.
	got, err := ReadSamplesTSV(strings.NewReader("t\tprobe\tvar\tvalue\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("header-only TSV: %v, %v", got, err)
	}
}

// The header is required: input without one, even empty input, is not a
// probe TSV.
func TestReadSamplesTSVRejectsEmpty(t *testing.T) {
	if got, err := ReadSamplesTSV(strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty input: %v, %v, want an empty-TSV error", got, err)
	}
}

// --- Manifest ---

func fillManifest(m *Manifest) {
	m.DurationS = 30
	m.Algos = []string{"TCP(1/2)", "TFRC(8)"}
	m.Config["rate_bps"] = "1e+07"
	m.Events = 403989
	m.Counters["engine.fired"] = 403989
	m.Outputs["trace"] = DigestBytes([]byte("trace body"))
}

func TestManifestDigestIgnoresWallTime(t *testing.T) {
	a := NewManifest("slowcctrace", 1)
	b := NewManifest("slowcctrace", 1)
	fillManifest(a)
	fillManifest(b)
	a.WallTimeS = 1.5
	b.WallTimeS = 99.25
	if a.ComputeDigest() != b.ComputeDigest() {
		t.Fatal("digest depends on wall time")
	}
	b.Seed = 2
	if a.ComputeDigest() == b.ComputeDigest() {
		t.Fatal("digest ignores the seed")
	}
}

func TestManifestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := NewManifest("slowcctrace", 1)
	fillManifest(m)
	m.WallTimeS = 0.25
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest == "" || got.Digest != m.Digest {
		t.Fatalf("digest %q vs %q", got.Digest, m.Digest)
	}
	if got.Tool != "slowcctrace" || got.Events != 403989 || got.Counters["engine.fired"] != 403989 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestReadManifestRejectsTampering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := NewManifest("slowcctrace", 1)
	fillManifest(m)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(path)
	tampered := bytes.Replace(blob, []byte(`"events": 403989`), []byte(`"events": 403990`), 1)
	if bytes.Equal(blob, tampered) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tampered manifest accepted (err=%v)", err)
	}
}

// Only a sealed document of this schema is a manifest. Each of these
// used to read as an empty one, and slowccreport would have rendered a
// run that never happened.
func TestReadManifestRejectsNonManifests(t *testing.T) {
	sealed := NewManifest("slowcctrace", 1)
	fillManifest(sealed)
	blob := sealed.Encode()
	var tl bytes.Buffer
	timeline := NewTimeline()
	timeline.Span("running", "cell 0", 0, 0, 0, 1, nil)
	if err := timeline.WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	stripped := regexp.MustCompile(`,\n  "digest": "[0-9a-f]+"`).ReplaceAll(blob, nil)
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"null", "null", "schema"},
		{"empty object", "{}", "schema"},
		{"timeline", tl.String(), "schema"},
		{"other schema", strings.Replace(string(blob), ManifestSchema, "slowcc-manifest/9", 1), "schema"},
		{"digest stripped", string(stripped), "no digest"},
	} {
		path := filepath.Join(t.TempDir(), "m.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadManifest error %v, want one naming the %s", tc.name, err, tc.want)
		}
	}
	if bytes.Equal(stripped, blob) {
		t.Fatal("the digest line to strip was not found")
	}
}

// --- Report ---

func TestRenderReport(t *testing.T) {
	a := NewManifest("slowcctrace", 1)
	fillManifest(a)
	a.Seal()
	b := NewManifest("slowccsim", 7)
	b.DurationS = 60
	b.Events = 12
	b.Counters["only.in.b"] = 3
	b.Seal()

	samples := [][]Sample{
		{
			{T: 0, Probe: "flow1.tcp", Var: "cwnd", Value: 2},
			{T: 1, Probe: "flow1.tcp", Var: "cwnd", Value: 6},
		},
		nil,
	}
	out := RenderReport([]*Manifest{a, b}, samples)

	for _, want := range []string{
		"tool", "slowcctrace", "slowccsim",
		"403989",
		"config.rate_bps",
		"only.in.b",
		"probes (slowcctrace):",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// The probe summary row, ignoring column padding: n=2, min=2, mean=4,
	// max=6, last=6.
	probeRow := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "flow1.tcp/cwnd") {
			probeRow = strings.Join(strings.Fields(line), " ")
		}
	}
	if probeRow != "flow1.tcp/cwnd 2 2 4 6 6" {
		t.Fatalf("probe summary row %q", probeRow)
	}
	// A counter absent from one run renders as "-" in its column.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "only.in.b") && !strings.Contains(line, "-") {
			t.Fatalf("missing-counter placeholder absent: %q", line)
		}
	}
}
