package cbr

import (
	"math"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

type counter struct {
	pkts  int64
	bytes int64
}

func (c *counter) Handle(p *netem.Packet) {
	c.pkts++
	c.bytes += int64(p.Size)
}

func TestAlwaysOnRate(t *testing.T) {
	eng := sim.New(1)
	sink := &counter{}
	// 4 Mbps with 1000-byte packets: 500 packets per second.
	src := NewSource(eng, sink, 1, 4e6, nil)
	eng.At(0, src.Start)
	eng.RunUntil(10)
	got := float64(sink.bytes) * 8 / 10
	if math.Abs(got-4e6)/4e6 > 0.01 {
		t.Fatalf("CBR delivered %v bps, want 4e6", got)
	}
}

func TestSquareWaveHalvesVolume(t *testing.T) {
	eng := sim.New(1)
	sink := &counter{}
	src := NewSource(eng, sink, 1, 4e6, SquareWave{Period: 2})
	eng.At(0, src.Start)
	eng.RunUntil(20)
	got := float64(sink.bytes) * 8 / 20
	if math.Abs(got-2e6)/2e6 > 0.02 {
		t.Fatalf("square-wave CBR averaged %v bps, want ~2e6 (half of peak)", got)
	}
}

func TestSquareWaveEdges(t *testing.T) {
	s := SquareWave{Period: 2}
	if s.Level(0.5) != 1 || s.Level(1.5) != 0 || s.Level(2.5) != 1 {
		t.Fatal("square wave levels wrong")
	}
	if got := s.NextChange(0.5); got != 1 {
		t.Fatalf("NextChange(0.5) = %v, want 1", got)
	}
	if got := s.NextChange(1.2); got != 2 {
		t.Fatalf("NextChange(1.2) = %v, want 2", got)
	}
}

func TestStepsScheduleFig3Timeline(t *testing.T) {
	// The Figure 3 source: ON at 0, OFF at 150, ON again at 180.
	s := Steps{At: []sim.Time{0, 150, 180}, Levels: []float64{1, 0, 1}}
	cases := []struct {
		t    sim.Time
		want float64
	}{{-1, 0}, {10, 1}, {149.9, 1}, {150, 0}, {179.9, 0}, {180, 1}, {500, 1}}
	for _, c := range cases {
		if got := s.Level(c.t); got != c.want {
			t.Errorf("Level(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := s.NextChange(10); got != 150 {
		t.Fatalf("NextChange(10) = %v, want 150", got)
	}
	if !math.IsInf(s.NextChange(200), 1) {
		t.Fatal("NextChange after last edge must be +Inf")
	}
}

func TestStepsSourceGoesSilentAndResumes(t *testing.T) {
	eng := sim.New(1)
	sink := &counter{}
	src := NewSource(eng, sink, 1, 1e6, Steps{At: []sim.Time{0, 1, 2}, Levels: []float64{1, 0, 1}})
	eng.At(0, src.Start)
	eng.RunUntil(1.5)
	atOff := sink.pkts
	eng.RunUntil(2.0)
	if sink.pkts != atOff {
		t.Fatal("CBR sent during its OFF period")
	}
	eng.RunUntil(3.0)
	if sink.pkts == atOff {
		t.Fatal("CBR did not resume after the OFF period")
	}
}

func TestStopSilencesSource(t *testing.T) {
	eng := sim.New(1)
	sink := &counter{}
	src := NewSource(eng, sink, 1, 1e6, nil)
	eng.At(0, src.Start)
	eng.At(1, src.Stop)
	eng.RunUntil(1)
	n := sink.pkts
	eng.RunUntil(5)
	if sink.pkts != n {
		t.Fatal("source kept sending after Stop")
	}
}
