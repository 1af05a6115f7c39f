package tfrc

import (
	"math"
	"testing"
	"testing/quick"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// mkReceiver returns a receiver primed with a given closed-interval
// history (most recent first) and an open interval of the given length.
func mkReceiver(k int, hist []int64, open int64) *Receiver {
	r := NewReceiver(sim.New(1), 1, &fbSink{}, k)
	r.gotAny = true
	r.haveLoss = len(hist) > 0
	r.intervals = append([]int64{}, hist...)
	r.eventSeq = 0
	r.maxSeq = open
	return r
}

func TestWALIUniformHistory(t *testing.T) {
	// All intervals equal: the average must equal that value regardless
	// of weights (weights normalize out).
	r := mkReceiver(8, []int64{100, 100, 100, 100, 100, 100, 100, 100}, 100)
	if got := r.avgInterval(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("uniform history avg = %v, want 100", got)
	}
	if got := r.LossEventRate(); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("loss event rate = %v, want 0.01", got)
	}
}

func TestWALIHandComputedTwoIntervals(t *testing.T) {
	// k=2: weights {1, 0.5}. History {I1=30}, open I0=90.
	// avg0 = (1*90 + 0.5*30)/1.5 = 70; avg1 = (1*30)/1 = 30. Max = 70.
	r := mkReceiver(2, []int64{30}, 90)
	if got := r.avgInterval(); math.Abs(got-70) > 1e-9 {
		t.Fatalf("avg = %v, want 70", got)
	}
}

func TestWALIMaxRuleIgnoresShortOpenInterval(t *testing.T) {
	// A fresh loss event (tiny open interval) must not double-penalize:
	// the without-open average dominates.
	r := mkReceiver(8, []int64{200, 200, 200, 200, 200, 200, 200, 200}, 1)
	got := r.avgInterval()
	if math.Abs(got-200) > 1e-9 {
		t.Fatalf("avg = %v, want 200 (open interval of 1 must not drag it down)", got)
	}
}

func TestWALILongGoodStretchRaisesAverage(t *testing.T) {
	short := mkReceiver(8, []int64{50, 50, 50, 50, 50, 50, 50, 50}, 50).avgInterval()
	long := mkReceiver(8, []int64{50, 50, 50, 50, 50, 50, 50, 50}, 5000).avgInterval()
	if long <= short {
		t.Fatalf("avg with long open interval %v <= %v; the max rule must credit good times", long, short)
	}
}

func TestWALIFloorsAtOnePacket(t *testing.T) {
	r := mkReceiver(4, []int64{1, 1, 1}, 1)
	if got := r.avgInterval(); got < 1 {
		t.Fatalf("avg = %v, must floor at 1", got)
	}
	if rate := r.LossEventRate(); rate > 1 {
		t.Fatalf("loss event rate %v > 1", rate)
	}
}

// Property: the WALI average always lies within [min, max] of the
// intervals considered (closed history plus the open interval).
func TestPropertyWALIBounded(t *testing.T) {
	f := func(raw []uint16, rawOpen uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		hist := make([]int64, len(raw))
		lo, hi := int64(math.MaxInt64), int64(1)
		for i, v := range raw {
			hist[i] = int64(v)%5000 + 1
			if hist[i] < lo {
				lo = hist[i]
			}
			if hist[i] > hi {
				hi = hist[i]
			}
		}
		open := int64(rawOpen)%5000 + 1
		if open < lo {
			lo = open
		}
		if open > hi {
			hi = open
		}
		if lo < 1 {
			lo = 1
		}
		r := mkReceiver(8, hist, open)
		avg := r.avgInterval()
		return avg >= float64(lo)-1e-9 && avg <= float64(hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a longer open interval never lowers the average
// (monotonicity of the max rule in the open interval).
func TestPropertyWALIMonotoneInOpenInterval(t *testing.T) {
	f := func(raw []uint16, a, b uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		hist := make([]int64, len(raw))
		for i, v := range raw {
			hist[i] = int64(v)%2000 + 1
		}
		openA := int64(a)%5000 + 1
		openB := int64(b)%5000 + 1
		if openA > openB {
			openA, openB = openB, openA
		}
		avgA := mkReceiver(8, hist, openA).avgInterval()
		avgB := mkReceiver(8, hist, openB).avgInterval()
		return avgB >= avgA-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstLossSynthesizesHistory(t *testing.T) {
	eng := sim.New(1)
	r := NewReceiver(eng, 1, &fbSink{}, 8)
	// Deliver a healthy 1 MB/s stream, then one hole.
	at := sim.Time(0)
	for i := int64(0); i < 100; i++ {
		seq, tt := i, at
		eng.At(tt, func() {
			r.Handle(&netem.Packet{Kind: netem.Data, Seq: seq, Size: 1000, SentAt: tt, SenderRTT: 0.05})
		})
		at += 0.001
	}
	eng.At(at, func() {
		r.Handle(&netem.Packet{Kind: netem.Data, Seq: 101, Size: 1000, SentAt: at, SenderRTT: 0.05})
	})
	eng.RunUntil(at + 0.01)
	if len(r.intervals) != 1 {
		t.Fatalf("%d synthesized intervals, want 1", len(r.intervals))
	}
	// The synthesized interval must make the equation reproduce roughly
	// the observed 1 MB/s: a 1 MB/s rate at RTT 50ms corresponds to a
	// loss rate around 2e-4, i.e. an interval of several thousand
	// packets — certainly far above the ~100 packets actually seen.
	if r.intervals[0] < 500 {
		t.Fatalf("synthesized first interval %d too short; rate memory lost", r.intervals[0])
	}
}

func TestTFRCDuplicateAndReorderedIgnored(t *testing.T) {
	eng := sim.New(1)
	r := NewReceiver(eng, 1, &fbSink{}, 8)
	r.Handle(&netem.Packet{Kind: netem.Data, Seq: 0, Size: 1000, SenderRTT: 0.05})
	r.Handle(&netem.Packet{Kind: netem.Data, Seq: 5, Size: 1000, SenderRTT: 0.05})
	events := len(r.intervals)
	// Late arrivals of 1..4 must not create new loss events.
	for i := int64(1); i <= 4; i++ {
		r.Handle(&netem.Packet{Kind: netem.Data, Seq: i, Size: 1000, SenderRTT: 0.05})
	}
	if len(r.intervals) != events {
		t.Fatal("reordered arrivals created phantom loss events")
	}
	if r.R.PktsRecv != 6 {
		t.Fatalf("PktsRecv = %d, want 6", r.R.PktsRecv)
	}
}

func TestTFRCSenderIgnoresForeignPackets(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	before := snd.Rate()
	snd.Handle(&netem.Packet{Kind: netem.Data})     // not feedback
	snd.Handle(&netem.Packet{Kind: netem.Feedback}) // nil FB
	if snd.Rate() != before {
		t.Fatal("sender state changed on malformed input")
	}
}

func TestTFRCSenderRateFloor(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.srtt, snd.hasRTT = 0.05, true
	snd.inSS = false
	// Catastrophic feedback: p=1, near-zero receive rate.
	snd.Handle(&netem.Packet{Kind: netem.Feedback, Echo: eng.Now() - 0.05,
		FB: &netem.TFRCFeedback{LossEventRate: 1, RecvRate: 1, LossSeen: true}})
	if snd.Rate() < snd.minRate() {
		t.Fatalf("rate %v below the one-packet-per-64s floor %v", snd.Rate(), snd.minRate())
	}
}

// A loss event shifts the interval history in place: once the first
// event has sized it, recording one allocates nothing, and the history
// stays the most recent NumIntervals intervals, newest first.
func TestLossEventAllocatesNothing(t *testing.T) {
	eng := sim.New(1)
	pool := netem.NewPacketPool()
	r := NewReceiver(eng, 1, nil, 8)
	r.Attach(netem.Sink{Pool: pool}, pool)
	var now sim.Time
	seq := int64(0)
	loss := func() {
		now += 1 // a loss event per call: they are an RTT and more apart
		seq += 10
		r.onLoss(seq, now)
	}
	for i := 0; i < 2*r.NumIntervals; i++ {
		loss()
	}
	if avg := testing.AllocsPerRun(100, loss); avg != 0 {
		t.Fatalf("a loss event allocates %v times, want 0", avg)
	}
	if len(r.intervals) != r.NumIntervals {
		t.Fatalf("history holds %d intervals, want %d", len(r.intervals), r.NumIntervals)
	}
	r.onLoss(seq+3, now+1)
	if r.intervals[0] != 3 || r.intervals[1] != 10 {
		t.Fatalf("history %v, want the 3-packet interval first, then a 10", r.intervals)
	}
}
