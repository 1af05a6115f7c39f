package exp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelMapOrderAndCompleteness(t *testing.T) {
	t.Parallel()
	out := parallelMapIndexed(100, func(_, i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelMapEmpty(t *testing.T) {
	t.Parallel()
	if got := parallelMapIndexed(0, func(int, int) int { return 1 }); len(got) != 0 {
		t.Fatal("empty map must return empty slice")
	}
}

func TestParallelMapSingle(t *testing.T) {
	t.Parallel()
	out := parallelMapIndexed(1, func(_, i int) string { return "x" })
	if len(out) != 1 || out[0] != "x" {
		t.Fatalf("out = %v", out)
	}
}

// A worker panic must surface on the caller's goroutine, naming the
// failing sweep index, instead of crashing the whole process from a
// bare goroutine.
func TestParallelMapPanicPropagates(t *testing.T) {
	t.Parallel()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic in a sweep worker was swallowed")
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("re-panic value is %T, want string", v)
		}
		if !strings.Contains(msg, "sweep index 17") {
			t.Fatalf("panic message does not name the failing index: %q", msg)
		}
		if !strings.Contains(msg, "boom") {
			t.Fatalf("panic message does not include the original value: %q", msg)
		}
	}()
	parallelMapIndexed(64, func(_, i int) int {
		if i == 17 {
			panic("boom")
		}
		return i
	})
}

// When several indices panic, the lowest one is reported so the failure
// is deterministic regardless of worker scheduling.
func TestParallelMapPanicLowestIndexWins(t *testing.T) {
	t.Parallel()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panics were swallowed")
		}
		if msg := v.(string); !strings.Contains(msg, "sweep index 3") {
			t.Fatalf("want lowest failing index 3, got: %q", msg)
		}
	}()
	parallelMapIndexed(64, func(_, i int) int {
		if i >= 3 {
			panic(i)
		}
		return i
	})
}

// All indices must still be computed even when one panics: the panic is
// raised only after the full sweep settles, so no worker stops claiming
// indices mid-sweep.
func TestParallelMapPanicDoesNotDeadlock(t *testing.T) {
	t.Parallel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		parallelMapIndexed(1000, func(_, i int) int {
			if i%7 == 0 {
				panic(i)
			}
			return i
		})
	}()
	<-done
}

// Property: parallelMapIndexed(n, f) == sequential map for any pure f.
func TestPropertyParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	f := func(n uint8, mult int16) bool {
		fn := func(i int) int64 { return int64(i) * int64(mult) }
		par := parallelMapIndexed(int(n), func(_, i int) int64 { return fn(i) })
		for i := 0; i < int(n); i++ {
			if par[i] != fn(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFairnessMultiSeedAggregation(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := FairnessConfig{
		A: TCPAlgo(0.5), B: TCPAlgo(1.0 / 8),
		Periods: []float64{2},
		Warmup:  10, Measure: 30,
		Seeds: []int64{1, 2, 3},
	}
	pts := sw.Fairness(cfg)
	if len(pts) != 1 {
		t.Fatalf("%d points, want 1 (aggregated)", len(pts))
	}
	p := pts[0]
	// Pooled per-flow samples: 5 flows x 3 seeds per side.
	if len(p.APer) != 15 || len(p.BPer) != 15 {
		t.Fatalf("pooled %d/%d per-flow samples, want 15/15", len(p.APer), len(p.BPer))
	}
	if p.AMeanCI <= 0 || p.BMeanCI <= 0 {
		t.Fatalf("multi-seed CIs must be positive: %+v", p)
	}
	if p.AMean <= 0 || p.Utilization <= 0 {
		t.Fatalf("degenerate aggregate: %+v", p)
	}
}

func TestFairnessSingleSeedNoCI(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := FairnessConfig{
		A: TCPAlgo(0.5), B: TCPAlgo(1.0 / 8),
		Periods: []float64{2},
		Warmup:  10, Measure: 20,
		Seed: 1,
	}
	pts := sw.Fairness(cfg)
	if pts[0].AMeanCI != 0 || pts[0].BMeanCI != 0 {
		t.Fatalf("single-seed run must not report CIs: %+v", pts[0])
	}
}

// deeplyNestedSweepCellFrameForStackCaptureTest builds a panic under ~a
// hundred wide stack frames (long symbol, five live args), which the old
// fixed 8 KiB capture buffer truncated mid-trace.
func deeplyNestedSweepCellFrameForStackCaptureTest(n, a, b, c, d int) int {
	if n == 0 {
		panic("deep sweep bomb")
	}
	return deeplyNestedSweepCellFrameForStackCaptureTest(n-1, a+1, b+2, c+3, d+4)
}

// A deliberately deep panic in a sweep cell must come back with its
// whole stack: both the panicking frame at the top and the caller frames
// at the bottom, in a trace larger than any fixed-size buffer guess.
func TestCaptureStackDeepPanicIsComplete(t *testing.T) {
	t.Parallel()
	var stack string
	func() {
		defer func() {
			// The re-raised panic's text ends with the captured stack.
			stack, _ = recover().(string)
			if stack == "" {
				t.Fatal("bomb did not go off")
			}
		}()
		// One cell runs on the caller's goroutine, so the test's own frame
		// is the tail of the trace.
		parallelMapIndexed(1, func(_, _ int) int {
			return deeplyNestedSweepCellFrameForStackCaptureTest(400, 0, 0, 0, 0)
		})
	}()
	if len(stack) <= 8192 {
		t.Fatalf("deep stack is only %d bytes; expected it to exceed the old fixed 8 KiB buffer", len(stack))
	}
	if !strings.Contains(stack, "deeplyNestedSweepCellFrameForStackCaptureTest") {
		t.Fatal("captured stack lost the panicking frames")
	}
	if !strings.Contains(stack, "TestCaptureStackDeepPanicIsComplete") {
		t.Fatal("captured stack lost the outermost caller frame (tail truncated)")
	}
}

// The same guarantee through the supervisor: a cell that panics deep in
// a sweep must attach the complete stack to its RunError.
func TestSuperviseDeepPanicStackComplete(t *testing.T) {
	t.Parallel()
	_, rerr := supervise(newSweep(t), 0, func(c *Cell) int {
		return deeplyNestedSweepCellFrameForStackCaptureTest(400, 0, 0, 0, 0)
	})
	if rerr == nil {
		t.Fatal("supervised bomb did not error")
	}
	if len(rerr.Stack) <= 8192 {
		t.Fatalf("RunError stack is only %d bytes; tail was truncated", len(rerr.Stack))
	}
	if !strings.Contains(rerr.Stack, "deeplyNestedSweepCellFrameForStackCaptureTest") {
		t.Fatal("RunError stack lost the panicking frames")
	}
	if !strings.Contains(rerr.Stack, "runAttempt") {
		t.Fatal("RunError stack lost the supervisor frame (tail truncated)")
	}
}

// Every index runs exactly once, on a worker in [0, workers), whether n
// is below, at or far above the worker count: the claim counter must
// neither skip an index nor hand one to two workers.
func TestParallelMapRunsEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	workers := runtime.GOMAXPROCS(0)
	for _, n := range []int{1, workers - 1, workers, 1000} {
		runs := make([]atomic.Int32, n)
		out := parallelMapIndexed(n, func(worker, i int) int {
			runs[i].Add(1)
			return worker
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times, want once", n, i, got)
			}
			if w := out[i]; w < 0 || w >= workers {
				t.Fatalf("n=%d: index %d ran on worker %d, outside [0, %d)", n, i, w, workers)
			}
		}
	}
}

// A panic behaves the same at every GOMAXPROCS, one worker included:
// the cells after it still run, and the lowest panicking index is
// re-raised once they have.
func TestParallelMapPanicSameAtEveryWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ran atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			parallelMapIndexed(10, func(_, i int) int {
				ran.Add(1)
				if i == 3 || i == 5 {
					panic(i)
				}
				return i
			})
			return nil
		}()
		if msg, _ := got.(string); ran.Load() != 10 || !strings.Contains(msg, "sweep index 3") {
			t.Fatalf("GOMAXPROCS %d: %d of 10 cells ran, re-raised %v; want all 10 and index 3", procs, ran.Load(), got)
		}
	}
}
