package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// sweepPanic carries a worker panic back to the caller goroutine along
// with the sweep index that raised it.
type sweepPanic struct {
	index int
	value any
	stack []byte
}

func (p *sweepPanic) String() string {
	return fmt.Sprintf("exp: sweep index %d panicked: %v\n%s", p.index, p.value, p.stack)
}

// parallelMapIndexed runs fn over 0..n-1 on up to GOMAXPROCS workers and
// returns the results in index order. Each simulation owns its engine,
// so sweep points are independent; this turns the full-paper sweeps
// from minutes into tens of seconds on a multicore host. Determinism is
// preserved: results depend only on each point's own seed, never on
// scheduling. fn also gets the index of the worker (goroutine) running
// it, 0..workers-1, so supervised sweeps can attribute each cell to a
// worker lane in timeline exports. One worker is one goroutine like any
// other: a sweep behaves the same at every GOMAXPROCS.
//
// Workers claim indices from one shared counter, so cells start in
// ascending index order and a cell costs its worker one atomic add, not
// a hand-off: a sweep of microsecond cells (a warm replay's store hits)
// is not paced by goroutine wake-ups.
//
// A panic inside fn does not crash the process from a bare worker
// goroutine: it is captured (with the failing sweep index and the
// worker's stack) and re-raised on the caller's goroutine once every
// index has run, so test frameworks and callers see an ordinary panic
// with context. When several indices panic, the lowest index wins,
// which keeps the reported failure deterministic.
func parallelMapIndexed[T any](n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstPan *sweepPanic
		next     atomic.Int64 // the lowest index no worker has claimed
	)
	// Recovering per item keeps the worker claiming indices, so a
	// panicking cell never strands the ones after it.
	run := func(worker, i int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if firstPan == nil || i < firstPan.index {
					firstPan = &sweepPanic{index: i, value: v, stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		out[i] = fn(worker, i)
	}
	for w := range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				run(w, i)
			}
		}()
	}
	wg.Wait()
	if firstPan != nil {
		panic(firstPan.String())
	}
	return out
}
