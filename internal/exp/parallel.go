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
// it, 0..workers-1 (0 in the single-worker fallback), so supervised
// sweeps can attribute each cell to a worker lane in timeline exports.
//
// Workers claim indices from one shared counter, so cells start in
// ascending index order and a cell costs its worker one atomic add, not
// a hand-off: a sweep of microsecond cells (a warm replay's store hits)
// is not paced by goroutine wake-ups.
//
// A panic inside fn does not crash the process from a bare worker
// goroutine: it is captured (with the failing sweep index and the
// worker's stack) and re-raised on the caller's goroutine once every
// in-flight item has settled, so test frameworks and callers see an
// ordinary panic with context. When several indices panic, the lowest
// index wins, which keeps the reported failure deterministic.
func parallelMapIndexed[T any](n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	run := func(worker, i int) (p *sweepPanic) {
		defer func() {
			if v := recover(); v != nil {
				p = &sweepPanic{index: i, value: v, stack: debug.Stack()}
			}
		}()
		out[i] = fn(worker, i)
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if p := run(0, i); p != nil {
				panic(p.String())
			}
		}
		return out
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstPan *sweepPanic
		next     atomic.Int64 // the lowest index no worker has claimed
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Recovering per item keeps the worker claiming indices, so
			// a panicking cell never strands the ones after it.
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if p := run(worker, i); p != nil {
					mu.Lock()
					if firstPan == nil || p.index < firstPan.index {
						firstPan = p
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if firstPan != nil {
		panic(firstPan.String())
	}
	return out
}
