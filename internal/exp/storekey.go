package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"reflect"
	"time"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// This file threads the durable result store (internal/store) through
// sweep supervision: keyed cells consult the store before running — a
// hit replays the recorded telemetry into the sink and emits a
// synthetic "cached" event instead of computing — and commit their
// result + telemetry after running, so a killed sweep resumes by
// recomputing only the cells the journal does not hold. It also owns
// the graceful-stop flag, the other way a sweep declines to run a cell.

// nextScope returns sw's scope with this invocation's sequence number
// claimed ("" when scope keying is off or sw has no store).
func (sw *Sweep) nextScope() (scope string, seq int) {
	if sw.Store == nil || sw.Scope == "" {
		return "", 0
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.scopeSeq == nil {
		sw.scopeSeq = map[string]int{}
	}
	seq = sw.scopeSeq[sw.Scope]
	sw.scopeSeq[sw.Scope]++
	return sw.Scope, seq
}

// RequestStop asks sw's supervised sweeps to stop gracefully: cells not
// yet started are skipped (counted in StoppedCells), in-flight cells
// finish and commit to the store. The request is sticky for sw's life.
// It is safe to call while a sweep runs (slowccsim's signal handler
// does).
func (sw *Sweep) RequestStop() { sw.stop.Store(true) }

// StopRequested reports whether a graceful stop has been requested.
func (sw *Sweep) StopRequested() bool { return sw.stop.Load() }

// StoppedCells returns how many cells were skipped because a graceful
// stop was requested.
func (sw *Sweep) StoppedCells() int64 { return sw.stopped.Load() }

// scopeKeyVersion heads every generic key. It versions how a key is
// derived, not the store's on-disk format: a store of another format is
// refused when it is opened, so a format bump need not move the keys.
const scopeKeyVersion = "slowcc-store/1"

// scopeKeys derives per-cell store keys for a generic sweep from sw's
// scope, or nil when keying is off or the store cannot encode
// T (a type with state the encoding would lose must never be replayed —
// artifacts rebuilt from it would differ from a cold run's).
func scopeKeys[T any](sw *Sweep, n int) func(int) string {
	var zero T
	if !store.Codable(reflect.TypeFor[T]()) {
		return nil
	}
	scope, seq := sw.nextScope()
	if scope == "" {
		return nil
	}
	return func(i int) string {
		sum := sha256.Sum256(fmt.Appendf(nil, "%s|%s|call=%d|type=%T|n=%d|cell=%d",
			scopeKeyVersion, scope, seq, zero, n, i))
		return hex.EncodeToString(sum[:])
	}
}

// supervisedMapKeyed is supervisedMap with per-cell store keys (nil key,
// or a "" key, leaves a cell unkeyed: never stored or replayed). A key
// is computed only when sw has a store, by the worker that
// serves or runs its cell. For each index, in order: a requested stop
// skips the cell; a replay-mode store hit decodes the stored result,
// replays its telemetry, and emits queued+cached events; otherwise the
// cell runs under superviseCell and its outcome — success or degraded
// marker — is committed durably before the sweep moves on.
func supervisedMapKeyed[T any](sw *Sweep, n int, key func(i int) string, fn func(c *Cell) T) []T {
	start := sw.begin()
	st := sw.Store
	out := make([]T, n)
	errs := parallelMapIndexed(n, func(worker, i int) *RunError {
		if sw.stop.Load() {
			sw.stopped.Add(1)
			return nil
		}
		k := ""
		if st != nil && key != nil {
			k = key(i)
		}
		if st != nil && sw.Replay && k != "" {
			if e, ok := st.Get(k); ok {
				if v, ok := decodeStored[T](e); ok && replayCached(sw, start, i, worker, e) {
					out[i] = v
					return nil
				}
				// Present but undecodable — the result into T, or the
				// telemetry a sink asked for: quarantined, recomputed.
				st.CountCorrupt()
			}
		}
		v, stats, rerr := superviseCell(sw, start, i, worker, fn)
		if st != nil && k != "" {
			commitCell(sw, k, i, v, stats, rerr)
		}
		out[i] = v
		return rerr
	})
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, rerr := range errs {
		if rerr != nil {
			sw.errs = append(sw.errs, rerr)
		}
	}
	return out
}

// decodeStored decodes a stored cell result into T; a result another
// type shape wrote, or an empty one, does not decode.
func decodeStored[T any](e *store.Entry) (T, bool) {
	v, err := store.Decode[T](e.Result)
	return v, err == nil
}

// replayCached surfaces a store hit through the live-telemetry surface:
// the recorded CellStats flow into the sink exactly as a computed cell's
// would, and the cell's lifecycle is queued → cached. The stored
// telemetry is decoded only when a sink is attached; false means it did
// not decode and nothing was emitted,
// so the caller recomputes the cell instead of accepting the hit.
func replayCached(sw *Sweep, start time.Time, index, worker int, e *store.Entry) bool {
	var stats *obs.CellStats
	if sw.Progress != nil {
		var err error
		if stats, err = e.CellStats(); err != nil {
			return false
		}
	}
	if !sw.telling() {
		return true
	}
	now := sw.queued(start, index, worker)
	if stats != nil {
		sw.Progress.CellStats(*stats)
	}
	sw.emit(obs.SweepEvent{Kind: obs.SweepCached, Cell: index, Worker: worker,
		Outcome: "cached", Key: e.Key}, now)
	return true
}

// commitCell durably records one finished cell: a success stores its
// encoded result plus telemetry snapshot, a degradation stores a marker
// (kept for inspection, never served as a hit). The result and the
// telemetry are encoded into the entry's one frame (store.NewEntry);
// only this code knows T, so it checks that the result it encoded
// decodes before storing it.
// A store failure leaves the sweep's in-memory results as they are; it
// is logged, and the first is kept for StoreErr.
func commitCell[T any](sw *Sweep, key string, index int, v T, stats obs.CellStats, rerr *RunError) {
	e := store.Entry{Key: key, Index: index, Attempts: 1, Degraded: rerr != nil}
	var err error
	if rerr != nil {
		e.Error = rerr.Error()
	} else {
		var st *obs.CellStats
		if stats.Counters != nil || stats.Events > 0 {
			st = &stats
		}
		if e, err = store.NewEntry(key, index, v, st); err == nil {
			_, err = store.Decode[T](e.Result)
		}
	}
	msg := "sweep cell not storable"
	if err == nil {
		msg, err = "sweep cell store write failed", sw.Store.Put(e)
	}
	if err == nil {
		return
	}
	if sw.Logger != nil {
		sw.Logger.LogAttrs(context.Background(), slog.LevelWarn, msg,
			slog.Int("cell", index), slog.String("err", err.Error()))
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.storeErr == nil {
		sw.storeErr = fmt.Errorf("%s: cell %d: %v", msg, index, err)
	}
}

// StoreErr returns the first cell sw's sweeps could not store (a result
// that did not encode, a write the store refused), or nil.
func (sw *Sweep) StoreErr() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.storeErr
}
