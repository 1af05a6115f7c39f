package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"sync"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// This file threads the durable result store (internal/store) through
// sweep supervision: keyed cells consult the store before running — a
// hit replays the recorded telemetry into the sink and emits a
// synthetic "cached" event instead of computing — and commit their
// result + telemetry after running, so a killed sweep resumes by
// recomputing only the cells the journal does not hold. It also owns
// the graceful-stop flag and the per-kind circuit breaker, the two
// other ways a sweep declines to run a cell.

// SetSweepStore installs the durable result store supervised sweeps
// commit finished cells into, or nil to remove it. With replay true,
// keyed cells are additionally served from the store when present
// (`slowccsim -store DIR -resume`); with replay false the store only
// records, so a warm store cannot mask a behavioral change unless
// resuming was asked for. Returns the previous store.
func SetSweepStore(s *store.Store, replay bool) (prev *store.Store) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	prev = supervision.store
	supervision.store = s
	supervision.replay = replay && s != nil
	return prev
}

// SweepStore returns the installed result store (nil when none).
func SweepStore() *store.Store {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	return supervision.store
}

func sweepStore() (*store.Store, bool) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	return supervision.store, supervision.replay
}

// SetSweepScope names the current run for generic sweep keying: when a
// store and a scope are both installed, every supervisedMap whose
// result type round-trips JSON losslessly keys its cells by
// (scope, invocation sequence, result type, cell index, sweep size).
// The caller must pick a scope that is a pure function of the run's
// inputs (slowccsim uses the pre-run manifest digest plus the
// experiment name) — resumability depends on the same invocation
// producing the same keys. Setting a scope resets the invocation
// sequence; "" disables generic keying (matrix cells, keyed by their
// own per-cell manifests, are unaffected). Returns the previous scope.
func SetSweepScope(scope string) (prev string) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	prev = supervision.scope
	supervision.scope = scope
	supervision.scopeSeq = 0
	return prev
}

// nextSweepScope returns the current scope with this invocation's
// sequence number claimed ("" when scope keying is off or no store is
// installed).
func nextSweepScope() (scope string, seq int) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	if supervision.store == nil || supervision.scope == "" {
		return "", 0
	}
	seq = supervision.scopeSeq
	supervision.scopeSeq++
	return supervision.scope, seq
}

// RequestStop asks supervised sweeps to stop gracefully: cells not yet
// started are skipped (counted in StoppedCells), in-flight cells finish
// and commit to the store. The flag is sticky until ResetStop.
func RequestStop() { stopRequested.Store(true) }

// StopRequested reports whether a graceful stop has been requested.
func StopRequested() bool { return stopRequested.Load() }

// ResetStop clears the stop flag and the skipped-cell counter.
func ResetStop() {
	stopRequested.Store(false)
	supervision.mu.Lock()
	supervision.stopped = 0
	supervision.mu.Unlock()
}

// StoppedCells returns how many cells were skipped because a graceful
// stop was requested.
func StoppedCells() int64 {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	return supervision.stopped
}

func countStopped() {
	supervision.mu.Lock()
	supervision.stopped++
	supervision.mu.Unlock()
}

// breakerOpen reports whether kind's circuit breaker is open under pol.
func breakerOpen(kind string, pol CellPolicy) bool {
	if kind == "" || pol.BreakerThreshold <= 0 {
		return false
	}
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	return supervision.breaker[kind] >= pol.BreakerThreshold
}

// breakerRecord feeds one finished cell into kind's breaker state:
// a degradation increments the consecutive count, a success closes it.
func breakerRecord(kind string, degraded bool) {
	if kind == "" {
		return
	}
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	if !degraded {
		delete(supervision.breaker, kind)
		return
	}
	if supervision.breaker == nil {
		supervision.breaker = map[string]int{}
	}
	supervision.breaker[kind]++
}

// ResetBreaker clears all circuit-breaker state (test isolation, and
// the start of a fresh CLI run).
func ResetBreaker() {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	supervision.breaker = nil
}

// cellMeta keys one sweep cell: key is its deterministic store digest
// ("" = unkeyed, never stored or replayed), kind groups cells for the
// circuit breaker ("" = ungrouped).
type cellMeta struct {
	key  string
	kind string
}

// scopeMeta derives per-cell store keys for a generic sweep from the
// installed scope, or nil when keying is off or T cannot round-trip
// JSON losslessly (a lossy type must never be replayed — artifacts
// rebuilt from it would differ from a cold run's).
func scopeMeta[T any](n int) func(int) cellMeta {
	var zero T
	if !jsonLossless(reflect.TypeOf(&zero).Elem()) {
		return nil
	}
	scope, seq := nextSweepScope()
	if scope == "" {
		return nil
	}
	return func(i int) cellMeta {
		sum := sha256.Sum256(fmt.Appendf(nil, "%s|%s|call=%d|type=%T|n=%d|cell=%d",
			store.Schema, scope, seq, zero, n, i))
		return cellMeta{key: hex.EncodeToString(sum[:])}
	}
}

// supervisedMapMeta is supervisedMap with per-cell store keys and
// breaker kinds. For each index, in order: a requested stop skips the
// cell; a replay-mode store hit decodes the stored result, replays its
// telemetry, and emits queued+cached events; an open breaker skips the
// cell with a BreakerOpen RunError; otherwise the cell runs under
// superviseCell and its outcome — success or degraded marker — is
// committed durably before the sweep moves on.
func supervisedMapMeta[T any](n int, meta func(i int) cellMeta, fn func(c *Cell) T) []T {
	pol := SweepPolicy()
	st, replay := sweepStore()
	type res struct {
		v    T
		rerr *RunError
	}
	cells := parallelMapIndexed(n, func(worker, i int) res {
		var m cellMeta
		if meta != nil {
			m = meta(i)
		}
		if stopRequested.Load() {
			countStopped()
			var zero T
			return res{zero, nil}
		}
		if st != nil && replay && m.key != "" {
			if e, ok := st.Get(m.key); ok {
				if v, ok := decodeStored[T](e); ok && replayCached(i, worker, e) {
					return res{v, nil}
				}
				// Present but undecodable — the result into T, or the
				// telemetry a sink asked for: quarantined, recomputed.
				st.CountCorrupt()
			}
		}
		if breakerOpen(m.kind, pol) {
			var zero T
			return res{zero, &RunError{Index: i, BreakerOpen: true, Kind: m.kind}}
		}
		v, stats, attempts, rerr := superviseCell(i, worker, pol, fn)
		breakerRecord(m.kind, rerr != nil)
		if st != nil && m.key != "" {
			commitCell(st, m.key, i, attempts, v, stats, rerr)
		}
		return res{v, rerr}
	})
	out := make([]T, n)
	for i, r := range cells {
		out[i] = r.v
		if r.rerr != nil {
			recordSweepError(r.rerr)
		}
	}
	return out
}

// decodeStored unmarshals a stored cell result into T.
func decodeStored[T any](e *store.Entry) (T, bool) {
	var v T
	if len(e.Result) == 0 {
		return v, false
	}
	if err := json.Unmarshal(e.Result, &v); err != nil {
		return v, false
	}
	return v, true
}

// replayCached surfaces a store hit through the live-telemetry surface:
// the recorded CellStats (re-indexed to this sweep) flow into the sink
// exactly as a computed cell's would, and the cell's lifecycle on SSE
// is queued → cached. The stored telemetry is decoded only when a sink
// is attached; false means it did not decode and nothing was emitted,
// so the caller recomputes the cell instead of accepting the hit.
func replayCached(index, worker int, e *store.Entry) bool {
	sink, logger, st0 := sweepTelemetry()
	var stats *obs.CellStats
	if sink != nil {
		var err error
		if stats, err = e.CellStats(); err != nil {
			return false
		}
	}
	tl, t0 := sweepTimeline()
	if tl != nil {
		tl.ProcessName(sweepWorkersPid, "sweep workers")
		tl.ThreadName(sweepWorkersPid, worker, fmt.Sprintf("worker %d", worker))
		tl.Instant("cached", fmt.Sprintf("cell %d cached", index), sweepWorkersPid, worker,
			sweepSince(t0), map[string]any{"index": index, "key": e.Key})
	}
	if logger != nil {
		logger.LogAttrs(context.Background(), slog.LevelInfo, "sweep cell cached",
			slog.Int("cell", index), slog.Int("worker", worker), slog.String("key", e.Key))
	}
	if sink == nil {
		return true
	}
	sink.SweepEvent(obs.SweepEvent{Kind: obs.SweepQueued, Cell: index, Worker: worker, AtMS: msSince(st0)})
	if stats != nil {
		stats.Cell = index
		sink.CellStats(*stats)
	}
	sink.SweepEvent(obs.SweepEvent{Kind: obs.SweepCached, Cell: index, Worker: worker,
		Outcome: "cached", AtMS: msSince(st0)})
	return true
}

// commitCell durably records one finished cell: a success stores its
// JSON result plus telemetry snapshot, a degradation stores a marker
// (kept for inspection, never served as a hit). Store failures degrade
// to a log line — the sweep's in-memory results are unaffected.
func commitCell[T any](st *store.Store, key string, index, attempts int, v T, stats obs.CellStats, rerr *RunError) {
	_, logger, _ := sweepTelemetry()
	e := store.Entry{Key: key, Index: index, Attempts: attempts}
	if rerr != nil {
		e.Degraded = true
		e.Error = rerr.Error()
	} else {
		blob, err := json.Marshal(v)
		if err == nil && (stats.Counters != nil || stats.Events > 0) {
			e.Stats, err = json.Marshal(&stats)
		}
		if err != nil {
			if logger != nil {
				logger.LogAttrs(context.Background(), slog.LevelWarn, "sweep cell not storable",
					slog.Int("cell", index), slog.String("err", err.Error()))
			}
			return
		}
		e.Result = blob
	}
	if err := st.Put(e); err != nil && logger != nil {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "sweep cell store write failed",
			slog.Int("cell", index), slog.String("err", err.Error()))
	}
}

// losslessCache memoizes jsonLossless per reflect.Type.
var losslessCache sync.Map // reflect.Type -> bool

var (
	jsonMarshalerT   = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	jsonUnmarshalerT = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
)

// jsonLossless reports whether values of type t survive a JSON
// round-trip exactly: every field reachable from t is exported and of a
// JSON-representable kind (Go's float64 JSON encoding is shortest-form
// exact, so numbers round-trip bit-for-bit). Types that implement both
// json.Marshaler and json.Unmarshaler are trusted to manage their own
// fidelity (obs.Histogram does). A type failing this check makes its
// sweep run unkeyed — correct, just never cached.
func jsonLossless(t reflect.Type) bool {
	if v, ok := losslessCache.Load(t); ok {
		return v.(bool)
	}
	ok := lossless(t, map[reflect.Type]bool{})
	losslessCache.Store(t, ok)
	return ok
}

func lossless(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true // cycle: sound if every other path is
	}
	seen[t] = true
	defer delete(seen, t)
	if t.Implements(jsonMarshalerT) || reflect.PointerTo(t).Implements(jsonMarshalerT) {
		return t.Implements(jsonUnmarshalerT) || reflect.PointerTo(t).Implements(jsonUnmarshalerT)
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return lossless(t.Elem(), seen)
	case reflect.Map:
		// encoding/json round-trips string and integer map keys (integers
		// travel as quoted decimal strings); anything else is lossy or
		// unmarshalable.
		switch t.Key().Kind() {
		case reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return lossless(t.Elem(), seen)
		}
		return false
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" { // unexported: silently dropped by encoding/json
				return false
			}
			if tag, _, _ := cutTag(f.Tag.Get("json")); tag == "-" {
				return false
			}
			if !lossless(f.Type, seen) {
				return false
			}
		}
		return true
	default: // interface, chan, func, complex, unsafe pointer
		return false
	}
}

// cutTag splits a json struct tag into its name and options.
func cutTag(tag string) (name, opts string, found bool) {
	for i := 0; i < len(tag); i++ {
		if tag[i] == ',' {
			return tag[:i], tag[i+1:], true
		}
	}
	return tag, "", false
}
