package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"strings"

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

// SetSweepStore installs the durable result store supervised sweeps
// commit finished cells into, or nil to remove it. With replay true,
// keyed cells are additionally served from the store when present
// (`slowccsim -store DIR -resume`); with replay false the store only
// records, so a warm store cannot mask a behavioral change unless
// resuming was asked for. Returns the previous store.
func SetSweepStore(s *store.Store, replay bool) (prev *store.Store) {
	setEnv(func(env *sweepEnv) {
		prev, env.store = env.store, s
		env.replay = replay && s != nil
	})
	return prev
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
	if supervision.env.store == nil || supervision.scope == "" {
		return "", 0
	}
	seq = supervision.scopeSeq
	supervision.scopeSeq++
	return supervision.scope, seq
}

// RequestStop asks supervised sweeps to stop gracefully: cells not yet
// started are skipped (counted in StoppedCells), in-flight cells finish
// and commit to the store. The flag is sticky for the process's life.
func RequestStop() { stopRequested.Store(true) }

// StopRequested reports whether a graceful stop has been requested.
func StopRequested() bool { return stopRequested.Load() }

// StoppedCells returns how many cells were skipped because a graceful
// stop was requested.
func StoppedCells() int64 { return supervision.stopped.Load() }

// scopeKeyVersion heads every generic key. It versions how a key is
// derived, not the store's on-disk format: a store of another format is
// refused when it is opened, so a format bump need not move the keys.
const scopeKeyVersion = "slowcc-store/1"

// scopeKeys derives per-cell store keys for a generic sweep from the
// installed scope, or nil when keying is off or T cannot round-trip
// JSON losslessly (a lossy type must never be replayed — artifacts
// rebuilt from it would differ from a cold run's).
func scopeKeys[T any](n int) func(int) string {
	var zero T
	if !lossless(reflect.TypeOf(&zero).Elem(), map[reflect.Type]bool{}) {
		return nil
	}
	scope, seq := nextSweepScope()
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
// or a "" key, leaves a cell unkeyed: never stored or replayed). For
// each index, in order: a requested stop skips the cell; a replay-mode
// store hit decodes the stored result, replays its telemetry, and emits
// queued+cached events; otherwise the cell runs under superviseCell and
// its outcome — success or degraded marker — is committed durably
// before the sweep moves on.
func supervisedMapKeyed[T any](n int, key func(i int) string, fn func(c *Cell) T) []T {
	env := currentEnv()
	st := env.store
	type res struct {
		v    T
		rerr *RunError
	}
	cells := parallelMapIndexed(n, func(worker, i int) res {
		if stopRequested.Load() {
			supervision.stopped.Add(1)
			return res{}
		}
		k := ""
		if key != nil {
			k = key(i)
		}
		if st != nil && env.replay && k != "" {
			if e, ok := st.Get(k); ok {
				if v, ok := decodeStored[T](e); ok && replayCached(&env, i, worker, e) {
					return res{v, nil}
				}
				// Present but undecodable — the result into T, or the
				// telemetry a sink asked for: quarantined, recomputed.
				st.CountCorrupt()
			}
		}
		v, stats, rerr := superviseCell(&env, i, worker, fn)
		if st != nil && k != "" {
			commitCell(&env, k, i, v, stats, rerr)
		}
		return res{v, rerr}
	})
	out := make([]T, n)
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	for i, r := range cells {
		out[i] = r.v
		if r.rerr != nil {
			supervision.errs = append(supervision.errs, r.rerr)
		}
	}
	return out
}

// decodeStored unmarshals a stored cell result into T.
func decodeStored[T any](e *store.Entry) (T, bool) {
	var v T
	err := json.Unmarshal(e.Result, &v) // an empty result is an error too
	return v, err == nil
}

// replayCached surfaces a store hit through the live-telemetry surface:
// the recorded CellStats flow into the sink exactly as a computed cell's
// would, and the cell's lifecycle is queued → cached. The stored
// telemetry is decoded only when a sink is attached; false means it did
// not decode and nothing was emitted,
// so the caller recomputes the cell instead of accepting the hit.
func replayCached(env *sweepEnv, index, worker int, e *store.Entry) bool {
	var stats *obs.CellStats
	if env.sink != nil {
		var err error
		if stats, err = e.CellStats(); err != nil {
			return false
		}
	}
	if !env.telling() {
		return true
	}
	now := env.queued(index, worker)
	if stats != nil {
		env.sink.CellStats(*stats)
	}
	env.emit(obs.SweepEvent{Kind: obs.SweepCached, Cell: index, Worker: worker,
		Outcome: "cached", Key: e.Key}, now)
	return true
}

// commitCell durably records one finished cell: a success stores its
// JSON result plus telemetry snapshot, a degradation stores a marker
// (kept for inspection, never served as a hit). Store failures degrade
// to a log line — the sweep's in-memory results are unaffected.
func commitCell[T any](env *sweepEnv, key string, index int, v T, stats obs.CellStats, rerr *RunError) {
	logger := env.logger
	e := store.Entry{Key: key, Index: index, Attempts: 1}
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
	if err := env.store.Put(e); err != nil && logger != nil {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "sweep cell store write failed",
			slog.Int("cell", index), slog.String("err", err.Error()))
	}
}

var (
	jsonMarshalerT   = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	jsonUnmarshalerT = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
)

// lossless reports whether values of type t survive a JSON round-trip
// exactly: every field reachable from t is exported and of a
// JSON-representable kind (Go's float64 JSON encoding is shortest-form
// exact, so numbers round-trip bit-for-bit). Types that implement both
// json.Marshaler and json.Unmarshaler are trusted to manage their own
// fidelity. A type failing this check makes its sweep run unkeyed —
// correct, just never cached. seen holds the types on the current path,
// so a cyclic type terminates.
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
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == "-" {
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
