package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

func put[T any](t *testing.T, s *store.Store, key string, result T) {
	t.Helper()
	blob, err := store.Encode(result)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(store.Entry{Key: key, Attempts: 1, Result: blob}); err != nil {
		t.Fatal(err)
	}
}

// peek finds key among every stored entry, degraded ones included,
// without touching the hit/miss counters (the inspection path).
func peek(s *store.Store, key string) (*store.Entry, bool) {
	for _, e := range s.Entries() {
		if e.Key == key {
			return e, true
		}
	}
	return nil, false
}

func encodeStats(t testing.TB, st *obs.CellStats) []byte {
	t.Helper()
	blob, err := store.Encode(*st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "a", map[string]float64{"x": 1.5})
	put(t, s, "b", "second")
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on a missing key succeeded")
	}
	if s.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses())
	}
	// Reopen without Close: only the fsync'd journal may be relied on,
	// exactly the SIGKILL case.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.Get("a")
	if !ok {
		t.Fatal("entry a lost across reopen")
	}
	got, err := store.Decode[map[string]float64](e.Result)
	if err != nil || got["x"] != 1.5 {
		t.Fatalf("entry a result %s, %v", e.Result, err)
	}
	if _, ok := s2.Get("b"); !ok {
		t.Fatal("entry b lost across reopen")
	}
	if s2.Hits() != 2 || s2.Corrupt() != 0 {
		t.Fatalf("hits=%d corrupt=%d, want 2, 0", s2.Hits(), s2.Corrupt())
	}
}

func TestLastWritePerKeyWins(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	put(t, s, "k", "old")
	put(t, s, "k", "new")
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.Get("k")
	if !ok {
		t.Fatal("entry lost")
	}
	if v, _ := store.Decode[string](e.Result); v != "new" {
		t.Fatalf("replay kept %q, want the later write", v)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

func TestTornTailQuarantinedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	put(t, s, "intact", 1)
	put(t, s, "torn", 2)
	journal := filepath.Join(dir, "journal.bin")
	blob, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final frame mid-payload — the crash-mid-append shape.
	if err := os.Truncate(journal, int64(len(blob)-3)); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if !s2.TornTail() {
		t.Fatal("torn tail not reported")
	}
	if _, ok := s2.Get("intact"); !ok {
		t.Fatal("intact entry lost to the torn tail")
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("partially-written entry was trusted")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "quarantine-*.bin")); len(m) != 1 {
		t.Fatalf("quarantine files = %v, want exactly one", m)
	}
	// The repaired journal must accept appends and reopen cleanly.
	put(t, s2, "after", 3)
	s3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.TornTail() {
		t.Fatal("tail still torn after repair")
	}
	for _, k := range []string{"intact", "after"} {
		if _, ok := s3.Get(k); !ok {
			t.Fatalf("entry %s lost after repair", k)
		}
	}
}

func TestTornHeaderTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	put(t, s, "only", 1)
	journal := filepath.Join(dir, "journal.bin")
	// Append 5 stray bytes: a header torn before its length landed.
	f, _ := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{1, 2, 3, 4, 5})
	f.Close()
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.TornTail() {
		t.Fatal("torn header not reported")
	}
	if _, ok := s2.Get("only"); !ok {
		t.Fatal("entry lost to torn header")
	}
}

func TestBitFlippedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	put(t, s, "first", 1)
	firstLen, _ := os.Stat(filepath.Join(dir, "journal.bin"))
	put(t, s, "second", 2)
	blob, err := os.ReadFile(filepath.Join(dir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit inside the FIRST entry: framing stays intact,
	// the checksum does not.
	blob[firstLen.Size()/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "journal.bin"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen with corrupt entry: %v", err)
	}
	if s2.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1", s2.Corrupt())
	}
	if _, ok := s2.Get("first"); ok {
		t.Fatal("checksum-failed entry was trusted")
	}
	if _, ok := s2.Get("second"); !ok {
		t.Fatal("entry after the corrupt one was lost — framing must resync")
	}
}

func TestCheckpointCompactsAndSurvives(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	put(t, s, "a", 1)
	put(t, s, "b", 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.Stat(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		t.Fatalf("no snapshot after Close: %v", err)
	}
	if snap.Size() == 0 {
		t.Fatal("empty snapshot")
	}
	journal, err := os.Stat(filepath.Join(dir, "journal.bin"))
	if err != nil || journal.Size() != 0 {
		t.Fatalf("journal not reset after checkpoint: %v bytes, %v", journal.Size(), err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("entry %s lost across checkpoint", k)
		}
	}
	// Journal writes after a checkpoint overlay the snapshot.
	put(t, s2, "a", 10)
	put(t, s2, "c", 3)
	s3, _ := store.Open(dir)
	e, ok := s3.Get("a")
	if !ok {
		t.Fatal("entry a lost")
	}
	if v, _ := store.Decode[int](e.Result); v != 10 {
		t.Fatalf("journal overlay lost: a = %x, want 10", e.Result)
	}
	if s3.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s3.Len())
	}
}

func TestDegradedEntriesAreRecordedButNeverHits(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	if err := s.Put(store.Entry{Key: "bad", Attempts: 2, Degraded: true, Error: "deadline"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("bad"); ok {
		t.Fatal("degraded entry served as a hit")
	}
	if s.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses())
	}
	if e, ok := peek(s, "bad"); !ok || !e.Degraded || e.Error != "deadline" {
		t.Fatalf("Entries lost the degraded record: %+v, %v", e, ok)
	}
	// A later success overwrites the degraded marker.
	put(t, s, "bad", 42)
	if _, ok := s.Get("bad"); !ok {
		t.Fatal("recovered entry not served")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	st := &obs.CellStats{
		Counters: map[string]int64{"link.lr.bytes": 123},
		Digest:   0xdeadbeef, DigestEvents: 7, Events: 9,
	}
	if err := s.Put(store.Entry{Key: "k", Stats: encodeStats(t, st)}); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s2.Get("k")
	if !ok {
		t.Fatal("entry lost")
	}
	g, err := e.CellStats()
	if err != nil || g == nil {
		t.Fatalf("stats lost: %+v, %v", e, err)
	}
	if g.Counters["link.lr.bytes"] != 123 || g.Digest != 0xdeadbeef ||
		g.DigestEvents != 7 || g.Events != 9 {
		t.Fatalf("stats round-trip mismatch: %+v", g)
	}
}

func TestOpenReadOnlyNeverRepairs(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.Open(dir)
	put(t, s, "a", 1)
	journal := filepath.Join(dir, "journal.bin")
	blob, _ := os.ReadFile(journal)
	os.Truncate(journal, int64(len(blob)-2))
	before, _ := os.Stat(journal)

	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.TornTail() {
		t.Fatal("read-only open hid the torn tail")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(journal)
	if before.Size() != after.Size() {
		t.Fatal("read-only open modified the journal")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "quarantine-*.bin")); len(m) != 0 {
		t.Fatal("read-only open wrote a quarantine file")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err == nil {
		t.Fatal("read-only Close wrote a snapshot")
	}
}

// TestPutRefusedWhenNotDurable holds Put to its doc: an entry it accepts
// is on disk. A store opened read-only, or already closed, has no
// journal to append to, so Put returns an error and the entry is not
// held in memory either.
func TestPutRefusedWhenNotDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "a", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*store.Store{"closed": s, "read-only": ro} {
		blob, _ := store.Encode(2)
		if err := st.Put(store.Entry{Key: "b", Attempts: 1, Result: blob}); err == nil {
			t.Errorf("Put into a %s store returned nil", name)
		}
		if _, ok := peek(st, "b"); ok {
			t.Errorf("a %s store holds the entry Put refused", name)
		}
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = store.OpenReadOnly(dir); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("reopened store holds %d entries, want only a", s.Len())
	}
}
