package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// checkpointed returns a directory holding a closed store with one
// entry per key, its snapshot back-dated so that any rewrite shows in
// the mtime.
func checkpointed(t *testing.T, keys ...string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		put(t, s, k, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "snapshot.json"), old, old); err != nil {
		t.Fatal(err)
	}
	return dir
}

func mustOpen(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// A store that was only read is closed without touching the disk.
func TestCleanCloseWritesNothing(t *testing.T) {
	keys := []string{"a", "b", "c"}
	dir := checkpointed(t, keys...)
	snapPath := filepath.Join(dir, "snapshot.json")
	before, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes, _ := os.ReadFile(snapPath)

	s := mustOpen(t, dir)
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s not served", k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	afterBytes, _ := os.ReadFile(snapPath)
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) || !bytes.Equal(beforeBytes, afterBytes) {
		t.Fatalf("clean Close rewrote the snapshot: same file %v, mtime %v -> %v",
			os.SameFile(before, after), before.ModTime(), after.ModTime())
	}
	if n := journalSize(t, dir); n != 0 {
		t.Fatalf("journal holds %d bytes after a clean Close", n)
	}
	if _, err := os.Stat(snapPath + ".tmp"); err == nil {
		t.Fatal("clean Close left a snapshot temp file")
	}
}

// Each way a store can hold more than its snapshot still compacts on
// Close, and the reopened store serves every acknowledged entry.
func TestDirtyCloseCheckpoints(t *testing.T) {
	// crashed leaves two acknowledged entries in the journal of a
	// checkpointed store, as a SIGKILL would: Put, no Close.
	crashed := func(t *testing.T) string {
		dir := checkpointed(t, "base")
		s := mustOpen(t, dir)
		put(t, s, "new1", 1)
		put(t, s, "new2", 2)
		return dir
	}
	for _, tc := range []struct {
		name    string
		prepare func(t *testing.T) string
		use     func(t *testing.T, s *store.Store)
		want    []string
	}{
		{name: "put",
			prepare: func(t *testing.T) string { return checkpointed(t, "base") },
			use:     func(t *testing.T, s *store.Store) { put(t, s, "new1", 1) },
			want:    []string{"base", "new1"}},
		{name: "journal frames at open",
			prepare: crashed,
			use: func(t *testing.T, s *store.Store) {
				if _, ok := s.Get("new2"); !ok {
					t.Fatal("acknowledged entry not served from the journal")
				}
			},
			want: []string{"base", "new1", "new2"}},
		{name: "corrupt frame",
			prepare: func(t *testing.T) string {
				dir := crashed(t)
				path := filepath.Join(dir, "journal.bin")
				blob, _ := os.ReadFile(path)
				blob[20] ^= 0x40 // inside the first frame's payload
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			use: func(t *testing.T, s *store.Store) {
				if s.Corrupt() != 1 {
					t.Fatalf("corrupt = %d, want 1", s.Corrupt())
				}
			},
			want: []string{"base", "new2"}},
		{name: "torn tail",
			prepare: func(t *testing.T) string {
				dir := crashed(t)
				if err := os.Truncate(filepath.Join(dir, "journal.bin"), journalSize(t, dir)-3); err != nil {
					t.Fatal(err)
				}
				return dir
			},
			use: func(t *testing.T, s *store.Store) {
				m, _ := filepath.Glob(filepath.Join(s.Dir(), "quarantine-*.bin"))
				if !s.TornTail() || len(m) != 1 {
					t.Fatalf("torn tail %v, quarantine files %v", s.TornTail(), m)
				}
			},
			want: []string{"base", "new1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.prepare(t)
			before, _ := os.Stat(filepath.Join(dir, "snapshot.json"))
			s := mustOpen(t, dir)
			tc.use(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := os.Stat(filepath.Join(dir, "snapshot.json"))
			if err != nil || after.ModTime().Equal(before.ModTime()) {
				t.Fatalf("dirty Close did not rewrite the snapshot (%v)", err)
			}
			if n := journalSize(t, dir); n != 0 {
				t.Fatalf("journal holds %d bytes after the checkpoint", n)
			}
			s2 := mustOpen(t, dir)
			defer s2.Close()
			if s2.Len() != len(tc.want) || s2.Corrupt() != 0 || s2.TornTail() {
				t.Fatalf("reopen: %d entries, %d corrupt, torn %v; want %d, 0, false",
					s2.Len(), s2.Corrupt(), s2.TornTail(), len(tc.want))
			}
			for _, k := range tc.want {
				if _, ok := s2.Get(k); !ok {
					t.Fatalf("entry %s lost", k)
				}
			}
		})
	}
}

// goldenEntry is the entry testdata/parent_frame.bin and
// testdata/parent_snapshot.json were recorded from, at the commit
// before telemetry became raw JSON (its Stats was an *obs.CellStats).
func goldenEntry(t *testing.T) store.Entry {
	var h obs.Histogram
	h.Record(0.001)
	h.Record(0.25)
	return store.Entry{Key: "golden", Index: 5, Attempts: 2,
		Result: json.RawMessage(`{"x":1.5,"s":"<&>"}`),
		Stats: encodeStats(t, &obs.CellStats{
			Cell:     3,
			Counters: map[string]int64{"link.lr.bytes": 123, "link.lr.drops": 4, "a<b&c": 1},
			Hists:    []obs.HistSnapshot{{Name: "queue_delay_s", Hist: h}},
			Digest:   0xdeadbeef, DigestEvents: 7, Events: 9,
			Halt: "wall budget", Halts: []string{"wall budget", "event budget"},
		})}
}

func wroteParentFrame(t *testing.T, e store.Entry) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "parent_frame.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "journal.bin"))
	if !bytes.Equal(got, want) {
		t.Fatalf("frame differs from the parent's:\n%s\nwant\n%s", got[12:], want[12:])
	}
}

func TestPutFrameMatchesParentGolden(t *testing.T) {
	wroteParentFrame(t, goldenEntry(t))
}

// A snapshot an older build wrote (indented, telemetry nested) opens to
// the same entries, and an entry read from it is written back as the
// same frame bytes.
func TestParentIndentedSnapshotOpens(t *testing.T) {
	indented, err := os.ReadFile(filepath.Join("testdata", "parent_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if s.Len() != 3 || s.Corrupt() != 0 {
		t.Fatalf("%d entries, %d corrupt; want 3, 0", s.Len(), s.Corrupt())
	}
	if e, ok := peek(s, "bad"); !ok || !e.Degraded || e.Error != "deadline" || e.Attempts != 3 {
		t.Fatalf("degraded entry: %+v, %v", e, ok)
	}
	if e, ok := s.Get("plain"); !ok || string(e.Result) != `"second"` {
		t.Fatalf("plain entry: %+v, %v", e, ok)
	}
	e, ok := s.Get("golden")
	if !ok {
		t.Fatal("golden entry not served")
	}
	cs, err := e.CellStats()
	if err != nil || cs == nil || cs.Events != 9 || cs.Counters["a<b&c"] != 1 || len(cs.Hists) != 1 {
		t.Fatalf("golden telemetry: %+v, %v", cs, err)
	}
	wroteParentFrame(t, *e)

	// Compacting rewrites it as compact JSON holding the same entries.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compact, _ := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	var want bytes.Buffer
	if err := json.Compact(&want, indented); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(compact, want.Bytes()) {
		t.Fatalf("checkpoint wrote\n%s\nwant the parent's document, compacted:\n%s", compact, want.Bytes())
	}
}

func frame(payload string) []byte {
	h := fnv.New64a()
	h.Write([]byte(payload))
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint64(b, h.Sum64())
	return append(b, payload...)
}

// Both readers refuse a nil, keyless or foreign-schema entry: counted
// corrupt, skipped, never served, never a panic.
func TestReadersRefuseUnservableEntries(t *testing.T) {
	const good = `{"schema":"slowcc-store/1","key":"good","index":0,"attempts":1,"result":1}`
	for name, bad := range map[string]string{
		"nil":            `null`,
		"keyless":        `{"schema":"slowcc-store/1","key":"","index":0,"attempts":1,"result":2}`,
		"foreign schema": `{"schema":"slowcc-store/0","key":"stale","index":0,"attempts":1,"result":2}`,
	} {
		for _, file := range []string{"snapshot.json", "journal.bin"} {
			t.Run(name+"/"+file, func(t *testing.T) {
				dir := t.TempDir()
				blob := append(frame(bad), frame(good)...)
				if file == "snapshot.json" {
					blob = fmt.Appendf(nil, `{"schema":"slowcc-store/1","entries":[%s,%s]}`, bad, good)
				}
				if err := os.WriteFile(filepath.Join(dir, file), blob, 0o644); err != nil {
					t.Fatal(err)
				}
				s := mustOpen(t, dir)
				defer s.Close()
				if s.Len() != 1 || s.Corrupt() != 1 {
					t.Fatalf("%d entries, %d corrupt; want 1, 1", s.Len(), s.Corrupt())
				}
				for _, e := range s.Entries() {
					if e.Key != "good" {
						t.Fatalf("served %+v", e)
					}
				}
			})
		}
	}
}
