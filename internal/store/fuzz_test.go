package store_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// FuzzOpen feeds arbitrary bytes to both on-disk files. Whatever the
// files hold, Open and OpenReadOnly must not panic, must not allocate
// beyond a multiple of what they were given (a hostile length prefix
// promises up to 4 GiB), must only hold servable entries, and a store
// that opened must close and reopen to the same entries, repaired. With
// v1 set the snapshot bytes land where a slowcc-store/1 build kept its
// JSON snapshot, and both openers must refuse the directory untouched.
func FuzzOpen(f *testing.F) {
	seedDir := f.TempDir()
	s, err := store.Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	stats := &obs.CellStats{Counters: map[string]int64{"link.lr.bytes": 123}, Events: 9}
	for _, e := range []store.Entry{
		{Key: "a", Attempts: 1, Result: []byte(`{"x":1.5}`), Stats: encodeStats(f, stats)},
		{Key: "b", Attempts: 2, Degraded: true, Error: "deadline"},
	} {
		if err := s.Put(e); err != nil {
			f.Fatal(err)
		}
	}
	journal, _ := os.ReadFile(filepath.Join(seedDir, "journal.bin"))
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	snapshot, _ := os.ReadFile(filepath.Join(seedDir, "snapshot.bin"))
	v1, err := os.ReadFile(filepath.Join("testdata", "parent_snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(snapshot, []byte(nil), false)
	f.Add([]byte(nil), journal, false)
	f.Add(snapshot, journal[:len(journal)-3], false) // torn tail
	f.Add(rawFrame(`null`, ``, ``), []byte(nil), false)
	f.Add([]byte(nil), append(binary.LittleEndian.AppendUint32(nil, 0xffffffff), journal[4:]...), false) // implausible length
	f.Add([]byte(nil), append(binary.LittleEndian.AppendUint32(nil, 1<<28), journal[4:]...), false)      // plausible, far past the end
	f.Add(v1, journal, true)

	f.Fuzz(func(t *testing.T, snapshot, journal []byte, v1 bool) {
		dir := t.TempDir()
		snapName := "snapshot.bin"
		if v1 {
			snapName = "snapshot.json"
		}
		if len(snapshot) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.bin"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		servable := func(s *store.Store) {
			for _, e := range s.Entries() {
				if e == nil || e.Key == "" || e.Schema != store.Schema {
					t.Fatalf("holds an unservable entry: %+v", e)
				}
			}
		}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ro, err := store.OpenReadOnly(dir)
		runtime.ReadMemStats(&m1)
		if limit := uint64(1<<20 + 512*(len(snapshot)+len(journal))); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("open allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(snapshot)+len(journal))
		}
		if v1 && len(snapshot) > 0 {
			if err == nil {
				t.Fatal("OpenReadOnly accepted a slowcc-store/1 directory")
			}
			if s, err := store.Open(dir); err == nil {
				s.Close()
				t.Fatal("Open accepted a slowcc-store/1 directory")
			}
			after, _ := os.ReadFile(filepath.Join(dir, "journal.bin"))
			if ents, _ := os.ReadDir(dir); len(ents) != 2 || !bytes.Equal(after, journal) {
				t.Fatalf("refusing a slowcc-store/1 directory changed it: %d files", len(ents))
			}
			return
		}
		if err != nil {
			if s, err := store.Open(dir); err == nil {
				s.Close()
				t.Fatal("Open accepted a store OpenReadOnly refused")
			}
			return
		}
		servable(ro)
		if after, _ := os.ReadFile(filepath.Join(dir, "journal.bin")); len(after) != len(journal) {
			t.Fatal("read-only open changed the journal")
		}

		s, err := store.Open(dir)
		if err != nil {
			t.Fatalf("OpenReadOnly accepted a store Open refuses: %v", err)
		}
		servable(s)
		n := s.Len()
		if n != ro.Len() {
			t.Fatalf("Open holds %d entries, OpenReadOnly %d", n, ro.Len())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = store.Open(dir)
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		defer s.Close()
		if s.Len() != n || s.TornTail() {
			t.Fatalf("reopen: %d entries (torn tail %v), want %d and a repaired journal", s.Len(), s.TornTail(), n)
		}
	})
}
