package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

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
	if err := os.Chtimes(filepath.Join(dir, "snapshot.bin"), old, old); err != nil {
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
	snapPath := filepath.Join(dir, "snapshot.bin")
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
			before, _ := os.Stat(filepath.Join(dir, "snapshot.bin"))
			s := mustOpen(t, dir)
			tc.use(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := os.Stat(filepath.Join(dir, "snapshot.bin"))
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
