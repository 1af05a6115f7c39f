package store_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/frame_v3.bin")

// rawFrame builds a frame by hand: u32 payload length, u32 CRC-32C of
// the payload, then the u32-prefixed head, the u32-prefixed result and
// the stats.
func rawFrame(head, result, stats []byte) []byte {
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(head)))
	p = append(p, head...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(result)))
	p = append(p, result...)
	p = append(p, stats...)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, p...)
}

// frameHead has the shape of a frame's head. A fingerprint covers
// shapes, not type names, so its encoding is a head the store reads.
type frameHead struct {
	Schema, Key     string
	Index, Attempts int
	Degraded        bool
	Error           string
}

func encode[T any](t testing.TB, v T) []byte {
	t.Helper()
	b, err := store.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenResult is the result type of the golden entry.
type goldenResult struct {
	X float64
	S string
}

// goldenEntry is the entry testdata/frame_v3.bin was recorded from.
func goldenEntry(t testing.TB) store.Entry {
	return store.Entry{Key: "golden", Index: 5, Attempts: 2,
		Result: encode(t, goldenResult{1.5, "<&>"}),
		Stats: encodeStats(t, &obs.CellStats{
			Counters: map[string]int64{"a<b&c": 1, "link.lr.bytes": 123, "link.lr.drops": 4},
			Digest:   0xdeadbeef, DigestEvents: 7, Events: 9}),
	}
}

// Put writes the golden entry as exactly the recorded frame, and a
// checkpoint writes that same frame as the whole snapshot. Re-record
// with -update only when the format changes on purpose, and bump
// Schema with it.
func TestPutFrameMatchesParentGolden(t *testing.T) {
	golden := filepath.Join("testdata", "frame_v3.bin")
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put(goldenEntry(t)); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "journal.bin"))
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame differs from the recorded one:\n%q\nwant\n%q", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if snap, _ := os.ReadFile(filepath.Join(dir, "snapshot.bin")); !bytes.Equal(snap, want) {
		t.Fatalf("snapshot differs from the recorded frame:\n%q", snap)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	e, ok := s.Get("golden")
	if !ok {
		t.Fatal("golden entry not served")
	}
	if r, err := store.Decode[goldenResult](e.Result); err != nil || r != (goldenResult{1.5, "<&>"}) {
		t.Fatalf("golden result: %+v, %v", r, err)
	}
	cs, err := e.CellStats()
	if err != nil || cs == nil || cs.Events != 9 || cs.Counters["a<b&c"] != 1 || cs.Counters["link.lr.drops"] != 4 {
		t.Fatalf("golden telemetry: %+v, %v", cs, err)
	}
}

// refusedUntouched opens dir with both openers, each of which must
// refuse it with an error naming schema and this build's, and checks
// that not one of its bytes, names or mtimes changed.
func refusedUntouched(t *testing.T, dir, schema string) {
	t.Helper()
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if err := os.Chtimes(filepath.Join(dir, de.Name()), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(dir, old, old); err != nil {
		t.Fatal(err)
	}
	type state struct {
		names  []string
		blobs  [][]byte
		mtimes []time.Time
	}
	look := func() state {
		var st state
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range ents {
			info, _ := de.Info()
			blob, _ := os.ReadFile(filepath.Join(dir, de.Name()))
			st.names = append(st.names, de.Name())
			st.blobs = append(st.blobs, blob)
			st.mtimes = append(st.mtimes, info.ModTime())
		}
		info, _ := os.Stat(dir)
		st.mtimes = append(st.mtimes, info.ModTime())
		return st
	}
	before := look()
	for name, open := range map[string]func(string) (*store.Store, error){
		"Open": store.Open, "OpenReadOnly": store.OpenReadOnly,
	} {
		s, err := open(dir)
		if err == nil {
			s.Close()
			t.Fatalf("%s accepted a %s directory", name, schema)
		}
		if msg := err.Error(); !strings.Contains(msg, schema) || !strings.Contains(msg, store.Schema) {
			t.Fatalf("%s: %q does not name both schemas", name, msg)
		}
	}
	after := look()
	if strings.Join(after.names, ",") != strings.Join(before.names, ",") {
		t.Fatalf("directory holds %v, had %v", after.names, before.names)
	}
	for i := range before.blobs {
		if !bytes.Equal(after.blobs[i], before.blobs[i]) {
			t.Fatalf("%s changed", before.names[i])
		}
	}
	for i := range before.mtimes {
		if !after.mtimes[i].Equal(before.mtimes[i]) {
			t.Fatalf("mtime %d moved: %v -> %v", i, before.mtimes[i], after.mtimes[i])
		}
	}
}

// A directory an older build left (its indented slowcc-store/1
// snapshot.json) is refused by both openers with an error naming both
// schemas, and not one of its bytes or mtimes changes.
func TestParentV1SnapshotRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "parent_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	refusedUntouched(t, dir, "slowcc-store/1")
}

// A slowcc-store/2 store — testdata/parent_frame.bin is a frame the
// parent build wrote, JSON head and all — is refused the same way,
// whether its frames sit in the snapshot or, after a kill before the
// first Close, only in the journal. Its file names are this build's, so
// the frames themselves give it away.
func TestParentV2StoreRefused(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "parent_frame.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"snapshot.bin", "journal.bin"} {
		t.Run(file, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, file), v2, 0o644); err != nil {
				t.Fatal(err)
			}
			refusedUntouched(t, dir, "slowcc-store/2")
		})
	}
}

// Both files refuse a nil (undecodable), keyless or foreign-schema
// head: counted corrupt, skipped, never served, never a panic.
func TestReadersRefuseUnservableEntries(t *testing.T) {
	good := rawFrame(encode(t, frameHead{Schema: store.Schema, Key: "good", Attempts: 1}), encode(t, 1), nil)
	for name, head := range map[string][]byte{
		"nil":            nil,
		"keyless":        encode(t, frameHead{Schema: store.Schema, Attempts: 1}),
		"foreign schema": encode(t, frameHead{Schema: "slowcc-store/1", Key: "stale", Attempts: 1}),
	} {
		for _, file := range []string{"snapshot.bin", "journal.bin"} {
			t.Run(name+"/"+file, func(t *testing.T) {
				dir := t.TempDir()
				blob := append(rawFrame(head, encode(t, 2), nil), good...)
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

// Open checks a frame's checksum and head, not its result: an entry
// whose result and stats do not decode opens and is served, and the
// caller that decodes them finds out (exp counts it corrupt and
// recomputes the cell).
func TestUnparsedResultOpens(t *testing.T) {
	dir := t.TempDir()
	blob := rawFrame(encode(t, frameHead{Schema: store.Schema, Key: "k", Attempts: 1}), []byte(`{"x":`), []byte(`not json`))
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if s.Len() != 1 || s.Corrupt() != 0 {
		t.Fatalf("%d entries, %d corrupt; want 1, 0", s.Len(), s.Corrupt())
	}
	e, ok := s.Get("k")
	if !ok || string(e.Result) != `{"x":` {
		t.Fatalf("entry: %+v, %v", e, ok)
	}
	if cs, err := e.CellStats(); err == nil {
		t.Fatalf("undecodable telemetry decoded: %+v", cs)
	}
}

// Put refuses Stats that do not decode as an obs.CellStats — bytes that
// are not an encoding, or an encoding of another shape — and appends
// nothing. A result's type is its writer's to check, so Put takes any
// result bytes: an entry read back from a store must Put again as is.
func TestPutRefusesNonJSON(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	type oldStats struct {
		Counters map[string]int64
		Events   uint64
	}
	for _, e := range []store.Entry{
		{Key: "s", Result: encode(t, 1), Stats: []byte(`nope`)},
		{Key: "t", Result: encode(t, 1), Stats: encode(t, oldStats{Events: 9})},
	} {
		err := s.Put(e)
		if err == nil || !strings.Contains(err.Error(), "telemetry") {
			t.Fatalf("Put(%s) = %v, want a telemetry error", e.Key, err)
		}
	}
	if n := journalSize(t, dir); n != 0 || s.Len() != 0 {
		t.Fatalf("refused Puts left %d journal bytes, %d entries", n, s.Len())
	}
	if err := s.Put(store.Entry{Key: "r", Result: []byte(`{"x":`)}); err != nil {
		t.Fatalf("Put refused result bytes it cannot type: %v", err)
	}
}
