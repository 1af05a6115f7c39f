package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"slowcc/internal/store"
)

// rawFrame builds a slowcc-store/2 frame by hand: u32 payload length,
// u32 CRC-32C of the payload, then the u32-prefixed head, the
// u32-prefixed result and the stats.
func rawFrame(head, result, stats string) []byte {
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(head)))
	p = append(p, head...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(result)))
	p = append(p, result...)
	p = append(p, stats...)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, p...)
}

// goldenEntry is the entry testdata/parent_frame.bin was recorded from
// (a slowcc-store/2 frame) and testdata/parent_snapshot.json holds,
// among others, in an older build's indented slowcc-store/1 document.
// Its stats are the raw JSON the recording build wrote, with Cell, Hists
// and Halt keys obs.CellStats does not have: decoding ignores them, so a
// store written then still replays.
func goldenEntry() store.Entry {
	return store.Entry{Key: "golden", Index: 5, Attempts: 2,
		Result: json.RawMessage(`{"x":1.5,"s":"<&>"}`),
		Stats: json.RawMessage(`{"Cell":3,"Counters":{"a\u003cb\u0026c":1,"link.lr.bytes":123,"link.lr.drops":4},` +
			`"Hists":[{"Name":"queue_delay_s","Hist":{"buckets":[[79,1],[143,1]],"n":2,"sum":0.251,"max":0.25}}],` +
			`"Digest":3735928559,"DigestEvents":7,"Events":9,"Halt":"wall budget","Halts":["wall budget","event budget"]}`),
	}
}

// Put writes the golden entry as exactly the recorded frame, and a
// checkpoint writes that same frame as the whole snapshot.
func TestPutFrameMatchesParentGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_frame.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put(goldenEntry()); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "journal.bin"))
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
	if !ok || string(e.Result) != `{"x":1.5,"s":"<&>"}` {
		t.Fatalf("golden entry: %+v, %v", e, ok)
	}
	cs, err := e.CellStats()
	if err != nil || cs == nil || cs.Events != 9 || cs.Counters["a<b&c"] != 1 || cs.Counters["link.lr.drops"] != 4 ||
		!slices.Equal(cs.Halts, []string{"wall budget", "event budget"}) {
		t.Fatalf("golden telemetry: %+v, %v", cs, err)
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
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range []string{filepath.Join(dir, "snapshot.json"), dir} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("%s accepted a slowcc-store/1 directory", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "slowcc-store/1") || !strings.Contains(msg, store.Schema) {
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

// Both files refuse a nil, keyless or foreign-schema head: counted
// corrupt, skipped, never served, never a panic.
func TestReadersRefuseUnservableEntries(t *testing.T) {
	good := rawFrame(`{"schema":"slowcc-store/2","key":"good","index":0,"attempts":1}`, `1`, ``)
	for name, head := range map[string]string{
		"nil":            `null`,
		"keyless":        `{"schema":"slowcc-store/2","key":"","index":0,"attempts":1}`,
		"foreign schema": `{"schema":"slowcc-store/1","key":"stale","index":0,"attempts":1}`,
	} {
		for _, file := range []string{"snapshot.bin", "journal.bin"} {
			t.Run(name+"/"+file, func(t *testing.T) {
				dir := t.TempDir()
				blob := append(rawFrame(head, `2`, ``), good...)
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
// whose result is not JSON opens and is served, and the caller that
// decodes it finds out (exp counts it corrupt and recomputes the cell).
func TestUnparsedResultOpens(t *testing.T) {
	dir := t.TempDir()
	blob := rawFrame(`{"schema":"slowcc-store/2","key":"k","index":0,"attempts":1}`, `{"x":`, `not json`)
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

// Put refuses a Result or Stats that is not JSON, and appends nothing.
func TestPutRefusesNonJSON(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	for _, e := range []store.Entry{
		{Key: "r", Result: json.RawMessage(`{"x":`)},
		{Key: "s", Result: json.RawMessage(`1`), Stats: json.RawMessage(`nope`)},
	} {
		err := s.Put(e)
		if err == nil || !strings.Contains(err.Error(), "not JSON") {
			t.Fatalf("Put(%s) = %v, want a not-JSON error", e.Key, err)
		}
	}
	if n := journalSize(t, dir); n != 0 || s.Len() != 0 {
		t.Fatalf("refused Puts left %d journal bytes, %d entries", n, s.Len())
	}
}
