// Package store is a durable, crash-safe result store for supervised
// sweeps: completed cells are committed to an append-only journal keyed
// by a deterministic digest (the matrix driver uses a per-cell
// slowcc-manifest/1 sha256), so a killed sweep resumes by recomputing
// only the cells the journal does not already hold.
//
// On-disk format. Both files are a run of frames, and one loop reads
// them. A frame is a little-endian u32 payload length, the u32 CRC-32C
// (Castagnoli) of the payload, then the payload: a u32-prefixed head
// (schema, key, index, attempts, degraded, error), the u32-prefixed
// result bytes, and the stats bytes up to the frame's end. Head, result
// and stats are all in the package's one value encoding (codec.go): a
// shape fingerprint, then the value's fields in binary, so a value
// decodes only into the type shape that wrote it. Open verifies every
// checksum and decodes only the heads; a result or a telemetry snapshot
// is decoded where it is used, so a value that does not decode there is
// that caller's corrupt entry. Put checks the telemetry; the result's
// type is known only to the caller, which checks it before storing. A
// directory an older build wrote (a slowcc-store/1 snapshot.json, or
// slowcc-store/2 frames) is refused, not migrated.
//
// Durability model. Every Put appends one frame and fsyncs before
// returning, so an entry that Put acknowledged survives SIGKILL.
// Reopening tolerates a torn journal tail (a crash mid-append leaves a
// partial frame; it is quarantined to a side file and truncated away,
// never parsed) and quarantines corrupt entries (a checksum-failed
// frame is skipped and counted, never trusted). Checkpoint compacts the
// journal into a snapshot of key-sorted frames via the write-temp +
// fsync + rename idiom; the rename is atomic, and the journal is
// truncated only after the snapshot is durable, so a crash at any point
// leaves either the old state or the new — never a mix that drops an
// acknowledged entry (journal entries are idempotent by key, so
// replaying them over the snapshot is harmless). Close checkpoints only
// when the journal was non-empty at open or a Put happened since the
// last checkpoint; a store that was only read is closed without
// touching the disk.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"slowcc/internal/obs"
)

// Schema identifies the store's on-disk format; every frame's head
// carries it, so a format bump can refuse stale state.
const Schema = "slowcc-store/3"

const (
	journalName  = "journal.bin"
	snapshotName = "snapshot.bin"
	// v1Snapshot is where slowcc-store/1 kept its JSON snapshot; a
	// directory holding one is refused.
	v1Snapshot = "snapshot.json"
	// v2Schema names the format whose frame heads were JSON; a directory
	// holding its frames is refused.
	v2Schema = "slowcc-store/2"
	// frameHeaderSize is the fixed per-frame header: u32 payload length,
	// u32 CRC-32C of the payload, both little-endian.
	frameHeaderSize = 4 + 4
	// maxFrameSize bounds a single entry; a length beyond it is treated
	// as tail corruption (a torn or overwritten header), not an entry.
	maxFrameSize = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one stored sweep-cell result. Result holds the cell's typed
// value and Stats its telemetry snapshot (an obs.CellStats), each in the
// store's value encoding (Encode). Both alias the frame the entry was
// read from or written as, so they must not be modified; neither is
// decoded until a caller asks, and Open checks their frame's checksum
// but not their contents — a caller that decodes one must handle the
// error.
// A Degraded entry records that the cell failed — it is kept for
// inspection and reporting but never served as a hit, so a resumed
// sweep recomputes degraded cells.
type Entry struct {
	Schema string
	// Key is the cell's deterministic digest (manifest sha256 for matrix
	// cells, a scope-derived digest for generic sweep cells).
	Key string
	// Index is the sweep index the cell had when recorded (informational;
	// the key, not the index, is the identity).
	Index int
	// Attempts is how many times the recording run ran the cell: 1 now
	// that a cell runs once.
	Attempts int
	// Degraded marks a cell that failed; Error carries its failure text.
	Degraded bool
	Error    string
	// Result is the cell's encoded typed result (empty when Degraded).
	Result []byte
	// Stats is the cell's encoded telemetry snapshot (counters, stream
	// digest, event count) when live telemetry was attached; replayed
	// into the sink on a hit so /metrics over a resumed run matches a
	// cold one. CellStats decodes it.
	Stats []byte

	// frame is the entry's encoded frame, header included; Checkpoint
	// writes it as is.
	frame []byte
	// built marks an entry NewEntry encoded: Put writes its frame as is.
	built bool
}

// head is what a frame's head holds: an Entry but its result and stats.
type head struct {
	Schema, Key     string
	Index, Attempts int
	Degraded        bool
	Error           string
}

// CellStats decodes the entry's telemetry snapshot: nil, nil when none
// was recorded, an error when the stored bytes do not decode.
func (e *Entry) CellStats() (*obs.CellStats, error) {
	if len(e.Stats) == 0 {
		return nil, nil
	}
	st, err := Decode[obs.CellStats](e.Stats)
	if err != nil {
		return nil, fmt.Errorf("store: entry %s telemetry: %v", e.Key, err)
	}
	return &st, nil
}

// NewEntry builds the entry a finished cell commits: its head, result
// v and telemetry st (nil when none was recorded) encoded into one
// frame, which is allocated once, at its final size; Result and Stats
// point into it. Put writes the frame as built, so change none of the
// entry's fields. Telemetry that comes typed needs no check; the
// result's type is the caller's to check (Decode[T](e.Result)).
func NewEntry[T any](key string, index int, v T, st *obs.CellStats) (Entry, error) {
	e := Entry{Schema: Schema, Key: key, Index: index, Attempts: 1, built: true}
	err := e.seal(func(b []byte) ([]byte, int, error) {
		b, err := appendEncoding(b, &v)
		stats := len(b)
		if err == nil && st != nil {
			b, err = appendEncoding(b, st)
		}
		return b, stats, err
	})
	return e, err
}

// seal builds e's frame: the header, the head encoded from e's fields,
// then what fill appends — the result, and from the offset it returns
// the stats. The frame grows in a scratch buffer and is copied out once
// at its final size; Result and Stats are pointed at their bytes in it.
func (e *Entry) seal(fill func(b []byte) (b2 []byte, stats int, err error)) error {
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	b := append((*buf)[:0], make([]byte, frameHeaderSize+4)...) // the header and the head's length, set below
	b, err := appendEncoding(b, &head{e.Schema, e.Key, e.Index, e.Attempts, e.Degraded, e.Error})
	result, stats := 0, 0
	if err == nil {
		binary.LittleEndian.PutUint32(b[frameHeaderSize:], uint32(len(b)-frameHeaderSize-4))
		b = append(b, 0, 0, 0, 0) // the result's length
		result = len(b)
		b, stats, err = fill(b)
	}
	*buf = b
	switch {
	case err != nil:
		return fmt.Errorf("store: encoding entry %s: %v", e.Key, err)
	case len(b)-frameHeaderSize > maxFrameSize:
		return fmt.Errorf("store: entry %s exceeds max frame size", e.Key)
	}
	binary.LittleEndian.PutUint32(b[result-4:], uint32(stats-result))
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameHeaderSize))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[frameHeaderSize:], castagnoli))
	e.frame = bytes.Clone(b)
	e.Result, e.Stats = body(e.frame[result:stats]), body(e.frame[stats:])
	return nil
}

// splitFrame splits a frame's payload into head, result and stats; ok
// is false when the lengths do not fit the payload.
func splitFrame(frame []byte) (h, result, stats []byte, ok bool) {
	p := frame[frameHeaderSize:]
	if len(p) < 4 {
		return nil, nil, nil, false
	}
	hl := uint64(binary.LittleEndian.Uint32(p))
	if hl > uint64(len(p)-4) {
		return nil, nil, nil, false
	}
	h, rest := p[4:4+hl], p[4+hl:]
	if len(rest) < 4 {
		return nil, nil, nil, false
	}
	rl := uint64(binary.LittleEndian.Uint32(rest))
	if rl > uint64(len(rest)-4) {
		return nil, nil, nil, false
	}
	return h, rest[4 : 4+rl], rest[4+rl:], true
}

// decodeFrame splits a checksummed frame into its entry, decoding the
// head only; nil when the payload does not split or the head does not
// decode. The entry and the head it is decoded from are one allocation,
// so a frame costs that and the head's non-empty strings.
func decodeFrame(frame []byte) *Entry {
	hb, result, stats, ok := splitFrame(frame)
	if !ok {
		return nil
	}
	fe := new(struct {
		Entry
		h head
	})
	h := &fe.h
	if decodeInto(hb, h) != nil {
		return nil
	}
	fe.Entry = Entry{Schema: h.Schema, Key: h.Key, Index: h.Index, Attempts: h.Attempts,
		Degraded: h.Degraded, Error: h.Error, Result: body(result), Stats: body(stats), frame: frame}
	return &fe.Entry
}

// v2Frame reports whether blob starts with an intact frame a
// slowcc-store/2 build wrote: one whose head is JSON naming that schema.
func v2Frame(blob []byte) bool {
	if len(blob) < frameHeaderSize {
		return false
	}
	n := binary.LittleEndian.Uint32(blob)
	if n > maxFrameSize || uint64(len(blob)) < frameHeaderSize+uint64(n) {
		return false
	}
	frame := blob[:frameHeaderSize+n]
	if crc32.Checksum(frame[frameHeaderSize:], castagnoli) != binary.LittleEndian.Uint32(blob[4:]) {
		return false
	}
	h, _, _, ok := splitFrame(frame)
	return ok && bytes.HasPrefix(h, []byte(`{"schema":"`+v2Schema+`"`))
}

// body returns b capped at its length, or nil when it is empty.
func body(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// Store is a durable key→Entry map backed by a journal + snapshot pair
// in one directory. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	journal *os.File // nil when read-only or closed
	entries map[string]*Entry
	// dirty: the journal was non-empty at open or a Put followed the last
	// checkpoint, so the store may hold what snapshot.bin does not.
	dirty bool

	hits     atomic.Int64
	misses   atomic.Int64
	corrupt  atomic.Int64 // entries refused at open, plus CountCorrupt calls
	tornTail bool         // reopen found (and quarantined) a partial frame
}

// Open opens (creating if needed) the store in dir, replays the
// snapshot and journal, repairs a torn journal tail, and leaves the
// journal open for appends.
func Open(dir string) (*Store, error) { return open(dir, false) }

// OpenReadOnly opens an existing store for inspection: nothing on disk
// is modified (a torn tail is tolerated but not truncated), Put fails,
// and Checkpoint and Close are no-ops on the journal.
func OpenReadOnly(dir string) (*Store, error) { return open(dir, true) }

func open(dir string, readOnly bool) (*Store, error) {
	s := &Store{dir: dir}
	if _, err := os.Stat(filepath.Join(dir, v1Snapshot)); err == nil {
		return nil, fmt.Errorf("store: %s holds a slowcc-store/1 %s; this build reads only %s stores (no migration: recompute into a new directory)",
			dir, v1Snapshot, Schema)
	}
	snapshot, err := readIfExists(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, err
	}
	journal, err := readIfExists(filepath.Join(dir, journalName))
	if err != nil {
		return nil, err
	}
	if v2Frame(snapshot) || v2Frame(journal) {
		return nil, fmt.Errorf("store: %s holds %s frames; this build reads only %s stores (no migration: recompute into a new directory)",
			dir, v2Schema, Schema)
	}
	// One map, sized by the frames the headers find: loading never regrows it.
	frames := 0
	count := func([]byte) { frames++ }
	eachFrame(snapshot, count)
	eachFrame(journal, count)
	s.entries = make(map[string]*Entry, frames)
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
	}
	if err := s.loadSnapshot(snapshot); err != nil {
		return nil, err
	}
	if err := s.loadJournal(journal, readOnly); err != nil {
		return nil, err
	}
	if !readOnly {
		f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
		s.journal = f
	}
	return s, nil
}

// readIfExists returns a file's bytes, or nil when there is no file.
func readIfExists(path string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	return blob, nil
}

// loadSnapshot admits the snapshot's frames. Only a rename ever puts a
// snapshot in place, so one that does not frame to its last byte was
// damaged outside the store, and the store refuses to open.
func (s *Store) loadSnapshot(blob []byte) error {
	if off := s.admitFrames(blob); off < len(blob) {
		return fmt.Errorf("store: %s: no whole frame at byte %d of %d", snapshotName, off, len(blob))
	}
	return nil
}

// admitFrames is the one frame loop both files go through: every frame
// whose checksum holds is decoded and admitted, every other one is
// counted corrupt and skipped. It returns where framing stopped — at
// len(blob), or at a header too short, a length implausible, or a
// payload shorter than its header promises.
func (s *Store) admitFrames(blob []byte) int {
	return eachFrame(blob, func(frame []byte) {
		if crc32.Checksum(frame[frameHeaderSize:], castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
			s.corrupt.Add(1)
			return
		}
		s.admit(decodeFrame(frame))
	})
}

// eachFrame calls fn on every whole frame of blob, header included, as
// far as the headers frame it, and returns where framing stopped.
func eachFrame(blob []byte, fn func(frame []byte)) (off int) {
	for off < len(blob) {
		rest := blob[off:]
		if len(rest) < frameHeaderSize {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > maxFrameSize {
			// An implausible length means the header itself is damaged;
			// nothing after it can be framed reliably. Treat as tail.
			break
		}
		end := frameHeaderSize + int(n)
		if len(rest) < end {
			break // torn payload
		}
		fn(rest[:end:end])
		off += end
	}
	return off
}

// admit is the one rule both files apply to a decoded entry: nil,
// keyless or foreign-schema is counted corrupt and skipped, never served.
func (s *Store) admit(e *Entry) {
	if e == nil || e.Key == "" || e.Schema != Schema {
		s.corrupt.Add(1)
		return
	}
	s.entries[e.Key] = e
}

// loadJournal replays every intact frame over the snapshot state. A
// tail too short to hold the frame its header promises is a torn
// append — it is quarantined to a numbered side file and truncated
// away (unless read-only) so subsequent appends start from a clean
// boundary.
func (s *Store) loadJournal(blob []byte, readOnly bool) error {
	path := filepath.Join(s.dir, journalName)
	s.dirty = len(blob) > 0 // intact, corrupt or torn: the next Close compacts it away
	off := s.admitFrames(blob)
	if off < len(blob) {
		s.tornTail = true
		if !readOnly {
			if err := s.quarantineTail(blob[off:]); err != nil {
				return err
			}
			if err := os.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("store: truncating torn journal tail: %v", err)
			}
		}
	}
	return nil
}

// quarantineTail preserves the torn bytes in a numbered side file so a
// repair never silently destroys evidence.
func (s *Store) quarantineTail(tail []byte) error {
	for i := 0; ; i++ {
		path := filepath.Join(s.dir, fmt.Sprintf("quarantine-%d.bin", i))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: %v", err)
		}
		_, werr := f.Write(tail)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			return fmt.Errorf("store: quarantine: %v", errors.Join(werr, cerr))
		}
		return nil
	}
}

// Get returns the non-degraded entry for key and counts a hit; a
// missing or degraded entry counts a miss (a degraded record is never
// trusted as a result — resume recomputes it).
func (s *Store) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok || e.Degraded {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e, true
}

// Put durably appends one entry (framed, checksummed, fsync'd) and
// updates the in-memory map. Last write per key wins, matching journal
// replay order. An entry NewEntry built is written as it was encoded.
// Any other is encoded here, from its fields, and Stats that do not
// decode as an obs.CellStats are refused: Open does not check them, so
// Put must. The result's type is the caller's to check (exp decodes
// what it encoded before storing it); Put takes any result bytes, so an
// entry read back from a store can be put again as it is. A store opened
// read-only, or already closed, refuses every Put.
func (s *Store) Put(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("store: Put with empty key")
	}
	if !e.built {
		if _, err := e.CellStats(); err != nil {
			return err
		}
		e.Schema = Schema
		if err := e.seal(func(b []byte) ([]byte, int, error) {
			b = append(b, e.Result...)
			return append(b, e.Stats...), len(b), nil
		}); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("store: Put into %s, which is read-only or closed", s.dir)
	}
	s.dirty = true
	if _, err := s.journal.Write(e.frame); err != nil {
		return fmt.Errorf("store: journal append: %v", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("store: journal fsync: %v", err)
	}
	s.entries[e.Key] = &e
	return nil
}

// Checkpoint compacts the store: every entry's frame, key-sorted, is
// written to a temporary snapshot, fsync'd, atomically renamed over the
// previous snapshot, and only then is the journal truncated. A crash
// before the rename leaves the old snapshot + full journal; after it,
// the new snapshot plus a journal whose entries are already in the
// snapshot — replay is idempotent by key, so both are consistent.
// Checkpoint always compacts, whether or not anything changed, unless
// the store is read-only or closed: then it does nothing.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoint()
}

func (s *Store) checkpoint() error {
	if s.journal == nil { // read-only or closed
		return nil
	}
	entries := s.sorted()
	size := 0
	for _, e := range entries {
		size += len(e.frame)
	}
	blob := make([]byte, 0, size)
	for _, e := range entries {
		blob = append(blob, e.frame...)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot write: %v", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot fsync: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: snapshot rename: %v", err)
	}
	syncDir(s.dir) // make the rename itself durable
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: journal reset: %v", err)
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: journal reset: %v", err)
	}
	s.dirty = false
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close releases the journal handle, checkpointing first when the
// store holds anything the snapshot does not; a store that was only
// read leaves the directory exactly as it found it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.dirty {
		err = s.checkpoint()
	}
	if s.journal != nil {
		if cerr := s.journal.Close(); err == nil {
			err = cerr
		}
		s.journal = nil
	}
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of entries currently held (degraded included).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns every entry, key-sorted (the inspection path).
func (s *Store) Entries() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sorted()
}

// sorted returns every entry, key-sorted; the caller holds mu.
func (s *Store) sorted() []*Entry {
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Hits returns how many Get calls were served from the store.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns how many Get calls found no trustworthy entry.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Corrupt returns how many entries were quarantined on open (a frame
// failing its checksum, or whose payload does not split or whose head
// does not decode; a nil, keyless or foreign-schema head), plus any
// counted later by CountCorrupt.
func (s *Store) Corrupt() int64 { return s.corrupt.Load() }

// CountCorrupt records an entry that loaded but failed downstream
// validation (e.g. a stored result that no longer decodes into the
// sweep's result type) — trusted never, counted always.
func (s *Store) CountCorrupt() { s.corrupt.Add(1) }

// TornTail reports whether the last open found (and, unless read-only,
// quarantined) a partial trailing frame.
func (s *Store) TornTail() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tornTail
}
