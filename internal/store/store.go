// Package store is a durable, crash-safe result store for supervised
// sweeps: completed cells are committed to an append-only journal keyed
// by a deterministic digest (the matrix driver uses a per-cell
// slowcc-manifest/1 sha256), so a killed sweep resumes by recomputing
// only the cells the journal does not already hold.
//
// On-disk format. Both files are a run of frames, and one loop reads
// them. A frame is a little-endian u32 payload length, the u32 CRC-32C
// (Castagnoli) of the payload, then the payload: a u32-prefixed
// compact-JSON head (schema, key, index, attempts, degraded, error), the
// u32-prefixed result bytes, and the stats bytes up to the frame's end.
// Open verifies every checksum and decodes only the heads; a result or
// a telemetry snapshot is parsed when it is used, so a value that does
// not parse there is that caller's corrupt entry (Put refuses to write
// one). A directory holding an older build's snapshot.json is refused,
// not migrated.
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
	"encoding/binary"
	"encoding/json"
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
const Schema = "slowcc-store/2"

const (
	journalName  = "journal.bin"
	snapshotName = "snapshot.bin"
	// v1Snapshot is where slowcc-store/1 kept its JSON snapshot; a
	// directory holding one is refused.
	v1Snapshot = "snapshot.json"
	// frameHeaderSize is the fixed per-frame header: u32 payload length,
	// u32 CRC-32C of the payload, both little-endian.
	frameHeaderSize = 4 + 4
	// maxFrameSize bounds a single entry; a length beyond it is treated
	// as tail corruption (a torn or overwritten header), not an entry.
	maxFrameSize = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one stored sweep-cell result. Result holds the cell's typed
// value as JSON (the exp layer round-trips it losslessly); Stats is the
// telemetry snapshot replayed into the live collector on a cache hit,
// also as JSON. Both alias the frame the entry was read from or written
// as, so they must not be modified; neither is parsed until a caller
// asks, and Open checks their frame's checksum but not their syntax —
// a caller that decodes one must handle the error.
// A Degraded entry records that the cell failed — it is kept for
// inspection and reporting but never served as a hit, so a resumed
// sweep recomputes degraded cells.
type Entry struct {
	Schema string `json:"schema"`
	// Key is the cell's deterministic digest (manifest sha256 for matrix
	// cells, a scope-derived digest for generic sweep cells).
	Key string `json:"key"`
	// Index is the sweep index the cell had when recorded (informational;
	// the key, not the index, is the identity).
	Index int `json:"index"`
	// Attempts is how many times the recording run ran the cell: 1 now
	// that a cell runs once.
	Attempts int `json:"attempts"`
	// Degraded marks a cell that failed; Error carries its failure text.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result is the cell's typed result, JSON-encoded (empty when
	// Degraded).
	Result json.RawMessage `json:"-"`
	// Stats is the cell's telemetry snapshot (an obs.CellStats: counters,
	// stream digest, event count), JSON-encoded, when live
	// telemetry was attached; replayed into the sink on a hit so /metrics
	// over a resumed run matches a cold one. CellStats decodes it.
	Stats json.RawMessage `json:"-"`

	// frame is the entry's encoded frame, header included; Checkpoint
	// writes it as is.
	frame []byte
}

// CellStats decodes the entry's telemetry snapshot: nil, nil when none
// was recorded, an error when the stored bytes do not decode.
func (e *Entry) CellStats() (*obs.CellStats, error) {
	if len(e.Stats) == 0 {
		return nil, nil
	}
	var st obs.CellStats
	if err := json.Unmarshal(e.Stats, &st); err != nil {
		return nil, fmt.Errorf("store: entry %s telemetry: %v", e.Key, err)
	}
	return &st, nil
}

// encode builds e's frame in one buffer and points Result and Stats at
// their bytes inside it.
func (e *Entry) encode() error {
	head, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding entry %s: %v", e.Key, err)
	}
	n := 4 + len(head) + 4 + len(e.Result) + len(e.Stats)
	if n > maxFrameSize {
		return fmt.Errorf("store: entry %s exceeds max frame size", e.Key)
	}
	frame := make([]byte, frameHeaderSize, frameHeaderSize+n)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(head)))
	frame = append(frame, head...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(e.Result)))
	frame = append(frame, e.Result...)
	frame = append(frame, e.Stats...)
	binary.LittleEndian.PutUint32(frame, uint32(n))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHeaderSize:], castagnoli))
	stats := len(frame) - len(e.Stats)
	e.Result = body(frame[stats-len(e.Result) : stats])
	e.Stats = body(frame[stats:])
	e.frame = frame
	return nil
}

// decodeFrame splits a checksummed frame into its entry, decoding the
// head only; nil when the payload does not split or the head does not
// decode.
func decodeFrame(frame []byte) *Entry {
	p := frame[frameHeaderSize:]
	if len(p) < 4 {
		return nil
	}
	hl := uint64(binary.LittleEndian.Uint32(p))
	if hl > uint64(len(p)-4) {
		return nil
	}
	head, rest := p[4:4+hl], p[4+hl:]
	if len(rest) < 4 {
		return nil
	}
	rl := uint64(binary.LittleEndian.Uint32(rest))
	if rl > uint64(len(rest)-4) {
		return nil
	}
	e := new(Entry)
	if err := json.Unmarshal(head, e); err != nil {
		return nil
	}
	e.Result = body(rest[4 : 4+rl])
	e.Stats = body(rest[4+rl:])
	e.frame = frame
	return e
}

// body returns b capped at its length, or nil when it is empty.
func body(b []byte) json.RawMessage {
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
	journal *os.File // nil when read-only
	entries map[string]*Entry
	// dirty: the journal was non-empty at open or a Put followed the last
	// checkpoint, so the store may hold what snapshot.bin does not.
	dirty bool

	hits     atomic.Int64
	misses   atomic.Int64
	corrupt  atomic.Int64 // entries refused at open, plus CountCorrupt calls
	tornTail bool         // reopen found (and quarantined) a partial frame
	readOnly bool
}

// Open opens (creating if needed) the store in dir, replays the
// snapshot and journal, repairs a torn journal tail, and leaves the
// journal open for appends.
func Open(dir string) (*Store, error) { return open(dir, false) }

// OpenReadOnly opens an existing store for inspection: nothing on disk
// is modified (a torn tail is tolerated but not truncated) and Put,
// Checkpoint, and Close are no-ops on the journal.
func OpenReadOnly(dir string) (*Store, error) { return open(dir, true) }

func open(dir string, readOnly bool) (*Store, error) {
	s := &Store{dir: dir, entries: map[string]*Entry{}, readOnly: readOnly}
	if _, err := os.Stat(filepath.Join(dir, v1Snapshot)); err == nil {
		return nil, fmt.Errorf("store: %s holds a slowcc-store/1 %s; this build reads only %s stores (no migration: recompute into a new directory)",
			dir, v1Snapshot, Schema)
	}
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.loadJournal(); err != nil {
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

// loadSnapshot admits the snapshot's frames. Only a rename ever puts a
// snapshot in place, so one that does not frame to its last byte was
// damaged outside the store, and the store refuses to open.
func (s *Store) loadSnapshot() error {
	blob, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
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
func (s *Store) admitFrames(blob []byte) (off int) {
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
		frame := rest[:end:end]
		off += end
		if crc32.Checksum(frame[frameHeaderSize:], castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			s.corrupt.Add(1)
			continue
		}
		s.admit(decodeFrame(frame))
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
func (s *Store) loadJournal() error {
	path := filepath.Join(s.dir, journalName)
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	s.dirty = len(blob) > 0 // intact, corrupt or torn: the next Close compacts it away
	off := s.admitFrames(blob)
	if off < len(blob) {
		s.tornTail = true
		if !s.readOnly {
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
// replay order. A Result or Stats that is not well-formed JSON is
// refused: Open does not check it, so Put must.
func (s *Store) Put(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("store: Put with empty key")
	}
	if len(e.Result) > 0 && !json.Valid(e.Result) {
		return fmt.Errorf("store: entry %s: result is not JSON", e.Key)
	}
	if len(e.Stats) > 0 && !json.Valid(e.Stats) {
		return fmt.Errorf("store: entry %s: stats are not JSON", e.Key)
	}
	e.Schema = Schema
	if err := e.encode(); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty = true
	if s.journal != nil {
		if _, err := s.journal.Write(e.frame); err != nil {
			return fmt.Errorf("store: journal append: %v", err)
		}
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("store: journal fsync: %v", err)
		}
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
// Checkpoint always compacts, whether or not anything changed.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoint()
}

func (s *Store) checkpoint() error {
	if s.readOnly {
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
	if s.journal != nil {
		if err := s.journal.Truncate(0); err != nil {
			return fmt.Errorf("store: journal reset: %v", err)
		}
		if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("store: journal reset: %v", err)
		}
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
