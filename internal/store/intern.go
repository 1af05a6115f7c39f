package store

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Interning bounds: a name longer than maxInternLen, or any new name
// once maxInterned are held, is allocated per decode as any other
// string is, so hostile input cannot grow the table without bound.
const (
	maxInternLen = 64
	maxInterned  = 4096
)

// names interns the string keys of decoded maps: a served warm hit
// decodes its telemetry's counter map, and every cell of a sweep
// carries the same few dozen counter names.
var names internTable

// internTable is a read-mostly string table. A name already published
// in read is found without a lock or an allocation; a new one goes into
// dirty under mu, and dirty is published as the next read once as many
// lookups have needed the lock as dirty holds names, so publishing
// costs O(1) per locked lookup.
type internTable struct {
	read atomic.Pointer[map[string]string]

	mu     sync.Mutex
	dirty  map[string]string // every interned name: a superset of read
	misses int               // locked lookups since read was published
}

// intern returns a string equal to b, shared with earlier calls for the
// same bytes while the table has room.
func (t *internTable) intern(b []byte) string {
	if m := t.read.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.dirty[string(b)]
	if !ok {
		if len(t.dirty) >= maxInterned {
			return string(b)
		}
		if t.dirty == nil {
			t.dirty = map[string]string{}
		}
		s = string(b)
		t.dirty[s] = s
	}
	if t.misses++; t.misses >= len(t.dirty) {
		read := maps.Clone(t.dirty)
		t.read.Store(&read)
		t.misses = 0
	}
	return s
}
