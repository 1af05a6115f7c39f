package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// same reports whether two strings share their bytes.
func same(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// A name is shared from its first intern on, and found without the lock
// once enough lookups have needed it to publish the table.
func TestInternSharesNames(t *testing.T) {
	var tab internTable
	first := tab.intern([]byte("link.fwd0.drops"))
	for i := 0; i < 3; i++ {
		if got := tab.intern([]byte("link.fwd0.drops")); got != first || !same(got, first) {
			t.Fatalf("lookup %d: %q does not share the first intern's bytes", i, got)
		}
	}
	if read := tab.read.Load(); read == nil || !same((*read)["link.fwd0.drops"], first) {
		t.Fatal("an interned name was never published to the lock-free table")
	}
	if avg := testing.AllocsPerRun(100, func() { tab.intern([]byte("link.fwd0.drops")) }); avg != 0 {
		t.Fatalf("a published name allocates %v times per lookup, want 0", avg)
	}
}

// The table is bounded: a name over maxInternLen, or a new name once
// maxInterned are held, is returned as a fresh string and not kept.
func TestInternIsBounded(t *testing.T) {
	var tab internTable
	long := strings.Repeat("x", maxInternLen+1)
	if a, b := tab.intern([]byte(long)), tab.intern([]byte(long)); a != long || same(a, b) {
		t.Fatalf("a %d-byte name was interned", len(long))
	}
	for i := 0; i < maxInterned; i++ {
		tab.intern([]byte(fmt.Sprint("name-", i)))
	}
	over := tab.intern([]byte("one-too-many"))
	if over != "one-too-many" || same(over, tab.intern([]byte("one-too-many"))) {
		t.Fatal("a name past the table's bound was interned")
	}
	if len(tab.dirty) != maxInterned || len(*tab.read.Load()) > maxInterned {
		t.Fatalf("table holds %d names (%d published), bound %d", len(tab.dirty), len(*tab.read.Load()), maxInterned)
	}
	if a, b := tab.intern([]byte("name-7")), tab.intern([]byte("name-7")); a != "name-7" || !same(a, b) {
		t.Fatal("a full table stopped sharing the names it holds")
	}
}

// Decoding a map shares its string keys across decodes; the values and
// the map itself stay the decode's own.
func TestDecodeInternsMapKeys(t *testing.T) {
	blob, err := Encode(map[string]int64{"sim.events": 1, "cc.tcp.acks": 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode[map[string]int64](blob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode[map[string]int64](blob)
	if err != nil {
		t.Fatal(err)
	}
	for ka := range a {
		for kb := range b {
			if ka == kb && !same(ka, kb) {
				t.Fatalf("key %q decoded twice into two copies", ka)
			}
		}
	}
	if b["cc.tcp.acks"] = 9; a["cc.tcp.acks"] != 2 {
		t.Fatal("two decodes share one map")
	}
}

// Goroutines interning at once, names old and new: every result equals
// its input, and each name ends up with one copy.
func TestInternConcurrent(t *testing.T) {
	var tab internTable
	got := make([][]string, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				got[g] = append(got[g], tab.intern([]byte(fmt.Sprint("counter-", (i*7+g)%300))))
			}
		}(g)
	}
	wg.Wait()
	first := map[string]string{}
	for g, names := range got {
		for i, s := range names {
			if want := fmt.Sprint("counter-", (i*7+g)%300); s != want {
				t.Fatalf("goroutine %d, lookup %d: %q, want %q", g, i, s, want)
			}
			if f, ok := first[s]; !ok {
				first[s] = s
			} else if !same(f, s) {
				t.Fatalf("%q interned twice", s)
			}
		}
	}
}
