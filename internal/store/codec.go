package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// This file is the store's one value encoding: the frame head, a cell's
// result and its telemetry all go through it. A value is written as the
// 8-byte fingerprint of its type's shape, then its fields depth first:
//
//	bool          one byte, 0 or 1
//	int*, uint*   a zigzag or plain varint, minimal length
//	float32/64    the raw IEEE bits, little-endian (NaN, ±Inf, -0 exact)
//	string        varint length, then the bytes
//	slice, map    varint 0 for nil, else 1+length, then the elements;
//	              map entries in ascending key order
//	pointer       one byte, 0 for nil or 1 followed by the target
//	array, struct the elements or exported fields, in order
//
// Decoding is the exact inverse: a value decodes only into the shape
// that wrote it, and any other input is an error, never a panic. A
// decoded value re-encodes to the bytes it came from.

// fingerprintSize is the length of the shape fingerprint every encoded
// value starts with.
const fingerprintSize = 8

// maxDepth bounds how deep pointers, slices and maps may nest in one
// value, so a hostile input to a recursive type cannot exhaust the
// stack.
const maxDepth = 512

var (
	errShort = errors.New("input too short")
	errDepth = fmt.Errorf("values nest deeper than %d", maxDepth)
)

// A plan is one type's compiled encoding, or why it has none.
type plan struct {
	fp  uint64 // fingerprint of the type's shape
	min int    // fewest bytes a value of the type encodes to (a lower bound)
	enc func(b []byte, v reflect.Value, depth int) ([]byte, error)
	// dec reads a value from the front of b into v and returns the rest.
	dec func(b []byte, v reflect.Value, depth int) ([]byte, error)
	err error // set when the type is not codable
}

var (
	plansMu sync.Mutex
	plans   sync.Map // reflect.Type -> *plan
)

// Codable reports whether values of type t can be stored: every type
// reachable from it is a bool, an integer, a float, a string, or a
// pointer, slice, array, struct or map of codable types, every struct
// field is exported, and every map key is an integer or a string.
// Interfaces, funcs, chans, complex numbers, uintptrs and unsafe
// pointers are not. A sweep whose result type is not codable runs
// unkeyed.
func Codable(t reflect.Type) bool {
	_, err := planFor(t)
	return err == nil
}

// Encode returns v's encoding, or an error when v's type is not
// codable or v nests deeper than the decoder accepts.
func Encode[T any](v T) ([]byte, error) {
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	b, err := appendEncoding((*buf)[:0], &v)
	*buf = b
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// appendEncoding appends *v's encoding to b.
func appendEncoding[T any](b []byte, v *T) ([]byte, error) {
	p, err := planFor(reflect.TypeFor[T]())
	if err != nil {
		return b, err
	}
	return p.enc(binary.LittleEndian.AppendUint64(b, p.fp), reflect.ValueOf(v).Elem(), 0)
}

// scratch holds the buffers encodings are built in: an encoding grows
// there, in a buffer earlier ones already grew, and is copied out once
// at its final size.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Decode decodes b, as Encode wrote it for a T, into a T. It fails when
// b was written for another shape, is short, has bytes left over, or
// holds anything Encode would not have written.
func Decode[T any](b []byte) (T, error) {
	v := new(T)
	err := decodeInto(b, v)
	return *v, err
}

// decodeInto is Decode into storage the caller owns: it allocates
// nothing beyond what the value itself holds.
func decodeInto[T any](b []byte, v *T) error {
	p, err := planFor(reflect.TypeFor[T]())
	if err != nil {
		return err
	}
	if len(b) < fingerprintSize {
		return errShort
	}
	if fp := binary.LittleEndian.Uint64(b); fp != p.fp {
		return fmt.Errorf("shape fingerprint %016x, want %016x for %v", fp, p.fp, reflect.TypeFor[T]())
	}
	rest, err := p.dec(b[fingerprintSize:], reflect.ValueOf(v).Elem(), 0)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes left over", len(rest))
	}
	return err
}

// planFor returns t's plan, compiling it on first use.
func planFor(t reflect.Type) (*plan, error) {
	if c, ok := plans.Load(t); ok {
		return c.(*plan), c.(*plan).err
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	if c, ok := plans.Load(t); ok {
		return c.(*plan), c.(*plan).err
	}
	building := map[reflect.Type]*plan{}
	p, err := compile(t, building)
	if err != nil {
		p = &plan{err: fmt.Errorf("%v is not codable: %v", t, err)}
		plans.Store(t, p)
		return p, p.err
	}
	for t, p := range building {
		plans.Store(t, p)
	}
	return p, nil
}

func isInt(k reflect.Kind) bool { return k >= reflect.Int && k <= reflect.Int64 }

func isUint(k reflect.Kind) bool { return k >= reflect.Uint && k <= reflect.Uint64 }

// compile builds t's plan, or says why t is not codable. building
// holds every plan made for one top-level type, so a recursive type
// refers back to its own; planFor keeps them only when that type
// compiles, so a plan made while an ancestor was unfinished is never
// cached when the ancestor fails.
func compile(t reflect.Type, building map[reflect.Type]*plan) (*plan, error) {
	if c, ok := plans.Load(t); ok {
		return c.(*plan), c.(*plan).err
	}
	if p, ok := building[t]; ok {
		return p, nil
	}
	p := &plan{fp: fingerprint(t)}
	building[t] = p
	switch k := t.Kind(); {
	case k == reflect.Bool:
		p.min, p.enc, p.dec = 1, encBool, decBool
	case isInt(k):
		p.min, p.enc, p.dec = 1, encInt, decInt
	case isUint(k):
		p.min, p.enc, p.dec = 1, encUint, decUint
	case k == reflect.Float32:
		p.min, p.enc, p.dec = 4, encFloat32, decFloat32
	case k == reflect.Float64:
		p.min, p.enc, p.dec = 8, encFloat64, decFloat64
	case k == reflect.String:
		p.min, p.enc, p.dec = 1, encString, decString
	case k == reflect.Pointer, k == reflect.Slice, k == reflect.Array:
		elem, err := compile(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		switch k {
		case reflect.Pointer:
			compilePointer(p, elem)
		case reflect.Slice:
			compileSlice(p, t, elem)
		default:
			compileArray(p, t.Len(), elem)
		}
	case k == reflect.Map:
		if kk := t.Key().Kind(); kk != reflect.String && !isInt(kk) && !isUint(kk) {
			return nil, fmt.Errorf("map key %v", t.Key())
		}
		key, err := compile(t.Key(), building)
		if err != nil {
			return nil, err
		}
		elem, err := compile(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		compileMap(p, t, key, elem)
	case k == reflect.Struct:
		fields := make([]*plan, t.NumField())
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, fmt.Errorf("unexported field %v.%s", t, f.Name)
			}
			var err error
			if fields[i], err = compile(f.Type, building); err != nil {
				return nil, err
			}
		}
		compileStruct(p, fields)
	default: // interface, chan, func, complex, uintptr, unsafe pointer
		return nil, fmt.Errorf("%v kind %v", t, k)
	}
	return p, nil
}

// fingerprint hashes t's shape: its kind, and recursively its fields'
// names and shapes, its element, key and length — not its name, so a
// renamed type keeps its stored values and a renamed field does not.
func fingerprint(t reflect.Type) uint64 {
	h := fnv.New64a()
	var buf []byte
	var walk func(t reflect.Type, path []reflect.Type)
	walk = func(t reflect.Type, path []reflect.Type) {
		for i, u := range path {
			if u == t { // recursion: name the ancestor by its distance
				buf = binary.AppendUvarint(append(buf, 0), uint64(len(path)-i))
				return
			}
		}
		path = append(path, t)
		buf = append(buf, byte(t.Kind()))
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(t.Elem(), path)
		case reflect.Array:
			buf = binary.AppendUvarint(buf, uint64(t.Len()))
			walk(t.Elem(), path)
		case reflect.Map:
			walk(t.Key(), path)
			walk(t.Elem(), path)
		case reflect.Struct:
			buf = binary.AppendUvarint(buf, uint64(t.NumField()))
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
				buf = append(buf, f.Name...)
				walk(f.Type, path)
			}
		}
	}
	walk(t, nil)
	h.Write(buf)
	return h.Sum64()
}

// The readers below take an encoding's unread bytes and return what
// they read and what is left, as the encoders take and return the
// bytes written so far.

func readByte(b []byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, b, errShort
	}
	return b[0], b[1:], nil
}

// readUvarint reads a minimal-length varint: a longer spelling of the
// same number would not re-encode to the bytes it came from.
func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, b, errShort
	case n < 0:
		return 0, b, errors.New("varint overflows 64 bits")
	case n > 1 && b[n-1] == 0:
		return 0, b, errors.New("varint not minimal")
	}
	return x, b[n:], nil
}

func readFixed(b []byte, n int) ([]byte, []byte, error) {
	if len(b) < n {
		return nil, b, errShort
	}
	return b[:n], b[n:], nil
}

// readString reads a length-prefixed string's bytes.
func readString(b []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if n > uint64(len(b)) {
		return nil, b, fmt.Errorf("string of %d bytes exceeds the %d left", n, len(b))
	}
	return b[:n], b[n:], nil
}

// readLength reads a nil-or-length prefix for n elements of at least
// min bytes each. It refuses a length the rest of the input cannot
// hold, so a decode never allocates for elements that are not there.
func readLength(b []byte, min int) (n int, isNil bool, rest []byte, err error) {
	x, b, err := readUvarint(b)
	if err != nil || x == 0 {
		return 0, x == 0, b, err
	}
	x--
	if x > uint64(len(b)) || min > 0 && x > uint64(len(b)/min) {
		return 0, false, b, fmt.Errorf("length %d exceeds the %d bytes left", x, len(b))
	}
	return int(x), false, b, nil
}

func encBool(b []byte, v reflect.Value, _ int) ([]byte, error) {
	if v.Bool() {
		return append(b, 1), nil
	}
	return append(b, 0), nil
}

func decBool(b []byte, v reflect.Value, _ int) ([]byte, error) {
	c, b, err := readByte(b)
	if err == nil && c > 1 {
		err = fmt.Errorf("bool byte %d", c)
	}
	v.SetBool(c == 1)
	return b, err
}

func encInt(b []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.AppendVarint(b, v.Int()), nil
}

func decInt(b []byte, v reflect.Value, _ int) ([]byte, error) {
	u, b, err := readUvarint(b)
	if err != nil {
		return b, err
	}
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if v.OverflowInt(x) {
		return b, fmt.Errorf("%d overflows %v", x, v.Type())
	}
	v.SetInt(x)
	return b, nil
}

func encUint(b []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.AppendUvarint(b, v.Uint()), nil
}

func decUint(b []byte, v reflect.Value, _ int) ([]byte, error) {
	x, b, err := readUvarint(b)
	if err != nil {
		return b, err
	}
	if v.OverflowUint(x) {
		return b, fmt.Errorf("%d overflows %v", x, v.Type())
	}
	v.SetUint(x)
	return b, nil
}

// The float codecs go through the value's address: converting a
// float32 through float64 would quiet a signalling NaN. Every value
// the codec touches is addressable — Encode and Decode start from a
// pointer, and map entries pass through addressable temporaries.
func encFloat32(b []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(*(*float32)(v.Addr().UnsafePointer()))), nil
}

func decFloat32(b []byte, v reflect.Value, _ int) ([]byte, error) {
	raw, b, err := readFixed(b, 4)
	if err == nil {
		*(*float32)(v.Addr().UnsafePointer()) = math.Float32frombits(binary.LittleEndian.Uint32(raw))
	}
	return b, err
}

func encFloat64(b []byte, v reflect.Value, _ int) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
}

func decFloat64(b []byte, v reflect.Value, _ int) ([]byte, error) {
	raw, b, err := readFixed(b, 8)
	if err == nil {
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	return b, err
}

func encString(b []byte, v reflect.Value, _ int) ([]byte, error) {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
}

func decString(b []byte, v reflect.Value, _ int) ([]byte, error) {
	s, b, err := readString(b)
	if err == nil {
		v.SetString(string(s))
	}
	return b, err
}

// decMapKeyString is decString for a map's string key: the same
// counter names recur in every stored cell's telemetry, so the name is
// interned (names) rather than allocated per entry.
func decMapKeyString(b []byte, v reflect.Value, _ int) ([]byte, error) {
	s, b, err := readString(b)
	if err == nil {
		v.SetString(names.intern(s))
	}
	return b, err
}

func compilePointer(p, elem *plan) {
	p.min = 1
	p.enc = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(b, 0), nil
		}
		if depth == maxDepth {
			return b, errDepth
		}
		return elem.enc(append(b, 1), v.Elem(), depth+1)
	}
	p.dec = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		c, b, err := readByte(b)
		switch {
		case err != nil:
			return b, err
		case c == 0:
			v.SetZero()
			return b, nil
		case c != 1:
			return b, fmt.Errorf("pointer byte %d", c)
		case depth == maxDepth:
			return b, errDepth
		}
		x := reflect.New(v.Type().Elem())
		v.Set(x)
		return elem.dec(b, x.Elem(), depth+1)
	}
}

func compileSlice(p *plan, t reflect.Type, elem *plan) {
	p.min = 1
	p.enc = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(b, 0), nil
		}
		if depth == maxDepth {
			return b, errDepth
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		var err error
		for i := 0; i < n && err == nil; i++ {
			b, err = elem.enc(b, v.Index(i), depth+1)
		}
		return b, err
	}
	p.dec = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		n, isNil, b, err := readLength(b, elem.min)
		switch {
		case err != nil:
			return b, err
		case isNil:
			v.SetZero()
			return b, nil
		case depth == maxDepth:
			return b, errDepth
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			if b, err = elem.dec(b, s.Index(i), depth+1); err != nil {
				return b, err
			}
		}
		v.Set(s)
		return b, nil
	}
}

func compileArray(p *plan, n int, elem *plan) {
	p.min = n * elem.min
	p.enc = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		var err error
		for i := 0; i < n && err == nil; i++ {
			b, err = elem.enc(b, v.Index(i), depth)
		}
		return b, err
	}
	p.dec = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		var err error
		for i := 0; i < n && err == nil; i++ {
			b, err = elem.dec(b, v.Index(i), depth)
		}
		return b, err
	}
}

func compileStruct(p *plan, fields []*plan) {
	for _, f := range fields {
		p.min += f.min
	}
	p.enc = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		var err error
		for i := 0; i < len(fields) && err == nil; i++ {
			b, err = fields[i].enc(b, v.Field(i), depth)
		}
		return b, err
	}
	p.dec = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		var err error
		for i := 0; i < len(fields) && err == nil; i++ {
			b, err = fields[i].dec(b, v.Field(i), depth)
		}
		return b, err
	}
}

// compileMap writes entries in ascending key order, so equal maps
// encode to equal bytes, and reads them back only in that order.
func compileMap(p *plan, t reflect.Type, key, elem *plan) {
	p.min = 1
	compare := mapKeyCompare(t.Key().Kind())
	keys, elems := reflect.SliceOf(t.Key()), reflect.SliceOf(t.Elem())
	decKey := key.dec
	if t.Key().Kind() == reflect.String {
		decKey = decMapKeyString
	}
	// sorting holds the slices a map's entries are copied into to be
	// sorted, reused across encodings of the type (a map nested in its
	// own type's value takes another).
	var sorting sync.Pool
	p.enc = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(b, 0), nil
		}
		if depth == maxDepth {
			return b, errDepth
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		s, _ := sorting.Get().(*mapSort)
		if s == nil || s.ks.Len() < n {
			s = &mapSort{ks: reflect.MakeSlice(keys, n, n), es: reflect.MakeSlice(elems, n, n), order: make([]int, n)}
		}
		defer sorting.Put(s)
		ks, es, order := s.ks, s.es, s.order[:n]
		it := v.MapRange()
		for i := 0; it.Next(); i++ {
			ks.Index(i).SetIterKey(it)
			es.Index(i).SetIterValue(it)
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int { return compare(ks.Index(i), ks.Index(j)) })
		var err error
		for _, i := range order {
			if b, err = key.enc(b, ks.Index(i), depth+1); err != nil {
				break
			}
			if b, err = elem.enc(b, es.Index(i), depth+1); err != nil {
				break
			}
		}
		return b, err
	}
	p.dec = func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		n, isNil, b, err := readLength(b, key.min+elem.min)
		switch {
		case err != nil:
			return b, err
		case isNil:
			v.SetZero()
			return b, nil
		case depth == maxDepth:
			return b, errDepth
		}
		m := reflect.MakeMapWithSize(t, n)
		k, prev := reflect.New(t.Key()).Elem(), reflect.New(t.Key()).Elem()
		e := reflect.New(t.Elem()).Elem()
		for i := 0; i < n; i++ {
			if b, err = decKey(b, k, depth+1); err != nil {
				return b, err
			}
			if i > 0 && compare(prev, k) >= 0 {
				return b, fmt.Errorf("map key %v out of order after %v", k, prev)
			}
			if b, err = elem.dec(b, e, depth+1); err != nil {
				return b, err
			}
			m.SetMapIndex(k, e)
			prev.Set(k)
		}
		v.Set(m)
		return b, nil
	}
}

// mapSort is a map's entries, copied out to be sorted: keys and elements
// at the same index, and the order to write them in.
type mapSort struct {
	ks, es reflect.Value
	order  []int
}

// mapKeyCompare orders map keys of kind k: numerically for integers, by
// bytes for strings.
func mapKeyCompare(k reflect.Kind) func(a, b reflect.Value) int {
	switch {
	case isInt(k):
		return func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) }
	case isUint(k):
		return func(a, b reflect.Value) int { return cmp.Compare(a.Uint(), b.Uint()) }
	default:
		return func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) }
	}
}
