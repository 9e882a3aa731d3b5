package snap

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// Walk is one pass over a structure's serialised fields, in wire order,
// in either direction: built on a Writer (Out) it appends every field it
// is shown, built on a Reader (In) it overwrites every field from the
// payload. A struct lists its wire fields once, in a method over a Walk;
// its encode and its decode are the two calls into that list, so a field
// cannot be in one and missing from the other. The walk is a type's only
// codec entry point: Walk where another package walks it, walk where
// only its own does. Errors are the Reader's: sticky, so a walk reads
// its whole list unconditionally, ends with Check for what rebuilds
// derived state and range-checks what it read, and the caller checks
// Reader.Err once. Its reads decode through Reader.Uvarint, which
// inlines, not through the Reader methods built on it, which do not.
// Loops that carry most of a payload's bytes (cache lines, MSHR entries,
// the GPU's event list) stay hand-written, per direction, and work on
// the payload in place. Out, they Reserve room for a chunk of records
// once, put encoding/binary's varints (Writer's, byte for byte) into it
// by index and Advance past them; the buffer grows only when less room
// is free than the largest record needs. In, they decode records from
// the unread bytes Reserve returns, by index, check each record once
// (the first malformed one fails the walk) and Advance past what they
// read.
type Walk struct {
	w *Writer
	r *Reader
}

// Out walks fields out to w.
func Out(w *Writer) Walk { return Walk{w: w} }

// In walks fields in from r.
func In(r *Reader) Walk { return Walk{r: r} }

// Reader returns the payload being read, nil on the way out.
func (k Walk) Reader() *Reader { return k.r }

// Writer returns the payload being written, nil on the way in.
func (k Walk) Writer() *Writer { return k.w }

// Fail poisons a walk in with err (the first failure wins, a nil err and
// a walk out are left alone).
func (k Walk) Fail(err error) {
	if k.r != nil && err != nil {
		k.r.fail(err)
	}
}

// Reserve returns the bytes a hand-written loop works in. Out, they are
// the payload's free room, grown first only if fewer than n bytes are
// free: the loop puts a record into it while the largest the record can
// be still fits. In, they are the unread payload, and n is unused.
func (k Walk) Reserve(n int) []byte {
	if r := k.r; r != nil {
		return r.buf[min(r.off, len(r.buf)):]
	}
	w := k.w
	if cap(w.buf)-len(w.buf) < n {
		w.buf = slices.Grow(w.buf, n)
	}
	return w.buf[len(w.buf):cap(w.buf)]
}

// Advance moves past the m bytes a loop wrote into Reserve's room or
// read from it. A walk in told to pass the end of its payload fails.
func (k Walk) Advance(m int) {
	if r := k.r; r != nil {
		if m > r.Len() {
			r.fail(errRecord)
		} else {
			r.off += m
		}
		return
	}
	k.w.buf = k.w.buf[:len(k.w.buf)+m]
}

var errRecord = errors.New("snap: truncated record")

// Varint walks a signed varint.
func (k Walk) Varint(p *int64) {
	if k.r != nil {
		*p = zigzag(k.r.Uvarint())
	} else {
		k.w.Varint(*p)
	}
}

// Uvarint walks an unsigned varint.
func (k Walk) Uvarint(p *uint64) {
	if k.r != nil {
		*p = k.r.Uvarint()
	} else {
		k.w.Uvarint(*p)
	}
}

// Bool walks a boolean byte.
func (k Walk) Bool(p *bool) {
	if k.r != nil {
		*p = k.r.Bool()
	} else {
		k.w.Bool(*p)
	}
}

// Float64 walks the IEEE-754 bits of a float.
func (k Walk) Float64(p *float64) {
	if k.r != nil {
		*p = math.Float64frombits(k.r.Uvarint())
	} else {
		k.w.Float64(*p)
	}
}

// Int walks an int as a signed varint.
func (k Walk) Int(p *int) {
	if k.r != nil {
		*p = k.r.fitInt(zigzag(k.r.Uvarint()))
	} else {
		k.w.Varint(int64(*p))
	}
}

// Int32 walks an int32 as a signed varint.
func (k Walk) Int32(p *int32) {
	if k.r != nil {
		*p = int32(zigzag(k.r.Uvarint()))
	} else {
		k.w.Varint(int64(*p))
	}
}

// String walks a length-prefixed string of at most limit bytes.
func (k Walk) String(p *string, limit int) {
	if k.r != nil {
		*p = k.r.LimitedString(limit)
	} else {
		k.w.String(*p)
	}
}

// Fixed walks the size of a structure that the configuration sizes: have
// on the way out; on the way in, a payload of another size fails the
// walk with format applied to the payload's size and have.
func (k Walk) Fixed(have int, format string) {
	if k.r == nil {
		k.w.Uvarint(uint64(have))
	} else if n := k.r.Uvarint(); n != uint64(have) {
		k.Fail(fmt.Errorf(format, n, have))
	}
}

// Count walks the length of a list: have on the way out, the payload's
// on the way in, bounded as Reader.Count bounds it.
func (k Walk) Count(have, limit int) int {
	if k.r != nil {
		return k.r.Count(limit)
	}
	k.w.Uvarint(uint64(have))
	return have
}

// Check runs check at the end of a walk in whose reader is still clean
// and fails the walk with what it returns: check rebuilds derived state
// and range-checks what was read, including against the structure the
// state is restored onto. A walk out, and a walk in that has already
// failed, skip it, so the first error a payload reports is the first
// thing wrong with it.
func (k Walk) Check(check func() error) {
	if k.r != nil && k.r.Err() == nil {
		k.Fail(check())
	}
}

// Slice walks a list of at most limit elements: its length, then every
// element through elem. On the way in the list is refilled in its own
// storage.
func Slice[T any](k Walk, s *[]T, limit int, elem func(Walk, *T)) {
	n := k.Count(len(*s), limit)
	if k.r != nil {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
	for i := range *s {
		elem(k, &(*s)[i])
	}
}

// Pairs walks two int64 lists of one length, interleaved element by
// element (a table of per-PC loads and hits).
func Pairs(k Walk, a, b *[]int64, limit int) {
	n := k.Count(len(*a), limit)
	if k.r != nil {
		*a = slices.Grow((*a)[:0], n)[:n]
		*b = slices.Grow((*b)[:0], n)[:n]
	}
	for i := range *a {
		k.Varint(&(*a)[i])
		k.Varint(&(*b)[i])
	}
}

// IntFloats walks a map of at most limit entries, in ascending key order
// so that equal maps are equal bytes; a walk in builds a new map.
func IntFloats(k Walk, m *map[int]float64, limit int) {
	if r := k.r; r != nil {
		n := r.Count(limit)
		*m = make(map[int]float64, n)
		for i := 0; i < n; i++ {
			key := r.Int()
			(*m)[key] = r.Float64()
		}
		return
	}
	keys := slices.Sorted(maps.Keys(*m))
	k.w.Uvarint(uint64(len(keys)))
	for _, key := range keys {
		k.w.Varint(int64(key))
		k.w.Float64((*m)[key])
	}
}
