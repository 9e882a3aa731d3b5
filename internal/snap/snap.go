// Package snap is the "poisesnap" on-disk snapshot format: a
// versioned, CRC-guarded container for mid-run simulator state, written
// when a run or a sweep task is preempted. Like the poisetrace container
// (internal/traceio) it follows the never-panic parser discipline —
// truncated input, corrupt varints, bad magic and version skew all
// surface as errors, enforced by FuzzSnapshot — and it reads
// gzip-compressed containers transparently, through the opener that
// reads both containers (open.go).
//
// Layout, version 1:
//
//	magic   "POISESNAP\n"                        (10 bytes)
//	uvarint version                              (currently 1)
//	uvarint kind
//	string  key        (uvarint length + bytes)
//	string  workload
//	uvarint kernelIndex
//	varint  cycle
//	bytes   state      (uvarint length + opaque payload)
//	uint32  CRC32 (IEEE) of everything above     (4 bytes, little endian)
//
// The state payload is written with the same Writer primitives by the
// package that owns the state (sim, cache, sm, ...); snap treats it as
// opaque bytes so the container's integrity check covers it without
// knowing its schema.
package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
)

const (
	// Magic opens every poisesnap container.
	Magic = "POISESNAP\n"
	// Version is the current container version.
	Version = 1
	// TraceMagic and TraceVersion open every poisetrace container
	// (internal/traceio), which shares this package's opener (open.go).
	TraceMagic   = "POISETRACE\n"
	TraceVersion = 1

	// maxString bounds key/workload strings so a corrupt length prefix
	// cannot OOM the parser.
	maxString = 1 << 16
	// maxState bounds the state payload a reader will allocate for.
	maxState = 1 << 30
)

// Kind classifies what a snapshot's state payload contains.
type Kind uint8

const (
	// KindBoundary was a kernel-boundary snapshot: GPU state between two
	// kernels of a workload. Nothing writes it any more; it keeps wire
	// value 0 so the kinds of stored containers keep their meaning.
	KindBoundary Kind = iota
	// KindCheckpoint is a mid-kernel workload checkpoint taken when a
	// preemptible run was interrupted.
	KindCheckpoint
	// KindTask was a mid-kernel checkpoint of one profile sweep task.
	// Nothing writes it any more — a sweep task checkpoints as a
	// one-kernel workload — so a KindTask container under a task's key,
	// left by an older build, is a foreign kind and the task starts
	// over. It keeps wire value 2, and the golden kernel states of
	// internal/sim's tests keep it as their envelope.
	KindTask

	kindCount
)

// kindNames are the kinds' names, in wire-value order.
var kindNames = [kindCount]string{"boundary", "checkpoint", "task"}

func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Snapshot is one decoded poisesnap container.
type Snapshot struct {
	Kind Kind
	// Key is the snapshot's logical address: a task or checkpoint key.
	Key string
	// Workload names the workload (or kernel) the state belongs to.
	Workload string
	// KernelIndex is the index of the interrupted kernel.
	KernelIndex int
	// Cycle is the simulation cycle at which the state was captured.
	Cycle int64
	// State is the opaque engine-state payload.
	State []byte
}

// Validate checks the structural invariants Decode guarantees, so a
// snapshot built by hand goes through the same gate as a parsed one.
func (s *Snapshot) Validate() error {
	if s == nil {
		return errors.New("snap: nil snapshot")
	}
	if s.Kind >= kindCount {
		return fmt.Errorf("snap: unknown kind %d", s.Kind)
	}
	if len(s.Key) > maxString {
		return fmt.Errorf("snap: key too long (%d bytes)", len(s.Key))
	}
	if len(s.Workload) > maxString {
		return fmt.Errorf("snap: workload name too long (%d bytes)", len(s.Workload))
	}
	if s.KernelIndex < 0 {
		return fmt.Errorf("snap: negative kernel index %d", s.KernelIndex)
	}
	if s.Cycle < 0 {
		return fmt.Errorf("snap: negative cycle %d", s.Cycle)
	}
	if len(s.State) > maxState {
		return fmt.Errorf("snap: state too large (%d bytes)", len(s.State))
	}
	return nil
}

// Encode serialises the snapshot, including the trailing CRC.
func (s *Snapshot) Encode() ([]byte, error) {
	w, err := s.open(len(s.State))
	if err != nil {
		return nil, err
	}
	w.buf = append(w.buf, s.State...)
	return w.seal(), nil
}

// EncodeSections is Encode with the given sections, each length-prefixed
// as Writer.Bytes writes it, as the state in place of s.State: a state
// made of parts reaches its container without being joined first.
func (s *Snapshot) EncodeSections(sections ...[]byte) ([]byte, error) {
	n := 0
	for _, sec := range sections {
		n += uvarintLen(len(sec)) + len(sec)
	}
	w, err := s.open(n)
	if err != nil {
		return nil, err
	}
	for _, sec := range sections {
		w.Bytes(sec)
	}
	return w.seal(), nil
}

// Headroom is how many bytes SealBehind needs in front of a state's last
// section when head is the section before it.
func (s *Snapshot) Headroom(head []byte) int {
	return s.headroom() + 2*binary.MaxVarintLen64 + len(head)
}

// SealBehind is EncodeSections(head, last) for a last section that
// already sits in buf, behind room free bytes: last is buf[room:]. It
// writes everything in front of last's first byte (the prologue, the
// head section and last's length prefix) into the end of buf[:room],
// which must be at least Headroom(head) bytes, appends the CRC, and
// returns the container and the state it holds (what Decode would put in
// Snapshot.State). Both are views of buf, or of a grown copy of it when
// buf has no capacity left for the CRC, capped at their length so that
// an append cannot write into a neighbour; nothing else is copied.
func (s *Snapshot) SealBehind(buf []byte, room int, head []byte) (container, state []byte, err error) {
	if room < 0 || room > len(buf) {
		return nil, nil, fmt.Errorf("snap: room %d outside a %d-byte buffer", room, len(buf))
	}
	last := len(buf) - room
	n := uvarintLen(len(head)) + len(head) + uvarintLen(last) + last
	if err := s.check(n); err != nil {
		return nil, nil, err
	}
	// The front is written at buf's start, capped at room so that it
	// cannot reach last, then moved up against last.
	front := Writer{buf: buf[:0:room]}
	s.prologue(&front, n)
	front.Bytes(head)
	front.Uvarint(uint64(last))
	if len(front.buf) > room {
		return nil, nil, fmt.Errorf("snap: the container needs %d bytes in front of its last section, %d are free", len(front.buf), room)
	}
	at := room - len(front.buf)
	copy(buf[at:room], front.buf)
	w := Writer{buf: buf[at:]}
	container = w.seal()
	end := len(container) - crcLen
	return container[:len(container):len(container)], container[end-n : end : end], nil
}

// open starts a container sized for a state of stateLen bytes and writes
// everything in front of the state's first byte.
func (s *Snapshot) open(stateLen int) (*Writer, error) {
	if err := s.check(stateLen); err != nil {
		return nil, err
	}
	w := NewWriterSize(s.headroom() + stateLen + crcLen)
	s.prologue(w, stateLen)
	return w, nil
}

// check is what a container of s with a state of stateLen bytes must
// pass before anything is written.
func (s *Snapshot) check(stateLen int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if stateLen > maxState {
		return fmt.Errorf("snap: state too large (%d bytes)", stateLen)
	}
	return nil
}

// headroom bounds what prologue writes.
func (s *Snapshot) headroom() int {
	return len(Magic) + len(s.Key) + len(s.Workload) + 7*binary.MaxVarintLen64
}

// prologue writes everything in front of the first byte of a state of
// stateLen bytes: Encode, EncodeSections and SealBehind write their
// containers' fronts through it.
func (s *Snapshot) prologue(w *Writer, stateLen int) {
	w.buf = append(w.buf, Magic...)
	w.Uvarint(Version)
	w.Uvarint(uint64(s.Kind))
	w.String(s.Key)
	w.String(s.Workload)
	w.Uvarint(uint64(s.KernelIndex))
	w.Varint(s.Cycle)
	w.Uvarint(uint64(stateLen))
}

// uvarintLen is how many bytes Writer.Uvarint writes for n.
func uvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

// crcLen is the size of the CRC that ends a container.
const crcLen = 4

// seal appends the CRC of everything written and returns the container.
func (w *Writer) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
}

// Decode parses a poisesnap container, transparently decompressing
// gzip input. It never panics on malformed input, and every snapshot
// it returns passes Validate. The snapshot's State is a view of data
// (of the decompressed bytes when data is gzip), checked against the
// CRC as it stood: the caller keeps data unchanged for as long as it
// uses the snapshot, or clones State.
func Decode(data []byte) (*Snapshot, error) {
	if Sniff(data) == Gzip {
		br, _, err := Open(bytes.NewReader(data), maxState+maxString*4)
		if err != nil {
			return nil, fmt.Errorf("snap: %w", err)
		}
		if data, err = io.ReadAll(br); err != nil {
			return nil, fmt.Errorf("snap: gzip: %w", err)
		}
	}
	if len(data) < len(Magic)+4 {
		return nil, errors.New("snap: truncated container")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	n, err := CheckPrologue(Poisesnap, body, io.EOF)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("snap: checksum mismatch (got %08x want %08x)", got, want)
	}
	r := NewReader(body[n:])
	s := &Snapshot{}
	s.Kind = Kind(r.Uvarint())
	s.Key = r.LimitedString(maxString)
	s.Workload = r.LimitedString(maxString)
	s.KernelIndex = int(r.Uvarint())
	s.Cycle = r.Varint()
	s.State = r.LimitedView(maxState)
	if r.Len() != 0 && r.Err() == nil {
		return nil, fmt.Errorf("snap: %d trailing bytes", r.Len())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Writer builds a payload from varint-packed primitives. The zero
// value is not usable; construct with NewWriter.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return NewWriterSize(256) }

// NewWriterSize returns an empty writer with room for n bytes, for
// callers that know roughly how much they will write; a payload that
// outgrows it still grows by doubling.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// NewWriterBehind returns a writer for a payload of about n bytes that
// SealBehind will seal in place: its data starts with room zero bytes,
// left for the container's front, and its capacity covers the CRC too.
func NewWriterBehind(room, n int) *Writer {
	return &Writer{buf: make([]byte, room, room+n+crcLen)}
}

// Data returns the accumulated payload.
func (w *Writer) Data() []byte { return w.buf }

// Uvarint appends an unsigned varint. It inlines, loop and all.
func (w *Writer) Uvarint(v uint64) {
	b := w.buf
	for ; v >= 0x80; v >>= 7 {
		b = append(b, byte(v)|0x80)
	}
	w.buf = append(b, byte(v))
}

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float64 appends the IEEE-754 bits of v (exact round trip).
func (w *Writer) Float64(v float64) { w.Uvarint(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes a payload written by Writer. Errors are sticky: the
// first malformed read poisons the reader, every later read returns a
// zero value, and Err reports the failure — so decode functions can
// read a whole schema unconditionally and check once. It never panics
// on malformed input.
type Reader struct {
	buf []byte
	off int   // buf[off:] is unread; off is past len(buf) once poisoned
	err error // what poisoned the reader, unless a varint did
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// errVarint is what a corrupt or truncated varint poisons a reader with.
var errVarint = errors.New("snap: corrupt uvarint")

// Err returns the first decode error, or nil.
func (r *Reader) Err() error {
	if r.err == nil && r.off > len(r.buf) {
		return errVarint
	}
	return r.err
}

// Len returns the unread byte count.
func (r *Reader) Len() int { return max(len(r.buf)-r.off, 0) }

// fail poisons a clean reader with err. It leaves nothing to read, so
// that no read has to look at err first: each finds the payload
// exhausted and fails.
func (r *Reader) fail(err error) {
	if r.off <= len(r.buf) {
		r.err = err
		r.off = len(r.buf) + 1
	}
}

// Uvarint reads an unsigned varint: binary.Uvarint's loop and checks,
// on the reader's own cursor, which a corrupt varint leaves past the end
// of the payload. It is small enough to inline.
func (r *Reader) Uvarint() (v uint64) {
	v, r.off = uvarintAt(r.buf, r.off)
	return v
}

// uvarintAt decodes the varint at b[at:] and returns it with the offset
// past it; a corrupt or truncated varint, or an at past the end of b,
// returns len(b)+1.
func uvarintAt(b []byte, at int) (uint64, int) {
	var v uint64
	for shift := uint(0); at < len(b) && shift < 64; shift += 7 {
		x := b[at]
		at++
		if x < 0x80 {
			if shift == 63 && x > 1 {
				break // overflows 64 bits
			}
			return v | uint64(x)<<shift, at
		}
		v |= uint64(x&0x7f) << shift
	}
	return 0, len(b) + 1
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 { return zigzag(r.Uvarint()) }

// zigzag decodes a signed varint's value from its unsigned one.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Bool reads a boolean byte (anything but 0 or 1 is corrupt).
func (r *Reader) Bool() bool {
	if r.off < len(r.buf) && r.buf[r.off] <= 1 {
		r.off++
		return r.buf[r.off-1] == 1
	}
	r.fail(errBool)
	return false
}

var errBool = errors.New("snap: truncated or corrupt bool")

// Float64 reads IEEE-754 bits written by Writer.Float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uvarint()) }

// Int reads a varint and checks it fits the platform int.
func (r *Reader) Int() int { return r.fitInt(r.Varint()) }

// fitInt returns v as an int, or fails r and returns 0 if it does not
// fit.
func (r *Reader) fitInt(v int64) int {
	if int64(int(v)) != v {
		r.fail(errInt)
		return 0
	}
	return int(v)
}

var errInt = errors.New("snap: varint overflows int")

// Count reads a uvarint length and checks it against both the given
// limit and the remaining payload size, so a corrupt count can neither
// OOM a pre-allocation nor promise more elements than the payload
// could possibly hold (each element is at least one byte).
func (r *Reader) Count(limit int) int {
	v := r.Uvarint()
	if v > uint64(limit) || v > uint64(r.Len()) {
		r.failCount(v, limit)
		return 0
	}
	return int(v)
}

// failCount fails Count, out of its way.
func (r *Reader) failCount(v uint64, limit int) {
	r.fail(fmt.Errorf("snap: count %d out of range (limit %d, %d bytes left)", v, limit, r.Len()))
}

// LimitedView reads a length-prefixed byte slice of at most limit
// bytes. The result shares the memory of the payload the reader was
// built on, so it is for callers that own that payload and keep it
// unchanged while the view is in use.
func (r *Reader) LimitedView(limit int) []byte {
	n := r.Count(limit)
	if n == 0 {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}

// LimitedString reads a length-prefixed string of at most limit bytes.
func (r *Reader) LimitedString(limit int) string { return string(r.LimitedView(limit)) }
