package traceio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"poise/internal/snap"
	"poise/internal/trace"
)

// Scanner is the streaming core of the poisetrace reader: it parses the
// container prologue (magic, version, JSON header) eagerly — so launch
// geometry is validated before a single stream byte is decoded — and
// then yields one per-warp address stream at a time, in the container's
// canonical (kernel, slot, warp) order, holding only the record in
// flight. Memory stays O(header + largest record) however large the
// file is, which is what lets multi-GB traces feed the flat replay
// arenas without ever materialising a whole Trace.
//
// Scanner inherits the format's strict never-panic discipline: every
// malformed input — truncation mid-record, corrupt varints, geometry
// the streams cannot satisfy — surfaces as an error from NewScanner or
// Err. It is the format's one decoder: ReadWorkload and every other
// reader of a container drain a Scanner.
//
// Usage:
//
//	sc, err := NewScanner(r)
//	...
//	for {
//		rec, ok := sc.Next()
//		if !ok {
//			break
//		}
//		consume(rec) // rec.Addrs is only valid until the next call
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	br *bufio.Reader

	name            string
	memorySensitive bool
	kernels         []KernelMeta

	// Cursor of the next record to yield.
	kernel, slot, warp int

	buf  []uint64 // reused across records
	err  error
	done bool
}

// StreamRecord is one streamed per-warp address stream. Addrs aliases the
// Scanner's internal buffer: it is valid until the next call to Next
// and must be copied to be retained.
type StreamRecord struct {
	Kernel int // index into Kernels()
	Slot   int
	Warp   int // global warp id
	Addrs  []uint64
}

// NewScanner parses the container prologue from r, transparently
// unwrapping gzip, and validates every kernel's launch geometry before
// returning. It is strict: a bad magic, version, header or geometry is
// an error, never a panic.
func NewScanner(r io.Reader) (*Scanner, error) {
	br, _, err := snap.Open(r, 0)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	head, readErr := br.Peek(len(formatMagic) + binary.MaxVarintLen64)
	n, err := snap.CheckPrologue(snap.Poisetrace, head, readErr)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	br.Discard(n)
	hdrLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("traceio: reading header length: %w", snap.Truncation(err))
	}
	if hdrLen > maxHeaderLen {
		return nil, fmt.Errorf("traceio: header length %d exceeds the %d-byte limit", hdrLen, maxHeaderLen)
	}
	hdrJSON := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdrJSON); err != nil {
		return nil, fmt.Errorf("traceio: truncated header (%d bytes expected): %w", hdrLen, snap.Truncation(err))
	}
	dec := json.NewDecoder(bytes.NewReader(hdrJSON))
	dec.DisallowUnknownFields()
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("traceio: decoding header: %w", err)
	}

	sc := &Scanner{br: br, name: hdr.Workload, memorySensitive: hdr.MemorySensitive}
	for ki, kh := range hdr.Kernels {
		m := KernelMeta{
			Name:             kh.Name,
			Slots:            kh.Slots,
			WarpsPerBlock:    kh.WarpsPerBlock,
			Blocks:           kh.Blocks,
			MaxWarpsPerSched: kh.MaxWarpsPerSched,
			MaxBlocksPerSM:   kh.MaxBlocksPerSM,
			WarpIters:        kh.WarpIters,
		}
		for bi, spec := range kh.Body {
			ins, err := spec.instr()
			if err != nil {
				return nil, fmt.Errorf("traceio: kernel %d body[%d]: %w", ki, bi, err)
			}
			m.Body = append(m.Body, ins)
		}
		if err := m.validateGeometry(); err != nil {
			return nil, fmt.Errorf("traceio: kernel %d (%s): %w", ki, kh.Name, err)
		}
		sc.kernels = append(sc.kernels, m)
	}
	return sc, nil
}

// Name returns the trace's workload name.
func (s *Scanner) Name() string { return s.name }

// MemorySensitive returns the header's Pbest classification bit.
func (s *Scanner) MemorySensitive() bool { return s.memorySensitive }

// Kernels returns the header's kernel metadata, in stream order. The
// slice is shared, not copied; callers must not mutate it.
func (s *Scanner) Kernels() []KernelMeta { return s.kernels }

// Next yields the next per-warp stream record, or false at the end of
// the container or on the first error (check Err to distinguish).
// Records arrive kernel-major, then slot, then global warp — exactly
// the order Write emits and the order flat replay arenas append in.
func (s *Scanner) Next() (StreamRecord, bool) {
	if s.err != nil || s.done {
		return StreamRecord{}, false
	}
	// Roll the (kernel, slot, warp) cursor forward past exhausted slots
	// and kernels (a kernel with Slots==0 contributes no records).
	for s.kernel < len(s.kernels) {
		m := &s.kernels[s.kernel]
		if s.slot >= m.Slots {
			s.kernel++
			s.slot, s.warp = 0, 0
			continue
		}
		if s.warp >= m.TotalWarps() {
			s.slot++
			s.warp = 0
			continue
		}
		break
	}
	if s.kernel >= len(s.kernels) {
		s.finish()
		return StreamRecord{}, false
	}

	ki, slot, warp := s.kernel, s.slot, s.warp
	count, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.err = fmt.Errorf("traceio: kernel %d slot %d warp %d: reading stream length: %w",
			ki, slot, warp, snap.Truncation(err))
		return StreamRecord{}, false
	}
	if count > maxStreamLen {
		s.err = fmt.Errorf("traceio: kernel %d slot %d warp %d: stream length %d exceeds limit",
			ki, slot, warp, count)
		return StreamRecord{}, false
	}
	// Deltas that sit whole in the reader's buffer are decoded in
	// place. One that straddles the buffer's end, or is malformed, goes
	// through binary.ReadVarint, which refills and reports exactly what
	// a byte-at-a-time decode would. The record grows only as deltas
	// arrive, so a declared count costs nothing until its bytes do.
	stream := s.buf[:0]
	prev := int64(0)
	window, _ := s.br.Peek(s.br.Buffered())
	used := 0
	for j := 0; uint64(j) < count; j++ {
		var delta int64
		if used < len(window) && window[used] < 0x80 {
			b := window[used]
			delta, used = int64(b>>1)^-int64(b&1), used+1 // a one-byte zigzag varint
		} else if d, n := binary.Varint(window[used:]); n > 0 {
			delta, used = d, used+n
		} else {
			s.br.Discard(used)
			if delta, err = binary.ReadVarint(s.br); err != nil {
				s.err = fmt.Errorf("traceio: kernel %d slot %d warp %d access %d: %w",
					ki, slot, warp, j, snap.Truncation(err))
				return StreamRecord{}, false
			}
			window, _ = s.br.Peek(s.br.Buffered())
			used = 0
		}
		prev += delta
		if prev < 0 || prev > maxLineIndex {
			s.err = fmt.Errorf("traceio: kernel %d slot %d warp %d access %d: line index %d out of range",
				ki, slot, warp, j, prev)
			return StreamRecord{}, false
		}
		stream = append(stream, uint64(prev)*trace.LineBytes)
	}
	s.br.Discard(used)
	s.buf = stream

	// Advance the cursor for the next call.
	s.warp++
	return StreamRecord{Kernel: ki, Slot: slot, Warp: warp, Addrs: stream}, true
}

// finish consumes the trailer and requires clean EOF.
func (s *Scanner) finish() {
	s.done = true
	trailer := make([]byte, len(formatTrailer))
	if _, err := io.ReadFull(s.br, trailer); err != nil {
		s.err = fmt.Errorf("traceio: reading trailer: %w", snap.Truncation(err))
		return
	}
	if string(trailer) != formatTrailer {
		s.err = fmt.Errorf("traceio: bad trailer %q: stream corrupt or truncated", trailer)
		return
	}
	if _, err := s.br.ReadByte(); err != io.EOF {
		s.err = errors.New("traceio: trailing garbage after trailer")
	}
}

// Err returns the first error the scan hit, or nil after a clean run
// to the trailer.
func (s *Scanner) Err() error { return s.err }
