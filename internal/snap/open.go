package snap

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Format is what the first bytes of a stream say it holds. Every reader
// of a recorded container (a trace file, an /ingest body, a checkpoint)
// asks Sniff or Open, and checks the prologue with CheckPrologue.
type Format uint8

const (
	Unknown    Format = iota // Accel-Sim text, a JSON record, garbage
	Gzip                     // a gzip member, which Open unwraps
	Poisetrace               // a trace container (internal/traceio)
	Poisesnap                // a snapshot container (this package)
)

// prologues are the name, magic and version of each container format.
var prologues = [...]struct {
	name, magic string
	version     uint64
}{
	Poisetrace: {"poisetrace", TraceMagic, TraceVersion},
	Poisesnap:  {"poisesnap", Magic, Version},
}

// ErrTooLarge fails a read past the limit given to Open.
var ErrTooLarge = errors.New("decompressed stream exceeds its limit")

// Sniff names the format head, the first bytes of a stream, announces.
func Sniff(head []byte) Format {
	if len(head) >= 2 && head[0] == 0x1f && head[1] == 0x8b {
		return Gzip
	}
	for _, f := range [...]Format{Poisetrace, Poisesnap} {
		if m := prologues[f].magic; len(head) >= len(m) && string(head[:len(m)]) == m {
			return f
		}
	}
	return Unknown
}

// Open removes the gzip layer r starts with, if it has one, and returns
// a reader at the first byte behind it with the format that byte opens.
// A limit > 0 bounds what the gzip layer may inflate to: reading past it
// fails with ErrTooLarge.
func Open(r io.Reader, limit int64) (*bufio.Reader, Format, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(2); Sniff(head) == Gzip {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, Unknown, fmt.Errorf("gzip: %w", err)
		}
		var in io.Reader = zr
		if limit > 0 {
			in = &capped{r: zr, left: limit}
		}
		br = bufio.NewReader(in)
	}
	head, _ := br.Peek(len(TraceMagic))
	return br, Sniff(head), nil
}

// CheckPrologue checks that head, the first bytes of a stream, opens
// with format f's magic and the one version of f this build reads, and
// returns how many bytes the two take. readErr is why head ends where it
// does; a prologue cut short reports it.
func CheckPrologue(f Format, head []byte, readErr error) (int, error) {
	p := prologues[f]
	if len(head) < len(p.magic) {
		return 0, fmt.Errorf("reading magic: %w", Truncation(readErr))
	}
	if string(head[:len(p.magic)]) != p.magic {
		return 0, fmt.Errorf("bad magic %q: not a %s file", head[:len(p.magic)], p.name)
	}
	v, n := binary.Uvarint(head[len(p.magic):])
	switch {
	case n == 0 && len(head)-len(p.magic) < binary.MaxVarintLen64:
		return 0, fmt.Errorf("reading version: %w", Truncation(readErr))
	case n <= 0:
		return 0, errors.New("reading version: binary: varint overflows a 64-bit integer")
	case v != p.version:
		return 0, fmt.Errorf("unsupported format version %d (this build reads %d)", v, p.version)
	}
	return len(p.magic) + n, nil
}

// Truncation is the error of a stream that ended (with err) inside a
// container: an end of file there is io.ErrUnexpectedEOF.
func Truncation(err error) error {
	if err == nil || err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// capped fails every read past left bytes with ErrTooLarge.
type capped struct {
	r    io.Reader
	left int64 // -1 once past the limit
}

func (c *capped) Read(p []byte) (int, error) {
	if c.left < 0 {
		return 0, ErrTooLarge
	}
	if int64(len(p)) > c.left+1 {
		p = p[:c.left+1]
	}
	n, err := c.r.Read(p)
	if c.left -= int64(n); c.left < 0 {
		return n - 1, ErrTooLarge
	}
	return n, err
}
