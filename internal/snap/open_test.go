package snap

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenNamesEachFormat(t *testing.T) {
	container, err := sampleSnapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	trace := []byte(TraceMagic + "\x01rest")
	cases := []struct {
		name  string
		data  []byte
		sniff Format // of the bytes as they are
		open  Format // of what is behind a gzip layer
	}{
		{"poisetrace", trace, Poisetrace, Poisetrace},
		{"gzipped poisetrace", gzipped(t, trace), Gzip, Poisetrace},
		{"poisesnap", container, Poisesnap, Poisesnap},
		{"gzipped poisesnap", gzipped(t, container), Gzip, Poisesnap},
		{"twice gzipped", gzipped(t, gzipped(t, trace)), Gzip, Gzip},
		{"json", []byte(`{"signature":{}}`), Unknown, Unknown},
		{"magic cut short", []byte(TraceMagic[:5]), Unknown, Unknown},
		{"one gzip byte", []byte{0x1f}, Unknown, Unknown},
		{"empty", nil, Unknown, Unknown},
	}
	for _, c := range cases {
		if got := Sniff(c.data); got != c.sniff {
			t.Errorf("%s: Sniff = %d, want %d", c.name, got, c.sniff)
		}
		br, got, err := Open(bytes.NewReader(c.data), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.open {
			t.Errorf("%s: Open = %d, want %d", c.name, got, c.open)
		}
		if c.sniff != Gzip {
			// A plain stream is handed back from its first byte.
			if rest, err := io.ReadAll(br); err != nil || !bytes.Equal(rest, c.data) {
				t.Errorf("%s: Open consumed the stream: %q, %v", c.name, rest, err)
			}
		}
	}
	if _, _, err := Open(bytes.NewReader([]byte{0x1f, 0x8b, 0xff}), 0); err == nil || !strings.HasPrefix(err.Error(), "gzip: ") {
		t.Fatalf("broken gzip header: err %v", err)
	}
}

// TestOpenBoundsTheDecompressedStream is the decompression-bomb guard:
// a limit caps what a gzip layer inflates to, not what it occupies.
func TestOpenBoundsTheDecompressedStream(t *testing.T) {
	const n = 1 << 20
	bomb := gzipped(t, make([]byte, n))
	for _, c := range []struct {
		limit   int64
		wantErr bool
	}{{0, false}, {n, false}, {n - 1, true}, {4096, true}} {
		br, _, err := Open(bytes.NewReader(bomb), c.limit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(br)
		if c.wantErr {
			if !errors.Is(err, ErrTooLarge) || int64(len(got)) != c.limit {
				t.Errorf("limit %d: read %d bytes, err %v; want %d bytes and ErrTooLarge", c.limit, len(got), err, c.limit)
			}
			if _, err := br.Read(make([]byte, 1)); !errors.Is(err, ErrTooLarge) {
				t.Errorf("limit %d: a read after the cap returned %v", c.limit, err)
			}
		} else if err != nil || len(got) != n {
			t.Errorf("limit %d: read %d bytes, err %v; want all %d", c.limit, len(got), err, n)
		}
	}
	// A plain stream is not the opener's to bound.
	br, _, err := Open(bytes.NewReader(make([]byte, 100)), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(br); err != nil || len(got) != 100 {
		t.Fatalf("plain stream under a limit: %d bytes, %v", len(got), err)
	}
}

func TestCheckPrologue(t *testing.T) {
	cases := []struct {
		name    string
		f       Format
		head    string
		readErr error
		n       int
		want    string
	}{
		{"poisetrace", Poisetrace, TraceMagic + "\x01rest", nil, len(TraceMagic) + 1, ""},
		{"poisesnap", Poisesnap, Magic + "\x01rest", nil, len(Magic) + 1, ""},
		{"empty", Poisetrace, "", io.EOF, 0, "reading magic: unexpected EOF"},
		{"magic cut by a read error", Poisetrace, "POIS", io.ErrClosedPipe, 0, "reading magic: io: read/write on closed pipe"},
		{"the other magic", Poisesnap, TraceMagic + "\x01", nil, 0, `bad magic "POISETRACE": not a poisesnap file`},
		{"no version", Poisetrace, TraceMagic, io.EOF, 0, "reading version: unexpected EOF"},
		{"version cut short", Poisesnap, Magic + "\x80", io.EOF, 0, "reading version: unexpected EOF"},
		{"version overflows", Poisetrace, TraceMagic + strings.Repeat("\xff", 10), nil, 0, "reading version: binary: varint overflows a 64-bit integer"},
		{"version overflows at the end", Poisesnap, Magic + strings.Repeat("\x80", 12), io.EOF, 0, "reading version: binary: varint overflows a 64-bit integer"},
		{"newer version", Poisetrace, TraceMagic + "\x02", nil, 0, "unsupported format version 2 (this build reads 1)"},
		{"version skew", Poisesnap, Magic + "\x7f", nil, 0, "unsupported format version 127 (this build reads 1)"},
	}
	for _, c := range cases {
		n, err := CheckPrologue(c.f, []byte(c.head), c.readErr)
		if c.want == "" {
			if err != nil || n != c.n {
				t.Errorf("%s: n %d, err %v; want %d, nil", c.name, n, err, c.n)
			}
		} else if err == nil || err.Error() != c.want {
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
}

// TestDecodeIsZeroCopy pins what Decode allocates for a plain
// container: the Snapshot and its two strings. The state is a view, and
// no reader or buffer is built on the way.
func TestDecodeIsZeroCopy(t *testing.T) {
	data, err := sampleSnapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { Decode(data) }); allocs > 3 {
		t.Fatalf("Decode of a plain container allocates %.0f times, want at most 3", allocs)
	}
}

// TestDecodeRefusesPoisetrace feeds Decode the other format of the
// opener: a committed trace fixture, gzipped and plain.
func TestDecodeRefusesPoisetrace(t *testing.T) {
	zipped, err := os.ReadFile("../traceio/testdata/mini.ptrace.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{zipped, plain} {
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "not a poisesnap file") {
			t.Errorf("Decode of a poisetrace: err %v", err)
		}
	}
}
