package snap

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	w := NewWriter()
	w.Uvarint(42)
	w.Varint(-7)
	w.Bool(true)
	w.Float64(3.14159)
	w.String("payload")
	return &Snapshot{
		Kind:        KindBoundary,
		Key:         "cfg|k0|t:8,4",
		Workload:    "wl",
		KernelIndex: 3,
		Cycle:       123456,
		State:       w.Data(),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sn := sampleSnapshot()
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sn, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", sn, got)
	}
}

func TestSnapshotGzipTransparent(t *testing.T) {
	sn := sampleSnapshot()
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	zw.Close()
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sn, got) {
		t.Fatal("gzip round trip mismatch")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	sn := sampleSnapshot()
	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"short":     data[:5],
		"bad magic": append([]byte("NOTPOISESN"), data[10:]...),
		"truncated": data[:len(data)-8],
		"trailing":  append(append([]byte(nil), data...), 0, 0, 0, 0),
	}
	// Flip one payload byte: the CRC must catch it.
	flipped := append([]byte(nil), data...)
	flipped[len(Magic)+3] ^= 0xff
	cases["bitflip"] = flipped
	// Version skew: bump the version varint and refresh the CRC so the
	// version check itself is what rejects it.
	skew := append([]byte(nil), data...)
	skew[len(Magic)] = 9
	cases["version skew"] = recrc(skew)
	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

// recrc rewrites the trailing CRC to match the (possibly mutated) body.
func recrc(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	out := append([]byte(nil), body...)
	sum := crc32.ChecksumIEEE(body)
	return append(out, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func TestWriterReaderPrimitives(t *testing.T) {
	w := NewWriter()
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Varint(math.MaxInt64)
	w.Bool(false)
	w.Bool(true)
	w.Float64(math.Inf(-1))
	w.Float64(0.1)
	w.Bytes([]byte{1, 2, 3})
	w.String("hé")
	r := NewReader(w.Data())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("uvarint max: %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Fatalf("varint min: %d", got)
	}
	if got := r.Varint(); got != math.MaxInt64 {
		t.Fatalf("varint max: %d", got)
	}
	if r.Bool() || !r.Bool() {
		t.Fatal("bools")
	}
	if got := r.Float64(); !math.IsInf(got, -1) {
		t.Fatalf("float -inf: %v", got)
	}
	if got := r.Float64(); got != 0.1 {
		t.Fatalf("float: %v", got)
	}
	if got := r.LimitedView(16); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", got)
	}
	if got := r.LimitedString(16); got != "hé" {
		t.Fatalf("string: %q", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err=%v len=%d", r.Err(), r.Len())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // unterminated varint
	r.Uvarint()
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Every later read is a zero-value no-op.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Bool() || r.LimitedString(8) != "" {
		t.Fatal("reads after error not zero")
	}
	// Count larger than remaining bytes is rejected.
	r2 := NewReader([]byte{5, 1, 2})
	if r2.Count(100) != 0 || r2.Err() == nil {
		t.Fatal("count beyond payload accepted")
	}
	// Count beyond the limit is rejected even if bytes exist.
	r3 := NewReader([]byte{5, 1, 2, 3, 4, 5})
	if r3.Count(3) != 0 || r3.Err() == nil {
		t.Fatal("count beyond limit accepted")
	}
	// Corrupt bool byte.
	r4 := NewReader([]byte{7})
	r4.Bool()
	if r4.Err() == nil {
		t.Fatal("bool 7 accepted")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sn := sampleSnapshot()
	if _, err := st.Load(sn.Key); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing key: %v", err)
	}
	if err := st.Save(sn); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(sn.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sn, got) {
		t.Fatal("store round trip mismatch")
	}
	// Filenames are content addresses of the key, not raw keys.
	base := filepath.Base(st.Path(sn.Key))
	if strings.Contains(base, "|") || !strings.HasSuffix(base, ".poisesnap") {
		t.Fatalf("unexpected store filename %q", base)
	}
	if err := st.Delete(sn.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(sn.Key); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load after Delete: %v", err)
	}
	if err := st.Delete(sn.Key); err != nil {
		t.Fatal("double delete should be a no-op")
	}
	// No leftover temp files.
	if err := st.Save(sn); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// TestLimitedViewSharesThePayload: a view shares the payload (and cannot
// be appended into the bytes after it) and obeys the limit, and a sized
// writer that is outgrown still holds everything written.
func TestLimitedViewSharesThePayload(t *testing.T) {
	w := NewWriterSize(4)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes([]byte{4, 5, 6})
	w.Bytes(bytes.Repeat([]byte{7}, 100))
	payload := w.Data()

	r := NewReader(payload)
	copied, view := bytes.Clone(r.LimitedView(3)), r.LimitedView(3)
	payload[2], payload[6] = 9, 9 // the middle byte of each field
	if !bytes.Equal(copied, []byte{1, 2, 3}) {
		t.Fatalf("a clone of a view follows the payload: %v", copied)
	}
	if !bytes.Equal(view, []byte{4, 9, 6}) {
		t.Fatalf("LimitedView does not share the payload: %v", view)
	}
	if _ = append(view, 0); payload[8] != 100 {
		t.Fatal("appending to a view overwrote the length prefix behind it")
	}
	if r.LimitedView(99); r.Err() == nil {
		t.Fatal("a view longer than its limit was handed out")
	}
	r = NewReader(payload)
	r.LimitedView(3)
	r.LimitedView(3)
	if got := r.LimitedView(100); len(got) != 100 || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("last field: %d bytes, err %v, %d left", len(got), r.Err(), r.Len())
	}
}

// TestVarintsMatchEncodingBinary: Writer and Reader carry their own
// varint loops; over boundary values and random ones they must write
// the bytes encoding/binary writes, read what it reads, consume what it
// consumes and reject what it rejects (truncated, longer than ten
// bytes, a tenth byte above 1).
func TestVarintsMatchEncodingBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, v := range vals {
		w := NewWriter()
		w.Uvarint(v)
		w.Varint(int64(v))
		want := binary.AppendVarint(binary.AppendUvarint(nil, v), int64(v))
		if !bytes.Equal(w.Data(), want) {
			t.Fatalf("%#x: wrote % x, encoding/binary writes % x", v, w.Data(), want)
		}
		r := NewReader(w.Data())
		if u, s := r.Uvarint(), r.Varint(); u != v || s != int64(v) || r.Err() != nil || r.Len() != 0 {
			t.Fatalf("%#x: read back %#x and %#x, err %v, %d left", v, u, s, r.Err(), r.Len())
		}
	}
	hostile := [][]byte{
		{}, {0x80}, {0xff, 0xff}, // truncated
		{0x80, 0x00}, {0x81, 0x80, 0x00}, // not minimal: accepted, as encoding/binary does
		bytes.Repeat([]byte{0xff}, 9), // nine continuation bytes and no end
		append(bytes.Repeat([]byte{0xff}, 9), 0x01),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),       // the tenth byte overflows
		append(bytes.Repeat([]byte{0x80}, 10), 0x01),      // eleven bytes
		append(bytes.Repeat([]byte{0xff}, 9), 0x81, 0x00), // a continuation bit on the tenth
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256)) | byte(rng.Intn(2))<<7
		}
		hostile = append(hostile, b)
	}
	for _, in := range hostile {
		want, n := binary.Uvarint(in)
		r := NewReader(in)
		got := r.Uvarint()
		switch {
		case n <= 0 && (r.Err() == nil || got != 0 || r.Len() != 0):
			t.Fatalf("% x: encoding/binary rejects it; read %#x, err %v, %d left", in, got, r.Err(), r.Len())
		case n > 0 && (r.Err() != nil || got != want || r.Len() != len(in)-n):
			t.Fatalf("% x: read %#x with %d left (err %v), encoding/binary reads %#x with %d left", in, got, r.Len(), r.Err(), want, len(in)-n)
		}
	}
}

// TestEncodeSectionsEqualsJoinedState: a container built from sections
// is byte-identical to one built from the same sections joined by hand.
func TestEncodeSectionsEqualsJoinedState(t *testing.T) {
	sections := [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 127), bytes.Repeat([]byte{8}, 128), bytes.Repeat([]byte{9}, 20000)}
	for n := 0; n <= len(sections); n++ {
		w := NewWriter()
		for _, sec := range sections[:n] {
			w.Bytes(sec)
		}
		sn := sampleSnapshot()
		sn.State = w.Data()
		want, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sn.State = nil
		got, err := sn.EncodeSections(sections[:n]...)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d sections: err %v, %d bytes against %d joined", n, err, len(got), len(want))
		}
	}
}

// TestSealBehindEqualsEncodeSections: a container sealed around a last
// section that was written in place, behind Headroom free bytes, is
// EncodeSections over the head and the last section, and the state it
// returns is the one Decode finds. Section lengths straddle a varint's
// one-byte bound. Room too small is an error, not a torn container, and
// a buffer with no capacity for the CRC still seals.
func TestSealBehindEqualsEncodeSections(t *testing.T) {
	sizes := [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 127), bytes.Repeat([]byte{8}, 128), bytes.Repeat([]byte{9}, 20000)}
	for _, head := range sizes {
		for _, last := range sizes {
			name := fmt.Sprintf("head %d, last %d", len(head), len(last))
			sn := sampleSnapshot()
			sn.State = nil
			want, err := sn.EncodeSections(head, last)
			if err != nil {
				t.Fatal(err)
			}
			room := sn.Headroom(head)
			w := NewWriterBehind(room, len(last))
			w.buf = append(w.buf, last...)
			got, state, err := sn.SealBehind(w.Data(), room, head)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: err %v, %d bytes against %d encoded", name, err, len(got), len(want))
			}
			if &got[len(got)-1] != &w.buf[:cap(w.buf)][cap(w.buf)-1] {
				t.Fatalf("%s: the container is not the writer's buffer", name)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: the container has %d bytes of capacity past its end", name, cap(got)-len(got))
			}
			dec, err := Decode(got)
			if err != nil || !bytes.Equal(dec.State, state) {
				t.Fatalf("%s: the state returned is not the decoded one (err %v)", name, err)
			}

			tight := append(make([]byte, room), last...)[: room+len(last) : room+len(last)]
			if got, _, err := sn.SealBehind(tight, room, head); err != nil || !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("%s, no capacity for the CRC: err %v", name, err)
			}
			small := append(make([]byte, 8), last...)
			if _, _, err := sn.SealBehind(small, 8, head); err == nil {
				t.Fatalf("%s: sealed with 8 bytes of room", name)
			}
			if !bytes.Equal(small[8:], last) {
				t.Fatalf("%s: a refused seal wrote over the last section", name)
			}
		}
	}
}
