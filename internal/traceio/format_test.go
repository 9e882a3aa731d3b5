package traceio

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func encode(t *testing.T, tr *Trace, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr, WriteOptions{Gzip: gz}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := mustRecord(t, miniWorkload())
	for _, gz := range []bool{false, true} {
		data := encode(t, tr, gz)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("gzip=%v: decoded trace differs from recorded", gz)
		}
	}
}

func TestWriteFileReadFile(t *testing.T) {
	tr := mustRecord(t, miniWorkload())
	dir := t.TempDir()
	for _, name := range []string{"mini.ptrace", "mini.ptrace.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Read(openFile(t, path))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("%s: decoded trace differs", name)
		}
	}
	// The gzipped container must actually be gzipped (and smaller).
	plain, _ := os.ReadFile(filepath.Join(dir, "mini.ptrace"))
	zipped, _ := os.ReadFile(filepath.Join(dir, "mini.ptrace.gz"))
	if len(zipped) == 0 || zipped[0] != 0x1f || zipped[1] != 0x8b {
		t.Fatal("WriteFile(.gz) did not gzip")
	}
	if len(zipped) >= len(plain) {
		t.Fatalf("gzip did not shrink the container: %d >= %d", len(zipped), len(plain))
	}
}

// craft hand-builds a container prologue around hdrJSON and appends
// the stream bytes verbatim.
func craft(hdrJSON string, streams ...byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(formatMagic)
	var scratch [16]byte
	buf.Write(scratch[:binary.PutUvarint(scratch[:], formatVersion)])
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(hdrJSON)))])
	buf.WriteString(hdrJSON)
	buf.Write(streams)
	return buf.Bytes()
}

// oneWarp is the header of a one-kernel, one-slot, one-warp container.
const oneWarp = `{"Workload":"w","Kernels":[{"Name":"k","Body":[{"Kind":"load"}],"Slots":1,"WarpsPerBlock":1,"Blocks":1,"WarpIters":[1]}]}`

// TestCorruptInputs feeds the strict parser a catalogue of malformed
// containers; every one must return an error and none may panic.
func TestCorruptInputs(t *testing.T) {
	good := encode(t, mustRecord(t, miniWorkload()), false)
	hdrStart := len(formatMagic) + 2 // version varint + header-length varint ≥ 1 byte each
	snapPlain, snapZipped := poisesnapContainers(t)

	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "magic"},
		{"truncated magic", good[:4], "magic"},
		{"bad magic", []byte("NOTATRACEFILE..."), "not a poisetrace"},
		{"bad version", append([]byte(formatMagic), 0x7f), "unsupported format version"},
		{"missing header length", good[:len(formatMagic)+1], ""},
		{"truncated header", good[:hdrStart+5], "header"},
		{"corrupt header JSON", func() []byte {
			d := append([]byte(nil), good...)
			d[hdrStart+1] ^= 0xff
			return d
		}(), "header"},
		{"truncated stream", good[:len(good)-40], ""},
		{"missing trailer", good[:len(good)-len(formatTrailer)], "trailer"},
		{"corrupt trailer", func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)-1] ^= 0xff
			return d
		}(), "trailer"},
		{"trailing garbage", append(append([]byte(nil), good...), 0xaa), "trailing garbage"},
		{"gzip with garbage body", []byte{0x1f, 0x8b, 0xff, 0x00, 0x01}, "gzip"},
		// Two-byte deltas: whole in the buffer on the bytes.Reader path,
		// split across refills on the one-byte path.
		{"delta overflows 64 bits", craft(oneWarp, 1,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
			"access 0: binary: varint overflows a 64-bit integer"},
		{"line index below zero", craft(oneWarp, 2, 0x80, 0x01, 0x83, 0x01),
			"access 1: line index -2 out of range"},
		{"delta cut mid-varint", craft(oneWarp, 2, 0x02, 0x80), "access 1: unexpected EOF"},
		// The other container format, which shares the opener.
		{"poisesnap container", snapPlain, `bad magic "POISESNAP\n\x01": not a poisetrace file`},
		{"gzipped poisesnap container", snapZipped, `bad magic "POISESNAP\n\x01": not a poisetrace file`},
	}
	for _, c := range cases {
		_, err := Read(bytes.NewReader(c.data))
		if err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
		if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
		// A reader that hands over one byte per call makes every
		// multi-byte varint straddle a refill: the decode must fall back
		// to the same verdict and the same words.
		_, slow := Read(iotest.OneByteReader(bytes.NewReader(c.data)))
		if slow == nil || slow.Error() != err.Error() {
			t.Fatalf("%s: one byte at a time the error is %v, not %q", c.name, slow, err)
		}
	}
}

// TestHostileHeaderGeometry hand-crafts containers whose JSON headers
// declare absurd launch geometry, or a stream far longer than the bytes
// behind it; the reader must reject them before any large allocation or
// integer overflow (a regression for a crafted 150-byte file that once
// panicked in make(), and for a 461-byte one that allocated 2 GB for
// its declared stream). Characterisation is held to the same bound: a
// body that reads one slot from many loads costs what the streams the
// container carries cost, not loads × warps.
func TestHostileHeaderGeometry(t *testing.T) {
	kernel := func(geom string) string {
		return `{"Workload":"w","Kernels":[{"Name":"k","Body":[{"Kind":"load"}],"Slots":1,` +
			geom + `,"WarpIters":[]}]}`
	}
	// The longest stream the format allows, then a few hundred bytes of
	// it: one-byte deltas of +1.
	longStream := binary.AppendUvarint(nil, maxStreamLen)
	longStream = append(longStream, bytes.Repeat([]byte{0x02}, 320)...)
	// 10 000 loads of slot 0 over 1000 warps of one access each.
	const manyLoads, manyWarps = 10000, 1000
	oneSlot := `{"Workload":"w","Kernels":[{"Name":"k","Body":[` +
		strings.Repeat(`{"Kind":"load"},`, manyLoads-1) + `{"Kind":"load"}],"Slots":1,` +
		`"WarpsPerBlock":1000,"Blocks":1,"WarpIters":[` + strings.Repeat("1,", manyWarps-1) + `1]}]}`
	read := func(r io.Reader) error { _, err := Read(r); return err }
	characterise := func(r io.Reader) error {
		_, _, err := ReadWorkload(r, &CharacteriseOptions{})
		return err
	}
	cases := []struct {
		name string
		data []byte
		read func(io.Reader) error
		want string // "" means the container is valid
	}{
		{"totalwarps int overflow", craft(kernel(`"WarpsPerBlock":3037000500,"Blocks":3037000500`)), read, "warp limit"},
		{"huge allocation", craft(kernel(`"WarpsPerBlock":1000000000,"Blocks":1000000000`)), read, "warp limit"},
		{"huge slot count", craft(`{"Workload":"w","Kernels":[{"Name":"k","Body":[{"Kind":"alu"}],"Slots":2000000000,"WarpsPerBlock":1,"Blocks":1,"WarpIters":[1]}]}`), read, "slots"},
		{"declared stream longer than the file", craft(oneWarp, longStream...), read, "access 320: unexpected EOF"},
		{"many loads on one slot", craft(oneSlot, append(bytes.Repeat([]byte{1, 0}, manyWarps), formatTrailer...)...), characterise, ""},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		switch {
		case c.want == "" && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.want == "":
		case err == nil:
			t.Fatalf("%s: expected an error", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// What a small container may cost: the reader's buffers plus a
		// few dozen bytes per byte of header and streams, nowhere near
		// what the declarations ask for (the one-slot row would ask for
		// 10^7 stream headers, 240 MB; it takes about 5 MB).
		bound := uint64(1<<20 + 64*len(c.data))
		if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc > bound {
			t.Fatalf("%s: a %d-byte container allocated %d bytes (bound %d)", c.name, len(c.data), alloc, bound)
		}
	}
}

// TestValidateRejectsOverflowAddresses keeps Write and Read agreeing:
// an address past the format's line-index limit must fail validation
// (and hence Write), not produce a container Read then refuses.
func TestValidateRejectsOverflowAddresses(t *testing.T) {
	tr := mustRecord(t, miniWorkload())
	tr.Kernels[0].Streams[0].warpStream(0)[0] = 0xffffffffffffff80 // aligned, but beyond maxLineIndex
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "line-index limit") {
		t.Fatalf("Validate must reject overflow addresses, got %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr, WriteOptions{}); err == nil {
		t.Fatal("Write must refuse a trace Read could not load back")
	}
}

// TestHeaderGeometryMismatch corrupts semantic invariants that survive
// varint decoding and must be caught by validation.
func TestHeaderGeometryMismatch(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"warpiters too short", func(tr *Trace) { tr.Kernels[0].WarpIters = tr.Kernels[0].WarpIters[:1] }},
		{"zero iter count", func(tr *Trace) { tr.Kernels[0].WarpIters[2] = 0 }},
		{"slot out of range", func(tr *Trace) { tr.Kernels[0].Body[0].Slot = 99 }},
		{"negative usedist", func(tr *Trace) { tr.Kernels[0].Body[0].UseDist = -2 }},
		{"missing stream slot", func(tr *Trace) {
			tr.Kernels[0].Streams = tr.Kernels[0].Streams[:2]
		}},
		{"empty used stream", func(tr *Trace) {
			rep := tr.Kernels[0].Streams[0]
			warps := warpsOf(rep)
			warps[1] = nil
			tr.Kernels[0].Streams[0] = mustReplay(t, rep.name, warps)
		}},
		{"unaligned address", func(tr *Trace) { tr.Kernels[0].Streams[0].warpStream(0)[0] += 4 }},
		{"no kernels", func(tr *Trace) { tr.Kernels = nil }},
		{"unnamed workload", func(tr *Trace) { tr.Name = "" }},
		{"negative occupancy cap", func(tr *Trace) { tr.Kernels[0].MaxBlocksPerSM = -1 }},
	}
	for _, m := range mutations {
		tr := mustRecord(t, miniWorkload())
		m.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", m.name)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr, WriteOptions{}); err == nil {
			t.Fatalf("%s: Write must refuse an invalid trace", m.name)
		}
	}
}

// TestHostileStreamLayouts hand-builds kernels whose arenas do not
// fit their metadata: a nil slot, and a slot with one warp stream too
// few or too many. Validate, Write, Workload and Characterise must each
// refuse them with an error, never a panic.
func TestHostileStreamLayouts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*KernelTrace)
		want   string
	}{
		{"nil slot", func(kt *KernelTrace) { kt.Streams[1] = nil }, "slot 1 has no streams"},
		{"zero Replay", func(kt *KernelTrace) { kt.Streams[1] = &Replay{} }, "slot 1 has 0 warp streams for 4 warps"},
		{"warp too few", func(kt *KernelTrace) {
			kt.Streams[0] = mustReplay(t, "short", warpsOf(kt.Streams[0])[1:])
		}, "slot 0 has 3 warp streams for 4 warps"},
		{"warp too many", func(kt *KernelTrace) {
			kt.Streams[2] = mustReplay(t, "long", append(warpsOf(kt.Streams[2]), []uint64{0}))
		}, "slot 2 has 5 warp streams for 4 warps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := mustRecord(t, miniWorkload())
			c.mutate(tr.Kernels[0])
			checks := map[string]error{"Validate": tr.Validate()}
			checks["Write"] = Write(io.Discard, tr, WriteOptions{})
			_, checks["Workload"] = tr.Workload()
			_, checks["Characterise"] = Characterise(tr, CharacteriseOptions{})
			for call, err := range checks {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: error %v does not mention %q", call, err, c.want)
				}
			}
		})
	}
}

// FuzzRead is a fuzz-style stress of the drain loop: whatever the
// bytes, read must return (possibly an error) without panicking, and
// what it returns must pass Validate, which it never calls. `go test`
// runs the seed corpus; `go test -fuzz=FuzzRead` explores further.
func FuzzRead(f *testing.F) {
	tr, err := Record(miniWorkload())
	if err != nil {
		f.Fatal(err)
	}
	var plain, zipped bytes.Buffer
	if err := Write(&plain, tr, WriteOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := Write(&zipped, tr, WriteOptions{Gzip: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(zipped.Bytes())
	f.Add([]byte(formatMagic))
	f.Add([]byte{})
	corrupt := append([]byte(nil), plain.Bytes()...)
	for i := len(formatMagic); i < len(corrupt); i += 7 {
		corrupt[i] ^= 0x55
	}
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, _, err := read(bytes.NewReader(data), nil)
		if err == nil {
			// Whatever parses must satisfy the validator (read promises
			// only valid traces escape).
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("read returned an invalid trace: %v", verr)
			}
		}
	})
}
