package traceio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"

	"poise/internal/trace"
)

const goldenPath = "testdata/mini.ptrace.gz"

// TestGoldenFixture pins the on-disk format: the committed fixture
// must parse to exactly the trace Record produces today. If the format
// (or miniWorkload) changes intentionally, regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/traceio -run TestGoldenFixture
//
// and bump formatVersion when the change breaks old readers.
func TestGoldenFixture(t *testing.T) {
	want := mustRecord(t, miniWorkload())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := WriteFile(goldenPath, want); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	}
	got, err := Read(openFile(t, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	// Write's bytes are pinned too, gzip layer included, not just what
	// they decode to.
	fixture, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if written := encode(t, want, true); !bytes.Equal(written, fixture) {
		t.Fatalf("gzipped Write(miniWorkload) is %d bytes that differ from the %d-byte fixture", len(written), len(fixture))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("golden fixture no longer matches Record(miniWorkload); " +
			"if the format change is intentional, regenerate with UPDATE_GOLDEN=1")
	}

	// The golden trace replays and characterises.
	if _, err := got.Workload(); err != nil {
		t.Fatal(err)
	}
	sig := mustCharacterise(t, got, CharacteriseOptions{})
	if sig.Workload != "mini" || sig.Kernels != 2 || sig.Accesses == 0 {
		t.Fatalf("golden signature malformed: %+v", sig)
	}
}

// TestWriteMatchesReferenceEncoder holds Write's batched encoding to
// the plain one it replaced, one bufio Write per varint, on a trace
// large enough to cross many of Write's chunk boundaries, plain and
// gzipped.
func TestWriteMatchesReferenceEncoder(t *testing.T) {
	tr := syntheticTrace(t, 8, 256, 64)
	for _, gz := range []bool{false, true} {
		var want bytes.Buffer
		if err := referenceWrite(&want, tr, gz); err != nil {
			t.Fatal(err)
		}
		if want.Len() < 2*writeChunk && !gz {
			t.Fatalf("the container is %d bytes: too small to cross a %d-byte chunk twice", want.Len(), writeChunk)
		}
		if got := encode(t, tr, gz); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("gzip=%v: Write's %d bytes differ from the reference encoder's %d", gz, len(got), want.Len())
		}
	}
}

// referenceWrite is the container encoder as first written: a bufio
// Write per varint.
func referenceWrite(w io.Writer, t *Trace, gzipped bool) error {
	hdrJSON, err := json.Marshal(headerOf(t))
	if err != nil {
		return err
	}
	out := w
	var gz *gzip.Writer
	if gzipped {
		gz = gzip.NewWriter(w)
		out = gz
	}
	bw := bufio.NewWriter(out)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		_, err := bw.Write(scratch[:binary.PutUvarint(scratch[:], v)])
		return err
	}
	if _, err := bw.WriteString(formatMagic); err != nil {
		return err
	}
	if err := putUvarint(formatVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(hdrJSON))); err != nil {
		return err
	}
	if _, err := bw.Write(hdrJSON); err != nil {
		return err
	}
	for _, kt := range t.Kernels {
		for _, rep := range kt.Streams {
			for g := range kt.TotalWarps() {
				stream := rep.warpStream(g)
				if err := putUvarint(uint64(len(stream))); err != nil {
					return err
				}
				prev := int64(0)
				for _, addr := range stream {
					line := int64(addr / trace.LineBytes)
					if _, err := bw.Write(scratch[:binary.PutVarint(scratch[:], line-prev)]); err != nil {
						return err
					}
					prev = line
				}
			}
		}
	}
	if _, err := bw.WriteString(formatTrailer); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if gz != nil {
		return gz.Close()
	}
	return nil
}
