package snap_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"poise/internal/sim"
	"poise/internal/snap"
)

// FuzzSnapshot drives Decode with arbitrary bytes, enforcing the
// never-panic discipline of the poisesnap parser: truncation, corrupt
// varints, bad magic and version skew must all surface as errors, and
// any input Decode accepts must pass Validate and re-encode to a
// container that decodes to the same snapshot. Decode and
// sim.DecodeCheckpoint hand out views of the input, not copies: the
// target overwrites the input once it has what it needs from them, as a
// caller that breaks the ownership rule would, and the clones it took
// first must not notice. The seeds include a poisetrace container, plain
// and gzipped, which Decode must refuse.
func FuzzSnapshot(f *testing.F) {
	sn := snap.SampleSnapshot()
	valid, err := sn.Encode()
	if err != nil {
		f.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(valid)
	zw.Close()

	f.Add(valid)
	f.Add(gz.Bytes())
	f.Add(valid[:len(valid)/2])   // truncated mid-payload
	f.Add(valid[:len(valid)-3])   // truncated CRC
	f.Add([]byte("POISESNAP\n"))  // magic only
	f.Add([]byte("NOTASNAPSHOT")) // bad magic
	skew := append([]byte(nil), valid...)
	skew[len(snap.Magic)] = 0x7f // version skew
	f.Add(snap.Recrc(skew))
	corrupt := append([]byte(nil), valid...)
	for i := len(snap.Magic) + 1; i < len(corrupt)-4; i++ {
		corrupt[i] = 0x80 // unterminated varints everywhere
	}
	f.Add(snap.Recrc(corrupt))

	// A workload checkpoint: two sections in the state, as
	// sim.Checkpoint.Encode writes them.
	cp := &sim.Checkpoint{Workload: "wl", KernelIndex: 1, Cycle: 77, State: []byte("kernel state"), Agg: []byte("agg")}
	ckpt, err := cp.Encode("ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)

	// Running-kernel containers the parent of PR 24 wrote, one per policy
	// codec (internal/sim/golden_test.go).
	golden, err := filepath.Glob("../sim/testdata/pr23_*.poisesnap.gz")
	if err != nil || len(golden) != 5 {
		f.Fatalf("golden kernel states: %v, err %v", golden, err)
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	// A poisetrace container, gzipped and plain: the other format of the
	// shared opener, which Decode must refuse as foreign.
	trace, err := os.ReadFile("../traceio/testdata/mini.ptrace.gz")
	if err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(trace))
	if err != nil {
		f.Fatal(err)
	}
	plainTrace, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace)
	f.Add(plainTrace)

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)     // the engine's bytes are not ours to overwrite
		sn, err := snap.Decode(data) // must never panic
		cp, cperr := sim.DecodeCheckpoint(data)
		if err != nil {
			if cperr == nil {
				t.Fatal("DecodeCheckpoint accepted a container Decode rejects")
			}
			return
		}
		if verr := sn.Validate(); verr != nil {
			t.Fatalf("Decode accepted a snapshot Validate rejects: %v", verr)
		}
		re, err := sn.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded snapshot failed: %v", err)
		}
		var cpRe, cpState, cpAgg []byte
		if cperr == nil {
			if cpRe, err = cp.Encode(sn.Key); err != nil {
				t.Fatalf("re-encode of decoded checkpoint failed: %v", err)
			}
			cpState, cpAgg = bytes.Clone(cp.State), bytes.Clone(cp.Agg)
		}
		want := *sn
		want.State = bytes.Clone(sn.State)
		// From here on the views are stale, as they are for a caller that
		// reuses its buffer: only copies may be looked at.
		for i := range data {
			data[i] ^= 0xa5
		}
		again, err := snap.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Kind != want.Kind || again.Key != want.Key || again.Workload != want.Workload ||
			again.KernelIndex != want.KernelIndex || again.Cycle != want.Cycle || !bytes.Equal(again.State, want.State) {
			t.Fatal("decode/encode/decode not a fixed point")
		}
		if cperr == nil {
			cp2, err := sim.DecodeCheckpoint(cpRe)
			if err != nil {
				t.Fatalf("re-decode of checkpoint failed: %v", err)
			}
			if cp2.Workload != want.Workload || cp2.KernelIndex != want.KernelIndex || cp2.Cycle != want.Cycle ||
				!bytes.Equal(cp2.State, cpState) || !bytes.Equal(cp2.Agg, cpAgg) {
				t.Fatal("checkpoint decode/encode/decode not a fixed point")
			}
		}
	})
}
