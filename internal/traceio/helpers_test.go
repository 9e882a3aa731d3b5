package traceio

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"

	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
)

// miniWorkload builds a tiny two-kernel workload exercising private,
// shared and phased patterns, iteration jitter and a store slot — the
// shapes the format must round-trip. It is the source of the committed
// testdata/mini.ptrace.gz golden fixture (see TestGoldenFixture).
func miniWorkload() *sim.Workload {
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(2)
	b.Load(1)
	b.ALU(1)
	b.Store()
	k1 := &trace.Kernel{
		Name: "mini#0",
		Body: b.Body(),
		Patterns: []trace.Pattern{
			trace.PrivateSweep{Region: 11, Lines: 6, Step: 1},
			trace.SharedSweep{Region: 12, Lines: 10, Step: 1, Lag: 1},
			trace.Stream{Region: 13, WrapLines: 64},
		},
		Iters:         8,
		WarpsPerBlock: 2,
		Blocks:        2,
		Seed:          3,
	}
	b2 := &trace.BodyBuilder{}
	b2.Load(1)
	b2.ALU(3)
	k2 := &trace.Kernel{
		Name: "mini#1",
		Body: b2.Body(),
		Patterns: []trace.Pattern{
			trace.Phased{
				SwitchAt: 4,
				A:        trace.IrregularPrivate{Region: 14, Lines: 5, Seed: 0x77},
				B:        trace.IrregularShared{Region: 15, Lines: 12, Seed: 0x78, Cluster: 2},
			},
		},
		Iters:         9,
		IterJitter:    0.4,
		WarpsPerBlock: 2,
		Blocks:        2,
		Seed:          5,
	}
	return &sim.Workload{Name: "mini", Kernels: []*trace.Kernel{k1, k2}, MemorySensitive: true}
}

// Read is the whole-trace reader the tests hold the other paths to:
// the drain loop without characterisation.
func Read(r io.Reader) (*Trace, error) {
	t, _, err := read(r, nil)
	return t, err
}

// mustReplay builds one slot's Replay from per-warp streams.
func mustReplay(tb testing.TB, name string, warps [][]uint64) *Replay {
	tb.Helper()
	rep, err := NewReplay(name, warps)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// warpsOf copies a Replay's arena back out into per-warp streams.
func warpsOf(rep *Replay) [][]uint64 {
	warps := make([][]uint64, rep.warps())
	for g := range warps {
		warps[g] = append([]uint64(nil), rep.warpStream(g)...)
	}
	return warps
}

func mustRecord(t *testing.T, w *sim.Workload) *Trace {
	t.Helper()
	tr, err := Record(w)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustCharacterise(t *testing.T, tr *Trace, opts CharacteriseOptions) Signature {
	t.Helper()
	sig, err := Characterise(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// poisesnapContainers is a snapshot container, plain and gzipped: the
// other format of the shared opener, which every trace reader must
// refuse as foreign.
func poisesnapContainers(tb testing.TB) (plain, zipped []byte) {
	tb.Helper()
	sn := &snap.Snapshot{Kind: snap.KindCheckpoint, Key: "k", Workload: "mini", State: []byte("state")}
	plain, err := sn.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(plain)
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return plain, gz.Bytes()
}

// openFile opens path for the rest of the test.
func openFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
