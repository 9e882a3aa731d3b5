package traceio

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/trace"
)

const accelSample = `-kernel name = vecadd
-grid dim = (2,1,1)
-block dim = (64,1,1)
-shmem = 0

#BEGIN_TB
thread block = 0,0,0
warp = 0
insts = 4
0008 ffffffff 1 R1 LDG.E 1 R4 4 0x100000
0010 ffffffff 1 R2 IADD 2 R1 R5
0018 ffffffff 1 R3 LDG.E 1 R6 4 0x200080
0020 ffffffff 0 STG.E 2 R3 R7 4 0x300000
warp = 1
insts = 4
0008 ffffffff 1 R1 LDG.E 1 R4 4 0x100080
0010 ffffffff 1 R2 IADD 2 R1 R5
0018 ffffffff 1 R3 LDG.E 1 R6 4 0x200100
0020 ffffffff 0 STG.E 2 R3 R7 4 0x300080
#END_TB
#BEGIN_TB
thread block = 1,0,0
warp = 0
insts = 4
0008 ffffffff 1 R1 LDG.E 1 R4 4 0x100100
0010 ffffffff 1 R2 IADD 2 R1 R5
0018 ffffffff 1 R3 LDG.E 1 R6 4 0x200180
0020 ffffffff 0 STG.E 2 R3 R7 4 0x300100
warp = 1
insts = 2
0008 ffffffff 1 R1 LDG.E 1 R4 4 0x100180
0010 ffffffff 1 R2 IADD 2 R1 R5
#END_TB
`

func TestReadAccelSim(t *testing.T) {
	tr, err := ReadAccelSim(strings.NewReader(accelSample), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "vecadd" || len(tr.Kernels) != 1 {
		t.Fatalf("trace identity wrong: %+v", tr)
	}
	kt := tr.Kernels[0]
	if kt.Blocks != 2 || kt.WarpsPerBlock != 2 || kt.TotalWarps() != 4 {
		t.Fatalf("geometry wrong: %+v", kt)
	}
	// Three static memory PCs → three slots, in PC order: LDG(0008),
	// LDG(0018), STG(0020).
	if kt.Slots != 3 {
		t.Fatalf("slots = %d, want 3", kt.Slots)
	}
	var kinds []trace.OpKind
	for _, ins := range kt.Body {
		if ins.Kind != trace.OpALU {
			kinds = append(kinds, ins.Kind)
		}
	}
	if len(kinds) != 3 || kinds[0] != trace.OpLoad || kinds[1] != trace.OpLoad || kinds[2] != trace.OpStore {
		t.Fatalf("body memory ops wrong: %v", kinds)
	}
	// One IADD per memory instruction in the trace keeps In ≈ 2: each
	// synthesised memory op is followed by gap=0 or 1 ALU...
	if got := kt.Streams[0].warpStream(0)[0]; got != 0x100000 {
		t.Fatalf("warp 0 slot 0 addr = %#x", got)
	}
	if got := kt.Streams[0].warpStream(3)[0]; got != 0x100180 {
		t.Fatalf("warp 3 slot 0 addr = %#x", got)
	}
	// Warp 3 never issued the second load or the store: padded null
	// line keeps the trace valid and replayable.
	if got := kt.Streams[1].warpStream(3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("warp 3 slot 1 padding wrong: %v", got)
	}
	if kt.WarpIters[0] != 1 || kt.WarpIters[3] != 1 {
		t.Fatalf("warp iters wrong: %v", kt.WarpIters)
	}

	// The ingested trace must characterise and replay end to end.
	sig := mustCharacterise(t, tr, CharacteriseOptions{})
	if sig.Accesses == 0 || sig.In <= 1 {
		t.Fatalf("ingested signature empty: %+v", sig)
	}
	w, err := tr.Workload()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWorkload(config.Default().Scale(1), w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.L1.Accesses == 0 {
		t.Fatalf("replayed accel-sim trace ran nothing: %+v", res)
	}
}

func TestReadAccelSimGolden(t *testing.T) {
	const path = "testdata/vecadd_accelsim.trace"
	tr, err := ReadAccelSim(openFile(t, path), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Kernels) != 1 || tr.Kernels[0].TotalWarps() != 4 {
		t.Fatalf("golden accel-sim fixture parsed wrong: %+v", tr.Kernels[0])
	}
	w, err := LoadWorkloadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "vecadd_accelsim" {
		t.Fatalf("workload named %q, want file-derived name", w.Name)
	}
}

// TestReadAccelSimCoalescingMask covers the uncoalesced dialect: a
// memory op carrying one address per active lane must coalesce to its
// distinct cache lines in first-touch order, shared-memory ops must be
// validated then folded into the ALU gap, and the gzipped golden
// fixture must load through LoadWorkloadFile's content dispatch. The
// fixture (testdata/vecadd_mask.trace.gz) is the committed form of this
// dump.
func TestReadAccelSimCoalescingMask(t *testing.T) {
	const path = "testdata/vecadd_mask.trace.gz"
	tr, err := ReadAccelSim(openFile(t, path), "vecadd_mask")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Kernels) != 1 {
		t.Fatalf("trace identity wrong: %+v", tr)
	}
	if w, err := LoadWorkloadFile(path); err != nil || w.Name != "vecadd_mask" {
		t.Fatalf("content dispatch of %s: %v", path, err)
	}
	kt := tr.Kernels[0]
	if kt.Blocks != 2 || kt.WarpsPerBlock != 2 || kt.Slots != 3 {
		t.Fatalf("geometry wrong: blocks=%d wpb=%d slots=%d", kt.Blocks, kt.WarpsPerBlock, kt.Slots)
	}
	// Warp 0's first LDG lists 4 lane addresses inside one 128-byte
	// line: one stream entry. Its second LDG straddles two lines; the
	// STG's 4 lanes cover three.
	if got := kt.Streams[0].warpStream(0); len(got) != 1 || got[0] != 0x100000 {
		t.Fatalf("slot 0 warp 0 = %#x, want the one coalesced line 0x100000", got)
	}
	if got := kt.Streams[1].warpStream(0); !reflect.DeepEqual(got, []uint64{0x200000, 0x200080}) {
		t.Fatalf("slot 1 warp 0 = %#x, want two distinct lines", got)
	}
	if got := kt.Streams[2].warpStream(0); !reflect.DeepEqual(got, []uint64{0x300000, 0x300080, 0x300100}) {
		t.Fatalf("slot 2 warp 0 = %#x, want three first-touch-ordered lines", got)
	}
	// Warp 2 only issued the first load; warp 3 has no section at all —
	// untouched slots replay the padded null line.
	if got := kt.Streams[0].warpStream(2); len(got) != 1 || got[0] != 0x100200 {
		t.Fatalf("slot 0 warp 2 = %#x", got)
	}
	for s := 0; s < 3; s++ {
		if got := kt.Streams[s].warpStream(3); len(got) != 1 || got[0] != 0 {
			t.Fatalf("slot %d warp 3 = %#x, want null-line padding", s, got)
		}
	}
	// Shared ops (3 LDS) and IADDs (3) feed the ALU gap; with 7 global
	// memory instructions the rounded gap is 1, so the synthesised body
	// alternates mem/ALU.
	var alus int
	for _, ins := range kt.Body {
		if ins.Kind == trace.OpALU {
			alus++
		}
	}
	if alus != kt.Slots {
		t.Fatalf("body ALU gap total = %d, want %d (gap 1 per memory slot)", alus, kt.Slots)
	}
	// The dialect must replay end to end like the legacy form.
	w, err := tr.Workload()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWorkload(config.Default().Scale(1), w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.L1.Accesses == 0 {
		t.Fatalf("mask-dialect replay ran nothing: %+v", res)
	}
}

// TestReadAccelSimGzipMatchesPlain pins the transparent decompression:
// the same text, plain and gzipped, must parse to DeepEqual traces.
func TestReadAccelSimGzipMatchesPlain(t *testing.T) {
	plain, err := ReadAccelSim(strings.NewReader(accelSample), "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(accelSample)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zipped, err := ReadAccelSim(&buf, "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, zipped) {
		t.Fatal("gzipped accel-sim text parsed differently from plain")
	}
}

func TestReadAccelSimErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "no kernel"},
		{"no name", "#BEGIN_TB\nthread block = 0,0,0\n", "before '-kernel name'"},
		{"no dims", "-kernel name = k\nthread block = 0,0,0\n", "before grid/block dims"},
		{"bad grid", "-kernel name = k\n-grid dim = (0,1,1)\n", "positive integer"},
		{"bad block dim", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (x,1,1)\n", "positive integer"},
		{"block outside grid", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 4,0,0\n", "outside grid"},
		{"warp outside block", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 7\n", "outside"},
		{"warp before block", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nwarp = 0\n", "outside a thread block"},
		{"instr before warp", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\n0008 ffffffff 1 R1 LDG.E 1 R2 4 0x80\n", "outside a warp"},
		{"bad pc", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\nzz ffffffff 1 R1 LDG.E 1 R2 4 0x80\n", "bad PC"},
		{"missing address", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\n0008 ffffffff 1 R1 LDG.E\n", "missing width"},
		{"mask mismatch", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\n0008 0000000f 1 R1 LDG.E 1 R2 4 0x80 0x100\n", "2 addresses for a 4-lane active mask"},
		{"bad lane address", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\n0008 00000003 1 R1 LDG.E 1 R2 4 0x80 zz\n", "bad address"},
		{"shared missing width", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\n0008 ffffffff 1 R1 LDS.128 1 R2\n", "missing width"},
		{"shared mask mismatch", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\n0008 00000007 1 R1 STS.128 1 R2 16 0x40 0x80\n", "2 addresses for a 3-lane active mask"},
		{"no memory ops", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\nwarp = 0\n0008 ffffffff 1 R1 IADD 1 R2\n", "no memory instructions"},
		{"grid overflow", "-kernel name = k\n-grid dim = (2000000000,2000000000,1)\n-block dim = (32,1,1)\nthread block = 0,0,0\n", "warp limit"},
		{"block dim overflow", "-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (2000000000,2000000000,1)\nthread block = 0,0,0\n", "warp limit"},
	}
	for _, c := range cases {
		_, err := ReadAccelSim(strings.NewReader(c.in), "w")
		if err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
