package sim_test

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"poise/internal/sim"
	"poise/internal/sm"
	"poise/internal/testutil"
)

// hitBlocked reports whether some scheduler sits on a finite wake hint
// beyond now: its vital warps wait on L1-hit or ALU returns, which only
// the clock markers will make the loop visit.
func hitBlocked(g *sim.GPU) bool {
	for _, s := range g.SMs {
		for _, sch := range s.Scheds {
			if h := sch.WakeHint(); h > g.Now() && h != sm.NoDep {
				return true
			}
		}
	}
	return false
}

// TestSnapshotRestoreWithMarkersInFlight interrupts at cycles where the
// state this PR moved out of the heap is live — clock markers pending
// in the ring, schedulers timed on blocking hits — and requires the
// restored run to finish DeepEqual to the uninterrupted one. The ring
// travels as evWake events; the per-warp scoreboard cache does not
// travel at all and is rebuilt from the decoded loads.
func TestSnapshotRestoreWithMarkersInFlight(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("thrash", 24, 40, 4)
	base, baseTally := runKernelBaseline(t, cfg, k, sim.GTO{}, sim.RunOptions{})

	tested := 0
	for at := int64(50); at < base.Cycles && tested < 8; at += 211 {
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.TraceTuples = true
		_, err = g.Run(k, sim.GTO{}, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: at}})
		if !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("interrupt at %d: %v", at, err)
		}
		if g.ClockMarkers() == 0 || !hitBlocked(g) {
			continue
		}
		tested++
		state, err := g.SnapshotKernel(sim.GTO{})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g2.ResumeKernel(k, sim.GTO{}, sim.RunOptions{}, state)
		if err != nil {
			t.Fatalf("resume from cycle %d: %v", g.Now(), err)
		}
		if !reflect.DeepEqual(base, res) || !reflect.DeepEqual(baseTally, schedTallies(g2)) {
			t.Fatalf("restore at cycle %d with %d markers pending diverges", g.Now(), g.ClockMarkers())
		}
	}
	if tested == 0 {
		t.Fatal("no interrupt point had markers pending and a hit-blocked scheduler")
	}
}

// readFixture returns the kernel state in a gzipped testdata file.
func readFixture(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	state, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestParentSnapshotStillRestores resumes a kernel state written by
// the commit before the wake ring existed (clock markers interleaved
// with fills in the heap array, resolved loads still on the scoreboard
// with their done flag set) and requires the uninterrupted result.
func TestParentSnapshotStillRestores(t *testing.T) {
	state := readFixture(t, "testdata/pr11_thrash_gto.kernelstate.gz")
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("thrash", 24, 40, 4)
	base, baseTally := runKernelBaseline(t, cfg, k, sim.GTO{}, sim.RunOptions{})
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.ResumeKernel(k, sim.GTO{}, sim.RunOptions{}, state)
	if err != nil {
		t.Fatalf("ResumeKernel: %v", err)
	}
	if !reflect.DeepEqual(base, res) || !reflect.DeepEqual(baseTally, schedTallies(g)) {
		t.Fatalf("a state written by the parent commit resumes differently:\n base: %+v\n rest: %+v", base, res)
	}

	// The fixture must carry markers, or it does not test their routing
	// from the event list to the ring.
	g2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g2.ResumeKernel(k, sim.GTO{}, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 1}}, state)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if g2.ClockMarkers() == 0 {
		t.Fatal("the fixture carries no clock markers")
	}

	// A marker beyond the ring's reach (here: a GPU with shorter
	// latencies than the one that wrote the state) is rejected, not
	// aliased onto a nearer cycle.
	short := cfg
	short.ALULatency, short.L1HitLatency = 2, 2
	g3, err := sim.New(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g3.ResumeKernel(k, sim.GTO{}, sim.RunOptions{}, state); err == nil {
		t.Fatal("a clock marker outside the wake ring's horizon was accepted")
	}
}

// TestParentSnapshotStillRestoresHeapOrder resumes a kernel state written
// by the commit before the per-SM fill rings, mid-kernel under MSHR
// pressure (4 MSHRs: every register busy on both SMs, eleven replayers
// parked on each, markers pending). Its fills are listed in the order
// of the binary heap's array, in which both SMs' fills are out of cycle
// order, so decode has to sort them into the rings; the result must be
// the uninterrupted one.
func TestParentSnapshotStillRestoresHeapOrder(t *testing.T) {
	state := readFixture(t, "testdata/pr12_thrash_mshr4_gto.kernelstate.gz")
	cfg := testutil.TinyConfig()
	cfg.L1.MSHRs = 4
	k := testutil.ThrashKernel("thrash", 64, 40, 4)
	base, baseTally := runKernelBaseline(t, cfg, k, sim.GTO{}, sim.RunOptions{})
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.ResumeKernel(k, sim.GTO{}, sim.RunOptions{}, state)
	if err != nil {
		t.Fatalf("ResumeKernel: %v", err)
	}
	if !reflect.DeepEqual(base, res) || !reflect.DeepEqual(baseTally, schedTallies(g)) {
		t.Fatalf("a state written by the parent commit resumes differently:\n base: %+v\n rest: %+v", base, res)
	}

	// The fixture must be what it is described as.
	g2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g2.ResumeKernel(k, sim.GTO{}, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 1}}, state)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	for _, s := range g2.SMs {
		if !s.MSHR.Full() || len(s.ReplayQ) == 0 {
			t.Fatalf("SM %d restored with %d of %d MSHRs busy and %d replayers parked", s.ID, s.MSHR.Used(), s.MSHR.Capacity(), len(s.ReplayQ))
		}
	}
	if g2.FillsInFlight() != cfg.NumSMs*cfg.L1.MSHRs || g2.ClockMarkers() == 0 {
		t.Fatalf("restored with %d fills in flight and %d markers", g2.FillsInFlight(), g2.ClockMarkers())
	}
}

// TestRunAfterCutShortRun: a kernel stopped by the cycle cap leaves
// warps in their slots and markers and fills pending; the next run on
// that GPU must find the slots free (it used to launch nothing and
// report a deadlock at cycle 0) and the GPU as good as new. Both
// engines.
func TestRunAfterCutShortRun(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := testutil.Workload("capped",
		testutil.ThrashKernel("k0", 48, 30, 3),
		testutil.StreamKernel("k1", 40, 4))
	for _, engine := range []sim.Engine{sim.EngineReady, sim.EngineDense} {
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.RunWorkload(w, sim.GTO{}, sim.RunOptions{Engine: engine, MaxCycles: 300}); err == nil {
			t.Fatalf("engine %d: want the cycle cap's error", engine)
		}
		if g.SMs[0].ActiveWarps() == 0 {
			t.Fatalf("engine %d: the capped run left no warps behind", engine)
		}
		got, err := g.RunWorkload(w, sim.GTO{}, sim.RunOptions{Engine: engine})
		if err != nil {
			t.Fatalf("engine %d, uncapped rerun: %v", engine, err)
		}
		fresh, _, err := runOn(t, cfg, w, sim.GTO{}, sim.RunOptions{}, false, engine)
		if err != nil {
			t.Fatal(err)
		}
		// Scheduler tallies accumulate over a GPU's life; results do not.
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("engine %d: a run after a capped run differs from a fresh GPU's", engine)
		}
	}
}
