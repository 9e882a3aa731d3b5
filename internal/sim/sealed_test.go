package sim_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
)

// oldEncoding is the container Checkpoint.Encode wrote before a
// checkpoint was sealed where it is written: the envelope, then Agg and
// State copied in as two sections.
func oldEncoding(t *testing.T, cp *sim.Checkpoint, key string) []byte {
	t.Helper()
	sn := &snap.Snapshot{Kind: snap.KindCheckpoint, Key: key, Workload: cp.Workload, KernelIndex: cp.KernelIndex, Cycle: cp.Cycle}
	data, err := sn.EncodeSections(cp.Agg, cp.State)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shares reports whether two byte slices overlap in memory.
func shares(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// TestSealedCheckpointIsTheOldEncoding: a run's checkpoint is sealed
// in the buffer its state was walked into, and Encode under the
// workload's name hands that container out. At every hop of a chain,
// under every scheme class and on two workloads (one of them stopped in
// its second kernel, so the aggregation section is not empty), the
// sealed bytes must be the old copying encoding's. A checkpoint that is
// no longer what was sealed (another key, another cycle, a resliced or
// cloned section, one built by hand) must take the copying path, into a
// buffer of its own, and still decode to what it says. Snapshot(key)'s
// state must be the two sections joined.
func TestSealedCheckpointIsTheOldEncoding(t *testing.T) {
	cfg := testutil.TinyConfig()
	workloads := []*sim.Workload{
		testutil.Workload("thrash", testutil.ThrashKernel("t", 64, 30, 4)),
		testutil.Workload("multi", testutil.SharedKernel("k0", 16, 12, 2), testutil.StreamKernel("k1", 40, 4)),
	}
	for _, sc := range engineSchemes(t) {
		for _, w := range workloads {
			t.Run(sc.name+"/"+w.Name, func(t *testing.T) {
				base, err := sim.RunWorkload(cfg, w, sc.mk(), sim.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				every := base.Cycles/7 + 1
				res, cp, err := sim.RunWorkloadPreemptible(cfg, w, sc.mk(), sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: every}})
				hops, later := 0, false
				for ; errors.Is(err, sim.ErrInterrupted); hops++ {
					later = later || cp.KernelIndex > 0
					data := checkSealed(t, cp)
					back, derr := sim.DecodeCheckpoint(data)
					if derr != nil {
						t.Fatal(derr)
					}
					res, cp, err = sim.ResumeWorkload(cfg, w, sc.mk(), sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: back.Cycle + every}}, back)
				}
				if err != nil || !reflect.DeepEqual(base, res) {
					t.Fatalf("the chain of %d hops ends on %v, results equal %v", hops, err, reflect.DeepEqual(base, res))
				}
				if hops < 3 || (len(w.Kernels) > 1 && !later) {
					t.Fatalf("%d hops, one past the first kernel %v: the chain does not test what it should", hops, later)
				}
			})
		}
	}
}

// checkSealed checks one checkpoint a run returned and returns its
// sealed container.
func checkSealed(t *testing.T, cp *sim.Checkpoint) []byte {
	t.Helper()
	data, err := cp.Encode(cp.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, oldEncoding(t, cp, cp.Workload)) {
		t.Fatalf("cycle %d: the sealed container is not the sections' encoding", cp.Cycle)
	}
	if !shares(data, cp.State) || !shares(data, cp.Agg) {
		t.Fatalf("cycle %d: State and Agg are not views of the sealed container", cp.Cycle)
	}

	resliced, cloned, moved := *cp, *cp, *cp
	resliced.State = cp.State[:len(cp.State)-1]
	cloned.Agg = bytes.Clone(cp.Agg)
	moved.Cycle++
	byHand := &sim.Checkpoint{Workload: cp.Workload, KernelIndex: cp.KernelIndex, Cycle: cp.Cycle, State: cp.State, Agg: cp.Agg}
	for _, c := range []struct {
		name string
		cp   *sim.Checkpoint
		key  string
	}{
		{"another key", cp, cp.Workload + "|other"},
		{"resliced state", &resliced, cp.Workload},
		{"cloned agg", &cloned, cp.Workload},
		{"another cycle", &moved, cp.Workload},
		{"built by hand", byHand, cp.Workload},
	} {
		got, err := c.cp.Encode(c.key)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if shares(got, data) || !bytes.Equal(got, oldEncoding(t, c.cp, c.key)) {
			t.Fatalf("%s: Encode did not copy into a container of its own", c.name)
		}
		back, err := sim.DecodeCheckpoint(got)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if back.Workload != c.cp.Workload || back.KernelIndex != c.cp.KernelIndex || back.Cycle != c.cp.Cycle ||
			!bytes.Equal(back.State, c.cp.State) || !bytes.Equal(back.Agg, c.cp.Agg) {
			t.Fatalf("%s: decodes to another checkpoint", c.name)
		}
	}

	for _, c := range []*sim.Checkpoint{cp, &resliced, byHand} {
		want := snap.NewWriter()
		want.Bytes(c.Agg)
		want.Bytes(c.State)
		sn := c.Snapshot("stored")
		if sn.Key != "stored" || sn.Kind != snap.KindCheckpoint || sn.Cycle != c.Cycle || !bytes.Equal(sn.State, want.Data()) {
			t.Fatalf("Snapshot is not the envelope around the joined sections")
		}
	}
	return data
}

// TestSealedCheckpointAllocations pins what sealing saves: Encode under
// the sealed key allocates nothing, and one capture (the walk out, the aggregation, the seal) at most a
// quarter more than its state and 1 KiB besides. Before, a capture
// allocated the state twice: once walked, once copied into the
// container.
func TestSealedCheckpointAllocations(t *testing.T) {
	cfg := config.Default().Scale(8) // replay_ckpt's machine
	k := testutil.ThrashKernel("t", 64, 40, 32)
	w := testutil.Workload("thrash", k)
	for _, sc := range engineSchemes(t) {
		t.Run(sc.name, func(t *testing.T) {
			g, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := sc.mk()
			if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 700}}); !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			capture := g.Capturer(w, p)
			cp, err := capture() // warm: sizes the next buffer
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = cp.Encode(w.Name) }); n != 0 {
				t.Fatalf("Encode under the sealed key allocates %v times", n)
			}
			if raceEnabled {
				return // the race runtime adds bytes of its own to the capture
			}
			var before, after runtime.MemStats
			worst := uint64(0)
			for i := 0; i < 8; i++ {
				runtime.ReadMemStats(&before)
				cp, err = capture()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				worst = max(worst, after.TotalAlloc-before.TotalAlloc)
			}
			state := uint64(len(cp.State))
			t.Logf("%s: a capture allocates up to %d bytes for a state of %d", sc.name, worst, state)
			if worst > state+state/4+1024 {
				t.Fatalf("a capture allocated %d bytes, more than 1.25 times its %d-byte state plus 1 KiB", worst, state)
			}
		})
	}
}
