package sim_test

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// startCounter is GTO counting its kernel starts: a restored kernel does
// not start again, so the count tells a resumed run from a fresh one.
type startCounter struct {
	sim.GTO
	starts *int
}

func (s startCounter) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	*s.starts++
	return s.GTO.KernelStart(g, k)
}

// TestRunStored is the checkpoint protocol's table: what RunStored finds
// under the key, what it runs, and what it leaves. Every completed run
// equals an uninterrupted RunWorkload.
func TestRunStored(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := &sim.Workload{Name: "stored", Kernels: []*trace.Kernel{
		testutil.ThrashKernel("stored#0", 24, 12, 3),
		testutil.ThrashKernel("stored#1", 16, 10, 2),
	}}
	want, err := sim.RunWorkload(cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mid := &sim.InterruptCtl{AtCycle: want.PerKernel[0].Cycles / 2}
	_, cp, err := sim.RunWorkloadPreemptible(cfg, w, sim.GTO{}, sim.RunOptions{Interrupt: mid})
	if !errors.Is(err, sim.ErrInterrupted) || cp == nil {
		t.Fatalf("preempting kernel 0: %v", err)
	}
	const key = "run|stored"
	relabel := func(kind snap.Kind) *snap.Snapshot {
		sn := cp.Snapshot(key)
		sn.Kind = kind
		return sn
	}
	truncated := *cp
	truncated.State = cp.State[:len(cp.State)/2]

	for _, tc := range []struct {
		name   string
		stored *snap.Snapshot // under key before the run; nil = nothing
		// starts is how many kernels began from their first cycle.
		starts int
		// kept: the stored container is still there afterwards, as it
		// was; otherwise nothing is.
		kept bool
	}{
		{"nothing stored", nil, 2, false},
		{"checkpoint resumed and deleted", cp.Snapshot(key), 1, false},
		{"task container left in place", relabel(snap.KindTask), 2, true},
		{"boundary container left in place", relabel(snap.KindBoundary), 2, true},
		{"undecodable checkpoint consumed", &snap.Snapshot{Kind: snap.KindCheckpoint, Key: key, Workload: w.Name, State: []byte{1, 2, 3}}, 2, false},
		{"unrestorable checkpoint consumed", truncated.Snapshot(key), 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := snap.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if tc.stored != nil {
				if err := store.Save(tc.stored); err != nil {
					t.Fatal(err)
				}
			}
			starts, policies := 0, 0
			newPolicy := func() (sim.Policy, error) {
				policies++
				return startCounter{starts: &starts}, nil
			}
			got, err := sim.RunStored(cfg, w, newPolicy, sim.RunOptions{}, store, key)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("stored run diverges from an uninterrupted one:\nwant %+v\ngot  %+v", want, got)
			}
			if starts != tc.starts {
				t.Errorf("%d kernels started from their first cycle, want %d (%d policies built)", starts, tc.starts, policies)
			}
			sn, err := store.Load(key)
			switch {
			case !tc.kept && !errors.Is(err, os.ErrNotExist):
				t.Errorf("the completed run left a container under its key (load: %v)", err)
			case tc.kept && (err != nil || !reflect.DeepEqual(sn, tc.stored)):
				t.Errorf("the stored container was not left as it was (load: %v)", err)
			}
		})
	}

	// Interrupted, the run saves its checkpoint; the next run resumes it,
	// finishes identically and deletes it.
	store, err := snap.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gto := func() (sim.Policy, error) { return sim.GTO{}, nil }
	_, err = sim.RunStored(cfg, w, gto, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: mid.AtCycle}}, store, key)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("interrupted RunStored: %v", err)
	}
	if sn, err := store.Load(key); err != nil || sn.Kind != snap.KindCheckpoint || sn.KernelIndex != 0 {
		t.Fatalf("the interrupted run saved %+v, load: %v", sn, err)
	}
	got, err := sim.RunStored(cfg, w, gto, sim.RunOptions{}, store, key)
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("the resumed run: %v, equal to an uninterrupted one: %v", err, reflect.DeepEqual(want, got))
	}
	if _, err := store.Load(key); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the resumed run left its checkpoint: %v", err)
	}
}
