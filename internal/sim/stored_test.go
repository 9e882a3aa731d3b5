package sim_test

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// startCounter counts a policy's kernel starts: a restored kernel does
// not start again and a run the memo answers starts none, so the count
// tells a resumed or remembered run from a simulated one.
type startCounter struct {
	sim.Policy
	starts *int
}

func (s startCounter) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	*s.starts++
	return s.Policy.KernelStart(g, k)
}

// pinnedCounter is startCounter over a tuple-pinned policy, which the
// memo takes part in.
type pinnedCounter struct {
	startCounter
	tp sim.TuplePrefixer
}

func (s pinnedCounter) PrefixTuple(cfg config.Config, k *trace.Kernel) (int, int) {
	return s.tp.PrefixTuple(cfg, k)
}

func counted(p sim.Policy, starts *int) sim.Policy {
	if tp, ok := p.(sim.TuplePrefixer); ok {
		return pinnedCounter{startCounter{p, starts}, tp}
	}
	return startCounter{p, starts}
}

// TestRunStored is Drive's table: what it finds in the store under the
// key and in the memo, what it runs, and what it leaves in both. Every
// completed run equals an uninterrupted RunWorkload.
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
	gto := func() sim.Policy { return sim.GTO{} }
	fixed := func() sim.Policy { return sim.Fixed{N: 2, P: 1} }
	ccws := func() sim.Policy { return sched.NewCCWS(config.PoiseParams{TFeature: 2000}) }
	armed := sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 1 << 40}}

	for _, tc := range []struct {
		name   string
		stored *snap.Snapshot // under key before the run; nil = nothing
		// starts is how many kernels began from their first cycle.
		starts int
		// kept: the stored container is still there afterwards, as it
		// was; otherwise nothing is.
		kept bool

		policy func() sim.Policy // nil = GTO
		opts   sim.RunOptions
		from   *sim.Checkpoint
		// memo: the run has one; primed: it was asked for this run once
		// before. books is the memo's afterwards.
		memo, primed bool
		books        counts
	}{
		{name: "nothing stored", starts: 2},
		{name: "checkpoint resumed and deleted", stored: cp.Snapshot(key), starts: 1},
		{name: "task container left in place", stored: relabel(snap.KindTask), starts: 2, kept: true},
		{name: "boundary container left in place", stored: relabel(snap.KindBoundary), starts: 2, kept: true},
		{name: "undecodable checkpoint consumed", stored: &snap.Snapshot{Kind: snap.KindCheckpoint, Key: key, Workload: w.Name, State: []byte{1, 2, 3}}, starts: 2},
		{name: "unrestorable checkpoint consumed", stored: truncated.Snapshot(key), starts: 2},
		{name: "memo answers a pinned policy's second ask", policy: fixed, memo: true, primed: true, books: counts{2, 2}},
		{name: "memo bypassed by an adaptive policy", policy: ccws, memo: true, starts: 2},
		{name: "memo bypassed by an armed interrupt", opts: armed, memo: true, starts: 2},
		{name: "from checkpoint with a memo resumes", from: cp, memo: true, starts: 1},
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
			mk := tc.policy
			if mk == nil {
				mk = gto
			}
			want, err := sim.RunWorkload(cfg, w, mk(), sim.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var m *sim.RunMemo
			if tc.memo {
				m = sim.NewRunMemo()
			}
			starts, policies := 0, 0
			job := sim.Job{
				Workload: w,
				Policy: func() (sim.Policy, error) {
					policies++
					return counted(mk(), &starts), nil
				},
				Opts: tc.opts, From: tc.from, Memo: m, Store: store, Key: key,
			}
			if tc.primed {
				if _, _, err := sim.Drive(cfg, job); err != nil {
					t.Fatal(err)
				}
				starts = 0
			}
			got, _, err := sim.Drive(cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			if tc.memo && (booksOf(m) != tc.books || m.Len() != min(1, int(tc.books.Simulated))) {
				t.Errorf("memo books %+v in %d entries, want %+v", booksOf(m), m.Len(), tc.books)
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
	job := sim.Job{
		Workload: w,
		Policy:   func() (sim.Policy, error) { return sim.GTO{}, nil },
		Opts:     sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: mid.AtCycle}},
		Store:    store,
		Key:      key,
	}
	_, _, err = sim.Drive(cfg, job)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("interrupted Drive: %v", err)
	}
	if sn, err := store.Load(key); err != nil || sn.Kind != snap.KindCheckpoint || sn.KernelIndex != 0 {
		t.Fatalf("the interrupted run saved %+v, load: %v", sn, err)
	}
	job.Opts = sim.RunOptions{}
	got, _, err := sim.Drive(cfg, job)
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("the resumed run: %v, equal to an uninterrupted one: %v", err, reflect.DeepEqual(want, got))
	}
	if _, err := store.Load(key); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the resumed run left its checkpoint: %v", err)
	}
}
