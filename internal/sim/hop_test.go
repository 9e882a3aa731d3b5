package sim_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// firstKernel cuts a catalogue workload down to its first kernel.
func firstKernel(w *sim.Workload) *sim.Workload {
	return &sim.Workload{Name: w.Name, Kernels: w.Kernels[:1], MemorySensitive: w.MemorySensitive}
}

// due is an interrupt control that fires on the first visited cycle.
func due() *sim.InterruptCtl { return &sim.InterruptCtl{AtCycle: 1} }

// TestParentCheckpointBytesIdentical: the checkpoint container in
// testdata was written by the commit before the hop was rebuilt (PR 16,
// 891ed3d; see the generator's description in CHANGES.md): ii's first
// kernel under Poise on the tiny machine, interrupted at a cycle where
// both MSHR files are full, fills in flight and replayers parked.
// Decoded, resumed with the interrupt already due and encoded again it
// must be the same bytes — so this commit's encoders write what the
// parent's wrote for the same GPU — and resumed to completion it must
// give the uninterrupted result.
func TestParentCheckpointBytesIdentical(t *testing.T) {
	gz, err := os.ReadFile("testdata/pr16_ii_poise.checkpoint.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.TinyConfig()
	w := firstKernel(workloads.NewCatalogue(workloads.Small).Must("ii"))
	mk := func() sim.Policy { return mustPoise(t) }

	for name, data := range map[string][]byte{"gzip": gz, "raw": raw} {
		cp, err := sim.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: DecodeCheckpoint: %v", name, err)
		}
		_, next, err := sim.ResumeWorkload(cfg, w, mk(), sim.RunOptions{Interrupt: due()}, cp)
		if !errors.Is(err, sim.ErrInterrupted) || next == nil {
			t.Fatalf("%s: want ErrInterrupted and a checkpoint, got %v", name, err)
		}
		again, err := next.Encode("pr16")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("%s: re-encoded container differs from the parent's (%d bytes, parent %d)", name, len(again), len(raw))
		}
	}

	cp, err := sim.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must be what it is described as.
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ResumeKernel(w.Kernels[0], mk(), sim.RunOptions{Interrupt: due()}, cp.State); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	for _, s := range g.SMs {
		if !s.MSHR.Full() || len(s.ReplayQ) == 0 {
			t.Fatalf("SM %d restored with %d of %d MSHRs busy and %d replayers parked", s.ID, s.MSHR.Used(), s.MSHR.Capacity(), len(s.ReplayQ))
		}
	}
	if g.FillsInFlight() != cfg.NumSMs*cfg.L1.MSHRs {
		t.Fatalf("restored with %d fills in flight", g.FillsInFlight())
	}

	base, err := sim.RunWorkload(cfg, w, mk(), sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sim.ResumeWorkload(cfg, w, mk(), sim.RunOptions{}, cp)
	if err != nil {
		t.Fatalf("ResumeWorkload: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("a checkpoint written by the parent commit resumes differently:\n base: %+v\n rest: %+v", base, res)
	}
}

// TestPooledRestoreEqualsFreshRestore is the oracle for restoring in
// place: a GPU that ran another kernel under other policies (victim
// tags attached, bypass tables installed, tuples traced), went back to
// a pool and came out again must, after a restore, be
// reflect.DeepEqual to a GPU that New built for that restore — down to
// which of the slices Reset leaves nil and which it leaves empty — for
// a state taken under every scheme class, and must finish identically.
func TestPooledRestoreEqualsFreshRestore(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("thrash", 64, 40, 4)
	other := testutil.SharedKernel("other", 16, 30, 3)
	pool := sim.FreshPool()
	for _, sc := range engineSchemes(t) {
		t.Run(sc.name, func(t *testing.T) {
			src, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := sc.mk()
			if _, err := src.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 700}}); !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			state, err := src.SnapshotKernel(p)
			if err != nil {
				t.Fatal(err)
			}

			used, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			used.TraceTuples = true
			for _, pol := range []sim.Policy{sched.NewCCWS(config.PoiseParams{TFeature: 200}), sched.NewAPCM(config.PoiseParams{TFeature: 200}), sim.Fixed{N: 3, P: 1}} {
				if _, err := used.Run(other, pol, sim.RunOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			// And once more, left mid-kernel: MSHRs live, fills in flight.
			if _, err := used.Run(k, sim.GTO{}, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 300}}); !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			pool.Put(used)
			pooled, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pooled != used {
				t.Fatal("the pool built a GPU instead of recycling the parked one")
			}
			fresh, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*sim.GPU{pooled, fresh} {
				if _, err := g.ResumeKernel(k, sc.mk(), sim.RunOptions{Interrupt: due()}, state); !errors.Is(err, sim.ErrInterrupted) {
					t.Fatalf("want ErrInterrupted, got %v", err)
				}
			}
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatal("a restore on a recycled GPU differs from a restore on a fresh one")
			}
			// Both then write the state they were given.
			for _, g := range []*sim.GPU{pooled, fresh} {
				pol := sc.mk()
				if _, err := g.ResumeKernel(k, pol, sim.RunOptions{Interrupt: due()}, state); !errors.Is(err, sim.ErrInterrupted) {
					t.Fatalf("want ErrInterrupted, got %v", err)
				}
				again, err := g.SnapshotKernel(pol)
				if err != nil || !bytes.Equal(again, state) {
					t.Fatalf("restore then snapshot is not the identity (err %v)", err)
				}
			}
			a, errA := pooled.ResumeKernel(k, sc.mk(), sim.RunOptions{}, state)
			b, errB := fresh.ResumeKernel(k, sc.mk(), sim.RunOptions{}, state)
			if errA != nil || errB != nil || !reflect.DeepEqual(a, b) || !reflect.DeepEqual(schedTallies(pooled), schedTallies(fresh)) {
				t.Fatalf("recycled and fresh GPU finish differently (%v, %v)", errA, errB)
			}
			pool.Put(pooled)
		})
	}
}

// TestHopAllocationBudget: one warmed hop — Checkpoint.Encode,
// DecodeCheckpoint, ResumeWorkload up to the next checkpoint — allocates
// no more than three times the state it moves: the state buffer, the
// container, and what the aggregation, the policy and the result need.
// It allocated eight times the state when every hop built a GPU, cloned
// the container and joined the state twice. The last case is
// replay_ckpt's machine from BenchmarkHop's cycle on, whose full L2
// fills most of its state: a walk that reserved room past the buffer
// its state was sized for would grow it there.
func TestHopAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	tiny := testutil.TinyConfig()
	small := firstKernel(workloads.NewCatalogue(workloads.Small).Must("ii"))
	for _, sc := range []struct {
		name string
		cfg  config.Config
		w    *sim.Workload
		mk   func() sim.Policy
		from int64 // the cycle of the first checkpoint
	}{
		{"gto", tiny, small, func() sim.Policy { return sim.GTO{} }, 5000},
		{"poise", tiny, small, func() sim.Policy { return mustPoise(t) }, 5000},
		{"poise-8sm-medium", config.Default().Scale(8), firstKernel(workloads.NewCatalogue(workloads.Medium).Must("ii")), func() sim.Policy {
			w, _ := poise.DefaultWeights()
			return poise.NewPolicy(config.DefaultPoise(), w)
		}, 150_000},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const every = 5000
			cfg, w := sc.cfg, sc.w
			_, cp, err := sim.RunWorkloadPreemptible(cfg, w, sc.mk(), sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: sc.from}})
			hop := func() {
				if !errors.Is(err, sim.ErrInterrupted) {
					t.Fatalf("want ErrInterrupted, got %v", err)
				}
				data, eerr := cp.Encode(w.Name)
				if eerr != nil {
					t.Fatal(eerr)
				}
				back, derr := sim.DecodeCheckpoint(data)
				if derr != nil {
					t.Fatal(derr)
				}
				_, cp, err = sim.ResumeWorkload(cfg, w, sc.mk(), sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: back.Cycle + every}}, back)
			}
			for i := 0; i < 8; i++ {
				hop() // warm: the pool holds the GPU, its slices have grown
			}
			var before, after runtime.MemStats
			worst, state := uint64(0), 0
			for i := 0; i < 8; i++ {
				state = len(cp.State)
				runtime.ReadMemStats(&before)
				hop()
				runtime.ReadMemStats(&after)
				worst = max(worst, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%s: a hop allocates up to %d bytes for a state of %d", sc.name, worst, state)
			if worst > 3*uint64(state) {
				t.Fatalf("a hop allocated %d bytes, more than three times its %d-byte state", worst, state)
			}
		})
	}
}

// TestResumeRejectsForeignIndices: a state that passes every checksum
// may still name a warp slot the SM does not have, or stand a warp
// outside its kernel; the fill and issue paths index with both, so
// ResumeKernel has to refuse them (they used to decode cleanly and
// panic cycles later).
func TestResumeRejectsForeignIndices(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("t", 64, 40, 4)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.GTO{}
	if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 40}}); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	s := g.SMs[1]
	if s.MSHR.Full() {
		t.Fatal("the test needs a free MSHR to plant an entry in")
	}
	sch := s.Scheds[0]
	warp := &sch.Slots[sch.OldestActive()]
	const line = 0xdead00
	plant := func(w cache.Waiter) func() {
		return func() { s.MSHR.Allocate(line, g.Now(), true, 0, 0, w) }
	}
	unplant := func() { s.MSHR.Recycle(s.MSHR.Release(line)) }
	slots, body := len(sch.Slots), int32(len(k.Body))
	for _, tc := range []struct {
		name         string
		mutate, undo func()
	}{
		{"MSHR waiter: scheduler", plant(cache.Waiter{Sched: len(s.Scheds)}), unplant},
		{"MSHR waiter: negative scheduler", plant(cache.Waiter{Sched: -1}), unplant},
		{"MSHR waiter: slot", plant(cache.Waiter{Slot: slots}), unplant},
		{"replay waiter: slot", func() { s.ReplayQ = append(s.ReplayQ, cache.Waiter{Slot: -1}) },
			func() { s.ReplayQ = s.ReplayQ[:len(s.ReplayQ)-1] }},
		{"replay waiter: scheduler", func() { s.ReplayQ = append(s.ReplayQ, cache.Waiter{Sched: 1 << 20}) },
			func() { s.ReplayQ = s.ReplayQ[:len(s.ReplayQ)-1] }},
		{"warp: body index past the end", func() { warp.BodyIdx += body }, func() { warp.BodyIdx -= body }},
		{"warp: negative body index", func() { warp.BodyIdx -= body }, func() { warp.BodyIdx += body }},
		{"warp: iteration past the last", func() { warp.Iter += warp.TotalIters + 1 }, func() { warp.Iter -= warp.TotalIters + 1 }},
	} {
		tc.mutate()
		state, err := g.SnapshotKernel(p)
		tc.undo()
		if err != nil {
			t.Fatalf("%s: SnapshotKernel: %v", tc.name, err)
		}
		g2, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g2.ResumeKernel(k, p, sim.RunOptions{}, state); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// With every mutation undone the state is the honest one.
	state, err := g.SnapshotKernel(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := sim.New(cfg)
	if _, err := g2.ResumeKernel(k, p, sim.RunOptions{}, state); err != nil {
		t.Fatalf("well-formed state: %v", err)
	}

	// A policy's tables follow the GPU's shape: Step indexes them by SM
	// and by PC. Each state below is the machine of a run on cfg under
	// the policy, beside the policy state of a run on a GPU of another
	// size (or with the machine mutated, or the policy state left out):
	// it used to decode cleanly and panic at the next Step.
	one, three := config.Default().Scale(1), config.Default().Scale(3)
	for _, tc := range []struct {
		name    string
		mk      func() sim.Policy
		foreign config.Config // where the policy's state comes from
		mutate  func(g *sim.GPU)
		hide    bool // snapshot the policy as a stateless one of its name
	}{
		{"Poise: an HIE engine per SM of three", func() sim.Policy { return mustPoise(t) }, three, nil, false},
		{"APCM: PC tables of one SM", func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 3000}) }, one, nil, false},
		{"APCM: a PC table shorter than its SM's", func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 3000}) }, cfg, func(g *sim.GPU) {
			s := g.SMs[1]
			s.PCLoads, s.PCHits, s.BypassPC = append(s.PCLoads, 0), append(s.PCHits, 0), append(s.BypassPC, false)
		}, false},
		{"APCM: bypass marks shorter than the PC table", func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 3000}) }, cfg, func(g *sim.GPU) {
			g.SMs[1].BypassPC = g.SMs[1].BypassPC[:0]
		}, false},
		{"PCAL-SWL: an IPC window of one SM", func() sim.Policy {
			return sched.NewPCALSWL(sched.TupleSource{}, config.PoiseParams{TWarmup: 100, TFeature: 400, TPeriod: 5000})
		}, one, nil, false},
		{"random-restart: an IPC window of one SM", func() sim.Policy { return sched.NewRandomRestart(7, rrParams) }, one, nil, false},
		{"CCWS: an L1 without victim tags", func() sim.Policy { return sched.NewCCWS(config.PoiseParams{TFeature: 500}) }, cfg, func(g *sim.GPU) {
			g.SMs[1].L1.Reset()
		}, false},
		{"APCM: no policy state", func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 3000}) }, cfg, nil, true},
	} {
		const at = 300 // past every policy's first Step, inside a window
		interrupted := func(cfg config.Config) (*sim.GPU, sim.Policy) {
			g, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := tc.mk()
			if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: at}}); !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("%s: want ErrInterrupted, got %v", tc.name, err)
			}
			return g, p
		}
		resume := func(state []byte, err error) error {
			if err != nil {
				t.Fatalf("%s: SnapshotKernel: %v", tc.name, err)
			}
			g2, _ := sim.New(cfg)
			_, err = g2.ResumeKernel(k, tc.mk(), sim.RunOptions{}, state)
			return err
		}
		g, own := interrupted(cfg)
		if err := resume(g.SnapshotKernel(own)); err != nil {
			t.Fatalf("%s: the run's own state: %v", tc.name, err)
		}
		if tc.mutate != nil {
			tc.mutate(g)
		}
		_, foreign := interrupted(tc.foreign)
		if tc.hide {
			foreign = struct{ sim.Policy }{foreign}
		}
		if resume(g.SnapshotKernel(foreign)) == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestPooledDriversUnderConcurrency: eight goroutines hop their own
// workload through the package-level drivers at once. The race detector
// is what would see two of them on one GPU; every chain must end on the
// uninterrupted result, and neither the drivers' pool nor any other may
// hold more than its bounds.
func TestPooledDriversUnderConcurrency(t *testing.T) {
	cfg := testutil.TinyConfig()
	kernels := []*trace.Kernel{
		testutil.ThrashKernel("thrash", 64, 30, 4),
		testutil.StreamKernel("stream", 60, 4),
		testutil.SharedKernel("shared", 16, 30, 4),
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := testutil.Workload("conc", kernels[i%len(kernels)])
			mk := func() sim.Policy { return sim.Fixed{N: 2 + i%3, P: 1 + i%2} }
			base, err := sim.RunWorkload(cfg, w, mk(), sim.RunOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			const every = 150
			res, cp, err := sim.RunWorkloadPreemptible(cfg, w, mk(), sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: every}})
			for hops := 0; errors.Is(err, sim.ErrInterrupted); hops++ {
				data, eerr := cp.Encode("conc")
				if eerr != nil {
					t.Error(eerr)
					return
				}
				back, derr := sim.DecodeCheckpoint(data)
				if derr != nil {
					t.Error(derr)
					return
				}
				res, cp, err = sim.ResumeWorkload(cfg, w, mk(), sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: back.Cycle + every}}, back)
			}
			if err != nil || !reflect.DeepEqual(base, res) {
				t.Errorf("goroutine %d: chain ends on %v, results equal %v", i, err, reflect.DeepEqual(base, res))
			}
		}(i)
	}
	wg.Wait()
	if idle := sim.Drivers().Idle(cfg); idle < 1 || idle > 8 || idle > sim.MaxIdle {
		t.Fatalf("the drivers' pool parks %d GPUs after 8 goroutines", idle)
	}

	// The bounds themselves.
	pool := sim.FreshPool()
	var out []*sim.GPU
	for i := 0; i < sim.MaxIdle+3; i++ {
		g, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	for _, g := range out {
		pool.Put(g)
	}
	if pool.Idle(cfg) != sim.MaxIdle {
		t.Fatalf("a pool handed %d GPUs parks %d, want %d", len(out), pool.Idle(cfg), sim.MaxIdle)
	}
	for i := 0; i < 2*sim.MaxPools+1; i++ {
		c := cfg
		c.L1HitLatency += i
		g, err := pool.Get(c)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(g)
		if pool.Configs() > sim.MaxPools {
			t.Fatalf("the pool holds free lists for %d configurations, bound %d", pool.Configs(), sim.MaxPools)
		}
	}
}

// BenchmarkHop is one checkpoint hop on replay_ckpt's machine: each op
// restores a Poise state of ii's first kernel at Medium on 8 SMs, taken
// at cycle 150 000, onto a pooled GPU and walks it out again. It reports
// the state's size beside ns/op and B/op; the end-to-end effect of the
// walk is replay_ckpt's wall_s.
func BenchmarkHop(b *testing.B) {
	cfg := config.Default().Scale(8)
	k := workloads.NewCatalogue(workloads.Medium).Must("ii").Kernels[0]
	w, ok := poise.DefaultWeights()
	if !ok {
		b.Skip("no embedded default weights in this build")
	}
	g, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := poise.NewPolicy(config.DefaultPoise(), w)
	if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 150_000}}); !errors.Is(err, sim.ErrInterrupted) {
		b.Fatalf("want ErrInterrupted, got %v", err)
	}
	state, err := g.SnapshotKernel(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ResumeKernel(k, p, sim.RunOptions{Interrupt: due()}, state); !errors.Is(err, sim.ErrInterrupted) {
			b.Fatalf("want ErrInterrupted, got %v", err)
		}
		if _, err := g.SnapshotKernel(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(state)), "state-bytes")
}
