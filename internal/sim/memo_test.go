package sim_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"poise/internal/config"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

func prefixWorkload() *sim.Workload {
	return testutil.Workload("multi",
		testutil.ThrashKernel("k0", 64, 40, 4),
		testutil.StreamKernel("k1", 60, 4),
		testutil.ComputeKernel("k2", 40, 4),
	)
}

// runCached runs w under p through Drive with the memo m, as a harness
// cell does.
func runCached(cfg config.Config, w *sim.Workload, p sim.Policy, opts sim.RunOptions, m *sim.RunMemo) (sim.WorkloadResult, error) {
	res, _, err := sim.Drive(cfg, sim.Job{Workload: w, Policy: func() (sim.Policy, error) { return p, nil }, Opts: opts, Memo: m})
	return res, err
}

// counts is the memo's books in one comparable value.
type counts struct{ Reused, Simulated int64 }

func booksOf(m *sim.RunMemo) counts {
	return counts{m.Reused.Load(), m.Simulated.Load()}
}

// TestPrefixCacheBitIdentical proves the memo invisible to results: a
// cold run that fills it, a repeat answered from memory and a different
// policy that pins the same tuples all reproduce the unmemoised
// WorkloadResult.
func TestPrefixCacheBitIdentical(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := prefixWorkload()
	base, err := sim.RunWorkload(cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	m := sim.NewRunMemo()
	cold, err := runCached(cfg, w, sim.GTO{}, sim.RunOptions{}, m)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !reflect.DeepEqual(base, cold) {
		t.Fatalf("cold run diverges:\n base: %+v\n cold: %+v", base, cold)
	}
	if got, want := booksOf(m), (counts{0, 3}); got != want {
		t.Fatalf("cold run: books %+v, want %+v", got, want)
	}

	again, err := runCached(cfg, w, sim.GTO{}, sim.RunOptions{}, m)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("run answered from memory diverges:\n base: %+v\n again: %+v", base, again)
	}
	if got, want := booksOf(m), (counts{3, 3}); got != want {
		t.Fatalf("repeat: books %+v, want %+v (nothing simulated)", got, want)
	}
	if got := m.CyclesSaved.Load(); got != base.Cycles {
		t.Fatalf("repeat saved %d cycles, want %d", got, base.Cycles)
	}

	// Fixed{} resolves to the same full-concurrency tuples as GTO, so it
	// is the same run — but the answer must carry Fixed's own labels and
	// match Fixed's unmemoised baseline.
	fixed := sim.Fixed{PolicyName: "swl"}
	fbase, err := sim.RunWorkload(cfg, w, fixed, sim.RunOptions{})
	if err != nil {
		t.Fatalf("fixed baseline: %v", err)
	}
	fwarm, err := runCached(cfg, w, fixed, sim.RunOptions{}, m)
	if err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	if !reflect.DeepEqual(fbase, fwarm) {
		t.Fatalf("cross-policy answer diverges:\n base: %+v\n warm: %+v", fbase, fwarm)
	}
	if fwarm.Policy != "swl" || fwarm.Workload != "multi" {
		t.Fatalf("labels wrong: policy=%q workload=%q", fwarm.Policy, fwarm.Workload)
	}
	if got := m.Simulated.Load(); got != 3 {
		t.Fatalf("cross-policy run simulated: Simulated = %d, want 3", got)
	}
}

// TestPrefixCachePassthrough pins who takes part: a single-kernel
// workload does (the fallback that kept it out is gone), while adaptive
// policies (their run is no function of a tuple sequence) and runs with
// an interrupt control armed never touch the memo — no entry, no count
// — whatever it already holds.
func TestPrefixCachePassthrough(t *testing.T) {
	cfg := testutil.TinyConfig()
	m := sim.NewRunMemo()
	w := prefixWorkload()
	untouched := func(step string) {
		t.Helper()
		if m.Len() != 0 || booksOf(m) != (counts{}) || m.CyclesSaved.Load() != 0 {
			t.Fatalf("%s touched the memo: %d entries, books %+v", step, m.Len(), booksOf(m))
		}
	}

	base, err := sim.RunWorkload(cfg, w, sched.NewCCWS(2000), sim.RunOptions{})
	if err != nil {
		t.Fatalf("ccws baseline: %v", err)
	}
	res, err := runCached(cfg, w, sched.NewCCWS(2000), sim.RunOptions{}, m)
	if err != nil {
		t.Fatalf("ccws run: %v", err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("ccws passthrough diverges")
	}
	untouched("an adaptive policy")

	armed := sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 1 << 40}}
	if _, err := runCached(cfg, w, sim.GTO{}, armed, m); err != nil {
		t.Fatalf("interruptible run: %v", err)
	}
	untouched("an interrupt-armed run")

	single := testutil.Workload("one", testutil.ComputeKernel("k", 40, 4))
	sbase, err := sim.RunWorkload(cfg, single, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatalf("single-kernel baseline: %v", err)
	}
	for i, want := range []counts{{0, 1}, {1, 1}} {
		got, err := runCached(cfg, single, sim.GTO{}, sim.RunOptions{}, m)
		if err != nil {
			t.Fatalf("single-kernel run %d: %v", i, err)
		}
		if !reflect.DeepEqual(sbase, got) {
			t.Fatalf("single-kernel run %d diverges", i)
		}
		if b := booksOf(m); b != want {
			t.Fatalf("single-kernel run %d: books %+v, want %+v", i, b, want)
		}
	}

	// With its answer in memory, the armed run and the adaptive one
	// still simulate for themselves.
	before := booksOf(m)
	if _, err := runCached(cfg, single, sim.GTO{}, armed, m); err != nil {
		t.Fatalf("interruptible run over a held key: %v", err)
	}
	if _, err := runCached(cfg, single, sched.NewCCWS(2000), sim.RunOptions{}, m); err != nil {
		t.Fatalf("ccws run beside a held key: %v", err)
	}
	if booksOf(m) != before || m.Len() != 1 {
		t.Fatalf("bypassing runs moved the books: %+v -> %+v, %d entries", before, booksOf(m), m.Len())
	}
}

// TestRunMemoSweepPointIsAOneKernelCell is the identity the scheme grid
// rests on: a sweep point — a cold kernel under Fixed{N, P} — and a
// one-kernel workload under any policy pinning that tuple are one run.
// Whichever comes first, the other is answered from it, each in its own
// shape and under its own labels, equal to simulating it.
func TestRunMemoSweepPointIsAOneKernelCell(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("k0", 64, 40, 4)
	w := testutil.Workload("app", k)
	point := sim.Fixed{N: 3, P: 2}
	cell := sim.Fixed{PolicyName: "Static-Best", PerKernel: map[string][2]int{"k0": {3, 2}}}

	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPoint, err := g.Run(k, point, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCell, err := sim.RunWorkload(cfg, w, cell, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, pointFirst := range []bool{true, false} {
		m := sim.NewRunMemo()
		askPoint := func() {
			t.Helper()
			// Alternate between a digest in hand and none: one key.
			digest := ""
			if pointFirst {
				digest = trace.KernelDigest(k)
			}
			res, _, err := sim.Drive(cfg, sim.Job{
				Workload: testutil.Workload(k.Name, k),
				Policy:   func() (sim.Policy, error) { return point, nil },
				Memo:     m,
				Digest:   digest,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.PerKernel[0]; !reflect.DeepEqual(wantPoint, got) {
				t.Fatalf("point (first=%v) diverges:\n want %+v\n  got %+v", pointFirst, wantPoint, got)
			}
		}
		askCell := func() {
			t.Helper()
			got, err := runCached(cfg, w, cell, sim.RunOptions{}, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantCell, got) {
				t.Fatalf("cell (point first=%v) diverges:\n want %+v\n  got %+v", pointFirst, wantCell, got)
			}
		}
		if pointFirst {
			askPoint()
			askCell()
		} else {
			askCell()
			askPoint()
		}
		if got, want := booksOf(m), (counts{1, 1}); got != want || m.Len() != 1 {
			t.Fatalf("point first=%v: books %+v (%d entries), want %+v in one entry", pointFirst, got, m.Len(), want)
		}
	}
}

// TestRunMemoHitsAreCopies: whatever a caller does to the slices of a
// result it got — the simulating caller included — later answers do
// not change.
func TestRunMemoHitsAreCopies(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := prefixWorkload()
	want, err := sim.RunWorkload(cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewRunMemo()
	for round := 0; round < 3; round++ {
		res, err := runCached(cfg, w, sim.GTO{}, sim.RunOptions{}, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("round %d: answer changed after an earlier caller edited its copy", round)
		}
		res.PerKernel[0].PerSM[0].Instructions = -1
		res.PerKernel[0].PerSM[1] = res.PerKernel[0].PerSM[0]
		res.PerKernel[1] = sim.KernelResult{Kernel: "scribble"}
		res.PerKernel = res.PerKernel[:1]
	}
	if m.Len() != 1 {
		t.Fatalf("%d entries, want 1", m.Len())
	}
}

// TestRunMemoSingleFlight: eight goroutines asking for one key cause
// one simulation and get eight equal answers.
func TestRunMemoSingleFlight(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := prefixWorkload()
	want, err := sim.RunWorkload(cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewRunMemo()
	const askers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := runCached(cfg, w, sim.GTO{}, sim.RunOptions{}, m)
			if err != nil {
				t.Errorf("asker %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("asker %d got a different result", i)
			}
			got.PerKernel[0].PerSM[0].Instructions = int64(-1 - i) // each owns its copy: no race
		}()
	}
	close(start)
	wg.Wait()
	kernels := int64(len(w.Kernels))
	if got, want := booksOf(m), (counts{(askers - 1) * kernels, kernels}); got != want {
		t.Fatalf("books %+v, want %+v (one simulation of %d kernels)", got, want, kernels)
	}
}

// TestRunMemoForgetsFailures: a run that fails is not remembered, and
// an interrupted one never reaches the memo, so the next asker
// simulates for itself.
func TestRunMemoForgetsFailures(t *testing.T) {
	cfg := testutil.TinyConfig()
	w := prefixWorkload()
	m := sim.NewRunMemo()
	tooShort := sim.RunOptions{MaxCycles: 50}
	for i := int64(1); i <= 2; i++ {
		if _, err := runCached(cfg, w, sim.GTO{}, tooShort, m); err == nil {
			t.Fatalf("attempt %d: a 50-cycle budget did not fail", i)
		}
		if m.Len() != 0 || m.Simulated.Load() != i || m.Reused.Load() != 0 {
			t.Fatalf("attempt %d: failure remembered: %d entries, books %+v", i, m.Len(), booksOf(m))
		}
	}

	stop := sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 100}}
	if _, err := runCached(cfg, w, sim.GTO{}, stop, m); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("armed run: %v, want ErrInterrupted", err)
	}
	if m.Len() != 0 {
		t.Fatalf("interrupted run left %d entries", m.Len())
	}
	want, err := sim.RunWorkload(cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCached(cfg, w, sim.GTO{}, sim.RunOptions{}, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("run after an interrupted one diverges")
	}
}

// TestRunMemoKeysSeparateRunOptions: runs that differ in anything that
// shapes a simulation — cycle budget, engine, configuration, tuple —
// never share an entry; runs that differ only in how the same tuple is
// spelled do.
func TestRunMemoKeysSeparateRunOptions(t *testing.T) {
	cfg := testutil.TinyConfig()
	big := cfg
	big.L1.SizeBytes *= 64
	w := prefixWorkload()
	m := sim.NewRunMemo()
	ask := func(name string, cfg config.Config, p sim.Policy, opts sim.RunOptions, wantEntries int) {
		t.Helper()
		got, err := runCached(cfg, w, p, opts, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := sim.RunWorkload(cfg, w, p, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: answer differs from its own simulation", name)
		}
		if m.Len() != wantEntries {
			t.Fatalf("%s: %d entries, want %d", name, m.Len(), wantEntries)
		}
	}
	ask("plain", cfg, sim.GTO{}, sim.RunOptions{}, 1)
	ask("MaxCycles", cfg, sim.GTO{}, sim.RunOptions{MaxCycles: 1 << 30}, 2)
	ask("Engine", cfg, sim.GTO{}, sim.RunOptions{Engine: sim.EngineDense}, 3)
	ask("Pbest config", big, sim.GTO{}, sim.RunOptions{}, 4)
	ask("tuple", cfg, sim.Fixed{N: 2, P: 1}, sim.RunOptions{}, 5)
	// The same tuples by other names: no new entry.
	ask("Fixed{} == GTO", cfg, sim.Fixed{}, sim.RunOptions{}, 5)
	ask("clamped", cfg, sim.Fixed{N: 2, P: -3, PolicyName: "x"}, sim.RunOptions{}, 6) // p <= 0 means p = N
	ask("p > N clamps", cfg, sim.Fixed{N: 2, P: 9}, sim.RunOptions{}, 6)
}

// TestRunMemoIsBounded: past its cap the memo forgets oldest first and
// keeps answering correctly.
func TestRunMemoIsBounded(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ComputeKernel("k", 20, 2)
	w := testutil.Workload("one", k)
	m := sim.NewRunMemo()
	m.SetCap(3)
	for n := 1; n <= 5; n++ {
		if _, err := runCached(cfg, w, sim.Fixed{N: n}, sim.RunOptions{}, m); err != nil {
			t.Fatal(err)
		}
		if m.Len() > 3 {
			t.Fatalf("%d entries after %d runs, cap 3", m.Len(), n)
		}
	}
	// N = 3, 4, 5 are held; 1 was pushed out first.
	for _, c := range []struct {
		n         int
		simulates bool
	}{{5, false}, {3, false}, {1, true}} {
		before := m.Simulated.Load()
		if _, err := runCached(cfg, w, sim.Fixed{N: c.n}, sim.RunOptions{}, m); err != nil {
			t.Fatal(err)
		}
		if got := m.Simulated.Load() != before; got != c.simulates {
			t.Fatalf("N=%d: simulated=%v, want %v", c.n, got, c.simulates)
		}
	}
}
