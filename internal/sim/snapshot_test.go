package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// These tests pin the tentpole guarantee of mid-run snapshots:
// interrupt -> snapshot -> restore on a fresh GPU (and fresh policy
// instance) -> finish produces results reflect.DeepEqual-identical to
// an uninterrupted run — the aggregated KernelResult (which embeds the
// per-SM counters and the tuple log) and the per-scheduler
// issue/stall/idle tallies alike.

// runKernelBaseline runs k uninterrupted and returns everything
// observable.
func runKernelBaseline(t *testing.T, cfg config.Config, k *trace.Kernel, p sim.Policy,
	opts sim.RunOptions) (sim.KernelResult, [][3]int64) {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.TraceTuples = true
	res, err := g.Run(k, p, opts)
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	return res, schedTallies(g)
}

// interruptSnapshotResume interrupts k at cycle at, snapshots, restores
// onto a brand-new GPU with a brand-new policy, finishes, and returns
// the outcome. Returns ok=false when the run finished before the
// interrupt cycle (nothing to test at this point).
func interruptSnapshotResume(t *testing.T, cfg config.Config, k *trace.Kernel,
	mk func() sim.Policy, opts sim.RunOptions, at int64) (sim.KernelResult, [][3]int64, bool) {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.TraceTuples = true
	p := mk()
	io := opts
	io.Interrupt = &sim.InterruptCtl{AtCycle: at}
	_, runErr := g.Run(k, p, io)
	if runErr == nil {
		return sim.KernelResult{}, nil, false
	}
	if !errors.Is(runErr, sim.ErrInterrupted) {
		t.Fatalf("interrupted Run at cycle %d: %v", at, runErr)
	}
	state, err := g.SnapshotKernel(p)
	if err != nil {
		t.Fatalf("SnapshotKernel: %v", err)
	}
	g2, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := g2.ResumeKernel(k, mk(), opts, state)
	if err != nil {
		t.Fatalf("ResumeKernel at cycle %d: %v", at, err)
	}
	return res, schedTallies(g2), true
}

// TestSnapshotRestoreIdentityKernel covers mid-kernel snapshot points
// on the structural kernel classes under every scheme class: early
// (launch-heavy state), middle (steady state) and late (drain, event
// queue nearly empty) interrupt cycles.
func TestSnapshotRestoreIdentityKernel(t *testing.T) {
	cfg := testutil.TinyConfig()
	kernels := []*trace.Kernel{
		testutil.ThrashKernel("thrash", 64, 40, 4),
		testutil.StreamKernel("stream", 60, 4),
		testutil.ComputeKernel("compute", 40, 4),
		testutil.SharedKernel("shared", 16, 40, 4),
	}
	for _, k := range kernels {
		for _, sc := range engineSchemes(t) {
			k, sc := k, sc
			t.Run(fmt.Sprintf("%s/%s", k.Name, sc.name), func(t *testing.T) {
				t.Parallel()
				base, baseTally := runKernelBaseline(t, cfg, k, sc.mk(), sim.RunOptions{})
				if base.Cycles < 4 {
					t.Skipf("kernel too short (%d cycles) to interrupt", base.Cycles)
				}
				for _, at := range []int64{1, base.Cycles / 4, base.Cycles / 2, base.Cycles - 1} {
					if at < 1 {
						continue
					}
					res, tally, ok := interruptSnapshotResume(t, cfg, k, sc.mk, sim.RunOptions{}, at)
					if !ok {
						continue
					}
					if !reflect.DeepEqual(base, res) {
						t.Fatalf("restore at cycle %d diverges:\n base: %+v\n rest: %+v", at, base, res)
					}
					if !reflect.DeepEqual(baseTally, tally) {
						t.Fatalf("restore at cycle %d: per-scheduler counters diverge", at)
					}
				}
			})
		}
	}
}

// preemptChain runs w preemptibly, bouncing the checkpoint through its
// byte encoding (as the fleet does) and through up to chainMax fresh
// "processes" (fresh GPU + fresh policy instance per hop) before
// letting it finish uninterrupted.
func preemptChain(t *testing.T, cfg config.Config, w *sim.Workload, mk func() sim.Policy,
	opts sim.RunOptions, at int64, chainMax int) (sim.WorkloadResult, bool) {
	t.Helper()
	io := opts
	io.Interrupt = &sim.InterruptCtl{AtCycle: at}
	res, cp, err := sim.RunWorkloadPreemptible(cfg, w, mk(), io)
	if err == nil {
		return res, false // never interrupted: nothing to chain
	}
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("RunWorkloadPreemptible: %v", err)
	}
	for hop := 0; ; hop++ {
		if cp == nil {
			t.Fatalf("interrupted without checkpoint")
		}
		data, err := cp.Encode(fmt.Sprintf("chain-%d", hop))
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		cp2, err := sim.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("DecodeCheckpoint: %v", err)
		}
		ro := opts
		if hop+1 < chainMax {
			// Keep preempting later and later into the resumed kernel.
			ro.Interrupt = &sim.InterruptCtl{AtCycle: at + int64(hop+1)*at/2 + 1}
		}
		res, cp, err = sim.ResumeWorkload(cfg, w, mk(), ro, cp2)
		if err == nil {
			return res, true
		}
		if !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("ResumeWorkload hop %d: %v", hop, err)
		}
	}
}

// TestSnapshotRestoreIdentityWorkload proves checkpoint/resume at the
// workload level on catalogue workloads under every scheme class,
// including checkpoints that bounce across multiple hops (as tasks do
// between preemptible fleet workers). Each workload runs on a prefix of
// its kernels (kernelPrefix) unless the test binary gets -full.
func TestSnapshotRestoreIdentityWorkload(t *testing.T) {
	cat := workloads.NewCatalogue(workloads.Small)
	names := []string{"gco", "bfs"}
	if !raceEnabled && !testing.Short() {
		names = append(names, "wc")
	}
	cfg := testutil.TinyConfig()
	for _, name := range names {
		w := kernelPrefix(cat.Must(name))
		for _, sc := range engineSchemes(t) {
			w, sc := w, sc
			t.Run(fmt.Sprintf("%s/%s", name, sc.name), func(t *testing.T) {
				t.Parallel()
				base, err := sim.RunWorkload(cfg, w, sc.mk(), sim.RunOptions{})
				if err != nil {
					t.Fatalf("baseline RunWorkload: %v", err)
				}
				var longest int64
				for _, kr := range base.PerKernel {
					if kr.Cycles > longest {
						longest = kr.Cycles
					}
				}
				if longest < 4 {
					t.Skipf("kernels too short (%d cycles) to interrupt", longest)
				}
				res, chained := preemptChain(t, cfg, w, sc.mk, sim.RunOptions{}, longest/2, 2)
				if !chained {
					t.Logf("%s/%s finished before cycle %d; direct comparison only", name, sc.name, longest/2)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("checkpoint chain diverges:\n base: %+v\n rest: %+v", base, res)
				}
			})
		}
	}
}

// TestSnapshotRejections pins the error paths: dense engine, stale
// kernels, policy mismatches and truncated payloads must all fail
// loudly (never panic, never half-restore silently).
func TestSnapshotRejections(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("t", 64, 40, 4)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.GTO{}
	if _, err := g.Run(k, p, sim.RunOptions{Engine: sim.EngineDense,
		Interrupt: &sim.InterruptCtl{AtCycle: 5}}); err == nil {
		t.Fatalf("dense engine accepted an interrupt control")
	}
	if _, err := g.SnapshotKernel(p); err == nil {
		t.Fatalf("SnapshotKernel succeeded with no interrupted kernel")
	}
	if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 5}}); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	state, err := g.SnapshotKernel(p)
	if err != nil {
		t.Fatalf("SnapshotKernel: %v", err)
	}

	fresh := func() *sim.GPU {
		g2, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g2
	}
	if _, err := fresh().ResumeKernel(k, p, sim.RunOptions{Engine: sim.EngineDense}, state); err == nil {
		t.Fatalf("ResumeKernel accepted the dense engine")
	}
	other := testutil.StreamKernel("other", 60, 4)
	if _, err := fresh().ResumeKernel(other, p, sim.RunOptions{}, state); err == nil {
		t.Fatalf("ResumeKernel accepted a different kernel")
	}
	if _, err := fresh().ResumeKernel(k, sim.Fixed{N: 1, P: 1}, sim.RunOptions{}, state); err == nil {
		t.Fatalf("ResumeKernel accepted a different policy")
	}
	// Every cut of a Poise state with its caches full, MSHRs live and
	// fills in flight is refused, and so are two corrupt line records
	// in it: an 11-byte varint and a valid byte of 2.
	gp := fresh()
	pp := mustPoise(t)
	if _, err := gp.Run(k, pp, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: goldenAt}}); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if gp.FillsInFlight() == 0 || gp.SMs[0].MSHR.Used() == 0 {
		t.Fatal("the Poise state has no fills in flight or no live MSHR entry")
	}
	full, err := gp.SnapshotKernel(pp)
	if err != nil {
		t.Fatal(err)
	}
	for cut := range full {
		if _, err := fresh().ResumeKernel(k, mustPoise(t), sim.RunOptions{}, full[:cut]); err == nil {
			t.Fatalf("ResumeKernel accepted a payload cut to %d of %d bytes", cut, len(full))
		}
	}
	// The first line of the first L2 bank follows the state version, the
	// clock, the two L2 counters, the bank count, the bank's next free
	// cycle and its line count. It is valid: its valid byte, then its tag.
	// Each corruption below leaves every other byte where it was, so a
	// decoder that let it through would restore the state.
	r := snap.NewReader(full)
	r.Uvarint()
	r.Varint()
	r.Varint()
	r.Varint()
	r.Uvarint()
	r.Varint()
	r.Uvarint()
	line := len(full) - r.Len()
	r.Bool()
	r.Uvarint()
	tag := len(full) - r.Len()
	if full[line] != 1 || r.Err() != nil {
		t.Fatalf("the first L2 line is not a valid line (%v)", r.Err())
	}
	for name, bad := range map[string][]byte{
		// The tag's value as 0 in 11 bytes: ten continuation bytes, then 0.
		"an 11-byte tag":    slices.Concat(full[:line+1], bytes.Repeat([]byte{0x80}, 10), []byte{0}, full[tag:]),
		"a valid byte of 2": slices.Concat(full[:line], []byte{2}, full[line+1:]),
	} {
		if _, err := fresh().ResumeKernel(k, mustPoise(t), sim.RunOptions{}, bad); err == nil {
			t.Fatalf("ResumeKernel accepted a line record with %s", name)
		}
	}
	if _, err := fresh().ResumeKernel(k, p, sim.RunOptions{}, append(append([]byte{}, state...), 0)); err == nil {
		t.Fatalf("ResumeKernel accepted trailing bytes")
	}
	// A machine state with no kernel running, which is what a kernel
	// boundary held, is no mid-kernel state.
	if _, err := fresh().ResumeKernel(k, p, sim.RunOptions{}, g.SnapshotMachine()); err == nil ||
		!strings.Contains(err.Error(), "not a mid-kernel state") {
		t.Fatalf("ResumeKernel on a payload with no running kernel: %v", err)
	}
	// Only a workload checkpoint's container decodes as one: the same
	// bytes under a sweep task's kind or a kernel boundary's are refused.
	cp := &sim.Checkpoint{Workload: "w", State: state, Agg: []byte{}}
	for _, kind := range []snap.Kind{snap.KindCheckpoint, snap.KindTask, snap.KindBoundary} {
		sn := cp.Snapshot("key")
		sn.Kind = kind
		data, err := sn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.DecodeCheckpoint(data); (err == nil) != (kind == snap.KindCheckpoint) {
			t.Fatalf("DecodeCheckpoint of a %v container: %v", kind, err)
		}
	}
	// Payloads that break what the fill rings and the packed MSHR file
	// are sized on must be refused — not panic, not be silently
	// trimmed, not grow the rings.
	interrupted := func(c config.Config) *sim.GPU {
		gi, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gi.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 5}}); !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
		return gi
	}
	late := func(n, smID int) [][3]int64 { // n fills for one SM, far enough out to be plausible
		fills := make([][3]int64, n)
		for i := range fills {
			fills[i] = [3]int64{1000 + int64(i), int64(smID), 0x5000 + int64(i)}
		}
		return fills
	}
	mshrs := cfg.L1.MSHRs
	roomy := cfg
	roomy.L1.MSHRs = 2 * mshrs
	hostile := map[string]func() ([]byte, error){
		"more fills for one SM than it has MSHRs": func() ([]byte, error) {
			return interrupted(cfg).SnapshotKernelWithFills(p, cfg.NumSMs, mshrs+1, late(mshrs+1, 1))
		},
		"more fills for one SM than live MSHR entries": func() ([]byte, error) {
			gi := interrupted(cfg)
			return gi.SnapshotKernelWithFills(p, cfg.NumSMs, mshrs, late(gi.SMs[0].MSHR.Used()+1, 0))
		},
		"fill for an SM that does not exist": func() ([]byte, error) {
			return interrupted(cfg).SnapshotKernelWithFills(p, cfg.NumSMs+1, mshrs, late(1, cfg.NumSMs))
		},
		"two MSHR entries for one line": func() ([]byte, error) {
			gi := interrupted(cfg)
			for i := 0; i < 2; i++ {
				if gi.SMs[1].MSHR.Allocate(0xdead, 1, true, 0, 0, cache.Waiter{}) == nil {
					t.Fatal("the MSHR file is already full at the interrupt point")
				}
			}
			return gi.SnapshotKernel(p)
		},
		"more MSHR entries than capacity": func() ([]byte, error) {
			gi := interrupted(roomy)
			for line := uint64(0xbeef); gi.SMs[0].MSHR.Used() <= mshrs; line++ {
				gi.SMs[0].MSHR.Allocate(line, 1, true, 0, 0, cache.Waiter{})
			}
			return gi.SnapshotKernel(p)
		},
	}
	for name, build := range hostile {
		bad, err := build()
		if err != nil {
			t.Fatalf("%s: building the payload: %v", name, err)
		}
		g2 := fresh()
		if _, err := g2.ResumeKernel(k, p, sim.RunOptions{}, bad); err == nil {
			t.Fatalf("ResumeKernel accepted a payload with %s", name)
		}
		if got, want := g2.FillCapacity(), cfg.NumSMs*mshrs; got != want {
			t.Fatalf("%s: the refused payload left %d fill slots, want %d", name, got, want)
		}
	}
	// The helper itself is sound: the same fills within bounds restore.
	gi := interrupted(cfg)
	ok, err := gi.SnapshotKernelWithFills(p, cfg.NumSMs, mshrs, late(gi.SMs[0].MSHR.Used(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh().ResumeKernel(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 6}}, ok); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("a payload with as many fills as live MSHR entries: %v", err)
	}

	// A fired control stays fired: resuming with it must interrupt
	// again immediately rather than loop.
	ic := &sim.InterruptCtl{}
	ic.Trigger()
	if _, err := fresh().ResumeKernel(k, p, sim.RunOptions{Interrupt: ic}, state); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("re-armed fired control: want ErrInterrupted, got %v", err)
	}
}
