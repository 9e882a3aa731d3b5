package sim_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
)

// FuzzResumeKernel drives ResumeKernel with arbitrary kernel states: a
// state that passes every checksum is still input, and the GPU state
// decoder must refuse what it cannot run rather than panic, allocate
// what the payload cannot back, or hand the cycle loop an index it
// trusts without looking. The seeds are SnapshotKernel payloads under
// GTO, CCWS (victim tags attached), APCM, PCAL-SWL, random-restart and
// Poise; the fuzzer also pairs a state with another policy than the one
// it was taken under. A resume runs to an interrupt a few thousand
// cycles after the state's own cycle and may end in any error, in
// ErrInterrupted, or, on a state whose kernel drains first, without
// one; it may not panic, and its allocations are bounded by a fixed
// amount plus an amount per input byte.
func FuzzResumeKernel(f *testing.F) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("fuzz", 64, 40, 4)
	w, ok := poise.DefaultWeights()
	if !ok {
		f.Skip("no embedded default weights in this build")
	}
	policies := []func() sim.Policy{
		func() sim.Policy { return sim.GTO{} },
		func() sim.Policy { return sched.NewCCWS(config.PoiseParams{TFeature: 500}) },
		func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 500}) },
		func() sim.Policy {
			return sched.NewPCALSWL(sched.TupleSource{}, config.PoiseParams{TWarmup: 100, TFeature: 400, TPeriod: 5000})
		},
		func() sim.Policy { return sched.NewRandomRestart(7, rrParams) },
		func() sim.Policy { return poise.NewPolicy(testutil.TinyParams(), w) },
	}
	const ahead = 3000 // cycles a resume runs before its interrupt
	// resume restores state onto a new GPU and runs it to its interrupt,
	// returning what the resume allocated and its verdict.
	resume := func(which uint8, state []byte) (uint64, error) {
		g, err := sim.New(cfg)
		if err != nil {
			panic(err)
		}
		p := policies[int(which)%len(policies)]()
		r := snap.NewReader(state)
		r.Uvarint() // the state version, then the cycle the state was taken at
		at := min(max(r.Varint(), 0), math.MaxInt64-ahead) + ahead
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = g.ResumeKernel(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: at}}, state)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	for i, mk := range policies {
		g, err := sim.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		p := mk()
		if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: 2000}}); !errors.Is(err, sim.ErrInterrupted) {
			f.Fatalf("%s: want ErrInterrupted, got %v", p.Name(), err)
		}
		state, err := g.SnapshotKernel(p)
		if err != nil {
			f.Fatal(err)
		}
		alloc, err := resume(uint8(i), state)
		if !errors.Is(err, sim.ErrInterrupted) {
			f.Fatalf("%s: the seed resumes to %v, want ErrInterrupted", p.Name(), err)
		}
		f.Logf("%s: a %d-byte state resumes allocating %d bytes", p.Name(), len(state), alloc)
		f.Add(uint8(i), state)
	}

	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		alloc, _ := resume(which, state) // must not panic; any verdict will do
		// The run's own few thousand cycles, and what the payload's bytes
		// may size: 64 bytes each covers a map entry of a search cache.
		if limit := uint64(64<<10 + 64*len(state)); alloc > limit {
			t.Fatalf("a %d-byte state allocated %d bytes resuming, more than %d", len(state), alloc, limit)
		}
	})
}
