package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// These tests pin issue bursts: a scheduler that enters a run of
// independent ALU instructions has the whole run applied at once, and
// nothing may ever see the part that is not due yet. EngineDense never
// bursts, so it is the oracle.

// churnPolicy steps every few cycles and sets a random tuple on every
// SM, so settles land at every offset inside bursts and the greedy warp
// loses its vital bit mid-run. Its only randomness is its seed: two
// instances built alike take the same decisions as long as the engines
// under them agree.
type churnPolicy struct{ rng *rand.Rand }

func newChurn(seed int64) *churnPolicy { return &churnPolicy{rng: rand.New(rand.NewSource(seed))} }

func (c *churnPolicy) Name() string { return "churn" }
func (c *churnPolicy) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	return 1 + int64(c.rng.Intn(9))
}
func (c *churnPolicy) Step(g *sim.GPU, now int64) int64 {
	for i := range g.SMs {
		n := 1 + c.rng.Intn(g.MaxN())
		g.SetTuple(i, n, 1+c.rng.Intn(n))
	}
	return now + 1 + int64(c.rng.Intn(9))
}

// burstProbe is an address pattern that looks at the GPU from inside a
// visit, the one place a burst in flight can be seen, and checks the
// calendar's books while it is there.
type burstProbe struct {
	trace.Pattern
	t        *testing.T
	g        **sim.GPU
	seen     *int // bursts in flight, summed over every look
	together *int // the most bursts found filed under one cycle
}

func (p burstProbe) Addr(c trace.Ctx, seq int) uint64 {
	if g := *p.g; g != nil {
		*p.seen += g.BurstsInFlight()
		together, err := g.CheckBurstBooks()
		if err != nil {
			p.t.Fatal(err)
		}
		*p.together = max(*p.together, together)
	}
	return p.Pattern.Addr(c, seq)
}

// randomBody strings together the shapes bursts have to get right:
// independent-ALU runs of length 0, 1, 2 and long, DepALU chains, loads
// whose dependent use falls inside and beyond the run that follows,
// and stores. Slot 0 hits in L1, slot 1 streams.
func randomBody(rng *rand.Rand) []trace.Instr {
	var body []trace.Instr
	alu := func(n int) {
		for ; n > 0; n-- {
			body = append(body, trace.Instr{Kind: trace.OpALU})
		}
	}
	for seg := 1 + rng.Intn(6); seg > 0; seg-- {
		switch rng.Intn(6) {
		case 0:
			alu(rng.Intn(4)) // 0, 1, 2, 3
		case 1:
			alu(5 + rng.Intn(70))
		case 2:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				body = append(body, trace.Instr{Kind: trace.OpALU, DepALU: true})
			}
		case 3: // use inside the run behind the load
			body = append(body, trace.Instr{Kind: trace.OpLoad, Slot: rng.Intn(2), UseDist: rng.Intn(6)})
			alu(8 + rng.Intn(20))
		case 4: // use beyond it, possibly in the next iteration
			body = append(body, trace.Instr{Kind: trace.OpLoad, Slot: rng.Intn(2), UseDist: 10 + rng.Intn(40)})
			alu(rng.Intn(10))
		case 5:
			body = append(body, trace.Instr{Kind: trace.OpStore, Slot: rng.Intn(2)})
		}
	}
	if len(body) == 0 {
		alu(1)
	}
	return body
}

// loadRun is a load on slot 0 (which hits in L1), used useDist
// instructions later, with a run of independent ALU instructions behind.
func loadRun(useDist, run int) []trace.Instr {
	return append([]trace.Instr{{Kind: trace.OpLoad, UseDist: useDist}}, new(trace.BodyBuilder).ALU(run).Body()...)
}

func TestIssueBurstsMatchDense(t *testing.T) {
	fixed := map[string][]trace.Instr{
		"one-alu":   {{Kind: trace.OpALU}},
		"one-dep":   {{Kind: trace.OpALU, DepALU: true}},
		"one-load":  {{Kind: trace.OpLoad, UseDist: 0}},
		"two-alu":   {{Kind: trace.OpALU}, {Kind: trace.OpALU}},
		"alu-only":  new(trace.BodyBuilder).ALU(40).Body(),
		"run-last":  append([]trace.Instr{{Kind: trace.OpLoad, UseDist: 3}}, new(trace.BodyBuilder).ALU(30).Body()...),
		"run-first": append(new(trace.BodyBuilder).ALU(30).Body(), trace.Instr{Kind: trace.OpLoad, Slot: 1, UseDist: 12}),
		"run-300":   append(new(trace.BodyBuilder).ALU(300).Body(), trace.Instr{Kind: trace.OpLoad, UseDist: 0}), // many bursts long
		"dep-tail":  append(new(trace.BodyBuilder).ALU(20).DepALU(3).ALU(2).Body(), trace.Instr{Kind: trace.OpStore}),
		// A burst that starts behind its load: the use at distance 0 (no
		// burst: the warp cannot issue next cycle), 1 (no room), inside
		// the run and beyond it; a load that ends the body, so the run it
		// starts is the next iteration's; runs of the calendar's length
		// and around it, which end on the slot of the cycle they began in.
		"load0-run":   loadRun(0, 30),
		"load1-run":   loadRun(1, 30),
		"load9-run":   loadRun(9, 30),
		"load-beyond": append(loadRun(50, 30), trace.Instr{Kind: trace.OpStore}),
		"load-last":   append(new(trace.BodyBuilder).ALU(12).Body(), trace.Instr{Kind: trace.OpLoad, UseDist: 2}),
		"load-run-62": append(loadRun(80, 62), trace.Instr{Kind: trace.OpStore}),
		"load-run-63": append(loadRun(80, 63), trace.Instr{Kind: trace.OpStore}),
		"load-run-64": append(loadRun(80, 64), trace.Instr{Kind: trace.OpStore}),
		"load-run-65": append(loadRun(80, 65), trace.Instr{Kind: trace.OpStore}),
		"run-63":      append(new(trace.BodyBuilder).ALU(63).Body(), trace.Instr{Kind: trace.OpStore}),
		"run-130":     append(new(trace.BodyBuilder).ALU(130).Body(), trace.Instr{Kind: trace.OpLoad, UseDist: 5}),
	}
	type tc struct {
		name string
		body []trace.Instr
		seed int64
	}
	var cases []tc
	for name, body := range fixed {
		cases = append(cases, tc{name, body, int64(len(name))})
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 40; i++ {
		cases = append(cases, tc{fmt.Sprintf("random-%d", i), randomBody(rng), int64(100 + i)})
	}
	seen, together := 0, 0 // what the probe caught, over all cases
	for _, c := range cases {
		for _, sms := range []int{1, 2} {
			cfg := testutil.TinyConfig().Scale(sms)
			var live *sim.GPU
			k := &trace.Kernel{
				Name: c.name,
				Body: c.body,
				Patterns: []trace.Pattern{
					burstProbe{trace.PrivateSweep{Region: 930, Lines: 6, Step: 1, Dwell: 2}, t, &live, &seen, &together},
					trace.Stream{Region: 931, WrapLines: 1 << 14},
				},
				Iters:         3 + int(c.seed%5),
				IterJitter:    0.3,
				WarpsPerBlock: 6,
				Blocks:        3 * sms,
				Seed:          c.seed,
			}
			run := func(e sim.Engine, mk func() sim.Policy, opts sim.RunOptions) (sim.KernelResult, [][3]int64, error) {
				g, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				g.TraceTuples = true
				live = nil
				if e == sim.EngineReady {
					live = g
				}
				opts.Engine = e
				res, err := g.Run(k, mk(), opts)
				return res, schedTallies(g), err
			}
			policies := map[string]func() sim.Policy{
				"gto":   func() sim.Policy { return sim.GTO{} },
				"churn": func() sim.Policy { return newChurn(c.seed) },
			}
			// A cycle cap inside the kernel: the error path must keep what
			// the dense engine had issued by then.
			for _, opts := range []sim.RunOptions{{}, {MaxCycles: 37}} {
				for pname, mk := range policies {
					dRes, dTally, dErr := run(sim.EngineDense, mk, opts)
					rRes, rTally, rErr := run(sim.EngineReady, mk, opts)
					id := fmt.Sprintf("%s on %d SMs under %s with %+v", c.name, sms, pname, opts)
					if fmt.Sprint(dErr) != fmt.Sprint(rErr) {
						t.Fatalf("%s: dense says %v, ready says %v", id, dErr, rErr)
					}
					if !reflect.DeepEqual(dRes, rRes) {
						t.Fatalf("%s: results diverge\n dense: %+v\n ready: %+v\n body: %+v", id, dRes, rRes, c.body)
					}
					if !reflect.DeepEqual(dTally, rTally) {
						t.Fatalf("%s: per-scheduler tallies diverge\n dense: %v\n ready: %v\n body: %+v", id, dTally, rTally, c.body)
					}
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no load ever issued beside a burst in flight: bursts have stopped firing")
	}
	if together < 2 {
		t.Fatal("no two schedulers ever had bursts ending on the same cycle")
	}
}

// busyKernel keeps every scheduler issuing nearly every cycle: a load
// that hits in L1 once its few lines are in, used four instructions
// later, then a run of 64 independent ALU instructions.
func busyKernel() *trace.Kernel {
	b := &trace.BodyBuilder{}
	b.Load(4)
	b.ALU(64)
	return &trace.Kernel{
		Name:          "busy",
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.PrivateSweep{Region: 940, Lines: 2, Step: 1, Dwell: 4}},
		Iters:         14,
		WarpsPerBlock: 8,
		Blocks:        6,
		Seed:          14,
	}
}

// hopTo resumes state on a fresh GPU, stops at the first visited cycle
// at or after at, and returns the state written there.
func hopTo(t *testing.T, cfg config.Config, k *trace.Kernel, p sim.Policy, state []byte, at int64) ([]byte, int64) {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.ResumeKernel(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: at}}, state)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("hop to cycle %d: %v", at, err)
	}
	out, err := g.SnapshotKernel(p)
	if err != nil {
		t.Fatal(err)
	}
	return out, g.Now()
}

// TestSnapshotBytesIgnoreBurstBoundaries: burstEnd is never written, so
// the state an interrupt leaves at cycle c must not depend on where the
// bursts in flight began. One run is interrupted once, at c, with
// bursts of up to 64 instructions under way; the other stops, snapshots
// and resumes on a fresh GPU at every cycle of the K before c, so no
// burst it starts outlives its first cycle. Both states are compared
// as a fresh GPU re-writes them (decoding drops L1 hits that have
// returned, which a running warp keeps until its next rebuild).
func TestSnapshotBytesIgnoreBurstBoundaries(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := busyKernel()
	const K = 80 // longer than the kernel's 64-instruction run
	policies := map[string]func() sim.Policy{
		"gto":    func() sim.Policy { return sim.GTO{} },
		"random": func() sim.Policy { return sched.NewRandomRestart(7, rrParams) },
	}
	for name, mk := range policies {
		for _, c := range []int64{1000, 4321, 9000} {
			interruptAt := func(at int64) ([]byte, int64) {
				g, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := mk()
				if _, err := g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: at}}); !errors.Is(err, sim.ErrInterrupted) {
					t.Fatalf("%s: interrupt at cycle %d: %v", name, at, err)
				}
				state, err := g.SnapshotKernel(p)
				if err != nil {
					t.Fatal(err)
				}
				return state, g.Now()
			}
			once, onceAt := interruptAt(c)
			hopped, now := interruptAt(c - K)
			hops := 0
			for now < c {
				hopped, now = hopTo(t, cfg, k, mk(), hopped, now+1)
				hops++
			}
			if now != onceAt || hops < K/2 {
				t.Fatalf("%s: %d hops reached cycle %d, the single interrupt cycle %d", name, hops, now, onceAt)
			}
			canonOnce, _ := hopTo(t, cfg, k, mk(), once, onceAt)
			canonHopped, _ := hopTo(t, cfg, k, mk(), hopped, now)
			if !bytes.Equal(canonOnce, canonHopped) {
				t.Fatalf("%s: state at cycle %d differs between one interrupt (%d bytes) and %d hops (%d bytes)",
					name, c, len(canonOnce), hops, len(canonHopped))
			}
		}
	}
}

// triggerPolicy fires an InterruptCtl from inside Step, so the run
// stops at the top of the next cycle — with the bursts its schedulers
// began in this one in flight.
type triggerPolicy struct {
	ic *sim.InterruptCtl // nil: never fires
	at int64
}

func (p *triggerPolicy) Name() string { return "trigger" }
func (p *triggerPolicy) KernelStart(g *sim.GPU, k *trace.Kernel) int64 {
	return 50
}
func (p *triggerPolicy) Step(g *sim.GPU, now int64) int64 {
	if p.ic != nil && now >= p.at {
		p.ic.Trigger()
	}
	return now + 50
}

// TestIssueBurstsSurviveAsyncInterrupt: Trigger (not AtCycle) landing
// while bursts are in flight leaves a state that resumes to the
// uninterrupted result.
func TestIssueBurstsSurviveAsyncInterrupt(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := busyKernel()
	base, baseTally := runKernelBaseline(t, cfg, k, &triggerPolicy{}, sim.RunOptions{})
	for _, at := range []int64{1000, 5050, 9000} {
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.TraceTuples = true
		ic := &sim.InterruptCtl{}
		p := &triggerPolicy{ic: ic, at: at}
		if _, err := g.Run(k, p, sim.RunOptions{Interrupt: ic}); !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("trigger at cycle %d: %v", at, err)
		}
		if g.Now() != at+1 {
			t.Fatalf("triggered in the step of cycle %d, stopped at cycle %d", at, g.Now())
		}
		state, err := g.SnapshotKernel(p)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g2.ResumeKernel(k, &triggerPolicy{}, sim.RunOptions{}, state)
		if err != nil {
			t.Fatalf("resume from cycle %d: %v", at+1, err)
		}
		if !reflect.DeepEqual(base, res) || !reflect.DeepEqual(baseTally, schedTallies(g2)) {
			t.Fatalf("resume from cycle %d diverges:\n base: %+v\n rest: %+v", at+1, base, res)
		}
	}
}
