package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"poise/internal/cache"
	"poise/internal/config"
	"poise/internal/dram"
	"poise/internal/gridplan"
	"poise/internal/noc"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/serve"
	"poise/internal/sim"
	"poise/internal/sm"
	"poise/internal/snap"
	"poise/internal/trace"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// The layer probes of the traced run. Each drives one layer's public
// functions in a fixed-count loop, fed the workload's own kernels and
// address stream, and reports the layer's cost from outside. They run
// after the timed passes and never feed an end-to-end metric.

// probeScale sets the loop lengths: full for a real run, short for
// the smoke test.
type probeScale struct {
	addrs  int   // addresses per component loop
	reps   int   // repetitions of the millisecond-scale probes
	at     int64 // simulated cycle at which the snapshot probe interrupts
	every  int64 // hop length of the chain probe
	engine int   // applications the engine probe runs
}

func scaleFor(tiny bool) probeScale {
	if tiny {
		return probeScale{addrs: 1 << 12, reps: 3, at: 500, every: 20000, engine: 1}
	}
	return probeScale{addrs: 1 << 16, reps: 9, at: 2000, every: 5000, engine: 1 << 30}
}

// probeSet is what a workload hands the probes: its simulated machine,
// the applications it simulates, the application whose trace it would
// record, and the catalogue size it builds.
type probeSet struct {
	cfg    config.Config
	apps   []*sim.Workload
	traced *sim.Workload
	size   workloads.Size
}

// runProbes returns every per-layer metric a probe supplies.
func runProbes(e *env, ps probeSet) (map[string]float64, error) {
	if len(ps.apps) == 0 {
		return nil, errors.New("no applications to probe with")
	}
	cfg, wls, size := ps.cfg, ps.apps, ps.size
	sc := scaleFor(e.tiny)
	m := map[string]float64{}
	steps := []func() error{
		func() error { return probeEngines(e, cfg, wls[:min(len(wls), sc.engine)], m) },
		func() error { return probeSnapshot(e, cfg, wls[0], sc, m) },
		func() error { return probeChain(e, cfg, wls[0], sc, m) },
		func() error { return probeTraceIO(e, ps.traced, sc, m) },
		func() error { return probePlan(e, cfg, wls, sc, m) },
		func() error { return probeComponents(e, cfg, wls[0].Kernels[0], sc, m) },
		func() error { return probeDeciders(e, cfg, sc, m) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	m["workloads.catalogue_ms"] = timeN(sc.reps, func() {
		sp := e.begin("workloads.NewCatalogueSeeded")
		workloads.NewCatalogueSeeded(size, e.seed)
		sp.end()
	}) / 1e6
	if d := e.tr.durations("sim.GPU.Reset"); len(d) > 0 {
		m["sim.reset_us"] = median(d) / 1e3
	}
	if d := e.tr.durations("sim.New"); len(d) > 0 {
		m["sim.new_ms"] = median(d) / 1e6
	}
	return m, nil
}

func newGPU(e *env, cfg config.Config) (*sim.GPU, error) {
	sp := e.begin("sim.New")
	defer sp.end()
	return sim.New(cfg)
}

// engineRun is one application run kernel by kernel, with the
// scheduler tallies read off the GPU after every kernel.
type engineRun struct {
	ns                 float64
	cycles             int64
	issue, stall, idle int64
	kernels            []sim.KernelResult
	perRun             []float64 // host ns per simulated cycle of each GPU.Run
}

func runKernels(e *env, g *sim.GPU, wl *sim.Workload, pol sim.Policy, engine sim.Engine, tuples bool) (engineRun, error) {
	var r engineRun
	sp := e.begin("sim.GPU.Reset")
	g.Reset()
	sp.end()
	g.TraceTuples = tuples
	for i, k := range wl.Kernels {
		sp := e.begin("sim.GPU.Run")
		t0 := time.Now()
		kr, err := g.Run(k, pol, sim.RunOptions{Warm: i > 0, Engine: engine})
		ns := float64(time.Since(t0))
		sp.count("cycles", float64(kr.Cycles))
		sp.end()
		if err != nil {
			return r, fmt.Errorf("%s/%s under %s: %w", wl.Name, k.Name, pol.Name(), err)
		}
		r.ns += ns
		r.cycles += kr.Cycles
		r.perRun = append(r.perRun, ns/float64(kr.Cycles))
		r.kernels = append(r.kernels, kr)
		for _, s := range g.SMs {
			for _, sch := range s.Scheds {
				r.issue += sch.IssueCycles
				r.stall += sch.StallCycles
				r.idle += sch.IdleCycles
			}
		}
	}
	return r, nil
}

// probeEngines runs every application kernel by kernel under GTO on
// the ready-queue engine, under GTO on the dense reference engine and
// under Poise, and requires ready == dense.
func probeEngines(e *env, cfg config.Config, wls []*sim.Workload, m map[string]float64) error {
	g, err := newGPU(e, cfg)
	if err != nil {
		return err
	}
	var ready, dense, po engineRun
	var perRun []float64
	var changes, predictions float64
	for _, wl := range wls {
		r, err := runKernels(e, g, wl, sim.GTO{}, sim.EngineReady, false)
		if err != nil {
			return err
		}
		d, err := runKernels(e, g, wl, sim.GTO{}, sim.EngineDense, false)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r.kernels, d.kernels) || r.issue != d.issue || r.stall != d.stall || r.idle != d.idle {
			return fmt.Errorf("%s: the ready-queue engine differs from the dense engine", wl.Name)
		}
		p, err := runKernels(e, g, wl, e.poisePolicy(), sim.EngineReady, true)
		if err != nil {
			return err
		}
		for _, kr := range p.kernels {
			for _, ev := range kr.TupleLog {
				if ev.Predicted {
					predictions++
				} else {
					changes++
				}
			}
		}
		for _, acc := range []struct{ sum, add *engineRun }{{&ready, &r}, {&dense, &d}, {&po, &p}} {
			acc.sum.ns += acc.add.ns
			acc.sum.cycles += acc.add.cycles
			acc.sum.issue += acc.add.issue
			acc.sum.stall += acc.add.stall
			acc.sum.idle += acc.add.idle
		}
		perRun = append(append(perRun, r.perRun...), p.perRun...)
	}
	issue := ready.issue + po.issue
	slots := float64(issue + ready.stall + po.stall + ready.idle + po.idle)
	m["sim.run_ns_per_simcycle"] = median(perRun)
	m["sim.dense_over_ready"] = dense.ns / ready.ns
	m["sm.issued"] = float64(issue)
	m["sm.stall_frac"] = float64(ready.stall+po.stall) / slots
	m["sm.idle_frac"] = float64(ready.idle+po.idle) / slots
	m["sm.ns_per_issue"] = (ready.ns + po.ns) / float64(issue)
	m["poise.host_over_gto"] = (po.ns / float64(po.cycles)) / (ready.ns / float64(ready.cycles))
	m["poise.tuple_changes"] = changes
	m["poise.predictions"] = predictions
	return nil
}

// probeSnapshot stops the first kernel mid-run and times the snapshot
// and checkpoint codecs on that state.
func probeSnapshot(e *env, cfg config.Config, wl *sim.Workload, sc probeScale, m map[string]float64) error {
	k := wl.Kernels[0]
	g, err := newGPU(e, cfg)
	if err != nil {
		return err
	}
	pol := sim.GTO{}
	if _, err := g.Run(k, pol, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: sc.at}}); !errors.Is(err, sim.ErrInterrupted) {
		return fmt.Errorf("snapshot probe: %s did not stop at cycle %d: %v", k.Name, sc.at, err)
	}
	var state []byte
	m["sim.snapshot_us"] = timeN(sc.reps, func() {
		sp := e.begin("sim.GPU.SnapshotKernel")
		state, err = g.SnapshotKernel(pol)
		sp.end()
	}) / 1e3
	if err != nil {
		return err
	}
	m["sim.snapshot_bytes"] = float64(len(state))

	// Resuming with the interrupt already due returns right after the
	// restore, so the call times the restore alone.
	g2, err := newGPU(e, cfg)
	if err != nil {
		return err
	}
	at := g.Now()
	m["sim.restore_us"] = timeN(sc.reps, func() {
		sp := e.begin("sim.GPU.ResumeKernel")
		_, err = g2.ResumeKernel(k, pol, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: at}}, state)
		sp.end()
	}) / 1e3
	if !errors.Is(err, sim.ErrInterrupted) {
		return fmt.Errorf("snapshot probe: restore of %s: %v", k.Name, err)
	}

	_, cp, err := sim.RunWorkloadPreemptible(cfg, firstKernelOnly(wl), pol,
		sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: sc.at}})
	if !errors.Is(err, sim.ErrInterrupted) || cp == nil {
		return fmt.Errorf("snapshot probe: no checkpoint of %s: %v", wl.Name, err)
	}
	var data []byte
	encNs := timeN(sc.reps, func() {
		sp := e.begin("sim.Checkpoint.Encode")
		data, err = cp.Encode(wl.Name)
		sp.end()
	})
	if err != nil {
		return err
	}
	decNs := timeN(sc.reps, func() {
		sp := e.begin("sim.DecodeCheckpoint")
		_, err = sim.DecodeCheckpoint(data)
		sp.end()
	})
	if err != nil {
		return err
	}
	m["snap.encode_mb_per_s"] = float64(len(data)) / encNs * 1e3
	m["snap.decode_mb_per_s"] = float64(len(data)) / decNs * 1e3

	st, err := snap.NewStore(filepath.Join(e.tmp, "snapstore"))
	if err != nil {
		return err
	}
	m["snap.store_roundtrip_us"] = timeN(sc.reps, func() {
		sp := e.begin("snap.Store.Save+Load")
		if err = st.Save(cp.Snapshot(wl.Name)); err == nil {
			_, err = st.Load(wl.Name)
		}
		sp.end()
	}) / 1e3
	if err != nil {
		return err
	}
	return st.Delete(wl.Name)
}

// probeChain prices one interrupt -> checkpoint -> resume hop: a chain
// of hops over the first kernel against the same kernel uninterrupted.
func probeChain(e *env, cfg config.Config, wl *sim.Workload, sc probeScale, m map[string]float64) error {
	k0 := firstKernelOnly(wl)
	t0 := time.Now()
	sp := e.begin("sim.RunWorkload")
	ref, err := sim.RunWorkload(cfg, k0, sim.GTO{}, sim.RunOptions{})
	sp.end()
	refNs := float64(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	res, hops, err := chain(e, cfg, k0, gtoPolicy, sc.every, 0)
	chainNs := float64(time.Since(t0))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ref, res) {
		return fmt.Errorf("chain probe: %s resumed differs from uninterrupted", k0.Name)
	}
	if hops == 0 {
		return fmt.Errorf("chain probe: %s finished before its first interrupt at cycle %d", k0.Name, sc.every)
	}
	m["sim.hop_ms"] = (chainNs - refNs) / float64(hops) / 1e6
	m["sim.hops"] = float64(hops)
	return nil
}

// probeTraceIO takes one application through record -> write -> ingest
// and scans the raw container.
func probeTraceIO(e *env, wl *sim.Workload, sc probeScale, m map[string]float64) error {
	t0 := time.Now()
	sp := e.begin("traceio.Record")
	t, err := traceio.Record(wl)
	sp.end()
	m["traceio.record_ms"] = float64(time.Since(t0)) / 1e6
	if err != nil {
		return err
	}
	var raw bytes.Buffer
	if err := traceio.Write(&raw, t, traceio.WriteOptions{}); err != nil {
		return err
	}
	rawMB := float64(raw.Len()) / 1e6

	path := filepath.Join(e.tmp, "probe-"+wl.Name+".ptrace.gz")
	t0 = time.Now()
	size, err := writeContainer(e, t, path)
	m["traceio.write_mb_per_s"] = rawMB / time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	m["traceio.container_mb"] = float64(size) / 1e6

	var replayed *sim.Workload
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	replayed, err = ingest(e, path)
	m["traceio.ingest_mb_per_s"] = rawMB / time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	m["traceio.ingest_allocs"] = float64(m1.Mallocs - m0.Mallocs)
	if err != nil {
		return err
	}

	scanNs := timeN(sc.reps, func() {
		sp := e.begin("traceio.Scanner")
		defer sp.end()
		var s *traceio.Scanner
		if s, err = traceio.NewScanner(bytes.NewReader(raw.Bytes())); err != nil {
			return
		}
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		err = s.Err()
	})
	if err != nil {
		return err
	}
	m["traceio.scan_mb_per_s"] = rawMB / (scanNs / 1e9)

	m["traceio.replay_addr_ns"], _ = addrLoop(replayed.Kernels[0], sc.addrs)
	return nil
}

// addrLoop draws n addresses from the kernel's patterns the way the
// simulator does — per warp, per iteration, through the Pattern
// interface — and returns the cost per address and the addresses.
func addrLoop(k *trace.Kernel, n int) (float64, []uint64) {
	addrs := make([]uint64, 0, n)
	warps := k.TotalWarps()
	t0 := time.Now()
	for seq := 0; len(addrs) < n; seq++ {
		progressed := false
		for g := 0; g < warps && len(addrs) < n; g++ {
			if seq >= k.WarpIters(g) {
				continue
			}
			progressed = true
			c := trace.Ctx{GlobalWarp: g, Block: g / k.WarpsPerBlock, WarpInBlk: g % k.WarpsPerBlock}
			for _, p := range k.Patterns {
				addrs = append(addrs, p.Addr(c, seq))
			}
		}
		if !progressed {
			seq = -1 // every warp ran out of iterations: start over
		}
	}
	return float64(time.Since(t0)) / float64(len(addrs)), addrs
}

// probePlan builds, digests and round-trips a sweep plan of the
// workload's kernels.
func probePlan(e *env, cfg config.Config, wls []*sim.Workload, sc probeScale, m map[string]float64) error {
	kernels := sim.DistinctKernels(wls)
	var digestNs []float64
	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, k := range kernels {
		digestNs = append(digestNs, timeN(sc.reps, func() {
			sp := e.begin("gridplan.KernelDigest")
			gridplan.KernelDigest(k)
			sp.end()
		}))
		kp := profile.BuildPlan("probe", cfg, k, profile.SweepOptions{StepN: 4, StepP: 4})
		plan.Tasks = append(plan.Tasks, kp.Tasks...)
	}
	plan.Sort()
	var buf bytes.Buffer
	if err := gridplan.WritePlan(&buf, plan); err != nil {
		return err
	}
	path := filepath.Join(e.tmp, "probe-plan.jsonl")
	var err error
	rtNs := timeN(sc.reps, func() {
		sp := e.begin("gridplan.WritePlanFile+ReadPlanFile")
		defer sp.end()
		if err = gridplan.WritePlanFile(path, plan); err != nil {
			return
		}
		var back *gridplan.Plan
		if back, err = gridplan.ReadPlanFile(path); err == nil && len(back.Tasks) != len(plan.Tasks) {
			err = errors.New("plan round trip lost tasks")
		}
	})
	if err != nil {
		return err
	}
	m["gridplan.plan_bytes"] = float64(buf.Len())
	m["gridplan.digest_us"] = median(digestNs) / 1e3
	m["gridplan.plan_roundtrip_ms"] = rtNs / 1e6
	return nil
}

// probeComponents drives the memory-system components and one
// scheduler with the kernel's own address stream.
func probeComponents(e *env, cfg config.Config, k *trace.Kernel, sc probeScale, m map[string]float64) error {
	sp := e.begin("probe.components")
	defer sp.end()
	addrNs, addrs := addrLoop(k, sc.addrs)
	m["trace.addr_ns"] = addrNs
	n := float64(len(addrs))

	l1, err := cache.New(cfg.L1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, a := range addrs {
		warp := int32(i & 63)
		if !l1.Lookup(a, warp, 0, true).Hit {
			l1.Fill(a, warp, 0, true)
		}
	}
	m["cache.lookup_ns"] = float64(time.Since(t0)) / n

	// Keep the MSHR file full: every new line evicts the oldest entry.
	f := cache.NewMSHRFile(cfg.L1.MSHRs)
	ring := make([]uint64, 0, cfg.L1.MSHRs)
	t0 = time.Now()
	for i, a := range addrs {
		la := l1.LineAddr(a)
		if f.Lookup(la) != nil {
			continue
		}
		if f.Full() {
			f.Recycle(f.Release(ring[0]))
			ring = append(ring[:0], ring[1:]...)
		}
		f.Allocate(la, int64(i), true, int32(i&63), 0, cache.Waiter{Slot: i & 63})
		ring = append(ring, la)
	}
	m["cache.mshr_ns"] = float64(time.Since(t0)) / n

	x := noc.New(cfg)
	t0 = time.Now()
	for i := range addrs {
		at := x.Request(i%cfg.NumSMs, int64(i))
		x.Response(i%cfg.NumSMs, at, 4)
	}
	m["noc.request_ns"] = float64(time.Since(t0)) / n

	d := dram.New(cfg)
	t0 = time.Now()
	for i, a := range addrs {
		d.Access(l1.LineAddr(a), int64(i)*4)
	}
	m["dram.access_ns"] = float64(time.Since(t0)) / n

	// A scheduler launched full, every warp waiting on an outstanding
	// miss: Pick scans all of them and fails, NextWake walks them again.
	s := sm.NewScheduler(0, cfg.WarpsPerSched)
	for i := 0; i < cfg.WarpsPerSched; i++ {
		slot := s.Launch(int32(i), 0, int32(i), 1<<20)
		if slot < 0 {
			return errors.New("scheduler probe: launch refused")
		}
		w := &s.Slots[slot]
		for j := 0; j < 2; j++ {
			w.AddPending(sm.Pending{Token: w.NewToken(), DepFlat: 0})
		}
	}
	s.SetTuple(cfg.WarpsPerSched, cfg.WarpsPerSched)
	t0 = time.Now()
	for i := range addrs {
		if s.Pick(int64(i)) >= 0 {
			return errors.New("scheduler probe: a blocked warp was picked")
		}
		s.NextWake(int64(i))
	}
	m["sm.pick_ns"] = float64(time.Since(t0)) / n
	return nil
}

// probeDeciders times the model's inference and the decision service's
// memoised front.
func probeDeciders(e *env, cfg config.Config, sc probeScale, m map[string]float64) error {
	sp := e.begin("probe.deciders")
	defer sp.end()
	n := sc.addrs
	xs := make([]poise.Vector, 64)
	for i := range xs {
		for j := range xs[i] {
			xs[i][j] = float64((i*7+j*3)%11) / 11
		}
		xs[i][poise.NumFeatures-1] = 1
	}
	maxN := cfg.WarpsPerSched
	sink := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a, b := e.weights.PredictTuple(xs[i&63], maxN)
		sink += a + b
	}
	m["poise.predict_ns"] = float64(time.Since(t0)) / float64(n)

	d, err := serve.NewDecider(e.weights)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		a, b, _ := d.Decide("hot", xs[0], maxN)
		sink += a + b
	}
	m["serve.decide_ns"] = float64(time.Since(t0)) / float64(n)

	keys := make([]string, min(n, 4096))
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	t0 = time.Now()
	for i, key := range keys {
		a, b, cached := d.Decide(key, xs[i&63], maxN)
		if cached {
			return errors.New("decider probe: a first-seen key was served from the memo")
		}
		sink += a + b
	}
	m["serve.decide_uncached_ns"] = float64(time.Since(t0)) / float64(len(keys))
	if sink < 0 {
		return errors.New("decider probe: impossible tuple sum")
	}
	return nil
}
