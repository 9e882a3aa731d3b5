package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"poise/internal/config"
	"poise/internal/energy"
	"poise/internal/poise"
	"poise/internal/sim"
	"poise/internal/stats"
)

// env is what the driver hands every workload: the seed, the Poise
// model, a scratch directory under bench/out and — in the traced run —
// the tracer with the span the current stage hangs its calls under.
type env struct {
	seed    int64
	tiny    bool // the smoke test's scale: one application, one short pass
	tmp     string
	weights poise.Weights
	params  config.PoiseParams
	tr      *tracer
	cur     span
	// yard runs the reference work due after every unit.
	yard *yardstick
	// units collects the timed units of the pass in progress.
	units []unitTime
}

func (e *env) begin(name string) span { return e.tr.begin(e.cur, name) }

// unitTime is the host cost of one unit: a call (or a short group of
// calls) into the layers that a pass makes once, at the same position,
// every time. A pass costs the sum of its units; what runs between them
// (the yardstick, bookkeeping) is not the product's and is not counted.
type unitTime struct {
	Name        string
	WallS, CPUS float64
}

// unit runs fn as one timed unit, under a span of the same name, and
// then the reference work due for it.
func (e *env) unit(name string, fn func()) {
	sp := e.begin(name)
	outer := e.cur
	e.cur = sp
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	e.cur = outer
	sp.end()
	e.units = append(e.units, unitTime{name, wall, cpu})
	e.yard.owe(wall)
}

// calibrated times fn the way set-ups and one-off references are timed:
// its wall clock as measured, and divided by the slowdown of at least
// yardMinSlices slices of reference work run right after it.
func (e *env) calibrated(fn func()) (raw, cal float64) {
	e.yard.take()
	t0 := time.Now()
	fn()
	raw = time.Since(t0).Seconds()
	e.yard.owe(raw)
	e.yard.atLeast(yardMinSlices)
	return raw, raw / e.yard.take()
}

func (e *env) poisePolicy() sim.Policy { return poise.NewPolicy(e.params, e.weights) }

func gtoPolicy() sim.Policy { return sim.GTO{} }

// pair is one application's result under the baseline and under Poise;
// the three simulated end-to-end metrics are computed from pairs.
type pair struct {
	App        string
	GTO, Poise sim.WorkloadResult
}

// passOut is everything one pass produced. Every field except Varied
// must repeat exactly from pass to pass at a fixed seed; the driver
// checks that with reflect.DeepEqual.
type passOut struct {
	// Kernels holds every kernel result of the pass in a fixed order.
	Kernels []sim.KernelResult
	Pairs   []pair
	// Simulated work that arrives without a kernel result (sweep points
	// come back as measurements).
	ExtraCycles, ExtraInstr, ExtraRuns int64
	// Ops counts operations attempted (kernel runs, grid points, cells,
	// tasks, checkpoint hops); Failed those that did not succeed.
	Ops, Failed int
	// Check carries further outputs that must repeat exactly.
	Check any
	// Exact holds the per-layer counts only this workload's flow can
	// supply (profile.points, experiments.cells ...); Varied those that
	// legitimately differ between passes (lease and steal counts).
	Exact  map[string]float64
	Varied map[string]float64
	// SMs is the simulated SM count, for the energy model.
	SMs int
}

func (o *passOut) addResult(r sim.WorkloadResult) {
	o.Kernels = append(o.Kernels, r.PerKernel...)
}

// comparable strips what legitimately differs between passes.
func (o passOut) comparable() passOut {
	o.Varied = nil
	return o
}

func (o passOut) cycles() int64 {
	c := o.ExtraCycles
	for _, k := range o.Kernels {
		c += k.Cycles
	}
	return c
}

func (o passOut) instructions() int64 {
	n := o.ExtraInstr
	for _, k := range o.Kernels {
		n += k.Instructions
	}
	return n
}

// counters derives the exact per-layer counts from the pass's kernel
// results: the same numbers a user reads off sim.KernelResult.
func (o passOut) counters() map[string]float64 {
	var l1a, l1h, l2a, l2h, req, resp, dr, rep int64
	for _, k := range o.Kernels {
		l1a += k.L1.Accesses
		l1h += k.L1.Hits
		l2a += k.L2Accesses
		l2h += k.L2Hits
		req += k.NoCReqFlits
		resp += k.NoCRespFlits
		dr += k.DRAMAcc
		rep += k.Replays
	}
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]float64{
		"sim.cycles":        float64(o.cycles()),
		"sim.instructions":  float64(o.instructions()),
		"sim.kernel_runs":   float64(int64(len(o.Kernels)) + o.ExtraRuns),
		"sm.replays":        float64(rep),
		"cache.l1_accesses": float64(l1a),
		"cache.l1_hit_rate": frac(l1h, l1a),
		"cache.l2_accesses": float64(l2a),
		"cache.l2_hit_rate": frac(l2h, l2a),
		"noc.req_flits":     float64(req),
		"noc.resp_flits":    float64(resp),
		"dram.accesses":     float64(dr),
	}
	for k, v := range o.Exact {
		m[k] = v
	}
	return m
}

// poiseMetrics computes the harmonic-mean and worst-case IPC ratio of
// Poise over GTO and the mean energy ratio across the pass's pairs.
func (o passOut) poiseMetrics() (hmean, worst, energyRatio float64, err error) {
	if len(o.Pairs) == 0 {
		return 0, 0, 0, errors.New("no GTO/Poise pairs")
	}
	em := energy.Default()
	speedups := make([]float64, len(o.Pairs))
	for i, p := range o.Pairs {
		if p.GTO.IPC <= 0 || p.Poise.IPC <= 0 {
			return 0, 0, 0, fmt.Errorf("%s: non-positive IPC", p.App)
		}
		speedups[i] = p.Poise.IPC / p.GTO.IPC
		energyRatio += em.OfWorkload(p.Poise, o.SMs).Total() / em.OfWorkload(p.GTO, o.SMs).Total()
	}
	hmean, err = stats.HarmonicMean(speedups)
	return hmean, slices.Min(speedups), energyRatio / float64(len(o.Pairs)), err
}

// firstKernelOnly cuts a workload down to its first kernel: the
// checkpoint chains run one kernel per application to stay inside the
// run cap.
func firstKernelOnly(w *sim.Workload) *sim.Workload {
	return &sim.Workload{Name: w.Name, Kernels: w.Kernels[:1], MemorySensitive: w.MemorySensitive}
}

// chain runs w to completion as a chain of preempted hops: the run is
// interrupted every `every` simulated cycles, and each interrupt goes
// Checkpoint.Encode -> sim.DecodeCheckpoint -> sim.ResumeWorkload on a
// fresh GPU and a fresh policy, as a task bouncing between fleet
// workers would. It returns the final result and the number of hops.
// A positive limit abandons the chain after that many hops (the
// warm-up's use), returning the partial result.
func chain(e *env, cfg config.Config, w *sim.Workload, mkPolicy func() sim.Policy, every int64, limit int) (sim.WorkloadResult, int, error) {
	var res sim.WorkloadResult
	var cp *sim.Checkpoint
	var err error
	e.unit("sim.RunWorkloadPreemptible", func() {
		res, cp, err = sim.RunWorkloadPreemptible(cfg, w, mkPolicy(),
			sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: every}})
	})
	hops := 0
	for errors.Is(err, sim.ErrInterrupted) {
		if cp == nil {
			return res, hops, errors.New("interrupted run returned no checkpoint")
		}
		if limit > 0 && hops == limit {
			return res, hops, nil
		}
		hops++
		// One hop is one unit: a few milliseconds, so that nearly every
		// hop gets an undisturbed sample in some pass.
		var codecErr error
		e.unit("sim.hop", func() {
			sp := e.begin("sim.Checkpoint.Encode")
			data, eerr := cp.Encode(w.Name)
			sp.count("bytes", float64(len(data)))
			sp.end()
			if eerr != nil {
				codecErr = eerr
				return
			}
			sp = e.begin("sim.DecodeCheckpoint")
			back, derr := sim.DecodeCheckpoint(data)
			sp.end()
			if derr != nil {
				codecErr = derr
				return
			}
			sp = e.begin("sim.ResumeWorkload")
			res, cp, err = sim.ResumeWorkload(cfg, w, mkPolicy(),
				sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: back.Cycle + every}}, back)
			sp.end()
		})
		if codecErr != nil {
			return res, hops, codecErr
		}
	}
	return res, hops, err
}
