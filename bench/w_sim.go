package main

import (
	"fmt"
	"reflect"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// workload is one set of inputs the benchmark runs. The driver calls
// setup (timed as setup_s, several times), then pass repeatedly (the
// timed region), then verify once (reference comparisons, untimed, and
// deliberately after the timed passes so that nothing it computes can
// warm them up).
type workload interface {
	setup(e *env) error
	pass(e *env) (passOut, error)
	verify(e *env, first passOut) error
	// probeSet names what the layer probes of the traced run feed on:
	// the workload's own machine and applications.
	probeSet() probeSet
	teardown()
}

// simWorkload is the driver behind sim_membound and sim_compute: one
// goroutine, one pooled GPU (sim.New once, Reset between runs), every
// application under GTO and then under Poise with the embedded weights.
// An application runs the way GPU.RunWorkload runs it — its kernels in
// order, L2 kept warm after the first — but kernel by kernel through
// GPU.Run, so that every kernel is a timed unit of its own; verify
// checks the result against GPU.RunWorkload itself.
type simWorkload struct {
	apps []string
	size workloads.Size
	sms  int

	cfg config.Config
	g   *sim.GPU
	wls []*sim.Workload
}

func (w *simWorkload) setup(e *env) error {
	apps, size := w.apps, w.size
	if e.tiny {
		apps, size = apps[:1], workloads.Small
	}
	wls, err := catalogue(e, size, apps)
	if err != nil {
		return err
	}
	w.wls = wls
	w.cfg = config.Default().Scale(w.sms)
	if w.g, err = newGPU(e, w.cfg); err != nil {
		return err
	}
	// Warm-up: the first application under both policies.
	_, err = w.runPair(e, w.wls[0])
	return err
}

// catalogue builds the seeded catalogue and resolves names in it.
func catalogue(e *env, size workloads.Size, names []string) ([]*sim.Workload, error) {
	sp := e.begin("workloads.NewCatalogueSeeded")
	cat := workloads.NewCatalogueSeeded(size, e.seed)
	sp.end()
	var out []*sim.Workload
	for _, n := range names {
		wl, err := cat.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, wl)
	}
	return out, nil
}

func (w *simWorkload) run(e *env, wl *sim.Workload, pol sim.Policy) (sim.WorkloadResult, error) {
	e.unit("sim.GPU.Reset", w.g.Reset)
	res := sim.WorkloadResult{Workload: wl.Name, Policy: pol.Name()}
	for i, k := range wl.Kernels {
		var kr sim.KernelResult
		var err error
		e.unit("sim.GPU.Run", func() {
			kr, err = w.g.Run(k, pol, sim.RunOptions{Warm: i > 0})
		})
		if err != nil {
			return res, fmt.Errorf("%s/%s under %s: %w", wl.Name, k.Name, pol.Name(), err)
		}
		// The sums the Poise metrics and the energy model read.
		res.PerKernel = append(res.PerKernel, kr)
		res.Cycles += kr.Cycles
		res.Instructions += kr.Instructions
		res.L1.Accesses += kr.L1.Accesses
		res.L1.Hits += kr.L1.Hits
		res.L2Acc += kr.L2Accesses
		res.L2Hits += kr.L2Hits
		res.DRAMAcc += kr.DRAMAcc
		res.NoCReqFlits += kr.NoCReqFlits
		res.NoCRespFlits += kr.NoCRespFlits
	}
	res.IPC = float64(res.Instructions) / float64(res.Cycles)
	return res, nil
}

func (w *simWorkload) runPair(e *env, wl *sim.Workload) (pair, error) {
	gto, err := w.run(e, wl, sim.GTO{})
	if err != nil {
		return pair{}, err
	}
	po, err := w.run(e, wl, e.poisePolicy())
	return pair{App: wl.Name, GTO: gto, Poise: po}, err
}

func (w *simWorkload) pass(e *env) (passOut, error) {
	out := passOut{SMs: w.cfg.NumSMs}
	for _, wl := range w.wls {
		out.Ops += 2 * len(wl.Kernels) // kernel runs
		p, err := w.runPair(e, wl)
		if err != nil {
			out.Failed += 2 * len(wl.Kernels)
			return out, err
		}
		out.addResult(p.GTO)
		out.addResult(p.Poise)
		out.Pairs = append(out.Pairs, p)
	}
	return out, nil
}

// verify runs the first application through GPU.RunWorkload under both
// policies and requires the kernel-by-kernel pass to have produced the
// same kernel results and the same sums.
func (w *simWorkload) verify(e *env, first passOut) error {
	wl, got := w.wls[0], first.Pairs[0]
	for _, leg := range []struct {
		pol sim.Policy
		got sim.WorkloadResult
	}{{sim.GTO{}, got.GTO}, {e.poisePolicy(), got.Poise}} {
		w.g.Reset()
		want, err := w.g.RunWorkload(wl, leg.pol, sim.RunOptions{})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want.PerKernel, leg.got.PerKernel) ||
			want.Cycles != leg.got.Cycles || want.Instructions != leg.got.Instructions || want.IPC != leg.got.IPC {
			return fmt.Errorf("%s under %s: kernel-by-kernel run differs from GPU.RunWorkload", wl.Name, leg.pol.Name())
		}
	}
	return nil
}

func (w *simWorkload) probeSet() probeSet {
	return probeSet{cfg: w.cfg, apps: w.wls, traced: w.wls[0], size: w.size}
}

func (w *simWorkload) teardown() { w.g = nil }
