package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

// replayWorkload ingests recorded traces and simulates them as chains
// of checkpointed hops. Set-up records catalogue applications and
// writes them as gzipped containers; a pass streams each container
// back in (gunzip + scan + characterise) and runs the first kernel of
// every replayed application under GTO and under Poise, interrupted
// every `every` simulated cycles, each interrupt going through the
// checkpoint codec and a fresh GPU.
type replayWorkload struct {
	apps  []string
	size  workloads.Size
	sms   int
	every int64

	cfg       config.Config
	originals []*sim.Workload
	files     []string
}

func (w *replayWorkload) setup(e *env) error {
	apps, size := w.apps, w.size
	if e.tiny {
		apps, size = apps[:1], workloads.Small
	}
	w.cfg = config.Default().Scale(w.sms)
	wls, err := catalogue(e, size, apps)
	if err != nil {
		return err
	}
	w.originals = wls
	w.files = nil
	for _, wl := range wls {
		path := filepath.Join(e.tmp, wl.Name+".ptrace.gz")
		if err := recordTo(e, wl, path); err != nil {
			return err
		}
		w.files = append(w.files, path)
	}
	// Warm-up: ingest the first container and take its first kernel
	// through a few hops under each policy.
	rw, err := ingest(e, w.files[0])
	if err != nil {
		return err
	}
	for _, mk := range []func() sim.Policy{gtoPolicy, e.poisePolicy} {
		if _, _, err := chain(e, w.cfg, firstKernelOnly(rw), mk, w.every, 8); err != nil {
			return err
		}
	}
	return nil
}

// recordTo captures wl and writes it as a gzipped container.
func recordTo(e *env, wl *sim.Workload, path string) error {
	sp := e.begin("traceio.Record")
	t, err := traceio.Record(wl)
	sp.end()
	if err != nil {
		return err
	}
	_, err = writeContainer(e, t, path)
	return err
}

// writeContainer writes t gzipped to path and returns the file size.
func writeContainer(e *env, t *traceio.Trace, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	sp := e.begin("traceio.Write")
	bw := bufio.NewWriter(f)
	err = traceio.Write(bw, t, traceio.WriteOptions{Gzip: true})
	if err == nil {
		err = bw.Flush()
	}
	sp.end()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ingest streams one container into a replayable workload.
func ingest(e *env, path string) (*sim.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var wl *sim.Workload
	e.unit("traceio.ReadWorkload", func() {
		wl, _, err = traceio.ReadWorkload(bufio.NewReader(f), &traceio.CharacteriseOptions{})
	})
	return wl, err
}

func (w *replayWorkload) pass(e *env) (passOut, error) {
	out := passOut{SMs: w.cfg.NumSMs, Exact: map[string]float64{}}
	hops := 0
	for _, path := range w.files {
		out.Ops++ // the ingest
		rw, err := ingest(e, path)
		if err != nil {
			out.Failed++
			return out, err
		}
		k0 := firstKernelOnly(rw)
		p := pair{App: k0.Name}
		for _, leg := range []struct {
			dst *sim.WorkloadResult
			mk  func() sim.Policy
		}{
			{&p.GTO, gtoPolicy},
			{&p.Poise, e.poisePolicy},
		} {
			res, n, err := chain(e, w.cfg, k0, leg.mk, w.every, 0)
			hops += n
			out.Ops += n + 1 // the hops and the kernel run they make up
			if err != nil {
				out.Failed++
				return out, fmt.Errorf("%s: %w", k0.Name, err)
			}
			*leg.dst = res
			out.addResult(res)
		}
		out.Pairs = append(out.Pairs, p)
	}
	out.Exact["sim.hops"] = float64(hops)
	return out, nil
}

// verify requires, for every application, that the replay equals the
// synthetic original it was recorded from (recording is independent of
// the policy, so GTO settles it) and, under both policies, that the
// resumed chain equals the uninterrupted replay.
func (w *replayWorkload) verify(e *env, first passOut) error {
	if len(first.Pairs) != len(w.files) {
		return errors.New("pass produced no pair for some container")
	}
	for i, path := range w.files {
		rw, err := ingest(e, path)
		if err != nil {
			return err
		}
		k0 := firstKernelOnly(rw)
		original, err := sim.RunWorkload(w.cfg, firstKernelOnly(w.originals[i]), sim.GTO{}, sim.RunOptions{})
		if err != nil {
			return err
		}
		for _, leg := range []struct {
			pol   sim.Policy
			chain sim.WorkloadResult
		}{{sim.GTO{}, first.Pairs[i].GTO}, {e.poisePolicy(), first.Pairs[i].Poise}} {
			replayed, err := sim.RunWorkload(w.cfg, k0, leg.pol, sim.RunOptions{})
			if err != nil {
				return err
			}
			if leg.pol.Name() == original.Policy && !reflect.DeepEqual(replayed, original) {
				return fmt.Errorf("%s: replay differs from the synthetic original", rw.Name)
			}
			if !reflect.DeepEqual(leg.chain, replayed) {
				return fmt.Errorf("%s under %s: resumed chain differs from the uninterrupted replay", rw.Name, leg.pol.Name())
			}
		}
	}
	return nil
}

// probeSet simulates what the passes simulate, first kernels, but
// records and ingests the whole first application, as set-up does.
func (w *replayWorkload) probeSet() probeSet {
	var apps []*sim.Workload
	for _, wl := range w.originals {
		apps = append(apps, firstKernelOnly(wl))
	}
	return probeSet{cfg: w.cfg, apps: apps, traced: w.originals[0], size: w.size}
}

func (w *replayWorkload) teardown() {
	for _, f := range w.files {
		_ = os.Remove(f) // scratch under bench/out; a leftover is harmless
	}
}
