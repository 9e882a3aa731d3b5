// Package testutil provides the shared fixtures of the test suite:
// scaled-down GPU configurations and miniature kernels with known
// properties, so unit and integration tests run in milliseconds while
// exercising the same code paths as the full experiments.
package testutil

import (
	"flag"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/trace"
)

var full = flag.Bool("full", false, "also run the long sweeps and the whole catalogue kernels (CI's no-race step passes it)")

// Full reports whether the test binary was given -full. A test that
// repeats a long sweep whose result is committed, such as the training
// set's, runs only with it, and a suite that runs catalogue kernels
// (sim's engine-equivalence and restore-identity suites) runs whole
// kernels with it and a prefix of each without; CI's no-race step
// passes it (go test ./pkg -args -full), so the checks still run at
// full size on every change.
func Full() bool { return *full }

// TinyConfig returns a 2-SM GPU with the baseline per-SM organisation
// and a proportionally scaled memory side — small enough for unit
// tests, structurally identical to the experiment platform.
func TinyConfig() config.Config {
	return config.Default().Scale(2)
}

// TinyParams returns Poise parameters shrunk 20x so inference epochs
// complete several times within a tiny kernel.
func TinyParams() config.PoiseParams {
	return config.DefaultPoise().ScaleTiming(20)
}

// ThrashKernel builds a kernel with strong intra-warp temporal locality
// whose combined footprint thrashes the tiny L1 at full TLP but fits
// when throttled: the canonical Poise-friendly shape. Deterministic;
// ~blocks*8 warps, each iters iterations of a 2-load body.
func ThrashKernel(name string, footprintLines, iters, blocks int) *trace.Kernel {
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(2)
	b.Load(1)
	b.ALU(2)
	k := &trace.Kernel{
		Name: name,
		Body: b.Body(),
		Patterns: []trace.Pattern{
			trace.PrivateSweep{Region: 901, Lines: footprintLines, Step: 1},
			trace.PrivateSweep{Region: 902, Lines: footprintLines / 2, Step: 1, Dwell: 4},
		},
		Iters:         iters,
		WarpsPerBlock: 8,
		Blocks:        blocks,
		Seed:          7,
	}
	return k
}

// StreamKernel builds a pure-streaming kernel with no recoverable
// locality: throttling cannot help it.
func StreamKernel(name string, iters, blocks int) *trace.Kernel {
	b := &trace.BodyBuilder{}
	b.Load(2)
	b.ALU(3)
	return &trace.Kernel{
		Name:          name,
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.Stream{Region: 903, WrapLines: 1 << 15}},
		Iters:         iters,
		WarpsPerBlock: 8,
		Blocks:        blocks,
		Seed:          8,
	}
}

// ComputeKernel builds a compute-bound kernel whose In exceeds the
// compute-intensive cut-off (one load per 60+ instructions).
func ComputeKernel(name string, iters, blocks int) *trace.Kernel {
	b := &trace.BodyBuilder{}
	b.Load(4)
	b.ALU(64)
	return &trace.Kernel{
		Name:          name,
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.Stream{Region: 904, WrapLines: 1 << 14, Dwell: 16}},
		Iters:         iters,
		WarpsPerBlock: 8,
		Blocks:        blocks,
		Seed:          9,
	}
}

// SharedKernel builds a kernel dominated by inter-warp reuse of a
// shared region.
func SharedKernel(name string, sharedLines, iters, blocks int) *trace.Kernel {
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(2)
	return &trace.Kernel{
		Name:          name,
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.SharedSweep{Region: 905, Lines: sharedLines, Step: 1, Dwell: 2}},
		Iters:         iters,
		WarpsPerBlock: 8,
		Blocks:        blocks,
		Seed:          10,
	}
}

// Workload wraps kernels into a one-benchmark workload.
func Workload(name string, ks ...*trace.Kernel) *sim.Workload {
	return &sim.Workload{Name: name, Kernels: ks}
}

// RunTiny runs a kernel on the tiny GPU under a policy and panics on
// error (tests use the explicit API when they assert on errors).
func RunTiny(k *trace.Kernel, p sim.Policy) sim.KernelResult {
	g, err := sim.Acquire(TinyConfig())
	if err != nil {
		panic(err)
	}
	defer sim.Release(g)
	res, err := g.Run(k, p, sim.RunOptions{})
	if err != nil {
		panic(err)
	}
	return res
}

// Deal returns hand i of n of ts dealt round-robin: how the
// decomposition tests split a plan's tasks, as a fleet's leases would.
func Deal[T any](ts []T, i, n int) []T {
	var hand []T
	for j := i; j < len(ts); j += n {
		hand = append(hand, ts[j])
	}
	return hand
}
