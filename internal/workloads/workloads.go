// Package workloads defines the synthetic benchmark suite standing in
// for the paper's CUDA workloads (Table IIIa). Each workload is built
// from the pattern primitives in package trace and calibrated to the
// locality signature the paper reports for its namesake:
//
//   - the Pbest ordering of Table IIIa (how much a 64x L1 helps),
//   - the intra-/inter-warp hit split and reuse distance of Fig. 4
//     (ii: ~97% intra-warp, R~236; bfs: ~77% intra, R~1136;
//     syr2k: ~40% intra / 60% inter, R~240; cfd: ~2% intra / 98% inter,
//     R~3161),
//   - and the In (instructions between global loads) regime that
//     separates memory-sensitive from compute-intensive kernels.
//
// The training set (gco, pvr, ccl) and evaluation set (the rest) are
// disjoint families with different pattern mixes and parameters, so the
// paper's "unseen applications" evaluation discipline is preserved.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/trace"
)

// Size scales workload iteration counts. Full runs reproduce paper-like
// epoch counts; Small keeps unit tests fast.
type Size int

const (
	// Small is sized for unit tests: kernels of a few hundred thousand
	// scheduler-issue slots.
	Small Size = iota
	// Medium is the default experiment size.
	Medium
	// Large approaches the paper's multi-million-cycle kernels.
	Large
)

// ParseSize reads a size by name ("small", "medium" or "large", in any
// case).
func ParseSize(s string) (Size, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

func (s Size) factor() int {
	switch s {
	case Small:
		return 1
	case Medium:
		return 4
	default:
		return 16
	}
}

// Catalogue builds every named workload at the given size.
// The bool return of Get-style lookups is avoided: unknown names panic
// in Must, and Names lists valid ones.
type Catalogue struct {
	size Size
	all  map[string]*sim.Workload
}

// NewCatalogue constructs the full suite at the given size.
func NewCatalogue(size Size) *Catalogue {
	return NewCatalogueSeeded(size, 0)
}

// NewCatalogueSeeded constructs the suite with every kernel's
// stochastic streams re-seeded from seed: the kernel's iteration
// jitter and the irregular address patterns are XORed with a
// splitmix-mixed derivation of seed, so different seeds give
// decorrelated workload variants while the calibrated footprints and
// locality structure stay intact. A seed of 0 yields the canonical
// catalogue bit-for-bit.
func NewCatalogueSeeded(size Size, seed int64) *Catalogue {
	c := &Catalogue{size: size, all: map[string]*sim.Workload{}}
	var mixed int64
	if seed != 0 {
		mixed = runner.SubSeed(seed, 0)
	}
	for _, b := range builders {
		w := b.build(size)
		w.MemorySensitive = b.memSensitive
		if mixed != 0 {
			for _, k := range w.Kernels {
				k.Seed ^= mixed
				for i, p := range k.Patterns {
					k.Patterns[i] = trace.Reseed(p, uint64(mixed))
				}
			}
		}
		c.all[w.Name] = w
	}
	return c
}

// Put inserts w into the catalogue, replacing any existing workload
// with the same name. Trace-backed workloads (package traceio) use it
// to register alongside — or shadow, for record/replay comparisons —
// the synthetic suite.
func (c *Catalogue) Put(w *sim.Workload) {
	c.all[w.Name] = w
}

// Get returns the workload with the given name.
func (c *Catalogue) Get(name string) (*sim.Workload, error) {
	w, ok := c.all[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return w, nil
}

// Must returns the workload or panics; for tests and tables with fixed
// names.
func (c *Catalogue) Must(name string) *sim.Workload {
	w, err := c.Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Names returns all workload names, sorted.
func (c *Catalogue) Names() []string {
	var out []string
	for n := range c.all {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TrainingSet returns the training workloads (paper: gco, pvr, ccl).
func (c *Catalogue) TrainingSet() []*sim.Workload {
	return c.pick(TrainingNames())
}

// EvalSet returns the memory-sensitive evaluation workloads in the
// paper's Table IIIa order (sorted by Pbest).
func (c *Catalogue) EvalSet() []*sim.Workload {
	return c.pick(EvalNames())
}

// ComputeSet returns the memory-insensitive workloads of Fig. 16.
func (c *Catalogue) ComputeSet() []*sim.Workload {
	return c.pick(ComputeNames())
}

func (c *Catalogue) pick(names []string) []*sim.Workload {
	out := make([]*sim.Workload, 0, len(names))
	for _, n := range names {
		out = append(out, c.Must(n))
	}
	return out
}

// TrainingNames lists the training-set workloads.
func TrainingNames() []string { return []string{"gco", "pvr", "ccl"} }

// EvalNames lists the evaluation set in the paper's order.
func EvalNames() []string {
	return []string{"syr2k", "syrk", "mm", "ii", "gsmv", "mvt", "bicg", "ss", "atax", "bfs", "kmeans"}
}

// ComputeNames lists the compute-intensive workloads of Fig. 16.
func ComputeNames() []string {
	return []string{"wc", "covar", "gramschm", "sradv2", "hybridsort", "hotspot", "pathfinder"}
}

type builder struct {
	name         string
	memSensitive bool
	build        func(Size) *sim.Workload
}

var builders []builder

func register(name string, memSensitive bool, f func(Size) *sim.Workload) {
	builders = append(builders, builder{name: name, memSensitive: memSensitive, build: f})
}

// ---- shared construction helpers -------------------------------------

// region derives a stable pattern-region id from a workload/kernel name
// and a slot index, so the address spaces of different kernels never
// collide and rebuilding a catalogue yields identical streams.
func region(name string, idx int) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	h ^= uint32(idx) * 0x9e3779b9
	// Keep regions positive and well below the 2^24 region ceiling
	// implied by the 40-bit region shift in package trace.
	return int(h%0x3fffff) + 1
}

// memBody builds the canonical memory-sensitive loop body: nLoads loads
// with gap independent ALU instructions after each and useDist
// independent slots before the dependent use.
func memBody(nLoads, gap, useDist int) (body []trace.Instr, slots int) {
	b := &trace.BodyBuilder{}
	for i := 0; i < nLoads; i++ {
		b.Load(useDist)
		b.ALU(gap)
	}
	return b.Body(), b.Slots()
}

// kernel assembles a kernel with the standard grid shape: enough blocks
// to fill every SM's schedulers and then some, so block refill is
// exercised.
func kernel(name string, body []trace.Instr, pats []trace.Pattern, iters, warpsPerBlock, blocks int) *trace.Kernel {
	return &trace.Kernel{
		Name:          name,
		Body:          body,
		Patterns:      pats,
		Iters:         iters,
		WarpsPerBlock: warpsPerBlock,
		Blocks:        blocks,
		Seed:          int64(len(name)) * 7919,
	}
}
