// Package profile runs offline {N, p} solution-space sweeps — the
// static profiling step that SWL, PCAL-SWL and Static-Best rely on in
// the paper's evaluation, and the data source for Poise's training
// targets. A Profile stores the speedup of one kernel at every swept
// warp-tuple, normalised to the GTO baseline at maximum warps.
package profile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"poise/internal/atomicfile"
	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/trace"
)

// Point is one profiled warp-tuple.
type Point struct {
	N, P    int
	IPC     float64
	Speedup float64 // IPC / baseline IPC
	HitRate float64
	AML     float64
}

// Profile is the solution-space map of one kernel.
type Profile struct {
	Kernel   string
	MaxN     int     // per-scheduler warp bound during the sweep
	Baseline Point   // the (MaxN, MaxN) GTO point
	Points   []Point // all swept points (includes the baseline tuple)

	// BaselineFeatures carries aggregate kernel statistics sampled at
	// the baseline run, used by the training pipeline.
	BaselineCycles int64
	BaselineInstr  int64

	// index maps (N, P) to the point's position in Points, so
	// BestScore's 9-neighbour probes are O(1) per point instead of a
	// linear scan. It is built eagerly wherever profiles are
	// constructed for consumers (MergeShards, Store.Load) — never
	// lazily, so two profiles with the same points always compare
	// reflect.DeepEqual regardless of how many queries either has
	// served. It is unexported and rebuilt after JSON decoding, so
	// serialised profiles are byte-identical to the pre-index format.
	// Hand-assembled profiles (tests, synthetic fixtures) may leave it
	// nil: Lookup falls back to the linear scan. Points must not grow
	// after buildIndex (mutating a point's metrics in place is fine —
	// the index only keys coordinates).
	index map[[2]int]int
}

// Lookup returns the point at (n, p) and whether it was swept.
func (pr *Profile) Lookup(n, p int) (Point, bool) {
	if pr.index != nil {
		if i, ok := pr.index[[2]int{n, p}]; ok {
			return pr.Points[i], true
		}
		return Point{}, false
	}
	for _, pt := range pr.Points {
		if pt.N == n && pt.P == p {
			return pt, true
		}
	}
	return Point{}, false
}

// buildIndex indexes Points by coordinate; the first occurrence wins,
// matching what the linear scan used to return for (malformed)
// profiles with duplicate tuples.
func (pr *Profile) buildIndex() {
	pr.index = make(map[[2]int]int, len(pr.Points))
	for i, pt := range pr.Points {
		key := [2]int{pt.N, pt.P}
		if _, dup := pr.index[key]; !dup {
			pr.index[key] = i
		}
	}
}

// Best returns the highest-speedup point.
func (pr *Profile) Best() Point {
	best := pr.Baseline
	for _, pt := range pr.Points {
		if pt.Speedup > best.Speedup {
			best = pt
		}
	}
	return best
}

// BestDiagonal returns the best point with p == N — the reach of SWL
// (static CCWS), which couples the two knobs.
func (pr *Profile) BestDiagonal() Point {
	best := pr.Baseline
	for _, pt := range pr.Points {
		if pt.N == pt.P && pt.Speedup > best.Speedup {
			best = pt
		}
	}
	return best
}

// Sweep options.
type SweepOptions struct {
	// StepN/StepP control grid resolution (1 = exhaustive). The
	// diagonal p == N is always included at StepN resolution, since the
	// SWL baseline needs it.
	StepN, StepP int
	// Workers bounds the concurrent point simulations (<= 0 means
	// GOMAXPROCS, 1 forces sequential). Every in-flight point runs on
	// its own GPU, so the profile is bit-identical at any worker count.
	Workers int
	// Ctx cancels an in-flight sweep (nil = context.Background()).
	Ctx context.Context
	// Memo, when non-nil, answers grid points it has seen from memory
	// and remembers the ones it simulates (sim.Job.Memo): a point is
	// the one-kernel workload {k} under Fixed{N, P}, the same run as a
	// one-kernel workload under a scheme pinning that tuple. A task's
	// verified Digest keys it. An armed Interrupt bypasses it. The
	// harness and poisebench set Memo, poisesim sets Checkpoints.
	Memo *sim.RunMemo
	// Refine switches sweeps to adaptive coarse-to-fine refinement
	// (see refine.go): LoadOrSweepAll runs a Refinement instead of the
	// whole grid, caching completed rounds for resume. The refined
	// profile contains only the simulated subset of the grid, so
	// callers that consume more than the Best/BestDiagonal/BestScore
	// optima and the corner points should leave Refine off.
	Refine bool
	// Interrupt, when non-nil, makes the sweep preemptible: a fired
	// control stops in-flight tasks at a safe point with
	// sim.ErrInterrupted (after checkpointing them to Checkpoints, when
	// that is also set). Already-completed task measurements are
	// unaffected.
	Interrupt *sim.InterruptCtl
	// Checkpoints, when non-nil, stores mid-task snapshots keyed by
	// task identity (sim.Job.Store): sim.Drive resumes a task's stored
	// checkpoint instead of starting over — any process pointed at the
	// same directory continues a preempted task bit-identically — and
	// deletes it once the task completes.
	Checkpoints *snap.Store
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.StepN <= 0 {
		o.StepN = 1
	}
	if o.StepP <= 0 {
		o.StepP = 1
	}
	return o
}

// Sweep profiles kernel k across the {N, p} space on the given
// configuration. The kernel runs once per grid point; speedups are
// relative to the (max, max) GTO tuple. Points run concurrently on
// opts.Workers goroutines, each in-flight point on its own GPU drawn
// from the process's reset-verified pool: a kernel run is a pure
// function of (config, kernel, tuple), so the profile is bit-identical
// at any worker count.
//
// Sweep is LoadOrSweepAll's whole-grid body over k alone, with no
// store, so a sweep fanned out across a fleet's processes (BuildPlan ->
// RunTasks -> MergeShards) merges to the same Profile bit for bit — the
// property TestShardedSweepMatchesInProcess pins down.
//
// It covers the whole grid. The commands and the experiment harness
// refine instead (Refinement); Sweep remains for the figures that draw
// every point and as the oracle the refinement is proven against.
func Sweep(cfg config.Config, k *trace.Kernel, opts SweepOptions) (*Profile, error) {
	opts.Refine = false
	out, err := Store{}.LoadOrSweepAll(cfg, []*trace.Kernel{k}, opts)
	if err != nil {
		return nil, err
	}
	return out[0].Profile, nil
}

// Score implements the paper's Eq. 12 neighbourhood scoring at point
// (a, b): the weighted sum of speedups over the 3x3 neighbourhood,
// normalised by the weights of the neighbours present. Missing
// neighbours (boundary or unswept) are excluded from the normalisation,
// matching the paper's boundary handling.
func (pr *Profile) Score(a, b int, w0, w1, w2 float64) (float64, bool) {
	if _, ok := pr.Lookup(a, b); !ok {
		return 0, false
	}
	weightAt := func(k int) float64 {
		switch k {
		case 0:
			return w0
		case 1:
			return w1
		default:
			return w2
		}
	}
	var sum, norm float64
	for i := -1; i <= 1; i++ {
		for j := -1; j <= 1; j++ {
			pt, ok := pr.Lookup(a+i, b+j)
			if !ok {
				continue
			}
			w := weightAt(abs(i) + abs(j))
			sum += w * pt.Speedup
			norm += w
		}
	}
	if norm == 0 {
		return 0, false
	}
	return sum / norm, true
}

// BestScore returns the point with the highest Eq. 12 score and that
// score. Weights follow Table IV.
func (pr *Profile) BestScore(p config.PoiseParams) (Point, float64) {
	best := pr.Baseline
	bestScore := math.Inf(-1)
	for _, pt := range pr.Points {
		s, ok := pr.Score(pt.N, pt.P, p.ScoreW0, p.ScoreW1, p.ScoreW2)
		if !ok {
			continue
		}
		if s > bestScore {
			bestScore, best = s, pt
		}
	}
	return best, bestScore
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Store caches profiles on disk as JSON, so expensive sweeps run once
// per configuration and kernel. Every entry is named by Key: the
// sweep's SweepTag and the kernel's content digest.
type Store struct {
	Dir string
}

func (s Store) path(e entry) string { return filepath.Join(s.Dir, e.name()+".json") }

// load reads a cached profile; it returns os.ErrNotExist if absent and
// an atomicfile.ErrCorrupt-wrapping error if present but undecodable.
// LoadOrSweepAll treats both as "no usable cache entry" and re-sweeps.
func (s Store) load(e entry) (*Profile, error) {
	if s.Dir == "" {
		return nil, os.ErrNotExist
	}
	var pr Profile
	if err := atomicfile.LoadJSON(s.path(e), &pr); err != nil {
		return nil, err
	}
	if pr.Kernel == "" || len(pr.Points) == 0 {
		return nil, fmt.Errorf("profile: %s: %w (decoded to an empty profile)", s.path(e), atomicfile.ErrCorrupt)
	}
	pr.buildIndex()
	return &pr, nil
}

// save writes a profile to the cache through atomicfile, so a crash
// mid-write leaves either the old entry or the new one, never a
// truncated file — the atomicfile.ErrCorrupt repair path stays a
// defence against external damage rather than the only thing standing
// between a crash and a poisoned cache.
func (s Store) save(e entry, pr *Profile) error {
	if s.Dir == "" {
		return errors.New("profile: store has no directory")
	}
	if err := atomicfile.SaveJSON(s.path(e), pr); err != nil {
		return fmt.Errorf("profile: saving %s: %w", s.path(e), err)
	}
	return nil
}

// LoadOrSweepAll returns the profiles of the kernels (distinct names),
// in order, each hashed once. A cached profile is loaded; a corrupt
// entry (atomicfile.ErrCorrupt) is a miss and gets overwritten, so a
// truncated write from a crashed run can never abort later runs. The
// others are swept and cached: with opts.Refine set by ONE Refinement
// over all of them, which resumes from the rounds the store holds
// (refine.go); otherwise by ONE run of all their whole grids on one
// Workers-wide pool.
func (s Store) LoadOrSweepAll(cfg config.Config, kernels []*trace.Kernel, opts SweepOptions) ([]Swept, error) {
	tag := SweepTag(cfg, opts)
	out := make([]Swept, len(kernels))
	var missing []int
	var es []entry
	for i, k := range kernels {
		e := newEntry(tag, k)
		if out[i].Profile, _ = s.load(e); out[i].Profile == nil {
			missing = append(missing, i)
			es = append(es, e)
		}
	}
	if opts.Refine {
		r := newRefinement(cfg, es, opts, s)
		if err := r.run(); err != nil {
			return nil, err
		}
		swept, err := r.Profiles()
		if err != nil {
			return nil, err
		}
		for j, i := range missing {
			out[i] = swept[j]
		}
		return out, nil
	}
	byName := make(map[string]*trace.Kernel, len(es))
	var tasks []gridplan.Task
	for _, e := range es {
		byName[e.kernel.Name] = e.kernel
		tasks = append(tasks, e.plan(cfg, opts).Tasks...)
	}
	ms, err := RunVerifiedTasks(cfg, byName, tasks, opts)
	if err != nil {
		return nil, err
	}
	shares := map[string][]gridplan.Measurement{}
	for _, m := range ms {
		shares[m.Kernel] = append(shares[m.Kernel], m)
	}
	for j, i := range missing {
		e := es[j]
		pr, err := MergeShards(e.kernel.Name, shares[e.kernel.Name])
		if err == nil && s.Dir != "" {
			err = s.save(e, pr)
		}
		if err != nil {
			return nil, err
		}
		out[i].Profile = pr
	}
	return out, nil
}
