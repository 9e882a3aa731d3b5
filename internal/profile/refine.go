package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/trace"
)

// Adaptive coarse-to-fine sweep pruning. The paper only ever consumes
// three things from a solution-space profile — the global optimum
// (Static-Best), the best p == N diagonal point (SWL) and the Eq. 12
// neighbourhood-score optimum (the training target) — so exhaustively
// simulating the whole {N, p} grid is mostly dead weight. The refiner
// sweeps a coarse sub-grid first (round 0, with the mandatory p == N
// diagonal, the corner points the figures reference, and an extra
// low-p column where throttling profiles concentrate structure), then
// repeatedly ranks the swept points by speedup and by Eq. 12 score
// and expands only the top-ranked, basin-distinct neighbourhoods to
// the target resolution, terminating when another round would add
// nothing — by construction that means the incumbent optimum's 3x3
// neighbourhood is fully swept, so its score is exact.
//
// Every round is an ordinary gridplan-backed task plan, so refinement
// composes with the fleet: a round is served as one plan generation,
// leased out across worker processes and merged back — the next
// round's plan is a pure function of the merged measurements so far,
// which are bit-identical at any worker count.

// The refinement's fixed parameters, chosen so the catalogue workloads
// converge to the exact exhaustive-sweep optima while simulating well
// under half of the grid (TestPrunedMatchesExhaustiveOnCatalogue pins
// both properties). They are part of RefineOptions.Tag, so changing one
// re-keys every cached refined profile.
const (
	// coarseN/coarseP multiply the target StepN/StepP for the round-0
	// sub-grid: every third target column/row.
	coarseN, coarseP = 3, 3
	// topK bounds how many candidates each ranking criterion (speedup,
	// Eq. 12 score) nominates per round.
	topK = 3
	// maxRounds is the safety valve: a refinement still unconverged
	// after this many rounds sweeps the whole remaining grid in one
	// final round, so the result can degrade to the exhaustive sweep
	// but never to a wrong one.
	maxRounds = 8
	// flatTol is the escalation threshold for throttling-insensitive
	// kernels: when no point the coarse pass observed beats the
	// baseline by more than this fraction, throttling does not help
	// the kernel, its "optimum" is a noise argmax no local search can
	// find, and the refiner escalates to the full grid. The
	// compute-intensive catalogue workloads take this path; the
	// memory-sensitive ones clear the threshold by an order of
	// magnitude.
	flatTol = 0.02
)

// RefineOptions is what differs between the refined sweeps' callers;
// everything else about the refinement is the constants above.
type RefineOptions struct {
	// W0/W1/W2 are the Eq. 12 neighbourhood weights used for ranking.
	// They are one unit: leave all three zero for the Table IV
	// defaults (config.DefaultPoise), or set all three explicitly —
	// a partially-set triple is used exactly as given.
	W0, W1, W2 float64
	// SkipDiagonal drops the p == N diagonal climb from refinement.
	// Training sweeps want this: BuildDataset's targets only consume
	// the scored optimum (Best + its Eq. 12 neighbourhood) and the
	// baseline, never BestDiagonal, so climbing the SWL front is dead
	// weight there. Evaluation sweeps (Table IIIa, the SWL rows of the
	// figures) must leave it false.
	SkipDiagonal bool
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.W0 == 0 && o.W1 == 0 && o.W2 == 0 {
		p := config.DefaultPoise()
		o.W0, o.W1, o.W2 = p.ScoreW0, p.ScoreW1, p.ScoreW2
	}
	return o
}

// Tag digests every parameter that shapes which grid points a pruned
// sweep simulates, after defaulting — the cache-key component for
// pruned campaigns. Two campaigns differing in any refinement
// parameter (coarse factors, front widths, round cap, flatness
// threshold, ranking weights) must never share cached profiles or
// round partials, because their pruned subsets differ.
func (o RefineOptions) Tag() string {
	r := o.withDefaults()
	tag := fmt.Sprintf("%d.%d.%d.%d.%g.%g.%g.%g",
		coarseN, coarseP, topK, maxRounds, flatTol, r.W0, r.W1, r.W2)
	if r.SkipDiagonal {
		// Appended rather than folded into the base format so existing
		// cached campaigns (all diagonal-inclusive) keep their keys.
		tag += ".nodiag"
	}
	return tag
}

// RefineStats reports what a pruned sweep actually simulated.
type RefineStats struct {
	Rounds     int // refinement rounds executed
	Simulated  int // grid points simulated across all rounds
	GridPoints int // size of the exhaustive grid at the target resolution
}

// Fraction returns Simulated / GridPoints.
func (s RefineStats) Fraction() float64 {
	if s.GridPoints == 0 {
		return 0
	}
	return float64(s.Simulated) / float64(s.GridPoints)
}

// SweepBooks adds up what the refined sweeps of a Store simulated (see
// Store.Books). It is safe for concurrent use.
type SweepBooks struct {
	mu        sync.Mutex
	total     RefineStats
	escalated int
}

func (b *SweepBooks) add(st RefineStats, wholeGrid bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.total.Rounds += st.Rounds
	b.total.Simulated += st.Simulated
	b.total.GridPoints += st.GridPoints
	if wholeGrid {
		b.escalated++
	}
	b.mu.Unlock()
}

// Totals returns the summed stats and how many of the sweeps ended up
// covering their whole grid (a flat space escalates to it; so does a
// grid too small to prune).
func (b *SweepBooks) Totals() (total RefineStats, escalated int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total, b.escalated
}

// kernelMaxN mirrors BuildPlan's warp bound: the configuration's
// per-scheduler limit, clipped by the kernel's own occupancy bound.
func kernelMaxN(cfg config.Config, k *trace.Kernel) int {
	maxN := cfg.WarpsPerSched
	if k.MaxWarpsPerSched > 0 && k.MaxWarpsPerSched < maxN {
		maxN = k.MaxWarpsPerSched
	}
	return maxN
}

// BuildRefinePlan computes refinement round `round` of kernel k as an
// ordinary sweep plan, given every measurement observed in earlier
// rounds (merged across rounds and workers). It is a pure function of
// its arguments — measurements are bit-identical at any worker count,
// so a fleet campaign derives the round a single process would. done
// reports convergence: the returned plan is empty and prior already
// covers everything another round would ask for, so the profile can be
// assembled.
//
// Round 0 (prior empty) is the coarse sub-grid at coarseN/coarseP
// times the target steps — the p == N diagonal and the corner points
// included at coarse resolution — plus the second p column at the
// coarse rows. Later rounds rank the swept points by speedup and by
// Eq. 12 score on the partial profile and expand the top candidates'
// neighbourhoods (see refineWants), re-ranking each round until a
// round adds nothing. A space that turns out flat to within flatTol
// escalates to the full grid, and rounds past maxRounds request the
// whole remaining grid at once — either way the result degrades to
// the exhaustive sweep, never to a wrong profile.
func BuildRefinePlan(tag string, cfg config.Config, k *trace.Kernel, opts SweepOptions, round int, prior []gridplan.Measurement) (*gridplan.Plan, bool, error) {
	opts = opts.withDefaults()
	ropts := opts.refineOptions()
	maxN := kernelMaxN(cfg, k)
	grid := gridplan.Enumerate(maxN, opts.StepN, opts.StepP)
	inGrid := map[gridplan.Coord]bool{}
	for _, c := range grid {
		inGrid[c] = true
	}
	swept := map[gridplan.Coord]bool{}
	for _, m := range prior {
		c := gridplan.Coord{N: m.N, P: m.P}
		if !inGrid[c] {
			return nil, false, fmt.Errorf(
				"profile: refining %s: prior measurement (%d,%d) is not on the %d-step/%d-step grid (stale rounds from another resolution?)",
				k.Name, m.N, m.P, opts.StepN, opts.StepP)
		}
		swept[c] = true
	}

	var want map[gridplan.Coord]bool
	switch {
	case len(prior) == 0:
		want = coarseRound(maxN, opts)
	case round >= maxRounds:
		want = inGrid
	default:
		pr, err := MergeShards(k.Name, prior)
		if err != nil {
			return nil, false, fmt.Errorf("profile: refining %s: %w", k.Name, err)
		}
		if flat(pr) {
			// The whole observed space is flat to within noise:
			// throttling does not move this kernel, so its "optimum" is
			// a noise argmax only the full grid can reproduce exactly.
			want = inGrid
		} else {
			want = refineWants(pr, grid, opts, ropts)
		}
	}

	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	digest := gridplan.KernelDigest(k)
	for _, c := range grid { // deterministic Enumerate order
		if want[c] && !swept[c] {
			plan.Tasks = append(plan.Tasks, gridplan.Task{
				Tag: tag, Kernel: k.Name, Digest: digest,
				N: c.N, P: c.P, Seed: k.Seed,
			})
		}
	}
	return plan, len(plan.Tasks) == 0, nil
}

// coarseRound enumerates round 0: the coarse sub-grid (a subset of the
// target grid, since its steps are integer multiples — the mandatory
// p == N diagonal and the corner points included, via Enumerate's own
// closure rules), plus the second p column at the coarse rows. The
// low-p edge is where throttling profiles concentrate their structure
// (pollution throttling lives at small p — Fig. 2), and narrow low-p
// ridges between coarse columns are exactly what a uniform coarse
// grid misses. The diagonal starts at coarse resolution like the rest
// of the grid; refineWants climbs it to target resolution around the
// incumbent SWL optimum.
func coarseRound(maxN int, opts SweepOptions) map[gridplan.Coord]bool {
	want := map[gridplan.Coord]bool{}
	for _, c := range gridplan.Enumerate(maxN, opts.StepN*coarseN, opts.StepP*coarseP) {
		want[c] = true
		if p := 1 + opts.StepP; c.P == 1 && p <= c.N && c.N < maxN {
			want[gridplan.Coord{N: c.N, P: p}] = true
		}
	}
	want[gridplan.Coord{N: maxN, P: maxN}] = true
	return want
}

// flat reports whether throttling is indistinguishable from noise on
// the partial profile: no swept point beats the baseline (speedup 1)
// by at least flatTol.
func flat(pr *Profile) bool {
	hi := pr.Points[0].Speedup
	for _, pt := range pr.Points {
		if pt.Speedup > hi {
			hi = pt.Speedup
		}
	}
	return hi < 1+flatTol
}

// refineWants ranks the partial profile's points by speedup and by
// Eq. 12 score and returns the union of the top candidates'
// neighbourhoods: axis crosses one grid step wide for the speedup
// fronts (plus the incumbent's exact 3x3 score neighbourhood), the
// 3x3 ring of the score incumbent, and diagonal steps around the top
// diagonal points for the SWL optimum.
func refineWants(pr *Profile, grid []gridplan.Coord, opts SweepOptions, ropts RefineOptions) map[gridplan.Coord]bool {
	bySpeedup := append([]Point(nil), pr.Points...)
	sort.SliceStable(bySpeedup, func(i, j int) bool {
		return bySpeedup[i].Speedup > bySpeedup[j].Speedup
	})
	type scored struct {
		pt    Point
		score float64
	}
	byScore := make([]scored, 0, len(pr.Points))
	for _, pt := range pr.Points {
		s, ok := pr.Score(pt.N, pt.P, ropts.W0, ropts.W1, ropts.W2)
		if !ok {
			continue
		}
		byScore = append(byScore, scored{pt, s})
	}
	sort.SliceStable(byScore, func(i, j int) bool {
		return byScore[i].score > byScore[j].score
	})

	// The expansion reach: one target grid step (never below the 1-cell
	// score neighbourhood).
	reachN, reachP := opts.StepN, opts.StepP
	if reachN < 1 {
		reachN = 1
	}
	if reachP < 1 {
		reachP = 1
	}

	// Speedup candidates are picked with non-max suppression — a point
	// within one grid step of a better candidate is represented by it
	// — so the topK fronts explore distinct basins instead of crowding
	// the same ridge (two near-tied ridges are common; without
	// suppression every front climbs the one that happens to lead
	// after the coarse pass).
	climbers := suppress(bySpeedup, topK, reachN, reachP, nil)
	var topScored []Point
	for _, s := range byScore {
		topScored = append(topScored, s.pt)
	}
	// The score and diagonal fronts are cheaper searches than the full
	// 2-D climb: the score optimum tracks the speedup optimum closely
	// (one front suffices, and it only needs the 3x3 neighbourhood
	// Eq. 12 actually reads), and the diagonal is one-dimensional.
	narrowK := (topK + 1) / 2
	ringed := suppress(topScored, 1, reachN, reachP, nil)

	// The SWL optimum lives on the p == N diagonal, which round 0 only
	// sampled coarsely: climb it separately, expanding the top swept
	// diagonal points one diagonal grid step, so BestDiagonal converges
	// to target resolution just like Best does. Training sweeps skip
	// this front — nothing they derive reads BestDiagonal.
	var diagonal []Point
	if !ropts.SkipDiagonal {
		diagonal = suppress(bySpeedup, narrowK, reachN, reachP,
			func(pt Point) bool { return pt.N == pt.P })
	}
	want := map[gridplan.Coord]bool{}
	for _, g := range grid {
		for i, c := range climbers {
			dn, dp := abs(g.N-c.N), abs(g.P-c.P)
			// Every front climbs along the grid axes (a cross, not a
			// full cell — diagonal moves decompose into two axis
			// moves); the incumbent additionally sweeps its 3x3
			// absolute neighbourhood, the points Eq. 12 reads, so at
			// termination the optimum's score is exact.
			if (dn <= reachN && dp == 0) || (dn == 0 && dp <= reachP) {
				want[g] = true
			} else if i == 0 && dn <= 1 && dp <= 1 {
				want[g] = true
			}
		}
		for _, c := range ringed {
			if abs(g.N-c.N) <= 1 && abs(g.P-c.P) <= 1 {
				want[g] = true
			}
		}
		if g.N == g.P {
			for _, c := range diagonal {
				if abs(g.N-c.N) <= reachN {
					want[g] = true
				}
			}
		}
	}
	return want
}

// suppress greedily picks up to k points from the ranked slice,
// skipping any point within (reachN, reachP) of an already-picked one
// (and any not matching the filter, when given): non-max suppression,
// so the picks represent distinct neighbourhoods of the ranking.
func suppress(ranked []Point, k, reachN, reachP int, keep func(Point) bool) []Point {
	var out []Point
	for _, pt := range ranked {
		if len(out) == k {
			break
		}
		if keep != nil && !keep(pt) {
			continue
		}
		near := false
		for _, c := range out {
			if abs(pt.N-c.N) <= reachN && abs(pt.P-c.P) <= reachP {
				near = true
				break
			}
		}
		if !near {
			out = append(out, pt)
		}
	}
	return out
}

// refineOptions resolves the sweep's refinement parameters (the
// defaulted Refine field, or pure defaults when pruning was requested
// without explicit options).
func (o SweepOptions) refineOptions() RefineOptions {
	if o.Refine != nil {
		return o.Refine.withDefaults()
	}
	return RefineOptions{}.withDefaults()
}

// PrunedSweep is the adaptive counterpart of Sweep: it profiles kernel
// k by running BuildRefinePlan rounds until convergence, simulating
// only the coarse pass plus the refined neighbourhoods. The returned
// profile's Points are the subset of the exhaustive grid that was
// simulated, with speedups normalised exactly as Sweep normalises them
// (same baseline point, same float operations), so every point the two
// sweeps share is bit-identical; the refinement is tuned so that
// Best, BestDiagonal and BestScore select the same tuples as the
// exhaustive sweep (the catalogue equivalence tests pin this).
func PrunedSweep(cfg config.Config, k *trace.Kernel, opts SweepOptions) (*Profile, RefineStats, error) {
	return Store{}.refine("", cfg, k, opts, nil)
}

// refine runs the refinement of kernel k from the given completed
// rounds to convergence and assembles the profile. A store with a
// directory persists every round it runs and the assembled profile;
// the stats count what this call simulated, not the rounds it was
// handed.
func (s Store) refine(tag string, cfg config.Config, k *trace.Kernel, opts SweepOptions, rounds [][]gridplan.Measurement) (*Profile, RefineStats, error) {
	opts = opts.withDefaults()
	stats := RefineStats{GridPoints: len(gridplan.Enumerate(kernelMaxN(cfg, k), opts.StepN, opts.StepP))}
	all, err := gridplan.Merge(rounds...)
	if err != nil {
		return nil, stats, err
	}
	kernels := map[string]*trace.Kernel{k.Name: k}
	for round := len(rounds); ; round++ {
		plan, done, err := BuildRefinePlan(tag, cfg, k, opts, round, all)
		if err != nil {
			return nil, stats, err
		}
		if done {
			break
		}
		ms, err := RunTasks(cfg, kernels, plan.Tasks, opts)
		if err != nil {
			return nil, stats, err
		}
		if s.Dir != "" {
			if err := s.SaveRound(tag, k.Name, round, ms); err != nil {
				return nil, stats, err
			}
		}
		if all, err = gridplan.Merge(all, ms); err != nil {
			return nil, stats, err
		}
		stats.Rounds++
		stats.Simulated += len(ms)
	}
	pr, err := MergeShards(k.Name, all)
	if err != nil {
		return nil, stats, err
	}
	if s.Dir != "" {
		if err := s.Save(tag, pr); err != nil {
			return nil, stats, err
		}
	}
	return pr, stats, nil
}

// Round partial persistence: a pruned sweep's completed rounds are
// cached as one measurement JSONL file per (tag, kernel, round), so a
// crashed sweep or fleet campaign resumes from the last completed round
// instead of re-simulating from scratch.

func (s Store) roundPath(tag, kernel string, round int) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s_%s.prune%03d.jsonl", tag, kernel, round))
}

// SaveRound persists one completed refinement round's measurements.
func (s Store) SaveRound(tag, kernel string, round int, ms []gridplan.Measurement) error {
	if s.Dir == "" {
		return fmt.Errorf("profile: store has no directory for round partials")
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	return gridplan.WriteMeasurementsFile(s.roundPath(tag, kernel, round), round, round+1, ms)
}

// LoadRounds returns the longest readable prefix of persisted
// refinement rounds for (tag, kernel): rounds 0..r-1 where round r is
// the first missing or corrupt file. A truncated write from a crashed
// run therefore costs exactly the rounds from the damaged file on,
// never a wrong resume.
func (s Store) LoadRounds(tag, kernel string) [][]gridplan.Measurement {
	if s.Dir == "" {
		return nil
	}
	var rounds [][]gridplan.Measurement
	for round := 0; ; round++ {
		ms, err := gridplan.ReadMeasurementsFile(s.roundPath(tag, kernel, round))
		if err != nil {
			return rounds
		}
		rounds = append(rounds, ms)
	}
}

// loadOrPrunedSweep is LoadOrSweep's adaptive path: resume from any
// cached rounds, run the remaining rounds (persisting each), and cache
// the assembled profile. Stale or inconsistent round files (e.g. from
// a run with different refinement parameters) restart the refinement
// from round 0 rather than failing.
func (s Store) loadOrPrunedSweep(tag string, cfg config.Config, k *trace.Kernel, opts SweepOptions) (*Profile, error) {
	rounds := s.LoadRounds(tag, k.Name)
	pr, stats, err := s.refine(tag, cfg, k, opts, rounds)
	if err != nil && len(rounds) > 0 {
		// Cached rounds that cannot be extended (mixed grids, duplicate
		// coverage) are treated like a corrupt cache entry: re-sweep
		// from scratch and overwrite them.
		pr, stats, err = s.refine(tag, cfg, k, opts, nil)
	}
	if err != nil {
		return nil, err
	}
	s.Books.add(stats, len(pr.Points) == stats.GridPoints)
	return pr, nil
}
