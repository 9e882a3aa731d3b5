package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/sim"
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
// both properties). They are part of SweepTag, so changing one re-keys
// every cached refined profile.
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

// rankWeights are the Eq. 12 neighbourhood weights the refinement ranks
// points by: Table IV's (config.DefaultPoise).
func rankWeights() (w0, w1, w2 float64) {
	p := config.DefaultPoise()
	return p.ScoreW0, p.ScoreW1, p.ScoreW2
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

// refinePlan computes refinement round `round` of e's kernel as an
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
func refinePlan(e entry, cfg config.Config, opts SweepOptions, round int, prior []gridplan.Measurement) (*gridplan.Plan, bool, error) {
	opts = opts.withDefaults()
	k := e.kernel
	maxN := sim.KernelMaxN(cfg, k)
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
	if len(prior) == 0 {
		want = coarseRound(maxN, opts)
	} else {
		// Assembled whatever the round, so measurements no profile can
		// be made of (two tags, no baseline) are refused here, where a
		// resumed refinement looks, and not when it has converged.
		pr, err := MergeShards(k.Name, prior)
		if err != nil {
			return nil, false, fmt.Errorf("profile: refining %s: %w", k.Name, err)
		}
		if round >= maxRounds || flat(pr) {
			// Out of rounds; or the whole observed space is flat to
			// within noise: throttling does not move this kernel, so its
			// "optimum" is a noise argmax only the full grid can
			// reproduce exactly.
			want = inGrid
		} else {
			want = refineWants(pr, grid, opts)
		}
	}

	plan := &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, c := range grid { // deterministic Enumerate order
		if want[c] && !swept[c] {
			plan.Tasks = append(plan.Tasks, e.task(c))
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
func refineWants(pr *Profile, grid []gridplan.Coord, opts SweepOptions) map[gridplan.Coord]bool {
	w0, w1, w2 := rankWeights()
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
		s, ok := pr.Score(pt.N, pt.P, w0, w1, w2)
		if !ok {
			continue
		}
		byScore = append(byScore, scored{pt, s})
	}
	sort.SliceStable(byScore, func(i, j int) bool {
		return byScore[i].score > byScore[j].score
	})

	// The expansion reach: one target grid step (refinePlan's opts are
	// withDefaults', so never below the 1-cell score neighbourhood).
	reachN, reachP := opts.StepN, opts.StepP

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
	// to target resolution just like Best does.
	diagonal := suppress(bySpeedup, narrowK, reachN, reachP,
		func(pt Point) bool { return pt.N == pt.P })
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

// Refinement is the refined sweep of a set of kernels as a state
// machine: Next builds the next round's plan across every kernel that
// has not converged (refinePlan, kernel by kernel), Fold takes
// that round's measurements back, Profiles assembles what converged.
// Whoever executes the plans (run here, a fleet's workers behind
// fleet.RefineCampaign), a round is the same pure function of the
// measurements so far: same plans, same round files, same profiles.
type Refinement struct {
	cfg    config.Config
	opts   SweepOptions
	store  Store // completed rounds persist here when it has a directory
	states []*refineState
	asked  *gridplan.Plan // what Next returned last
}

type refineState struct {
	entry
	round int                    // completed rounds, resumed ones included
	prior []gridplan.Measurement // their measurements, merged
	asked []gridplan.Task        // this kernel's share of what Next returned last
	stats RefineStats            // what this Refinement simulated, not what it resumed
	done  bool
}

// Swept is one kernel's profile as a sweep returns it. Stats is what a
// refinement simulated for it: zero for a cached or whole-grid profile.
type Swept struct {
	Profile *Profile
	Stats   RefineStats
}

// NewRefinement starts the refinement of the given kernels (distinct
// names; opts.Refine is implied). Rounds the store holds under a
// kernel's Key are resumed; ones that cannot be extended (mixed grids,
// duplicate coverage, another resolution's points) are a corrupt cache
// entry: that kernel starts from round 0, overwriting them.
func NewRefinement(cfg config.Config, kernels []*trace.Kernel, opts SweepOptions, store Store) *Refinement {
	opts.Refine = true
	tag := SweepTag(cfg, opts)
	es := make([]entry, len(kernels))
	for i, k := range kernels {
		es[i] = newEntry(tag, k)
	}
	return newRefinement(cfg, es, opts, store)
}

func newRefinement(cfg config.Config, es []entry, opts SweepOptions, store Store) *Refinement {
	opts = opts.withDefaults()
	r := &Refinement{cfg: cfg, opts: opts, store: store}
	for _, e := range es {
		st := &refineState{entry: e}
		st.stats.GridPoints = len(gridplan.Enumerate(sim.KernelMaxN(cfg, e.kernel), opts.StepN, opts.StepP))
		if rounds := store.loadRounds(e); len(rounds) > 0 {
			if prior, err := gridplan.Merge(rounds...); err == nil {
				if _, _, err := refinePlan(e, cfg, opts, len(rounds), prior); err == nil {
					st.round, st.prior = len(rounds), prior
				}
			}
		}
		r.states = append(r.states, st)
	}
	return r
}

// Next returns the next round's plan: what BuildRefinePlan asks for,
// for every kernel that has not converged, in kernel order. A plan
// without tasks means every kernel has.
func (r *Refinement) Next() (*gridplan.Plan, error) {
	r.asked = &gridplan.Plan{Version: gridplan.PlanVersion}
	for _, st := range r.states {
		if st.done {
			continue
		}
		kp, done, err := refinePlan(st.entry, r.cfg, r.opts, st.round, st.prior)
		if err != nil {
			return nil, err
		}
		st.done, st.asked = done, kp.Tasks
		r.asked.Tasks = append(r.asked.Tasks, kp.Tasks...)
	}
	return r.asked, nil
}

// Fold takes the measurements of the plan Next returned last, all of
// them and no others, in any order: each kernel's share becomes its next
// completed round, in the order Next planned it whoever ran it, and is
// persisted when the store has a directory.
func (r *Refinement) Fold(ms []gridplan.Measurement) error {
	if err := r.asked.Verify(ms); err != nil {
		return err
	}
	byKey := make(map[string]gridplan.Measurement, len(ms))
	for _, m := range ms {
		byKey[m.Key()] = m
	}
	for _, st := range r.states {
		if len(st.asked) == 0 {
			continue // converged: nothing was asked
		}
		round := make([]gridplan.Measurement, len(st.asked))
		for i, t := range st.asked {
			round[i] = byKey[t.Key()]
		}
		if r.store.Dir != "" {
			if err := r.store.saveRound(st.entry, st.round, round); err != nil {
				return err
			}
		}
		merged, err := gridplan.Merge(st.prior, round)
		if err != nil {
			return err
		}
		st.prior = merged
		st.round++
		st.stats.Rounds++
		st.stats.Simulated += len(round)
	}
	return nil
}

// run drives the refinement to convergence in this process, every
// round's tasks of every kernel on one opts.Workers-wide pool (its own
// tasks, built from these kernels' digests: nothing to verify).
func (r *Refinement) run() error {
	kernels := make(map[string]*trace.Kernel, len(r.states))
	for _, st := range r.states {
		kernels[st.kernel.Name] = st.kernel
	}
	for {
		plan, err := r.Next()
		if err != nil || len(plan.Tasks) == 0 {
			return err
		}
		ms, err := RunVerifiedTasks(r.cfg, kernels, plan.Tasks, r.opts)
		if err != nil {
			return err
		}
		if err := r.Fold(ms); err != nil {
			return err
		}
	}
}

// Profiles assembles the converged kernels' profiles, in kernel order,
// from every round: the ones this Refinement ran and the ones it
// resumed. A store with a directory, the one the rounds persist in,
// gets each saved under its Key.
func (r *Refinement) Profiles() ([]Swept, error) {
	out := make([]Swept, len(r.states))
	for i, st := range r.states {
		if !st.done {
			return nil, fmt.Errorf("profile: refinement of %s has not converged", st.kernel.Name)
		}
		pr, err := MergeShards(st.kernel.Name, st.prior)
		if err != nil {
			return nil, err
		}
		if r.store.Dir != "" {
			if err := r.store.save(st.entry, pr); err != nil {
				return nil, err
			}
		}
		out[i] = Swept{Profile: pr, Stats: st.stats}
	}
	return out, nil
}

// Round partial persistence: a pruned sweep's completed rounds are
// cached as one measurement JSONL file per entry and round, so a
// crashed sweep or fleet campaign resumes from the last completed round
// instead of re-simulating from scratch.

func (s Store) roundPath(e entry, round int) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s.prune%03d.jsonl", e.name(), round))
}

// saveRound persists one completed refinement round's measurements
// (s has a directory: Fold asks only then).
func (s Store) saveRound(e entry, round int, ms []gridplan.Measurement) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	return gridplan.WriteMeasurementsFile(s.roundPath(e, round), round, round+1, ms)
}

// loadRounds returns the longest readable prefix of persisted
// refinement rounds of e: rounds 0..r-1 where round r is the first
// missing or corrupt file. A truncated write from a crashed run
// therefore costs exactly the rounds from the damaged file on, never a
// wrong resume.
func (s Store) loadRounds(e entry) [][]gridplan.Measurement {
	if s.Dir == "" {
		return nil
	}
	var rounds [][]gridplan.Measurement
	for round := 0; ; round++ {
		ms, err := gridplan.ReadMeasurementsFile(s.roundPath(e, round))
		if err != nil {
			return rounds
		}
		rounds = append(rounds, ms)
	}
}
