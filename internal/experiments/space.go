package experiments

import (
	"context"

	"poise/internal/profile"
	"poise/internal/reuse"
	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/trace"
)

// SpaceResult is a profiled {N, p} solution space with the marker
// points the paper's Fig. 2 annotates: the CCWS/SWL diagonal optimum,
// the point a PCAL-style search converges to, and the global optimum.
type SpaceResult struct {
	Profile *profile.Profile
	CCWS    profile.Point
	PCAL    profile.Point
	Max     profile.Point
	// Curves for Fig. 2b: speedup along p = N and along p = 1.
	DiagonalN []int
	Diagonal  []float64
	P1N       []int
	P1        []float64
}

// Fig2 reproduces the solution-space dissection of an ii kernel: the
// full profile, the CCWS diagonal peak, the tuple a PCAL-style search
// (parallel p, then unit hill-climb in N from the CCWS point) reaches,
// and the global optimum — demonstrating the local-optimum trap of
// §III-C.
func (h *Harness) Fig2() (*SpaceResult, error) {
	k := h.Cat.Must("ii").Kernels[0]
	return h.spaceFor(k)
}

func (h *Harness) spaceFor(k *trace.Kernel) (*SpaceResult, error) {
	// The whole space is rendered and walked: always exhaustive.
	pr, err := h.KernelProfileFull(k)
	if err != nil {
		return nil, err
	}
	res := &SpaceResult{Profile: pr}
	res.Max = pr.Best()
	res.CCWS = pr.BestDiagonal()
	res.PCAL = simulatePCALSearch(pr, res.CCWS)

	for _, pt := range pr.Points {
		if pt.N == pt.P {
			res.DiagonalN = append(res.DiagonalN, pt.N)
			res.Diagonal = append(res.Diagonal, pt.Speedup)
		}
		if pt.P == 1 {
			res.P1N = append(res.P1N, pt.N)
			res.P1 = append(res.P1, pt.Speedup)
		}
	}
	return res, nil
}

// simulatePCALSearch walks the profile the way PCAL's dynamic search
// walks hardware: from the CCWS point, pick the best p at fixed N
// (the parallel-p trial), then hill-climb N at the profile's grid
// resolution until no neighbour improves. Operating on the static
// profile isolates the search pathology from sampling noise.
func simulatePCALSearch(pr *profile.Profile, start profile.Point) profile.Point {
	cur := start
	// Parallel p: best swept p for the starting N.
	for _, pt := range pr.Points {
		if pt.N == cur.N && pt.Speedup > cur.Speedup {
			cur = pt
		}
	}
	// Hill-climb N at fixed p, following the swept grid neighbours.
	improved := true
	for improved {
		improved = false
		for _, pt := range pr.Points {
			if pt.P != cur.P {
				continue
			}
			if abs(pt.N-cur.N) == 0 || !isGridNeighbor(pr, cur.N, pt.N) {
				continue
			}
			if pt.Speedup > cur.Speedup {
				cur = pt
				improved = true
			}
		}
	}
	return cur
}

// isGridNeighbor reports whether b is the next swept N after/before a.
func isGridNeighbor(pr *profile.Profile, a, b int) bool {
	if a == b {
		return false
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, pt := range pr.Points {
		if pt.N > lo && pt.N < hi {
			return false
		}
	}
	return true
}

// ScoringResult backs Fig. 5: the max-performance versus max-score
// tuples of a kernel under the Eq. 12 neighbourhood scoring.
type ScoringResult struct {
	Kernel         string
	MaxPerf        profile.Point
	MaxScore       profile.Point
	MaxScoreValue  float64
	PerfAtMaxScore float64
}

// Fig5 scores two ii-family kernels, showing how the target picked for
// training backs away from performance cliffs.
func (h *Harness) Fig5() ([]ScoringResult, error) {
	ii := h.Cat.Must("ii")
	var out []ScoringResult
	for _, k := range []*trace.Kernel{ii.Kernels[1], ii.Kernels[3]} {
		pr, err := h.KernelProfile(k)
		if err != nil {
			return nil, err
		}
		best, score := pr.BestScore(h.Params)
		out = append(out, ScoringResult{
			Kernel:         k.Name,
			MaxPerf:        pr.Best(),
			MaxScore:       best,
			MaxScoreValue:  score,
			PerfAtMaxScore: best.Speedup,
		})
	}
	return out, nil
}

// LocalityRow is one workload of Fig. 4: the hit-rate split at (max, 1)
// against the baseline, with reuse characteristics.
type LocalityRow struct {
	Workload  string
	Hp        float64 // hit rate of the polluting warps at (max, 1)
	Hnp       float64 // hit rate of the non-polluting warps
	Ho        float64 // baseline net hit rate
	IntraPct  float64 // intra-warp hits as % of baseline hits
	InterPct  float64
	ReuseDist float64 // mean stack distance R of a single warp's stream
	DeltaHpHo float64 // the Delta h_{p/o} the feature analysis keys on
}

// Fig4 reproduces the locality dissection on ii, bfs, syr2k and cfd,
// one worker per workload.
func (h *Harness) Fig4() ([]LocalityRow, error) {
	names := []string{"ii", "bfs", "syr2k", "cfd"}
	return runner.MapSlice(h.ctx(), h.Opt.Workers, names,
		func(_ context.Context, _ int, name string) (LocalityRow, error) {
			w := h.Cat.Must(name)
			k := w.Kernels[0]
			g, err := sim.New(h.Cfg)
			if err != nil {
				return LocalityRow{}, err
			}
			maxN := h.Cfg.WarpsPerSched
			base, err := g.Run(k, sim.Fixed{N: maxN, P: maxN}, sim.RunOptions{})
			if err != nil {
				return LocalityRow{}, err
			}
			red, err := g.Run(k, sim.Fixed{N: maxN, P: 1}, sim.RunOptions{})
			if err != nil {
				return LocalityRow{}, err
			}
			row := LocalityRow{
				Workload: name,
				Hp:       red.L1.PolluteHitRate(),
				Hnp:      red.L1.NoPollHitRate(),
				Ho:       base.L1.HitRate(),
			}
			if base.L1.Hits > 0 {
				row.IntraPct = 100 * float64(base.L1.IntraWarpHits) / float64(base.L1.Hits)
				row.InterPct = 100 * float64(base.L1.InterWarpHits) / float64(base.L1.Hits)
			}
			row.ReuseDist = kernelReuseDistance(k, 30000)
			row.DeltaHpHo = row.Hp - row.Ho
			return row, nil
		})
}

// kernelReuseDistance replays one warp's load-address stream through
// the stack-distance profiler and returns the mean finite distance —
// the R statistic of Fig. 4. Consecutive touches of the same line
// (intra-line spatial locality) are collapsed first: R characterises
// the distinct-line footprint between reuses, not element strides.
func kernelReuseDistance(k *trace.Kernel, accesses int) float64 {
	p := reuse.NewProfiler(1 << 14)
	ctx := trace.Ctx{GlobalWarp: 0}
	n := 0
	last := map[int]uint64{}
	// The replay may run past the kernel's own iteration count: R is a
	// property of the access pattern, and the big shared regions need a
	// long window before their reuses register at all.
	for it := 0; n < accesses; it++ {
		for _, ins := range k.Body {
			if ins.Kind != trace.OpLoad {
				continue
			}
			line := k.Patterns[ins.Slot].Addr(ctx, it) / trace.LineBytes
			// Collapse each slot's dwell runs (intra-line spatial
			// locality): R characterises distinct-line reuse.
			if prev, ok := last[ins.Slot]; ok && prev == line {
				continue
			}
			last[ins.Slot] = line
			p.Touch(line)
			n++
		}
	}
	return p.MeanDistance()
}

// CaseStudyResult backs Fig. 17: the bfs static profile plus the tuples
// Poise chose at runtime.
type CaseStudyResult struct {
	Profile   *profile.Profile
	Predicted []sim.TupleEvent // raw HIE predictions
	Converged []sim.TupleEvent // tuples after local search
}

// Fig17 runs the case study on the unseen bfs workload.
func (h *Harness) Fig17() (*CaseStudyResult, error) {
	w := h.Cat.Must("bfs")
	k := w.Kernels[0]
	// The case study renders the full space: always exhaustive.
	pr, err := h.KernelProfileFull(k)
	if err != nil {
		return nil, err
	}
	pol, err := h.PoisePolicy()
	if err != nil {
		return nil, err
	}
	g, err := sim.New(h.Cfg)
	if err != nil {
		return nil, err
	}
	g.TraceTuples = true
	res, err := g.Run(k, pol, sim.RunOptions{})
	if err != nil {
		return nil, err
	}
	out := &CaseStudyResult{Profile: pr}
	for _, ev := range res.TupleLog {
		if ev.Predicted {
			out.Predicted = append(out.Predicted, ev)
		}
	}
	out.Converged = convergedTuples(res.TupleLog)
	return out, nil
}

// convergedTuples extracts the tuple pinned at the end of each search:
// the last SetTuple an SM issued after a prediction and before its next
// prediction (or the log end). Steering before the first prediction
// (kernel-start and feature-window tuples) does not count.
func convergedTuples(log []sim.TupleEvent) []sim.TupleEvent {
	var out []sim.TupleEvent
	lastBySM := map[int]*sim.TupleEvent{}
	predicted := map[int]bool{}
	flush := func(smID int) {
		if ev := lastBySM[smID]; ev != nil {
			out = append(out, *ev)
			lastBySM[smID] = nil
		}
	}
	for i := range log {
		ev := log[i]
		if ev.Predicted {
			flush(ev.SM)
			predicted[ev.SM] = true
			continue
		}
		if predicted[ev.SM] {
			lastBySM[ev.SM] = &log[i]
		}
	}
	for smID := range lastBySM {
		flush(smID)
	}
	return out
}

// abs is shared by the space helpers.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
