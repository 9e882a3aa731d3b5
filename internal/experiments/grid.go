package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/results"
	"poise/internal/runner"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// The unified experiment-grid engine. Every workload × scheme grid of
// the evaluation — the Fig. 7/8/9 scheme comparison, the sensitivity
// figures and the Pbest classification table — is expressed as
// gridplan.CellTasks and runs through one pipeline:
//
//	CellPlan    -> the serialisable grid (what a fleet coordinator serves)
//	RunCellTasks-> execute cells on pooled per-configuration GPUs
//	GridCells   -> in-process run, or the merged cached cells
//
// Exactly like profile sweeps, merging any decomposition of the plan is
// reflect.DeepEqual-identical to the in-process grid, so fanning a
// figure out across fleet workers can never change it. The figure
// methods (Performance, Fig11, ...) are pure assembly over the merged
// cells.

// gridDef defines one experiment grid: its workload axis, its scheme
// axis in documented order, a prepare step that materialises shared
// artifacts (profiles, model weights) before the fan-out, and the cell
// executor.
type gridDef struct {
	desc      string
	workloads func(h *Harness) []*sim.Workload
	schemes   func(h *Harness) []string
	prepare   func(h *Harness) error
	run       func(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error)
}

// Shared axis definitions (also used by the figure assembly code).
var (
	// strideSettings are Fig. 11's local-search stride (εN, εp)
	// settings, including the pure-prediction (0, 0) case.
	strideSettings = [][2]int{{0, 0}, {1, 1}, {2, 2}, {2, 4}, {4, 4}}
	// cacheSizesKB are Fig. 12's evaluation L1 capacities.
	cacheSizesKB = []int{16, 32, 64}
	// fig13Dropped are the ablated feature indices in paper order
	// (x7, x6, x5, x4, x3).
	fig13Dropped = []int{6, 5, 4, 3, 2}
)

func strideScheme(st [2]int) string { return fmt.Sprintf("stride%d.%d", st[0], st[1]) }
func dropScheme(d int) string       { return fmt.Sprintf("drop-x%d", d+1) }

// gridDefs registers every experiment grid. Scheme slices are returned
// fresh per call (they are the documented axis order, never sorted).
var gridDefs = map[string]gridDef{
	"scheme": {
		desc:      "Fig. 7-10/14: evaluation workloads under every comparison scheme",
		workloads: func(h *Harness) []*sim.Workload { return h.EvalWorkloads() },
		schemes:   func(h *Harness) []string { return append([]string(nil), SchemeNames...) },
		prepare: func(h *Harness) error {
			if _, err := h.WorkloadProfiles(h.EvalWorkloads()); err != nil {
				return err
			}
			_, err := h.ModelWeights()
			return err
		},
		run: runSchemeCell,
	},
	"stride": {
		desc:      "Fig. 11: local-search stride sensitivity",
		workloads: func(h *Harness) []*sim.Workload { return h.EvalWorkloads() },
		schemes: func(h *Harness) []string {
			s := []string{"GTO"}
			for _, st := range strideSettings {
				s = append(s, strideScheme(st))
			}
			return s
		},
		prepare: prepWeights,
		run:     runStrideCell,
	},
	"cachesize": {
		desc:      "Fig. 12: L1 cache-size sensitivity (linear indexing)",
		workloads: func(h *Harness) []*sim.Workload { return h.EvalWorkloads() },
		schemes: func(h *Harness) []string {
			var s []string
			for _, kb := range cacheSizesKB {
				s = append(s, fmt.Sprintf("GTO-%dKB", kb), fmt.Sprintf("Poise-%dKB", kb))
			}
			return s
		},
		prepare: prepWeights,
		run:     runCacheSizeCell,
	},
	"ablation": {
		desc:      "Fig. 13: feature-ablation sensitivity (no local search)",
		workloads: func(h *Harness) []*sim.Workload { return h.EvalWorkloads() },
		schemes: func(h *Harness) []string {
			s := []string{"full"}
			for _, d := range fig13Dropped {
				s = append(s, dropScheme(d))
			}
			return s
		},
		prepare: func(h *Harness) error {
			_, err := h.Dataset()
			return err
		},
		run: runAblationCell,
	},
	"alternatives": {
		desc:      "Fig. 15: APCM and random-restart search against Poise",
		workloads: func(h *Harness) []*sim.Workload { return h.EvalWorkloads() },
		schemes: func(h *Harness) []string {
			s := []string{"GTO", "APCM"}
			for i := 1; i <= h.Opt.RandomSeeds; i++ {
				s = append(s, fmt.Sprintf("random-%d", i))
			}
			return append(s, "Poise")
		},
		prepare: prepWeights,
		run:     runAlternativesCell,
	},
	"compute": {
		desc:      "Fig. 16: compute-intensive workloads under GTO, Poise and the Pbest probe",
		workloads: func(h *Harness) []*sim.Workload { return h.Cat.ComputeSet() },
		schemes:   func(h *Harness) []string { return []string{"GTO", "Poise", "Pbest"} },
		prepare:   prepWeights,
		run:       runComputeCell,
	},
	"pbest": {
		desc:      "Table IIIa: Pbest classification (64x-L1 speedup) for every workload",
		workloads: func(h *Harness) []*sim.Workload { return h.pbestWorkloads() },
		schemes:   func(h *Harness) []string { return []string{"GTO", "Pbest"} },
		run:       runComputeCell, // GTO and Pbest cells are the same probes
	},
}

// GridNames lists the experiment grids in sorted order.
func GridNames() []string {
	var names []string
	for n := range gridDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GridDescription returns a grid's one-line description ("" if the
// grid does not exist).
func GridDescription(name string) string { return gridDefs[name].desc }

func prepWeights(h *Harness) error {
	_, err := h.ModelWeights()
	return err
}

// runCellOn executes one cell's workload under one policy on a GPU of
// configuration cfg drawn from the process-wide pool — the
// reset-verified reuse discipline that makes pooled cells bit-identical
// to fresh-GPU runs — through the harness's run memo, which answers a
// tuple-pinned cell that a sweep point or another cell already ran.
func (h *Harness) runCellOn(cfg config.Config, wl *sim.Workload, pol sim.Policy) (results.CellResult, error) {
	g, err := sim.Acquire(cfg)
	if err != nil {
		return results.CellResult{}, err
	}
	res, err := g.RunWorkloadCached(wl, pol, sim.RunOptions{}, h.memo)
	sim.Release(g)
	if err != nil {
		return results.CellResult{}, err
	}
	return results.CellResult{Result: res}, nil
}

// schemePolicy builds the policy of one Fig. 7-10/14 comparison scheme:
// a fresh instance per call (the adaptive policies are stateful).
func (h *Harness) schemePolicy(scheme string) (sim.Policy, error) {
	switch scheme {
	case "GTO":
		return sim.GTO{}, nil
	case "SWL", "PCAL-SWL", "Static-Best":
		profs, err := h.WorkloadProfiles(h.EvalWorkloads())
		if err != nil {
			return nil, err
		}
		switch scheme {
		case "SWL":
			return sched.SWL(profs), nil
		case "PCAL-SWL":
			return sched.NewPCALSWL(sched.SWLFromProfiles(profs),
				h.Params.TWarmup, h.Params.TFeature, h.Params.TPeriod), nil
		}
		return sched.StaticBest(profs), nil
	case "Poise":
		pp, err := h.PoisePolicy()
		if err != nil {
			return nil, err
		}
		return pp, nil
	}
	return nil, fmt.Errorf("experiments: unknown comparison scheme %q", scheme)
}

// runSchemeCell executes one Fig. 7-10/14 cell.
func runSchemeCell(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error) {
	pol, err := h.schemePolicy(scheme)
	if err != nil {
		return results.CellResult{}, err
	}
	cr, err := h.runCellOn(h.Cfg, wl, pol)
	if err != nil {
		return cr, fmt.Errorf("experiments: %s under %s: %w", wl.Name, scheme, err)
	}
	if pp, ok := pol.(*poise.Policy); ok {
		cr.DispN, cr.DispP, cr.DispE, cr.HasDisp = pp.Displacement()
	}
	return cr, nil
}

// runStrideCell executes one Fig. 11 cell: the GTO baseline or Poise
// at one local-search stride setting.
func runStrideCell(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error) {
	if scheme == "GTO" {
		return h.runCellOn(h.Cfg, wl, sim.GTO{})
	}
	for _, st := range strideSettings {
		if strideScheme(st) != scheme {
			continue
		}
		w, err := h.ModelWeights()
		if err != nil {
			return results.CellResult{}, err
		}
		params := h.Params
		params.StrideN, params.StrideP = st[0], st[1]
		cr, err := h.runCellOn(h.Cfg, wl, poise.NewPolicy(params, w))
		if err != nil {
			return cr, fmt.Errorf("experiments: stride %v on %s: %w", st, wl.Name, err)
		}
		return cr, nil
	}
	return results.CellResult{}, fmt.Errorf("experiments: unknown stride scheme %q", scheme)
}

// runCacheSizeCell executes one Fig. 12 cell: GTO or Poise on the
// altered evaluation platform (grown linear-indexed L1), the model
// still trained on the 16 KB hashed baseline.
func runCacheSizeCell(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error) {
	name, kbStr, ok := strings.Cut(scheme, "-")
	kb, err := strconv.Atoi(strings.TrimSuffix(kbStr, "KB"))
	if !ok || err != nil || (name != "GTO" && name != "Poise") {
		return results.CellResult{}, fmt.Errorf("experiments: unknown cache-size scheme %q", scheme)
	}
	cfg := h.Cfg
	cfg.L1.SizeBytes = kb * 1024
	cfg.L1.Index = config.IndexLinear
	var pol sim.Policy = sim.GTO{}
	if name == "Poise" {
		p, err := h.PoisePolicy()
		if err != nil {
			return results.CellResult{}, err
		}
		pol = p
	}
	return h.runCellOn(cfg, wl, pol)
}

// runAblationCell executes one Fig. 13 cell: the model retrained
// without one feature (or the full model), evaluated without the
// local-search safety net so prediction quality is isolated.
func runAblationCell(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error) {
	drop := -1
	if scheme != "full" {
		x, err := strconv.Atoi(strings.TrimPrefix(scheme, "drop-x"))
		if err != nil || x < 1 {
			return results.CellResult{}, fmt.Errorf("experiments: unknown ablation scheme %q", scheme)
		}
		drop = x - 1
	}
	w, err := h.ablatedWeights(drop)
	if err != nil {
		return results.CellResult{}, err
	}
	params := h.Params
	params.StrideN, params.StrideP = 0, 0 // no local search
	return h.runCellOn(h.Cfg, wl, poise.NewPolicy(params, w))
}

// runAlternativesCell executes one Fig. 15 cell. Random-restart trial
// seeds are a pure function of (Options.Seed, trial index) — the same
// family the pre-gridplan implementation used — so results don't
// depend on which worker or process runs them.
func runAlternativesCell(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error) {
	switch {
	case scheme == "GTO":
		return h.runCellOn(h.Cfg, wl, sim.GTO{})
	case scheme == "APCM":
		return h.runCellOn(h.Cfg, wl, sched.NewAPCM(h.Params.TFeature))
	case scheme == "Poise":
		pol, err := h.PoisePolicy()
		if err != nil {
			return results.CellResult{}, err
		}
		return h.runCellOn(h.Cfg, wl, pol)
	case strings.HasPrefix(scheme, "random-"):
		trial, err := strconv.Atoi(strings.TrimPrefix(scheme, "random-"))
		if err != nil || trial < 1 {
			break
		}
		return h.runCellOn(h.Cfg, wl, sched.NewRandomRestart(h.Opt.Seed+int64(trial),
			h.Params.TWarmup, h.Params.TSearch, h.Params.TPeriod,
			h.Params.StrideN, h.Params.StrideP))
	}
	return results.CellResult{}, fmt.Errorf("experiments: unknown alternatives scheme %q", scheme)
}

// runComputeCell executes one Fig. 16 / Table IIIa cell: the GTO
// baseline, Poise, or the 64x-L1 Pbest probe.
func runComputeCell(h *Harness, wl *sim.Workload, scheme string) (results.CellResult, error) {
	switch scheme {
	case "GTO":
		return h.runCellOn(h.Cfg, wl, sim.GTO{})
	case "Poise":
		pol, err := h.PoisePolicy()
		if err != nil {
			return results.CellResult{}, err
		}
		return h.runCellOn(h.Cfg, wl, pol)
	case "Pbest":
		big := h.Cfg
		big.L1.SizeBytes *= 64
		return h.runCellOn(big, wl, sim.GTO{})
	}
	return results.CellResult{}, fmt.Errorf("experiments: unknown probe scheme %q", scheme)
}

// pbestWorkloads is Table IIIa's workload axis: the whole catalogue
// (training, evaluation and compute sets) plus genuinely new ingested
// trace workloads, in the table's documented order.
func (h *Harness) pbestWorkloads() []*sim.Workload {
	names := append(append([]string{}, workloads.TrainingNames()...), workloads.EvalNames()...)
	names = append(names, workloads.ComputeNames()...)
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, w := range h.Opt.ExtraWorkloads {
		if !seen[w.Name] {
			seen[w.Name] = true
			names = append(names, w.Name)
		}
	}
	out := make([]*sim.Workload, 0, len(names))
	for _, n := range names {
		out = append(out, h.Cat.Must(n))
	}
	return out
}

// ablatedWeights trains (once, single-flight) the Fig. 13 model with
// feature index drop removed; -1 trains the full reference model.
func (h *Harness) ablatedWeights(drop int) (poise.Weights, error) {
	return h.ablated.Get(drop, func() (poise.Weights, error) {
		ds, err := h.Dataset()
		if err != nil {
			return poise.Weights{}, err
		}
		return poise.Train(ds, poise.TrainOptions{Drop: drop})
	})
}

// weightsFingerprint identifies the Poise model cells run with, for
// the results-cache tag: an explicit override, the embedded defaults,
// or a model trained from the (tag-identified) training dataset.
func (h *Harness) weightsFingerprint() string {
	if h.Opt.Weights != nil {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *h.Opt.Weights)))
		return "override-" + hex.EncodeToString(sum[:4])
	}
	if _, ok := poise.DefaultWeights(); ok {
		return "default"
	}
	return "trained-" + h.tag(true)
}

// cellTag digests everything that can change a grid's cell results or
// its plan membership — the full architectural configuration, the
// Poise parameters, the profile-grid resolution and seed (via the
// profile tag), the model weights' provenance, the grid's workload
// axis (names and content digests, so subset or trace-augmented runs
// get their own cache entry instead of evicting the full grid's), and
// per-grid extras — so the results cache can never serve stale cells.
// All processes of one fleet campaign must agree on it;
// RunCellTasks enforces that against the plan.
func (h *Harness) cellTag(grid string) string {
	s := fmt.Sprintf("%s|%s|cfg:%+v|params:%+v|w:%s",
		grid, h.tag(false), h.Cfg, h.Params, h.weightsFingerprint())
	if d, ok := gridDefs[grid]; ok {
		ax := sha256.New()
		for _, wl := range d.workloads(h) {
			fmt.Fprintf(ax, "%s=%s;", wl.Name, workloadDigest(wl))
		}
		s += "|axis:" + hex.EncodeToString(ax.Sum(nil)[:6])
	}
	switch grid {
	case "alternatives":
		s += fmt.Sprintf("|rs:%d", h.Opt.RandomSeeds)
	case "ablation":
		s += "|train:" + h.tag(true)
	}
	sum := sha256.Sum256([]byte(s))
	return "g" + hex.EncodeToString(sum[:6])
}

// CellPlan enumerates the grid's cells in the documented order:
// workload-major (the grid's workload axis order), with schemes in the
// grid's axis order — SchemeNames order for the scheme grid. The
// enumeration is a pure function of the harness options, independent
// of map iteration order and worker count.
func (h *Harness) CellPlan(grid string) (*gridplan.CellPlan, error) {
	d, ok := gridDefs[grid]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment grid %q (have: %s)",
			grid, strings.Join(GridNames(), ", "))
	}
	tag := h.cellTag(grid)
	schemes := d.schemes(h)
	plan := &gridplan.CellPlan{Version: gridplan.PlanVersion}
	for _, wl := range d.workloads(h) {
		dg := workloadDigest(wl)
		for ord, sc := range schemes {
			plan.Cells = append(plan.Cells, gridplan.CellTask{
				Tag: tag, Grid: grid, Workload: wl.Name, Digest: dg,
				Scheme: sc, Ord: ord, Seed: h.Opt.Seed,
			})
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// RunCellTasks executes experiment cells — the whole plan in process,
// or a fleet worker's lease of it — and returns their results in task
// order. Before anything simulates, every task is validated against
// this process's own view of the campaign: the configuration tag must
// match (all processes of a campaign agree on flags), the workload must
// resolve in the catalogue with the same content digest, and the
// scheme must exist at the same ordinal. Cells fan out across the
// worker pool, each drawing its GPU from the process-wide pool.
func (h *Harness) RunCellTasks(grid string, tasks []gridplan.CellTask) ([]results.CellResult, error) {
	d, ok := gridDefs[grid]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment grid %q (have: %s)",
			grid, strings.Join(GridNames(), ", "))
	}
	byName, err := h.validateCells(grid, d, tasks)
	if err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, nil
	}
	if d.prepare != nil {
		if err := d.prepare(h); err != nil {
			return nil, err
		}
	}
	return runner.MapSlice(h.ctx(), h.Opt.Workers, tasks,
		func(_ context.Context, _ int, t gridplan.CellTask) (results.CellResult, error) {
			cr, err := d.run(h, byName[t.Workload], t.Scheme)
			if err != nil {
				return cr, err
			}
			return cr.FromTask(t), nil
		})
}

// validateCells checks every task against this process's own view of
// the campaign and returns the workload index cell execution uses.
func (h *Harness) validateCells(grid string, d gridDef, tasks []gridplan.CellTask) (map[string]*sim.Workload, error) {
	tag := h.cellTag(grid)
	byName := map[string]*sim.Workload{}
	for _, wl := range d.workloads(h) {
		byName[wl.Name] = wl
	}
	ords := map[string]int{}
	for ord, sc := range d.schemes(h) {
		ords[sc] = ord
	}
	digests := map[string]string{}
	for _, t := range tasks {
		if t.Grid != grid {
			return nil, fmt.Errorf("experiments: task %s belongs to grid %q, running %q", t.Key(), t.Grid, grid)
		}
		if t.Tag != tag {
			return nil, fmt.Errorf(
				"experiments: plan tag %s does not match this configuration's %s — serve the plan and run its workers with identical flags",
				t.Tag, tag)
		}
		wl := byName[t.Workload]
		if wl == nil {
			return nil, fmt.Errorf("experiments: plan cell %s needs workload %q, not in this grid's axis", t.Key(), t.Workload)
		}
		dg, ok := digests[t.Workload]
		if !ok {
			dg = workloadDigest(wl)
			digests[t.Workload] = dg
		}
		if t.Digest != "" && dg != t.Digest {
			return nil, fmt.Errorf(
				"experiments: workload %q digest mismatch: plan has %s, catalogue materialises %s (stale plan or drifted catalogue?)",
				t.Workload, t.Digest, dg)
		}
		if o, ok := ords[t.Scheme]; !ok || o != t.Ord {
			return nil, fmt.Errorf("experiments: plan cell %s names scheme %q at ordinal %d, which this configuration does not define", t.Key(), t.Scheme, t.Ord)
		}
	}
	return byName, nil
}

// ValidateCellPlan checks a whole shipped plan against this process's
// configuration — tag agreement, workload digests, scheme ordinals —
// without running anything. A fleet worker calls it on the full plan
// before leasing, so one launched with mismatched flags fails fast
// even when its leases happen to miss the drifted workload.
func (h *Harness) ValidateCellPlan(grid string, plan *gridplan.CellPlan) error {
	d, ok := gridDefs[grid]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment grid %q (have: %s)",
			grid, strings.Join(GridNames(), ", "))
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	_, err := h.validateCells(grid, d, plan.Cells)
	return err
}

// GridCells returns the grid's full, key-unordered-but-plan-complete
// cell set: the merged results-cache entry when a valid one covers the
// current plan (what a fleet campaign or a previous cached run left),
// otherwise a fresh in-process run through the same pipeline —
// cached afterwards when a cache directory is configured, so corrupt
// or stale entries are repaired by overwriting. Memoised per harness.
func (h *Harness) GridCells(grid string) ([]results.CellResult, error) {
	return h.cells.Get(grid, func() ([]results.CellResult, error) {
		plan, err := h.CellPlan(grid)
		if err != nil {
			return nil, err
		}
		tag := planTag(h, grid, plan)
		if cells, err := h.cellStore.Load(tag, grid); err == nil {
			if verr := results.Verify(plan, cells); verr == nil {
				return cells, nil
			}
			// Present but covering a different plan (subset runs, drifted
			// digests): treat as a miss and overwrite below.
		}
		// os.ErrNotExist and results.ErrCorrupt land here too — a
		// truncated write from a crashed merge re-runs and is repaired.
		cells, err := h.RunCellTasks(grid, plan.Cells)
		if err != nil {
			return nil, err
		}
		if h.Opt.CacheDir != "" {
			if err := h.cellStore.Save(tag, grid, cells); err != nil {
				return nil, err
			}
		}
		return cells, nil
	})
}

// planTag reads the configuration tag off a locally-built plan
// (CellPlan stamps every cell with it), avoiding a recompute that
// would re-hash the whole workload axis; an empty plan falls back to
// computing it.
func planTag(h *Harness, grid string, plan *gridplan.CellPlan) string {
	if len(plan.Cells) > 0 {
		return plan.Cells[0].Tag
	}
	return h.cellTag(grid)
}

// cellSet indexes merged cells by (workload, scheme) for figure
// assembly.
type cellSet map[[2]string]results.CellResult

func indexCells(cells []results.CellResult) cellSet {
	s := cellSet{}
	for _, c := range cells {
		s[[2]string{c.Workload, c.Scheme}] = c
	}
	return s
}

// get returns the cell for (workload, scheme); a missing cell is an
// internal-consistency error (plans are verified complete before this).
func (s cellSet) get(workload, scheme string) (results.CellResult, error) {
	c, ok := s[[2]string{workload, scheme}]
	if !ok {
		return results.CellResult{}, fmt.Errorf("experiments: no cell for workload %s under %s", workload, scheme)
	}
	return c, nil
}
