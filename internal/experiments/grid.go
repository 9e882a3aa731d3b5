package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/results"
	"poise/internal/runner"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/workloads"
)

// The unified experiment-grid engine. Every workload × scheme grid of
// the evaluation — the Fig. 7/8/9 scheme comparison, the sensitivity
// figures and the Pbest classification table — is one declaration in
// gridDefs, expressed as gridplan.CellTasks and run through one
// pipeline:
//
//	CellPlan    -> the serialisable grid (what a fleet coordinator serves)
//	RunCellTasks-> execute cells on pooled per-configuration GPUs
//	GridCells   -> in-process run, or the merged cached cells
//
// Exactly like profile sweeps, merging any decomposition of the plan is
// reflect.DeepEqual-identical to the in-process grid, so fanning a
// figure out across fleet workers can never change it. The figure
// methods (Performance, TableIII, the ratio figures) are pure assembly
// over the merged cells.

// A scheme is one value of a grid's scheme axis: the name its cells
// carry in plans, results and cache entries; the platform it runs on
// (nil: the harness's configuration); and its policy, built afresh for
// every cell because the adaptive policies are stateful.
type scheme struct {
	name     string
	platform func(config.Config) config.Config
	policy   func(h *Harness) (sim.Policy, error)
}

// A column of a ratio figure: the mean IPC of the num schemes, in axis
// order, over the IPC of the den scheme; schemes go by their ordinal
// on the axis.
type column struct {
	label string
	num   []int
	den   int
}

// An axis is a grid's scheme axis in documented order (never sorted:
// it is the plan's ordinal order) and the columns of its ratio figure.
type axis struct {
	schemes []scheme
	columns []column
}

// add appends a scheme and returns its ordinal.
func (a *axis) add(s scheme) int {
	a.schemes = append(a.schemes, s)
	return len(a.schemes) - 1
}

// ratio declares a column of the grid's ratio figure.
func (a *axis) ratio(label string, den int, num ...int) {
	a.columns = append(a.columns, column{label, num, den})
}

// gridDef declares one experiment grid: its workload axis; its scheme
// axis, built once per plan, run or figure; a prepare step that
// materialises shared artifacts (profiles, model weights) before the
// fan-out; what else its cells depend on, for the cache tag; and
// whether its Poise cells record the Fig. 10 displacement.
type gridDef struct {
	workloads    func(h *Harness) []*sim.Workload
	axis         func(h *Harness) axis
	prepare      func(h *Harness) error
	tag          func(h *Harness) string
	displacement bool
}

func gto(*Harness) (sim.Policy, error) { return sim.GTO{}, nil }

func poiseDefault(h *Harness) (sim.Policy, error) {
	p, err := h.PoisePolicy()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// hie declares Poise on the weights weights gives (the model, an
// ablated model) with local-search strides (strideN, strideP); every
// other window is the harness's Table IV.
func hie(weights func(*Harness) (poise.Weights, error), strideN, strideP int) func(*Harness) (sim.Policy, error) {
	return func(h *Harness) (sim.Policy, error) {
		w, err := weights(h)
		if err != nil {
			return nil, err
		}
		params := h.Params
		params.StrideN, params.StrideP = strideN, strideP
		return poise.NewPolicy(params, w), nil
	}
}

// profiled builds a policy from the evaluation workloads' profiles.
func profiled(build func(profs map[string]*profile.Profile) sim.Policy) func(*Harness) (sim.Policy, error) {
	return func(h *Harness) (sim.Policy, error) {
		profs, err := h.WorkloadProfiles(h.EvalWorkloads())
		if err != nil {
			return nil, err
		}
		return build(profs), nil
	}
}

// The schemes more than one grid runs.
var (
	gtoScheme   = scheme{name: "GTO", policy: gto}
	poiseScheme = scheme{name: "Poise", policy: poiseDefault}
	// pbestScheme is the memory-sensitivity probe: GTO on a 64x L1.
	pbestScheme = scheme{name: "Pbest", policy: gto, platform: func(c config.Config) config.Config {
		c.L1.SizeBytes *= 64
		return c
	}}
)

// comparison is the Fig. 7-10/14 scheme axis, in paper order, GTO (the
// baseline) first.
var comparison = []scheme{
	gtoScheme,
	{name: "SWL", policy: profiled(sched.SWL)},
	{name: "PCAL-SWL", policy: func(h *Harness) (sim.Policy, error) {
		return profiled(func(profs map[string]*profile.Profile) sim.Policy {
			return sched.NewPCALSWL(sched.SWLFromProfiles(profs), h.Params)
		})(h)
	}},
	poiseScheme,
	{name: "Static-Best", policy: profiled(sched.StaticBest)},
}

// gridDefs declares every experiment grid.
var gridDefs = map[string]gridDef{
	// Figs. 7-10 and 14: every comparison scheme.
	"scheme": {
		workloads: (*Harness).EvalWorkloads,
		axis:      func(*Harness) axis { return axis{schemes: comparison} },
		prepare: func(h *Harness) error {
			if _, err := h.WorkloadProfiles(h.EvalWorkloads()); err != nil {
				return err
			}
			_, err := h.ModelWeights()
			return err
		},
		displacement: true,
	},
	// Fig. 11: Poise at each local-search stride (εN, εp), the
	// pure-prediction (0, 0) included.
	"stride": {
		workloads: (*Harness).EvalWorkloads,
		axis: func(*Harness) (a axis) {
			base := a.add(gtoScheme)
			for _, st := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {2, 4}, {4, 4}} {
				a.ratio(fmt.Sprintf("(%d,%d)", st[0], st[1]), base, a.add(scheme{
					name:   fmt.Sprintf("stride%d.%d", st[0], st[1]),
					policy: hie((*Harness).ModelWeights, st[0], st[1]),
				}))
			}
			return a
		},
		prepare: prepWeights,
	},
	// Fig. 12: GTO and Poise on a grown, linear-indexed L1, the model
	// still trained on the 16 KB hashed baseline.
	"cachesize": {
		workloads: (*Harness).EvalWorkloads,
		axis: func(*Harness) (a axis) {
			for _, kb := range []int{16, 32, 64} {
				l1 := func(c config.Config) config.Config {
					c.L1.SizeBytes = kb * 1024
					c.L1.Index = config.IndexLinear
					return c
				}
				base := a.add(scheme{name: fmt.Sprintf("GTO-%dKB", kb), platform: l1, policy: gto})
				a.ratio(fmt.Sprintf("Poise+%dKB", kb), base, a.add(scheme{
					name: fmt.Sprintf("Poise-%dKB", kb), platform: l1, policy: poiseDefault,
				}))
			}
			return a
		},
		prepare: prepWeights,
	},
	// Fig. 13: the model retrained without one feature, in paper order
	// x7 … x3 (x1/x2 are represented within x7), against the full model,
	// both without local search so prediction quality is isolated.
	"ablation": {
		workloads: (*Harness).EvalWorkloads,
		axis: func(*Harness) (a axis) {
			full := a.add(scheme{name: "full", policy: hie(ablated(0), 0, 0)})
			for x := 7; x >= 3; x-- {
				a.ratio(fmt.Sprintf("-x%d", x), full, a.add(scheme{
					name: fmt.Sprintf("drop-x%d", x), policy: hie(ablated(x), 0, 0),
				}))
			}
			return a
		},
		prepare: func(h *Harness) error {
			_, err := h.Dataset()
			return err
		},
		tag: func(h *Harness) string { return "|train:" + h.trainTag() },
	},
	// Fig. 15: APCM and random-restart search against Poise. Each
	// random-restart trial is its own cell, seeded by a pure function of
	// (Options.Seed, trial), so no result depends on which worker or
	// process runs it; the column averages the trials' IPC.
	"alternatives": {
		workloads: (*Harness).EvalWorkloads,
		axis: func(h *Harness) (a axis) {
			base := a.add(gtoScheme)
			apcm := func(h *Harness) (sim.Policy, error) { return sched.NewAPCM(h.Params), nil }
			a.ratio("APCM", base, a.add(scheme{name: "APCM", policy: apcm}))
			var trials []int
			for i := 1; i <= h.Opt.RandomSeeds; i++ {
				trial := func(h *Harness) (sim.Policy, error) {
					return sched.NewRandomRestart(h.Opt.Seed+int64(i), h.Params), nil
				}
				trials = append(trials, a.add(scheme{name: fmt.Sprintf("random-%d", i), policy: trial}))
			}
			a.ratio("Random-restart", base, trials...)
			a.ratio("Poise", base, a.add(poiseScheme))
			return a
		},
		prepare: prepWeights,
		tag:     func(h *Harness) string { return fmt.Sprintf("|rs:%d", h.Opt.RandomSeeds) },
	},
	// Fig. 16: compute-intensive workloads under Poise and the Pbest
	// probe.
	"compute": {
		workloads: func(h *Harness) []*sim.Workload { return h.Cat.ComputeSet() },
		axis: func(*Harness) (a axis) {
			base := a.add(gtoScheme)
			a.ratio("Poise", base, a.add(poiseScheme))
			a.ratio("Pbest", base, a.add(pbestScheme))
			return a
		},
		prepare: prepWeights,
	},
	// Table IIIa: every workload's Pbest.
	"pbest": {
		workloads: (*Harness).pbestWorkloads,
		axis: func(*Harness) (a axis) {
			base := a.add(gtoScheme)
			a.ratio("Pbest", base, a.add(pbestScheme))
			return a
		},
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

func lookupGrid(name string) (gridDef, error) {
	d, ok := gridDefs[name]
	if !ok {
		return d, fmt.Errorf("experiments: unknown experiment grid %q (have: %s)", name, strings.Join(GridNames(), ", "))
	}
	return d, nil
}

func prepWeights(h *Harness) error {
	_, err := h.ModelWeights()
	return err
}

// ablated is the Fig. 13 model trained (once, single-flight) without
// Table II feature x (0: the full reference model).
func ablated(x int) func(h *Harness) (poise.Weights, error) {
	return func(h *Harness) (poise.Weights, error) {
		return h.ablated.Get(x, func() (poise.Weights, error) {
			ds, err := h.Dataset()
			if err != nil {
				return poise.Weights{}, err
			}
			return poise.Train(ds, poise.TrainOptions{DropX: x})
		})
	}
}

// runCell executes one cell: the workload under a fresh instance of the
// scheme's policy, on the scheme's platform.
func (h *Harness) runCell(d gridDef, s scheme, wl *sim.Workload) (results.CellResult, error) {
	pol, err := s.policy(h)
	if err != nil {
		return results.CellResult{}, err
	}
	cfg := h.Cfg
	if s.platform != nil {
		cfg = s.platform(cfg)
	}
	cr, err := h.runCellOn(cfg, wl, pol)
	if err != nil {
		return cr, fmt.Errorf("experiments: %s under %s: %w", wl.Name, s.name, err)
	}
	if pp, ok := pol.(*poise.Policy); ok && d.displacement {
		cr.DispN, cr.DispP, cr.DispE, cr.HasDisp = pp.Displacement()
	}
	return cr, nil
}

// runCellOn executes one cell's workload under one policy on
// configuration cfg through sim.Drive and the harness's run memo, which
// answers a tuple-pinned cell that a sweep point or another cell already
// ran.
func (h *Harness) runCellOn(cfg config.Config, wl *sim.Workload, pol sim.Policy) (results.CellResult, error) {
	res, _, err := sim.Drive(cfg, sim.Job{
		Workload: wl,
		Policy:   func() (sim.Policy, error) { return pol, nil },
		Memo:     h.memo,
	})
	if err != nil {
		return results.CellResult{}, err
	}
	return results.CellResult{Result: res}, nil
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

// weightsFingerprint identifies the Poise model cells run with, for
// the results-cache tag: an explicit override, the embedded defaults,
// or a model trained from the training dataset trainTag identifies.
func (h *Harness) weightsFingerprint() string {
	if h.Opt.Weights != nil {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *h.Opt.Weights)))
		return "override-" + hex.EncodeToString(sum[:4])
	}
	if _, ok := poise.DefaultWeights(); ok {
		return "default"
	}
	return "trained-" + h.trainTag()
}

// trainTag identifies the training dataset: its sweep, the seed and
// every training workload's content (a shadowing trace moves it).
func (h *Harness) trainTag() string {
	s := fmt.Sprintf("%s|seed%d", profile.SweepTag(h.Cfg, h.sweepOptions(true)), h.Opt.Seed)
	for _, w := range h.Cat.TrainingSet() {
		s += "|" + workloadDigest(w)
	}
	return s
}

// cellTag digests everything that can change a grid's cell results or
// its plan membership — the full architectural configuration, the
// Poise parameters, the evaluation sweep (profile.SweepTag) and the
// seed, the model weights' provenance, the grid's workload
// axis (names and content digests, so subset or trace-augmented runs
// get their own cache entry instead of evicting the full grid's), and
// what else the grid declares its cells depend on — so the results
// cache can never serve stale cells. All processes of one fleet
// campaign must agree on it; RunCellTasks enforces that against the
// plan.
func (h *Harness) cellTag(grid string) string {
	s := fmt.Sprintf("%s|%s|seed%d|cfg:%+v|params:%+v|w:%s", grid,
		profile.SweepTag(h.Cfg, h.sweepOptions(false)), h.Opt.Seed, h.Cfg, h.Params, h.weightsFingerprint())
	if d, ok := gridDefs[grid]; ok {
		ax := sha256.New()
		for _, wl := range d.workloads(h) {
			fmt.Fprintf(ax, "%s=%s;", wl.Name, workloadDigest(wl))
		}
		s += "|axis:" + hex.EncodeToString(ax.Sum(nil)[:6])
		if d.tag != nil {
			s += d.tag(h)
		}
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
	d, err := lookupGrid(grid)
	if err != nil {
		return nil, err
	}
	tag := h.cellTag(grid)
	schemes := d.axis(h).schemes
	plan := &gridplan.CellPlan{Version: gridplan.PlanVersion}
	for _, wl := range d.workloads(h) {
		dg := workloadDigest(wl)
		for ord, s := range schemes {
			plan.Cells = append(plan.Cells, gridplan.CellTask{
				Tag: tag, Grid: grid, Workload: wl.Name, Digest: dg,
				Scheme: s.name, Ord: ord, Seed: h.Opt.Seed,
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
	d, err := lookupGrid(grid)
	if err != nil {
		return nil, err
	}
	schemes := d.axis(h).schemes
	byName, err := h.validateCells(grid, d, schemes, tasks)
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
			cr, err := h.runCell(d, schemes[t.Ord], byName[t.Workload])
			if err != nil {
				return cr, err
			}
			return cr.FromTask(t), nil
		})
}

// validateCells checks every task against this process's own view of
// the campaign and returns the workload index cell execution uses.
func (h *Harness) validateCells(grid string, d gridDef, schemes []scheme, tasks []gridplan.CellTask) (map[string]*sim.Workload, error) {
	tag := h.cellTag(grid)
	byName := map[string]*sim.Workload{}
	for _, wl := range d.workloads(h) {
		byName[wl.Name] = wl
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
		if t.Ord < 0 || t.Ord >= len(schemes) || schemes[t.Ord].name != t.Scheme {
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
	d, err := lookupGrid(grid)
	if err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	_, err = h.validateCells(grid, d, d.axis(h).schemes, plan.Cells)
	return err
}

// GridCells returns the grid's full cell set, indexed by callers: the
// merged results-cache entry (key order) when a valid one covers the
// current plan (what a fleet campaign or a previous cached run left),
// otherwise a fresh in-process run (plan order) through the same
// pipeline — cached afterwards when a cache directory is configured,
// so corrupt or stale entries are repaired by overwriting. Memoised
// per harness.
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
		// os.ErrNotExist and atomicfile.ErrCorrupt land here too — a
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

// cellSet indexes merged cells by workload and scheme ordinal for
// figure assembly.
type cellSet map[cellAt]results.CellResult

type cellAt struct {
	workload string
	ord      int
}

func indexCells(cells []results.CellResult) cellSet {
	s := cellSet{}
	for _, c := range cells {
		s[cellAt{c.Workload, c.Ord}] = c
	}
	return s
}

// get returns the cell of workload at scheme ordinal ord; a missing
// cell is an internal-consistency error (plans are verified complete
// before this).
func (s cellSet) get(workload string, ord int) (results.CellResult, error) {
	c, ok := s[cellAt{workload, ord}]
	if !ok {
		return results.CellResult{}, fmt.Errorf("experiments: no cell for workload %s at scheme ordinal %d", workload, ord)
	}
	return c, nil
}
