// Package gridplan turns experiment grids into serialisable work
// descriptors so a campaign can be fanned out across processes (and,
// with a transport on top, across machines). It owns the three pieces
// every distributed grid needs and nothing else:
//
//   - Enumerate: the canonical grid walk, extracted from profile.Sweep
//     so the in-process sweep and an emitted plan can never disagree
//     about which points exist.
//   - Plan / Task and CellPlan / CellTask: content-digested task
//     descriptors that round-trip through a JSONL file. A Task is one
//     {N, p} profile point (kernel digest + configuration tag + point +
//     seed); a CellTask is one experiment-grid cell (workload digest +
//     scheme/config tag + seed). The digests let a worker refuse a plan
//     whose kernels or workloads drifted from its own catalogue.
//   - Merge / VerifyCover: key-ordered merging of record sets and the
//     exact-coverage check against the plan, so merging any
//     decomposition of a plan — including the whole — reproduces the
//     single-process run bit for bit. Both are generic over anything
//     Keyed, so profile measurements and experiment-cell results share
//     one verified implementation. Splitting itself is the fleet's job
//     (package fleet: leases, expiry, stealing).
//
// The package is deliberately below profile and experiments in the
// dependency order: it knows about kernels (package trace) but not
// about Profiles or WorkloadResults; packages profile and results
// assemble merged records back into their domain types.
package gridplan

import (
	"fmt"
	"sort"

	"poise/internal/trace"
)

// Coord is one {N, p} grid point.
type Coord struct {
	N, P int
}

// Enumerate returns the canonical sweep grid for a kernel whose
// per-scheduler warp bound is maxN: every (n, p) with 1 <= p <= n <=
// maxN at the given step resolution, the closed diagonal p == n at
// StepN resolution (the SWL baseline needs it), and the three corner
// points the paper's figures reference — deduplicated, in a
// deterministic order. Steps <= 0 mean exhaustive (step 1).
func Enumerate(maxN, stepN, stepP int) []Coord {
	if stepN <= 0 {
		stepN = 1
	}
	if stepP <= 0 {
		stepP = 1
	}
	var grid []Coord
	seen := map[Coord]bool{}
	add := func(n, p int) {
		c := Coord{N: n, P: p}
		if n < 1 || p < 1 || p > n || n > maxN || seen[c] {
			return
		}
		seen[c] = true
		grid = append(grid, c)
	}
	for n := 1; n <= maxN; n += stepN {
		for p := 1; p <= n; p += stepP {
			add(n, p)
		}
		// Always close the diagonal and the column top.
		add(n, n)
	}
	// Ensure the corner rows/columns the paper's figures reference.
	for _, c := range []Coord{{maxN, maxN}, {maxN, 1}, {1, 1}} {
		add(c.N, c.P)
	}
	return grid
}

// Task is one serialisable simulation unit: run kernel Kernel at grid
// point (N, P) under the configuration identified by Tag. Digest
// fingerprints the kernel's content so a worker process can verify its
// catalogue materialises the same kernel the plan was emitted from.
type Task struct {
	Tag    string `json:"tag"`    // configuration/profile-cache tag
	Kernel string `json:"kernel"` // kernel name, resolved via the catalogue
	Digest string `json:"digest"` // content digest, see KernelDigest
	N      int    `json:"n"`
	P      int    `json:"p"`
	Seed   int64  `json:"seed,omitempty"` // the kernel's address-stream seed
}

// Key is the task's stable ordering and identity key. Merging sorts by
// it, so the zero-padded coordinates make lexicographic order equal
// (tag, kernel, N, P) order — the same (N, P) order profile.Sweep
// sorts its points into.
func (t Task) Key() string {
	return fmt.Sprintf("%s|%s|%04d|%04d", t.Tag, t.Kernel, t.N, t.P)
}

// PlanVersion is the on-disk plan/measurement format version.
const PlanVersion = 1

// Keyed is the identity contract shared by plan tasks and their
// result records: a stable, unique key whose lexicographic order is
// the record's canonical order. Merging and verifying are defined
// entirely in terms of it, so every task kind merges with the same
// verified machinery.
type Keyed interface{ Key() string }

// sortKeyed orders records by key in place.
func sortKeyed[T Keyed](ts []T) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
}

// MergeKeyed combines record sets into one key-ordered set. Duplicate
// keys are an error (a record is in two sets — the split was
// inconsistent), so the merge is deterministic and associative: any
// decomposition of a plan merges to the same slice.
func MergeKeyed[T Keyed](shards ...[]T) ([]T, error) {
	var all []T
	for _, s := range shards {
		all = append(all, s...)
	}
	sortKeyed(all)
	for i := 1; i < len(all); i++ {
		if all[i].Key() == all[i-1].Key() {
			return nil, fmt.Errorf("gridplan: record %s present in two shards", all[i].Key())
		}
	}
	return all, nil
}

// VerifyCover checks that got covers tasks exactly — no key missing,
// none extra, none duplicated. noun names the record kind in error
// messages. Plan.Verify and the results store's cell verification are
// both this check.
func VerifyCover[T Keyed, M Keyed](tasks []T, got []M, noun string) error {
	want := map[string]bool{}
	for _, t := range tasks {
		want[t.Key()] = true
	}
	seen := map[string]bool{}
	for _, m := range got {
		k := m.Key()
		if !want[k] {
			return fmt.Errorf("gridplan: %s %s is not in the plan", noun, k)
		}
		if seen[k] {
			return fmt.Errorf("gridplan: %s %s appears twice", noun, k)
		}
		seen[k] = true
	}
	for k := range want {
		if !seen[k] {
			return fmt.Errorf("gridplan: plan task %s has no %s (missing shard?)", k, noun)
		}
	}
	return nil
}

// Plan is an ordered set of tasks — typically every grid point of
// every kernel in one sweep campaign.
type Plan struct {
	Version int    `json:"version"`
	Tasks   []Task `json:"-"`
}

// Sort orders the tasks by key (stable identity order): the order a
// plan is written and served in.
func (p *Plan) Sort() { sortKeyed(p.Tasks) }

// Validate reports duplicate task keys or malformed coordinates.
func (p *Plan) Validate() error {
	seen := map[string]bool{}
	for _, t := range p.Tasks {
		if t.Kernel == "" {
			return fmt.Errorf("gridplan: task %s has no kernel", t.Key())
		}
		if t.N < 1 || t.P < 1 || t.P > t.N {
			return fmt.Errorf("gridplan: task %s violates 1 <= p <= N", t.Key())
		}
		k := t.Key()
		if seen[k] {
			return fmt.Errorf("gridplan: duplicate task %s", k)
		}
		seen[k] = true
	}
	return nil
}

// Measurement is the raw result of one executed Task. It carries
// un-normalised metrics only: speedups are computed at merge time from
// the baseline (maxN, maxN) measurement, which may have run in another
// process than the point it normalises.
type Measurement struct {
	Tag    string `json:"tag"`
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	P      int    `json:"p"`

	IPC          float64 `json:"ipc"`
	HitRate      float64 `json:"hitRate"`
	AML          float64 `json:"aml"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
}

// Key mirrors Task.Key.
func (m Measurement) Key() string {
	return fmt.Sprintf("%s|%s|%04d|%04d", m.Tag, m.Kernel, m.N, m.P)
}

// Merge combines measurement sets into one key-ordered set. Duplicate
// keys are an error (a point is in two sets — the split was
// inconsistent), so the merge is deterministic and associative: any
// decomposition of a plan merges to the same slice.
func Merge(shards ...[]Measurement) ([]Measurement, error) {
	return MergeKeyed(shards...)
}

// Verify checks that the measurements cover the plan's tasks exactly:
// no point missing, none extra. Use it before assembling profiles so a
// lost or double-submitted part fails loudly instead of producing a
// silently sparse profile.
func (p *Plan) Verify(ms []Measurement) error {
	return VerifyCover(p.Tasks, ms, "measurement")
}

// KernelDigest fingerprints a kernel's content: structure, body,
// per-warp iteration counts and pattern addresses sampled across warps
// and iterations. Workers compare it against a plan's Task.Digest
// before simulating, so a stale catalogue cannot silently corrupt a
// sweep. The implementation lives in package trace (the digest is a
// pure function of the kernel) so the simulator's run memo can
// chain the same digests without depending on gridplan.
func KernelDigest(k *trace.Kernel) string {
	return trace.KernelDigest(k)
}
