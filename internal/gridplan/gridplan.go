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
//   - Shard / Merge: deterministic i-of-N splitting and key-ordered
//     merging of per-shard records, so merging any shard count —
//     including one — reproduces the single-process run bit for bit.
//     The splitting and merging machinery is generic over anything
//     Keyed, so profile measurements and experiment-cell results share
//     one verified implementation.
//
// The package is deliberately below profile and experiments in the
// dependency order: it knows about kernels (package trace) but not
// about Profiles or WorkloadResults; packages profile and results
// assemble merged records back into their domain types.
package gridplan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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
// the record's canonical order. Sharding and merging are defined
// entirely in terms of it, so every task kind splits and merges with
// the same verified machinery.
type Keyed interface{ Key() string }

// sortKeyed orders records by key in place.
func sortKeyed[T Keyed](ts []T) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
}

// shardKeyed deals the key-sorted records round-robin and returns the
// i-of-n hand: a pure function of (records, i, n), so any process
// holding the same plan computes the same shard.
func shardKeyed[T Keyed](ts []T, i, n int) ([]T, error) {
	if n < 1 {
		return nil, fmt.Errorf("gridplan: shard count %d < 1", n)
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("gridplan: shard index %d outside [0,%d)", i, n)
	}
	sorted := append([]T(nil), ts...)
	sortKeyed(sorted)
	var out []T
	for idx, t := range sorted {
		if idx%n == i {
			out = append(out, t)
		}
	}
	return out, nil
}

// MergeKeyed combines per-shard record sets into one key-ordered set.
// Duplicate keys are an error (a record ran in two shards — the split
// was inconsistent), so the merge is deterministic and associative:
// any shard decomposition of a plan merges to the same slice.
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

// Sort orders the tasks by key (stable identity order). Shard and
// Verify call it implicitly; exported for callers that want the
// canonical order for display.
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

// Shard returns the i-of-n slice of the plan: tasks are sorted by key
// and dealt round-robin, so shards are near-equal in size and the
// split is a pure function of (plan, i, n) — any process holding the
// same plan file computes the same shard. Shard(0, 1) is the whole
// plan.
func (p *Plan) Shard(i, n int) (*Plan, error) {
	tasks, err := shardKeyed(p.Tasks, i, n)
	if err != nil {
		return nil, err
	}
	return &Plan{Version: p.Version, Tasks: tasks}, nil
}

// ParseShard parses a command-line "i/N" shard assignment (e.g.
// "0/4"), validating 0 <= i < N.
func ParseShard(s string) (index, count int, err error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("gridplan: shard %q is not of the form i/N", s)
	}
	index, err1 := strconv.Atoi(s[:i])
	count, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("gridplan: shard %q is not of the form i/N", s)
	}
	if count < 1 {
		return 0, 0, fmt.Errorf("gridplan: shard count %d < 1 in %q", count, s)
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("gridplan: shard index %d outside [0,%d) in %q", index, count, s)
	}
	return index, count, nil
}

// SplitFiles parses a command-line comma-separated shard-file list,
// trimming whitespace and dropping empty entries. An empty list is an
// error: merging zero shards silently yields an empty result, which a
// mistyped flag should never be able to request.
func SplitFiles(s string) ([]string, error) {
	var files []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("gridplan: no shard files in %q", s)
	}
	return files, nil
}

// Kernels returns the distinct (tag, kernel) pairs of the plan in key
// order, with each pair's tasks grouped.
func (p *Plan) Kernels() []KernelTasks {
	byKey := map[string]*KernelTasks{}
	var order []string
	sorted := &Plan{Tasks: append([]Task(nil), p.Tasks...)}
	sorted.Sort()
	for _, t := range sorted.Tasks {
		k := t.Tag + "|" + t.Kernel
		g, ok := byKey[k]
		if !ok {
			g = &KernelTasks{Tag: t.Tag, Kernel: t.Kernel}
			byKey[k] = g
			order = append(order, k)
		}
		g.Tasks = append(g.Tasks, t)
	}
	out := make([]KernelTasks, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// KernelTasks groups one kernel's tasks within a plan.
type KernelTasks struct {
	Tag    string
	Kernel string
	Tasks  []Task
}

// Measurement is the raw result of one executed Task. It carries
// un-normalised metrics only: speedups are computed at merge time from
// the baseline (maxN, maxN) measurement, which may live in a different
// shard than the point it normalises.
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

// Merge combines per-shard measurement sets into one key-ordered set.
// Duplicate keys are an error (a point ran in two shards — the split
// was inconsistent), so the merge is deterministic and associative:
// any shard decomposition of a plan merges to the same slice.
func Merge(shards ...[]Measurement) ([]Measurement, error) {
	return MergeKeyed(shards...)
}

// Verify checks that the measurements cover the plan's tasks exactly:
// no point missing, none extra. Use it before assembling profiles so a
// lost or double-submitted shard fails loudly instead of producing a
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
