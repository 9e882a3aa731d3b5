package serve

import (
	"sync"
	"sync/atomic"

	"poise/internal/poise"
)

// MaxTableN bounds the per-key precomputed decision tables: one
// Decision per possible scheduler warp bound, 1..MaxTableN. 64 covers
// every hardware point the simulator models (the baseline exposes 24
// warps per scheduler) with slack for scaled configurations; a request
// beyond the bound still gets an answer, just through the uncached
// predict path.
const MaxTableN = 64

// maxTables bounds the decision tables one model memoises (about a
// kilobyte each): a long-lived service sees an open-ended stream of
// keys, and a retrain is not guaranteed to come and empty the map. Past
// the bound new keys get their answer through the uncached predict
// path; keys already tabled keep hitting.
const maxTables = 1 << 14

// Decision is one resolved warp-tuple: run N warps, prioritise p.
type Decision struct {
	N int `json:"n"`
	P int `json:"p"`
}

// entry is a memoised workload: the full decision table for every
// possible maxN, precomputed once at first sight of the key so that
// steady-state lookups are a map probe and an array index — no
// floating point, no allocation.
type entry struct {
	dec [MaxTableN + 1]Decision // indexed by maxN; [0] unused
}

// model is one immutable generation of the service: a validated weight
// set plus the decision tables derived from it. A retrain installs a
// whole new model (fresh, empty table) rather than mutating this one,
// so readers mid-decision keep a consistent view and the memo cache
// can never mix predictions from two weight sets.
type model struct {
	weights poise.Weights
	version int64
	tables  sync.Map // memo key (kernel/trace digest) -> *entry
	// tabled counts the entries of tables. First misses racing at the
	// bound may each store, so it can overshoot maxTables by the number
	// of goroutines deciding at that moment, no further.
	tabled atomic.Int64
}

// decide answers from the memo table, populating it on first miss.
// The hot path — key present — does not allocate: sync.Map.Load's
// boxed string key stays on the stack (pinned by TestDecideZeroAllocs)
// and the entry holds plain values.
func (m *model) decide(key string, x poise.Vector, maxN int) (Decision, bool) {
	if v, ok := m.tables.Load(key); ok {
		return v.(*entry).dec[maxN], true
	}
	if m.tabled.Load() >= maxTables {
		n, p := m.weights.PredictTuple(x, maxN)
		return Decision{N: n, P: p}, false
	}
	e := new(entry)
	for n := 1; n <= MaxTableN; n++ {
		e.dec[n].N, e.dec[n].P = m.weights.PredictTuple(x, n)
	}
	// LoadOrStore: two racing first-misses agree anyway (the table is a
	// pure function of the weights and x), but returning the stored
	// entry keeps the invariant that one key has one entry.
	if v, loaded := m.tables.LoadOrStore(key, e); loaded {
		e = v.(*entry)
	} else {
		m.tabled.Add(1)
	}
	return e.dec[maxN], false
}

// Decider answers "feature vector → (N, p)" for many concurrent
// callers. The active model hangs off one atomic pointer: decisions
// load it once and never block, a Swap installs a successor without
// disturbing readers draining on the predecessor. All counters are
// atomics; the zero Decider is not usable — construct with NewDecider.
type Decider struct {
	active atomic.Pointer[model]

	// swapMu serialises Swap calls so version numbers are dense and
	// monotonic; it is never taken on the decision path.
	swapMu sync.Mutex

	decisions atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
}

// NewDecider validates w and returns a Decider serving it as version 1.
func NewDecider(w poise.Weights) (*Decider, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	d := &Decider{}
	d.active.Store(&model{weights: w, version: 1})
	return d, nil
}

// Decide resolves a feature vector to a concrete warp-tuple under the
// caller's scheduler bound maxN. A non-empty key — by convention a
// kernel or trace-signature digest — memoises the decision table for
// that workload; cached reports whether this call was answered from
// the table. An empty key, a maxN outside 1..MaxTableN, or a new key
// once the model holds maxTables tables, predicts directly (still
// allocation-free, just not memoised).
func (d *Decider) Decide(key string, x poise.Vector, maxN int) (n, p int, cached bool) {
	m := d.active.Load()
	d.decisions.Add(1)
	if key == "" || maxN < 1 || maxN > MaxTableN {
		d.misses.Add(1)
		n, p = m.weights.PredictTuple(x, maxN)
		return n, p, false
	}
	dec, hit := m.decide(key, x, maxN)
	if hit {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return dec.N, dec.P, hit
}

// Swap validates w and atomically installs it as the active model,
// returning the new version. The new model starts with an empty memo
// table — the old tables were derived from the old weights and must
// not survive them. In-flight decisions finish on the model they
// loaded; there is no quiescence point and no reader ever blocks.
func (d *Decider) Swap(w poise.Weights) (int64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	d.swapMu.Lock()
	defer d.swapMu.Unlock()
	v := d.active.Load().version + 1
	d.active.Store(&model{weights: w, version: v})
	return v, nil
}

// Weights returns the active weight set and its version.
func (d *Decider) Weights() (poise.Weights, int64) {
	m := d.active.Load()
	return m.weights, m.version
}

// Version returns the active model's version (1 = boot weights).
func (d *Decider) Version() int64 { return d.active.Load().version }

// Tables returns how many decision tables the active model memoises.
func (d *Decider) Tables() int64 { return d.active.Load().tabled.Load() }

// Counters returns the decision totals: all decisions served, and the
// memo-table hit/miss split.
func (d *Decider) Counters() (decisions, hits, misses int64) {
	return d.decisions.Load(), d.hits.Load(), d.misses.Load()
}
