package traceio

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"poise/internal/reuse"
	"poise/internal/runner"
	"poise/internal/trace"
)

// Signature is the locality fingerprint of a trace, in the vocabulary
// of the paper's workload analysis (§V-B, Fig. 4, Table IIIa): the
// instruction gap between global loads, the per-warp cache footprint,
// the reuse distance R, and how reuse splits between lines a warp
// fetched itself (intra) and lines other warps brought in (inter).
// Characterising an ingested trace slots it into the same profiling
// and sensitivity machinery as the calibrated synthetic catalogue.
type Signature struct {
	Workload string
	Kernels  int

	// In is the issue-weighted mean instructions-between-global-loads.
	In float64
	// FootprintLines is the mean number of distinct cache lines one
	// warp's loads touch.
	FootprintLines float64
	// ReuseDist is the mean LRU stack distance of a single warp's
	// dwell-collapsed load stream — the same R statistic the Fig. 4
	// experiment computes (consecutive touches of one line collapse
	// first, so R characterises distinct-line reuse, not element
	// strides). Averaged over a sample of warps, weighted by each
	// warp's finite-reuse count.
	ReuseDist float64
	// IntraPct/InterPct split line reuses of the round-robin
	// interleaved load stream by whether the previous toucher was the
	// same warp. They sum to 100 when any reuse exists.
	IntraPct float64
	InterPct float64

	// Accesses is the number of loads in the interleaved scan (after
	// the sampling cap); ColdPct is the fraction that were first
	// touches of their line.
	Accesses int64
	ColdPct  float64
}

// CharacteriseOptions tunes the profiling cost.
type CharacteriseOptions struct {
	// MaxAccesses caps, per kernel, both the interleaved intra/inter
	// scan and the per-warp reuse-distance scan (whose LRU walk is
	// O(distance) per access). Footprint and In always use the full
	// trace. 0 means DefaultMaxAccesses; negative means unlimited.
	MaxAccesses int
}

// DefaultMaxAccesses bounds the per-kernel scans: enough to pin R and
// the reuse split within a few percent on every catalogue workload
// while keeping characterisation interactive on large traces.
const DefaultMaxAccesses = 1 << 17

// reuseSampleWarps is how many warps the per-warp R scan samples
// (evenly spaced across the launch).
const reuseSampleWarps = 8

// Characterise computes the locality signature of a trace. R comes
// from replaying sampled warps' recorded streams through an LRU
// stack-distance profiler (one warp at a time, the Fig. 4 definition);
// the intra/inter split comes from a round-robin interleaving of all
// warps — the in-phase schedule a full-occupancy GPU approximates —
// tracking each line's previous toucher. A trace Validate rejects is
// not scanned: its error is returned.
func Characterise(t *Trace, opts CharacteriseOptions) (Signature, error) {
	if err := t.Validate(); err != nil {
		return Signature{}, err
	}
	c := newCharacteriser(len(t.Kernels), opts)
	for i, kt := range t.Kernels {
		c.add(i, kt)
	}
	return c.signature(t.Name), nil
}

// characteriser computes a Signature from kernels handed to it in
// kernel order, each once its streams stop changing. A kernel's three
// scans (footprint, sampled reuse distance, interleaved split) are
// separate tasks run on runner.NumWorkers(0) workers: one goroutine
// per worker beyond the first, and the caller once it has handed over
// the last kernel, each worker with a scanScratch of its own. A task
// writes only its own fields of its kernel's kernelSig, and signature
// adds the kernels up in kernel order, so the Signature is the same
// float for float whichever worker ran what. With one worker there is
// no goroutine: the caller runs every task, in order, at the end.
type characteriser struct {
	opts    CharacteriseOptions
	kernels []*KernelTrace
	sigs    []kernelSig
	tasks   chan func(*scanScratch)
	wg      sync.WaitGroup
	quit    atomic.Bool // set by stop: queued tasks are dropped
	closed  bool
}

func newCharacteriser(kernels int, opts CharacteriseOptions) *characteriser {
	if opts.MaxAccesses == 0 {
		opts.MaxAccesses = DefaultMaxAccesses
	}
	c := &characteriser{
		opts:    opts,
		kernels: make([]*KernelTrace, kernels),
		sigs:    make([]kernelSig, kernels),
		tasks:   make(chan func(*scanScratch), 3*kernels), // add never blocks
	}
	for range runner.NumWorkers(0) - 1 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.work(&scanScratch{})
		}()
	}
	return c
}

func (c *characteriser) work(sc *scanScratch) {
	for task := range c.tasks {
		if !c.quit.Load() {
			task(sc)
		}
	}
}

// add hands over kernel ki and queues its scans.
func (c *characteriser) add(ki int, kt *KernelTrace) {
	c.kernels[ki] = kt
	ks := &c.sigs[ki]
	k := prepareScan(kt, c.opts)
	if len(k.loads) == 0 {
		ks.in = float64(len(kt.Body)) * 1000 // loadless: effectively infinite, as Kernel.In
		return
	}
	ks.in = float64(len(kt.Body)) / float64(len(k.loads))
	c.tasks <- func(sc *scanScratch) { ks.footprint = k.footprint(sc) }
	c.tasks <- func(sc *scanScratch) { ks.meanDist, ks.finite = k.reuseDist(sc) }
	c.tasks <- func(sc *scanScratch) { ks.intra, ks.inter, ks.cold, ks.accesses = k.interleave(sc) }
}

// finish runs what is left on the caller and waits for the workers.
func (c *characteriser) finish() {
	if c.closed {
		return
	}
	c.closed = true
	close(c.tasks)
	c.work(&scanScratch{})
	c.wg.Wait()
}

// stop abandons the queued scans and waits for the workers to exit.
func (c *characteriser) stop() {
	c.quit.Store(true)
	c.finish()
}

// signature waits for every scan and aggregates the kernels, in
// kernel order, into a workload Signature.
func (c *characteriser) signature(name string) Signature {
	c.finish()
	sig := Signature{Workload: name, Kernels: len(c.kernels)}
	var (
		issueTotal float64 // instruction issues, weights In
		inSum      float64
		warpTotal  float64 // warps, weights footprint
		footSum    float64
		finiteSum  float64 // finite reuses, weight R
		distSum    float64
		intraN     int64
		interN     int64
		coldN      int64
		scanned    int64
	)
	for i, kt := range c.kernels {
		ks := &c.sigs[i]
		issues := float64(len(kt.Body)) * float64(totalIters(kt.WarpIters))
		issueTotal += issues
		inSum += ks.in * issues
		warps := float64(kt.TotalWarps())
		warpTotal += warps
		footSum += ks.footprint * warps
		finiteSum += float64(ks.finite)
		distSum += ks.meanDist * float64(ks.finite)
		intraN += ks.intra
		interN += ks.inter
		coldN += ks.cold
		scanned += ks.accesses
	}
	if issueTotal > 0 {
		sig.In = inSum / issueTotal
	}
	if warpTotal > 0 {
		sig.FootprintLines = footSum / warpTotal
	}
	if finiteSum > 0 {
		sig.ReuseDist = distSum / finiteSum
	}
	if n := intraN + interN; n > 0 {
		sig.IntraPct = 100 * float64(intraN) / float64(n)
		sig.InterPct = 100 * float64(interN) / float64(n)
	}
	sig.Accesses = scanned
	if scanned > 0 {
		sig.ColdPct = 100 * float64(coldN) / float64(scanned)
	}
	return sig
}

type kernelSig struct {
	in        float64
	footprint float64
	meanDist  float64
	finite    int64
	intra     int64
	inter     int64
	cold      int64
	accesses  int64
}

func totalIters(warpIters []int) int64 {
	var n int64
	for _, it := range warpIters {
		n += int64(it)
	}
	return n
}

// loadSlots returns the slot of each OpLoad in body order (one entry
// per load instruction, so a slot referenced twice counts twice).
func loadSlots(body []trace.Instr) []int {
	var out []int
	for _, ins := range body {
		if ins.Kind == trace.OpLoad {
			out = append(out, ins.Slot)
		}
	}
	return out
}

// distinctSet counts distinct values: an open-addressing table kept
// from one use to the next and emptied by moving on to a new stamp,
// at a fraction of what a map cleared and refilled each time costs.
// Each value carries an int32 tag (the interleaved scan keeps the warp
// that touched a line last there). The table doubles when it is half
// full and never shrinks, so it settles at the size the largest set
// needs, small enough to stay in cache when sets are.
type distinctSet struct {
	slots []distinctSlot
	stamp uint32
	shift uint // 64 - log2(len(slots))
	n     int  // distinct values added since reset
}

type distinctSlot struct {
	key   uint64
	stamp uint32
	tag   int32
}

// reset empties the set.
func (d *distinctSet) reset() {
	if d.slots == nil {
		d.slots, d.shift = make([]distinctSlot, 16), 64-4
	}
	if d.stamp++; d.stamp == 0 { // wrapped: old stamps would read as live
		clear(d.slots)
		d.stamp = 1
	}
	d.n = 0
}

func (d *distinctSet) add(v uint64) { d.tag(v) }

// tag adds v if it is new, with tag -1, and returns its tag for the
// caller to read and set. The pointer is valid until the next add.
// The set must have been reset once.
func (d *distinctSet) tag(v uint64) *int32 {
	for i := v * 0x9e3779b97f4a7c15 >> d.shift; ; i = (i + 1) & uint64(len(d.slots)-1) {
		if s := &d.slots[i]; s.stamp != d.stamp {
			if 2*(d.n+1) > len(d.slots) {
				d.grow()
				return d.tag(v)
			}
			*s = distinctSlot{key: v, stamp: d.stamp, tag: -1}
			d.n++
			return &s.tag
		} else if s.key == v {
			return &s.tag
		}
	}
}

// grow doubles the table, keeping the values added since reset.
func (d *distinctSet) grow() {
	old, stamp := d.slots, d.stamp
	log := bits.Len(uint(len(old)))
	d.slots, d.shift, d.stamp = make([]distinctSlot, 1<<log), uint(64-log), 1
	for _, s := range old {
		if s.stamp != stamp {
			continue
		}
		i := s.key * 0x9e3779b97f4a7c15 >> d.shift
		for d.slots[i].stamp == d.stamp {
			i = (i + 1) & uint64(len(d.slots)-1)
		}
		d.slots[i] = distinctSlot{key: s.key, stamp: d.stamp, tag: s.tag}
	}
}

// scanScratch is the storage one worker's scans reuse from one task
// to the next.
type scanScratch struct {
	lines distinctSet
	prof  *reuse.Profiler
}

// kernelScan is one kernel made ready for its scans.
type kernelScan struct {
	kt      *KernelTrace
	loads   []int
	streams [][]uint64 // per (warp, slot): streams[g*slots+s], nil where no load reads s
	budget  int64
}

// prepareScan indexes the streams of kt that loads read.
func prepareScan(kt *KernelTrace, opts CharacteriseOptions) *kernelScan {
	k := &kernelScan{kt: kt, loads: loadSlots(kt.Body), budget: int64(opts.MaxAccesses)}
	if k.budget < 0 {
		k.budget = 1 << 62
	}
	// One entry per stream the trace carries, however many loads read
	// a slot.
	loaded := make([]bool, kt.Slots)
	for _, s := range k.loads {
		loaded[s] = true
	}
	total := kt.TotalWarps()
	k.streams = make([][]uint64, 0, total*kt.Slots)
	for g := 0; g < total; g++ {
		for s, ok := range loaded {
			var stream []uint64
			if ok {
				stream = kt.Streams[s].warpStream(g)
			}
			k.streams = append(k.streams, stream)
		}
	}
	return k
}

// footprint is the mean per-warp count of distinct lines the loads
// read over the full recorded streams (cheap: one set insert per
// access).
func (k *kernelScan) footprint(sc *scanScratch) float64 {
	total, slots := k.kt.TotalWarps(), k.kt.Slots
	distinct := &sc.lines
	var footSum int
	for g := 0; g < total; g++ {
		distinct.reset()
		for _, stream := range k.streams[g*slots : (g+1)*slots] { // nil where no load reads the slot
			for i, addr := range stream {
				if i == 0 || addr != stream[i-1] { // a repeat is already counted
					distinct.add(addr / trace.LineBytes)
				}
			}
		}
		footSum += distinct.n
	}
	return float64(footSum) / float64(total)
}

// reuseDist is R: sampled warps replay their own recorded stream
// through the profiler, emptied for each (the single-warp Fig. 4
// definition), dwell runs collapsed per slot. It returns the mean
// distance and the finite reuses it is the mean of.
func (k *kernelScan) reuseDist(sc *scanScratch) (meanDist float64, finite int64) {
	total, slots := k.kt.TotalWarps(), k.kt.Slots
	step := total / reuseSampleWarps
	if step < 1 {
		step = 1
	}
	samples := (total + step - 1) / step
	perWarp := k.budget / int64(samples)
	if perWarp < 1 {
		perWarp = 1
	}
	const noLine = ^uint64(0) // line indices stay below maxLineIndex
	lastLine := make([]uint64, slots)
	if sc.prof == nil {
		sc.prof = reuse.NewProfiler()
	}
	prof := sc.prof
	for g := 0; g < total; g += step {
		prof.Reset()
		for s := range lastLine {
			lastLine[s] = noLine
		}
		var n int64
	warp:
		for it := 0; it < k.kt.WarpIters[g]; it++ {
			for _, s := range k.loads {
				if n >= perWarp {
					break warp
				}
				stream := k.streams[g*slots+s]
				line := stream[wrap(it, len(stream))] / trace.LineBytes
				if lastLine[s] == line {
					continue // intra-line spatial run
				}
				lastLine[s] = line
				prof.Touch(line)
				n++
			}
		}
		f := prof.Accesses - prof.ColdMisses
		meanDist += prof.MeanDistance() * float64(f)
		finite += f
	}
	if finite > 0 {
		meanDist /= float64(finite)
	}
	return meanDist, finite
}

// interleave is the intra/inter/cold split: a round-robin interleave
// of every warp, O(1) per access (only the previous toucher of each
// line, kept as the line's tag).
func (k *kernelScan) interleave(sc *scanScratch) (intra, inter, cold, accesses int64) {
	total, slots := k.kt.TotalWarps(), k.kt.Slots
	lastWarp := &sc.lines
	lastWarp.reset()
scan:
	for it := range k.kt.MaxIters() {
		for g := 0; g < total; g++ {
			if it >= k.kt.WarpIters[g] {
				continue
			}
			for _, s := range k.loads {
				if accesses >= k.budget {
					break scan
				}
				stream := k.streams[g*slots+s]
				line := stream[wrap(it, len(stream))] / trace.LineBytes
				tag := lastWarp.tag(line)
				accesses++
				switch prev := int(*tag); {
				case prev < 0:
					cold++
				case prev == g:
					intra++
				default:
					inter++
				}
				*tag = int32(g)
			}
		}
	}
	return intra, inter, cold, accesses
}

// wrap returns it modulo n, taking the division only past the end.
func wrap(it, n int) int {
	if it < n {
		return it
	}
	return it % n
}
