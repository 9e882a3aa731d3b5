package traceio

import (
	"poise/internal/reuse"
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
	// MaxDist caps the reuse-distance histogram resolution (0 means
	// DefaultMaxDist). Distances beyond the cap still contribute their
	// exact value to the mean.
	MaxDist int
}

// DefaultMaxAccesses bounds the per-kernel scans: enough to pin R and
// the reuse split within a few percent on every catalogue workload
// while keeping characterisation interactive on large traces.
const DefaultMaxAccesses = 1 << 17

// DefaultMaxDist is the default histogram resolution, matching the
// Fig. 4 experiment's profiler.
const DefaultMaxDist = 1 << 14

// reuseSampleWarps is how many warps the per-warp R scan samples
// (evenly spaced across the launch).
const reuseSampleWarps = 8

// Characterise computes the locality signature of a trace. R comes
// from replaying sampled warps' recorded streams through an LRU
// stack-distance profiler (one warp at a time, the Fig. 4 definition);
// the intra/inter split comes from a round-robin interleaving of all
// warps — the in-phase schedule a full-occupancy GPU approximates —
// tracking each line's previous toucher.
func Characterise(t *Trace, opts CharacteriseOptions) Signature {
	views := make([]kernelView, len(t.Kernels))
	for i, kt := range t.Kernels {
		views[i] = kt.view()
	}
	return signatureOf(t.Name, views, opts)
}

// kernelView is the scan core's read-only window onto one kernel: the
// loop body, launch shape, and a per-(slot, warp) stream accessor. It
// abstracts over where the streams live — nested KernelTrace slices or
// flat Replay arenas — so the in-memory and streaming ingest paths
// characterise through the identical code and agree bit-for-bit.
type kernelView struct {
	body       []trace.Instr
	warpIters  []int
	totalWarps int
	maxIters   int
	slots      int
	stream     func(slot, g int) []uint64
}

func (kt *KernelTrace) view() kernelView {
	return kernelView{
		body:       kt.Body,
		warpIters:  kt.WarpIters,
		totalWarps: kt.TotalWarps(),
		maxIters:   kt.MaxIters(),
		slots:      kt.Slots,
		stream:     func(s, g int) []uint64 { return kt.Streams[s][g] },
	}
}

// signatureOf aggregates per-kernel scans into a workload Signature.
func signatureOf(name string, views []kernelView, opts CharacteriseOptions) Signature {
	if opts.MaxAccesses == 0 {
		opts.MaxAccesses = DefaultMaxAccesses
	}
	if opts.MaxDist <= 0 {
		opts.MaxDist = DefaultMaxDist
	}
	sig := Signature{Workload: name, Kernels: len(views)}

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
	scratch := &scanScratch{prof: reuse.NewProfiler(opts.MaxDist)}
	for _, v := range views {
		ks := characteriseKernel(v, opts, scratch)
		issues := float64(len(v.body)) * float64(totalIters(v.warpIters))
		issueTotal += issues
		inSum += ks.in * issues
		warpTotal += float64(v.totalWarps)
		footSum += ks.footprint * float64(v.totalWarps)
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

// scanScratch is the storage characteriseKernel reuses from one kernel
// to the next.
type scanScratch struct {
	lines   distinctSet
	streams [][]uint64 // per (warp, slot): streams[g*slots+s], nil where no load reads s
	prof    *reuse.Profiler
}

func characteriseKernel(v kernelView, opts CharacteriseOptions, sc *scanScratch) kernelSig {
	loads := loadSlots(v.body)
	ks := kernelSig{}
	if len(loads) == 0 {
		ks.in = float64(len(v.body)) * 1000 // loadless: effectively infinite, as Kernel.In
		return ks
	}
	ks.in = float64(len(v.body)) / float64(len(loads))

	budget := int64(opts.MaxAccesses)
	if budget < 0 {
		budget = 1 << 62
	}
	// One entry per stream the trace carries, however many loads read
	// a slot.
	total, slots := v.totalWarps, v.slots
	loaded := make([]bool, slots)
	for _, s := range loads {
		loaded[s] = true
	}
	sc.streams = sc.streams[:0]
	for g := 0; g < total; g++ {
		for s, ok := range loaded {
			var stream []uint64
			if ok {
				stream = v.stream(s, g)
			}
			sc.streams = append(sc.streams, stream)
		}
	}
	streams := sc.streams

	// Per-warp footprint over the full recorded streams (cheap: one set
	// insert per access).
	distinct := &sc.lines
	var footSum int
	for g := 0; g < total; g++ {
		distinct.reset()
		for _, stream := range streams[g*slots : (g+1)*slots] {
			for i, addr := range stream {
				if i == 0 || addr != stream[i-1] { // a repeat is already counted
					distinct.add(addr / trace.LineBytes)
				}
			}
		}
		footSum += distinct.n
	}
	ks.footprint = float64(footSum) / float64(total)

	// R: sampled warps replay their own recorded stream through the
	// profiler, emptied for each (the single-warp Fig. 4 definition),
	// dwell runs collapsed per slot.
	step := total / reuseSampleWarps
	if step < 1 {
		step = 1
	}
	samples := (total + step - 1) / step
	perWarp := budget / int64(samples)
	if perWarp < 1 {
		perWarp = 1
	}
	const noLine = ^uint64(0) // line indices stay below maxLineIndex
	lastLine := make([]uint64, slots)
	prof := sc.prof
	for g := 0; g < total; g += step {
		prof.Reset()
		for s := range lastLine {
			lastLine[s] = noLine
		}
		var n int64
	warp:
		for it := 0; it < v.warpIters[g]; it++ {
			for _, s := range loads {
				if n >= perWarp {
					break warp
				}
				stream := streams[g*slots+s]
				line := stream[wrap(it, len(stream))] / trace.LineBytes
				if lastLine[s] == line {
					continue // intra-line spatial run
				}
				lastLine[s] = line
				prof.Touch(line)
				n++
			}
		}
		finite := prof.Accesses - prof.ColdMisses
		ks.meanDist += prof.MeanDistance() * float64(finite)
		ks.finite += finite
	}
	if ks.finite > 0 {
		ks.meanDist /= float64(ks.finite)
	}

	// Intra/inter/cold split: round-robin interleave of every warp,
	// O(1) per access (only the previous toucher of each line, kept as
	// the line's tag).
	lastWarp := &sc.lines
	lastWarp.reset()
scan:
	for it := 0; it < v.maxIters; it++ {
		for g := 0; g < total; g++ {
			if it >= v.warpIters[g] {
				continue
			}
			for _, s := range loads {
				if ks.accesses >= budget {
					break scan
				}
				stream := streams[g*slots+s]
				line := stream[wrap(it, len(stream))] / trace.LineBytes
				tag := lastWarp.tag(line)
				ks.accesses++
				switch prev := int(*tag); {
				case prev < 0:
					ks.cold++
				case prev == g:
					ks.intra++
				default:
					ks.inter++
				}
				*tag = int32(g)
			}
		}
	}
	return ks
}

// wrap returns it modulo n, taking the division only past the end.
func wrap(it, n int) int {
	if it < n {
		return it
	}
	return it % n
}
