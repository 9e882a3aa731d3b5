package traceio

import (
	"context"
	"fmt"
	"math"

	"poise/internal/runner"
	"poise/internal/sim"
	"poise/internal/trace"
)

// RecordOptions tunes Record.
type RecordOptions struct {
	// MaxWarpIters truncates each warp's captured iteration count
	// (0 = record everything). Capped recordings are for preview and
	// characterisation — cheap on huge kernels — not for bit-exact
	// replay, which needs the full streams.
	MaxWarpIters int
}

// Record captures w into a Trace by evaluating every kernel's address
// patterns over the full launch geometry: for each slot and each
// global warp, the per-iteration address stream the simulator would
// observe. Patterns derive addresses only from the launch-geometry
// fields of trace.Ctx (see the Pattern contract), so the recording is
// policy-independent and replaying it reproduces any run bit-for-bit.
// The patterns are evaluated on GOMAXPROCS workers at once (pure
// functions, by the same contract); the Trace, or the error, does not
// depend on how many.
func Record(w *sim.Workload) (*Trace, error) {
	return RecordWith(w, RecordOptions{})
}

// RecordWith is Record with options.
func RecordWith(w *sim.Workload, opts RecordOptions) (*Trace, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: recording: %w", err)
	}
	t := &Trace{Name: w.Name, MemorySensitive: w.MemorySensitive}
	for _, k := range w.Kernels {
		kt, err := recordKernel(k, opts)
		if err != nil {
			return nil, fmt.Errorf("traceio: recording %s: %w", k.Name, err)
		}
		t.Kernels = append(t.Kernels, kt)
	}
	return t, nil
}

func recordKernel(k *trace.Kernel, opts RecordOptions) (*KernelTrace, error) {
	total := k.TotalWarps()
	kt := &KernelTrace{
		KernelMeta: KernelMeta{
			Name:             k.Name,
			Body:             append([]trace.Instr(nil), k.Body...),
			Slots:            len(k.Patterns),
			WarpsPerBlock:    k.WarpsPerBlock,
			Blocks:           k.Blocks,
			MaxWarpsPerSched: k.MaxWarpsPerSched,
			MaxBlocksPerSM:   k.MaxBlocksPerSM,
			WarpIters:        make([]int, total),
		},
	}
	// Every slot records WarpIters[g] accesses of warp g, so one
	// offset index serves all of the kernel's arenas.
	offs := make([]uint32, total+1)
	addrs := 0
	for g := 0; g < total; g++ {
		it := k.WarpIters(g)
		if opts.MaxWarpIters > 0 && it > opts.MaxWarpIters {
			it = opts.MaxWarpIters
		}
		kt.WarpIters[g] = it
		if addrs += it; addrs > math.MaxUint32 && len(k.Patterns) > 0 {
			return nil, errOffsetOverflow(slotName(k.Name, 0), addrs)
		}
		offs[g+1] = uint32(addrs)
	}
	kt.Streams = make([]*Replay, len(k.Patterns))
	for s := range kt.Streams {
		kt.Streams[s] = &Replay{name: slotName(k.Name, s), arena: make([]uint64, addrs), offs: offs}
	}
	// The (slot, warp) streams are filled in index-ordered chunks, one
	// task each. A chunk stops at its first unaligned address and the
	// lowest failing chunk's error is returned, so the verdict is the
	// sequential loop's, the lowest (slot, warp, seq), however many
	// workers run. One worker runs one chunk: that loop itself.
	units := len(k.Patterns) * total
	workers := runner.NumWorkers(0)
	chunks := min(units, workers*recordChunksPerWorker)
	if workers == 1 {
		chunks = min(units, 1)
	}
	// The tasks return their errors as values: Map cannot fail here.
	errs, _ := runner.Map(context.Background(), workers, chunks, func(_ context.Context, c int) (error, error) {
		return recordUnits(k, kt, c*units/chunks, (c+1)*units/chunks), nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return kt, nil
}

// recordChunksPerWorker is how many chunks Record deals each worker,
// so one slow chunk does not leave the others idle.
const recordChunksPerWorker = 4

// recordUnits fills the streams of units [lo, hi) of k in place in
// their arenas, unit u being slot u/total, warp u%total, stopping at
// the first unaligned address.
func recordUnits(k *trace.Kernel, kt *KernelTrace, lo, hi int) error {
	total := len(kt.WarpIters)
	for u := lo; u < hi; u++ {
		s, g := u/total, u%total
		p := k.Patterns[s]
		ctx := trace.Ctx{
			GlobalWarp: g,
			Block:      g / k.WarpsPerBlock,
			WarpInBlk:  g % k.WarpsPerBlock,
		}
		stream := kt.Streams[s].warpStream(g)
		for seq := range stream {
			addr := p.Addr(ctx, seq)
			if addr%trace.LineBytes != 0 {
				return fmt.Errorf("slot %d warp %d seq %d: pattern emitted unaligned address %#x",
					s, g, seq, addr)
			}
			stream[seq] = addr
		}
	}
	return nil
}
