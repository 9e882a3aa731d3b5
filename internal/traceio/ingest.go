package traceio

import (
	"io"

	"poise/internal/sim"
)

// ReadWorkload streams a poisetrace container from r straight into a
// runnable sim.Workload backed by flat Replay arenas, computing the
// locality Signature in the same ingest pass. The file is decoded
// exactly once: each per-warp record flows from the Scanner into its
// slot's arena (one allocation per slot) as it arrives, and each
// kernel is characterised from those arenas on GOMAXPROCS workers
// while the next kernel's arrive, so peak memory is the replay data
// itself, not the container.
//
// The result is the one Trace.Workload and Characterise make of the
// same trace: the same validation, the same replay patterns, and a
// DeepEqual-identical Signature — the round-trip tests pin all three.
// A nil opts skips the characterisation scan entirely (zero Signature)
// for callers that only want the workload.
func ReadWorkload(r io.Reader, opts *CharacteriseOptions) (*sim.Workload, Signature, error) {
	t, chr, err := read(r, opts)
	if err != nil {
		return nil, Signature{}, err
	}
	w := t.workload()
	if chr == nil {
		return w, Signature{}, nil
	}
	return w, chr.signature(t.Name), nil
}

// read drains a poisetrace container from r into a Trace whose streams
// are the flat replay arenas, filled record by record: the one loop
// that reads a container into memory. Its result passes Validate with
// no second pass: every kernel's metadata is checked before any
// stream, an empty stream on a slot the body references is rejected as
// it arrives, and the Scanner yields only line-aligned addresses
// within the line-index bound. It is strict: malformed input of any
// kind returns an error and never panics.
//
// With opts set, read also returns the running characteriser: each
// kernel goes to it as soon as its last slot is sealed, so its scans
// run while the loop fills the next kernel's arenas. Any error stops
// the characteriser before read returns.
func read(r io.Reader, opts *CharacteriseOptions) (_ *Trace, _ *characteriser, err error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, nil, err
	}
	t := &Trace{Name: sc.Name(), MemorySensitive: sc.MemorySensitive()}
	for _, m := range sc.Kernels() {
		t.Kernels = append(t.Kernels, &KernelTrace{KernelMeta: m, Streams: make([]*Replay, m.Slots)})
	}
	// The Scanner validates geometry; iteration counts and body slot
	// references are the trace's concerns, checked here as Validate
	// checks them.
	used, err := t.validateMeta()
	if err != nil {
		return nil, nil, err
	}
	var chr *characteriser
	if opts != nil {
		chr = newCharacteriser(len(t.Kernels), *opts)
		defer func() {
			if err != nil {
				chr.stop()
			}
		}()
	}
	handed := 0
	handOver := func(upTo int) {
		for ; chr != nil && handed < upTo; handed++ {
			chr.add(handed, t.Kernels[handed])
		}
	}

	// Records arrive kernel-major, slot, then warp — the arena append
	// order — so a single active builder suffices.
	var cur *replayBuilder
	curK, curSlot := -1, -1
	seal := func() error {
		if cur == nil {
			return nil
		}
		rep, err := cur.finish()
		t.Kernels[curK].Streams[curSlot] = rep
		cur = nil
		return err
	}
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		if rec.Kernel != curK || rec.Slot != curSlot {
			if err := seal(); err != nil {
				return nil, nil, err
			}
			handOver(rec.Kernel)
			// Warps of a slot mostly stream alike: reserve the first
			// one's length for each, so the arena is not regrown and
			// copied as it fills.
			kt := t.Kernels[rec.Kernel]
			reserve := min(len(rec.Addrs)*kt.TotalWarps(), maxArenaReserve)
			cur = newReplayBuilder(slotName(kt.Name, rec.Slot), kt.TotalWarps(), reserve)
			curK, curSlot = rec.Kernel, rec.Slot
		}
		if len(rec.Addrs) == 0 && used[rec.Kernel][rec.Slot] {
			return nil, nil, t.kernelErr(rec.Kernel, errEmptyStream(rec.Slot, rec.Warp))
		}
		cur.warp(rec.Addrs)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if err := seal(); err != nil {
		return nil, nil, err
	}
	handOver(len(t.Kernels))
	return t, chr, nil
}
