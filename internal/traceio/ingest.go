package traceio

import (
	"fmt"
	"io"

	"poise/internal/sim"
	"poise/internal/trace"
)

// ReadWorkload streams a poisetrace container from r straight into a
// runnable sim.Workload backed by flat Replay arenas, computing the
// locality Signature in the same ingest pass. The file is decoded
// exactly once: each per-warp record flows from the Scanner into its
// slot's arena (one allocation per slot) as it arrives, and each
// kernel is characterised from its retained arenas on GOMAXPROCS
// workers while the next kernel's arrive — a whole Trace is never
// materialised, so peak memory is the replay data itself, not the
// container.
//
// The result is equivalent to Read → Trace.Workload → Characterise:
// the same validation (streamed inputs Read rejects, ReadWorkload
// rejects), the same replay patterns, and a DeepEqual-identical
// Signature — the round-trip tests pin all three. A nil opts skips
// the characterisation scan entirely (zero Signature) for callers
// that only want the workload.
func ReadWorkload(r io.Reader, opts *CharacteriseOptions) (*sim.Workload, Signature, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, Signature{}, err
	}
	name := sc.Name()
	if name == "" {
		return nil, Signature{}, fmt.Errorf("traceio: trace needs a workload name")
	}
	metas := sc.Kernels()
	if len(metas) == 0 {
		return nil, Signature{}, fmt.Errorf("traceio: trace %s has no kernels", name)
	}

	// The checks the Scanner leaves to the caller (it validates
	// geometry; iteration counts and body slot references are workload
	// concerns): KernelMeta.validate, which Trace.Validate runs too.
	kerr := func(ki int, format string, args ...any) error {
		return fmt.Errorf("traceio: trace %s kernel %d (%s): %s",
			name, ki, metas[ki].Name, fmt.Sprintf(format, args...))
	}
	used := make([][]bool, len(metas))
	for ki := range metas {
		if used[ki], err = metas[ki].validate(); err != nil {
			return nil, Signature{}, kerr(ki, "%v", err)
		}
	}

	// Drain the stream into one builder per (kernel, slot). Records
	// arrive kernel-major, slot, then warp — the arena append order —
	// so a single active builder suffices. A kernel whose last slot is
	// sealed is handed to the characteriser, whose workers scan it
	// while this loop fills the next kernel's arenas.
	reps := make([][]*Replay, len(metas))
	var chr *characteriser
	if opts != nil {
		chr = newCharacteriser(len(metas), *opts)
		defer chr.stop() // a no-op once the signature is taken
	}
	handed := 0
	handOver := func(upTo int) {
		for ; chr != nil && handed < upTo; handed++ {
			if m := &metas[handed]; len(reps[handed]) == m.Slots {
				chr.add(handed, replayView(m, reps[handed]))
			}
		}
	}
	var cur *ReplayBuilder
	curK, curSlot := -1, -1
	seal := func() error {
		if cur == nil {
			return nil
		}
		rep, err := cur.Finish()
		if err != nil {
			return err
		}
		reps[curK] = append(reps[curK], rep)
		cur = nil
		return nil
	}
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		if rec.Kernel != curK || rec.Slot != curSlot {
			if err := seal(); err != nil {
				return nil, Signature{}, err
			}
			handOver(rec.Kernel)
			// Warps of a slot mostly stream alike: reserve the first
			// one's length for each, so the arena is not regrown and
			// copied as it fills.
			m := &metas[rec.Kernel]
			reserve := min(len(rec.Addrs)*m.TotalWarps(), maxArenaReserve)
			cur = NewReplayBuilder(fmt.Sprintf("%s/slot%d", m.Name, rec.Slot), m.TotalWarps(), reserve)
			curK, curSlot = rec.Kernel, rec.Slot
		}
		if len(rec.Addrs) == 0 && used[rec.Kernel][rec.Slot] {
			return nil, Signature{}, kerr(rec.Kernel,
				"slot %d warp %d has an empty stream but the body references it", rec.Slot, rec.Warp)
		}
		cur.Warp(rec.Addrs)
	}
	if err := sc.Err(); err != nil {
		return nil, Signature{}, err
	}
	if err := seal(); err != nil {
		return nil, Signature{}, err
	}
	handOver(len(metas))

	w := &sim.Workload{Name: name, MemorySensitive: sc.MemorySensitive()}
	for ki := range metas {
		m := &metas[ki]
		if len(reps[ki]) != m.Slots {
			return nil, Signature{}, kerr(ki, "%d slots but %d streamed", m.Slots, len(reps[ki]))
		}
		pats := make([]trace.Pattern, m.Slots)
		for s, rep := range reps[ki] {
			pats[s] = rep
		}
		k, err := kernelFromMeta(m, pats)
		if err != nil {
			return nil, Signature{}, err
		}
		w.Kernels = append(w.Kernels, k)
	}
	if chr == nil {
		return w, Signature{}, nil
	}
	return w, chr.signature(name), nil
}

// replayView is the characterisation view of a kernel read into
// Replay arenas.
func replayView(m *KernelMeta, reps []*Replay) kernelView {
	return kernelView{
		body:       m.Body,
		warpIters:  m.WarpIters,
		totalWarps: m.TotalWarps(),
		maxIters:   m.MaxIters(),
		slots:      m.Slots,
		stream:     func(s, g int) []uint64 { return reps[s].warpStream(g) },
	}
}
