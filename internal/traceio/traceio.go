// Package traceio ingests recorded GPU kernel traces and turns them
// into first-class workloads for the Poise pipeline.
//
// The synthetic catalogue (package workloads) evaluates the paper's
// claims on address streams calibrated to Table IIIa; this package
// opens the same pipeline to *externally supplied* workloads. Three
// pieces cooperate:
//
//   - a versioned on-disk format ("poisetrace", see format.go) holding
//     a workload's kernels as per-warp, per-slot cache-line address
//     streams plus the instruction-level loop body — everything the
//     simulator needs, nothing it derives;
//   - Record, which captures any trace.Pattern-backed workload into a
//     Trace by evaluating its patterns over the launch geometry, and
//     Replay, a trace.Pattern that plays a recorded stream back — so
//     record → replay is bit-identical to the live run, a round trip
//     the tests verify without needing real hardware. A Replay's flat
//     arena is the only in-memory form of a recorded stream: Record
//     fills it in place, ReadWorkload fills it from the Scanner, and
//     the replaying workload shares it;
//   - Characterise, which computes the locality signature the paper's
//     analysis runs on (In, per-warp footprint, reuse distance R, the
//     intra-/inter-warp reuse split) directly from a raw trace, so
//     ingested workloads slot into the profiling and sensitivity
//     machinery like calibrated synthetic ones.
//
// ReadAccelSim additionally parses a simplified Accel-Sim/GPGPU-Sim
// style kernel-trace text layout (see accelsim.go), mapping static
// memory PCs to pattern slots, so traces captured from real CUDA
// binaries can be replayed through the simulator.
package traceio

import (
	"fmt"

	"poise/internal/trace"
)

// Trace is one recorded workload: an ordered list of kernel traces.
type Trace struct {
	// Name is the workload name; replayed workloads inherit it. (It is
	// serialised under the "Workload" header key.)
	Name string
	// MemorySensitive carries the catalogue's Pbest>1.4 classification
	// (false for ingested traces until characterised/profiled).
	MemorySensitive bool
	Kernels         []*KernelTrace
}

// KernelMeta is one kernel's metadata: everything a KernelTrace
// carries except the address streams, which is what a Scanner knows
// before it yields them.
type KernelMeta struct {
	Name string
	// Body is the kernel loop body; memory ops reference address
	// streams by their Slot index.
	Body []trace.Instr
	// Slots is the number of address-stream slots.
	Slots int

	WarpsPerBlock    int
	Blocks           int
	MaxWarpsPerSched int
	MaxBlocksPerSM   int

	// WarpIters[g] is global warp g's recorded iteration count
	// (len == WarpsPerBlock*Blocks).
	WarpIters []int
}

// KernelTrace is one kernel: its metadata and the recorded address
// streams.
type KernelTrace struct {
	KernelMeta

	// Streams[slot] holds the slot's recorded line-aligned
	// byte-address stream of every global warp, in the flat arena that
	// replays them. Recorded streams have exactly WarpIters[g] entries;
	// ingested (Accel-Sim) streams may be shorter and are replayed
	// cyclically.
	Streams []*Replay
}

// TotalWarps returns the kernel's launch width.
func (m *KernelMeta) TotalWarps() int { return m.WarpsPerBlock * m.Blocks }

// MaxIters returns the largest per-warp iteration count.
func (m *KernelMeta) MaxIters() int {
	max := 1
	for _, it := range m.WarpIters {
		if it > max {
			max = it
		}
	}
	return max
}

// Validate reports the first structural problem with the trace. A
// valid Trace always builds a valid workload. Every kernel's metadata
// is checked before any stream, the order in which a container
// presents them.
func (t *Trace) Validate() error {
	used, err := t.validateMeta()
	if err != nil {
		return err
	}
	for i, kt := range t.Kernels {
		if err := kt.validateStreams(used[i]); err != nil {
			return t.kernelErr(i, err)
		}
	}
	return nil
}

// validateMeta checks the trace's identity and every kernel's
// metadata, and returns, per kernel, which slots memory instructions
// touch.
func (t *Trace) validateMeta() ([][]bool, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("traceio: trace needs a workload name")
	}
	if len(t.Kernels) == 0 {
		return nil, fmt.Errorf("traceio: trace %s has no kernels", t.Name)
	}
	used := make([][]bool, len(t.Kernels))
	for i, kt := range t.Kernels {
		if kt == nil {
			return nil, fmt.Errorf("traceio: trace %s kernel %d is nil", t.Name, i)
		}
		var err error
		if used[i], err = kt.KernelMeta.validate(); err != nil {
			return nil, t.kernelErr(i, err)
		}
	}
	return used, nil
}

// kernelErr places err at kernel i of the trace.
func (t *Trace) kernelErr(i int, err error) error {
	return fmt.Errorf("traceio: trace %s kernel %d (%s): %w", t.Name, i, t.Kernels[i].Name, err)
}

// validateGeometry checks the launch-shape fields alone. The format
// reader runs it before allocating stream storage, so a corrupt or
// hostile header cannot overflow TotalWarps (an int multiply) or
// drive absurd allocations.
func (m *KernelMeta) validateGeometry() error {
	if m.Name == "" {
		return fmt.Errorf("kernel needs a name")
	}
	if len(m.Body) == 0 {
		return fmt.Errorf("empty body")
	}
	if m.WarpsPerBlock <= 0 || m.Blocks <= 0 {
		return fmt.Errorf("launch geometry %dx%d warps/blocks must be positive",
			m.WarpsPerBlock, m.Blocks)
	}
	// Each factor is bounded before the product so the int64 multiply
	// itself cannot wrap (two ~2^31.5 factors would).
	if m.WarpsPerBlock > maxTotalWarps || m.Blocks > maxTotalWarps ||
		int64(m.WarpsPerBlock)*int64(m.Blocks) > maxTotalWarps {
		return fmt.Errorf("launch of %dx%d warps exceeds the %d-warp limit",
			m.WarpsPerBlock, m.Blocks, maxTotalWarps)
	}
	if m.MaxWarpsPerSched < 0 || m.MaxBlocksPerSM < 0 {
		return fmt.Errorf("negative occupancy cap")
	}
	if m.Slots < 0 || m.Slots > maxSlots {
		return fmt.Errorf("%d slots outside [0,%d]", m.Slots, maxSlots)
	}
	return nil
}

// validate checks everything but the streams: the launch geometry,
// the iteration counts and the body's slot references. It returns which
// slots memory instructions touch, so the streaming ingest can reject a
// referenced slot's empty stream as it flows past.
func (m *KernelMeta) validate() ([]bool, error) {
	if err := m.validateGeometry(); err != nil {
		return nil, err
	}
	total := m.TotalWarps()
	if len(m.WarpIters) != total {
		return nil, fmt.Errorf("%d WarpIters entries for %d warps", len(m.WarpIters), total)
	}
	for g, it := range m.WarpIters {
		if it <= 0 {
			return nil, fmt.Errorf("warp %d has iteration count %d, must be positive", g, it)
		}
	}
	used := make([]bool, m.Slots)
	for i, ins := range m.Body {
		switch ins.Kind {
		case trace.OpALU:
		case trace.OpLoad, trace.OpStore:
			if ins.Slot < 0 || ins.Slot >= m.Slots {
				return nil, fmt.Errorf("body[%d] references slot %d of %d", i, ins.Slot, m.Slots)
			}
			if ins.Kind == trace.OpLoad && ins.UseDist < 0 {
				return nil, fmt.Errorf("body[%d] negative UseDist", i)
			}
			used[ins.Slot] = true
		default:
			return nil, fmt.Errorf("body[%d] unknown op kind %d", i, ins.Kind)
		}
	}
	return used, nil
}

// errEmptyStream is the verdict on warp g's empty stream in a slot
// the body references.
func errEmptyStream(slot, g int) error {
	return fmt.Errorf("slot %d warp %d has an empty stream but the body references it", slot, g)
}

// validateStreams checks the streams against metadata that validate
// accepted; used says which slots the body references.
func (kt *KernelTrace) validateStreams(used []bool) error {
	if kt.Slots != len(kt.Streams) {
		return fmt.Errorf("%d slots but %d streams", kt.Slots, len(kt.Streams))
	}
	total := kt.TotalWarps()
	for s, rep := range kt.Streams {
		if rep == nil {
			return fmt.Errorf("slot %d has no streams", s)
		}
		if n := rep.warps(); n != total {
			return fmt.Errorf("slot %d has %d warp streams for %d warps", s, n, total)
		}
		for g := range total {
			st := rep.warpStream(g)
			if used[s] && len(st) == 0 {
				return errEmptyStream(s, g)
			}
			for j, addr := range st {
				if addr%trace.LineBytes != 0 {
					return fmt.Errorf("slot %d warp %d access %d: address %#x not %d-byte aligned",
						s, g, j, addr, trace.LineBytes)
				}
				if int64(addr/trace.LineBytes) > maxLineIndex {
					return fmt.Errorf("slot %d warp %d access %d: address %#x beyond the format's line-index limit",
						s, g, j, addr)
				}
			}
		}
	}
	return nil
}
