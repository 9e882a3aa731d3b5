package traceio

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"poise/internal/snap"
	"poise/internal/trace"
)

// ReadAccelSim parses a simplified Accel-Sim/GPGPU-Sim style kernel
// trace and converts it into a Trace. The supported layout is the
// subset of the Accel-Sim tracer's kernel-*.trace text format that the
// Poise kernel model consumes:
//
//	-kernel name = vecadd
//	-grid dim = (2,1,1)
//	-block dim = (64,1,1)
//
//	#BEGIN_TB
//	thread block = 0,0,0
//	warp = 0
//	insts = 4
//	0008 ffffffff 1 R1 LDG.E 1 R4 4 0x100080
//	0010 ffffffff 1 R2 IADD 2 R1 R5
//	0018 ffffffff 0 STG.E 2 R1 R7 4 0x200000
//	...
//	#END_TB
//
// Instruction lines are "PC mask ndest [dest...] opcode nsrc [src...]"
// with memory ops (LD*/ST* opcodes) carrying a trailing access width
// and either one coalesced base address or — as the real tracer dumps
// uncoalesced accesses — one address per active lane, exactly
// popcount(mask) of them. Per-lane lists are coalesced within the
// instruction to their distinct cache lines in first-touch order, the
// same merge the hardware's coalescing unit performs, so a divergent
// gather becomes several stream entries and a unit-stride access
// stays one. Shared-memory ops (LDS/STS) use the same grammar but
// never leave the SM: their addresses are validated then dropped, and
// the op counts toward the ALU gap. Multiple kernel sections may
// appear in one stream (a new "-kernel name" line starts the next
// kernel); gzipped input is detected and unwrapped transparently.
//
// Mapping onto the loop-body model: each static memory PC becomes one
// pattern slot (first-appearance order); the i-th dynamic occurrence
// of that PC in a warp is the slot's access at iteration i, so a
// warp's iteration count is the occurrence count of its busiest PC.
// Non-memory instructions set the ALU gap of the synthesised body so
// the trace's instructions-per-load ratio (the paper's In) is
// preserved. Warps that never touch a slot replay a single null line.
func ReadAccelSim(r io.Reader, workload string) (*Trace, error) {
	br, _, err := snap.Open(r, 0)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	p := &accelParser{sc: bufio.NewScanner(br), workload: workload}
	p.sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return p.parse()
}

type accelKernel struct {
	name          string
	gridDim       [3]int
	gridBlocks    int
	warpsPerBlock int

	// slots maps a static memory PC to its slot index.
	slots     map[uint64]int
	slotOrder []uint64
	slotKind  []trace.OpKind

	// streams[slot][globalWarp]
	streams  map[int]map[int][]uint64
	aluCount int64
	memCount int64

	curBlock int // linearised block id, -1 outside a TB section
	curWarp  int // warp id within the block, -1 before a warp line
}

type accelParser struct {
	sc       *bufio.Scanner
	workload string
	line     int

	kernels []*accelKernel
	cur     *accelKernel
	// pending geometry, filled by metadata lines until the first
	// instruction section needs it.
	gridDim  [3]int
	blockDim [3]int
	name     string

	// lineBuf is the per-instruction coalescing scratch (≤ one line per
	// lane), reused across instruction lines.
	lineBuf []uint64
}

func (p *accelParser) errf(format string, args ...any) error {
	return fmt.Errorf("traceio: accel-sim line %d: "+format, append([]any{p.line}, args...)...)
}

func (p *accelParser) parse() (*Trace, error) {
	for p.sc.Scan() {
		p.line++
		line := strings.TrimSpace(p.sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "-"):
			if err := p.metadata(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "#"):
			// #BEGIN_TB / #END_TB and any other directive: block
			// boundaries are tracked via "thread block =" lines.
			if p.cur != nil && line == "#END_TB" {
				p.cur.curBlock, p.cur.curWarp = -1, -1
			}
			continue
		case strings.HasPrefix(line, "thread block"):
			if err := p.threadBlock(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "warp"):
			if err := p.warpLine(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "insts"):
			continue // per-warp instruction count: informational
		default:
			if err := p.instruction(line); err != nil {
				return nil, err
			}
		}
	}
	if err := p.sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: accel-sim: %w", err)
	}
	if err := p.finishKernel(); err != nil {
		return nil, err
	}
	if len(p.kernels) == 0 {
		return nil, fmt.Errorf("traceio: accel-sim: no kernel sections found")
	}
	t := &Trace{Name: p.workload}
	if t.Name == "" {
		t.Name = p.kernels[0].name
	}
	for _, ak := range p.kernels {
		kt, err := ak.kernelTrace()
		if err != nil {
			return nil, err
		}
		t.Kernels = append(t.Kernels, kt)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (p *accelParser) metadata(line string) error {
	key, val, ok := strings.Cut(line[1:], "=")
	if !ok {
		return p.errf("metadata %q has no '='", line)
	}
	key, val = strings.TrimSpace(key), strings.TrimSpace(val)
	switch key {
	case "kernel name":
		if err := p.finishKernel(); err != nil {
			return err
		}
		p.name = val
	case "grid dim":
		return p.dim(val, &p.gridDim)
	case "block dim":
		return p.dim(val, &p.blockDim)
	}
	// Other metadata (-shmem, -nregs, ...) is irrelevant to the model.
	return nil
}

func (p *accelParser) dim(val string, out *[3]int) error {
	val = strings.TrimSuffix(strings.TrimPrefix(val, "("), ")")
	parts := strings.Split(val, ",")
	if len(parts) != 3 {
		return p.errf("dimension %q is not (x,y,z)", val)
	}
	for i, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			return p.errf("dimension component %q must be a positive integer", s)
		}
		out[i] = v
	}
	return nil
}

// ensureKernel materialises the current kernel once geometry is known.
func (p *accelParser) ensureKernel() (*accelKernel, error) {
	if p.cur != nil {
		return p.cur, nil
	}
	if p.name == "" {
		return nil, p.errf("instruction section before '-kernel name'")
	}
	if p.gridDim[0] == 0 || p.blockDim[0] == 0 {
		return nil, p.errf("kernel %s: instruction section before grid/block dims", p.name)
	}
	// Bound the geometry before any product can overflow or size an
	// allocation (same limit as the container format's validator).
	// boundedProduct caps every partial product, so the arithmetic
	// itself can never wrap whatever the components.
	blocks, ok := boundedProduct(p.gridDim, maxTotalWarps)
	threads, ok2 := boundedProduct(p.blockDim, 32*maxTotalWarps)
	warps := (threads + 31) / 32
	if !ok || !ok2 || int64(blocks)*int64(warps) > maxTotalWarps {
		return nil, p.errf("kernel %s: grid %v x block %v exceeds the %d-warp limit",
			p.name, p.gridDim, p.blockDim, maxTotalWarps)
	}
	p.cur = &accelKernel{
		name:          p.name,
		gridDim:       p.gridDim,
		gridBlocks:    blocks,
		warpsPerBlock: warps,
		slots:         map[uint64]int{},
		streams:       map[int]map[int][]uint64{},
		curBlock:      -1,
		curWarp:       -1,
	}
	return p.cur, nil
}

// boundedProduct multiplies the dimensions, reporting false as soon as
// a partial product exceeds limit — so it never overflows.
func boundedProduct(dim [3]int, limit int64) (int, bool) {
	prod := int64(1)
	for _, d := range dim {
		if d <= 0 || int64(d) > limit {
			return 0, false
		}
		prod *= int64(d)
		if prod > limit {
			return 0, false
		}
	}
	return int(prod), true
}

func (p *accelParser) finishKernel() error {
	if p.cur == nil {
		p.name, p.gridDim, p.blockDim = "", [3]int{}, [3]int{}
		return nil
	}
	p.kernels = append(p.kernels, p.cur)
	p.cur, p.name, p.gridDim, p.blockDim = nil, "", [3]int{}, [3]int{}
	return nil
}

func (p *accelParser) threadBlock(line string) error {
	k, err := p.ensureKernel()
	if err != nil {
		return err
	}
	_, val, ok := strings.Cut(line, "=")
	if !ok {
		return p.errf("thread block line %q has no '='", line)
	}
	parts := strings.Split(strings.TrimSpace(val), ",")
	if len(parts) != 3 {
		return p.errf("thread block %q is not x,y,z", val)
	}
	var b [3]int
	for i, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			return p.errf("thread block component %q must be a non-negative integer", s)
		}
		b[i] = v
	}
	if b[0] >= k.gridDim[0] || b[1] >= k.gridDim[1] || b[2] >= k.gridDim[2] {
		return p.errf("thread block (%d,%d,%d) outside grid (%d,%d,%d)",
			b[0], b[1], b[2], k.gridDim[0], k.gridDim[1], k.gridDim[2])
	}
	k.curBlock = b[0] + b[1]*k.gridDim[0] + b[2]*k.gridDim[0]*k.gridDim[1]
	k.curWarp = -1
	return nil
}

func (p *accelParser) warpLine(line string) error {
	k, err := p.ensureKernel()
	if err != nil {
		return err
	}
	if k.curBlock < 0 {
		return p.errf("warp line outside a thread block section")
	}
	_, val, ok := strings.Cut(line, "=")
	if !ok {
		return p.errf("warp line %q has no '='", line)
	}
	w, err := strconv.Atoi(strings.TrimSpace(val))
	if err != nil || w < 0 || w >= k.warpsPerBlock {
		return p.errf("warp id %q outside [0,%d)", strings.TrimSpace(val), k.warpsPerBlock)
	}
	k.curWarp = w
	return nil
}

// isMemOpcode classifies an SASS opcode as a global load or store.
func isMemOpcode(op string) (trace.OpKind, bool) {
	switch {
	case strings.HasPrefix(op, "LDG"), strings.HasPrefix(op, "LD."), op == "LD",
		strings.HasPrefix(op, "LDL"):
		return trace.OpLoad, true
	case strings.HasPrefix(op, "STG"), strings.HasPrefix(op, "ST."), op == "ST",
		strings.HasPrefix(op, "STL"):
		return trace.OpStore, true
	}
	return trace.OpALU, false
}

// isSharedOpcode recognises shared-memory ops. They carry the same
// width/address tail as global ops but stay on-chip, outside the
// L1/L2/DRAM path the model simulates.
func isSharedOpcode(op string) bool {
	return strings.HasPrefix(op, "LDS") || strings.HasPrefix(op, "STS")
}

func (p *accelParser) instruction(line string) error {
	k, err := p.ensureKernel()
	if err != nil {
		return err
	}
	if k.curBlock < 0 || k.curWarp < 0 {
		return p.errf("instruction %q outside a warp section", line)
	}
	tok := strings.Fields(line)
	if len(tok) < 4 {
		return p.errf("instruction %q has %d fields, need at least PC mask ndest opcode", line, len(tok))
	}
	pc, err := parseHex(tok[0])
	if err != nil {
		return p.errf("bad PC %q: %v", tok[0], err)
	}
	mask, err := parseHex(tok[1])
	if err != nil {
		return p.errf("bad active mask %q: %v", tok[1], err)
	}
	ndest, err := strconv.Atoi(tok[2])
	if err != nil || ndest < 0 {
		return p.errf("bad dest-register count %q", tok[2])
	}
	i := 3 + ndest
	if i >= len(tok) {
		return p.errf("instruction %q truncated before opcode", line)
	}
	opcode := tok[i]
	i++
	kind, isMem := isMemOpcode(opcode)
	shared := isSharedOpcode(opcode)
	if !isMem && !shared {
		k.aluCount++
		return nil
	}
	// Skip "nsrc [src...]" when present, then expect "width address...".
	if i < len(tok) {
		if nsrc, err := strconv.Atoi(tok[i]); err == nil && nsrc >= 0 {
			i += 1 + nsrc
		}
	}
	if i+1 >= len(tok) {
		return p.errf("memory op %q missing width/address", line)
	}
	if _, err := strconv.Atoi(tok[i]); err != nil {
		return p.errf("memory op %q has bad access width %q", line, tok[i])
	}
	// One address is the tracer's coalesced form; otherwise the dump is
	// uncoalesced and must list exactly one address per active lane.
	addrToks := tok[i+1:]
	if lanes := bits.OnesCount64(mask); len(addrToks) != 1 && len(addrToks) != lanes {
		return p.errf("memory op %q has %d addresses for a %d-lane active mask",
			line, len(addrToks), lanes)
	}
	// Coalesce within the instruction: distinct cache lines in
	// first-touch order, the merge the hardware's coalescing unit
	// performs before the access reaches the memory system.
	lines := p.lineBuf[:0]
	for _, at := range addrToks {
		addr, err := parseHex(at)
		if err != nil {
			return p.errf("memory op %q has bad address %q: %v", line, at, err)
		}
		addr -= addr % trace.LineBytes
		dup := false
		for _, prev := range lines {
			if prev == addr {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, addr)
		}
	}
	p.lineBuf = lines[:0]
	if shared {
		// Validated but on-chip: contributes compute latency, no memory
		// traffic.
		k.aluCount++
		return nil
	}

	slot, ok := k.slots[pc]
	if !ok {
		slot = len(k.slotOrder)
		k.slots[pc] = slot
		k.slotOrder = append(k.slotOrder, pc)
		k.slotKind = append(k.slotKind, kind)
	}
	global := k.curBlock*k.warpsPerBlock + k.curWarp
	if k.streams[slot] == nil {
		k.streams[slot] = map[int][]uint64{}
	}
	k.streams[slot][global] = append(k.streams[slot][global], lines...)
	k.memCount++
	return nil
}

func parseHex(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.ToLower(s), "0x")
	return strconv.ParseUint(s, 16, 64)
}

// kernelTrace converts the accumulated per-PC streams into the
// loop-body KernelTrace.
func (ak *accelKernel) kernelTrace() (*KernelTrace, error) {
	if ak.memCount == 0 {
		return nil, fmt.Errorf("traceio: accel-sim kernel %s: no memory instructions", ak.name)
	}
	total := ak.gridBlocks * ak.warpsPerBlock
	kt := &KernelTrace{
		KernelMeta: KernelMeta{
			Name:          ak.name,
			Slots:         len(ak.slotOrder),
			WarpsPerBlock: ak.warpsPerBlock,
			Blocks:        ak.gridBlocks,
			WarpIters:     make([]int, total),
		},
	}

	// Slot order: by PC, so the synthesised body follows program order.
	order := make([]int, len(ak.slotOrder))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ak.slotOrder[order[a]] < ak.slotOrder[order[b]] })

	// ALU gap preserving the instructions-per-memory-op ratio (rounded
	// to nearest: floor division would bias In low by up to almost 1).
	gap := int((ak.aluCount + ak.memCount/2) / ak.memCount)
	b := &trace.BodyBuilder{}
	remap := make([]int, len(order)) // old slot -> new slot
	for newSlot, oldSlot := range order {
		remap[oldSlot] = newSlot
		if ak.slotKind[oldSlot] == trace.OpLoad {
			if s := b.Load(1); s != newSlot {
				return nil, fmt.Errorf("traceio: accel-sim kernel %s: slot bookkeeping mismatch", ak.name)
			}
		} else {
			if s := b.Store(); s != newSlot {
				return nil, fmt.Errorf("traceio: accel-sim kernel %s: slot bookkeeping mismatch", ak.name)
			}
		}
		b.ALU(gap)
	}
	kt.Body = b.Body()

	streams := make([][][]uint64, kt.Slots) // [slot][warp]
	for newSlot := range streams {
		streams[newSlot] = make([][]uint64, total)
	}
	for oldSlot, warps := range ak.streams {
		for g, stream := range warps {
			streams[remap[oldSlot]][g] = stream
		}
	}
	for g := 0; g < total; g++ {
		iters := 1
		for s := range streams {
			if n := len(streams[s][g]); n > iters {
				iters = n
			}
		}
		kt.WarpIters[g] = iters
		// A warp that never touched a slot replays a single null line;
		// the strict validator otherwise (rightly) rejects empty streams
		// on referenced slots.
		for s := range streams {
			if len(streams[s][g]) == 0 {
				streams[s][g] = []uint64{0}
			}
		}
	}
	kt.Streams = make([]*Replay, kt.Slots)
	for s, warps := range streams {
		rep, err := NewReplay(slotName(ak.name, s), warps)
		if err != nil {
			return nil, err
		}
		kt.Streams[s] = rep
	}
	return kt, nil
}
