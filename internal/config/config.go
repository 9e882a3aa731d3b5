// Package config holds the architectural and Poise algorithm parameters
// used throughout the simulator.
//
// The defaults mirror the baseline evaluated in the paper (Table IIIb):
// a 32-SM GPU with two greedy-then-oldest warp schedulers per SM, a
// 16 KB 4-way L1 data cache with 32 MSHRs, a 24-bank 2.25 MB shared L2,
// a crossbar interconnect and six GDDR5 memory partitions. Poise's
// timing and threshold parameters (Table IV) live in PoiseParams.
package config

import (
	"errors"
	"fmt"
)

// IndexFn selects how a cache maps line addresses onto sets.
type IndexFn int

const (
	// IndexHash spreads addresses over sets with a xor-fold hash. This is
	// the paper's baseline L1 indexing ("Hash Set-indexed").
	IndexHash IndexFn = iota
	// IndexLinear uses the classic modulo indexing. The paper's Fig. 12
	// sensitivity study switches the evaluation platform to linear
	// indexing while keeping the model trained on hashed indexing.
	IndexLinear
)

func (f IndexFn) String() string {
	switch f {
	case IndexHash:
		return "hash"
	case IndexLinear:
		return "linear"
	default:
		return fmt.Sprintf("IndexFn(%d)", int(f))
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int     // total capacity
	LineBytes int     // line (block) size
	Ways      int     // associativity
	MSHRs     int     // miss-status holding registers (L1 only)
	Index     IndexFn // set index function
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	if c.LineBytes == 0 || c.Ways == 0 {
		return 0
	}
	return c.SizeBytes / (c.LineBytes * c.Ways)
}

// Validate reports an error if the cache geometry is inconsistent.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return errors.New("cache: size, line and ways must be positive")
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*ways %d",
			c.SizeBytes, c.LineBytes*c.Ways)
	}
	if lb := c.LineBytes; lb&(lb-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a power of two", lb)
	}
	// Set counts need not be a power of two (the baseline L2 has 96
	// sets per bank); the cache model indexes by modulo in that case.
	return nil
}

// Config is the full architectural configuration of the simulated GPU.
// The zero value is not usable; start from Default() and adjust.
type Config struct {
	// Core organisation.
	NumSMs          int // streaming multiprocessors
	SchedulersPerSM int // warp schedulers per SM
	WarpsPerSched   int // max warps managed per scheduler (24 in baseline)
	WarpWidth       int // threads per warp (SIMD width)
	RegistersPerSM  int // register file entries, bounds occupancy
	SharedMemPerSM  int // bytes of scratchpad, bounds occupancy
	MaxThreadsPerSM int
	MaxBlocksPerSM  int
	ALULatency      int // cycles until a dependent ALU op may issue (Tpipe)
	IssueWidth      int // instructions issued per scheduler per cycle; only 1 is modelled

	// Memory hierarchy.
	L1            CacheConfig
	L2            CacheConfig
	L2Banks       int
	L2LatencyCore int // core cycles from SM to L2 data return (unloaded)
	L1HitLatency  int // core cycles for an L1 hit

	// Interconnect.
	NoCFlitBytes   int // flit size
	NoCLatency     int // base one-way latency in core cycles
	NoCCyclesPerFl int // core cycles to serialise one flit per port

	// DRAM.
	DRAMPartitions   int
	DRAMLatency      int // core cycles of bank access latency (unloaded)
	DRAMCyclesPerReq int // core cycles of bus occupancy per 128B request (bandwidth)

	// Misc.
	Seed int64 // seed for all pseudo-random address generation
}

// Default returns the paper's baseline configuration (Table IIIb),
// expressed in core clock cycles (1.4 GHz core, 0.7 GHz L2/crossbar,
// 924 MHz GDDR5).
func Default() Config {
	return Config{
		NumSMs:          32,
		SchedulersPerSM: 2,
		WarpsPerSched:   24,
		WarpWidth:       32,
		RegistersPerSM:  32768,
		SharedMemPerSM:  48 * 1024,
		MaxThreadsPerSM: 1536,
		MaxBlocksPerSM:  8,
		ALULatency:      4,
		IssueWidth:      1,

		L1: CacheConfig{
			SizeBytes: 16 * 1024,
			LineBytes: 128,
			Ways:      4,
			MSHRs:     32,
			Index:     IndexHash,
		},
		L2: CacheConfig{
			SizeBytes: 24 * 96 * 8 * 128, // 24 banks x 96 sets x 8 ways x 128B = 2.25 MB
			LineBytes: 128,
			Ways:      8,
			Index:     IndexLinear,
		},
		L2Banks:       24,
		L2LatencyCore: 120,
		L1HitLatency:  28,

		NoCFlitBytes:   32,
		NoCLatency:     8,
		NoCCyclesPerFl: 2, // 0.7 GHz crossbar -> 2 core cycles per flit beat

		DRAMPartitions:   6,
		DRAMLatency:      160,
		DRAMCyclesPerReq: 12,

		Seed: 1,
	}
}

// Scale returns a copy of the configuration shrunk to n SMs with the
// shared memory system (L2 capacity/banks, DRAM partitions/bandwidth,
// crossbar ports) scaled proportionally, preserving per-SM contention
// ratios. It is the supported way to run laptop-scale experiments whose
// qualitative behaviour matches the 32-SM baseline. An n outside what
// CheckScale accepts returns c unchanged.
func (c Config) Scale(n int) Config {
	if n <= 0 || n >= c.NumSMs {
		return c
	}
	ratio := float64(n) / float64(c.NumSMs)
	s := c
	s.NumSMs = n
	scaleInt := func(v int, min int) int {
		x := int(float64(v)*ratio + 0.5)
		if x < min {
			x = min
		}
		return x
	}
	s.L2Banks = scaleInt(c.L2Banks, 1)
	s.DRAMPartitions = scaleInt(c.DRAMPartitions, 1)
	// Keep L2 geometry valid: scale capacity via bank count (each bank
	// keeps its sets/ways/line layout).
	bankBytes := c.L2.SizeBytes / c.L2Banks
	s.L2.SizeBytes = bankBytes * s.L2Banks
	return s
}

// CheckScale refuses an SM count that Scale would not honour: below one,
// or above c's own. Every command checks its -sms with it before it
// runs anything, so no flag value silently simulates the full machine.
func (c Config) CheckScale(n int) error {
	if n < 1 || n > c.NumSMs {
		return fmt.Errorf("%d SMs is outside 1 to %d", n, c.NumSMs)
	}
	return nil
}

// MaxWarpsPerSM is the hardware warp residency limit of one SM.
func (c Config) MaxWarpsPerSM() int { return c.SchedulersPerSM * c.WarpsPerSched }

// Validate reports the first inconsistency found in the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case c.SchedulersPerSM <= 0:
		return errors.New("config: SchedulersPerSM must be positive")
	case c.WarpsPerSched <= 0:
		return errors.New("config: WarpsPerSched must be positive")
	case c.WarpWidth <= 0:
		return errors.New("config: WarpWidth must be positive")
	case c.IssueWidth != 1:
		// Every engine issues one instruction per scheduler per cycle,
		// and the issue-burst arithmetic relies on it.
		return fmt.Errorf("config: IssueWidth %d is not modelled: schedulers issue one instruction per cycle", c.IssueWidth)
	case c.L2Banks <= 0:
		return errors.New("config: L2Banks must be positive")
	case c.DRAMPartitions <= 0:
		return errors.New("config: DRAMPartitions must be positive")
	case c.ALULatency < 1:
		return errors.New("config: ALULatency must be at least 1 cycle")
	case c.L1HitLatency < 1:
		// A hit returning in its issue cycle would read as "miss
		// outstanding" on the scoreboard (return cycle 0 at cycle 0).
		return errors.New("config: L1HitLatency must be at least 1 cycle")
	case c.NoCFlitBytes < 1:
		return errors.New("config: NoCFlitBytes must be at least 1")
	case c.NoCCyclesPerFl < 1:
		// A flit that takes no time would let two fills reach one SM in
		// the same cycle; the simulator's per-SM fill queues rely on the
		// response port serialising them.
		return errors.New("config: NoCCyclesPerFl must be at least 1 cycle")
	case c.NoCLatency < 0:
		return errors.New("config: NoCLatency must not be negative")
	case c.DRAMCyclesPerReq < 1:
		return errors.New("config: DRAMCyclesPerReq must be at least 1 cycle")
	case c.MaxThreadsPerSM < c.MaxWarpsPerSM()*c.WarpWidth:
		return fmt.Errorf("config: MaxThreadsPerSM %d below warp capacity %d",
			c.MaxThreadsPerSM, c.MaxWarpsPerSM()*c.WarpWidth)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if c.L1.MSHRs <= 0 {
		return errors.New("config: L1 MSHRs must be positive")
	}
	if c.L2.SizeBytes%c.L2Banks != 0 {
		return fmt.Errorf("config: L2 size %d not divisible by %d banks",
			c.L2.SizeBytes, c.L2Banks)
	}
	perBank := CacheConfig{
		SizeBytes: c.L2.SizeBytes / c.L2Banks,
		LineBytes: c.L2.LineBytes,
		Ways:      c.L2.Ways,
		Index:     c.L2.Index,
	}
	if perBank.Sets() <= 0 {
		return errors.New("config: L2 bank has no sets")
	}
	return nil
}

// PoiseParams carries the Poise algorithm parameters from Table IV.
type PoiseParams struct {
	// Scoring weights for Eq. 12 (offset 0, 1 and 2 neighbours).
	ScoreW0, ScoreW1, ScoreW2 float64

	TPeriod  int // inference epoch length in cycles
	TWarmup  int // warmup after changing the warp-tuple
	TFeature int // feature-sampling window
	TSearch  int // sampling window per local-search probe

	IMax int // In cut-off: above this the kernel is compute-intensive

	StrideN int // initial local-search stride for N (epsilon_N)
	StrideP int // initial local-search stride for p (epsilon_p)

	// Training-set admission thresholds; no speedup floor (poise's buildSample says why).
	MinTrainCycles  int64   // baseline kernel length must reach this
	MinTrainHitRate float64 // L1 hit rate at (1,1) must exceed this
}

// DefaultPoise returns the paper's Table IV parameter set.
func DefaultPoise() PoiseParams {
	return PoiseParams{
		ScoreW0: 1.0, ScoreW1: 0.50, ScoreW2: 0.25,
		TPeriod:  200_000,
		TWarmup:  2_000,
		TFeature: 10_000,
		TSearch:  4_000,
		IMax:     49,
		StrideN:  2,
		StrideP:  4,

		MinTrainCycles:  10_000,
		MinTrainHitRate: 0.0,
	}
}

// ScaleTiming divides every timing parameter by f (minimum 1 cycle
// granularity preserved), used to run short kernels in unit tests while
// keeping the relative structure of the inference epoch.
func (p PoiseParams) ScaleTiming(f int) PoiseParams {
	if f <= 1 {
		return p
	}
	div := func(v int) int {
		v /= f
		if v < 1 {
			v = 1
		}
		return v
	}
	q := p
	q.TPeriod = div(p.TPeriod)
	q.TWarmup = div(p.TWarmup)
	q.TFeature = div(p.TFeature)
	q.TSearch = div(p.TSearch)
	q.MinTrainCycles = p.MinTrainCycles / int64(f)
	if q.MinTrainCycles < 1 {
		q.MinTrainCycles = 1
	}
	return q
}

// Validate reports the first inconsistency in the Poise parameters.
func (p PoiseParams) Validate() error {
	switch {
	case p.TPeriod <= 0 || p.TWarmup <= 0 || p.TFeature <= 0 || p.TSearch <= 0:
		return errors.New("poise params: all timing windows must be positive")
	case p.TWarmup+p.TFeature > p.TPeriod:
		return errors.New("poise params: warmup+feature window exceeds inference epoch")
	case p.StrideN < 0 || p.StrideP < 0:
		return errors.New("poise params: strides must be non-negative")
	case p.ScoreW0 <= 0:
		return errors.New("poise params: centre scoring weight must be positive")
	}
	return nil
}
