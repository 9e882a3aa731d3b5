// Package dram models the GDDR5 memory partitions as bandwidth-limited
// queueing servers. Each 128 B access occupies its partition's data bus
// for a fixed service time (derived from the 924 MHz GDDR5 clock and
// the 64-bit per-partition bus of the baseline) on top of a fixed
// access latency. Queueing at the partitions is the simulator's source
// of bandwidth-bottleneck behaviour: as miss traffic grows, the
// next-free cycles of the partitions race ahead of the clock and AML
// inflates — the congestion dynamic the paper's L' and Lo terms track.
package dram

import "poise/internal/config"

// DRAM is the collection of memory partitions.
type DRAM struct {
	latency    int64 // access latency, core cycles
	service    int64 // bus occupancy per request, core cycles
	partitions []int64

	// Stats.
	Accesses   int64
	QueueDelay int64
	BusyCycles int64
}

// New builds the DRAM model for the configuration.
func New(cfg config.Config) *DRAM {
	return &DRAM{
		latency:    int64(cfg.DRAMLatency),
		service:    int64(cfg.DRAMCyclesPerReq),
		partitions: make([]int64, cfg.DRAMPartitions),
	}
}

// Partition maps a line address onto a partition index, spreading
// consecutive lines across partitions (address interleaving).
func (d *DRAM) Partition(lineAddr uint64) int {
	h := lineAddr
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(len(d.partitions)))
}

// Access services a line read/write arriving at cycle now for lineAddr
// and returns the cycle at which the data is available at the memory
// controller.
func (d *DRAM) Access(lineAddr uint64, now int64) int64 {
	p := &d.partitions[d.Partition(lineAddr)]
	start := now
	if *p > start {
		d.QueueDelay += *p - start
		start = *p
	}
	*p = start + d.service
	d.Accesses++
	d.BusyCycles += d.service
	return *p + d.latency
}

// Reset clears server state and statistics.
func (d *DRAM) Reset() {
	for i := range d.partitions {
		d.partitions[i] = 0
	}
	d.Accesses, d.QueueDelay, d.BusyCycles = 0, 0, 0
}
