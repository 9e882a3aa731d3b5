package dram

import "poise/internal/snap"

// Walk lists the DRAM model's mutable state (partition next-free cycles
// and statistics); timings come from the configuration. A walk in
// restores onto a model with the same partition count.
func (d *DRAM) Walk(k snap.Walk) {
	k.Fixed(len(d.partitions), "dram: snapshot has %d partitions, model has %d")
	for i := range d.partitions {
		k.Varint(&d.partitions[i])
	}
	k.Varint(&d.Accesses)
	k.Varint(&d.QueueDelay)
	k.Varint(&d.BusyCycles)
}
