package dram

import "poise/internal/snap"

// walk lists the DRAM model's mutable state (partition next-free cycles
// and statistics); timings come from the configuration.
func (d *DRAM) walk(k snap.Walk) {
	k.Fixed(len(d.partitions), "dram: snapshot has %d partitions, model has %d")
	for i := range d.partitions {
		k.Varint(&d.partitions[i])
	}
	k.Varint(&d.Accesses)
	k.Varint(&d.QueueDelay)
	k.Varint(&d.BusyCycles)
}

// EncodeState serialises the DRAM model.
func (d *DRAM) EncodeState(w *snap.Writer) { d.walk(snap.Out(w)) }

// DecodeState restores state written by EncodeState onto a DRAM model
// with the same partition count.
func (d *DRAM) DecodeState(r *snap.Reader) error { return snap.Restore(r, d.walk, nil) }
