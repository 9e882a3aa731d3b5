package cache

import (
	"fmt"
	"slices"

	"poise/internal/snap"
)

// Checkpoint codecs for the cache layer (internal/snap payload
// fragments). Encode and Decode are asymmetric on purpose: geometry
// (config, capacities) is never serialised — the restoring side builds
// the cache from the same configuration and Decode verifies the sizes
// line up — so a snapshot can only be restored onto a structurally
// identical device, and the payload stays compact.

// maxWaiters bounds one MSHR entry's merged-waiter list on decode (a
// waiter per warp slot of a large SM is well under this).
const maxWaiters = 1 << 16

// EncodeState serialises Stats.
func (s *Stats) EncodeState(w *snap.Writer) {
	w.Varint(s.Accesses)
	w.Varint(s.Hits)
	w.Varint(s.IntraWarpHits)
	w.Varint(s.InterWarpHits)
	w.Varint(s.PolluteAccesses)
	w.Varint(s.PolluteHits)
	w.Varint(s.NoPollAccesses)
	w.Varint(s.NoPollHits)
	w.Varint(s.Evictions)
	w.Varint(s.Bypasses)
	w.Varint(s.Fills)
}

// DecodeState restores Stats written by EncodeState.
func (s *Stats) DecodeState(r *snap.Reader) {
	s.Accesses = r.Varint()
	s.Hits = r.Varint()
	s.IntraWarpHits = r.Varint()
	s.InterWarpHits = r.Varint()
	s.PolluteAccesses = r.Varint()
	s.PolluteHits = r.Varint()
	s.NoPollAccesses = r.Varint()
	s.NoPollHits = r.Varint()
	s.Evictions = r.Varint()
	s.Bypasses = r.Varint()
	s.Fills = r.Varint()
}

// EncodeState serialises the cache's mutable state: every line, the
// LRU clock, statistics, and the victim tag array when attached.
func (c *Cache) EncodeState(w *snap.Writer) {
	w.Uvarint(uint64(len(c.sets)))
	for i := range c.sets {
		l := &c.sets[i]
		w.Bool(l.valid)
		if !l.valid {
			continue // invalid lines carry no information
		}
		w.Uvarint(l.tag)
		w.Varint(int64(l.lastWarp))
		w.Varint(int64(l.lastPC))
		w.Uvarint(l.lruTick)
	}
	w.Uvarint(c.tick)
	c.Stats.EncodeState(w)
	if c.victim == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		c.victim.EncodeState(w)
	}
}

// DecodeState restores state written by EncodeState onto a cache with
// identical geometry.
func (c *Cache) DecodeState(r *snap.Reader) error {
	n := r.Uvarint()
	if r.Err() == nil && n != uint64(len(c.sets)) {
		return fmt.Errorf("cache: snapshot has %d lines, cache has %d", n, len(c.sets))
	}
	for i := range c.sets {
		l := &c.sets[i]
		if !r.Bool() {
			*l = line{}
			continue
		}
		l.valid = true
		l.tag = r.Uvarint()
		l.lastWarp = int32(r.Varint())
		l.lastPC = int32(r.Varint())
		l.lruTick = r.Uvarint()
	}
	c.tick = r.Uvarint()
	c.Stats.DecodeState(r)
	if r.Bool() {
		if c.victim == nil {
			c.victim = NewVictimTags(1, 1) // resized by DecodeState below
		}
		if err := c.victim.DecodeState(r); err != nil {
			return err
		}
	} else {
		c.victim = nil
	}
	return r.Err()
}

// EncodeState serialises the victim tag array.
func (v *VictimTags) EncodeState(w *snap.Writer) {
	w.Uvarint(uint64(v.perWarp))
	w.Uvarint(uint64(len(v.tags)))
	for i := range v.tags {
		for _, t := range v.tags[i] {
			w.Uvarint(t)
		}
		w.Varint(int64(v.next[i]))
		w.Varint(v.lost[i])
	}
}

// DecodeState restores a victim tag array, resizing to the snapshot's
// geometry (the policy that attached it owns the sizing decision, and
// it is part of the checkpointed policy state).
func (v *VictimTags) DecodeState(r *snap.Reader) error {
	perWarp := int(r.Uvarint())
	warps := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if perWarp < 1 || perWarp > 1<<20 || warps < 1 || warps > 1<<20 {
		return fmt.Errorf("cache: implausible victim tag geometry %dx%d", warps, perWarp)
	}
	if perWarp != v.perWarp || warps != len(v.tags) {
		*v = *NewVictimTags(perWarp, warps)
	}
	for i := range v.tags {
		for j := range v.tags[i] {
			v.tags[i][j] = r.Uvarint()
		}
		v.next[i] = int(r.Varint())
		v.lost[i] = r.Varint()
		if v.next[i] < 0 || v.next[i] >= perWarp {
			return fmt.Errorf("cache: victim ring cursor %d out of range", v.next[i])
		}
	}
	return r.Err()
}

// EncodeState serialises the MSHR file: live entries (sorted by line
// address, so the encoding does not depend on the order releases left
// the packed array in) and the cumulative counters. The free pool is
// not serialised — it only recycles allocations and has no behavioural
// effect.
func (f *MSHRFile) EncodeState(w *snap.Writer) {
	keys := slices.Clone(f.keys)
	slices.Sort(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		m := f.Lookup(k)
		w.Uvarint(m.LineAddr)
		w.Varint(m.IssueCycle)
		w.Bool(m.Pollute)
		w.Varint(int64(m.Warp))
		w.Varint(int64(m.PC))
		w.Uvarint(uint64(len(m.Waiters)))
		for _, wt := range m.Waiters {
			w.Varint(int64(wt.Sched))
			w.Varint(int64(wt.Slot))
			w.Varint(wt.Token)
			w.Varint(int64(wt.Warp))
		}
	}
	w.Varint(f.Allocs)
	w.Varint(f.Merges)
	w.Varint(f.FullFails)
	w.Varint(int64(f.PeakUsed))
}

// DecodeState restores an MSHR file written by EncodeState. The free
// pool is emptied: restored entries allocate fresh storage on the next
// miss, which is behaviourally identical.
func (f *MSHRFile) DecodeState(r *snap.Reader) error {
	n := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if n > f.capacity {
		return fmt.Errorf("cache: snapshot has %d MSHR entries, capacity %d", n, f.capacity)
	}
	f.Reset()
	f.free = f.free[:0]
	for i := 0; i < n; i++ {
		m := &MSHR{}
		m.LineAddr = r.Uvarint()
		m.IssueCycle = r.Varint()
		m.Pollute = r.Bool()
		m.Warp = int32(r.Varint())
		m.PC = int32(r.Varint())
		nw := r.Count(maxWaiters)
		for j := 0; j < nw; j++ {
			m.Waiters = append(m.Waiters, Waiter{
				Sched: int(r.Varint()),
				Slot:  int(r.Varint()),
				Token: r.Varint(),
				Warp:  int32(r.Varint()),
			})
		}
		if r.Err() != nil {
			return r.Err()
		}
		if f.Lookup(m.LineAddr) != nil {
			return fmt.Errorf("cache: snapshot has two MSHR entries for line %#x", m.LineAddr)
		}
		f.keys = append(f.keys, m.LineAddr)
		f.ents = append(f.ents, m)
	}
	f.Allocs = r.Varint()
	f.Merges = r.Varint()
	f.FullFails = r.Varint()
	f.PeakUsed = int(r.Varint())
	return r.Err()
}
